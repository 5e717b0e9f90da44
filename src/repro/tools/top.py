"""``repro.tools.top`` — a live dashboard for an in-flight sweep.

Tails the metrics-bus snapshot file a sweep writes (wire a
:class:`repro.metrics.bus.SnapshotWriter` into the runner, e.g.
``repro.tools.fig1 --metrics live.json``) and renders progress, cache
hit rate, query/throughput rates, and latency sparklines in place.

Usage::

    # terminal 1: a sweep publishing telemetry
    python -m repro.tools.fig1 --quick --metrics live.json
    # terminal 2: watch it run
    python -m repro.tools.top live.json

    python -m repro.tools.top live.json --once   # single frame (CI logs)
    python -m repro.tools.top --demo             # synthetic frame, no sweep

The renderer is a pure function of two snapshots (current + previous,
for rates), so the test suite drives it without terminals or timing.
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import Any, Mapping, Optional

from repro.metrics.bus import read_snapshot
from repro.metrics.core import bucket_quantile
from repro.metrics.history import sparkline

_BAR_FILL = "#"
_BAR_EMPTY = "-"


def _metric(snapshot: Mapping[str, Any], name: str) -> Optional[dict]:
    return snapshot.get("metrics", {}).get(name)


def _value(snapshot: Mapping[str, Any], name: str, default: float = 0.0) -> float:
    sample = _metric(snapshot, name)
    if sample is None or "value" not in sample:
        return default
    return float(sample["value"])


def _hist_quantile(sample: Mapping[str, Any], q: float) -> float:
    """Bucket-resolution quantile from a snapshot histogram sample."""
    return bucket_quantile(sample["bounds"], sample["counts"], sample["count"], q)


def _fmt_seconds(s: float) -> str:
    if s == float("inf"):
        return "inf"
    if s >= 1.0:
        return f"{s:.2f}s"
    if s >= 1e-3:
        return f"{s * 1e3:.1f}ms"
    return f"{s * 1e6:.0f}us"


def _rate(
    cur: Mapping[str, Any], prev: Optional[Mapping[str, Any]], name: str
) -> Optional[float]:
    """Per-second rate of a counter between two snapshots."""
    if prev is None:
        return None
    dt = float(cur.get("written_at", 0)) - float(prev.get("written_at", 0))
    if dt <= 0:
        return None
    return (_value(cur, name) - _value(prev, name)) / dt


def render_dashboard(
    snapshot: Mapping[str, Any],
    prev: Optional[Mapping[str, Any]] = None,
    width: int = 72,
) -> str:
    """One dashboard frame from a snapshot (pure; no I/O)."""
    lines: list[str] = ["repro.top — live sweep telemetry"]

    # -- sweep progress ------------------------------------------------
    total = _value(snapshot, "sweep_progress_total")
    done = _value(snapshot, "sweep_progress_done")
    if total > 0:
        frac = min(1.0, done / total)
        bar_w = max(10, width - 34)
        filled = int(frac * bar_w)
        bar = _BAR_FILL * filled + _BAR_EMPTY * (bar_w - filled)
        lines.append(f"sweep    [{bar}] {int(done)}/{int(total)} done")
    else:
        lines.append("sweep    (no sweep in flight)")
    pps = _value(snapshot, "sweep_points_per_sec")
    run_rate = _rate(snapshot, prev, "sim_runs_total")
    rate_bits = []
    if run_rate is not None and run_rate > 0:
        rate_bits.append(f"{run_rate:.1f} runs/s")
    if pps > 0:
        rate_bits.append(f"last sweep {pps:.1f} points/s")
    if rate_bits:
        lines.append(f"rate     {'   '.join(rate_bits)}")

    # -- placement service ---------------------------------------------
    queries = _value(snapshot, "placement_queries_total")
    if queries:
        warm = _value(snapshot, "placement_memo_hits_total")
        qps = _rate(snapshot, prev, "placement_queries_total")
        line = (
            f"place    {queries:.0f} queries, {warm / queries:.0%} warm"
        )
        if qps is not None and qps > 0:
            line += f", {qps:,.0f} q/s"
        lines.append(line)
        for tier, name in (
            ("warm", "placement_warm_seconds"),
            ("cold", "placement_cold_seconds"),
        ):
            sample = _metric(snapshot, name)
            if sample and sample.get("count"):
                p50 = _hist_quantile(sample, 0.5)
                p95 = _hist_quantile(sample, 0.95)
                p99 = _hist_quantile(sample, 0.99)
                spark = sparkline(sample["counts"], width=20)
                lines.append(
                    f"  {tier}   {spark}  p50 {_fmt_seconds(p50)}  "
                    f"p95 {_fmt_seconds(p95)}  p99 {_fmt_seconds(p99)}"
                )

    # -- engine --------------------------------------------------------
    events = _value(snapshot, "sim_events_total")
    if events:
        eps = _value(snapshot, "engine_events_per_sec")
        line = f"engine   {events:,.0f} events"
        if eps > 0:
            line += f"   {eps:,.0f} ev/s (last run)"
        lines.append(line)
    waits = _value(snapshot, "orwl_waits_total")
    if waits:
        wakeups = _value(snapshot, "orwl_wakeups_total")
        lines.append(
            f"orwl     {waits:,.0f} waits   {wakeups:,.0f} wakeups"
        )
        wait_hist = _metric(snapshot, "orwl_wait_sim_seconds")
        if wait_hist and wait_hist.get("count"):
            lines.append(
                f"  waits   {sparkline(wait_hist['counts'], width=20)}  "
                f"p95 {_fmt_seconds(_hist_quantile(wait_hist, 0.95))} (sim)"
            )
    return "\n".join(lines)


def demo_snapshot() -> dict[str, Any]:
    """A plausible synthetic snapshot (offline rendering, tests)."""
    from repro.metrics.core import LATENCY_BUCKETS, MetricRegistry

    reg = MetricRegistry()
    reg.gauge("sweep_progress_total").set(40)
    reg.gauge("sweep_progress_done").set(28)
    reg.gauge("sweep_points_per_sec").set(3.7)
    reg.counter("placement_queries_total").inc(1200)
    reg.counter("placement_memo_hits_total").inc(1180)
    warm = reg.histogram(
        "placement_warm_seconds", buckets=LATENCY_BUCKETS, stable=False
    )
    for k, n in ((4, 200), (5, 640), (6, 280), (7, 60)):
        for _ in range(n):
            warm.observe(LATENCY_BUCKETS[k])
    reg.counter("sim_events_total").inc(2_400_000)
    reg.gauge("engine_events_per_sec").set(1_900_000)
    reg.counter("orwl_waits_total").inc(88_000)
    reg.counter("orwl_wakeups_total").inc(88_000)
    snap = reg.snapshot()
    snap["written_at"] = time.time()
    return snap


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro.tools.top", description=__doc__.splitlines()[0]
    )
    parser.add_argument(
        "snapshot", nargs="?", default="live.json",
        help="metrics-bus snapshot file to follow (default: live.json)",
    )
    parser.add_argument(
        "--once", action="store_true",
        help="render one frame and exit (no screen clearing)",
    )
    parser.add_argument(
        "--interval", type=float, default=1.0,
        help="refresh interval in seconds (default: 1.0)",
    )
    parser.add_argument(
        "--demo", action="store_true",
        help="render a synthetic frame (no sweep needed)",
    )
    args = parser.parse_args(argv)
    if not args.interval > 0:
        parser.error(f"--interval must be > 0 seconds, got {args.interval}")

    if args.demo:
        print(render_dashboard(demo_snapshot()))
        return 0

    prev: Optional[dict] = None
    try:
        while True:
            snap = read_snapshot(args.snapshot)
            if snap is None:
                frame = (
                    f"repro.top — waiting for {args.snapshot} "
                    "(start a sweep with --metrics)"
                )
            else:
                frame = render_dashboard(snap, prev)
                prev = snap
            if args.once:
                print(frame)
                return 0 if snap is not None else 1
            # Clear + home, then the frame (plain ANSI; no curses dep).
            sys.stdout.write("\x1b[2J\x1b[H" + frame + "\n")
            sys.stdout.flush()
            time.sleep(args.interval)
    except KeyboardInterrupt:
        return 0


if __name__ == "__main__":
    raise SystemExit(main())
