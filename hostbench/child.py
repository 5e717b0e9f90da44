"""One fresh benchmark process: set up a workload, then measure or trace it.

``run.py`` starts this script several times per measured run, and once
per traced run; it is not meant to be run by hand.  The result is one
JSON object on the last line of standard output.

Set-up is everything before the first timed op: importing the program,
clearing the in-process caches, building the workload's inputs, and
one warm-up group of ops (verified like every other op), so work moved
into a first call or into set-up shows in ``setup_s``.

A measuring process runs a host-speed probe on a timer from its start
(:mod:`hostclock`) and reports each op's and its set-up's time as
measured, with the host's speed around it.
"""

from __future__ import annotations

import argparse
import cProfile
import gc
import json
import pstats
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

#: When this process started running Python code; set-up starts here.
STARTED_AT = time.perf_counter()

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))


class Tally:
    """Attempted and failed ops over the whole process."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0

    def add(self, ok: bool) -> None:
        self.attempted += 1
        self.failed += 0 if ok else 1


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def next_group(groups) -> list:
    """The next group of ops, built and then followed by a full collection.

    Collecting between groups, outside the timed spans, keeps one op's
    garbage from being charged to a later op.
    """
    group = next(groups)
    gc.collect()
    return group


def run_group(w, group, tally: Tally) -> list[tuple]:
    """Run and check each op; returns ``(op, start, seconds, ok, result)``."""
    timed = []
    for op in group:
        start, dt, ok, result = w.run_op(op)
        tally.add(ok)
        timed.append((op, start, dt, ok, result))
    return timed


def measure(
    w, wl, groups, seconds: float, group_s: float, tally: Tally, probe
) -> dict:
    """Time whole groups of ops for about *seconds*; ``run.py`` pools them.

    The next group starts only if, going by the last group's time
    *group_s*, it should end nearer to *seconds* than stopping now.
    Each op's time is reported as measured (``op_s``) with the host's
    speed around it (``op_speed``).
    """
    timed: list[tuple] = []
    t0 = time.monotonic()
    while not timed or time.monotonic() - t0 + group_s / 2 < seconds:
        g0 = time.monotonic()
        timed.extend(run_group(w, next_group(groups), tally))
        group_s = time.monotonic() - g0
    probe.stop()
    probe.sample()
    return {
        "op_s": [dt for _op, _s, dt, _ok, _r in timed],
        "op_speed": [
            probe.around(start, start + dt)[1] for _op, start, dt, _ok, _r in timed
        ],
        "op_kinds": [op.kind for op, _s, _dt, _ok, _r in timed],
        "host_speed": probe.median_speed(),
        "report": wl.report([
            (op, dt, ok, result) for op, _s, dt, ok, result in timed
        ]),
    }


# ---------------------------------------------------------------------------
# Traced run
# ---------------------------------------------------------------------------


def memo_ratio(before: dict, after: dict) -> float:
    """Useful memo lookups over attempts, from ``cache_stats()``."""
    def delta(key: str) -> int:
        return after.get(key, 0) - before.get(key, 0)

    useful = delta("placement_hit") + delta("service_memo_hit")
    attempts = (
        delta("placement_hit") + delta("placement_miss") + delta("service_query")
    )
    return useful / attempts if attempts else 0.0


def span_pass(w, wl, groups, seconds: float, tally: Tally) -> tuple[dict, dict]:
    """Time the layer spans of each op (:meth:`Workload.span_op`).

    Returns the metrics and the public op medians by op class, which
    the overhead pass compares against.
    """
    from repro.exec.cache import cache_stats

    durations: list[dict[str, float]] = []
    counts: list[dict[str, float]] = []
    public_by_kind: dict[str, list[float]] = {}
    rebuilt: list[tuple[float, float]] = []
    stats0 = cache_stats()
    t0 = time.monotonic()
    while not durations or time.monotonic() - t0 < seconds:
        for op in next_group(groups):
            spans = w.Spans()
            public_s, rebuilt_s, ok = wl.span_op(op, spans)
            tally.add(ok)
            public_by_kind.setdefault(op.kind, []).append(public_s)
            if rebuilt_s is not None:
                rebuilt.append((public_s, rebuilt_s))
            durations.append(spans.durations)
            counts.append(spans.counts)
    out = {}
    for per_op, scale, suffix in ((durations, 1e3, "_ms"), (counts, 1, "")):
        for name in sorted({k for d in per_op for k in d}):
            values = [d[name] for d in per_op if name in d]
            out[name + suffix] = statistics.median(values) * scale
    out["placement.memo_hit_ratio"] = memo_ratio(stats0, cache_stats())
    kinds = {k: len(v) for k, v in public_by_kind.items()}
    out.update(wl.kind_metrics(kinds))
    out["trace.ops"] = sum(kinds.values())
    if rebuilt:
        out["trace.span_overhead_x"] = (
            statistics.median(r for _p, r in rebuilt)
            / statistics.median(p for p, _r in rebuilt)
        )
    baseline = {k: statistics.median(v) for k, v in public_by_kind.items()}
    return out, baseline


def overhead_pass(w, wl, groups, baseline: dict, tally: Tally) -> dict:
    """One op with a ``repro.observe`` tracer, then one group with metrics on.

    Each op is compared with the span pass's median public op of its
    class.
    """
    from repro.metrics import core as metrics_core

    out = {}
    group = next_group(groups)
    traced = wl.observe_variant(group[0])
    if traced is not None:
        _start, dt, ok, _ = w.run_op(traced)
        tally.add(ok)
        out["observe.traced_op_ms"] = dt * 1e3
        out["observe.overhead_x"] = dt / baseline[traced.kind]
    metrics_core.enable()
    try:
        ops = run_group(w, group, tally)
    finally:
        metrics_core.disable()
        metrics_core.reset_registry()
    out["metrics.enabled_op_ms"] = statistics.median(
        dt for _op, _s, dt, _ok, _r in ops
    ) * 1e3
    out["metrics.overhead_x"] = statistics.median(
        dt / baseline[op.kind] for op, _s, dt, _ok, _r in ops
    )
    return out


def profile_pass(w, groups, seconds: float, tally: Tally) -> tuple[dict, list[str]]:
    """Profile public ops under cProfile; returns the package split."""
    import profile_split

    prof = cProfile.Profile()
    n_ops = 0
    t0 = time.monotonic()
    while n_ops == 0 or time.monotonic() - t0 < seconds:
        for op in next_group(groups):
            prof.enable()
            try:
                result = op.run()
            except Exception:  # noqa: BLE001 - a raising op is a failed op
                result = None
            finally:
                prof.disable()
            tally.add(result is not None and bool(op.check(result)))
            n_ops += 1
    shares, calls, total = profile_split.split(pstats.Stats(prof))
    out = {}
    for pkg, share in shares.items():
        out[f"{pkg}.self_share"] = share
        out[f"{pkg}.calls_per_op"] = calls[pkg] / n_ops
    lines = [
        f"profiled {n_ops} ops, {total:.2f} s of profiled self time; "
        f"package shares sum to {sum(shares.values()) * 100:.2f} %",
        "  " + ", ".join(
            f"{k} {v * 100:.1f}%"
            for k, v in sorted(shares.items(), key=lambda kv: -kv[1])
        ),
    ]
    return out, lines


def import_ms(samples: int = 3) -> float:
    """Median time to import the benchmark's program modules, fresh."""
    code = (
        "import sys, time; sys.path.insert(0, sys.argv[1]); "
        "t = time.perf_counter(); import workloads; "
        "print(time.perf_counter() - t)"
    )
    values = []
    for _ in range(samples):
        out = subprocess.run(
            [sys.executable, "-c", code, str(BENCH_DIR)],
            capture_output=True, text=True, timeout=60, check=True,
        )
        values.append(float(out.stdout.strip().splitlines()[-1]))
    return statistics.median(values) * 1e3


def machine_inputs_ms(w, wl, samples: int = 5) -> float:
    """Median cold build of the workload's topology and distance model."""
    values = []
    for _ in range(samples):
        w.clear_cache()
        t0 = time.perf_counter()
        w.machine_inputs("paper-smp", *wl.shape)
        values.append(time.perf_counter() - t0)
    return statistics.median(values) * 1e3


def trace(w, wl, groups, seconds: float, tally: Tally) -> dict:
    metrics, baseline = span_pass(w, wl, groups, 0.4 * seconds, tally)
    metrics.update(overhead_pass(w, wl, groups, baseline, tally))
    split, lines = profile_pass(w, groups, 0.25 * seconds, tally)
    metrics.update(split)
    metrics["setup.import_ms"] = import_ms()
    metrics["topology.machine_inputs_ms"] = machine_inputs_ms(w, wl)
    return {"metrics": metrics, "applies": list(wl.layer_metrics), "report": lines}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--mode", choices=("measure", "trace"), required=True)
    ap.add_argument("--src", type=Path, required=True)
    args = ap.parse_args(argv)

    import hostclock

    probe = hostclock.SpeedProbe()
    if args.mode == "measure":
        probe.start()

    import workloads as w

    import repro

    where = Path(repro.__file__).resolve()
    if args.src.resolve() not in where.parents:
        print(f"repro imported from {where}, not from {args.src}", file=sys.stderr)
        return 2
    w.fresh_process_state()
    wl = w.make_workload(args.workload, args.seed)
    groups = wl.groups()
    tally = Tally()
    wl.prime()
    warm_up = next_group(groups)
    g0 = time.monotonic()
    run_group(w, warm_up, tally)
    ready_at = time.perf_counter()

    out: dict = {"started_at": time.monotonic() - (ready_at - STARTED_AT)}
    if args.mode == "measure":
        out.update(measure(
            w, wl, groups, args.seconds, time.monotonic() - g0, tally, probe
        ))
        out["setup_s"], out["setup_speed"] = probe.around(STARTED_AT, ready_at)
    elif args.mode == "trace":
        out.update(trace(w, wl, groups, args.seconds, tally))
    out["attempted"] = tally.attempted
    out["failed"] = tally.failed
    out["peak_rss_mb"] = peak_rss_mb()
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
