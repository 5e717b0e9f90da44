"""Perf-trajectory mining over accumulated ``BENCH_*.json`` reports.

``repro.tools.bench`` emits one report per invocation; this module
turns the pile into a **trend-aware regression detector** (the ISSUE-10
tentpole): load every report (plus the committed
``benchmarks/baseline_ci.json``), order by ``meta.timestamp``, extract
per-headline series, and flag drift with the existing ``repro.stats``
machinery.

Two classes of series, two detectors:

* **Deterministic stats rows** (fig1 / dag per-point simulated means
  with bootstrap CIs): the latest mean is gated against the *oldest*
  row's CI band — ``mean > ci_hi × (1 + threshold)`` — exactly the
  standing 25 % CI-band gate, but anchored at the start of the
  trajectory so slow multi-commit creep cannot hide inside successive
  re-baselines.
* **Wall-clock headlines** (placement-service latency/throughput,
  sweep and cache speedups): host-dependent, so a band gate
  would misfire.  Instead the series is split into older/newer halves
  and drift requires *both* a relative median change beyond the
  threshold in the harmful direction *and* a medium/large Cliff's
  delta between the halves — direction plus effect size, not noise.

A single-report trajectory (the committed baseline alone) has nothing
to compare and reports every headline ``ok`` — the acceptance
criterion's "stays green on the committed trajectory".
"""

from __future__ import annotations

import glob
import json
import os
from typing import Any, Sequence

from repro.stats.significance import cliffs_delta, cliffs_delta_label

__all__ = [
    "HEADLINES",
    "extract_headline_series",
    "extract_stats_rows",
    "history_report",
    "load_reports",
    "render_history",
]

#: Wall-clock headline series: (section, metric, better-direction).
HEADLINES: tuple[tuple[str, str, str], ...] = (
    ("fig1", "speedup", "higher"),
    ("cache", "warm_speedup", "higher"),
    ("placement_service", "warm_p50_s", "lower"),
    ("placement_service", "warm_p99_s", "lower"),
    ("placement_service", "queries_per_s", "higher"),
    ("dag", "speedup", "higher"),
)

#: Minimum series length before the half-split detector speaks; below
#: it every verdict is "ok" with note "insufficient history".
MIN_SERIES = 4


def load_reports(
    paths: Sequence[str] | None = None,
    *,
    directory: str = ".",
    baseline: str | None = "benchmarks/baseline_ci.json",
) -> list[dict[str, Any]]:
    """Load BENCH reports, sorted by ``meta.timestamp``.

    With *paths* ``None``, globs ``BENCH_*.json`` under *directory* and
    prepends *baseline* when it exists.  Files that fail to parse or
    lack a ``meta`` section are skipped (a truncated artifact must not
    take the detector down).  Each returned report gains a
    ``meta._source`` path for provenance.
    """
    if paths is None:
        found = sorted(glob.glob(os.path.join(directory, "BENCH_*.json")))
        candidates = list(found)
        if baseline and os.path.exists(baseline):
            candidates.insert(0, baseline)
    else:
        candidates = list(paths)
    reports = []
    for path in candidates:
        try:
            with open(path) as fh:
                report = json.load(fh)
        except (OSError, json.JSONDecodeError):
            continue
        if not isinstance(report, dict) or "meta" not in report:
            continue
        report["meta"]["_source"] = path
        reports.append(report)
    reports.sort(key=lambda r: str(r["meta"].get("timestamp", "")))
    return reports


def extract_headline_series(
    reports: Sequence[dict[str, Any]],
) -> list[dict[str, Any]]:
    """One ``{section, metric, direction, values, sources}`` per headline.

    Reports missing a section (e.g. ``--no-cache`` runs have no
    ``cache``) simply contribute nothing to that series.
    """
    out = []
    for section, metric, direction in HEADLINES:
        values: list[float] = []
        sources: list[str] = []
        for report in reports:
            value = report.get(section, {}).get(metric)
            if isinstance(value, (int, float)):
                values.append(float(value))
                sources.append(report["meta"].get("_source", "?"))
        out.append(
            {
                "section": section,
                "metric": metric,
                "direction": direction,
                "values": values,
                "sources": sources,
            }
        )
    return out


def extract_stats_rows(
    reports: Sequence[dict[str, Any]],
) -> dict[str, list[dict[str, Any]]]:
    """Deterministic per-point rows keyed ``"fig1 bind@8"`` style.

    Each value is the row's trajectory in report order (rows carry
    ``mean`` / ``ci_lo`` / ``ci_hi`` from the replicated sweeps).
    """
    series: dict[str, list[dict[str, Any]]] = {}
    for report in reports:
        for row in report.get("fig1", {}).get("stats", []) or []:
            key = f"fig1 {row['implementation']}@{row['cores']}"
            series.setdefault(key, []).append(row)
        for row in report.get("dag", {}).get("stats", []) or []:
            key = f"dag {row['workload']}/{row['policy']}"
            series.setdefault(key, []).append(row)
    return series


def _judge_walltime(
    values: Sequence[float], direction: str, threshold: float
) -> dict[str, Any]:
    """Half-split drift verdict for one host-dependent headline."""
    n = len(values)
    if n < MIN_SERIES:
        return {
            "verdict": "ok",
            "note": f"insufficient history (n={n} < {MIN_SERIES})",
        }
    half = n // 2
    older, newer = list(values[:half]), list(values[half:])
    med_old = sorted(older)[len(older) // 2]
    med_new = sorted(newer)[len(newer) // 2]
    rel = (med_new - med_old) / med_old if med_old else 0.0
    delta = cliffs_delta(newer, older)
    label = cliffs_delta_label(delta)
    harmful = rel > threshold if direction == "lower" else rel < -threshold
    drift = harmful and label in ("medium", "large")
    return {
        "verdict": "drift" if drift else "ok",
        "relative_change": rel,
        "cliffs_delta": delta,
        "effect": label,
        "median_older": med_old,
        "median_newer": med_new,
    }


def history_report(
    reports: Sequence[dict[str, Any]], threshold: float = 0.25
) -> dict[str, Any]:
    """Build the full trajectory report over loaded BENCH files."""
    headlines = []
    for series in extract_headline_series(reports):
        judged = _judge_walltime(
            series["values"], series["direction"], threshold
        )
        headlines.append({**series, **judged})

    rows = []
    for key, trajectory in sorted(extract_stats_rows(reports).items()):
        first, last = trajectory[0], trajectory[-1]
        limit = first["ci_hi"] * (1.0 + threshold)
        drift = len(trajectory) > 1 and last["mean"] > limit
        rows.append(
            {
                "key": key,
                "n": len(trajectory),
                "means": [t["mean"] for t in trajectory],
                "baseline_mean": first["mean"],
                "baseline_ci_hi": first["ci_hi"],
                "limit": limit,
                "latest_mean": last["mean"],
                "verdict": "drift" if drift else "ok",
            }
        )

    drifts = [
        f"{h['section']}.{h['metric']}: median "
        f"{h['median_older']:.6g} -> {h['median_newer']:.6g} "
        f"({h['relative_change']:+.0%}, delta {h['cliffs_delta']:+.2f} "
        f"{h['effect']})"
        for h in headlines
        if h["verdict"] == "drift"
    ] + [
        f"{r['key']}: latest mean {r['latest_mean']:.6g} exceeds baseline "
        f"CI limit {r['limit']:.6g}"
        for r in rows
        if r["verdict"] == "drift"
    ]
    return {
        "n_reports": len(reports),
        "sources": [r["meta"].get("_source", "?") for r in reports],
        "threshold": threshold,
        "headlines": headlines,
        "stats_rows": rows,
        "drifts": drifts,
        "ok": not drifts,
    }


_SPARK = "▁▂▃▄▅▆▇█"


def sparkline(values: Sequence[float], width: int = 24) -> str:
    """A unicode sparkline of *values*, resampled to at most *width*."""
    vals = list(values)
    if not vals:
        return ""
    if len(vals) > width:
        step = len(vals) / width
        vals = [vals[int(i * step)] for i in range(width)]
    lo, hi = min(vals), max(vals)
    if hi <= lo:
        return _SPARK[0] * len(vals)
    span = hi - lo
    return "".join(
        _SPARK[min(len(_SPARK) - 1, int((v - lo) / span * len(_SPARK)))]
        for v in vals
    )


def render_history(report: dict[str, Any]) -> str:
    """Human-readable trajectory table for the CLI."""
    lines = [
        f"bench history: {report['n_reports']} report(s), "
        f"threshold {report['threshold']:.0%}"
    ]
    for h in report["headlines"]:
        name = f"{h['section']}.{h['metric']}"
        if not h["values"]:
            lines.append(f"  {name:<38} (no data)")
            continue
        spark = sparkline(h["values"])
        latest = h["values"][-1]
        note = h.get("note", "")
        if "relative_change" in h:
            note = (
                f"{h['relative_change']:+.0%} "
                f"delta {h['cliffs_delta']:+.2f} ({h['effect']})"
            )
        mark = "DRIFT" if h["verdict"] == "drift" else "ok"
        lines.append(
            f"  {name:<38} {spark:<24} latest {latest:.6g}  "
            f"[{mark}] {note}"
        )
    for r in report["stats_rows"]:
        mark = "DRIFT" if r["verdict"] == "drift" else "ok"
        lines.append(
            f"  {r['key']:<38} {sparkline(r['means']):<24} "
            f"latest {r['latest_mean']:.6g}  [{mark}] "
            f"limit {r['limit']:.6g} (n={r['n']})"
        )
    if report["drifts"]:
        lines.append(f"  -> {len(report['drifts'])} drift(s) detected")
    else:
        lines.append("  -> trajectory green")
    return "\n".join(lines)
