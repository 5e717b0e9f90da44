"""The simulated-time gate, and its trajectory over ``BENCH_*.json`` reports.

``repro.tools.bench`` emits one report per invocation.  Its fig1 and
dag sections carry per-point *simulated* time rows (mean and bootstrap
CI over the replicates), which do not depend on the host.  One rule
gates them, in :func:`stats_rows` and :func:`judge_row`: a row is keyed
``impl@cores`` (fig1) or ``dag workload/policy`` (dag), and it fails
when its mean exceeds the reference row's ``ci_hi × (1 + threshold)``.

``bench --compare`` applies the rule with the committed baseline as the
reference.  :func:`history_report` applies it across a pile of reports
ordered by ``meta.timestamp``: each row's latest mean against its
*oldest* CI band, so slow multi-commit creep cannot hide inside
successive re-baselines.  A single-report trajectory (the committed
baseline alone) compares each row with itself and stays green.

Host-time figures are measured and gated in ``benchmarks/`` and
``hostbench/``, not here.
"""

from __future__ import annotations

import glob
import json
import os
from typing import Any, Sequence

__all__ = [
    "GATED_SECTIONS",
    "extract_stats_rows",
    "history_report",
    "judge_row",
    "load_reports",
    "render_history",
    "sparkline",
    "stats_rows",
]

#: The report sections whose stats rows the gate checks.
GATED_SECTIONS = ("fig1", "dag")

_ROW_KEY = {"fig1": "{implementation}@{cores}", "dag": "dag {workload}/{policy}"}


def stats_rows(report: dict[str, Any], section: str) -> dict[str, dict[str, Any]]:
    """*section*'s stats rows of *report* by gate key, in row order."""
    rows = report.get(section, {}).get("stats") or []
    return {_ROW_KEY[section].format(**row): row for row in rows}


def judge_row(
    reference: dict[str, Any], row: dict[str, Any], threshold: float
) -> tuple[float, bool]:
    """The gate's limit from *reference* and whether *row* fails it:
    ``row.mean > reference.ci_hi × (1 + threshold)``."""
    limit = reference["ci_hi"] * (1.0 + threshold)
    return limit, row["mean"] > limit


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
    take the gate down).  Each returned report gains a
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


def extract_stats_rows(
    reports: Sequence[dict[str, Any]],
) -> dict[str, list[dict[str, Any]]]:
    """Each gated stats row's trajectory in report order, by gate key."""
    series: dict[str, list[dict[str, Any]]] = {}
    for report in reports:
        for section in GATED_SECTIONS:
            for key, row in stats_rows(report, section).items():
                series.setdefault(key, []).append(row)
    return series


def history_report(
    reports: Sequence[dict[str, Any]], threshold: float = 0.25
) -> dict[str, Any]:
    """Gate every stats row's latest mean against its oldest CI band."""
    rows = []
    for key, trajectory in sorted(extract_stats_rows(reports).items()):
        first, last = trajectory[0], trajectory[-1]
        limit, drift = judge_row(first, last, threshold)
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
        f"{r['key']}: latest mean {r['latest_mean']:.6g} exceeds baseline "
        f"CI limit {r['limit']:.6g}"
        for r in rows
        if r["verdict"] == "drift"
    ]
    return {
        "n_reports": len(reports),
        "sources": [r["meta"].get("_source", "?") for r in reports],
        "threshold": threshold,
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
