"""Deterministic simulated-time gate: measure, don't guess.

Emits one ``BENCH_<stamp>.json`` per invocation so the repo accumulates
a trajectory across commits.  Sections:

* ``fig1`` — a Figure-1 sweep run serially (``n_workers=1``, the
  reference path) and through the process pool (``n_workers=0`` = all
  host cores), with a bit-identity verdict from the per-point
  determinism fingerprints; with ``--seeds N > 1``, per-point
  simulated-time rows (mean / stddev / bootstrap CI) and
  speedup-significance verdicts.
* ``dag`` — the E7 placement sweep, serial vs pooled the same way, with
  per-workload simulated-time rows, Bind-vs-NoBind speedups and a
  bit-identity verdict.

Every figure is simulated, so it does not depend on the host.
``--compare BASELINE.json`` gates the stats rows and bit-identity
verdicts against a committed baseline; ``history`` gates the same rows
across accumulated reports (:mod:`repro.metrics.history` holds the one
rule).  Host-time figures are measured and gated in ``benchmarks/`` and
``hostbench/``.

Usage::

    python -m repro.tools.bench                # full measurement
    python -m repro.tools.bench --quick        # CI-sized, ~seconds
    python -m repro.tools.bench --quick --seeds 3 --compare benchmarks/baseline_ci.json
    python -m repro.tools.bench history
"""

from __future__ import annotations

import argparse
import json
import platform
import sys
import time
from typing import Any, Callable

from repro.exec.runner import resolve_workers
from repro.experiments.dag import run_dag
from repro.experiments.fig1 import run_fig1
from repro.metrics.history import GATED_SECTIONS, judge_row, stats_rows
from repro.tools._common import require_positive


def _serial_and_pooled(sweep: Callable[[int], Any]) -> tuple[Any, bool]:
    """Run *sweep(n_workers)* serially and through the pool.

    Returns the serial result and whether every replicate of the two
    runs has the same point, simulated time and run fingerprint.
    """

    def fingerprints(result: Any) -> list[tuple[Any, float, Any]]:
        return [
            (key, p.time, p.fingerprint)
            for key, reps in result.replicates.items()
            for p in reps
        ]

    serial = sweep(1)
    return serial, fingerprints(serial) == fingerprints(sweep(0))


def _stats_row(s: Any) -> dict[str, Any]:
    """The JSON fields of one point's :class:`~repro.stats.SeedStats`."""
    return {
        "n": s.n,
        "mean": s.mean,
        "median": s.median,
        "stddev": s.stddev,
        "ci_lo": s.ci_lo,
        "ci_hi": s.ci_hi,
        "confidence": s.confidence,
    }


def bench_fig1(
    core_counts: tuple[int, ...], iterations: int, n: int, seed: int,
    seeds: int = 1,
) -> dict[str, Any]:
    """Serial vs pooled Figure-1 sweep: bit-identity and, with *seeds*
    > 1, per-point variance rows and speedup-significance verdicts."""
    serial, identical = _serial_and_pooled(
        lambda workers: run_fig1(
            core_counts=core_counts, iterations=iterations, n=n, seed=seed,
            fingerprint=True, n_workers=workers, seeds=seeds,
        )
    )
    report: dict[str, Any] = {
        "core_counts": list(core_counts),
        "iterations": iterations,
        "n": n,
        "seeds": seeds,
        "n_points": len(serial.points),
        "n_runs": sum(len(reps) for reps in serial.replicates.values()),
        "bit_identical": identical,
    }
    if seeds > 1:
        report["stats"] = [
            {"implementation": impl, "cores": cores, **_stats_row(s)}
            for (impl, cores), s in sorted(serial.seed_stats.items())
        ]
        report["significance"] = [
            {
                "baseline": v.baseline,
                "candidate": v.candidate,
                "speedup_mean": v.speedup_mean,
                "speedup_ci": [v.speedup_ci_lo, v.speedup_ci_hi],
                "p_value": v.p_value,
                "verdict": v.verdict,
                "method": v.method,
            }
            for v in serial.speedup_verdicts()
        ]
    return report


def bench_dag(
    seeds: int = 3, n_cores: int = 16, scale: int = 2, seed: int = 0
) -> dict[str, Any]:
    """Serial vs pooled E7 sweep: per-workload simulated-time rows,
    Bind-vs-NoBind speedups and a bit-identity verdict."""
    serial, identical = _serial_and_pooled(
        lambda workers: run_dag(
            n_cores=n_cores, scale=scale, seed=seed, seeds=seeds,
            fingerprint=True, n_workers=workers,
        )
    )
    return {
        "n_cores": n_cores,
        "scale": scale,
        "seeds": seeds,
        "n_runs": sum(len(reps) for reps in serial.replicates.values()),
        "bit_identical": identical,
        "stats": [
            {"workload": workload, "policy": policy, **_stats_row(s)}
            for (workload, policy), s in sorted(serial.seed_stats.items())
        ],
        "bind_speedups": {
            workload: serial.speedup(workload, "nobind")
            for workload in serial.workloads
        },
    }


def compare_reports(
    current: dict[str, Any],
    baseline: dict[str, Any],
    threshold: float = 0.25,
) -> tuple[list[str], list[str]]:
    """The CI regression gate: current report vs committed baseline.

    Gates each fig1 and dag stats row with
    :func:`repro.metrics.history.judge_row` (``mean > ci_hi × (1 +
    threshold)`` against the baseline row), plus each section's
    serial/pooled bit-identity verdict.  The dag section is gated only
    when the baseline has one, so pre-E7 baselines keep working.
    Returns ``(passed, failed)`` human-readable check lines; an empty
    ``failed`` means the gate is green.
    """
    passed: list[str] = []
    failed: list[str] = []
    for section in GATED_SECTIONS:
        base, cur = baseline.get(section, {}), current.get(section, {})
        if section != "fig1" and not base:
            continue
        base_rows = stats_rows(baseline, section)
        cur_rows = stats_rows(current, section)
        if not base_rows:
            failed.append(
                f"baseline has no {section} stats section (regenerate it "
                "with --quick --seeds N, N > 1)"
            )
        if not cur_rows:
            failed.append(
                f"current run has no {section} stats section (run --compare "
                "with --seeds N, N > 1)"
            )
        for key, base_row in base_rows.items():
            cur_row = cur_rows.get(key)
            if cur_row is None:
                failed.append(f"{key}: point missing from current run")
                continue
            limit, regressed = judge_row(base_row, cur_row, threshold)
            line = (
                f"{key}: mean {cur_row['mean']:.6f} vs baseline "
                f"{base_row['mean']:.6f} (limit {limit:.6f})"
            )
            if regressed:
                failed.append(
                    f"{line} — regressed "
                    f"{cur_row['mean'] / base_row['mean']:.2f}x"
                )
            else:
                passed.append(line)

        prefix = "" if section == "fig1" else f"{section} "
        if base.get("bit_identical") and not cur.get("bit_identical"):
            failed.append(
                f"{prefix}serial/parallel sweeps no longer bit-identical "
                "(baseline was bit-identical)"
            )
        elif "bit_identical" in cur:
            passed.append(
                f"{prefix}bit-identical serial/parallel: {cur['bit_identical']}"
            )
    return passed, failed


def _cmd_history(argv: list[str]) -> int:
    """``bench history``: the simulated-time gate across accumulated reports.

    Ingests every ``BENCH_*.json`` in a directory plus the committed
    ``benchmarks/baseline_ci.json``, orders them by timestamp, and
    renders each stats row's trajectory with a sparkline.  Exits 1 when
    any row's latest mean exceeds its oldest CI band (see
    :mod:`repro.metrics.history`) unless ``--no-check``.
    """
    from repro.metrics.history import (
        history_report,
        load_reports,
        render_history,
    )

    parser = argparse.ArgumentParser(
        prog="repro.tools.bench history",
        description="simulated-time gate across accumulated reports",
    )
    parser.add_argument("reports", nargs="*", metavar="BENCH.json",
                        help="explicit report files (default: glob "
                             "BENCH_*.json under --dir)")
    parser.add_argument("--dir", default=".",
                        help="directory to glob BENCH_*.json from "
                             "(default: .)")
    parser.add_argument("--baseline", default="benchmarks/baseline_ci.json",
                        help="committed baseline report to prepend "
                             "(default: benchmarks/baseline_ci.json)")
    parser.add_argument("--threshold", type=float, default=0.25,
                        help="relative drift tolerance (default 0.25)")
    parser.add_argument("--json", action="store_true",
                        help="emit the full history report as JSON")
    parser.add_argument("--no-check", action="store_true",
                        help="report only; exit 0 even on drift")
    args = parser.parse_args(argv)

    reports = load_reports(
        args.reports or None, directory=args.dir, baseline=args.baseline
    )
    if not reports:
        print("[bench history] no reports found "
              f"(dir={args.dir!r}, baseline={args.baseline!r})")
        return 0 if args.no_check else 1
    result = history_report(reports, threshold=args.threshold)
    if args.json:
        print(json.dumps(result, indent=2, sort_keys=True, default=str))
    else:
        print(render_history(result))
    if not result["ok"] and not args.no_check:
        return 1
    return 0


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    if argv and argv[0] == "history":
        return _cmd_history(argv[1:])
    parser = argparse.ArgumentParser(
        prog="repro.tools.bench", description=__doc__.splitlines()[0]
    )
    parser.add_argument("--quick", action="store_true",
                        help="CI-sized configuration (seconds, not minutes)")
    parser.add_argument("--output", metavar="FILE",
                        help="output path (default BENCH_<stamp>.json)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seeds", type=int, default=1,
                        help="replicates per fig1 point; > 1 adds per-point "
                             "variance rows and significance verdicts to the "
                             "BENCH artifact")
    parser.add_argument("--compare", metavar="BASELINE.json",
                        help="regression gate: compare this run's simulated "
                             "stats rows against a committed baseline "
                             "report; exit nonzero on regression "
                             "(needs --seeds N, N > 1)")
    parser.add_argument("--threshold", type=float, default=0.25,
                        help="gate tolerance: fail when a mean exceeds the "
                             "baseline CI upper bound by more than this "
                             "fraction (default 0.25)")
    args = parser.parse_args(argv)
    require_positive(parser, seeds=args.seeds)
    baseline = None
    if args.compare:
        if args.seeds < 2:
            parser.error("--compare gates the fig1 stats rows, which need "
                         f"--seeds N with N > 1, got {args.seeds}")
        try:
            with open(args.compare) as fh:
                baseline = json.load(fh)
        except OSError as exc:
            parser.error(f"--compare {args.compare}: {exc.strerror or exc}")
        except json.JSONDecodeError as exc:
            parser.error(f"--compare {args.compare}: not a JSON report ({exc})")

    if args.quick:
        core_counts: tuple[int, ...] = (8, 16)
        iterations, n = 2, 1024
        dag_seeds, dag_cores = 3, 16
    else:
        core_counts = (8, 16, 32, 64)
        iterations, n = 3, 8192
        dag_seeds, dag_cores = 5, 32

    host_cores = resolve_workers(None)
    report: dict[str, Any] = {
        "meta": {
            "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
            "host_cores": host_cores,
            "python": sys.version.split()[0],
            "platform": platform.platform(),
            "quick": args.quick,
        }
    }

    print(f"[bench] fig1 sweep serial vs parallel "
          f"(cores={list(core_counts)}, seeds={args.seeds}, "
          f"host has {host_cores} CPU(s))...")
    report["fig1"] = bench_fig1(core_counts, iterations, n, args.seed,
                                seeds=args.seeds)
    f = report["fig1"]
    print(f"  bit-identical: {f['bit_identical']}")
    if args.seeds > 1:
        for row in f["stats"]:
            print(f"  {row['implementation']:>12}@{row['cores']:<4} "
                  f"mean {row['mean']:.4f}  sd {row['stddev']:.4f}  "
                  f"CI [{row['ci_lo']:.4f}, {row['ci_hi']:.4f}]  (n={row['n']})")
        for v in f["significance"]:
            p = f"p={v['p_value']:.4f}" if v["p_value"] is not None else "p=n/a"
            print(f"  {v['candidate']} vs {v['baseline']}: "
                  f"{v['speedup_mean']:.2f}x {p} -> {v['verdict']}")

    print(f"[bench] dag E7 sweep serial vs parallel "
          f"(cores={dag_cores}, seeds={dag_seeds})...")
    report["dag"] = bench_dag(seeds=dag_seeds, n_cores=dag_cores,
                              seed=args.seed)
    dg = report["dag"]
    print(f"  bit-identical: {dg['bit_identical']}")
    for workload, s in sorted(dg["bind_speedups"].items()):
        print(f"  bind vs nobind on {workload}: {s:.2f}x")

    out = args.output or time.strftime("BENCH_%Y%m%d_%H%M%S.json")
    with open(out, "w") as fh:
        json.dump(report, fh, indent=2)
        fh.write("\n")
    print(f"[bench] wrote {out}")

    if baseline is not None:
        passed, failed = compare_reports(
            report, baseline, threshold=args.threshold
        )
        print(f"[bench] regression gate vs {args.compare} "
              f"(threshold {args.threshold:.0%}):")
        for line in passed:
            print(f"  ok   {line}")
        for line in failed:
            print(f"  FAIL {line}")
        if failed:
            print(f"[bench] gate FAILED: {len(failed)} regression(s)")
            return 1
        print(f"[bench] gate passed: {len(passed)} check(s)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
