"""Benchmark-trajectory harness: measure, don't guess.

Emits one ``BENCH_<stamp>.json`` per invocation so the repo accumulates
a performance trajectory across commits.  Sections:

* ``engine`` — raw event-loop throughput: :meth:`Engine.run`'s drain
  loop vs a bare ``while engine.step(): pass`` reference, in
  events/second, on a self-rescheduling ping workload.  ``run`` should
  stay within noise of the bare loop (it adds only the runaway guard);
  a ratio well below 1.0 flags an event-loop regression.
* ``fig1`` — the experiment that matters: a Figure-1 sweep run serially
  (``n_workers=1``, the reference path) and through the process pool
  (``n_workers=0`` = all host cores), with wall-clock seconds, speedup,
  runner stats, and a bit-identity verdict from the per-point
  determinism fingerprints.
* ``treematch`` — Algorithm 1 wall time per matrix order (the
  launch-time mapping must stay cheap).
* ``cache`` — the content-addressed sweep cache: the same replicated
  sweep run cold (empty store) and warm (fully populated), with both
  walls, the warm speedup, per-run hit/miss/store counters, and a
  bit-identity verdict between the cold and cached results.  Skipped
  under ``--no-cache``.
* ``dag`` — the :mod:`repro.tasks` layer: DAG compile throughput
  (tasks/second through ``compile_graph``) and the E7 placement sweep
  run serially vs through the process pool, with per-workload simulated
  means, Bind-vs-NoBind speedups, and a bit-identity verdict from the
  per-point run fingerprints (gated by
  ``benchmarks/bench_dag_workloads.py``).

Usage::

    python -m repro.tools.bench                # full measurement
    python -m repro.tools.bench --quick        # CI-sized, ~seconds
    python -m repro.tools.bench --output BENCH_ci.json
"""

from __future__ import annotations

import argparse
import json
import platform
import sys
import time
from typing import Any

from repro.exec.runner import SweepRunner, resolve_workers
from repro.experiments.ablations import treematch_cost_curve
from repro.experiments.fig1 import run_fig1
from repro.simulate.engine import Engine
from repro.tools._cache_args import add_cache_arguments, apply_cache_arguments


def _engine_throughput(n_events: int, mode: str) -> dict[str, float]:
    """Events/second of one drained engine using ``run`` or ``step``."""
    eng = Engine()
    count = 0

    def tick() -> None:
        nonlocal count
        count += 1
        if count < n_events:
            eng.schedule(1.0, tick)

    eng.schedule(0.0, tick)
    t0 = time.perf_counter()
    if mode == "run":
        eng.run()
    else:
        while eng.step():
            pass
    wall = time.perf_counter() - t0
    return {
        "events": float(eng.events_fired),
        "wall_s": wall,
        "events_per_sec": eng.events_fired / wall if wall > 0 else 0.0,
    }


def bench_engine(n_events: int) -> dict[str, Any]:
    """``run`` drain loop vs bare ``step`` loop event throughput."""
    stepped = _engine_throughput(n_events, "step")
    run_loop = _engine_throughput(n_events, "run")
    return {
        "n_events": n_events,
        "stepped": stepped,
        "run_loop": run_loop,
        "run_over_stepped": (
            run_loop["events_per_sec"] / stepped["events_per_sec"]
            if stepped["events_per_sec"] > 0 else 0.0
        ),
    }


def bench_fig1(
    core_counts: tuple[int, ...], iterations: int, n: int, seed: int,
    seeds: int = 1,
) -> dict[str, Any]:
    """Serial vs parallel Figure-1 sweep: wall clock + bit-identity.

    With *seeds* > 1 every point runs that many replicates; the report
    then carries per-point variance rows (mean / stddev / bootstrap CI)
    and pairwise speedup-significance verdicts, so the BENCH trajectory
    records spread, not just point estimates.  Bit-identity is checked
    across *all* replicates of both sweeps.

    ``point_cache=False`` on both sweeps: this section measures *cold*
    simulation walls, so the content-addressed point cache must not
    serve the parallel run the serial run's results (the cached path
    has its own section, ``cache``).
    """
    serial_runner = SweepRunner(n_workers=1)
    t0 = time.perf_counter()
    serial = run_fig1(
        core_counts=core_counts, iterations=iterations, n=n, seed=seed,
        fingerprint=True, runner=serial_runner, seeds=seeds,
        point_cache=False,
    )
    serial_wall = time.perf_counter() - t0

    parallel_runner = SweepRunner(n_workers=0)
    t0 = time.perf_counter()
    parallel = run_fig1(
        core_counts=core_counts, iterations=iterations, n=n, seed=seed,
        fingerprint=True, runner=parallel_runner, seeds=seeds,
        point_cache=False,
    )
    parallel_wall = time.perf_counter() - t0

    serial_reps = [p for reps in serial.replicates.values() for p in reps]
    parallel_reps = [p for reps in parallel.replicates.values() for p in reps]
    identical = [
        (a.implementation, a.n_cores) == (b.implementation, b.n_cores)
        and a.time == b.time
        and a.fingerprint == b.fingerprint
        for a, b in zip(serial_reps, parallel_reps)
    ]
    report: dict[str, Any] = {
        "core_counts": list(core_counts),
        "iterations": iterations,
        "n": n,
        "seeds": seeds,
        "n_points": len(serial.points),
        "n_runs": len(serial_reps),
        "serial_wall_s": serial_wall,
        "parallel_wall_s": parallel_wall,
        "speedup": serial_wall / parallel_wall if parallel_wall > 0 else 0.0,
        "parallel_stats": parallel_runner.last_stats,
        "bit_identical": all(identical) and len(identical) == len(serial_reps),
    }
    if seeds > 1:
        report["stats"] = [
            {
                "implementation": impl,
                "cores": cores,
                "n": s.n,
                "mean": s.mean,
                "median": s.median,
                "stddev": s.stddev,
                "ci_lo": s.ci_lo,
                "ci_hi": s.ci_hi,
                "confidence": s.confidence,
            }
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


def bench_treematch(orders: tuple[int, ...]) -> dict[str, Any]:
    """Algorithm 1 cost per matrix order."""
    curve = treematch_cost_curve(orders=orders)
    return {"orders": list(orders), "seconds": [s for _, s in curve]}


def bench_sweep_cache(
    core_counts: tuple[int, ...], iterations: int, n: int, seed: int,
    seeds: int = 5,
) -> dict[str, Any]:
    """Cold vs warm replicated sweep through the content-addressed cache.

    Runs the same serial Figure-1 sweep twice against one throwaway
    on-disk :class:`~repro.exec.cache.PointCache`: first cold (every
    point is a miss and gets stored), then warm (every point is served
    from the store without simulating).  The warm results must be
    byte-for-byte the cold ones — the determinism fingerprints pin it —
    and the warm wall is the incremental-rerun headline the cache gate
    (``benchmarks/bench_sweep_cache.py``) holds at >= 5x.
    """
    import shutil
    import tempfile
    from pathlib import Path

    from repro.exec.cache import PointCache

    tmp = Path(tempfile.mkdtemp(prefix="repro-bench-cache-"))
    try:
        cold_cache = PointCache(tmp / "points")
        t0 = time.perf_counter()
        cold = run_fig1(
            core_counts=core_counts, iterations=iterations, n=n, seed=seed,
            fingerprint=True, n_workers=1, seeds=seeds,
            point_cache=cold_cache,
        )
        cold_wall = time.perf_counter() - t0

        warm_cache = PointCache(tmp / "points")
        t0 = time.perf_counter()
        warm = run_fig1(
            core_counts=core_counts, iterations=iterations, n=n, seed=seed,
            fingerprint=True, n_workers=1, seeds=seeds,
            point_cache=warm_cache,
        )
        warm_wall = time.perf_counter() - t0
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    cold_reps = [p for reps in cold.replicates.values() for p in reps]
    warm_reps = [p for reps in warm.replicates.values() for p in reps]
    identical = [
        (a.implementation, a.n_cores) == (b.implementation, b.n_cores)
        and a.time == b.time
        and a.fingerprint == b.fingerprint
        for a, b in zip(cold_reps, warm_reps)
    ]
    warm_lookups = warm_cache.hits + warm_cache.misses
    return {
        "core_counts": list(core_counts),
        "iterations": iterations,
        "n": n,
        "seeds": seeds,
        "n_runs": len(cold_reps),
        "cold_wall_s": cold_wall,
        "warm_wall_s": warm_wall,
        "warm_speedup": cold_wall / warm_wall if warm_wall > 0 else 0.0,
        "cold_stats": cold_cache.stats(),
        "warm_stats": warm_cache.stats(),
        "warm_hit_rate": (
            warm_cache.hits / warm_lookups if warm_lookups else 0.0
        ),
        "bit_identical": all(identical) and len(identical) == len(cold_reps),
    }


def bench_placement_service(
    warm_samples: int = 200, concurrent: int = 2000
) -> dict[str, Any]:
    """Cold/warm decision latency and concurrent throughput of the
    placement service on the paper preset (192 PUs, 192 threads).

    The headline numbers the latency gate
    (``benchmarks/bench_placement_service.py``) holds: warm >= 10x
    cold, warm p50 < 1 ms, >= 1000 queries/sec under *concurrent*
    simultaneous requests.  Every warm and concurrent answer is checked
    byte-identical to the cold decision.
    """
    import asyncio

    from repro.comm import patterns
    from repro.exec.cache import clear_cache
    from repro.placement.service import PlacementService
    from repro.topology import presets

    clear_cache()
    topo = presets.paper_smp(24, 8)
    matrix = patterns.stencil_2d(16, 12, edge_volume=1000.0)
    service = PlacementService(topo)

    t0 = time.perf_counter()
    cold = service.query_sync(matrix)
    cold_wall = time.perf_counter() - t0

    samples = []
    identical = True
    for _ in range(warm_samples):
        t0 = time.perf_counter()
        decision = service.query_sync(matrix)
        samples.append(time.perf_counter() - t0)
        identical = identical and decision.mapping.pu_of == cold.mapping.pu_of
    samples.sort()
    p50 = samples[len(samples) // 2]
    p99 = samples[int(len(samples) * 0.99)]

    async def flood():
        return await asyncio.gather(
            *[service.query(matrix) for _ in range(concurrent)]
        )

    t0 = time.perf_counter()
    decisions = asyncio.run(flood())
    concurrent_wall = time.perf_counter() - t0
    identical = identical and all(
        d.mapping.pu_of == cold.mapping.pu_of for d in decisions
    )

    return {
        "topology": topo.name,
        "n_pus": topo.nb_pus,
        "matrix_order": matrix.order,
        "cold_wall_s": cold_wall,
        "warm_samples": warm_samples,
        "warm_p50_s": p50,
        "warm_p99_s": p99,
        "warm_speedup": cold_wall / p50 if p50 > 0 else 0.0,
        "concurrent_requests": concurrent,
        "concurrent_wall_s": concurrent_wall,
        "queries_per_s": (
            concurrent / concurrent_wall if concurrent_wall > 0 else 0.0
        ),
        "bit_identical": identical,
    }


def bench_dag(
    seeds: int = 3, n_cores: int = 16, scale: int = 2, seed: int = 0
) -> dict[str, Any]:
    """DAG compile throughput plus the E7 sweep serial vs parallel.

    Compile throughput is tasks/second through
    :func:`repro.tasks.compile_graph` over the three workload families
    (a cold graph build included — what a user-facing frontend spends
    before the first simulated event).  The sweep half mirrors the
    ``fig1`` section: the same E7 run serially and through the process
    pool with ``point_cache=False``, every replicate fingerprinted, and
    a bit-identity verdict across all of them.  Per-workload simulated
    means and Bind-vs-NoBind speedups are the deterministic rows the
    regression gate checks.
    """
    from repro.exec.cache import clear_cache
    from repro.experiments.dag import build_workload, run_dag
    from repro.tasks import compile_graph

    compile_rows = []
    for workload in ("cholesky", "bfs", "divconq"):
        clear_cache()  # time the graph build, not the memo lookup
        t0 = time.perf_counter()
        graph = build_workload(workload, scale=scale)
        compile_graph(graph)
        wall = time.perf_counter() - t0
        compile_rows.append({
            "workload": workload,
            "tasks": graph.n_tasks,
            "edges": graph.n_edges,
            "wall_s": wall,
            "tasks_per_sec": graph.n_tasks / wall if wall > 0 else 0.0,
        })

    t0 = time.perf_counter()
    serial = run_dag(
        n_cores=n_cores, scale=scale, seed=seed, seeds=seeds,
        fingerprint=True, n_workers=1, point_cache=False,
    )
    serial_wall = time.perf_counter() - t0
    t0 = time.perf_counter()
    parallel = run_dag(
        n_cores=n_cores, scale=scale, seed=seed, seeds=seeds,
        fingerprint=True, n_workers=0, point_cache=False,
    )
    parallel_wall = time.perf_counter() - t0

    serial_reps = [p for reps in serial.replicates.values() for p in reps]
    parallel_reps = [p for reps in parallel.replicates.values() for p in reps]
    identical = [
        (a.workload, a.policy) == (b.workload, b.policy)
        and a.time == b.time
        and a.fingerprint == b.fingerprint
        for a, b in zip(serial_reps, parallel_reps)
    ]
    return {
        "n_cores": n_cores,
        "scale": scale,
        "seeds": seeds,
        "compile": compile_rows,
        "n_runs": len(serial_reps),
        "serial_wall_s": serial_wall,
        "parallel_wall_s": parallel_wall,
        "speedup": serial_wall / parallel_wall if parallel_wall > 0 else 0.0,
        "bit_identical": all(identical) and len(identical) == len(serial_reps),
        "stats": [
            {
                "workload": workload,
                "policy": policy,
                "n": s.n,
                "mean": s.mean,
                "median": s.median,
                "stddev": s.stddev,
                "ci_lo": s.ci_lo,
                "ci_hi": s.ci_hi,
                "confidence": s.confidence,
            }
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
    """The CI perf-regression gate: current report vs committed baseline.

    Only **deterministic** metrics are gated — the per-point *simulated*
    fig1 time means (machine-independent, so a committed baseline is
    portable across CI runners) and the serial/parallel bit-identity
    verdict.  Wall-clock sections (engine throughput, sweep wall time,
    treematch cost) vary with the host and are deliberately ignored.

    A point fails when its current mean exceeds the baseline's CI upper
    bound by more than *threshold* (default 25 %):
    ``mean > ci_hi × (1 + threshold)``.  Returns ``(passed, failed)``
    human-readable check lines; an empty ``failed`` means the gate is
    green.
    """
    passed: list[str] = []
    failed: list[str] = []

    base_fig1 = baseline.get("fig1", {})
    cur_fig1 = current.get("fig1", {})
    base_stats = {
        (row["implementation"], row["cores"]): row
        for row in base_fig1.get("stats", [])
    }
    cur_stats = {
        (row["implementation"], row["cores"]): row
        for row in cur_fig1.get("stats", [])
    }
    if not base_stats:
        failed.append(
            "baseline has no fig1 stats section (regenerate it with "
            "--quick --seeds N, N > 1)"
        )
    if not cur_stats:
        failed.append(
            "current run has no fig1 stats section (run --compare with "
            "--seeds N, N > 1)"
        )
    for key, base_row in sorted(base_stats.items()):
        impl, cores = key
        name = f"{impl}@{cores}"
        cur_row = cur_stats.get(key)
        if cur_row is None:
            failed.append(f"{name}: point missing from current run")
            continue
        limit = base_row["ci_hi"] * (1.0 + threshold)
        line = (
            f"{name}: mean {cur_row['mean']:.6f} vs baseline "
            f"{base_row['mean']:.6f} (limit {limit:.6f})"
        )
        if cur_row["mean"] > limit:
            failed.append(
                f"{line} — regressed "
                f"{cur_row['mean'] / base_row['mean']:.2f}x"
            )
        else:
            passed.append(line)

    if base_fig1.get("bit_identical") and not cur_fig1.get("bit_identical"):
        failed.append(
            "serial/parallel sweeps no longer bit-identical "
            "(baseline was bit-identical)"
        )
    elif "bit_identical" in cur_fig1:
        passed.append(
            f"bit-identical serial/parallel: {cur_fig1['bit_identical']}"
        )

    # The dag section is gated only when the baseline has one, so
    # pre-E7 baseline files keep working unchanged.
    base_dag = baseline.get("dag", {})
    cur_dag = current.get("dag", {})
    if base_dag:
        base_rows = {
            (row["workload"], row["policy"]): row
            for row in base_dag.get("stats", [])
        }
        cur_rows = {
            (row["workload"], row["policy"]): row
            for row in cur_dag.get("stats", [])
        }
        if not cur_rows:
            failed.append(
                "current run has no dag stats section (run --compare with "
                "--seeds N, N > 1)"
            )
        for key, base_row in sorted(base_rows.items()):
            workload, policy = key
            name = f"dag {workload}/{policy}"
            cur_row = cur_rows.get(key)
            if cur_row is None:
                failed.append(f"{name}: point missing from current run")
                continue
            limit = base_row["ci_hi"] * (1.0 + threshold)
            line = (
                f"{name}: mean {cur_row['mean']:.6f} vs baseline "
                f"{base_row['mean']:.6f} (limit {limit:.6f})"
            )
            if cur_row["mean"] > limit:
                failed.append(
                    f"{line} — regressed "
                    f"{cur_row['mean'] / base_row['mean']:.2f}x"
                )
            else:
                passed.append(line)
        if base_dag.get("bit_identical") and not cur_dag.get("bit_identical"):
            failed.append(
                "dag serial/parallel sweeps no longer bit-identical "
                "(baseline was bit-identical)"
            )
        elif "bit_identical" in cur_dag:
            passed.append(
                f"dag bit-identical serial/parallel: "
                f"{cur_dag['bit_identical']}"
            )
    return passed, failed


def _cmd_history(argv: list[str]) -> int:
    """``bench history``: the perf trajectory across accumulated reports.

    Ingests every ``BENCH_*.json`` in a directory plus the committed
    ``benchmarks/baseline_ci.json``, orders them by timestamp, and
    renders per-headline trajectories with sparklines.  Drift is judged
    by :mod:`repro.metrics.history`: deterministic stats rows against
    the oldest run's CI band, wall-clock headlines by half-split
    medians + Cliff's delta.  Exits 1 when any headline drifts (CI can
    gate on it) unless ``--no-check``.
    """
    from repro.metrics.history import (
        history_report,
        load_reports,
        render_history,
    )

    parser = argparse.ArgumentParser(
        prog="repro.tools.bench history",
        description="perf-trajectory regression tracking",
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
                        help="perf-regression gate: compare this run's "
                             "deterministic metrics against a committed "
                             "baseline report; exit nonzero on regression")
    parser.add_argument("--threshold", type=float, default=0.25,
                        help="gate tolerance: fail when a mean exceeds the "
                             "baseline CI upper bound by more than this "
                             "fraction (default 0.25)")
    add_cache_arguments(parser)
    args = parser.parse_args(argv)
    apply_cache_arguments(args)

    if args.quick:
        engine_events = 200_000
        core_counts: tuple[int, ...] = (8, 16)
        iterations, n = 2, 1024
        tm_orders: tuple[int, ...] = (16, 32, 64)
        cache_seeds = 3
    else:
        engine_events = 2_000_000
        core_counts = (8, 16, 32, 64)
        iterations, n = 3, 8192
        tm_orders = (16, 32, 64, 128, 256)
        cache_seeds = 5

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

    print(f"[bench] engine throughput ({engine_events} events)...")
    report["engine"] = bench_engine(engine_events)
    e = report["engine"]
    print(f"  stepped: {e['stepped']['events_per_sec']:,.0f} ev/s   "
          f"run: {e['run_loop']['events_per_sec']:,.0f} ev/s   "
          f"ratio: {e['run_over_stepped']:.2f}x")

    print(f"[bench] fig1 sweep serial vs parallel "
          f"(cores={list(core_counts)}, seeds={args.seeds}, "
          f"host has {host_cores} CPU(s))...")
    report["fig1"] = bench_fig1(core_counts, iterations, n, args.seed,
                                seeds=args.seeds)
    f = report["fig1"]
    print(f"  serial: {f['serial_wall_s']:.2f}s   "
          f"parallel[{f['parallel_stats'].get('n_workers')}w]: "
          f"{f['parallel_wall_s']:.2f}s   speedup: {f['speedup']:.2f}x   "
          f"bit-identical: {f['bit_identical']}")
    if args.seeds > 1:
        for row in f["stats"]:
            print(f"  {row['implementation']:>12}@{row['cores']:<4} "
                  f"mean {row['mean']:.4f}  sd {row['stddev']:.4f}  "
                  f"CI [{row['ci_lo']:.4f}, {row['ci_hi']:.4f}]  (n={row['n']})")
        for v in f["significance"]:
            p = f"p={v['p_value']:.4f}" if v["p_value"] is not None else "p=n/a"
            print(f"  {v['candidate']} vs {v['baseline']}: "
                  f"{v['speedup_mean']:.2f}x {p} -> {v['verdict']}")

    print(f"[bench] treematch cost curve (orders={list(tm_orders)})...")
    report["treematch"] = bench_treematch(tm_orders)

    if args.no_cache:
        print("[bench] sweep cache: skipped (--no-cache)")
    else:
        print(f"[bench] sweep cache cold vs warm "
              f"(cores={list(core_counts)}, seeds={cache_seeds})...")
        report["cache"] = bench_sweep_cache(
            core_counts, iterations, n, args.seed, seeds=cache_seeds
        )
        cc = report["cache"]
        print(f"  cold: {cc['cold_wall_s']:.2f}s   "
              f"warm: {cc['warm_wall_s']:.3f}s   "
              f"speedup: {cc['warm_speedup']:.1f}x   "
              f"hit rate: {cc['warm_hit_rate']:.0%}   "
              f"bit-identical: {cc['bit_identical']}")

    dag_seeds = 3 if args.quick else 5
    dag_cores = 16 if args.quick else 32
    print(f"[bench] dag compile + E7 sweep serial vs parallel "
          f"(cores={dag_cores}, seeds={dag_seeds})...")
    report["dag"] = bench_dag(seeds=dag_seeds, n_cores=dag_cores,
                              seed=args.seed)
    dg = report["dag"]
    for row in dg["compile"]:
        print(f"  compile {row['workload']:>8}: {row['tasks']} tasks in "
              f"{row['wall_s'] * 1e3:.1f}ms "
              f"({row['tasks_per_sec']:,.0f} tasks/s)")
    print(f"  sweep serial: {dg['serial_wall_s']:.2f}s   "
          f"parallel: {dg['parallel_wall_s']:.2f}s   "
          f"speedup: {dg['speedup']:.2f}x   "
          f"bit-identical: {dg['bit_identical']}")
    for workload, s in sorted(dg["bind_speedups"].items()):
        print(f"  bind vs nobind on {workload}: {s:.2f}x")

    ps_concurrent = 1000 if args.quick else 2000
    print(f"[bench] placement service cold/warm latency + "
          f"{ps_concurrent} concurrent queries (paper preset)...")
    report["placement_service"] = bench_placement_service(
        concurrent=ps_concurrent
    )
    ps = report["placement_service"]
    print(f"  cold: {ps['cold_wall_s'] * 1e3:.1f}ms   "
          f"warm p50: {ps['warm_p50_s'] * 1e6:.0f}us   "
          f"speedup: {ps['warm_speedup']:.0f}x   "
          f"throughput: {ps['queries_per_s']:,.0f} q/s   "
          f"bit-identical: {ps['bit_identical']}")

    out = args.output or time.strftime("BENCH_%Y%m%d_%H%M%S.json")
    with open(out, "w") as fh:
        json.dump(report, fh, indent=2)
        fh.write("\n")
    print(f"[bench] wrote {out}")

    if args.compare:
        with open(args.compare) as fh:
            baseline = json.load(fh)
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
