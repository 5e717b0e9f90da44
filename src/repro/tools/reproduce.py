"""Reproduce the paper with one command.

Runs the Figure-1 sweep on the modeled 24×8 SMP, prints the curve and
the table, and grades each of the paper's claims (C1–C4) against the
measured values — the whole reproduction as a single artifact.

Usage::

    python -m repro.tools.reproduce              # ~30 s
    python -m repro.tools.reproduce --iterations 100   # the paper's full sweep count
"""

from __future__ import annotations

import argparse

from repro.experiments.fig1 import CORES_PER_SOCKET, run_fig1
from repro.experiments.plotting import plot_fig1
from repro.tools._common import (
    require_nonnegative,
    require_positive,
    require_whole_sockets,
)


#: (claim id, description, paper value, extractor, band check)
def _grade(result) -> list[tuple[str, str, str, str, bool]]:
    rows = []
    t_bind = result.best_time("orwl-bind")[1]
    c1_ok = (
        t_bind < result.best_time("orwl-nobind")[1]
        and t_bind < result.best_time("openmp")[1]
    )
    rows.append(
        ("C1", "ORWL-Bind reaches the minimum processing time",
         "fastest of the three", f"{t_bind:.4f} s (fastest)" if c1_ok else "not fastest",
         c1_ok)
    )
    sp_omp = result.speedup_vs_openmp()
    rows.append(
        ("C2", "speedup vs OpenMP", "~5x", f"{sp_omp:.2f}x", 3.0 <= sp_omp <= 9.0)
    )
    sp_nb = result.speedup_vs_nobind()
    rows.append(
        ("C3", "speedup vs ORWL-NoBind", "~2.8x", f"{sp_nb:.2f}x", 1.7 <= sp_nb <= 4.5)
    )
    stall = result.openmp_scaling_stalls_after()
    rows.append(
        ("C4", "OpenMP fails to improve beyond a few sockets",
         "stalls early", f"stalls after {stall} cores" if stall else "never stalls",
         stall is not None)
    )
    return rows


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro.tools.reproduce", description=__doc__.splitlines()[0]
    )
    parser.add_argument("--iterations", type=int, default=5,
                        help="sweeps per run (paper: 100; shape is invariant)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--cores", type=int, nargs="+",
                        default=[8, 16, 32, 64, 96, 192],
                        help="core counts to sweep (whole sockets of "
                             f"{CORES_PER_SOCKET})")
    parser.add_argument("--workers", type=int, default=0,
                        help="sweep worker processes (0 = all host cores, "
                             "1 = serial; results are identical either way)")
    parser.add_argument("--seeds", type=int, default=1,
                        help="replicates per point; > 1 reports mean/CI bands "
                             "and significance verdicts on top of the "
                             "replicate-0 trajectory the claims are graded on")
    args = parser.parse_args(argv)
    require_whole_sockets(parser, args.cores, CORES_PER_SOCKET)
    require_positive(parser, iterations=args.iterations, seeds=args.seeds)
    require_nonnegative(parser, workers=args.workers)

    print("Reproducing: Gustedt, Jeannot, Mansouri — 'Optimizing Locality by")
    print("Topology-aware Placement for a Task Based Programming Model',")
    print("IEEE CLUSTER 2016.  Figure 1 + claims C1-C4.")
    print()
    print(f"Machine model: 24 sockets x 8 cores (192 PUs); LK23 16384^2, "
          f"{args.iterations} sweeps.")
    print("Running the sweep (3 implementations x 6 core counts)...")
    print()

    result = run_fig1(
        core_counts=tuple(args.cores),
        iterations=args.iterations,
        n=16384,
        seed=args.seed,
        n_workers=args.workers,
        seeds=args.seeds,
    )
    print(result.table())
    print()
    print(plot_fig1(result))
    print()
    if args.seeds > 1:
        print(f"Statistics over {args.seeds} seeds per point (the paper "
              "reports single runs — its trajectory corresponds to one "
              "sample from these bands):")
        print(result.stats_table())
        print()

    rows = _grade(result)
    width = max(len(r[1]) for r in rows)
    print("Claim grading:")
    all_ok = True
    for cid, desc, paper, measured, ok in rows:
        mark = "PASS" if ok else "FAIL"
        all_ok = all_ok and ok
        print(f"  [{mark}] {cid}: {desc:<{width}}  paper: {paper:<12} measured: {measured}")
    print()
    if all_ok:
        print("All claims reproduced.")
        return 0
    print("Some claims NOT reproduced — see above.")
    return 1


if __name__ == "__main__":
    raise SystemExit(main())
