"""Figure 1 data generator.

Usage::

    python -m repro.tools.fig1                       # default sweep
    python -m repro.tools.fig1 --cores 8 64 192 --iterations 10
    python -m repro.tools.fig1 --csv fig1.csv
    python -m repro.tools.fig1 --seeds 5 --workers 4 # multi-seed, with CI bands
"""

from __future__ import annotations

import argparse
import csv

from repro.experiments.fig1 import CORES_PER_SOCKET, run_fig1
from repro.tools._common import (
    require_matrix_fits,
    require_nonnegative,
    require_positive,
    require_whole_sockets,
)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro.tools.fig1", description=__doc__.splitlines()[0]
    )
    parser.add_argument("--cores", type=int, nargs="+",
                        default=[8, 16, 32, 64, 96, 192])
    parser.add_argument("--iterations", type=int, default=5)
    parser.add_argument("--n", type=int, default=16384, help="matrix size")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--csv", metavar="FILE", help="also write points as CSV")
    parser.add_argument("--plot", action="store_true", help="ASCII chart of the curves")
    parser.add_argument("--workers", type=int, default=0,
                        help="sweep worker processes (0 = all host cores, "
                             "1 = serial; results are identical either way)")
    parser.add_argument("--seeds", type=int, default=1,
                        help="replicates per point (1 = the historical "
                             "single-run sweep; > 1 adds mean/CI statistics "
                             "and a speedup-significance verdict)")
    parser.add_argument("--perf-report", metavar="DIR",
                        help="trace every point and write per-point perf "
                             "reports (JSON + text) and per-core-count "
                             "top-down gap attributions into DIR")
    parser.add_argument("--metrics", metavar="FILE",
                        help="enable telemetry and publish live registry "
                             "snapshots to FILE (watch with "
                             "python -m repro.tools.top FILE)")
    args = parser.parse_args(argv)
    require_whole_sockets(parser, args.cores, CORES_PER_SOCKET)
    require_positive(parser, iterations=args.iterations, n=args.n, seeds=args.seeds)
    require_nonnegative(parser, workers=args.workers)
    require_matrix_fits(parser, args.n, max(args.cores), openmp=True)

    runner = None
    writer = None
    if args.metrics:
        from repro.exec.runner import SweepRunner
        from repro.metrics import core as metrics_core
        from repro.metrics.bus import SnapshotWriter

        metrics_core.enable()
        writer = SnapshotWriter(args.metrics)
        runner = SweepRunner(n_workers=args.workers, on_point=writer)

    result = run_fig1(
        core_counts=tuple(args.cores),
        iterations=args.iterations,
        n=args.n,
        seed=args.seed,
        n_workers=args.workers,
        runner=runner,
        seeds=args.seeds,
        perf_report=args.perf_report is not None,
    )
    if writer is not None:
        writer.flush()
        print(f"\nmetrics snapshot written to {args.metrics}")
    print(result.table())
    if args.seeds > 1:
        print()
        print(f"Per-point statistics over {args.seeds} seeds "
              f"(base seed {args.seed}, replicate 0 = the table above):")
        print(result.stats_table())
    if args.plot:
        from repro.experiments.plotting import plot_fig1

        print()
        print(plot_fig1(result))

    if args.perf_report:
        from repro.tools._perf_artifacts import write_point_reports

        n_files = write_point_reports(
            args.perf_report,
            [
                (f"fig1-{p.implementation}-{p.n_cores}",
                 (p.n_cores,), p.perf)
                for p in result.points
            ],
        )
        print(f"\nwrote {n_files} perf artifacts to {args.perf_report}")

    if args.csv:
        with open(args.csv, "w", newline="") as fh:
            writer = csv.writer(fh)
            header = ["implementation", "cores", "sim_time_s",
                      "local_fraction", "migrations"]
            if args.seeds > 1:
                header += ["time_mean", "time_stddev", "ci_lo", "ci_hi", "n_seeds"]
            writer.writerow(header)
            for p in result.points:
                row = [p.implementation, p.n_cores, f"{p.time:.6f}",
                       f"{p.local_fraction:.4f}", p.migrations]
                if args.seeds > 1:
                    s = result.stats_of(p.implementation, p.n_cores)
                    row += [f"{s.mean:.6f}", f"{s.stddev:.6f}",
                            f"{s.ci_lo:.6f}", f"{s.ci_hi:.6f}", s.n]
                writer.writerow(row)
        print(f"\nwrote {len(result.points)} points to {args.csv}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
