"""Machine-size scaling sweep over the scaling presets, up to 4096 PUs.

Usage::

    python -m repro.tools.scaling                          # full sweep
    python -m repro.tools.scaling --preset paper,smp48x8,smp96x8 \
        --seeds 3 --workers 4
    python -m repro.tools.scaling --json scaling.json --chart scaling.txt
"""

from __future__ import annotations

import argparse
import json

from repro.exec.cache import cached_topology
from repro.experiments.scaling import CELLS_PER_CORE, matrix_order, run_scaling
from repro.tools._common import (
    require_matrix_fits,
    require_nonnegative,
    require_positive,
)
from repro.topology.presets import SCALING_NAMES


def _preset_list(value: str) -> list[str]:
    names = [name.strip() for name in value.split(",") if name.strip()]
    if not names:
        raise argparse.ArgumentTypeError("need at least one preset name")
    for name in names:
        if name not in SCALING_NAMES:
            raise argparse.ArgumentTypeError(
                f"unknown preset {name!r}; one of {sorted(SCALING_NAMES)}"
            )
    return names


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro.tools.scaling", description=__doc__.splitlines()[0]
    )
    parser.add_argument(
        "--preset",
        type=_preset_list,
        default=list(SCALING_NAMES),
        metavar="A,B,...",
        help="comma-separated scaling presets to sweep "
        f"(default all: {','.join(SCALING_NAMES)})",
    )
    parser.add_argument("--iterations", type=int, default=3,
                        help="kernel iterations per point")
    parser.add_argument("--cells-per-core", type=int, default=CELLS_PER_CORE,
                        help="weak-scaling workload: matrix cells per core "
                             "(default = the paper's 16384^2 / 192)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seeds", type=int, default=1,
                        help="matched replicates per point (> 1 enables the "
                             "paired permutation tests and Holm correction)")
    parser.add_argument("--alpha", type=float, default=0.05,
                        help="family-wise significance level")
    parser.add_argument("--workers", type=int, default=0,
                        help="sweep worker processes (0 = all host cores, "
                             "1 = serial; results are identical either way)")
    parser.add_argument("--json", metavar="FILE",
                        help="write the full sweep (points, stats, paired "
                             "significance, saturation) as JSON")
    parser.add_argument("--chart", metavar="FILE",
                        help="write the ASCII speedup chart to a file")
    parser.add_argument("--plot", action="store_true",
                        help="print the ASCII speedup chart")
    parser.add_argument("--perf-report", metavar="DIR",
                        help="trace every point and write per-point perf "
                             "reports (JSON + text) and per-preset "
                             "top-down gap attributions into DIR")
    args = parser.parse_args(argv)
    require_positive(
        parser, iterations=args.iterations,
        cells_per_core=args.cells_per_core, seeds=args.seeds,
    )
    require_nonnegative(parser, workers=args.workers)
    for name in args.preset:
        pus = cached_topology(name).nb_pus
        require_matrix_fits(
            parser, matrix_order(pus, args.cells_per_core), pus, openmp=True,
            flag="--cells-per-core",
        )

    result = run_scaling(
        presets=tuple(args.preset),
        iterations=args.iterations,
        cells_per_core=args.cells_per_core,
        seed=args.seed,
        seeds=args.seeds,
        alpha=args.alpha,
        n_workers=args.workers,
        perf_report=args.perf_report is not None,
    )
    print(result.speedup_table())
    if args.plot:
        print()
        print(result.chart())
    if args.chart:
        with open(args.chart, "w") as fh:
            fh.write(result.chart() + "\n")
        print(f"\nwrote chart to {args.chart}")
    if args.perf_report:
        from repro.tools._perf_artifacts import write_point_reports

        n_files = write_point_reports(
            args.perf_report,
            [
                (f"scaling-{p.implementation}-{p.preset}",
                 (p.preset,), p.perf)
                for p in result.points
            ],
        )
        print(f"\nwrote {n_files} perf artifacts to {args.perf_report}")
    if args.json:
        with open(args.json, "w") as fh:
            json.dump(result.to_json_dict(), fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"wrote {len(result.points)} points to {args.json}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
