"""E7: placement policies on DAG workloads (the repro.tasks frontend).

Usage::

    python -m repro.tools.dag                              # full E7
    python -m repro.tools.dag --workloads cholesky,bfs --seeds 5 \
        --cores 32 --workers 4
    python -m repro.tools.dag --json dag.json --perf-report perf/
"""

from __future__ import annotations

import argparse
import json

from repro.experiments.dag import POLICIES, WORKLOADS, run_dag
from repro.tools._common import (
    require_nonnegative,
    require_positive,
    require_whole_sockets,
)


def _name_list(universe: tuple[str, ...], what: str):
    def parse(value: str) -> list[str]:
        names = [name.strip() for name in value.split(",") if name.strip()]
        if not names:
            raise argparse.ArgumentTypeError(f"need at least one {what}")
        for name in names:
            if name not in universe:
                raise argparse.ArgumentTypeError(
                    f"unknown {what} {name!r}; one of {','.join(universe)}"
                )
        return names

    return parse


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro.tools.dag", description=__doc__.splitlines()[0]
    )
    parser.add_argument(
        "--workloads",
        type=_name_list(WORKLOADS, "workload"),
        default=list(WORKLOADS),
        metavar="A,B,...",
        help=f"comma-separated DAG families (default {','.join(WORKLOADS)})",
    )
    parser.add_argument(
        "--policies",
        type=_name_list(POLICIES, "policy"),
        default=list(POLICIES),
        metavar="A,B,...",
        help=f"comma-separated placements (default {','.join(POLICIES)})",
    )
    parser.add_argument("--cores", type=int, default=32,
                        help="machine size in cores (paper-SMP shape)")
    parser.add_argument("--cores-per-socket", type=int, default=8)
    parser.add_argument("--scale", type=int, default=2,
                        help="integer workload scale (tile grid order, "
                             "vertex count, recursion depth)")
    parser.add_argument("--graph-seed", type=int, default=0,
                        help="DAG structure seed (BFS input graph, "
                             "divide-and-conquer split coins); separate "
                             "from the simulation seed")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seeds", type=int, default=1,
                        help="replicates per point, paired by index (> 1 enables the "
                             "paired permutation tests and Holm correction)")
    parser.add_argument("--alpha", type=float, default=0.05,
                        help="family-wise significance level")
    parser.add_argument("--workers", type=int, default=0,
                        help="sweep worker processes (0 = all host cores, "
                             "1 = serial; results are identical either way)")
    parser.add_argument("--fingerprint", action="store_true",
                        help="trace every point and record its run "
                             "fingerprint in the JSON dump")
    parser.add_argument("--json", metavar="FILE",
                        help="write the full sweep (points, stats, paired "
                             "significance) as JSON")
    parser.add_argument("--perf-report", metavar="DIR",
                        help="trace every point and write per-point perf "
                             "reports with DAG critical-path attribution "
                             "(JSON + text) into DIR")
    args = parser.parse_args(argv)
    if args.cores_per_socket <= 0:
        parser.error("--cores-per-socket must be positive")
    require_whole_sockets(parser, [args.cores], args.cores_per_socket)
    require_positive(parser, scale=args.scale, seeds=args.seeds)
    require_nonnegative(parser, workers=args.workers)

    result = run_dag(
        workloads=tuple(args.workloads),
        policies=tuple(args.policies),
        n_cores=args.cores,
        cores_per_socket=args.cores_per_socket,
        scale=args.scale,
        graph_seed=args.graph_seed,
        seed=args.seed,
        seeds=args.seeds,
        alpha=args.alpha,
        n_workers=args.workers,
        fingerprint=args.fingerprint,
        perf_report=args.perf_report is not None,
    )
    print(result.table())
    if args.perf_report:
        from repro.tools._perf_artifacts import write_point_reports

        n_files = write_point_reports(
            args.perf_report,
            [
                (f"dag-{p.workload}-{p.policy}", (p.workload,), p.perf)
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
