"""One-shot experiment runner CLI.

Usage::

    python -m repro.tools.simulate                           # paper defaults
    python -m repro.tools.simulate --policy nobind --iterations 3
    python -m repro.tools.simulate --topology "numa:4 core:8 pu:1" \\
        --policy treematch --tasks 32 --report
"""

from __future__ import annotations

import argparse

from repro.comm.patterns import square_grid_shape
from repro.core.api import ExperimentConfig, run_lk23
from repro.placement.policies import POLICY_REGISTRY
from repro.tools._common import require_positive, resolve_topology


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro.tools.simulate", description=__doc__.splitlines()[0]
    )
    parser.add_argument(
        "--topology", default="paper-smp",
        help="preset name, 'host', JSON/XML file, or synthetic spec",
    )
    parser.add_argument(
        "--policy", default="treematch", choices=sorted(POLICY_REGISTRY)
    )
    parser.add_argument("--n", type=int, default=16384, help="matrix size")
    parser.add_argument("--iterations", type=int, default=5)
    parser.add_argument("--tasks", type=int, default=None,
                        help="ORWL tasks (default: one per core)")
    parser.add_argument("--granularity", default="task", choices=["task", "op"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--report", action="store_true",
                        help="print the placement report too")
    args = parser.parse_args(argv)
    require_positive(parser, n=args.n, iterations=args.iterations)
    if args.tasks is not None:
        require_positive(parser, tasks=args.tasks)

    topo = resolve_topology(args.topology)
    tasks = args.tasks if args.tasks is not None else topo.nb_pus
    rows, cols = square_grid_shape(tasks)
    if cols > args.n:
        parser.error(
            f"{tasks} tasks lay out as a {rows}x{cols} grid, finer than the "
            f"{args.n}x{args.n} matrix; use fewer --tasks or a larger --n"
        )
    cfg = ExperimentConfig(
        topology=topo,
        policy=args.policy,
        n=args.n,
        iterations=args.iterations,
        tasks=args.tasks,
        granularity=args.granularity,
        seed=args.seed,
    )
    result = run_lk23(cfg)
    m = result.metrics
    print(f"machine      : {topo}")
    print(f"policy       : {args.policy} (control: {result.plan.control_strategy})")
    print(f"processing   : {result.time:.6f} simulated s "
          f"({args.iterations} sweeps of {args.n}x{args.n})")
    print(f"locality     : {m.local_fraction:.1%} of {m.total_bytes / 1e6:.1f} MB "
          "stayed NUMA-local")
    print(f"migrations   : {m.migrations}")
    print(f"lock waiting : {m.wait_time:.3f} thread-seconds")
    if args.report and result.plan.matrix is not None:
        from repro.placement.report import render_report

        placed = result.plan.placed_mapping or result.plan.mapping
        print()
        print(render_report(placed, result.plan.matrix, topo))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
