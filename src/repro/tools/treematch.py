"""TreeMatch-style mapping CLI.

Computes a thread → PU mapping from a communication-matrix file (the
TreeMatch text format: order on the first line, then the matrix rows)
and a topology, and prints it with its quality scores — the same
workflow the original TreeMatch binary offers.

Usage::

    python -m repro.tools.treematch comm.mat paper-smp
    python -m repro.tools.treematch comm.mat "numa:2 core:8 pu:1" --policy compact
    python -m repro.tools.treematch --demo          # built-in stencil demo
"""

from __future__ import annotations

import argparse

from repro.comm import patterns
from repro.comm.matrix import CommMatrix
from repro.placement.policies import POLICY_REGISTRY, make_policy
from repro.placement.report import render_report
from repro.tools._common import resolve_topology


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro.tools.treematch", description=__doc__.splitlines()[0]
    )
    parser.add_argument("matrix", nargs="?", help="communication matrix file")
    parser.add_argument(
        "topology", nargs="?", default="paper-smp",
        help="preset name, 'host', JSON file, or synthetic spec",
    )
    parser.add_argument(
        "--policy", default="treematch", choices=sorted(POLICY_REGISTRY),
        help="placement policy (default: treematch)",
    )
    parser.add_argument(
        "--demo", action="store_true",
        help="use a built-in 8x8 stencil matrix instead of a file",
    )
    parser.add_argument("--seed", type=int, default=0, help="seed for 'random'")
    parser.add_argument(
        "--output", metavar="FILE", help="write the mapping as a rankfile"
    )
    args = parser.parse_args(argv)

    topo_source = args.topology
    if args.demo:
        matrix = patterns.stencil_2d(8, 8, edge_volume=1000.0)
        # With --demo the first positional (if any) is the topology.
        if args.matrix:
            topo_source = args.matrix
    elif args.matrix:
        try:
            matrix = CommMatrix.load(args.matrix)
        except OSError as exc:
            parser.error(f"{args.matrix}: {exc.strerror or exc}")
        except ValueError as exc:
            parser.error(f"{args.matrix}: not a communication matrix file "
                         f"({exc})")
    else:
        parser.error("give a matrix file or --demo")
        return 2  # unreachable; parser.error exits

    topo = resolve_topology(topo_source, parser)
    kwargs = {"seed": args.seed} if args.policy == "random" else {}
    policy = make_policy(args.policy, **kwargs)
    mapping = policy.place(topo, matrix.order, matrix=matrix, labels=matrix.labels)

    print(render_report(mapping, matrix, topo, title=f"{args.policy} on {topo.name}"))
    print()
    for t in range(mapping.n_threads):
        pu = mapping.pu(t)
        print(f"{mapping.labels[t]}\t{pu if pu >= 0 else 'unbound'}")
    if args.output:
        mapping.save(args.output)
        print(f"\nwrote rankfile to {args.output}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
