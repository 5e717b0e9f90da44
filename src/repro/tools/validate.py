"""Cost-model self-check CLI.

Usage::

    python -m repro.tools.validate                 # the default paper machine
    python -m repro.tools.validate host            # the discovered host model
    python -m repro.tools.validate cluster --cluster-costs

Exits non-zero if any physical invariant of the model is violated —
run it after customizing level costs, contention, or scheduler configs.
"""

from __future__ import annotations

import argparse

from repro.simulate.machine import Machine
from repro.simulate.validate_model import validate_machine_model
from repro.tools._common import resolve_topology


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro.tools.validate", description=__doc__.splitlines()[0]
    )
    parser.add_argument(
        "topology", nargs="?", default="paper-smp",
        help="preset name, 'host', JSON/XML file, or synthetic spec",
    )
    parser.add_argument(
        "--cluster-costs", action="store_true",
        help="use the cluster cost table (network at the tree root)",
    )
    args = parser.parse_args(argv)

    topo = resolve_topology(args.topology, parser)
    if args.cluster_costs:
        from repro.topology.distance import cluster_distance_model

        machine = Machine(topo, distance_model=cluster_distance_model(topo), seed=0)
    else:
        machine = Machine(topo, seed=0)
    report = validate_machine_model(machine)
    print(f"machine: {topo}")
    print(f"checks : {report.checks_run}")
    if report.ok:
        print("result : OK — all physical invariants hold")
        return 0
    print(f"result : {len(report.problems)} problem(s)")
    for p in report.problems:
        print(f"  - {p}")
    return 1


if __name__ == "__main__":
    raise SystemExit(main())
