"""lstopo-like topology viewer.

Usage::

    python -m repro.tools.lstopo                   # the paper's machine
    python -m repro.tools.lstopo host              # this machine (Linux)
    python -m repro.tools.lstopo "numa:2 core:4 pu:2"
    python -m repro.tools.lstopo topo.json --export out.json
"""

from __future__ import annotations

import argparse

from repro.tools._common import resolve_topology
from repro.topology import query, serialize


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro.tools.lstopo", description=__doc__.splitlines()[0]
    )
    parser.add_argument(
        "topology",
        nargs="?",
        default="paper-smp",
        help="preset name, 'host', JSON file, or synthetic spec "
        "(default: paper-smp)",
    )
    parser.add_argument(
        "--summary", action="store_true", help="print object counts only"
    )
    parser.add_argument(
        "--export", metavar="FILE", help="also write the topology as JSON"
    )
    parser.add_argument(
        "--svg", metavar="FILE", help="also render the topology as SVG"
    )
    args = parser.parse_args(argv)

    topo = resolve_topology(args.topology, parser)
    counts = ", ".join(f"{k}: {v}" for k, v in query.summarize(topo).items())
    print(f"{topo.name} ({counts})")
    if not args.summary:
        print(topo.render())
    if args.export:
        serialize.save(topo, args.export)
        print(f"exported to {args.export}")
    if args.svg:
        from repro.topology.svg import save_svg

        save_svg(topo, args.svg)
        print(f"rendered to {args.svg}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
