"""Post-mortem performance analysis of traced runs.

Usage::

    # The paper machine: critical path, counter groups, NUMA heatmap,
    # and the top-down Bind-vs-NoBind gap attribution:
    python -m repro.tools.perf --preset paper --impl orwl-bind,orwl-nobind

    # Multi-seed: per-metric mean / CI across 5 matched seeds:
    python -m repro.tools.perf --preset smp48x8 --seeds 5

    # Artifacts: JSON reports + folded stacks for flamegraph.pl:
    python -m repro.tools.perf --json perf.json --flamegraph stacks/

    # Analyze an archived JSONL trace instead of running anything:
    python -m repro.tools.perf --trace-in lk23.jsonl
"""

from __future__ import annotations

import argparse
import json
from pathlib import Path

from repro.exec.cache import machine_inputs
from repro.exec.runner import derive_seed
from repro.experiments.fig1 import IMPLEMENTATIONS, analyze_run, run_implementation
from repro.experiments.scaling import matrix_order
from repro.observe.tracer import Tracer
from repro.perf import PerfReport, analyze, attribute_gap, write_folded
from repro.stats.aggregate import summarize_map
from repro.tools._common import require_matrix_fits, require_positive
from repro.topology.generate import SCALING_SPECS


def _impl_list(value: str) -> list[str]:
    names = [name.strip() for name in value.split(",") if name.strip()]
    if not names:
        raise argparse.ArgumentTypeError("need at least one implementation")
    for name in names:
        if name not in IMPLEMENTATIONS:
            raise argparse.ArgumentTypeError(
                f"unknown implementation {name!r}; one of {IMPLEMENTATIONS}"
            )
    return names


def run_traced(
    preset: str,
    implementation: str,
    n: int,
    iterations: int,
    seed: int,
) -> tuple[PerfReport, list]:
    """One traced run on a generated preset; the report and raw events."""
    topo, dm = machine_inputs(preset)
    tracer = Tracer()
    time, _ = run_implementation(implementation, topo, dm, n, iterations, seed, tracer)
    events = tracer.events
    return analyze_run(events, implementation, time, topo), events


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro.tools.perf", description=__doc__.splitlines()[0]
    )
    parser.add_argument(
        "--preset", default="paper",
        help="generated machine preset "
        f"(one of {','.join(sorted(SCALING_SPECS))}; default paper)",
    )
    parser.add_argument(
        "--impl", type=_impl_list, default=["orwl-bind", "orwl-nobind"],
        metavar="A,B,...",
        help="comma-separated implementations to run and compare "
        f"(of {','.join(IMPLEMENTATIONS)}; default orwl-bind,orwl-nobind)",
    )
    parser.add_argument("--n", type=int, default=None,
                        help="matrix order (default: the preset's "
                             "weak-scaling order, 16384-ish on paper)")
    parser.add_argument("--iterations", type=int, default=3)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seeds", type=int, default=1,
                        help="replicates per implementation; > 1 adds "
                             "per-metric mean/CI tables (replicate 0 keeps "
                             "the base seed)")
    parser.add_argument("--trace-in", metavar="FILE",
                        help="analyze a JSONL trace (from repro.tools.trace "
                             "--format jsonl) instead of running anything")
    parser.add_argument("--json", metavar="FILE",
                        help="write every report plus the gap attribution "
                             "as one JSON document")
    parser.add_argument("--flamegraph", metavar="DIR",
                        help="write per-implementation folded stacks "
                             "(<impl>.folded) for flamegraph.pl/speedscope")
    args = parser.parse_args(argv)
    require_positive(parser, iterations=args.iterations, seeds=args.seeds)
    if args.n is not None:
        require_positive(parser, n=args.n)

    reports: list[PerfReport] = []
    events_of: dict[str, list] = {}
    summaries: dict[str, list[dict]] = {}

    if args.trace_in:
        from repro.observe.export import read_jsonl

        try:
            events = list(read_jsonl(args.trace_in))
        except OSError as exc:
            parser.error(f"--trace-in {args.trace_in}: {exc.strerror or exc}")
        except (ValueError, KeyError, TypeError) as exc:
            parser.error(f"--trace-in {args.trace_in}: not a JSONL trace stream "
                         f"({exc})")
        label = Path(args.trace_in).stem
        reports.append(analyze(events, label=label))
        events_of[label] = events
    else:
        if args.preset not in SCALING_SPECS:
            parser.error(
                f"unknown preset {args.preset!r}; one of "
                f"{sorted(SCALING_SPECS)}"
            )
        topo, _ = machine_inputs(args.preset)
        n = args.n if args.n is not None else matrix_order(topo.nb_pus)
        require_matrix_fits(parser, n, topo.nb_pus,
                            openmp="openmp" in args.impl)
        for impl in args.impl:
            rows = []
            for r in range(args.seeds):
                seed = (
                    args.seed if r == 0
                    else derive_seed(args.seed, "perf", impl, r)
                )
                report, events = run_traced(
                    args.preset, impl, n, args.iterations, seed
                )
                rows.append(report.summary())
                if r == 0:
                    reports.append(report)
                    events_of[impl] = events
            summaries[impl] = rows

    for report in reports:
        print(report.render())
        print()

    gaps = []
    if len(reports) > 1:
        fastest = min(reports, key=lambda r: r.measured_time)
        for report in reports:
            if report is fastest:
                continue
            gap = attribute_gap(
                report.attribution, fastest.attribution,
                slow_label=report.label, fast_label=fastest.label,
                measured_slow=report.measured_time,
                measured_fast=fastest.measured_time,
            )
            gaps.append(gap)
            print(gap.render())
            print()

    if args.seeds > 1 and summaries:
        for impl, rows in summaries.items():
            stats = summarize_map(rows)
            head = f"Across {len(rows)} seeds — {impl}"
            print(head)
            print("-" * len(head))
            width = max(len(k) for k in stats)
            for key, s in stats.items():
                print(f"  {key:<{width}} {s.mean:>12.6g} ±{s.stddev:.3g} "
                      f"[{s.ci_lo:.6g}, {s.ci_hi:.6g}] (n={s.n})")
            print()

    if args.flamegraph:
        out_dir = Path(args.flamegraph)
        out_dir.mkdir(parents=True, exist_ok=True)
        for label, events in events_of.items():
            dst = out_dir / f"{label}.folded"
            n_stacks = write_folded(events, dst, root=label)
            print(f"wrote {n_stacks} stacks to {dst}")

    if args.json:
        doc = {
            "format": "repro-perf",
            "reports": [r.to_json_dict() for r in reports],
            "gaps": [g.to_json_dict() for g in gaps],
        }
        with open(args.json, "w") as fh:
            json.dump(doc, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"wrote {len(reports)} reports to {args.json}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
