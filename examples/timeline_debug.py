#!/usr/bin/env python3
"""Visualize what the runtime actually did: an ASCII execution timeline.

Runs a small LK23 decomposition under a tracer, builds the timeline
from its events and renders a Gantt-style chart per PU — compute
bursts as ``#``, data transfers as ``=``.  Comparing the bound and unbound charts
makes the placement effect *visible*: bound runs show dense, even rows;
unbound runs show ragged rows and idle gaps where the balancer moved
threads around.

Run:  python examples/timeline_debug.py
"""

from repro.kernels import Lk23Config, build_program
from repro.observe import Tracer
from repro.orwl import Runtime
from repro.placement import bind_program
from repro.simulate import Machine, Timeline
from repro.topology import presets


def run_with_timeline(policy: str):
    topo = presets.small_numa(2, 4)
    cfg = Lk23Config(n=1024, grid_rows=2, grid_cols=4, iterations=3)
    prog = build_program(cfg)
    plan = bind_program(prog, topo, policy=policy)
    tracer = Tracer()
    machine = Machine(topo, seed=3, tracer=tracer)
    result = Runtime(
        prog, machine, mapping=plan.mapping, control_mapping=plan.control_mapping
    ).run()
    return Timeline.from_events(tracer.events), result


def main() -> None:
    for policy in ("treematch", "nobind"):
        timeline, result = run_with_timeline(policy)
        print(f"=== {policy}  (total {result.time * 1000:.2f} ms, "
              f"{len(timeline)} segments) ===")
        print(timeline.render(width=68))
        utils = [timeline.utilization(pu, result.time) for pu in range(8)]
        print(f"per-PU utilization: {' '.join(f'{u:.0%}' for u in utils)}")
        print()


if __name__ == "__main__":
    main()
