#!/usr/bin/env python3
"""Affinity extraction: from program structure and from runtime traces.

The paper's add-on "automatically extracts task/threads affinity based
on the way they are composed in the application".  This example shows
both extraction paths on an LK23 program:

1. the static matrix, read off the handle declarations at launch time
   (what the mapping actually uses), and
2. the traced matrix, accumulated by the runtime as threads pull data,
   then the correlation between the two — validating that launch-time
   placement needs no profiling run.

Run:  python examples/trace_affinity.py
"""

from repro.comm import CommTracer
from repro.kernels import Lk23Config, build_program
from repro.orwl import Runtime
from repro.placement import (
    bind_program,
    matrix_correlation,
    static_matrix,
    traced_matrix,
)
from repro.simulate import Machine
from repro.topology import presets


def render_heat(matrix, size=12) -> str:
    """Tiny ASCII heat map of the upper-left corner of a matrix."""
    vals = matrix.values[:size, :size]
    peak = vals.max() or 1.0
    shades = " .:-=+*#%@"
    rows = []
    for row in vals:
        rows.append("".join(shades[int(v / peak * (len(shades) - 1))] for v in row))
    return "\n".join(rows)


def main() -> None:
    topo = presets.paper_smp(2, 8)  # 16 cores
    cfg = Lk23Config(n=2048, grid_rows=4, grid_cols=4, iterations=4)
    prog = build_program(cfg)
    print(f"Program: {prog}")

    static = static_matrix(prog, use_affinity_hints=False)
    print(f"\nStatic affinity matrix: order {static.order}, "
          f"total {static.total_volume():.3g} bytes/iteration")
    print(render_heat(static))

    plan = bind_program(prog, topo, policy="treematch")
    comm = CommTracer()
    Runtime(prog, Machine(topo, seed=0), mapping=plan.mapping,
            control_mapping=plan.control_mapping, comm=comm).run()
    traced = traced_matrix(prog, comm)
    print(f"\nTraced matrix after the run: {comm.n_events} transfer "
          f"events, total {traced.total_volume():.3g} bytes")
    print(render_heat(traced))

    corr = matrix_correlation(static, traced)
    per_iter = traced.total_volume() / cfg.iterations
    print(f"\nPearson correlation static vs traced: {corr:.4f}")
    print(f"traced bytes per iteration: {per_iter:.3g} "
          f"(static predicts {static.total_volume():.3g})")
    print("\nConclusion: composition alone predicts the communication "
          "structure — the mapping can run at launch time, as the paper does.")


if __name__ == "__main__":
    main()
