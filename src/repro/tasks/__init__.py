"""Parla-style dependency-graph frontend over the ORWL runtime.

``repro.tasks`` lets a workload be written as a DAG — tasks spawned
into :class:`TaskSpace` grids, declaring the data :class:`Region`\\ s
they read and write plus explicit control dependencies — and compiles
it down to the existing ORWL locations/operations model
(:mod:`repro.tasks.compile`), so DAG programs run unmodified on the
event engine, flow through the same placement pipeline, and keep the
determinism contract (bit-identical across worker counts and
warm-cache reruns).

Quickstart::

    from repro.tasks import TaskGraph, run_graph

    g = TaskGraph("pipe")
    a = g.region("a", nbytes=1 << 20)
    T = g.space("T")
    g.spawn(T[0], flops=1e9, writes=[a])
    g.spawn(T[1], flops=1e9, reads=[a])          # RAW edge, 1 MiB
    res = run_graph(g, policy="treematch", record_times=True)
    assert res.schedule_ok(g)

The three shipped workload families (tiled Cholesky, level-synchronous
BFS, recursive divide-and-conquer) live in :mod:`repro.kernels`; the
placement-on-DAGs experiment E7 is :mod:`repro.experiments.dag`.
"""

from repro import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "compile": ["TaskTimes", "compile_graph", "dag_matrix", "edge_location_name"],
    "graph": [
        "Region",
        "TaskGraph",
        "TaskNode",
        "TaskRef",
        "TaskSpace",
        "topological_check",
    ],
    "run": ["GraphRunResult", "run_graph"],
})
