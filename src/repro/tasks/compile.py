"""Lower a :class:`~repro.tasks.graph.TaskGraph` onto ORWL.

The compilation is a direct dataflow encoding in the existing model —
no runtime or engine changes, which is the point: DAG programs run on
the same decentralized event-based runtime, the same simulator,
and the same placement pipeline as the paper's iterative stencils.

* every DAG task becomes one ``orwl_task`` with a single ``main``
  operation (one simulated thread — the unit the placement maps);
* every dependency edge ``u -> v`` becomes one ``orwl_location`` named
  ``"u->v"``, owned by the producer's task, with the edge's payload as
  its size (0 bytes for pure control/serialization edges — ORWL's
  documented pure-synchronization locations);
* the producer holds the location's WRITE handle, the consumer its READ
  handle.  The ORWL init protocol inserts all WRITE requests first
  (``init_phase`` 0) and all READ requests after (phase 1), so each
  edge FIFO is ``[WRITE, READ]``: the write grant fires immediately,
  the read is granted only when the producer releases — exactly the
  happens-before of the DAG edge, expressed purely in FIFO ordering.

A task body therefore: acquires its input edges (blocking until every
producer published, pulling each payload priced by producer→consumer
topological distance), optionally streams its private working set from
its first-touch NUMA home, computes, then acquires-and-releases its
output edges (the release is the publication that wakes consumers).
Since spawn order is topological and only READ acquisitions block on
other tasks, compiled programs cannot deadlock — the hypothesis suite
in ``tests/test_dag_differential.py`` hammers this on random DAGs.

:func:`dag_matrix` extracts the task×task communication matrix straight
from the DAG edge set; it is bit-identical to running the generic ORWL
static extraction over the compiled program (property-tested), and its
labels are the task names — so the DAG structure is hashed into the
content-addressed placement key (`repro.exec.cache.matrix_digest`
folds labels and values) and a cached mapping can never be served for
a different graph.
"""

from __future__ import annotations

from typing import Callable, Generator, Optional

import numpy as np

from repro.comm.matrix import CommMatrix
from repro.orwl.fifo import AccessMode
from repro.orwl.handle import Handle
from repro.orwl.program import Program
from repro.tasks.graph import TaskGraph, TaskNode
from repro.util.validate import ValidationError


class TaskTimes:
    """Per-task simulated timestamps recorded during one run.

    ``ready[name]``  — all inputs acquired (the task became runnable);
    ``published[name]`` — compute finished, outputs about to be released;
    ``done[name]``   — body completed (outputs released).

    The dependency-respect invariant the tests assert: for every edge
    ``u -> v``, ``ready[v] >= published[u]``.
    """

    def __init__(self) -> None:
        self.ready: dict[str, float] = {}
        self.published: dict[str, float] = {}
        self.done: dict[str, float] = {}

    def completion_order(self) -> list[str]:
        """Task names sorted by (done time, ready time, name)."""
        return sorted(self.done, key=lambda n: (self.done[n], self.ready[n], n))


def edge_location_name(producer: str, consumer: str) -> str:
    return f"{producer}->{consumer}"


def _task_body(
    node: TaskNode,
    read_handles: list[Handle],
    write_handles: list[Handle],
    times: Optional[TaskTimes],
) -> Callable[[object], Generator]:
    from repro.simulate.syscalls import ReceiveFromNode

    def body(ctx) -> Generator:
        for h in read_handles:
            yield from ctx.acquire(h)
        if times is not None:
            times.ready[node.name] = ctx.now
        if node.stream_bytes > 0:
            home = ctx.current_node()
            if home >= 0:
                yield ReceiveFromNode(home, node.stream_bytes)
        if node.flops > 0:
            yield ctx.compute(flops=node.flops)
        if node.seconds > 0:
            yield ctx.compute(seconds=node.seconds)
        for h in read_handles:
            ctx.release(h)
        if times is not None:
            times.published[node.name] = ctx.now
        for h in write_handles:
            yield from ctx.acquire(h)
            ctx.release(h)
        if times is not None:
            times.done[node.name] = ctx.now

    return body


def compile_graph(
    graph: TaskGraph, times: Optional[TaskTimes] = None
) -> Program:
    """Compile *graph* into a frozen ORWL :class:`Program`.

    With *times*, the compiled bodies record per-task simulated
    timestamps into it (see :class:`TaskTimes`) — the hook the golden
    schedules and the dependency-respect property tests use — so every
    such call compiles afresh.  Without them, a frozen graph keeps its
    program: a program runs any number of times (each
    :class:`~repro.orwl.runtime.Runtime` re-arms it), so every point of
    a sweep over one graph shares one compilation.
    """
    if times is None and graph._program is not None:
        return graph._program
    graph.validate()
    prog = Program(f"dag:{graph.name}")
    tasks = graph.tasks()

    # Pass 1: one location per dependency edge (owner = the producer).
    out_edges: dict[int, list[tuple[int, float]]] = {}
    in_edges: dict[int, list[int]] = {}
    for u, v, nbytes in graph.edges():
        out_edges.setdefault(u, []).append((v, nbytes))
        in_edges.setdefault(v, []).append(u)
        prog.location(
            edge_location_name(tasks[u].name, tasks[v].name),
            nbytes,
            owner_task=tasks[u].name,
        )

    # Pass 2: one task + one "main" operation per DAG task, in spawn
    # order (declaration order = thread ids = matrix rows).
    for node in tasks:
        decl = prog.task(node.name)
        op = decl.operation("main", body=None)
        read_handles: list[Handle] = []
        for u in in_edges.get(node.index, ()):
            loc = prog.locations[edge_location_name(tasks[u].name, node.name)]
            h = op.handle(loc, AccessMode.READ)
            h.init_phase = 1  # behind every producer's initial WRITE
            read_handles.append(h)
        write_handles: list[Handle] = []
        for v, _nbytes in out_edges.get(node.index, ()):
            loc = prog.locations[edge_location_name(node.name, tasks[v].name)]
            h = op.handle(loc, AccessMode.WRITE)
            h.init_phase = 0  # granted at startup; released = published
            write_handles.append(h)
        op.body = _task_body(node, read_handles, write_handles, times)

    prog.freeze()
    if times is None and graph.frozen:
        graph._program = prog
    return prog


def dag_matrix(graph: TaskGraph) -> CommMatrix:
    """The task×task communication matrix straight from the DAG edges.

    Entry ``(u, v)`` is the payload flowing along ``u -> v`` (plus the
    symmetric reflection — total pairwise traffic is what TreeMatch
    consumes).  Pure synchronization edges carry no bytes and therefore
    no affinity.  Labels are the task names, so the matrix digest —
    hence the content-addressed placement key — covers the DAG
    structure, not just the volumes.

    Equal (bit-for-bit) to aggregating the compiled program's static
    ORWL extraction to task granularity; ``tests/test_tasks.py`` pins
    the equivalence.  A frozen graph keeps its matrix: both are
    immutable, so every later call returns the same object, and with it
    the matrix's memoised digest.
    """
    if graph._matrix is not None:
        return graph._matrix
    n = graph.n_tasks
    if n == 0:
        raise ValidationError(f"graph {graph.name!r} has no tasks")
    m = np.zeros((n, n))
    for u, v, nbytes in graph.edges():
        m[u, v] += nbytes
        m[v, u] += nbytes
    matrix = CommMatrix(m, labels=[t.name for t in graph.tasks()])
    if graph.frozen:
        graph._matrix = matrix
    return matrix
