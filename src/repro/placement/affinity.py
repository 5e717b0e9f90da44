"""Affinity extraction from ORWL programs.

The paper: the add-on "automatically extracts task/threads affinity
based on the way they are composed in the application".  Composition
means handle declarations — if operation *r* holds a READ handle on a
location that operation *w* WRITEs, then every iteration moves the
location's payload from *w*'s thread to *r*'s thread.

The extractors:

* :func:`static_matrix` — purely structural, available *before* any
  execution: volume = location payload size per writer→reader pair,
  i.e. per-iteration traffic.  Absolute scale is irrelevant to
  TreeMatch; ratios are what grouping consumes.
* :func:`task_matrix` — the same extraction at task granularity (what
  the paper's launch-time mapping uses), scattered straight into the
  task×task matrix without building the op×op one; or the aggregation
  of any op-level matrix to tasks.
* :func:`traced_matrix` — from a :class:`~repro.comm.trace.CommTracer`
  filled by a profiling run, reindexed to program operation order.
  Ablation A5 compares the two.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.comm.matrix import CommMatrix
from repro.comm.trace import CommTracer
from repro.orwl.program import Operation, Program
from repro.util.validate import ValidationError


def _scatter_affinity(
    program: Program,
    ops: list[Operation],
    row_of: Sequence[int],
    order: int,
    iterations: int,
    use_affinity_hints: bool,
) -> np.ndarray:
    """The writer→reader pass shared by the op- and task-level extractors.

    Every (writer, reader) operation pair of a location exchanges
    ``weight * iterations``; the volume lands on
    ``m[row_of[w], row_of[r]]`` and its reflection, accumulated in one
    ordered ``np.add.at``.  The order is fixed — location, then writer,
    then reader, each pair followed by its reflection — so every entry
    equals a per-pair ``+=`` loop bit for bit.  Pairs whose endpoints
    share a row (an op reading back its own location, or intra-task
    traffic at task granularity) fall on the diagonal, which
    :class:`CommMatrix` zeroes.
    """
    if iterations <= 0:
        raise ValidationError(f"iterations must be > 0, got {iterations}")
    # One pass over all handles to index writers/readers per location
    # (calling Program.writers_of per location would be O(locations·ops)).
    from repro.orwl.fifo import AccessMode

    writers: dict[str, list[int]] = {}
    readers: dict[str, list[int]] = {}
    for k, op in enumerate(ops):
        for h in op.handles:
            bucket = writers if h.mode is AccessMode.WRITE else readers
            bucket.setdefault(h.location.name, []).append(row_of[k])
    rows: list[int] = []
    cols: list[int] = []
    vols: list[float] = []
    for loc_name, loc in program.locations.items():
        if use_affinity_hints and loc.affinity_bytes is not None:
            weight = loc.affinity_bytes
        else:
            weight = loc.nbytes
        if weight <= 0:
            continue
        rs = readers.get(loc_name, [])
        for w in writers.get(loc_name, ()):
            for r in rs:
                rows += (w, r)
                cols += (r, w)
        vols += [weight * iterations] * (len(rows) - len(vols))
    m = np.zeros((order, order))
    index = (np.array(rows, dtype=np.intp), np.array(cols, dtype=np.intp))
    np.add.at(m, index, vols)
    return m


def static_matrix(
    program: Program, iterations: int = 1, use_affinity_hints: bool = True
) -> CommMatrix:
    """Build the op-level communication matrix from handle declarations.

    For every location, every (writer, reader) operation pair exchanges
    ``location.nbytes * iterations`` — the structural traffic of the
    iterative model.  Writer==reader pairs (an op reading back its own
    location) contribute nothing.

    With *use_affinity_hints* (the default for placement), a location's
    ``affinity_bytes`` override is honoured — expressing shared-buffer
    footprints larger than the exported payload.  Pass ``False`` to get
    the pure payload-volume matrix (comparable with runtime traces).
    """
    ops = program.operations()
    n = len(ops)
    m = _scatter_affinity(program, ops, range(n), n, iterations, use_affinity_hints)
    return CommMatrix(m, labels=[op.name for op in ops])


def task_matrix(program: Program, op_matrix: Optional[CommMatrix] = None) -> CommMatrix:
    """The task×task affinity matrix (rows in task declaration order).

    Without *op_matrix*, extracted straight from the handle declarations
    — the op-level matrix is never built; intra-task traffic is dropped.
    With an op-level *op_matrix* (e.g. a traced one), aggregated to task
    granularity with :meth:`CommMatrix.aggregated`.  Both agree bit for
    bit with aggregating :func:`static_matrix` whenever the volumes sum
    exactly (e.g. integral byte counts).  A frozen program keeps its
    static matrix, as a frozen graph keeps its
    :func:`~repro.tasks.compile.dag_matrix`: every later bind of a kept
    program reuses it, and with it the matrix's memoised digest.
    """
    if op_matrix is None and program._task_matrix is not None:
        return program._task_matrix
    ops = program.operations()
    task_names = list(program.tasks)
    task_index = {name: k for k, name in enumerate(task_names)}
    row_of = [task_index[op.task_name] for op in ops]
    if op_matrix is None:
        m = _scatter_affinity(program, ops, row_of, len(task_names), 1, True)
        matrix = CommMatrix(m, labels=task_names)
        if program.frozen:
            program._task_matrix = matrix
        return matrix
    if op_matrix.order != len(ops):
        raise ValidationError(
            f"op matrix order {op_matrix.order} != {len(ops)} operations"
        )
    groups: list[list[int]] = [[] for _ in task_names]
    for k, t in enumerate(row_of):
        groups[t].append(k)
    agg = op_matrix.aggregated(groups)
    return CommMatrix(agg.values, labels=task_names)


def traced_matrix(program: Program, tracer: CommTracer) -> CommMatrix:
    """Reindex a runtime trace to program-operation order.

    Operations absent from the trace (they never communicated) get zero
    rows; trace entities that are not program operations (e.g. control
    threads) are dropped.
    """
    ops = program.operations()
    raw = tracer.to_matrix()
    pos_in_trace = {name: k for k, name in enumerate(raw.labels)}
    n = len(ops)
    kept = [i for i, op in enumerate(ops) if op.name in pos_in_trace]
    at = [pos_in_trace[ops[i].name] for i in kept]
    m = np.zeros((n, n))
    # One gather of the traced rows/columns (an exact copy, no arithmetic).
    m[np.ix_(kept, kept)] = raw.values[np.ix_(at, at)]
    return CommMatrix(m, labels=[op.name for op in ops])


def control_pairing(program: Program) -> tuple[int, ...]:
    """Pair each task's control thread with its main operation's index.

    Falls back to the task's first declared operation when it has no
    ``main``.  Order: program task declaration order (the same order the
    runtime creates control threads in).
    """
    ops = program.operations()
    index = {op.name: k for k, op in enumerate(ops)}
    pairing: list[int] = []
    for task in program.tasks.values():
        main = task.main_operation
        if main is None:
            if not task.operations:
                raise ValidationError(f"task {task.name!r} has no operations")
            main = next(iter(task.operations.values()))
        pairing.append(index[main.name])
    return tuple(pairing)


def matrix_correlation(a: CommMatrix, b: CommMatrix) -> float:
    """Pearson correlation of two matrices' off-diagonal entries.

    Used by ablation A5 to quantify how well the static extraction
    predicts the traced reality (1.0 = identical structure).
    """
    if a.order != b.order:
        raise ValidationError(f"orders differ: {a.order} vs {b.order}")
    n = a.order
    if n < 2:
        return 1.0
    iu = np.triu_indices(n, k=1)
    x = a.values[iu]
    y = b.values[iu]
    sx, sy = float(x.std()), float(y.std())
    if sx == 0.0 or sy == 0.0:
        return 1.0 if np.allclose(x * sy, y * sx) else 0.0
    return float(np.corrcoef(x, y)[0, 1])
