"""Launch-path affinity extraction: task level straight from the handles.

At task granularity :func:`task_matrix` scatters every writer→reader
volume straight into the task×task matrix; the op×op matrix is never
built.  These tests pin it against the dense-indicator aggregate of the
op-level :func:`static_matrix` (the formula the launch path used before,
kept here only as an oracle), on every shipped program family and on
random programs, and pin the ``bind_program(matrix=...)`` granularity
contract.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.comm.matrix import CommMatrix
from repro.comm.patterns import square_grid_shape
from repro.comm.trace import CommTracer
from repro.exec.cache import machine_inputs
from repro.experiments.dag import WORKLOADS, build_workload
from repro.kernels import lk18
from repro.kernels.lk23_orwl import Lk23Config, build_program
from repro.kernels.wavefront import WavefrontConfig, build_wavefront_program
from repro.orwl import AccessMode, Program
from repro.placement import bind_program, static_matrix, traced_matrix
from repro.placement.binder import task_matrix
from repro.tasks.compile import compile_graph, dag_matrix
from repro.util.rng import make_rng
from repro.util.validate import ValidationError


def indicator_aggregate(program: Program, op_matrix: CommMatrix) -> np.ndarray:
    """Oracle: ``I @ M @ I.T`` with the 0/1 op→task indicator ``I``."""
    ops = program.operations()
    tasks = list(program.tasks)
    indicator = np.zeros((len(tasks), len(ops)))
    for k, op in enumerate(ops):
        indicator[tasks.index(op.task_name), k] = 1.0
    out = indicator @ op_matrix.values @ indicator.T
    np.fill_diagonal(out, 0.0)
    return out


def pairwise_static(program: Program, iterations: int, hints: bool) -> np.ndarray:
    """Oracle: the original per-pair loop of the op-level extraction."""
    ops = program.operations()
    m = np.zeros((len(ops), len(ops)))
    for loc in program.locations.values():
        weight = loc.affinity_bytes if hints and loc.affinity_bytes is not None else loc.nbytes
        if weight <= 0:
            continue
        writers = [k for k, op in enumerate(ops) if loc in [h.location for h in op.write_handles()]]
        readers = [k for k, op in enumerate(ops) if loc in [h.location for h in op.read_handles()]]
        for wi in writers:
            for ri in readers:
                if wi != ri:
                    m[wi, ri] += weight * iterations
                    m[ri, wi] += weight * iterations
    return m


def pairwise_traced(program: Program, tracer: CommTracer) -> np.ndarray:
    """Oracle: the original one-pair-at-a-time trace re-indexing."""
    ops = program.operations()
    raw = tracer.to_matrix()
    pos = {name: k for k, name in enumerate(raw.labels)}
    n = len(ops)
    m = np.zeros((n, n))
    for i, a in enumerate(ops):
        ti = pos.get(a.name)
        if ti is None:
            continue
        for j in range(i + 1, n):
            tj = pos.get(ops[j].name)
            if tj is None:
                continue
            m[i, j] = m[j, i] = raw.values[ti, tj]
    return m


def _lk23(n_tasks: int, shuffle_seed: int | None = None) -> Program:
    rows, cols = square_grid_shape(n_tasks)
    cfg = Lk23Config(n=16384, grid_rows=rows, grid_cols=cols, iterations=5)
    order = None
    if shuffle_seed is not None:
        # The cluster experiment's shuffled block declaration order.
        order = list(cfg.grid.blocks())
        make_rng(shuffle_seed).shuffle(order)
    return build_program(cfg, block_order=order)


def _cluster_program() -> Program:
    topo, _ = machine_inputs("cluster", 4, 2, 8, costs="cluster")
    return _lk23(topo.nb_pus, shuffle_seed=3)


PROGRAMS = {
    "lk23-16": lambda: _lk23(16),
    "lk23-64": lambda: _lk23(64),
    "lk23-192": lambda: _lk23(192),
    "lk18": lambda: build_program(
        lk18.orwl_config(n=4096, grid_rows=4, grid_cols=8, iterations=2)
    ),
    "wavefront": lambda: build_wavefront_program(WavefrontConfig(rows=4, cols=6)),
    "cluster": _cluster_program,
}
for _family in WORKLOADS:
    for _scale in (1, 3):
        PROGRAMS[f"{_family}-{_scale}"] = (
            lambda f=_family, s=_scale: compile_graph(
                build_workload(f, scale=s, graph_seed=1)
            )
        )


class TestShippedPrograms:
    @pytest.mark.parametrize("name", sorted(PROGRAMS))
    def test_task_matrix_equals_indicator_aggregate(self, name):
        prog = PROGRAMS[name]()
        tm = task_matrix(prog)
        assert tm.labels == tuple(prog.tasks)
        assert np.array_equal(tm.values, indicator_aggregate(prog, static_matrix(prog)))

    @pytest.mark.parametrize("name", ["lk23-16", "lk18", "wavefront", "cholesky-1"])
    def test_static_matrix_equals_pairwise_loop(self, name):
        prog = PROGRAMS[name]()
        assert np.array_equal(static_matrix(prog).values, pairwise_static(prog, 1, True))
        assert np.array_equal(
            static_matrix(prog, iterations=3, use_affinity_hints=False).values,
            pairwise_static(prog, 3, False),
        )

    @pytest.mark.parametrize("family", WORKLOADS)
    def test_dag_matrix_binds_like_static_aggregate(self, family, paper_topo_small):
        g = build_workload(family, scale=2, graph_seed=4)
        prog = compile_graph(g)
        for policy in ("treematch", "nobind", "compact"):
            direct = bind_program(prog, paper_topo_small, policy=policy, matrix=dag_matrix(g))
            via_ops = bind_program(
                prog,
                paper_topo_small,
                policy=policy,
                matrix=task_matrix(prog, static_matrix(prog)),
            )
            assert direct.mapping.pu_of == via_ops.mapping.pu_of, policy
            assert direct.control_mapping.pu_of == via_ops.control_mapping.pu_of, policy
            assert direct.control_strategy is via_ops.control_strategy, policy


# Volumes on a 1/8-byte grid: every partial sum is exact in float64, so
# the two summation orders (scatter vs. BLAS product) must agree bit for
# bit.  Arbitrary fractions are checked to rounding separately.
DYADIC = st.integers(0, 1 << 16).map(lambda k: k / 8.0)
ANY_BYTES = st.floats(0.0, 1e6, allow_nan=False, allow_infinity=False)


@st.composite
def programs(draw, volumes=DYADIC) -> Program:
    """Random composition: interleaved multi-op tasks, mixed handles."""
    n_locs = draw(st.integers(1, 6))
    p = Program("rand")
    locs = []
    for k in range(n_locs):
        hint = draw(st.none() | volumes)
        locs.append(p.location(f"l{k}", draw(volumes), affinity_bytes=hint))
    # Op k belongs to task owner[k]; tasks interleave in declaration order.
    owners = draw(st.lists(st.integers(0, 4), min_size=1, max_size=12))
    modes = st.sampled_from(
        [(), (AccessMode.READ,), (AccessMode.WRITE,), (AccessMode.READ, AccessMode.WRITE)]
    )
    for k, t in enumerate(owners):
        op = p.task(f"T{t}").operation(f"op{k}", body=lambda ctx: iter(()))
        for loc in locs:
            for m in draw(modes):
                op.handle(loc, m)
    return p


class TestRandomPrograms:
    @settings(max_examples=150, deadline=None)
    @given(programs())
    def test_task_matrix_equals_indicator_aggregate(self, prog):
        tm = task_matrix(prog)
        assert tm.labels == tuple(prog.tasks)
        assert np.array_equal(tm.values, indicator_aggregate(prog, static_matrix(prog)))
        # The traced/profiled path (explicit op matrix) agrees too.
        assert np.array_equal(task_matrix(prog, static_matrix(prog)).values, tm.values)

    @settings(max_examples=100, deadline=None)
    @given(programs(volumes=ANY_BYTES), st.integers(1, 4))
    def test_static_matrix_keeps_pairwise_sum_order(self, prog, iterations):
        for hints in (True, False):
            got = static_matrix(prog, iterations=iterations, use_affinity_hints=hints)
            assert np.array_equal(got.values, pairwise_static(prog, iterations, hints))

    @settings(max_examples=100, deadline=None)
    @given(programs(volumes=ANY_BYTES))
    def test_task_matrix_matches_aggregate_to_rounding(self, prog):
        np.testing.assert_allclose(
            task_matrix(prog).values,
            indicator_aggregate(prog, static_matrix(prog)),
            rtol=1e-12,
            atol=0.0,
        )


class TestTracedMatrix:
    def test_gather_equals_pairwise_loop(self):
        prog = _lk23(16)
        ops = prog.operations()
        rng = make_rng(5)
        tr = CommTracer()
        # Extra entities (control threads) interleaved with real ops; a
        # third of the ops never appear in the trace.
        silent = {op.name for op in ops[::3]}
        names = [op.name for op in ops if op.name not in silent]
        names += [f"{t}/ctl" for t in prog.tasks]
        ids = tr.register_all(names)
        for _ in range(400):
            a, b = rng.choice(len(names), size=2, replace=False)
            tr.record_by_id(ids[a], ids[b], float(rng.integers(1, 1 << 20)))
        got = traced_matrix(prog, tr)
        assert got.labels == tuple(op.name for op in ops)
        assert np.array_equal(got.values, pairwise_traced(prog, tr))
        k = next(i for i, op in enumerate(ops) if op.name in silent)
        assert not got.values[k].any()

    def test_empty_trace(self):
        prog = _lk23(16)
        assert traced_matrix(prog, CommTracer()).total_volume() == 0.0


class TestMatrixGranularity:
    def test_op_matrix_at_task_granularity_rejected(self, small_topo):
        prog = _lk23(4)
        with pytest.raises(ValidationError, match="task-granularity"):
            bind_program(prog, small_topo, matrix=static_matrix(prog))

    @pytest.mark.parametrize("policy", ["treematch", "nobind", "compact"])
    def test_wrong_order_rejected_before_policy(self, small_topo, policy):
        prog = _lk23(4)
        with pytest.raises(ValidationError):
            bind_program(prog, small_topo, policy=policy, matrix=CommMatrix.zeros(5))
        with pytest.raises(ValidationError):
            bind_program(
                prog, small_topo, policy=policy, granularity="op",
                matrix=CommMatrix.zeros(prog.n_tasks),
            )

    def test_task_matrix_used_as_given(self, small_topo):
        prog = _lk23(4)
        tm = task_matrix(prog)
        plan = bind_program(prog, small_topo, matrix=tm)
        assert plan.matrix is tm
        assert plan.mapping == bind_program(prog, small_topo).mapping

    def test_op_granularity_takes_op_matrix(self, small_topo):
        prog = _lk23(4)
        om = static_matrix(prog)
        plan = bind_program(prog, small_topo, granularity="op", matrix=om)
        assert plan.matrix is om
