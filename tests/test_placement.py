"""Tests for placement policies, affinity extraction, binder, and reports."""

import pytest

from repro.comm import patterns
from repro.comm.matrix import CommMatrix
from repro.kernels.lk23_orwl import Lk23Config, build_program
from repro.orwl import AccessMode, Program
from repro.placement import (
    POLICY_REGISTRY,
    bind_program,
    make_policy,
    matrix_correlation,
    static_matrix,
    traced_matrix,
)
from repro.placement.binder import task_matrix
from repro.placement.policies import (
    CompactPolicy,
    NoBindPolicy,
    RandomPolicy,
    RoundRobinPolicy,
    ScatterPolicy,
    TreeMatchPolicy,
)
from repro.placement import report as report_mod
from repro.topology.objects import ObjType
from repro.treematch.control import ControlStrategy
from repro.treematch.mapping import Mapping
from repro.util.validate import ValidationError


class TestPolicies:
    def test_registry_complete(self):
        assert set(POLICY_REGISTRY) == {
            "compact",
            "scatter",
            "round-robin",
            "random",
            "nobind",
            "treematch",
            "service",
        }

    def test_make_policy_unknown(self):
        with pytest.raises(ValidationError):
            make_policy("quantum")

    def test_compact_fills_in_order(self, small_topo):
        m = CompactPolicy().place(small_topo, 4)
        assert m.pu_of == (0, 1, 2, 3)

    def test_compact_wraps(self, small_topo):
        m = CompactPolicy().place(small_topo, 10)
        assert m.pu(8) == 0 and m.pu(9) == 1

    def test_scatter_spreads_nodes(self, small_topo):
        m = ScatterPolicy().place(small_topo, 2)
        nodes = {small_topo.numa_node_of(m.pu(k)).logical_index for k in range(2)}
        assert nodes == {0, 1}

    def test_round_robin(self, small_topo):
        m = RoundRobinPolicy().place(small_topo, 10)
        assert m.pu(0) == 0 and m.pu(9) == 1

    def test_random_reproducible(self, small_topo):
        a = RandomPolicy(seed=5).place(small_topo, 6)
        b = RandomPolicy(seed=5).place(small_topo, 6)
        assert a.pu_of == b.pu_of

    def test_nobind_all_unbound(self, small_topo):
        m = NoBindPolicy().place(small_topo, 5)
        assert m.bound_fraction() == 0.0

    def test_treematch_requires_matrix(self, small_topo):
        with pytest.raises(ValidationError):
            TreeMatchPolicy().place(small_topo, 4)

    def test_treematch_order_mismatch(self, small_topo, stencil_matrix):
        with pytest.raises(ValidationError):
            TreeMatchPolicy().place(small_topo, 4, matrix=stencil_matrix)

    def test_treematch_stores_result(self, small_topo, clustered_matrix):
        p = TreeMatchPolicy()
        p.place(small_topo, clustered_matrix.order, matrix=clustered_matrix)
        assert p.last_result is not None

    def test_labels_applied(self, small_topo):
        m = CompactPolicy().place(small_topo, 2, labels=["x", "y"])
        assert m.labels == ("x", "y")

    def test_label_count_mismatch(self, small_topo):
        with pytest.raises(ValidationError):
            CompactPolicy().place(small_topo, 2, labels=["x"])


def tiny_program(nbytes=1000):
    """Two tasks: A/main writes la (read by B/main); each task also has
    one sub op reading its own task's location."""
    p = Program("tiny")
    la = p.location("la", nbytes, owner_task="A")
    lb = p.location("lb", nbytes / 2, owner_task="B")
    opA = p.task("A").operation("main", body=lambda ctx: iter(()))
    opA.handle(la, AccessMode.WRITE)
    subA = p.task("A").operation("sub", body=lambda ctx: iter(()))
    subA.handle(lb, AccessMode.READ)
    opB = p.task("B").operation("main", body=lambda ctx: iter(()))
    opB.handle(la, AccessMode.READ)
    opB.handle(lb, AccessMode.WRITE)
    return p


class TestAffinity:
    def test_static_matrix_structure(self):
        p = tiny_program(nbytes=1000)
        m = static_matrix(p)
        # ops: A/main(0), A/sub(1), B/main(2)
        assert m.order == 3
        assert m.volume(0, 2) == 1000.0  # la: A/main -> B/main
        assert m.volume(1, 2) == 500.0  # lb: B/main -> A/sub
        assert m.volume(0, 1) == 0.0

    def test_static_matrix_iterations_scale(self):
        p = tiny_program(nbytes=100)
        m1 = static_matrix(p, iterations=1)
        m5 = static_matrix(p, iterations=5)
        assert m5.volume(0, 2) == 5 * m1.volume(0, 2)

    def test_static_matrix_affinity_hints(self):
        p = Program("hints")
        loc = p.location("l", 10, owner_task="t", affinity_bytes=9999)
        a = p.task("t").operation("main", body=lambda ctx: iter(()))
        b = p.task("t").operation("sub", body=lambda ctx: iter(()))
        a.handle(loc, AccessMode.WRITE)
        b.handle(loc, AccessMode.READ)
        assert static_matrix(p).volume(0, 1) == 9999.0
        assert static_matrix(p, use_affinity_hints=False).volume(0, 1) == 10.0

    def test_static_matrix_zero_payload_ignored(self):
        p = Program("z")
        loc = p.location("l", 0, owner_task="t")
        a = p.task("t").operation("main", body=lambda ctx: iter(()))
        b = p.task("t").operation("sub", body=lambda ctx: iter(()))
        a.handle(loc, AccessMode.WRITE)
        b.handle(loc, AccessMode.READ)
        assert static_matrix(p).total_volume() == 0.0

    def test_traced_matrix_reindexes(self):
        from repro.comm.trace import CommTracer

        p = tiny_program()
        tr = CommTracer()
        # note: trace order differs
        tr.record_by_id(*tr.register_all(["B/main", "A/sub"]), 77)
        m = traced_matrix(p, tr)
        assert m.volume(1, 2) == 77.0

    def test_matrix_correlation_identical(self):
        m = patterns.stencil_2d(3, 3)
        assert matrix_correlation(m, m) == pytest.approx(1.0)

    def test_matrix_correlation_order_mismatch(self):
        with pytest.raises(ValidationError):
            matrix_correlation(CommMatrix.zeros(2), CommMatrix.zeros(3))

    def test_matrix_correlation_zero_matrices(self):
        assert matrix_correlation(CommMatrix.zeros(3), CommMatrix.zeros(3)) == 1.0

    def test_task_matrix_aggregates(self):
        p = tiny_program(nbytes=1000)
        tm = task_matrix(p)
        assert tm.order == 2
        # cross-task volume: la (1000) + lb (500)
        assert tm.volume(0, 1) == 1500.0
        assert tm.labels == ("A", "B")


class TestBinder:
    @pytest.fixture
    def lk23_small(self):
        return build_program(Lk23Config(n=512, grid_rows=2, grid_cols=2, iterations=2))

    def test_task_granularity_mains_spread(self, lk23_small, small_topo):
        plan = bind_program(lk23_small, small_topo, policy="treematch")
        ops = lk23_small.operations()
        mains = [plan.mapping.pu(k) for k, op in enumerate(ops) if op.is_main]
        assert len(set(mains)) == 4  # 4 tasks on distinct PUs

    def test_spare_cores_strategy_on_roomy_machine(self, lk23_small, paper_topo_small):
        plan = bind_program(lk23_small, paper_topo_small, policy="treematch")
        # 4 tasks, 9*4=36 threads total on 32 PUs... comm+ctl = 4 subs*4+4
        # tasks -> fits? 4 mains + 16 subs + 4 ctl = 24 <= 32 PUs
        assert plan.control_strategy is ControlStrategy.SPARE_CORES
        # every comm thread got a PU
        assert plan.mapping.bound_fraction() == 1.0
        assert plan.control_mapping.bound_fraction() == 1.0

    def test_unmapped_strategy_when_full(self, small_topo):
        prog = build_program(Lk23Config(n=512, grid_rows=2, grid_cols=4, iterations=2))
        plan = bind_program(prog, small_topo, policy="treematch")
        assert plan.control_strategy is ControlStrategy.UNMAPPED
        ops = prog.operations()
        subs = [plan.mapping.pu(k) for k, op in enumerate(ops) if not op.is_main]
        assert all(pu == -1 for pu in subs)

    def test_hyperthread_strategy(self, lk23_small, ht_topo):
        plan = bind_program(lk23_small, ht_topo, policy="treematch")
        assert plan.control_strategy is ControlStrategy.HYPERTHREAD_RESERVED
        ops = lk23_small.operations()
        for k, op in enumerate(ops):
            if op.is_main:
                main_pu = plan.mapping.pu(k)
                core = ht_topo.core_of(main_pu)
                for j, other in enumerate(ops):
                    if other.task_name == op.task_name and not other.is_main:
                        sib_pu = plan.mapping.pu(j)
                        assert ht_topo.core_of(sib_pu) is core
                        assert sib_pu != main_pu

    def test_nobind_plan_all_unbound(self, lk23_small, small_topo):
        plan = bind_program(lk23_small, small_topo, policy="nobind")
        assert plan.mapping.bound_fraction() == 0.0
        assert plan.control_mapping.bound_fraction() == 0.0

    def test_baseline_control_colocated(self, lk23_small, paper_topo_small):
        plan = bind_program(lk23_small, paper_topo_small, policy="compact")
        ops = lk23_small.operations()
        main_pu = {op.task_name: plan.mapping.pu(k) for k, op in enumerate(ops) if op.is_main}
        for k, name in enumerate(lk23_small.tasks):
            assert plan.control_mapping.pu(k) == main_pu[name]

    def test_op_granularity(self, lk23_small, small_topo):
        plan = bind_program(lk23_small, small_topo, policy="treematch", granularity="op")
        assert plan.mapping.bound_fraction() == 1.0
        assert plan.mapping.n_threads == lk23_small.n_operations

    def test_bad_granularity(self, lk23_small, small_topo):
        with pytest.raises(ValidationError):
            bind_program(lk23_small, small_topo, granularity="socket")

    def test_place_control_false(self, lk23_small, paper_topo_small):
        plan = bind_program(
            lk23_small, paper_topo_small, policy="treematch", place_control=False
        )
        ops = lk23_small.operations()
        subs = [plan.mapping.pu(k) for k, op in enumerate(ops) if not op.is_main]
        assert all(pu == -1 for pu in subs)

    def test_empty_program_rejected(self, small_topo):
        with pytest.raises(ValidationError):
            bind_program(Program("empty"), small_topo)

    def test_os_binding_script(self, lk23_small, small_topo):
        plan = bind_program(lk23_small, small_topo, policy="treematch")
        script = plan.os_binding_script()
        assert "b0.0/main" in script
        assert "-> PU" in script

    def test_cpuset_of_thread(self, lk23_small, small_topo):
        plan = bind_program(lk23_small, small_topo, policy="treematch")
        cs = plan.cpuset_of_thread(0)
        assert cs.weight() == 1


class TestReport:
    def test_occupancy_by_type(self, small_topo):
        m = Mapping((0, 1, 4))
        occ = report_mod.occupancy_by_type(m, small_topo, ObjType.NUMANODE)
        assert occ == {0: 2, 1: 1}

    def test_occupancy_skips_unbound(self, small_topo):
        m = Mapping((0, -1))
        occ = report_mod.occupancy_by_type(m, small_topo, ObjType.NUMANODE)
        assert occ == {0: 1, 1: 0}

    def test_balance_score_even(self, small_topo):
        m = Mapping((0, 4))
        assert report_mod.balance_score(m, small_topo, ObjType.NUMANODE) == 1.0

    def test_balance_score_skewed(self, small_topo):
        m = Mapping((0, 1, 2, 3))
        assert report_mod.balance_score(m, small_topo, ObjType.NUMANODE) == 0.5

    def test_render_report(self, small_topo, clustered_matrix):
        from repro.treematch.algorithm import tree_match

        res = tree_match(small_topo, clustered_matrix)
        text = report_mod.render_report(res.mapping, clustered_matrix, small_topo)
        assert "numa-cut" in text
        assert "occupancy" in text

    def test_compare_policies_table(self, small_topo, clustered_matrix):
        maps = [
            CompactPolicy().place(small_topo, 8),
            ScatterPolicy().place(small_topo, 8),
        ]
        text = report_mod.compare_policies(maps, clustered_matrix, small_topo)
        assert "compact" in text and "scatter" in text
