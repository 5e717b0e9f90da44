"""Tests for Algorithm 1: oversubscription, control threads, mapping, cost."""

import pytest

from repro.comm import patterns
from repro.comm.matrix import CommMatrix
from repro.topology.builder import from_spec
from repro.treematch import cost as cost_mod
from repro.treematch import oversubscription as over
from repro.treematch import control
from repro.treematch.algorithm import tree_match, tree_match_arities
from repro.treematch.control import ControlStrategy
from repro.treematch.mapping import Mapping, map_groups
from repro.util.validate import ValidationError


class TestOversubscription:
    def test_no_extension_when_fits(self):
        plan = over.plan([2, 4], 8)
        assert not plan.oversubscribed
        assert plan.arities == (2, 4)
        assert plan.padded_order == 8

    def test_padding_below_capacity(self):
        plan = over.plan([2, 4], 5)
        assert plan.padded_order == 8  # padded up to the leaves

    def test_extension_when_oversubscribed(self):
        plan = over.plan([2, 4], 17)
        assert plan.oversubscribed
        assert plan.virtual_per_leaf == 3
        assert plan.arities == (2, 4, 3)
        assert plan.n_virtual_leaves == 24

    def test_exact_multiple(self):
        plan = over.plan([2, 2], 8)
        assert plan.virtual_per_leaf == 2
        assert plan.n_virtual_leaves == 8

    def test_invalid_order(self):
        with pytest.raises(ValidationError):
            over.plan([2, 2], 0)

    def test_leaf_count_validation(self):
        with pytest.raises(ValidationError):
            over.leaf_count([2, 0])


class TestControlStrategies:
    def test_hyperthread_branch(self, ht_topo):
        # 4 cores, 8 PUs with HT: 4 compute threads fit one per core.
        plan = control.decide_strategy(ht_topo, n_compute=4, n_control=4)
        assert plan.strategy is ControlStrategy.HYPERTHREAD_RESERVED

    def test_spare_cores_branch(self, small_topo):
        plan = control.decide_strategy(small_topo, n_compute=4, n_control=2)
        assert plan.strategy is ControlStrategy.SPARE_CORES

    def test_unmapped_branch(self, small_topo):
        plan = control.decide_strategy(small_topo, n_compute=8, n_control=4)
        assert plan.strategy is ControlStrategy.UNMAPPED

    def test_no_control_threads(self, small_topo):
        plan = control.decide_strategy(small_topo, n_compute=4, n_control=0)
        assert plan.strategy is ControlStrategy.UNMAPPED

    def test_default_pairing_round_robin(self):
        assert control.default_pairing(3, 5) == (0, 1, 2, 0, 1)

    def test_bad_pairing_rejected(self, small_topo):
        with pytest.raises(ValidationError):
            control.decide_strategy(small_topo, 4, 2, pairing=[0, 9])

    def test_extend_matrix_spare_cores(self, small_topo):
        m = CommMatrix([[0, 10], [10, 0]])
        plan = control.decide_strategy(small_topo, 2, 2)
        ext = control.extend_matrix(m, plan)
        assert ext.order == 4
        assert ext.volume(2, 0) > 0  # ctl0 attached to compute 0
        assert ext.volume(3, 1) > 0

    def test_extend_matrix_noop_other_strategies(self, ht_topo):
        m = CommMatrix([[0, 10], [10, 0]])
        plan = control.decide_strategy(ht_topo, 2, 2)
        assert plan.strategy is ControlStrategy.HYPERTHREAD_RESERVED
        assert control.extend_matrix(m, plan) is m

    def test_extend_matrix_order_mismatch(self, small_topo):
        m = CommMatrix.zeros(3)
        plan = control.decide_strategy(small_topo, 2, 2)
        with pytest.raises(ValidationError):
            control.extend_matrix(m, plan)

    def test_sibling_pu(self, ht_topo, small_topo):
        assert control.sibling_pu_of(ht_topo, 0) == 1
        assert control.sibling_pu_of(ht_topo, 1) == 0
        assert control.sibling_pu_of(small_topo, 0) is None


class TestMapping:
    def test_basic_queries(self):
        m = Mapping((3, -1, 3), labels=("a", "b", "c"), policy="x")
        assert m.pu(0) == 3
        assert not m.is_bound(1)
        assert m.bound_fraction() == pytest.approx(2 / 3)
        assert m.threads_on(3) == [0, 2]
        assert m.max_load() == 2

    def test_default_labels(self):
        m = Mapping((0, 1))
        assert m.labels == ("t0", "t1")

    def test_label_mismatch_rejected(self):
        with pytest.raises(ValidationError):
            Mapping((0,), labels=("a", "b"))

    def test_invalid_pu_rejected(self):
        with pytest.raises(ValidationError):
            Mapping((-2,))

    def test_validate_against(self, small_topo):
        Mapping((0, 7)).validate_against(small_topo)
        with pytest.raises(ValidationError):
            Mapping((0, 99)).validate_against(small_topo)

    def test_restricted(self):
        m = Mapping((0, 1, 2), labels=("a", "b", "c"))
        r = m.restricted(2)
        assert r.pu_of == (0, 1)
        assert r.labels == ("a", "b")

    def test_occupancy_excludes_unbound(self):
        m = Mapping((0, -1, 0))
        assert dict(m.occupancy()) == {0: 2}


class TestMapGroups:
    def test_single_level(self):
        # 4 entities grouped in pairs: [[0,2],[1,3]] then top [[0,1]]
        hierarchy = [[[0, 2], [1, 3]], [[0, 1]]]
        slots = map_groups(hierarchy, 4)
        # expansion order: group0 (0,2) then group1 (1,3)
        assert slots == [0, 2, 1, 3]

    def test_empty_hierarchy_identity(self):
        assert map_groups([], 3) == [0, 1, 2]

    def test_invalid_hierarchy_rejected(self):
        with pytest.raises(ValidationError):
            map_groups([[[0, 0]], [[0]]], 2)


class TestTreeMatchArities:
    def test_clusters_land_on_leaves(self):
        cm = patterns.clustered(2, 4, intra_volume=100, inter_volume=1, seed=1)
        slot_of, plan, hierarchy = tree_match_arities([2, 4], cm)
        # slots 0..3 are the first subtree; each cluster must fill one.
        by_subtree = [set(), set()]
        for e in range(8):
            by_subtree[slot_of[e] // 4].add(cm.labels[e])
        # cluster labels were permuted, so check via the matrix instead:
        # entities in the same subtree must be the heavy-affinity group.
        vals = cm.values
        for side in by_subtree:
            idx = [cm.labels.index(l) for l in side]
            intra = sum(vals[i, j] for i in idx for j in idx) / 2
            assert intra == pytest.approx(6 * 100.0)

    def test_slots_are_permutation(self, stencil_matrix):
        slot_of, plan, _ = tree_match_arities([4, 4], stencil_matrix)
        assert sorted(slot_of) == list(range(16))

    def test_oversubscription_path(self):
        cm = patterns.ring(8)
        slot_of, plan, _ = tree_match_arities([4], cm)  # 4 leaves, 8 entities
        assert plan.oversubscribed
        assert plan.virtual_per_leaf == 2
        assert sorted(slot_of)[:8] == list(range(8))


class TestTreeMatchFull:
    def test_one_thread_per_pu_when_fits(self, small_topo, stencil_matrix):
        # 16 threads on 8 PUs: 2 per PU, never 3.
        res = tree_match(small_topo, stencil_matrix)
        assert res.mapping.max_load() == 2

    def test_mapping_covers_matrix(self, small_topo, clustered_matrix):
        res = tree_match(small_topo, clustered_matrix)
        assert res.mapping.n_threads == clustered_matrix.order
        assert res.mapping.bound_fraction() == 1.0
        res.mapping.validate_against(small_topo)

    def test_clusters_on_separate_nodes(self, small_topo, clustered_matrix):
        res = tree_match(small_topo, clustered_matrix)
        cut = cost_mod.numa_cut(res.mapping, clustered_matrix, small_topo)
        # only the inter-cluster traffic (4x4 pairs at volume 1) crosses
        assert cut == pytest.approx(16.0)

    def test_beats_random_on_stencil(self, paper_topo_small):
        m = patterns.stencil_2d(4, 8, edge_volume=1000.0)
        res = tree_match(paper_topo_small, m)
        from repro.placement.policies import RandomPolicy

        rnd = RandomPolicy(seed=3).place(paper_topo_small, m.order, matrix=m)
        assert cost_mod.hop_bytes(res.mapping, m, paper_topo_small) < cost_mod.hop_bytes(
            rnd, m, paper_topo_small
        )

    def test_empty_matrix_rejected(self, small_topo):
        with pytest.raises(ValidationError):
            tree_match(small_topo, CommMatrix.zeros(0))

    def test_control_spare_cores_colocated(self, small_topo):
        m = patterns.ring(4, volume=10.0)
        res = tree_match(small_topo, m, n_control=2)
        assert res.control_plan.strategy is ControlStrategy.SPARE_CORES
        # control rows exist in the extended mapping
        assert res.mapping.n_threads == 6

    def test_control_hyperthread_siblings(self, ht_topo):
        m = patterns.ring(4, volume=10.0)
        res = tree_match(ht_topo, m, n_control=4)
        assert res.control_plan.strategy is ControlStrategy.HYPERTHREAD_RESERVED
        assert res.control_mapping is not None
        for k in range(4):
            comp_pu = res.mapping.pu(res.control_plan.pairing[k])
            ctl_pu = res.control_mapping.pu(k)
            # sibling = same core, different PU
            assert ctl_pu != comp_pu
            assert ht_topo.core_of(ctl_pu) is ht_topo.core_of(comp_pu)

    def test_control_unmapped_when_full(self, small_topo):
        m = patterns.ring(8, volume=10.0)
        res = tree_match(small_topo, m, n_control=8)
        assert res.control_plan.strategy is ControlStrategy.UNMAPPED
        assert res.control_mapping is None

    def test_hierarchy_recorded(self, small_topo, clustered_matrix):
        res = tree_match(small_topo, clustered_matrix)
        assert len(res.hierarchy) == len(res.plan.arities)


class TestCostMetrics:
    def _identity_mapping(self, n):
        return Mapping(tuple(range(n)), policy="identity")

    def test_hop_bytes_zero_for_zero_matrix(self, small_topo):
        m = CommMatrix.zeros(8)
        assert cost_mod.hop_bytes(self._identity_mapping(8), m, small_topo) == 0.0

    def test_hop_bytes_unbound_charged_worst(self, small_topo):
        m = CommMatrix([[0, 10], [10, 0]])
        bound = Mapping((0, 1))
        unbound = Mapping((-1, -1))
        assert cost_mod.hop_bytes(unbound, m, small_topo) > cost_mod.hop_bytes(
            bound, m, small_topo
        )

    def test_numa_cut_detects_split(self, small_topo):
        m = CommMatrix([[0, 10], [10, 0]])
        same = Mapping((0, 1))
        split = Mapping((0, 4))
        assert cost_mod.numa_cut(same, m, small_topo) == 0.0
        assert cost_mod.numa_cut(split, m, small_topo) == 10.0

    def test_numa_cut_no_numa_level(self):
        t = from_spec("core:4 pu:1")
        m = CommMatrix([[0, 5], [5, 0]])
        assert cost_mod.numa_cut(Mapping((0, 3)), m, t) == 0.0

    def test_cache_share_fraction(self, small_topo):
        m = CommMatrix([[0, 10], [10, 0]])
        same_l3 = Mapping((0, 1))
        cross = Mapping((0, 4))
        assert cost_mod.cache_share_fraction(same_l3, m, small_topo) == 1.0
        assert cost_mod.cache_share_fraction(cross, m, small_topo) == 0.0

    def test_cache_share_zero_matrix(self, small_topo):
        m = CommMatrix.zeros(4)
        assert cost_mod.cache_share_fraction(Mapping((0, 1, 2, 3)), m, small_topo) == 0.0

    def test_comm_time_estimate_prefers_local(self, small_topo):
        from repro.topology.distance import DistanceModel

        dm = DistanceModel(small_topo)
        m = CommMatrix([[0, 1e6], [1e6, 0]])
        local = cost_mod.comm_time_estimate(Mapping((0, 1)), m, dm)
        remote = cost_mod.comm_time_estimate(Mapping((0, 4)), m, dm)
        assert remote > local

    def test_score_report_keys(self, small_topo, clustered_matrix):
        res = tree_match(small_topo, clustered_matrix)
        report = cost_mod.score_report(res.mapping, clustered_matrix, small_topo)
        assert set(report) == {
            "hop_bytes",
            "comm_time_estimate",
            "numa_cut",
            "cache_share_fraction",
            "max_load",
        }

    def test_mapping_smaller_than_matrix_rejected(self, small_topo):
        m = CommMatrix.zeros(4)
        with pytest.raises(ValidationError):
            cost_mod.hop_bytes(Mapping((0,)), m, small_topo)
