"""Tests for repro.topology.distance: LCA/hop matrices and cost model."""

import numpy as np
import pytest

from repro.topology.builder import from_spec
from repro.topology.distance import (
    DEFAULT_LEVEL_COSTS,
    DistanceModel,
    LinkCosts,
    hop_distance_matrix,
    lca_depth_matrix,
)
from repro.topology.objects import ObjType


class TestLcaMatrix:
    def test_diagonal_is_pu_depth(self, small_topo):
        lca = lca_depth_matrix(small_topo)
        assert all(lca[i, i] == 5 for i in range(8))

    def test_same_node_pair(self, small_topo):
        lca = lca_depth_matrix(small_topo)
        # PUs 0 and 1 share the L3 at depth 3.
        assert lca[0, 1] == 3

    def test_cross_node_pair(self, small_topo):
        lca = lca_depth_matrix(small_topo)
        assert lca[0, 4] == 0  # machine

    def test_symmetric(self, small_topo):
        lca = lca_depth_matrix(small_topo)
        assert np.array_equal(lca, lca.T)


class TestHopMatrix:
    def test_zero_diagonal(self, small_topo):
        hops = hop_distance_matrix(small_topo)
        assert np.all(np.diag(hops) == 0)

    def test_same_l3_distance(self, small_topo):
        hops = hop_distance_matrix(small_topo)
        # depth 5 + 5 - 2*3 = 4 hops within a node
        assert hops[0, 1] == 4

    def test_cross_node_distance(self, small_topo):
        hops = hop_distance_matrix(small_topo)
        assert hops[0, 4] == 10

    def test_triangle_inequality_holds(self, paper_topo_small):
        hops = hop_distance_matrix(paper_topo_small)
        n = hops.shape[0]
        rng = np.random.default_rng(0)
        for _ in range(200):
            i, j, k = rng.integers(0, n, 3)
            assert hops[i, j] <= hops[i, k] + hops[k, j]


class TestLinkCosts:
    def test_transfer_time_formula(self):
        c = LinkCosts(latency=1e-6, bandwidth=1e9)
        assert c.transfer_time(1e9) == pytest.approx(1.0 + 1e-6)

    def test_zero_bytes_free(self):
        c = LinkCosts(latency=1e-6, bandwidth=1e9)
        assert c.transfer_time(0) == 0.0

    def test_default_costs_monotone(self):
        # Latency grows (and bandwidth shrinks) as sharing gets wider.
        order = [ObjType.L1, ObjType.L2, ObjType.L3, ObjType.NUMANODE, ObjType.MACHINE]
        lats = [DEFAULT_LEVEL_COSTS[t].latency for t in order]
        bws = [DEFAULT_LEVEL_COSTS[t].bandwidth for t in order]
        assert lats == sorted(lats)
        assert bws == sorted(bws, reverse=True)


class TestDistanceModel:
    def test_lca_type_same_socket(self, small_topo):
        m = DistanceModel(small_topo)
        assert m.lca_type(0, 1) is ObjType.L3

    def test_lca_type_cross_socket(self, small_topo):
        m = DistanceModel(small_topo)
        assert m.lca_type(0, 4) is ObjType.MACHINE

    def test_lca_type_same_pu_is_core(self, small_topo):
        m = DistanceModel(small_topo)
        assert m.lca_type(3, 3) is ObjType.CORE

    def test_transfer_time_scales_with_distance(self, small_topo):
        m = DistanceModel(small_topo)
        near = m.transfer_time(0, 1, 1 << 20)
        far = m.transfer_time(0, 4, 1 << 20)
        assert far > near

    def test_transfer_time_zero_bytes(self, small_topo):
        m = DistanceModel(small_topo)
        assert m.transfer_time(0, 4, 0) == 0.0

    def test_latency_bandwidth_lookup(self, small_topo):
        m = DistanceModel(small_topo)
        assert m.latency(0, 4) == DEFAULT_LEVEL_COSTS[ObjType.MACHINE].latency
        assert m.bandwidth(0, 1) == DEFAULT_LEVEL_COSTS[ObjType.L3].bandwidth

    def test_matrices_shapes(self, small_topo):
        m = DistanceModel(small_topo)
        assert m.latency_matrix().shape == (8, 8)
        assert m.bandwidth_matrix().shape == (8, 8)
        assert m.hop_matrix().shape == (8, 8)

    def test_matrices_readonly(self, small_topo):
        m = DistanceModel(small_topo)
        with pytest.raises(ValueError):
            m.hop_matrix()[0, 0] = 5
        with pytest.raises(ValueError):
            m.lca_depths[0, 0] = 5

    def test_logical_of_os(self, small_topo):
        m = DistanceModel(small_topo)
        assert m.logical_of_os(3) == 3
        with pytest.raises(KeyError):
            m.logical_of_os(99)

    def test_custom_level_costs(self, small_topo):
        costs = dict(DEFAULT_LEVEL_COSTS)
        costs[ObjType.MACHINE] = LinkCosts(latency=1.0, bandwidth=1.0)
        m = DistanceModel(small_topo, level_costs=costs)
        assert m.latency(0, 4) == 1.0

    def test_hyperthread_sibling_core_level(self, ht_topo):
        m = DistanceModel(ht_topo)
        # PUs 0 and 1 share a core.
        assert m.lca_type(0, 1) is ObjType.CORE

    def test_missing_level_falls_back_to_machine(self):
        t = from_spec("numa:2 pu:4")
        m = DistanceModel(t)
        # Cross-node LCA is MACHINE; lookup must not fail.
        assert m.latency(0, 4) > 0
