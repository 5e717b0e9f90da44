"""Tests for the simulated-annealing mapping baseline."""

import pytest

from repro.comm import patterns
from repro.comm.matrix import CommMatrix
from repro.treematch import cost as cost_mod
from repro.treematch.algorithm import tree_match
from repro.treematch.anneal import AnnealConfig, anneal_mapping
from repro.util.validate import ValidationError


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValidationError):
            AnnealConfig(moves=0)
        with pytest.raises(ValidationError):
            AnnealConfig(cooling=1.5)
        with pytest.raises(ValidationError):
            AnnealConfig(t0_fraction=0)


class TestAnneal:
    def test_valid_mapping(self, small_topo, clustered_matrix):
        mp = anneal_mapping(small_topo, clustered_matrix, seed=1)
        assert mp.n_threads == clustered_matrix.order
        mp.validate_against(small_topo)
        assert mp.bound_fraction() == 1.0
        assert mp.max_load() == 1  # 8 threads, 8 PUs, slot-unique

    def test_oversubscription_balanced(self, small_topo, stencil_matrix):
        # 16 threads on 8 PUs: slot layout caps the per-PU load at 2.
        mp = anneal_mapping(small_topo, stencil_matrix,
                            AnnealConfig(moves=4000), seed=1)
        assert mp.max_load() <= 2

    def test_deterministic_under_seed(self, small_topo, clustered_matrix):
        a = anneal_mapping(small_topo, clustered_matrix, seed=9)
        b = anneal_mapping(small_topo, clustered_matrix, seed=9)
        assert a.pu_of == b.pu_of

    def test_finds_cluster_optimum(self, small_topo, clustered_matrix):
        """On the 2x4 clustered instance the optimum is known: each
        cluster on one NUMA node (cut = 16)."""
        mp = anneal_mapping(small_topo, clustered_matrix,
                            AnnealConfig(moves=8000), seed=2)
        assert cost_mod.numa_cut(mp, clustered_matrix, small_topo) == pytest.approx(16.0)

    def test_improves_on_random_start(self, paper_topo_small):
        m = patterns.stencil_2d(4, 8, edge_volume=100.0)
        short = anneal_mapping(paper_topo_small, m, AnnealConfig(moves=50), seed=3)
        long = anneal_mapping(paper_topo_small, m, AnnealConfig(moves=15000), seed=3)
        assert cost_mod.hop_bytes(long, m, paper_topo_small) < cost_mod.hop_bytes(
            short, m, paper_topo_small
        )

    def test_treematch_close_to_annealed_bound(self, small_topo, clustered_matrix):
        """The quality claim of ablation A8: TreeMatch's one-pass result
        is within a modest factor of the annealed reference."""
        tm = tree_match(small_topo, clustered_matrix).mapping
        sa = anneal_mapping(small_topo, clustered_matrix,
                            AnnealConfig(moves=8000), seed=4)
        hb_tm = cost_mod.hop_bytes(tm, clustered_matrix, small_topo)
        hb_sa = cost_mod.hop_bytes(sa, clustered_matrix, small_topo)
        assert hb_tm <= 1.3 * hb_sa

    def test_empty_matrix_rejected(self, small_topo):
        with pytest.raises(ValidationError):
            anneal_mapping(small_topo, CommMatrix.zeros(0))
