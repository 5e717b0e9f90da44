"""Tests for repro.comm: CommMatrix, synthetic patterns, and tracing."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.comm.matrix import CommMatrix
from repro.comm.trace import CommTracer
from repro.comm import patterns
from repro.util.validate import ValidationError


class TestCommMatrixConstruction:
    def test_basic(self):
        m = CommMatrix([[0, 1], [1, 0]])
        assert m.order == 2
        assert m.volume(0, 1) == 1.0

    def test_diagonal_zeroed(self):
        m = CommMatrix([[5, 1], [1, 7]])
        assert m.volume(0, 0) == 0.0
        assert m.volume(1, 1) == 0.0

    def test_asymmetric_rejected(self):
        with pytest.raises(ValidationError):
            CommMatrix([[0, 1], [2, 0]])

    def test_symmetrize_option(self):
        m = CommMatrix([[0, 1], [2, 0]], symmetrize=True)
        assert m.volume(0, 1) == 3.0

    def test_negative_rejected(self):
        with pytest.raises(ValidationError):
            CommMatrix([[0, -1], [-1, 0]])

    def test_nonsquare_rejected(self):
        with pytest.raises(ValidationError):
            CommMatrix([[0, 1, 2], [1, 0, 3]])

    def test_default_labels(self):
        m = CommMatrix.zeros(3)
        assert m.labels == ("t0", "t1", "t2")

    def test_custom_labels(self):
        m = CommMatrix.zeros(2, labels=["a", "b"])
        assert m.labels == ("a", "b")

    def test_label_count_mismatch(self):
        with pytest.raises(ValidationError):
            CommMatrix.zeros(2, labels=["only-one"])

    def test_from_edges(self):
        m = CommMatrix.from_edges(3, [(0, 1, 5), (1, 2, 3), (0, 1, 2)])
        assert m.volume(0, 1) == 7.0
        assert m.volume(1, 2) == 3.0

    def test_from_edges_self_loop_ignored(self):
        m = CommMatrix.from_edges(2, [(0, 0, 99)])
        assert m.total_volume() == 0.0

    def test_from_edges_out_of_range(self):
        with pytest.raises(ValidationError):
            CommMatrix.from_edges(2, [(0, 5, 1)])

    def test_values_readonly(self):
        m = CommMatrix.zeros(2)
        with pytest.raises(ValueError):
            m.values[0, 1] = 3


class TestSymmetryCheck:
    """``check_symmetric``: exact symmetry short-circuits the tolerant test
    without changing what it accepts."""

    def test_nan_rejected(self):
        with pytest.raises(ValidationError):
            CommMatrix([[0, np.nan], [np.nan, 0]])

    def test_out_of_tolerance_rejected(self):
        with pytest.raises(ValidationError):
            CommMatrix([[0, 1.0], [1.0 + 1e-6, 0]])

    def test_within_tolerance_accepted_as_given(self):
        m = CommMatrix([[0, 1.0], [1.0 + 1e-12, 0]])
        assert m.volume(0, 1) == 1.0
        assert m.volume(1, 0) == 1.0 + 1e-12

    def test_exactly_symmetric_skips_allclose(self, monkeypatch):
        def no_allclose(*args, **kwargs):
            raise AssertionError("allclose ran on an exactly symmetric matrix")

        monkeypatch.setattr(np, "allclose", no_allclose)
        rng = np.random.default_rng(3)
        a = rng.random((50, 50))
        m = CommMatrix(a + a.T)
        assert m.order == 50


class TestCommMatrixHash:
    """Equal matrices hash equal: the hash covers the values only."""

    def test_equal_values_one_set_element(self):
        a = np.array([[0, 2.0, 1], [2.0, 0, 3], [1, 3, 0]])
        assert len({CommMatrix(a), CommMatrix(a)}) == 1

    def test_labels_do_not_split_equal_matrices(self):
        a = [[0, 2.0], [2.0, 0]]
        x, y = CommMatrix(a, labels=["a", "b"]), CommMatrix(a, labels=["c", "d"])
        assert x == y
        assert len({x, y}) == 1

    def test_negative_zero_hashes_like_zero(self):
        neg = CommMatrix([[0, -0.0], [-0.0, 0]])
        pos = CommMatrix([[0, 0.0], [0.0, 0]])
        assert neg == pos
        assert len({neg, pos}) == 1

    def test_different_values_differ(self):
        assert CommMatrix([[0, 1], [1, 0]]) != CommMatrix([[0, 2], [2, 0]])
        assert len({CommMatrix([[0, 1], [1, 0]]), CommMatrix.zeros(2)}) == 2

    def test_hash_survives_pickle(self):
        import pickle

        m = CommMatrix([[0, 5.0], [5.0, 0]])
        hash(m)
        clone = pickle.loads(pickle.dumps(m))
        assert hash(clone) == hash(m)
        assert len({m, clone}) == 1


class TestCommMatrixOps:
    def test_total_volume_counts_pairs_once(self):
        m = CommMatrix([[0, 4], [4, 0]])
        assert m.total_volume() == 4.0

    def test_row_volume(self, stencil_matrix):
        # a corner block talks to 3 neighbours
        assert stencil_matrix.row_volume(0) > 0

    def test_density(self):
        m = CommMatrix([[0, 1, 0], [1, 0, 0], [0, 0, 0]])
        assert m.density() == pytest.approx(1 / 3)

    def test_neighbors_sorted_by_volume(self):
        m = CommMatrix.from_edges(3, [(0, 1, 1), (0, 2, 9)])
        assert m.neighbors(0) == [2, 1]

    def test_normalized(self):
        m = CommMatrix([[0, 4], [4, 0]]).normalized()
        assert m.volume(0, 1) == 1.0

    def test_normalized_zero_matrix(self):
        m = CommMatrix.zeros(3).normalized()
        assert m.total_volume() == 0.0

    def test_permuted_roundtrip(self, stencil_matrix):
        perm = list(reversed(range(stencil_matrix.order)))
        p = stencil_matrix.permuted(perm)
        pp = p.permuted(perm)
        assert pp == stencil_matrix

    def test_permuted_invalid(self):
        with pytest.raises(ValidationError):
            CommMatrix.zeros(3).permuted([0, 0, 1])

    def test_extended_adds_zero_rows(self):
        m = CommMatrix([[0, 2], [2, 0]]).extended(2)
        assert m.order == 4
        assert m.row_volume(2) == 0.0
        assert m.labels[2] == "ctl0"

    def test_extended_negative_rejected(self):
        with pytest.raises(ValidationError):
            CommMatrix.zeros(2).extended(-1)

    def test_aggregated_sums_cross_volumes(self):
        m = CommMatrix.from_edges(4, [(0, 1, 5), (0, 2, 1), (1, 3, 2), (2, 3, 7)])
        agg = m.aggregated([[0, 1], [2, 3]])
        assert agg.order == 2
        # cross-group volume: (0,2)=1 + (1,3)=2 = 3
        assert agg.volume(0, 1) == 3.0

    def test_aggregated_total_preserved_minus_intra(self):
        m = CommMatrix.from_edges(4, [(0, 1, 5), (2, 3, 7), (0, 3, 2)])
        agg = m.aggregated([[0, 1], [2, 3]])
        assert agg.total_volume() == 2.0

    def test_aggregated_requires_partition(self):
        m = CommMatrix.zeros(4)
        with pytest.raises(ValidationError):
            m.aggregated([[0, 1], [1, 2, 3]])  # 1 twice
        with pytest.raises(ValidationError):
            m.aggregated([[0, 1], [2]])  # 3 missing

    def test_save_load_roundtrip(self, tmp_path, stencil_matrix):
        path = tmp_path / "m.txt"
        stencil_matrix.save(path)
        loaded = CommMatrix.load(path)
        assert loaded == stencil_matrix
        assert loaded.labels == stencil_matrix.labels

    def test_load_bad_file(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("3\n1 2\n")
        with pytest.raises(Exception):
            CommMatrix.load(path)


class TestPatterns:
    def test_stencil_neighbor_counts(self):
        m = patterns.stencil_2d(3, 3, edge_volume=10)
        # center block has 8 neighbours
        assert len(m.neighbors(4)) == 8
        # corner block has 3
        assert len(m.neighbors(0)) == 3

    def test_stencil_edge_heavier_than_corner(self):
        m = patterns.stencil_2d(3, 3, edge_volume=64.0)
        assert m.volume(0, 1) == 64.0  # horizontal edge
        assert m.volume(0, 4) == 1.0  # diagonal corner

    def test_stencil_no_diagonal(self):
        m = patterns.stencil_2d(3, 3, diagonal=False)
        assert m.volume(0, 4) == 0.0

    def test_stencil_periodic_wraps(self):
        m = patterns.stencil_2d(1, 4, periodic=True, diagonal=False)
        assert m.volume(0, 3) > 0

    def test_stencil_invalid(self):
        with pytest.raises(ValidationError):
            patterns.stencil_2d(0, 3)

    def test_ring(self):
        m = patterns.ring(5, volume=2.0)
        assert m.volume(0, 1) == 2.0
        assert m.volume(0, 4) == 2.0  # wrap
        assert m.volume(0, 2) == 0.0

    def test_ring_single(self):
        assert patterns.ring(1).total_volume() == 0.0

    def test_all_to_all(self):
        m = patterns.all_to_all(4, volume=3.0)
        assert m.total_volume() == 6 * 3.0

    def test_random_sparse_density(self):
        m = patterns.random_sparse(50, density=0.2, seed=42)
        assert 0.1 < m.density() < 0.3

    def test_random_sparse_reproducible(self):
        a = patterns.random_sparse(20, seed=7)
        b = patterns.random_sparse(20, seed=7)
        assert a == b

    def test_random_sparse_bad_density(self):
        with pytest.raises(ValidationError):
            patterns.random_sparse(10, density=1.5)

    def test_clustered_heavy_intra(self):
        m = patterns.clustered(2, 3, intra_volume=50, inter_volume=1, shuffle=False)
        assert m.volume(0, 1) == 50.0
        assert m.volume(0, 3) == 1.0

    def test_clustered_shuffle_reproducible(self):
        a = patterns.clustered(2, 4, seed=3)
        b = patterns.clustered(2, 4, seed=3)
        assert a == b

    def test_butterfly_degree(self):
        m = patterns.butterfly(3)
        # every entity talks to exactly `stages` partners
        assert all(len(m.neighbors(i)) == 3 for i in range(8))

    def test_square_grid_shape(self):
        assert patterns.square_grid_shape(12) == (3, 4)
        assert patterns.square_grid_shape(16) == (4, 4)
        assert patterns.square_grid_shape(7) == (1, 7)
        assert patterns.square_grid_shape(192) == (12, 16)

    def test_square_grid_shape_invalid(self):
        with pytest.raises(ValidationError):
            patterns.square_grid_shape(0)

    @given(st.integers(min_value=1, max_value=200))
    def test_square_grid_shape_property(self, n):
        r, c = patterns.square_grid_shape(n)
        assert r * c == n
        assert r <= c


class TestTracer:
    def test_register_idempotent(self):
        t = CommTracer()
        assert t.register("a") == t.register("a") == 0
        assert t.n_entities == 1

    def test_record_accumulates(self):
        t = CommTracer()
        t.record("a", "b", 10)
        t.record("b", "a", 5)
        assert t.volume_between("a", "b") == 15.0
        assert t.n_events == 2

    def test_record_self_ignored(self):
        t = CommTracer()
        t.record("a", "a", 10)
        assert t.n_events == 0

    def test_record_negative_rejected(self):
        t = CommTracer()
        with pytest.raises(ValidationError):
            t.record("a", "b", -1)

    def test_to_matrix(self):
        t = CommTracer()
        t.register_all(["a", "b", "c"])
        t.record("a", "c", 7)
        m = t.to_matrix()
        assert m.order == 3
        assert m.volume(0, 2) == 7.0
        assert m.labels == ("a", "b", "c")

    def test_to_matrix_forced_order(self):
        t = CommTracer()
        t.record("a", "b", 1)
        m = t.to_matrix(order=4)
        assert m.order == 4
        assert m.labels[3].startswith("silent")

    def test_to_matrix_order_too_small(self):
        t = CommTracer()
        t.register_all(["a", "b", "c"])
        with pytest.raises(ValidationError):
            t.to_matrix(order=2)

    def test_merge(self):
        t1 = CommTracer()
        t1.record("a", "b", 5)
        t2 = CommTracer()
        t2.record("b", "c", 3)
        t1.merge(t2)
        assert t1.volume_between("b", "c") == 3.0
        assert t1.n_events == 2

    def test_reset_volumes_keeps_registration(self):
        t = CommTracer()
        t.record("a", "b", 5)
        t.reset_volumes()
        assert t.n_entities == 2
        assert t.volume_between("a", "b") == 0.0

    def test_unregistered_lookup(self):
        t = CommTracer()
        with pytest.raises(ValidationError):
            t.id_of("ghost")
