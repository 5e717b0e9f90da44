"""The content digest of a communication matrix, and the immutability
that lets :class:`CommMatrix` memoise it.

The digest keys the placement memo and the on-disk placement store, so
its bytes must never drift: every case here is checked against the
original formula (``tobytes()`` copy plus one ``update`` per label),
kept below as an oracle.
"""

from __future__ import annotations

import hashlib
import pickle

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.comm.matrix import CommMatrix
from repro.exec import cache
from repro.exec.cache import matrix_digest


def oracle_digest(matrix) -> str:
    """The original, unmemoised digest formula."""
    values = np.ascontiguousarray(
        np.asarray(getattr(matrix, "values", matrix), dtype=np.float64)
    )
    h = hashlib.sha256()
    h.update(repr(values.shape).encode("utf-8"))
    h.update(values.tobytes())
    for label in getattr(matrix, "labels", ()):
        h.update(b"\x1f")
        h.update(str(label).encode("utf-8"))
    return h.hexdigest()


@st.composite
def comm_matrices(draw, max_order: int = 40) -> CommMatrix:
    n = draw(st.integers(0, max_order))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    m = rng.integers(0, 5, size=(n, n)) * rng.random((n, n)) * 1e6
    custom = draw(st.booleans())
    labels = [f"w{i}/é\x1f{seed % 7}" for i in range(n)] if custom else None
    return CommMatrix(m, labels=labels, symmetrize=True)


class TestDigestFormula:
    @settings(max_examples=60, deadline=None)
    @given(comm_matrices())
    def test_equals_oracle(self, cm):
        assert matrix_digest(cm) == oracle_digest(cm)

    @settings(max_examples=30, deadline=None)
    @given(comm_matrices(), st.randoms(use_true_random=False))
    def test_derived_matrices_equal_oracle(self, cm, rnd):
        n = cm.order
        perm = list(range(n))
        rnd.shuffle(perm)
        cut = rnd.randint(0, n)
        groups = [g for g in (perm[:cut], perm[cut:]) if g]
        derived = [
            cm.permuted(perm),
            cm.extended(rnd.randint(0, 3)),
            cm.normalized(),
        ]
        if groups:
            derived.append(cm.aggregated(groups))
        for d in derived:
            assert matrix_digest(d) == oracle_digest(d)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 12), st.integers(0, 12), st.booleans())
    def test_raw_array_equals_oracle(self, rows, cols, fortran):
        a = np.arange(rows * cols, dtype=np.float64).reshape(rows, cols)
        if fortran:
            a = np.asfortranarray(a)
        assert matrix_digest(a) == oracle_digest(a)


class TestDigestMemo:
    def test_second_call_returns_memoised_string(self, monkeypatch):
        cm = CommMatrix(np.ones((6, 6)))
        first = matrix_digest(cm)
        monkeypatch.setattr(cache, "_hash_matrix", _no_rehash)
        assert matrix_digest(cm) is first

    def test_raw_array_is_rehashed_after_mutation(self):
        a = np.ones((5, 5))
        before = matrix_digest(a)
        a[1, 2] = 7.0
        assert matrix_digest(a) != before
        assert matrix_digest(a) == oracle_digest(a)


class TestImmutability:
    def _matrix(self) -> CommMatrix:
        return CommMatrix(np.arange(16.0).reshape(4, 4), symmetrize=True)

    def _assert_frozen(self, cm: CommMatrix) -> None:
        with pytest.raises(ValueError):
            cm.values[0, 1] = 1.0
        with pytest.raises(ValueError):
            cm._m[0, 1] = 1.0
        with pytest.raises(ValueError):
            cm.values.flags.writeable = True

    def test_writes_raise(self):
        self._assert_frozen(self._matrix())

    def test_pickle_round_trip_stays_frozen_and_keeps_digest(self, monkeypatch):
        cm = self._matrix()
        digest = matrix_digest(cm)
        clone = pickle.loads(pickle.dumps(cm))
        self._assert_frozen(clone)
        monkeypatch.setattr(cache, "_hash_matrix", _no_rehash)
        assert matrix_digest(clone) == digest
        assert clone == cm

    def test_constructor_copies_its_input(self):
        src = np.ones((3, 3))
        cm = CommMatrix(src)
        src[0, 1] = src[1, 0] = 9.0
        assert cm.volume(0, 1) == 1.0
        assert src.flags.writeable


def _no_rehash(*args, **kwargs):
    raise AssertionError("a CommMatrix digest must be computed only once")
