"""Tests for repro.util: RNG handling, validation, logging."""

import logging

import numpy as np
import pytest

from repro.util.log import enable_console_logging, get_logger
from repro.util.rng import make_rng, spawn_rngs
from repro.util.validate import (
    ValidationError,
    check_in_range,
    check_nonnegative,
    check_positive,
    check_square_matrix,
    check_symmetric,
)


class TestRng:
    def test_none_gives_generator(self):
        assert isinstance(make_rng(None), np.random.Generator)

    def test_int_reproducible(self):
        assert make_rng(42).random() == make_rng(42).random()

    def test_generator_passthrough(self):
        g = np.random.default_rng(1)
        assert make_rng(g) is g

    def test_seed_sequence(self):
        ss = np.random.SeedSequence(7)
        a = make_rng(ss)
        assert isinstance(a, np.random.Generator)

    def test_spawn_independent_and_reproducible(self):
        a1, b1 = spawn_rngs(9, 2)
        a2, b2 = spawn_rngs(9, 2)
        assert a1.random() == a2.random()
        assert b1.random() == b2.random()
        assert a1.random() != b1.random()

    def test_spawn_from_generator(self):
        g = np.random.default_rng(3)
        children = spawn_rngs(g, 3)
        assert len(children) == 3

    def test_spawn_negative_rejected(self):
        with pytest.raises(ValueError):
            spawn_rngs(1, -1)

    def test_spawn_zero(self):
        assert spawn_rngs(1, 0) == []


class TestValidate:
    def test_square_ok(self):
        m = check_square_matrix([[1, 2], [3, 4]])
        assert m.dtype == np.float64

    def test_square_rejects_1d(self):
        with pytest.raises(ValidationError):
            check_square_matrix([1, 2, 3])

    def test_square_rejects_rect(self):
        with pytest.raises(ValidationError):
            check_square_matrix([[1, 2, 3], [4, 5, 6]])

    def test_symmetric_ok(self):
        check_symmetric([[0, 1], [1, 0]])

    def test_symmetric_rejects(self):
        with pytest.raises(ValidationError):
            check_symmetric([[0, 1], [2, 0]])

    def test_symmetric_empty_ok(self):
        check_symmetric(np.zeros((0, 0)))

    def test_nonnegative(self):
        check_nonnegative([[0, 1]])
        with pytest.raises(ValidationError):
            check_nonnegative([[-1]])

    def test_positive(self):
        assert check_positive(2) == 2.0
        with pytest.raises(ValidationError):
            check_positive(0)
        with pytest.raises(ValidationError):
            check_positive(-1)

    def test_in_range(self):
        assert check_in_range(0.5, 0, 1) == 0.5
        check_in_range(5, lo=0)  # open above
        check_in_range(-5, hi=0)  # open below
        with pytest.raises(ValidationError):
            check_in_range(2, 0, 1)
        with pytest.raises(ValidationError):
            check_in_range(-1, 0, 1)


class TestLog:
    def test_get_logger_namespacing(self):
        assert get_logger("treematch").name == "repro.treematch"
        assert get_logger("repro.orwl").name == "repro.orwl"

    def test_enable_console_idempotent(self):
        enable_console_logging(logging.DEBUG)
        root = logging.getLogger("repro")
        n = len(root.handlers)
        enable_console_logging(logging.DEBUG)
        assert len(root.handlers) == n


@pytest.mark.parametrize(
    "module, name, builtin",
    [
        ("repro.util.validate", "ValidationError", ValueError),
        ("repro.topology.tree", "TopologyError", ValueError),
        ("repro.simulate.engine", "SimulationError", RuntimeError),
        ("repro.orwl.fifo", "FifoError", RuntimeError),
        ("repro.observe.invariants", "InvariantError", AssertionError),
    ],
)
def test_typed_errors_share_one_base_and_keep_their_builtin(module, name, builtin):
    import importlib

    from repro.util.errors import ReproError

    cls = getattr(importlib.import_module(module), name)
    assert issubclass(cls, ReproError)
    assert issubclass(cls, builtin)
