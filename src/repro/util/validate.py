"""Validation helpers for numeric arguments and matrices.

The mapping algorithms work on dense communication matrices; malformed
input (non-square, negative volumes, asymmetry) produces wrong placements
silently, so every public entry point validates eagerly with these
helpers and raises :class:`ValidationError` with a precise message.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.util.errors import ReproError


class ValidationError(ReproError, ValueError):
    """Raised when a public API receives structurally invalid input."""


def check_square_matrix(m: np.ndarray, name: str = "matrix") -> np.ndarray:
    """Validate that *m* is a 2-D square array; return it as ``float64``."""
    a = np.asarray(m, dtype=np.float64)
    if a.ndim != 2:
        raise ValidationError(f"{name} must be 2-D, got ndim={a.ndim}")
    if a.shape[0] != a.shape[1]:
        raise ValidationError(f"{name} must be square, got shape={a.shape}")
    return a


def check_symmetric(m: np.ndarray, name: str = "matrix", rtol: float = 1e-9) -> np.ndarray:
    """Validate that *m* is square and symmetric (within *rtol*).

    An exactly symmetric matrix (every extractor builds one) passes on
    the cheap ``array_equal`` test; only the rest pay the tolerant
    ``allclose``, which allocates several temporaries of *m*'s size.
    """
    a = check_square_matrix(m, name)
    if np.array_equal(a, a.T):
        return a
    if a.size and not np.allclose(a, a.T, rtol=rtol, atol=1e-12):
        worst = float(np.abs(a - a.T).max())
        raise ValidationError(f"{name} must be symmetric (max |m - m.T| = {worst:g})")
    return a


def check_nonnegative(m: np.ndarray, name: str = "matrix") -> np.ndarray:
    """Validate that all entries of *m* are >= 0."""
    a = np.asarray(m, dtype=np.float64)
    if a.size and float(a.min()) < 0:
        raise ValidationError(f"{name} must be non-negative, min = {a.min():g}")
    return a


def check_positive(value: float, name: str = "value") -> float:
    """Validate that a scalar is strictly positive."""
    v = float(value)
    if not v > 0:
        raise ValidationError(f"{name} must be > 0, got {value!r}")
    return v


def check_in_range(
    value: float,
    lo: Optional[float] = None,
    hi: Optional[float] = None,
    name: str = "value",
) -> float:
    """Validate ``lo <= value <= hi`` (either bound may be ``None``)."""
    v = float(value)
    if lo is not None and v < lo:
        raise ValidationError(f"{name} must be >= {lo}, got {value!r}")
    if hi is not None and v > hi:
        raise ValidationError(f"{name} must be <= {hi}, got {value!r}")
    return v
