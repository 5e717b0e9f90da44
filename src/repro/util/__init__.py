"""Shared utilities: validation helpers, deterministic RNG, simple logging.

Everything in :mod:`repro` that needs randomness takes an explicit seed or
:class:`numpy.random.Generator`; :func:`make_rng` is the single place that
turns "seed-ish" values into a generator so experiments are reproducible.
"""

from repro.util.errors import ReproError
from repro.util.rng import make_rng, SeedLike
from repro.util.validate import (
    check_square_matrix,
    check_symmetric,
    check_nonnegative,
    check_positive,
    check_in_range,
    ValidationError,
)
from repro.util.log import get_logger

__all__ = [
    "make_rng",
    "SeedLike",
    "check_square_matrix",
    "check_symmetric",
    "check_nonnegative",
    "check_positive",
    "check_in_range",
    "ValidationError",
    "ReproError",
    "get_logger",
]
