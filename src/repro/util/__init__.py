"""Shared utilities: validation helpers, deterministic RNG, simple logging.

Everything in :mod:`repro` that needs randomness takes an explicit seed or
:class:`numpy.random.Generator`; :func:`make_rng` is the single place that
turns "seed-ish" values into a generator so experiments are reproducible.
"""

from repro import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "rng": ["make_rng", "SeedLike"],
    "validate": [
        "check_square_matrix",
        "check_symmetric",
        "check_nonnegative",
        "check_positive",
        "check_in_range",
        "ValidationError",
    ],
    "errors": ["ReproError"],
    "log": ["get_logger"],
})
