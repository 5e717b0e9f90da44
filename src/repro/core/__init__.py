"""Top-level façade: one-call experiment running.

Re-exports :func:`run_lk23` and :class:`ExperimentConfig` from
:mod:`repro.core.api` — the API the examples and quickstart use.
"""

from repro import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "api": ["ExperimentConfig", "ExperimentResult", "run_lk23", "compare_policies"],
})
