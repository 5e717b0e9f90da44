"""The paper's placement add-on: policies, affinity extraction, binder.

* :mod:`~repro.placement.policies` — TreeMatch plus compact / scatter /
  round-robin / random / nobind baselines, with a registry.
* :mod:`~repro.placement.affinity` — communication-matrix extraction
  from ORWL program composition (static) or from runtime traces.
* :mod:`~repro.placement.binder` — :func:`bind_program`, the end-to-end
  add-on (matrix → policy → thread and control-thread placement).
* :mod:`~repro.placement.report` — occupancy/locality reports.
"""

from repro import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "affinity": [
        "control_pairing",
        "matrix_correlation",
        "static_matrix",
        "traced_matrix",
    ],
    "binder": ["BindPlan", "bind_program"],
    "profiled": ["ProfiledBind", "profile_and_bind"],
    "policies": [
        "POLICY_REGISTRY",
        "CompactPolicy",
        "NoBindPolicy",
        "PlacementPolicy",
        "RandomPolicy",
        "RoundRobinPolicy",
        "ScatterPolicy",
        "ServicePolicy",
        "TreeMatchPolicy",
        "make_policy",
    ],
    "service": ["CommSketch", "Decision", "PlacementService"],
}, submodules=["report"])
