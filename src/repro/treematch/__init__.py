"""The adapted TreeMatch mapping algorithm (the paper's Algorithm 1).

Pipeline: a communication matrix (from :mod:`repro.comm`) plus a
topology (from :mod:`repro.topology`) go in; a thread → PU
:class:`~repro.treematch.mapping.Mapping` comes out.

* :mod:`~repro.treematch.grouping` — ``GroupProcesses`` (exact + greedy).
* :mod:`~repro.treematch.oversubscription` — virtual-level insertion
  when tasks outnumber PUs (paper extension #1).
* :mod:`~repro.treematch.control` — ORWL control-thread strategies
  (paper extension #2).
* :mod:`~repro.treematch.algorithm` — Algorithm 1 itself.
* :mod:`~repro.treematch.mapping` — the result object and ``MapGroups``.
* :mod:`~repro.treematch.cost` — hop-bytes / NUMA-cut / cache-share
  quality metrics.
"""

from repro import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "algorithm": ["TreeMatchResult", "tree_match", "tree_match_arities"],
    "control": ["ControlPlan", "ControlStrategy"],
    "anneal": ["AnnealConfig", "anneal_mapping"],
    "bisection": ["group_bisection"],
    "grouping": ["group_processes"],
    "mapping": ["Mapping", "map_groups"],
    "oversubscription": ["OversubscriptionPlan"],
    "remap": [
        "RemapResult",
        "place_restricted",
        "remap_full",
        "remap_incremental",
        "repair_domains",
    ],
}, submodules=["cost"])
