"""Trace-derived performance analysis (post-mortem, zero new probes).

``repro.perf`` consumes the :mod:`repro.observe` event stream of one
traced run and answers the questions a performance engineer would put
to ``perf`` / LIKWID / a flamegraph on real hardware:

* :mod:`~repro.perf.critpath` — the longest weighted dependency chain
  (the makespan's lower bound) and an exact backward-walk partition of
  the makespan into compute / transfer-by-level / wait / runq /
  migration / idle buckets;
* :mod:`~repro.perf.counters` — LIKWID-style derived counter groups
  (CPU, STALL, MEM, NUMA, SCHED);
* :mod:`~repro.perf.numa` — directed node x node traffic matrices with
  ASCII heatmap rendering;
* :mod:`~repro.perf.topdown` — gap attribution between two runs whose
  buckets sum to the measured time difference;
* :mod:`~repro.perf.flamegraph` — folded-stack export for
  ``flamegraph.pl`` / speedscope;
* :mod:`~repro.perf.report` — :func:`analyze`, the one-call facade.

Everything here is a pure function of the event stream: same seed,
same report, byte for byte.
"""

from repro import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "counters": [
        "LOCAL_LEVELS",
        "CounterGroup",
        "Metric",
        "compute_counter_groups",
        "render_counter_groups",
    ],
    "critpath": [
        "Attribution",
        "CriticalPath",
        "attribute_makespan",
        "extract_critical_path",
    ],
    "flamegraph": ["folded_stacks", "write_folded"],
    "numa": ["TrafficMatrix", "producer_node_of", "render_heatmap", "traffic_matrix"],
    "report": ["PerfReport", "analyze"],
    "spans": ["WORK_KINDS", "TraceIndex", "bucket_of", "ensure_index"],
    "topdown": ["GapAttribution", "attribute_gap"],
})
