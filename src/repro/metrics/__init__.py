"""``repro.metrics`` — online telemetry for the reproduction.

Where :mod:`repro.observe` records *traces* (every event, post-hoc
analysis) and :mod:`repro.perf` mines them after a run, this package is
the **live** layer: a process-local :class:`MetricRegistry` of
counters / gauges / histograms instrumenting the placement service, the
sweep runner, the ORWL runtime and the simulation engine, exposed as
Prometheus text, canonical-JSON snapshots, an HTTP endpoint, and the
``repro.tools.top`` dashboard.  See ``docs/observability.md`` for when
to reach for which layer.

Disabled by default; enable with ``REPRO_METRICS=on`` or
:func:`enable` (workers inherit via the environment variable).
"""

from repro import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "core": [
        "ENV_METRICS",
        "Counter",
        "Gauge",
        "Histogram",
        "LATENCY_BUCKETS",
        "Metric",
        "MetricRegistry",
        "SIM_TIME_BUCKETS",
        "SIZE_BUCKETS",
        "bucket_quantile",
        "disable",
        "enable",
        "exp_buckets",
        "is_enabled",
        "registry",
        "reset_registry",
        "set_enabled",
    ],
    "expose": ["ExpositionError", "parse_exposition", "render_text"],
})
