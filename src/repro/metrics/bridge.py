"""Bridges between existing instrumentation and ``repro.metrics``.

``repro.observe`` tracers already see every ORWL wait, lock grant,
transfer and run-queue span; rather than double-instrumenting the
runtime, :class:`MetricsProbe` attaches to a tracer as a probe and
folds those events into counters/histograms.  Because the trace stream
is bit-identical across replay orders (the engine determinism
contract), every *integer* quantity derived here — event
counts and histogram bucket counts over simulated durations — lands in
the stable snapshot.

Also here: the end-of-run flush (:func:`record_run`).
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.metrics import core
from repro.metrics.core import (
    MetricRegistry,
    SIM_TIME_BUCKETS,
    SIZE_BUCKETS,
)

if TYPE_CHECKING:  # pragma: no cover
    from repro.observe.tracer import TraceEvent
    from repro.simulate.machine import Machine

__all__ = [
    "MetricsProbe",
    "record_run",
]


class MetricsProbe:
    """A ``Tracer`` probe translating trace events into metrics.

    Bridged metrics (all stable unless noted):

    * ``orwl_waits_total`` / ``orwl_wait_sim_seconds`` — one per
      ``wait`` span, histogram over the *simulated* wait duration.
    * ``orwl_wakeups_total`` — one per lock ``grant`` event.
    * ``orwl_transfers_total`` / ``orwl_transfer_bytes_total`` /
      ``orwl_transfer_bytes`` — per ``transfer`` span (byte counts are
      integral, so the totals stay exact).
    * ``orwl_runq_total`` — run-queue spans.
    * ``orwl_migrations_total`` — thread migrations.
    * ``observe_events_bridged_total`` — everything the probe saw.

    ``Machine.attach_tracer`` adds one to the tracer when metrics are
    enabled.
    """

    def __init__(self, registry: MetricRegistry | None = None) -> None:
        reg = registry if registry is not None else core.registry()
        self.registry = reg
        self._bridged = reg.counter(
            "observe_events_bridged_total",
            "Trace events folded into metrics by the bridge",
        )
        self._waits = reg.counter(
            "orwl_waits_total", "ORWL wait spans observed"
        )
        self._wait_hist = reg.histogram(
            "orwl_wait_sim_seconds",
            "Simulated ORWL wait durations",
            buckets=SIM_TIME_BUCKETS,
        )
        self._wakeups = reg.counter(
            "orwl_wakeups_total", "ORWL lock grants (wakeups)"
        )
        self._transfers = reg.counter(
            "orwl_transfers_total", "Memory-level transfer spans"
        )
        self._transfer_bytes = reg.counter(
            "orwl_transfer_bytes_total", "Bytes moved across memory levels"
        )
        self._transfer_hist = reg.histogram(
            "orwl_transfer_bytes",
            "Per-transfer payload sizes",
            buckets=SIZE_BUCKETS,
        )
        self._runq = reg.counter(
            "orwl_runq_total", "Run-queue delay spans"
        )
        self._migrations = reg.counter(
            "orwl_migrations_total", "Thread migrations between PUs"
        )

    def __call__(self, event: "TraceEvent") -> None:
        self._bridged.inc()
        kind = event.kind
        if kind == "wait":
            self._waits.inc()
            self._wait_hist.observe(event.dur)
        elif kind == "grant":
            self._wakeups.inc()
        elif kind == "transfer":
            self._transfers.inc()
            self._transfer_bytes.inc(int(event.nbytes))
            self._transfer_hist.observe(float(event.nbytes))
        elif kind == "runq":
            self._runq.inc()
        elif kind == "migration":
            self._migrations.inc()


def record_run(machine: "Machine", wall_s: float) -> None:
    """Flush one simulation run's engine totals into the registry.

    Called from ``Machine.run()`` when metrics are enabled.  Event
    totals are integers fixed by the determinism contract, so they are
    stable; wall-clock rates are not.
    """
    reg = core.registry()
    engine = machine.engine
    reg.counter("sim_runs_total", "Completed simulation runs").inc()
    reg.counter(
        "sim_events_total", "Engine events fired across all runs"
    ).inc(engine.events_fired)
    reg.gauge(
        "sim_last_makespan_seconds", "Simulated makespan of the last run"
    ).set(engine.now)
    reg.histogram(
        "engine_run_wall_seconds",
        "Wall-clock time per Machine.run()",
        stable=False,
    ).observe(wall_s)
    if wall_s > 0.0:
        reg.gauge(
            "engine_events_per_sec",
            "Engine dispatch throughput of the last run",
        ).set(engine.events_fired / wall_s)

