"""The end-of-run flush of a simulation into ``repro.metrics``.

:func:`record_run` folds one finished run into the registry: the
engine totals, and, for a traced machine, its trace.
``repro.observe`` tracers already see every ORWL wait, lock grant,
transfer and run-queue span; rather than double-instrumenting the
runtime, the fold reads that trace once, after the drain, into
counters and histograms.  Because the trace stream is bit-identical
across replay orders (the engine determinism contract), every
*integer* quantity derived here — event counts and histogram bucket
counts over simulated durations — lands in the stable snapshot.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Sequence

from repro.metrics import core
from repro.metrics.core import (
    MetricRegistry,
    SIM_TIME_BUCKETS,
    SIZE_BUCKETS,
)

if TYPE_CHECKING:  # pragma: no cover
    from repro.observe.tracer import TraceEvent
    from repro.simulate.machine import Machine

__all__ = ["fold_trace", "record_run"]


def record_run(machine: "Machine", wall_s: float) -> None:
    """Flush one simulation run's totals into the registry.

    Called from ``Machine.run()`` when metrics are enabled.  Event
    totals are integers fixed by the determinism contract, so they are
    stable; wall-clock rates are not.  A traced machine's trace is
    folded in too (:func:`fold_trace`).
    """
    reg = core.registry()
    if machine.tracer is not None:
        fold_trace(machine.tracer.events, reg)
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


def fold_trace(events: Sequence["TraceEvent"], reg: MetricRegistry) -> None:
    """Fold a trace into the ``orwl_*`` metrics, in emission order.

    Bridged metrics (all stable):

    * ``orwl_waits_total`` / ``orwl_wait_sim_seconds`` — one per
      ``wait`` span, histogram over the *simulated* wait duration.
    * ``orwl_wakeups_total`` — one per lock ``grant`` event.
    * ``orwl_transfers_total`` / ``orwl_transfer_bytes_total`` /
      ``orwl_transfer_bytes`` — per ``transfer`` span (byte counts are
      integral, so the totals stay exact).
    * ``orwl_runq_total`` — run-queue spans.
    * ``orwl_migrations_total`` — thread migrations.
    * ``observe_events_bridged_total`` — every event folded.
    """
    bridged = reg.counter(
        "observe_events_bridged_total",
        "Trace events folded into metrics by the bridge",
    )
    waits = reg.counter("orwl_waits_total", "ORWL wait spans observed")
    wait_hist = reg.histogram(
        "orwl_wait_sim_seconds",
        "Simulated ORWL wait durations",
        buckets=SIM_TIME_BUCKETS,
    )
    wakeups = reg.counter("orwl_wakeups_total", "ORWL lock grants (wakeups)")
    transfers = reg.counter(
        "orwl_transfers_total", "Memory-level transfer spans"
    )
    transfer_bytes = reg.counter(
        "orwl_transfer_bytes_total", "Bytes moved across memory levels"
    )
    transfer_hist = reg.histogram(
        "orwl_transfer_bytes",
        "Per-transfer payload sizes",
        buckets=SIZE_BUCKETS,
    )
    runq = reg.counter("orwl_runq_total", "Run-queue delay spans")
    migrations = reg.counter(
        "orwl_migrations_total", "Thread migrations between PUs"
    )
    bridged.inc(len(events))
    for event in events:
        kind = event.kind
        if kind == "wait":
            waits.inc()
            wait_hist.observe(event.dur)
        elif kind == "grant":
            wakeups.inc()
        elif kind == "transfer":
            transfers.inc()
            transfer_bytes.inc(int(event.nbytes))
            transfer_hist.observe(float(event.nbytes))
        elif kind == "runq":
            runq.inc()
        elif kind == "migration":
            migrations.inc()
