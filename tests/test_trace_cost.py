"""An enabled tracer stays cheap: few Python calls per traced activity.

Tracing records one row per machine activity through the tracer's
bound ``append``; the :class:`~repro.observe.tracer.TraceEvent` objects
are built only when the stream is read.  This case counts the Python
calls of a traced and an untraced run of the same LK23 point with
``sys.setprofile`` and bounds the difference per trace event, so a
return to per-event probes or per-event object construction fails on
any host; the wall-clock gate of ``benchmarks/bench_trace_overhead.py``
tells such a change apart only on a quiet one.

The point is that gate's configuration.  Measured on CPython 3.11
only: 1.02 extra calls per event with one ``Machine._trace`` call per
activity (plus the scheduler hook of each ``sched`` row), and
5.01 when each activity also built an event object and fanned it out
to probes, and the engine called a tracer hook per step.  Other
versions count calls differently (3.12 inlines comprehensions), so the
bound leaves room.
"""

from __future__ import annotations

import sys

from repro.core.api import run_lk23

#: ``benchmarks/bench_trace_overhead.py``'s configuration.
CONFIG = dict(
    policy="treematch", topology="small-numa", n=4096, iterations=8, seed=0
)
#: Measured 1.02.  A restored per-step engine hook adds 0.63 per event
#: here (2,743 engine events for 4,378 trace events) and a restored
#: event object per activity adds 1, so either one fails.
MAX_EXTRA_CALLS_PER_EVENT = 1.5


def _python_calls(trace: bool):
    """(Python calls made by one run, its result)."""
    count = 0

    def profile(frame, event, arg):
        nonlocal count
        if event == "call":
            count += 1

    sys.setprofile(profile)
    try:
        result = run_lk23(trace=trace, **CONFIG)
    finally:
        sys.setprofile(None)
    return count, result


def test_traced_run_makes_few_extra_calls_per_event():
    # Warm both paths first: imports and per-process caches are paid once.
    run_lk23(trace=False, **CONFIG)
    run_lk23(trace=True, **CONFIG)
    untraced, _ = _python_calls(trace=False)
    traced, result = _python_calls(trace=True)
    n_events = len(result.trace)
    assert n_events > 1000
    extra = (traced - untraced) / n_events
    assert extra <= MAX_EXTRA_CALLS_PER_EVENT, (
        f"{extra:.2f} extra Python calls per trace event "
        f"({traced} traced, {untraced} untraced, {n_events} events)"
    )
