"""Disabled metrics cost the same calls after an enabled run as before.

``benchmarks/bench_metrics_overhead.py`` gates the same contract on
wall time: every instrumentation site guards with ``is_enabled()``, so
once collection is switched off again, a run pays nothing for the
metrics an enabled run created.  That gate times best-of-5 runs of a
10 ms point, and host noise is larger than its 5 % margin.  This case
is its exact twin: the same point, counted in Python and C calls with
``sys.setprofile`` instead of timed, before and after an enabled run.
A site that skips its guard once the registry is warm adds calls to
the second count and fails here on any host.

Measured on CPython 3.11: 27,611 Python and 33,955 C calls on both
sides.  The counts differ across versions; their equality does not.
"""

from __future__ import annotations

from repro.experiments.fig1 import run_point
from repro.metrics import core
from tests.conftest import count_calls

#: ``benchmarks/bench_metrics_overhead.py``'s point.
POINT = dict(implementation="orwl-bind", n_cores=16, iterations=4, n=2048, seed=0)


def test_disabled_metrics_calls_equal_before_and_after_an_enabled_run():
    was_enabled = core.is_enabled()
    try:
        core.set_enabled(False)
        run_point(**POINT)  # warm: imports and per-process caches
        before = count_calls(run_point, **POINT)
        core.enable()
        run_point(**POINT)
        core.disable()
        after = count_calls(run_point, **POINT)
    finally:
        core.set_enabled(was_enabled)
        core.reset_registry()
    assert before.result.time == after.result.time
    assert (after.python, after.c) == (before.python, before.c), (
        f"disabled run after an enabled one: {after.python} Python and "
        f"{after.c} C calls, against {before.python} and {before.c} before"
    )
