"""Disabled metrics must cost <= 1.05x on the paper preset.

The ``repro.metrics`` design contract is near-zero cost when off: every
instrumentation site guards with ``is_enabled()`` (one module-flag read
and a branch), and the engine itself carries no metrics hook — the
per-run totals are flushed once, after the drain.  This benchmark pins
that contract
on the hot path the telemetry wraps — a Figure-1 sweep point on the
paper's machine shape — by timing the identical workload with
collection disabled both before the metrics import graph is touched
and after an enabled run has warmed every registry path, then gating
the ratio at 1.05x.

The enabled run's wall is also reported (as ``extra_info``, not a
gate: collection cost is allowed to be visible, just not the disabled
baseline).  Best-of-N timing to shed scheduler noise on shared CI
boxes.
"""

import time

from repro.experiments.fig1 import run_point
from repro.metrics import core

TIMING_ROUNDS = 5
ITERATIONS = 4
N_CORES = 16
MAX_DISABLED_OVERHEAD = 1.05


def sweep_point_wall() -> float:
    """Best-of-N wall seconds for one paper-preset Figure-1 point."""
    best = float("inf")
    for _ in range(TIMING_ROUNDS):
        t0 = time.perf_counter()
        run_point(
            implementation="orwl-bind",
            n_cores=N_CORES,
            iterations=ITERATIONS,
            n=2048,
            seed=0,
        )
        best = min(best, time.perf_counter() - t0)
    return best


def test_disabled_metrics_overhead(benchmark):
    was_enabled = core.is_enabled()
    try:
        core.set_enabled(False)
        sweep_point_wall()  # warm caches/bytecode before any timing
        baseline_wall = sweep_point_wall()

        # An enabled run creates every metric and warms the bridge paths;
        # the disabled re-run afterwards must not have gotten slower.
        core.enable()
        t0 = time.perf_counter()
        run_point(
            implementation="orwl-bind",
            n_cores=N_CORES,
            iterations=ITERATIONS,
            n=2048,
            seed=0,
        )
        enabled_wall = time.perf_counter() - t0

        core.disable()
        disabled_wall = benchmark.pedantic(
            sweep_point_wall, rounds=1, iterations=1
        )
    finally:
        core.set_enabled(was_enabled)
        core.reset_registry()

    overhead = disabled_wall / baseline_wall
    benchmark.extra_info["baseline_wall_s"] = baseline_wall
    benchmark.extra_info["disabled_wall_s"] = disabled_wall
    benchmark.extra_info["enabled_wall_s"] = enabled_wall
    benchmark.extra_info["disabled_overhead"] = overhead
    benchmark.extra_info["enabled_overhead"] = enabled_wall / baseline_wall
    assert overhead <= MAX_DISABLED_OVERHEAD, (
        f"disabled metrics cost {overhead:.3f}x the baseline "
        f"(budget {MAX_DISABLED_OVERHEAD}x)"
    )
