"""DAG frontend must compile and dispatch thousands of tasks per second.

Two throughput gates on the :mod:`repro.tasks` layer plus the identity
contract:

* **compile** — building a workload family's :class:`TaskGraph` and
  lowering it through :func:`repro.tasks.compile_graph` (dependency
  inference, per-edge locations, handle wiring).  This is frontend
  overhead a user pays before the first simulated event; it must stay
  negligible next to the simulation itself.
* **dispatch** — end-to-end :func:`repro.tasks.run_graph` (compile +
  TreeMatch placement + the full ORWL runtime) in tasks/second.  Each
  DAG task is one simulated thread with FIFO lock traffic, so this is
  the sequencing cost of the whole stack.
* **identity** — the dispatched run must be bit-identical between two
  identical traced runs (the determinism contract, asserted here so a
  throughput optimization can never buy speed with divergence).

Floors are ~5-10x below cold-run measurements on a 1-core CI box, so
they catch order-of-magnitude regressions (an accidentally quadratic
inference loop, per-task re-placement), not scheduler noise.
Best-of-N timing to shed noise on shared runners.
"""

import time

from repro.exec.cache import clear_cache
from repro.experiments.dag import build_workload
from repro.tasks import compile_graph, run_graph

SCALE = 3
TIMING_ROUNDS = 3
MIN_COMPILE_TASKS_PER_S = 300.0
MIN_DISPATCH_TASKS_PER_S = 400.0


def compile_throughput(workload: str) -> tuple[float, int]:
    """Best-of-N tasks/second through a cold build + compile.

    ``build_workload`` memoises its graphs per process, so every round
    clears the construction cache first: a warm round would time a
    dictionary lookup against the floor.
    """
    best = 0.0
    n_tasks = 0
    for _ in range(TIMING_ROUNDS):
        clear_cache()
        t0 = time.perf_counter()
        graph = build_workload(workload, scale=SCALE)
        compile_graph(graph)
        wall = time.perf_counter() - t0
        n_tasks = graph.n_tasks
        best = max(best, n_tasks / wall)
    return best, n_tasks


def test_compile_throughput(benchmark):
    # Warm imports and the numpy generator before timing.
    compile_graph(build_workload("divconq", scale=1))

    def timed() -> dict[str, float]:
        rates = {}
        for workload in ("cholesky", "bfs", "divconq"):
            rate, n_tasks = compile_throughput(workload)
            rates[workload] = rate
            benchmark.extra_info[f"{workload}_tasks"] = n_tasks
            benchmark.extra_info[f"{workload}_tasks_per_s"] = rate
        return rates

    rates = benchmark.pedantic(timed, rounds=1, iterations=1)
    for workload, rate in rates.items():
        assert rate >= MIN_COMPILE_TASKS_PER_S, (
            f"{workload} compile only {rate:,.0f} tasks/s; "
            f"floor is {MIN_COMPILE_TASKS_PER_S:,.0f}"
        )


def test_dispatch_throughput_and_identity(benchmark):
    graph = build_workload("divconq", scale=SCALE)
    # Warm the topology/distance construction cache and imports.
    run_graph(
        build_workload("divconq", scale=1),
        preset="paper-smp", preset_args=(2, 8),
    )

    def timed() -> float:
        best = 0.0
        for _ in range(TIMING_ROUNDS):
            t0 = time.perf_counter()
            run_graph(graph, preset="paper-smp", preset_args=(2, 8))
            wall = time.perf_counter() - t0
            best = max(best, graph.n_tasks / wall)
        return best

    rate = benchmark.pedantic(timed, rounds=1, iterations=1)
    benchmark.extra_info["tasks"] = graph.n_tasks
    benchmark.extra_info["tasks_per_s"] = rate

    first = run_graph(
        graph, preset="paper-smp", preset_args=(2, 8), trace=True
    )
    again = run_graph(
        graph, preset="paper-smp", preset_args=(2, 8), trace=True
    )
    benchmark.extra_info["sim_time_s"] = first.time
    assert again.fingerprint() == first.fingerprint(), (
        "two identical runs diverged on the dispatched DAG"
    )
    assert rate >= MIN_DISPATCH_TASKS_PER_S, (
        f"dispatch only {rate:,.0f} tasks/s; "
        f"floor is {MIN_DISPATCH_TASKS_PER_S:,.0f}"
    )
