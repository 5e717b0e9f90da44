"""DAG differential suite: determinism and liveness of repro.tasks.

Three layers pin the frontend's contract:

* **property layer** — hypothesis generates random task graphs (random
  region sizes, read/write sets, explicit dependency edges, mixed task
  costs) and every one must (a) compile and run to completion — no
  deadlock, which holds by construction because spawn order is
  topological and only READ acquisitions block — and (b) respect every
  declared dependency in the simulated schedule
  (``ready[consumer] >= published[producer]``).
* **engine layer** — every random DAG run must keep every conservation
  law of :mod:`repro.observe.invariants`, and a second identical run
  must reproduce its simulated time and run fingerprint bit for bit.
* **sweep layer** — the E7 experiment must be bit-identical between
  serial and multi-process sweeps and between cold and warm-cache
  reruns (the content-addressed point store serving every point).

Example counts are CI-bounded; crank ``max_examples`` locally when
touching the frontend or the compiler.
"""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro.experiments.dag import run_dag
from repro.observe import capture
from repro.tasks import TaskGraph, run_graph, topological_check

REGION_SIZES = st.sampled_from([0.0, 64.0, 1024.0, 65536.0])
TASK_FLOPS = st.sampled_from([0.0, 1e4, 1e6])


@st.composite
def task_graphs(draw) -> TaskGraph:
    """A random DAG: regions, read/write sets, explicit control edges."""
    n_regions = draw(st.integers(1, 5))
    sizes = [draw(REGION_SIZES) for _ in range(n_regions)]
    n_tasks = draw(st.integers(2, 10))
    g = TaskGraph("rand")
    regions = [g.region(f"r{k}", sizes[k]) for k in range(n_regions)]
    t = g.space("T")
    region_idx = st.sets(st.integers(0, n_regions - 1), max_size=3)
    for i in range(n_tasks):
        reads = [regions[k] for k in sorted(draw(region_idx))]
        writes = [regions[k] for k in sorted(draw(region_idx))]
        deps = []
        if i > 0:
            deps = [
                t[j]
                for j in sorted(draw(st.sets(st.integers(0, i - 1), max_size=3)))
            ]
        g.spawn(
            t[i],
            flops=draw(TASK_FLOPS),
            reads=reads,
            writes=writes,
            deps=deps,
        )
    return g


class TestRandomDagProperties:
    @settings(max_examples=60, deadline=None)
    @given(graph=task_graphs(), seed=st.integers(0, 3))
    def test_never_deadlocks_and_respects_dependencies(self, graph, seed):
        res = run_graph(graph, seed=seed, record_times=True)
        # every task completed: the liveness half of the contract
        assert len(res.times.done) == graph.n_tasks
        # every edge respected: the safety half
        assert res.schedule_ok(graph)
        assert topological_check(res.times.completion_order(), graph) is None

    @settings(max_examples=30, deadline=None)
    @given(graph=task_graphs())
    def test_compiled_program_validates(self, graph):
        from repro.tasks import compile_graph

        prog = compile_graph(graph)
        prog.validate()
        assert len(prog.tasks) == graph.n_tasks

    @settings(max_examples=30, deadline=None)
    @given(graph=task_graphs(), seed=st.integers(0, 3))
    def test_laws_hold_and_reruns_identical(self, graph, seed):
        with capture() as cap:
            first = run_graph(graph, seed=seed, trace=True)
        # The run keeps every conservation law (raises on violation).
        assert len(cap.check_all()) == 1
        again = run_graph(graph, seed=seed, trace=True)
        assert again.time == first.time
        assert again.fingerprint() == first.fingerprint()

    @settings(max_examples=20, deadline=None)
    @given(graph=task_graphs())
    def test_digest_is_injective_on_reruns(self, graph):
        # same structure -> same digest, and the matrix digest keys the
        # placement cache by that structure
        assert graph.digest() == graph.digest()
        from repro.exec.cache import matrix_digest
        from repro.tasks import dag_matrix

        if graph.n_edges:
            assert matrix_digest(dag_matrix(graph)) == matrix_digest(
                dag_matrix(graph)
            )


class TestSweepIdentity:
    WORKLOADS = ("cholesky", "bfs")
    KW = dict(
        workloads=WORKLOADS,
        policies=("bind", "nobind"),
        n_cores=16,
        scale=1,
        seeds=2,
        fingerprint=True,
    )

    @staticmethod
    def _flat(result):
        return [
            (p.workload, p.policy, p.time, p.fingerprint, p.graph_digest)
            for reps in result.replicates.values()
            for p in reps
        ]

    def test_serial_equals_parallel_workers(self):
        serial = run_dag(n_workers=1, **self.KW)
        parallel = run_dag(n_workers=2, **self.KW)
        assert self._flat(serial) == self._flat(parallel)

    def test_warm_cache_rerun_is_bit_identical(self):
        # the rerun reuses the graphs and programs the first run built
        from repro.exec.cache import cache_stats, clear_cache, stats_delta

        clear_cache()
        cold = run_dag(n_workers=1, **self.KW)
        before = cache_stats()
        warm = run_dag(n_workers=1, **self.KW)
        assert "graph_build" not in stats_delta(before)
        assert self._flat(cold) == self._flat(warm)

    def test_graph_seed_changes_the_digest_and_points(self):
        first = run_dag(n_workers=1, graph_seed=0, **self.KW)
        second = run_dag(n_workers=1, graph_seed=1, **self.KW)

        def bfs(result):
            return [row for row in self._flat(result) if row[0] == "bfs"]

        assert {row[4] for row in bfs(first)}.isdisjoint(
            {row[4] for row in bfs(second)}
        )
        assert all(
            a[3] != b[3] for a, b in zip(bfs(first), bfs(second))
        )
