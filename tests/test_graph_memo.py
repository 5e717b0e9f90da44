"""The per-process E7 task-graph memo and the frozen graphs it hands out.

:func:`repro.experiments.dag.build_workload` returns one shared, frozen
:class:`TaskGraph` per ``(workload, scale, graph_seed, parts)``; the
graph memoises its digest and :func:`dag_matrix` memoises its matrix on
it.  Every case here checks the memo against a cold rebuild: sharing a
graph must change no digest, matrix or simulated result.
"""

from __future__ import annotations

import pytest

from repro.exec.cache import cache_stats, clear_cache, matrix_digest
from repro.experiments.dag import POLICIES, WORKLOADS, build_workload, run_dag_point
from repro.tasks.compile import compile_graph, dag_matrix
from repro.tasks.graph import TaskGraph
from repro.tasks.run import run_graph
from repro.util.validate import ValidationError


@pytest.fixture(autouse=True)
def _cold_cache():
    clear_cache()
    yield
    clear_cache()


def _small_graph() -> TaskGraph:
    g = TaskGraph("tiny")
    a = g.region("a", 64.0)
    T = g.space("T")
    g.spawn(T[0], flops=1e6, writes=[a])
    g.spawn(T[1], flops=1e6, reads=[a])
    return g


class TestFreeze:
    def test_spawn_and_region_raise_once_frozen(self):
        g = _small_graph()
        assert g.freeze() is g
        assert g.frozen
        with pytest.raises(ValidationError, match="frozen"):
            g.spawn("late", flops=1.0)
        with pytest.raises(ValidationError, match="frozen"):
            g.region("b", 8.0)
        assert g.n_tasks == 2 and set(g.regions) == {"a"}

    def test_unfrozen_graph_does_not_memoise(self):
        g = _small_graph()
        before = g.digest()
        assert dag_matrix(g) is not dag_matrix(g)
        g.spawn("T[2]", flops=1.0, deps=["T[1]"])
        assert g.digest() != before

    def test_frozen_graph_memoises_digest_and_matrix(self):
        g = _small_graph().freeze()
        assert g.digest() == g._hash_structure()
        assert dag_matrix(g) is dag_matrix(g)


class TestBuildWorkloadMemo:
    @pytest.mark.parametrize("workload", WORKLOADS)
    def test_same_key_same_object(self, workload):
        before = cache_stats().get("graph_build", 0)
        g = build_workload(workload, scale=1, graph_seed=2)
        assert g.frozen
        assert build_workload(workload, scale=1, graph_seed=2) is g
        assert cache_stats().get("graph_build", 0) - before == 1
        assert build_workload(workload, scale=2, graph_seed=2) is not g

    def test_clear_cache_gives_a_fresh_graph(self):
        g = build_workload("bfs", scale=1, graph_seed=3)
        clear_cache()
        fresh = build_workload("bfs", scale=1, graph_seed=3)
        assert fresh is not g
        assert fresh.digest() == g.digest()

    def test_bad_names_rejected_before_the_cache(self):
        before = cache_stats().get("graph_build", 0)
        with pytest.raises(ValidationError, match="unknown workload"):
            build_workload("nope")
        with pytest.raises(ValidationError, match="scale"):
            build_workload("bfs", scale=0)
        assert cache_stats().get("graph_build", 0) == before

    @pytest.mark.parametrize("workload", WORKLOADS)
    def test_memoised_digest_and_matrix_equal_cold_rebuild(self, workload):
        warm = build_workload(workload, scale=2, graph_seed=1)
        warm_digest = warm.digest()
        warm_matrix = dag_matrix(warm)
        assert warm.digest() is warm_digest
        assert dag_matrix(warm) is warm_matrix
        clear_cache()
        cold = build_workload(workload, scale=2, graph_seed=1)
        assert cold is not warm
        assert cold._hash_structure() == warm_digest
        cold_matrix = dag_matrix(cold)
        assert cold_matrix is not warm_matrix
        assert cold_matrix == warm_matrix
        assert cold_matrix.labels == warm_matrix.labels
        assert matrix_digest(cold_matrix) == matrix_digest(warm_matrix)


def _row(**kw):
    return [
        run_dag_point(
            workload, policy, n_cores=16, cores_per_socket=8, scale=1,
            graph_seed=1, seed=5, fingerprint=True, **kw,
        )
        for workload in WORKLOADS
        for policy in POLICIES
    ]


class TestRowsUnchangedByTheMemo:
    def test_warm_row_equals_cold_points(self):
        warm = _row()
        warm_again = _row()
        cold = []
        for workload in WORKLOADS:
            for policy in POLICIES:
                clear_cache()
                cold.append(run_dag_point(
                    workload, policy, n_cores=16, cores_per_socket=8, scale=1,
                    graph_seed=1, seed=5, fingerprint=True,
                ))
        assert warm == cold
        assert warm_again == cold
        assert all(p.fingerprint for p in cold)

    @pytest.mark.parametrize("workload", WORKLOADS)
    def test_compile_and_run_leave_the_graph_untouched(self, workload):
        graph = build_workload(workload, scale=1, graph_seed=4)
        memo = graph.digest()
        compile_graph(graph)
        res = run_graph(
            graph, preset="paper-smp", preset_args=(2, 8), record_times=True,
        )
        assert res.schedule_ok(graph)
        assert graph._hash_structure() == memo == res.graph_digest
