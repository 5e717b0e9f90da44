"""The parallel sweep executor: determinism, crash recovery, memoization.

The contract under test (see ``repro.exec``): a sweep's results are in
input order and bit-identical no matter how many workers ran it or how
they were started; worker crashes are retried on a rebuilt pool and,
past the rebuild budget, the remainder finishes serially in-process,
each step logging a warning; ordinary task exceptions propagate
unchanged.
"""

from __future__ import annotations

import logging
import multiprocessing
import os
import pickle
import subprocess
import sys

import numpy as np
import pytest

from repro.comm import patterns
from repro.exec import (
    SweepRunner,
    Task,
    cached_distance_model,
    cached_topology,
    cached_tree_match,
    clear_cache,
    derive_seed,
    machine_inputs,
    matrix_digest,
    resolve_workers,
    topology_fingerprint,
)
from repro.exec.cache import (
    _LRUDict,
    TOPOLOGY_CACHE_CAP,
    _TOPOLOGIES,
    cache_stats,
    placement_key,
    stats_delta,
)
from repro.exec.runner import POOL_REBUILDS
from repro.experiments.fig1 import Fig1Point, Fig1Result, run_fig1
from repro.metrics import core as metrics_core
from repro.util.validate import ValidationError

# ---------------------------------------------------------------------------
# Worker payloads — module-level so the pool can pickle them by reference.
# ---------------------------------------------------------------------------


def _square(x: int) -> int:
    return x * x


def _boom(x: int) -> int:
    raise ValueError(f"boom at {x}")


def _crash_once(x: int, sentinel: str) -> int:
    """Die hard (os._exit — no exception, no cleanup) on the first call.

    The sentinel file records that the crash already happened, so the
    retried task succeeds: exactly one pool-breaking worker death.
    """
    if not os.path.exists(sentinel):
        with open(sentinel, "w") as fh:
            fh.write("crashed")
        os._exit(42)
    return x * x


def _square_in_parent(x: int, parent: int) -> tuple[int, int]:
    """Die hard in any process but *parent*; there, return ``(x², pid)``.

    Every pool attempt breaks, so only the serial fallback can finish.
    """
    if os.getpid() != parent:
        os._exit(42)
    return x * x, os.getpid()


def _pid() -> int:
    return os.getpid()


def _square_tasks(n: int) -> list[Task]:
    return [Task(_square, {"x": i}) for i in range(n)]


def _topology_pus(groups: int) -> int:
    return cached_topology("paper-smp", groups, 4).nb_pus


class TestDeriveSeed:
    def test_stable_and_hash_seed_independent(self):
        # sha-256-based: the same inputs give the same seed in any process.
        assert derive_seed(0, "fig1", "openmp", 8) == derive_seed(0, "fig1", "openmp", 8)
        assert 0 <= derive_seed(123, "a") < 2**63

    def test_distinct_keys_distinct_seeds(self):
        seeds = {
            derive_seed(0, impl, c)
            for impl in ("a", "b", "c")
            for c in (8, 16, 32)
        }
        assert len(seeds) == 9

    def test_base_seed_matters(self):
        assert derive_seed(0, "x") != derive_seed(1, "x")


class TestResolveWorkers:
    def test_auto_is_positive(self):
        assert resolve_workers(None) >= 1
        assert resolve_workers(0) == resolve_workers(None)

    def test_explicit_passthrough(self):
        assert resolve_workers(3) == 3

    def test_negative_rejected(self):
        with pytest.raises(ValidationError):
            resolve_workers(-1)


class TestSweepRunnerOrdering:
    def test_serial_matches_comprehension(self):
        out = SweepRunner(n_workers=1).map(_square_tasks(10))
        assert out == [i * i for i in range(10)]

    def test_parallel_matches_serial(self):
        serial = SweepRunner(n_workers=1).map(_square_tasks(13))
        parallel = SweepRunner(n_workers=2).map(_square_tasks(13))
        assert parallel == serial

    def test_single_task_stays_in_process(self):
        runner = SweepRunner(n_workers=4)
        assert runner.map([Task(_pid)]) == [os.getpid()]

    def test_many_tasks_run_in_pool_workers(self):
        pids = SweepRunner(n_workers=2).map([Task(_pid) for _ in range(4)])
        assert os.getpid() not in pids

    def test_chunk_indices_cover_everything(self):
        runner = SweepRunner(n_workers=3)
        chunks = runner._chunk_indices(50)
        flat = [i for c in chunks for i in c]
        assert flat == list(range(50))
        assert all(len(c) <= 5 for c in chunks)  # ceil(50 / (4 x 3))

    def test_bad_config_rejected(self):
        with pytest.raises(ValidationError):
            SweepRunner(n_workers=-1)
        with pytest.raises(ValidationError):
            Task(_square, {"x": 1}, weight=0.0)


@pytest.fixture
def metrics_on(monkeypatch):
    """A fresh, enabled global registry, restored afterwards."""
    monkeypatch.delenv(metrics_core.ENV_METRICS, raising=False)
    was = metrics_core.is_enabled()
    metrics_core.reset_registry()
    metrics_core.enable()
    yield metrics_core.registry()
    metrics_core.set_enabled(was)
    metrics_core.reset_registry()


class TestProgressEvents:
    """Progress: the ``on_point`` hook and the runner's
    ``sweep_progress_*`` gauges."""

    def test_event_envelope(self, metrics_on):
        seen = []

        def on_point():
            seen.append(metrics_on.gauge("sweep_progress_done").value)

        runner = SweepRunner(n_workers=1, on_point=on_point)
        runner.map(_square_tasks(3))
        assert seen == [1.0, 2.0, 3.0]  # the gauge is live at every point
        assert metrics_on.gauge("sweep_progress_total").value == 3.0

    def test_parallel_points_all_reported(self, metrics_on):
        calls = []
        runner = SweepRunner(n_workers=2, on_point=lambda: calls.append(1))
        runner.map(_square_tasks(6))
        assert len(calls) == 6
        assert (
            metrics_on.gauge("sweep_progress_done").value
            == metrics_on.gauge("sweep_progress_total").value
            == 6.0
        )

    def test_cache_stats_event(self):
        clear_cache()
        before = cache_stats()
        tasks = [Task(_topology_pus, {"groups": g}) for g in (1, 2, 1, 2)]
        assert SweepRunner(n_workers=1).map(tasks) == [4, 8, 4, 8]
        assert stats_delta(before) == {"topology_build": 2}


class TestErrorPaths:
    def test_task_exception_propagates_serial(self):
        with pytest.raises(ValueError, match="boom at 2"):
            SweepRunner(n_workers=1).map([Task(_boom, {"x": 2})])

    def test_task_exception_propagates_parallel(self):
        with pytest.raises(ValueError, match="boom"):
            SweepRunner(n_workers=2).map([Task(_boom, {"x": i}) for i in range(4)])

    def test_worker_crash_retried(self, tmp_path, caplog):
        """One worker death breaks the pool; the rebuilt pool completes
        the sweep."""
        sentinel = tmp_path / "crashed"
        tasks = [
            Task(_crash_once, {"x": i, "sentinel": str(sentinel)}) for i in range(4)
        ]
        with caplog.at_level(logging.WARNING, logger="repro.exec"):
            assert SweepRunner(n_workers=2).map(tasks) == [0, 1, 4, 9]
        assert sentinel.exists()
        messages = [r.getMessage() for r in caplog.records]
        assert len([m for m in messages if "rebuilding" in m]) == 1
        assert not [m for m in messages if "serially" in m]

    def test_crashes_exhaust_rebuilds_then_run_serially(self, caplog):
        parent = os.getpid()
        tasks = [Task(_square_in_parent, {"x": i, "parent": parent}) for i in range(4)]
        with caplog.at_level(logging.WARNING, logger="repro.exec"):
            out = SweepRunner(n_workers=2).map(tasks)
        assert out == [(i * i, parent) for i in range(4)]
        messages = [r.getMessage() for r in caplog.records]
        assert len([m for m in messages if "rebuilding" in m]) == POOL_REBUILDS
        assert len([m for m in messages if "serially" in m]) == 1


class TestWorkerCaches:
    def test_topology_cached_per_key(self):
        clear_cache()
        t1 = cached_topology("paper-smp", 2, 8)
        t2 = cached_topology("paper-smp", 2, 8)
        t3 = cached_topology("paper-smp", 4, 8)
        assert t1 is t2
        assert t1 is not t3

    def test_distance_model_cached_and_bound_to_topology(self):
        clear_cache()
        topo, dm = machine_inputs("paper-smp", 2, 8)
        assert dm is cached_distance_model("paper-smp", 2, 8)
        assert dm.topo is topo

    def test_cluster_costs_variant(self):
        from repro.topology.distance import CLUSTER_LEVEL_COSTS
        from repro.topology.objects import ObjType

        clear_cache()
        _, dm = machine_inputs("cluster", 2, 2, 4, costs="cluster")
        assert dm.level_costs[ObjType.MACHINE] == CLUSTER_LEVEL_COSTS[ObjType.MACHINE]

    def test_unknown_preset_rejected(self):
        with pytest.raises(ValidationError):
            cached_topology("no-such-preset")


class TestFig1TimeIndex:
    def test_first_point_wins_like_linear_scan(self):
        r = Fig1Result()
        r.points.append(Fig1Point("openmp", 8, 1.5, 1.0, 0, 0.0))
        r.points.append(Fig1Point("openmp", 8, 9.9, 1.0, 0, 0.0))
        assert r.time_of("openmp", 8) == 1.5

    def test_index_follows_appends(self):
        r = Fig1Result()
        r.points.append(Fig1Point("openmp", 8, 1.5, 1.0, 0, 0.0))
        assert r.time_of("openmp", 8) == 1.5
        r.points.append(Fig1Point("openmp", 16, 0.9, 1.0, 0, 0.0))
        assert r.time_of("openmp", 16) == 0.9

    def test_missing_point_raises_keyerror(self):
        with pytest.raises(KeyError, match="no point"):
            Fig1Result().time_of("openmp", 8)


class TestLRUBound:
    def test_evicts_least_recently_used(self):
        d = _LRUDict(2)
        d.put("a", 1)
        d.put("b", 2)
        assert d.get("a") == 1  # refresh "a" — "b" is now the LRU entry
        d.put("c", 3)
        assert "b" not in d
        assert d.get("a") == 1 and d.get("c") == 3
        assert len(d) == 2

    def test_bad_cap_rejected(self):
        with pytest.raises(ValidationError):
            _LRUDict(0)

    def test_topology_cache_stays_bounded(self):
        clear_cache()
        for i in range(TOPOLOGY_CACHE_CAP + 8):
            cached_topology("paper-smp", 1, i + 1)
        assert len(_TOPOLOGIES) == TOPOLOGY_CACHE_CAP
        clear_cache()


class TestPlacementMemo:
    """tree_match memoized by (topology, matrix, params)."""

    def _inputs(self):
        topo = cached_topology("paper-smp", 2, 8)
        cm = patterns.clustered(4, 4, intra_volume=50, inter_volume=1, seed=5)
        return topo, cm

    def test_digest_sensitive_to_single_cell(self):
        m = np.array(patterns.clustered(4, 4, seed=5).values)
        flipped = m.copy()
        flipped[2, 3] += 1.0
        assert matrix_digest(m) != matrix_digest(flipped)

    def test_placement_key_covers_all_inputs(self):
        topo, cm = self._inputs()
        other_topo = cached_topology("paper-smp", 4, 4)
        base = placement_key(topo, cm, strategy="auto")
        assert base != placement_key(other_topo, cm, strategy="auto")
        assert base != placement_key(topo, cm, strategy="greedy")
        assert topology_fingerprint(topo) == topology_fingerprint(topo)

    def test_memo_hit_equals_cold_computation(self):
        from repro.treematch import tree_match

        clear_cache()
        topo, cm = self._inputs()
        first = cached_tree_match(topo, cm)
        again = cached_tree_match(topo, cm)
        assert again is first  # in-process LRU hit
        cold = tree_match(topo, cm)
        assert cold is not first
        assert cold.mapping == first.mapping
        assert cold.hierarchy == first.hierarchy

    def test_failed_set_is_part_of_the_key(self):
        topo, cm = self._inputs()
        base = placement_key(topo, cm, strategy="auto", failed=())
        one = placement_key(topo, cm, strategy="auto", failed=(0,))
        two = placement_key(topo, cm, strategy="auto", failed=(0, 8))
        assert len({base, one, two}) == 3

    def test_post_failure_query_never_sees_pre_failure_mapping(self):
        """Regression: a failure must invalidate the memo.

        Before ``failed`` entered the digest, a service that marked a
        PU dead and re-queried would be handed the stale pre-failure
        mapping — still binding threads to the dead PU.
        """
        clear_cache()
        topo, cm = self._inputs()
        healthy = cached_tree_match(topo, cm)
        dead = healthy.mapping.pu(0)

        # The healthy mapping is hot in the LRU.
        after = cached_tree_match(topo, cm, failed=[dead])
        assert dead not in after.mapping.pu_of
        assert dead in healthy.mapping.pu_of
        # The healthy entry is still served for healthy queries.
        assert cached_tree_match(topo, cm) is healthy

    def test_failed_rejects_control_and_allowed(self):
        from repro.topology.cpuset import CpuSet
        from repro.util.validate import ValidationError

        topo, cm = self._inputs()
        with pytest.raises(ValidationError):
            cached_tree_match(topo, cm, n_control=1, failed=[0])
        with pytest.raises(ValidationError):
            cached_tree_match(
                topo, cm, allowed=CpuSet(range(4)), failed=[0]
            )


#: Pool start methods the determinism suite runs a sweep under.
START_METHODS = tuple(
    m for m in ("fork", "spawn") if m in multiprocessing.get_all_start_methods()
)

#: Child-interpreter body of the spawn sweep.  The resource tracker is
#: a separate process writing to the inherited stderr descriptor, which
#: pytest's capture cannot see; a child interpreter's stderr it can.
_SPAWN_SWEEP = """
import pickle, sys
from repro.exec import SweepRunner
from repro.experiments.fig1 import run_fig1

common = pickle.loads(sys.stdin.buffer.read())
runner = SweepRunner(n_workers=2, mp_context="spawn")
sys.stdout.buffer.write(pickle.dumps(run_fig1(runner=runner, **common).points))
"""


def _spawn_sweep(common: dict) -> tuple[list, str]:
    """Run ``run_fig1(**common)`` on a 2-worker spawn pool in a child
    interpreter; returns its points and its stderr."""
    import repro

    src = os.path.dirname(os.path.dirname(repro.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, "-c", _SPAWN_SWEEP],
        input=pickle.dumps(common),
        capture_output=True,
        env=env,
        timeout=600,
    )
    stderr = proc.stderr.decode("utf-8", "replace")
    assert proc.returncode == 0, stderr
    return pickle.loads(proc.stdout), stderr


class TestSerialParallelDeterminism:
    """The headline guarantee: neither worker count nor start method
    changes the science."""

    @pytest.fixture(scope="class")
    def sweeps(self):
        common = dict(
            core_counts=(8, 16), iterations=2, n=1024, seed=7,
            fingerprint=True,
        )
        serial = run_fig1(n_workers=1, **common).points
        pooled, stderr = {}, {}
        for method in START_METHODS:
            if method == "spawn":
                pooled[method], stderr[method] = _spawn_sweep(common)
            else:
                runner = SweepRunner(n_workers=2, mp_context=method)
                pooled[method] = run_fig1(runner=runner, **common).points
        return serial, pooled, stderr

    def test_same_point_order(self, sweeps):
        serial, pooled, _ = sweeps
        for points in pooled.values():
            assert [(p.implementation, p.n_cores) for p in serial] == [
                (p.implementation, p.n_cores) for p in points
            ]

    def test_metrics_bit_identical(self, sweeps):
        serial, pooled, _ = sweeps
        for method, points in pooled.items():
            for a, b in zip(serial, points):
                # == on floats: bit-exact, no tolerance
                assert a.time == b.time, method
                assert a.local_fraction == b.local_fraction, method
                assert a.migrations == b.migrations, method
                assert a.remote_bytes == b.remote_bytes, method

    def test_determinism_fingerprints_identical(self, sweeps):
        serial, pooled, _ = sweeps
        for method, points in pooled.items():
            for a, b in zip(serial, points):
                assert a.fingerprint and a.fingerprint == b.fingerprint, method

    def test_spawn_sweep_prints_no_traceback(self, sweeps):
        _, _, stderr = sweeps
        if "spawn" not in stderr:
            pytest.skip("no spawn start method on this platform")
        assert "Traceback" not in stderr["spawn"], stderr["spawn"]
