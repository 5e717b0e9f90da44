"""The placement service and fault-aware re-mapping, proven trustworthy.

Four pillars:

* **Differential**: `remap_incremental` against the full-TreeMatch-on-
  restricted-topology reference (`remap_full`) — same hard guarantees
  (no dead PU, capacity bound), quality within ``QUALITY_BOUND``, and
  byte-determinism across repeated calls and fault-event orderings.
* **Properties** (hypothesis): random failure/drain sequences on
  generated topologies never map a thread to a dead PU, never exceed
  per-PU capacity, and never move a thread whose repair domain kept
  all its PUs (stability).
* **Fault injection**: a query that raises mid-remap leaves every cache
  tier uncorrupted and the next query succeeds; concurrent same-key
  queries compute exactly once (single-flight), asserted via
  ``cache_stats``.
* **Cache-digest regression**: a post-failure query can never be
  answered with a pre-failure cached mapping (the failed set is part
  of the placement key; see also TestPlacementMemo in test_exec.py).
"""

from __future__ import annotations

import asyncio
import gc
import weakref
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.comm import patterns
from repro.comm.matrix import CommMatrix
from repro.exec import cache as cache_module
from repro.exec.cache import (
    cache_stats,
    cached_tree_match,
    clear_cache,
    matrix_digest,
    reset_cache_stats,
    stats_delta,
)
from repro.observe.tracer import TraceEvent
from repro.placement import make_policy
from repro.placement.service import CommSketch, PlacementService
from repro.topology import presets, restrict_without
from repro.topology.objects import ObjType
from repro.topology.tree import TopologyError
from repro.treematch import (
    cost,
    remap_full,
    remap_incremental,
    repair_domains,
    tree_match,
)
from repro.util.validate import ValidationError

#: Documented quality bound: the incremental repair's hop-bytes may be
#: at most this factor of the full restrict-and-rerun reference.  The
#: worst observed case (losing a whole NUMA node, where full re-run
#: re-optimizes globally but incremental deliberately leaves survivors
#: untouched) is ~1.6x; 2.0 leaves margin without hiding regressions.
QUALITY_BOUND = 2.0


def _random_matrix(order: int, seed: int = 3) -> CommMatrix:
    rng = np.random.default_rng(seed)
    m = rng.random((order, order)) * 100.0
    m = m + m.T
    np.fill_diagonal(m, 0.0)
    return CommMatrix(m)


def _assert_valid(mapping, topo, dead, n_threads):
    """The two hard invariants every repair must satisfy."""
    survivors = topo.nb_pus - len(dead)
    bound = [mapping.pu(t) for t in range(n_threads) if mapping.pu(t) >= 0]
    for pu in bound:
        assert pu not in dead
    cap = max(1, -(-len(bound) // survivors))  # ceil
    assert not bound or Counter(bound).most_common(1)[0][1] <= cap


# ---------------------------------------------------------------------------
# Differential: incremental vs the full reference
# ---------------------------------------------------------------------------


class TestDifferential:
    SCENARIOS = [
        # (topology factory, matrix factory, failed sets to test)
        (
            lambda: presets.small_numa(2, 4),
            lambda: patterns.clustered(2, 4, intra_volume=100, inter_volume=1, seed=7),
            [(0,), (0, 1), (0, 4), (0, 1, 2, 3)],
        ),
        (
            lambda: presets.paper_smp(4, 8),
            lambda: patterns.stencil_2d(4, 8, edge_volume=100.0),
            [(0,), (0, 8), (0, 1, 2, 3, 4, 5, 6, 7)],
        ),
        (
            lambda: presets.paper_smp(4, 8),
            lambda: _random_matrix(32),
            [(5,), (5, 17, 29)],
        ),
    ]

    @pytest.mark.parametrize("scenario", range(len(SCENARIOS)))
    def test_never_places_on_dead_pu_and_respects_capacity(self, scenario):
        make_topo, make_matrix, failed_sets = self.SCENARIOS[scenario]
        topo, matrix = make_topo(), make_matrix()
        base = tree_match(topo, matrix)
        for failed in failed_sets:
            inc = remap_incremental(topo, matrix, base, failed=failed)
            full = remap_full(topo, matrix, failed=failed)
            for r in (inc, full):
                _assert_valid(r.mapping, topo, set(failed), matrix.order)
                assert r.mapping.max_load() <= r.capacity

    @pytest.mark.parametrize("scenario", range(len(SCENARIOS)))
    def test_quality_within_documented_bound(self, scenario):
        make_topo, make_matrix, failed_sets = self.SCENARIOS[scenario]
        topo, matrix = make_topo(), make_matrix()
        base = tree_match(topo, matrix)
        for failed in failed_sets:
            inc = remap_incremental(topo, matrix, base, failed=failed)
            full = remap_full(topo, matrix, failed=failed)
            hb_inc = cost.hop_bytes(inc.mapping, matrix, topo)
            hb_full = cost.hop_bytes(full.mapping, matrix, topo)
            if hb_full > 0:
                assert hb_inc <= QUALITY_BOUND * hb_full, (
                    f"failed={failed}: incremental {hb_inc:.0f} vs "
                    f"full {hb_full:.0f} exceeds {QUALITY_BOUND}x"
                )

    def test_full_on_balanced_restriction_is_exactly_treematch(
        self, paper_topo_small, stencil_matrix
    ):
        # Losing whole NUMA nodes keeps the tree balanced: the reference
        # must literally be tree_match on the restricted topology.
        node = paper_topo_small.objects_by_type(ObjType.NUMANODE)[0]
        failed = tuple(node.cpuset)
        full = remap_full(paper_topo_small, stencil_matrix, failed=failed)
        assert full.method == "treematch-restricted"
        restricted = restrict_without(paper_topo_small, failed)
        direct = tree_match(restricted, stencil_matrix)
        assert full.mapping.pu_of == direct.mapping.restricted(
            stencil_matrix.order
        ).pu_of

    def test_ragged_restriction_uses_capacity_fallback(
        self, small_topo, clustered_matrix
    ):
        # A single lost PU unbalances the tree; Algorithm 1 cannot run.
        restricted = restrict_without(small_topo, (0,))
        with pytest.raises(TopologyError):
            restricted.arities()
        full = remap_full(small_topo, clustered_matrix, failed=(0,))
        assert full.method == "capacity-greedy"
        _assert_valid(full.mapping, small_topo, {0}, clustered_matrix.order)

    def test_byte_deterministic_across_repeated_calls(
        self, paper_topo_small, stencil_matrix
    ):
        base = tree_match(paper_topo_small, stencil_matrix)
        results = [
            remap_incremental(
                paper_topo_small, stencil_matrix, base, failed=(0, 8, 17)
            )
            for _ in range(3)
        ]
        assert len({r.mapping.pu_of for r in results}) == 1
        assert len({r.moved for r in results}) == 1
        fulls = [
            remap_full(paper_topo_small, stencil_matrix, failed=(0, 8, 17))
            for _ in range(3)
        ]
        assert len({r.mapping.pu_of for r in fulls}) == 1

    def test_byte_deterministic_across_event_orderings(
        self, paper_topo_small, stencil_matrix
    ):
        """The service's answer depends on the cumulative dead set only.

        Three services observe the same three failures in different
        interleavings (including restore-then-refail noise); once the
        cumulative sets agree, the mappings are byte-identical.
        """
        failures = (3, 11, 25)
        orderings = [
            [(f,) for f in failures],
            [(f,) for f in reversed(failures)],
            [failures],  # all at once
        ]
        finals = []
        for order in orderings:
            svc = PlacementService(paper_topo_small)
            svc.query_sync(stencil_matrix)
            for batch in order:
                svc.fail(*batch)
                svc.query_sync(stencil_matrix)
            # Noise: a restore immediately undone must not matter.
            svc.restore(failures[0])
            svc.fail(failures[0])
            finals.append(svc.query_sync(stencil_matrix).mapping.pu_of)
        assert len(set(finals)) == 1

    def test_unchanged_without_failures(self, small_topo, clustered_matrix):
        base = tree_match(small_topo, clustered_matrix)
        r = remap_incremental(small_topo, clustered_matrix, base)
        assert r.method == "unchanged"
        assert r.mapping.pu_of == base.mapping.restricted(
            clustered_matrix.order
        ).pu_of
        assert r.moved == ()

    def test_all_pus_dead_is_an_error(self, small_topo, clustered_matrix):
        base = tree_match(small_topo, clustered_matrix)
        everyone = tuple(range(8))
        with pytest.raises(ValidationError):
            remap_incremental(small_topo, clustered_matrix, base, failed=everyone)
        with pytest.raises(ValidationError):
            remap_full(small_topo, clustered_matrix, failed=everyone)

    def test_unknown_pu_rejected(self, small_topo, clustered_matrix):
        base = tree_match(small_topo, clustered_matrix)
        with pytest.raises(ValidationError):
            remap_incremental(small_topo, clustered_matrix, base, failed=(99,))


# ---------------------------------------------------------------------------
# Hypothesis properties: random topologies, random fault sequences
# ---------------------------------------------------------------------------

topo_params = st.tuples(
    st.integers(min_value=1, max_value=3),   # NUMA nodes
    st.integers(min_value=2, max_value=4),   # cores per node
)


@settings(max_examples=40, deadline=None)
@given(
    params=topo_params,
    seed=st.integers(min_value=0, max_value=2**20),
    data=st.data(),
)
def test_random_fault_sequences_keep_invariants(params, seed, data):
    nodes, cores = params
    topo = presets.small_numa(nodes, cores)
    n_pus = nodes * cores
    order = data.draw(
        st.integers(min_value=2, max_value=2 * n_pus), label="order"
    )
    matrix = _random_matrix(order, seed=seed)
    base = tree_match(topo, matrix)

    # A cumulative fault sequence leaving at least one survivor.
    max_dead = n_pus - 1
    sequence = data.draw(
        st.lists(
            st.integers(min_value=0, max_value=n_pus - 1),
            min_size=1,
            max_size=max(1, max_dead),
        ),
        label="fault sequence",
    )
    domains = repair_domains(topo)
    domain_of_pu = {}
    for di, obj in enumerate(domains):
        for os_index in obj.cpuset:
            domain_of_pu[os_index] = di

    dead: set[int] = set()
    for pu in sequence:
        if len(dead | {pu}) > max_dead:
            break
        dead.add(pu)
        split = len(dead) // 2
        as_failed = tuple(sorted(dead))[:split]
        as_drained = tuple(sorted(dead))[split:]
        r = remap_incremental(
            topo, matrix, base, failed=as_failed, drained=as_drained
        )

        # 1. never on a dead PU  2. never over capacity
        _assert_valid(r.mapping, topo, dead, order)
        assert r.mapping.max_load() <= r.capacity

        # 3. stability: a thread moves only if its repair domain lost a PU
        affected = {domain_of_pu[p] for p in dead}
        for t in range(order):
            before = base.mapping.pu(t)
            if before < 0:
                continue
            if domain_of_pu[before] not in affected:
                assert r.mapping.pu(t) == before, (
                    f"thread {t} moved out of untouched domain "
                    f"{domain_of_pu[before]}"
                )


@settings(max_examples=25, deadline=None)
@given(
    params=topo_params,
    seed=st.integers(min_value=0, max_value=2**20),
    n_dead=st.integers(min_value=1, max_value=5),
)
def test_full_reference_keeps_invariants(params, seed, n_dead):
    nodes, cores = params
    topo = presets.small_numa(nodes, cores)
    n_pus = nodes * cores
    if n_dead >= n_pus:
        n_dead = n_pus - 1
    if n_dead < 1:
        return
    order = min(2 * n_pus, 3 + seed % (2 * n_pus))
    if order < 2:
        order = 2
    matrix = _random_matrix(order, seed=seed)
    rng = np.random.default_rng(seed)
    dead = tuple(sorted(rng.choice(n_pus, size=n_dead, replace=False).tolist()))
    r = remap_full(topo, matrix, failed=dead)
    _assert_valid(r.mapping, topo, set(dead), order)
    assert r.mapping.max_load() <= r.capacity


# ---------------------------------------------------------------------------
# Fault injection: the service loop under errors and concurrency
# ---------------------------------------------------------------------------


class _Boom(RuntimeError):
    pass


class TestFaultInjection:
    def test_query_raising_mid_remap_leaves_cache_clean(
        self, small_topo, clustered_matrix, monkeypatch
    ):
        clear_cache()
        reset_cache_stats()
        svc = PlacementService(small_topo)
        svc.fail(0)

        calls = {"n": 0}
        import repro.placement.service as service_mod

        real = service_mod.remap_incremental

        def exploding(*args, **kwargs):
            calls["n"] += 1
            if calls["n"] == 1:
                raise _Boom("mid-remap failure")
            return real(*args, **kwargs)

        monkeypatch.setattr(service_mod, "remap_incremental", exploding)

        before = cache_stats()
        with pytest.raises(_Boom):
            svc.query_sync(clustered_matrix)
        # No partial decision was memoized by the failed query...
        assert svc.stats()["memo_entries"] == 0
        # ...and the next identical query simply succeeds.
        decision = svc.query_sync(clustered_matrix)
        assert decision.method == "incremental"
        assert 0 not in decision.mapping.pu_of
        delta = stats_delta(before)
        assert delta.get("service_query") == 2
        assert svc.stats()["inflight"] == 0

    def test_async_query_raising_propagates_and_recovers(
        self, small_topo, clustered_matrix, monkeypatch
    ):
        clear_cache()
        reset_cache_stats()
        svc = PlacementService(small_topo)

        import repro.placement.service as service_mod

        calls = {"n": 0}
        real = service_mod.cached_tree_match

        def exploding(*args, **kwargs):
            calls["n"] += 1
            if calls["n"] == 1:
                raise _Boom("cold computation died")
            return real(*args, **kwargs)

        monkeypatch.setattr(service_mod, "cached_tree_match", exploding)

        async def scenario():
            with pytest.raises(_Boom):
                await svc.query(clustered_matrix)
            assert svc.stats()["inflight"] == 0
            return await svc.query(clustered_matrix)

        decision = asyncio.run(scenario())
        assert decision.method == "treematch"
        assert svc.stats()["inflight"] == 0

    def test_concurrent_same_key_queries_compute_exactly_once(
        self, paper_topo_small, stencil_matrix
    ):
        clear_cache()
        reset_cache_stats()
        svc = PlacementService(paper_topo_small)
        before = cache_stats()

        async def hammer():
            return await asyncio.gather(
                *[svc.query(stencil_matrix) for _ in range(32)]
            )

        decisions = asyncio.run(hammer())
        assert len({d.mapping.pu_of for d in decisions}) == 1
        delta = stats_delta(before)
        # Exactly one TreeMatch run; everyone else piggybacked.
        assert delta.get("placement_miss") == 1
        assert "placement_hit" not in delta or delta["placement_hit"] == 0
        assert delta.get("service_single_flight") == 31
        assert svc.stats()["inflight"] == 0

    def test_sequential_warm_queries_are_memo_hits(
        self, paper_topo_small, stencil_matrix
    ):
        clear_cache()
        reset_cache_stats()
        svc = PlacementService(paper_topo_small)
        cold = svc.query_sync(stencil_matrix)
        before = cache_stats()
        warm = svc.query_sync(stencil_matrix)
        delta = stats_delta(before)
        assert warm.cached and not cold.cached
        assert warm.mapping.pu_of == cold.mapping.pu_of
        assert delta.get("service_memo_hit") == 1
        assert "placement_miss" not in delta


# ---------------------------------------------------------------------------
# Cache-digest regression (service level; tiers covered in test_exec.py)
# ---------------------------------------------------------------------------


class TestFailureInvalidatesCache:
    def test_post_failure_query_never_returns_pre_failure_mapping(
        self, paper_topo_small, stencil_matrix
    ):
        clear_cache()
        svc = PlacementService(paper_topo_small)
        healthy = svc.query_sync(stencil_matrix)
        victim = healthy.mapping.pu(0)
        assert victim in healthy.mapping.pu_of

        svc.fail(victim)
        for mode in ("auto", "incremental", "full"):
            after = svc.query_sync(stencil_matrix, mode=mode)
            assert after.key != healthy.key
            assert victim not in after.mapping.pu_of

        # Restoring the PU serves the healthy mapping again, unchanged.
        svc.restore(victim)
        again = svc.query_sync(stencil_matrix)
        assert again.mapping.pu_of == healthy.mapping.pu_of

    def test_failed_and_drained_key_separately(
        self, small_topo, clustered_matrix
    ):
        svc = PlacementService(small_topo)
        svc.fail(0)
        failed_key = svc.query_sync(clustered_matrix).key
        svc.restore(0)
        svc.drain(0)
        drained_key = svc.query_sync(clustered_matrix).key
        assert failed_key != drained_key


class TestMatrixDigestOnce:
    """The service hashes a :class:`CommMatrix` once and keeps none alive
    but the active one."""

    def test_miss_repair_and_warm_queries_hash_once(
        self, paper_topo_small, monkeypatch
    ):
        calls = []
        real = cache_module._hash_matrix

        def counting(values, labels):
            calls.append(values.shape)
            return real(values, labels)

        monkeypatch.setattr(cache_module, "_hash_matrix", counting)
        clear_cache()
        matrix = _random_matrix(32, seed=21)
        svc = PlacementService(paper_topo_small)
        miss = svc.query_sync(matrix)
        svc.fail(miss.mapping.pu(0))
        repair = svc.query_sync(matrix)
        svc.restore(miss.mapping.pu(0))
        warm = [svc.query_sync(matrix) for _ in range(100)]
        assert not miss.cached and not repair.cached and repair.moved
        assert all(d.cached for d in warm)
        assert calls == [(32, 32)]

    def test_decision_digest_matches_on_hit_and_miss(self, paper_topo_small):
        clear_cache()
        matrix = _random_matrix(32, seed=22)
        svc = PlacementService(paper_topo_small)
        miss = svc.query_sync(matrix)
        hit = svc.query_sync(matrix)
        assert not miss.cached and hit.cached
        assert miss.matrix_digest == hit.matrix_digest == matrix_digest(matrix)

    def test_service_retains_only_the_active_matrix(self, paper_topo_small):
        clear_cache()
        svc = PlacementService(paper_topo_small)
        refs = []
        for seed in range(20):
            matrix = _random_matrix(32, seed=100 + seed)
            refs.append(weakref.ref(matrix))
            svc.query_sync(matrix)
            if seed % 5 == 4:
                svc.fail(seed)
                svc.query_sync(matrix)
                svc.restore(seed)
        del matrix
        gc.collect()
        alive = [r() for r in refs if r() is not None]
        assert alive == [svc._active_matrix]


# ---------------------------------------------------------------------------
# The sketch and phase-triggered re-placement
# ---------------------------------------------------------------------------


class TestCommSketch:
    def test_record_and_matrix(self):
        sketch = CommSketch(4, window=16)
        sketch.record(0, 1, 100.0)
        sketch.record(2, 3, 50.0)
        m = sketch.matrix()
        assert m.values[0, 1] == m.values[1, 0] == 100.0
        assert m.values[2, 3] == m.values[3, 2] == 50.0
        assert m.values[0, 2] == 0.0

    def test_window_eviction_is_exact(self):
        sketch = CommSketch(2, window=3)
        for _ in range(10):
            sketch.record(0, 1, 7.0)
        assert sketch.n_events == 3
        assert sketch.total_recorded == 10
        assert sketch.matrix().values[0, 1] == 21.0

    def test_self_and_nonpositive_records_ignored(self):
        sketch = CommSketch(3)
        sketch.record(1, 1, 100.0)
        sketch.record(0, 1, 0.0)
        sketch.record(0, 1, -5.0)
        assert sketch.n_events == 0
        with pytest.raises(ValidationError):
            sketch.record(0, 7, 1.0)

    def test_observe_splits_volume_across_node_peers(self, small_topo):
        # Threads 1 and 2 both live on NUMA node 1's PUs; a transfer
        # into thread 0 from node 1 splits evenly between them.
        from repro.treematch.mapping import Mapping

        mapping = Mapping((0, 4, 5), ("a", "b", "c"), policy="test")
        node_of = {p.os_index: small_topo.numa_node_of(p.os_index).logical_index
                   for p in small_topo.pus()}
        sketch = CommSketch(3)
        event = TraceEvent(seq=0, kind="transfer", ts=0.0, dur=1.0, tid=0,
                           nbytes=100.0, detail="from-node:1")
        added = sketch.observe(event, mapping, node_of)
        assert added == 2
        m = sketch.matrix()
        assert m.values[0, 1] == 50.0
        assert m.values[0, 2] == 50.0

    def test_observe_ignores_irrelevant_events(self, small_topo):
        from repro.treematch.mapping import Mapping

        mapping = Mapping((0, 1), ("a", "b"), policy="test")
        node_of = {p.os_index: 0 for p in small_topo.pus()}
        sketch = CommSketch(2)
        for event in (
            TraceEvent(seq=0, kind="compute", ts=0.0, tid=0, nbytes=5.0),
            TraceEvent(seq=1, kind="transfer", ts=0.0, tid=0, nbytes=0.0),
            TraceEvent(seq=2, kind="transfer", ts=0.0, tid=9, nbytes=5.0,
                       detail="from-node:0"),
            TraceEvent(seq=3, kind="transfer", ts=0.0, tid=0, nbytes=5.0,
                       detail="weird"),
        ):
            assert sketch.observe(event, mapping, node_of) == 0


class TestPhaseReplacement:
    def _drifted_events(self, svc, decision, n=50):
        """Synthesize transfers matching an anti-phase pattern."""
        node_of = svc._node_of_pu
        events = []
        order = decision.mapping.n_threads
        for k in range(n):
            t = k % (order // 2)
            peer = t + order // 2
            pu = decision.mapping.pu(peer)
            events.append(TraceEvent(
                seq=k, kind="transfer", ts=float(k), dur=0.1, tid=t,
                nbytes=1000.0, detail=f"from-node:{node_of[pu]}",
            ))
        return events

    def test_phase_shift_triggers_replacement(self, small_topo):
        a = np.zeros((8, 8))
        a[:4, :4] = 10.0
        a[4:, 4:] = 10.0
        np.fill_diagonal(a, 0.0)
        svc = PlacementService(small_topo, min_events=8, phase_threshold=0.9)
        decision = svc.query_sync(CommMatrix(a))
        assert svc.maybe_replace() is None  # no events yet

        svc.ingest(self._drifted_events(svc, decision))
        corr = svc.phase_shift()
        assert corr is not None and corr < 0.9
        replaced = svc.maybe_replace()
        assert replaced is not None
        assert replaced.epoch == decision.epoch + 1
        # The new decision resets the phase reference.
        assert svc.maybe_replace() is None

    def test_stable_phase_does_not_replace(self, small_topo):
        # Thread 0 talks to 1–3; TreeMatch co-locates the four on one
        # node, so node-level attribution (volume split across the
        # producer node's peers) reconstructs exactly this pattern.
        a = np.zeros((8, 8))
        a[0, 1:4] = a[1:4, 0] = 10.0
        svc = PlacementService(small_topo, min_events=4, phase_threshold=0.75)
        decision = svc.query_sync(CommMatrix(a))
        node_of = svc._node_of_pu
        pu = decision.mapping.pu(1)
        events = [
            TraceEvent(seq=k, kind="transfer", ts=float(k), dur=0.1, tid=0,
                       nbytes=1000.0, detail=f"from-node:{node_of[pu]}")
            for k in range(20)
        ]
        svc.ingest(events)
        shift = svc.phase_shift()
        assert shift is not None and shift >= 0.75
        assert svc.maybe_replace() is None

    def test_ingest_requires_active_decision(self, small_topo):
        svc = PlacementService(small_topo)
        with pytest.raises(ValidationError):
            svc.ingest([])


# ---------------------------------------------------------------------------
# Service plumbing: modes, policy, epoch bookkeeping
# ---------------------------------------------------------------------------


class TestServicePlumbing:
    def test_mode_validation(self, small_topo, clustered_matrix):
        svc = PlacementService(small_topo)
        with pytest.raises(ValidationError):
            svc.query_sync(clustered_matrix, mode="nonsense")

    def test_unknown_pu_rejected(self, small_topo):
        svc = PlacementService(small_topo)
        with pytest.raises(ValidationError):
            svc.fail(123)

    def test_epoch_advances_on_fault_events(self, small_topo):
        svc = PlacementService(small_topo)
        assert svc.epoch == 0
        svc.fail(0)
        svc.drain(1)
        svc.restore(0)
        assert svc.epoch == 3
        assert svc.failed == ()
        assert svc.drained == (1,)

    def test_service_policy_places_like_treematch_when_healthy(
        self, paper_topo_small, stencil_matrix
    ):
        clear_cache()
        service_policy = make_policy("service")
        treematch_policy = make_policy("treematch")
        a = service_policy.place(
            paper_topo_small, stencil_matrix.order, matrix=stencil_matrix
        )
        b = treematch_policy.place(
            paper_topo_small, stencil_matrix.order, matrix=stencil_matrix
        )
        assert a.pu_of == b.pu_of
        assert a.policy == "service"

    def test_service_policy_honors_injected_faults(
        self, paper_topo_small, stencil_matrix
    ):
        policy = make_policy("service")
        healthy = policy.place(
            paper_topo_small, stencil_matrix.order, matrix=stencil_matrix
        )
        victim = healthy.pu(0)
        policy.service_for(paper_topo_small).fail(victim)
        repaired = policy.place(
            paper_topo_small, stencil_matrix.order, matrix=stencil_matrix
        )
        assert victim not in repaired.pu_of
        assert policy.last_decision.method == "incremental"

    def test_service_policy_requires_matrix(self, small_topo):
        policy = make_policy("service")
        with pytest.raises(ValidationError):
            policy.place(small_topo, 4)

    def test_stats_shape(self, small_topo, clustered_matrix):
        svc = PlacementService(small_topo)
        svc.query_sync(clustered_matrix)
        stats = svc.stats()
        assert set(stats) == {
            "topology", "epoch", "failed", "drained",
            "memo_entries", "inflight", "sketch_events",
        }
        assert stats["memo_entries"] == 1
