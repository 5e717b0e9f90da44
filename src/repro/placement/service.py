"""Placement-as-a-service: online, fault-aware, phase-adaptive mapping.

The paper runs TreeMatch once, offline, at launch.  Its own conclusion
— locality decisions must track the machine — points at a long-lived
*service*: a process that answers "where should these threads go?"
continuously, staying correct as PUs fail or drain and as the
workload's communication pattern drifts between phases.  This module
is that service, built entirely from pieces the repo already trusts:

* **Queries** are keyed by (topology fingerprint, comm-matrix digest,
  dead-PU set, parameters) and served through the
  :func:`repro.exec.cache.cached_tree_match` memo, so a warm decision
  is a dictionary lookup, not an Algorithm 1 run.
* **Failures/drains** (:meth:`PlacementService.fail` /
  :meth:`~PlacementService.drain`) re-map incrementally via
  :func:`repro.treematch.remap.remap_incremental`: only repair domains
  that lost a PU are re-placed, survivors keep their bindings, and the
  repair always starts from the pristine healthy base with the
  *cumulative* dead set — so any interleaving of the same fault events
  yields byte-identical mappings.  ``mode="full"`` forces the
  restrict-and-rerun reference (:func:`repro.treematch.remap.remap_full`
  through the memo) for differential testing.
* **Phase changes** are detected by a :class:`CommSketch` — a sliding
  window over live :mod:`repro.observe` transfer events — whose matrix
  is compared (Pearson, via
  :func:`repro.placement.affinity.matrix_correlation`) against the
  matrix the current decision was computed from;
  :meth:`PlacementService.maybe_replace` re-places when the
  correlation falls below the threshold.

Concurrency: :meth:`PlacementService.query` is asyncio-native with
**single-flight** semantics — concurrent queries for the same key
share one computation (asserted via ``cache_stats`` in the tests); a
query that raises leaves no partial state in either the service or the
underlying cache tiers.

See ``docs/placement-service.md`` for the full API and failure
semantics, and ``repro.tools.place`` for the CLI front end.
"""

from __future__ import annotations

import time
from collections import OrderedDict, deque
from dataclasses import dataclass
from functools import partial
from typing import TYPE_CHECKING, Iterable, Optional

import numpy as np

from repro.comm.matrix import CommMatrix
from repro.exec.cache import (
    bump_stat,
    cached_tree_match,
    matrix_digest,
    placement_key,
    topology_fingerprint,
)
from repro.metrics import core as metrics_core
from repro.perf.numa import producer_node_of
from repro.placement.affinity import matrix_correlation
from repro.topology.distance import DistanceModel
from repro.topology.tree import Topology
from repro.treematch.mapping import Mapping
from repro.treematch.remap import remap_incremental
from repro.util.validate import ValidationError

if TYPE_CHECKING:
    import asyncio

__all__ = ["CommSketch", "Decision", "PlacementService"]


# ---------------------------------------------------------------------------
# Sliding communication sketch
# ---------------------------------------------------------------------------


class CommSketch:
    """A sliding-window communication-matrix estimate from live events.

    Holds the last *window* pairwise transfer records and exposes their
    sum as a :class:`CommMatrix`.  Two feeding paths:

    * :meth:`record` — the exact primitive: "thread *i* and thread *j*
      exchanged *v* bytes".
    * :meth:`observe` — the adapter for :class:`repro.observe.TraceEvent`
      streams.  Simulator transfer events carry the *consumer* tid and
      the producer's NUMA node (``detail="from-node:N"``) but not the
      producer tid, so the volume is split evenly across the threads
      the current mapping places on that node — the best attribution
      available without changing the (golden-pinned) trace schema.

    The matrix is rebuilt from the window on demand rather than kept as
    a running sum, so eviction never accumulates floating-point drift:
    the same window contents always produce the bit-identical matrix.
    """

    def __init__(self, order: int, window: int = 4096) -> None:
        if order < 1:
            raise ValidationError(f"sketch order must be >= 1, got {order}")
        if window < 1:
            raise ValidationError(f"sketch window must be >= 1, got {window}")
        self.order = order
        self.window = window
        self._events: deque[tuple[int, int, float]] = deque(maxlen=window)
        self._recorded = 0

    @property
    def n_events(self) -> int:
        """Pairwise records currently inside the window."""
        return len(self._events)

    @property
    def total_recorded(self) -> int:
        """Pairwise records ever accepted (including evicted ones)."""
        return self._recorded

    def record(self, i: int, j: int, nbytes: float) -> None:
        """Account *nbytes* between threads *i* and *j*."""
        if not (0 <= i < self.order and 0 <= j < self.order):
            raise ValidationError(
                f"thread pair ({i}, {j}) outside sketch order {self.order}"
            )
        if i == j or nbytes <= 0:
            return
        self._events.append((i, j, float(nbytes)))
        self._recorded += 1

    def observe(self, event, mapping: Mapping, node_of_pu: dict[int, int]) -> int:
        """Feed one :class:`~repro.observe.tracer.TraceEvent`.

        *mapping* is the placement active when the event was produced;
        *node_of_pu* maps PU os_index → NUMA logical index (the id
        space of the event's ``from-node`` detail).  Returns the number
        of pairwise records added (0 for non-transfer events and
        transfers whose producer node hosts no mapped peer).
        """
        if event.kind != "transfer" or event.nbytes <= 0:
            return 0
        consumer = event.tid
        if not (0 <= consumer < self.order):
            return 0
        producer_node = producer_node_of(event)
        if producer_node < 0:
            return 0
        peers = [
            t
            for t in range(min(self.order, mapping.n_threads))
            if t != consumer
            and mapping.pu(t) >= 0
            and node_of_pu.get(mapping.pu(t), 0) == producer_node
        ]
        if not peers:
            return 0
        share = float(event.nbytes) / len(peers)
        for t in peers:
            self.record(consumer, t, share)
        return len(peers)

    def matrix(self) -> CommMatrix:
        """The window's communication matrix (symmetric, zero-diagonal)."""
        m = np.zeros((self.order, self.order), dtype=np.float64)
        for i, j, v in self._events:
            m[i, j] += v
            m[j, i] += v
        return CommMatrix(m)

    def correlation(self, reference: CommMatrix) -> float:
        """Pearson correlation of the sketch against *reference*."""
        return matrix_correlation(self.matrix(), reference)

    def clear(self) -> None:
        self._events.clear()


# ---------------------------------------------------------------------------
# Decisions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Decision:
    """One answer from the service: a mapping plus its provenance.

    ``key`` is the full content address (topology ⊕ matrix ⊕ dead set ⊕
    params ⊕ mode); two decisions with equal keys are guaranteed
    byte-identical mappings.
    """

    mapping: Mapping
    key: str
    method: str
    epoch: int
    failed: tuple[int, ...]
    drained: tuple[int, ...]
    moved: tuple[int, ...] = ()
    matrix_digest: str = ""
    latency_s: float = 0.0
    cached: bool = False


# ---------------------------------------------------------------------------
# The service
# ---------------------------------------------------------------------------


class PlacementService:
    """Serve placement queries for one topology, staying correct online.

    Parameters
    ----------
    topo:
        The healthy machine.  Failed PUs are *marked*, never removed
        from this tree.
    strategy, refine:
        TreeMatch parameters used for every decision.
    window, min_events, phase_threshold:
        Phase detection knobs: the sketch holds *window* pairwise
        records; :meth:`maybe_replace` only acts once at least
        *min_events* records arrived since the current decision, and
        only when the sketch-vs-decision correlation drops below
        *phase_threshold*.
    memo_cap:
        Service-level decision memo size (keys → :class:`Decision`).

    Thread-safety: synchronous methods mutate plain dicts under the
    GIL; the asyncio front end (:meth:`query`) adds single-flight
    de-duplication so concurrent identical queries compute once.
    """

    def __init__(
        self,
        topo: Topology,
        *,
        strategy: str = "auto",
        refine: bool = True,
        window: int = 4096,
        min_events: int = 64,
        phase_threshold: float = 0.75,
        memo_cap: int = 512,
    ) -> None:
        if not 0.0 <= phase_threshold <= 1.0:
            raise ValidationError(
                f"phase_threshold must be in [0, 1], got {phase_threshold}"
            )
        self.topo = topo
        self.strategy = strategy
        self.refine = refine
        self.window = window
        self.min_events = min_events
        self.phase_threshold = phase_threshold
        self._fingerprint = topology_fingerprint(topo)
        self._valid_pus = frozenset(pu.os_index for pu in topo.pus())
        self._failed: set[int] = set()
        self._drained: set[int] = set()
        self._epoch = 0
        self._model: Optional[DistanceModel] = None
        self._memo: OrderedDict[str, Decision] = OrderedDict()
        self._memo_cap = memo_cap
        self._inflight: dict[str, asyncio.Future] = {}
        # Phase state: the matrix the current decision was computed
        # from, the sketch fed since, and the decision itself.
        self._sketch: Optional[CommSketch] = None
        self._active_matrix: Optional[CommMatrix] = None
        self._active_decision: Optional[Decision] = None
        self._node_of_pu: dict[int, int] = {}
        for pu in topo.pus():
            node = topo.numa_node_of(pu.os_index)
            self._node_of_pu[pu.os_index] = (
                node.logical_index if node is not None else 0
            )
        # Liveness state for health() and the serve CLI.
        self._started_monotonic = time.monotonic()
        self._queries_served = 0
        self._last_error: Optional[str] = None
        self._last_error_age_t: Optional[float] = None

    # -- telemetry ----------------------------------------------------------

    def _metric_query(self, latency_s: float, *, warm: bool) -> None:
        """Record one answered query (when metrics are enabled).

        Wall-clock latency histograms are host-dependent, hence
        unstable; the query/hit/miss counters are parent-process only
        (the service lives in one process), so they stay stable.
        """
        reg = metrics_core.registry()
        reg.counter("placement_queries_total", "Placement queries answered").inc()
        if warm:
            reg.counter(
                "placement_memo_hits_total", "Queries served from the memo"
            ).inc()
            hist = reg.histogram(
                "placement_warm_seconds",
                "Warm (memoized) query latency",
                stable=False,
            )
        else:
            reg.counter(
                "placement_memo_misses_total", "Queries that computed a mapping"
            ).inc()
            hist = reg.histogram(
                "placement_cold_seconds",
                "Cold (computed) query latency",
                stable=False,
            )
        hist.observe(latency_s)

    def record_error(self, exc: BaseException) -> None:
        """Remember the most recent failure for :meth:`health`."""
        self._last_error = f"{type(exc).__name__}: {exc}"
        self._last_error_age_t = time.monotonic()

    def health(self) -> dict:
        """Liveness summary: uptime, queries served, last error.

        ``status`` is ``"ok"`` until an error is recorded via
        :meth:`record_error` (``"degraded"`` afterwards) — the payload
        ``repro.tools.place serve``'s ``health`` verb and the HTTP
        ``/healthz`` endpoint return.
        """
        now = time.monotonic()
        return {
            "status": "ok" if self._last_error is None else "degraded",
            "uptime_s": now - self._started_monotonic,
            "queries_served": self._queries_served,
            "epoch": self._epoch,
            "failed": list(self.failed),
            "drained": list(self.drained),
            "memo_entries": len(self._memo),
            "last_error": self._last_error,
            "last_error_age_s": (
                None
                if self._last_error_age_t is None
                else now - self._last_error_age_t
            ),
        }

    def slo(self) -> dict:
        """Derived p50/p95/p99 SLO lines from the latency histograms.

        Quantiles are bucket-resolution upper bounds (exponential
        buckets, so within 2x of the true value).  Empty when metrics
        are disabled or no queries were recorded yet.
        """
        if not metrics_core.is_enabled():
            return {}
        reg = metrics_core.registry()
        out: dict = {}
        for tier, name in (
            ("warm", "placement_warm_seconds"),
            ("cold", "placement_cold_seconds"),
        ):
            hist = reg.get(name)
            if hist is None or hist.count == 0:  # type: ignore[union-attr]
                continue
            out[tier] = {
                "count": hist.count,  # type: ignore[union-attr]
                "p50_s": hist.quantile(0.5),  # type: ignore[union-attr]
                "p95_s": hist.quantile(0.95),  # type: ignore[union-attr]
                "p99_s": hist.quantile(0.99),  # type: ignore[union-attr]
            }
        return out

    # -- fault state --------------------------------------------------------

    @property
    def failed(self) -> tuple[int, ...]:
        return tuple(sorted(self._failed))

    @property
    def drained(self) -> tuple[int, ...]:
        return tuple(sorted(self._drained))

    @property
    def epoch(self) -> int:
        """Bumped on every fault/restore/phase event; decisions carry it."""
        return self._epoch

    def _check_pus(self, pus: Iterable[int]) -> list[int]:
        out = [int(p) for p in pus]
        for p in out:
            if p not in self._valid_pus:
                raise ValidationError(f"unknown PU os_index {p}")
        return out

    def fail(self, *pus: int) -> None:
        """Mark PUs as failed (cumulative; idempotent)."""
        for p in self._check_pus(pus):
            self._failed.add(p)
        self._epoch += 1
        bump_stat("service_fault")
        if metrics_core.is_enabled():
            metrics_core.registry().counter(
                "placement_faults_total", "fail()/drain() events"
            ).inc()

    def drain(self, *pus: int) -> None:
        """Mark PUs as administratively drained (cumulative; idempotent)."""
        for p in self._check_pus(pus):
            self._drained.add(p)
        self._epoch += 1
        bump_stat("service_fault")
        if metrics_core.is_enabled():
            metrics_core.registry().counter(
                "placement_faults_total", "fail()/drain() events"
            ).inc()

    def restore(self, *pus: int) -> None:
        """Return PUs to service (inverse of fail/drain)."""
        for p in self._check_pus(pus):
            self._failed.discard(p)
            self._drained.discard(p)
        self._epoch += 1

    # -- queries ------------------------------------------------------------

    def _dead(self) -> tuple[int, ...]:
        return tuple(sorted(self._failed | self._drained))

    def _key(self, matrix: CommMatrix, mode: str) -> str:
        return placement_key(
            self.topo,
            matrix,
            strategy=str(self.strategy),
            refine=bool(self.refine),
            failed=self.failed,
            drained=self.drained,
            mode=mode,
        )

    def _resolve_mode(self, mode: str) -> str:
        if mode not in ("auto", "full", "incremental"):
            raise ValidationError(
                f"mode must be auto|full|incremental, got {mode!r}"
            )
        if not self._dead():
            return "healthy"
        return "incremental" if mode in ("auto", "incremental") else "full"

    def query_sync(self, matrix: CommMatrix, *, mode: str = "auto") -> Decision:
        """Answer one placement query synchronously.

        *mode* selects the repair path under failures: ``"incremental"``
        (default via ``"auto"``) repairs the pristine healthy base with
        :func:`~repro.treematch.remap.remap_incremental`; ``"full"``
        re-runs TreeMatch on the restricted topology (the differential
        reference).  With no dead PUs both are the plain memoized
        TreeMatch.

        The decision depends only on (topology, matrix, cumulative dead
        set, parameters) — never on the order faults were observed in —
        so repeated queries are byte-deterministic.
        """
        t0 = time.perf_counter()
        bump_stat("service_query")
        self._queries_served += 1
        resolved = self._resolve_mode(mode)
        key = self._key(matrix, resolved)
        hit = self._memo.get(key)
        if hit is not None:
            self._memo.move_to_end(key)
            bump_stat("service_memo_hit")
            decision = Decision(
                mapping=hit.mapping,
                key=hit.key,
                method=hit.method,
                epoch=self._epoch,
                failed=hit.failed,
                drained=hit.drained,
                moved=hit.moved,
                matrix_digest=hit.matrix_digest,
                latency_s=time.perf_counter() - t0,
                cached=True,
            )
            self._activate(matrix, decision)
            if metrics_core.is_enabled():
                self._metric_query(decision.latency_s, warm=True)
            return decision

        failed_t, drained_t = self.failed, self.drained
        moved: tuple[int, ...] = ()
        if resolved == "healthy":
            result = cached_tree_match(
                self.topo, matrix, strategy=self.strategy, refine=self.refine
            )
            mapping = result.mapping.restricted(matrix.order)
            method = "treematch"
        elif resolved == "full":
            result = cached_tree_match(
                self.topo,
                matrix,
                strategy=self.strategy,
                refine=self.refine,
                failed=self._dead(),
            )
            mapping = result.mapping.restricted(matrix.order)
            method = "full-remap"
        else:
            base = cached_tree_match(
                self.topo, matrix, strategy=self.strategy, refine=self.refine
            )
            if self._model is None:
                self._model = DistanceModel(self.topo)
            repair = remap_incremental(
                self.topo,
                matrix,
                base.mapping.restricted(matrix.order),
                failed=failed_t,
                drained=drained_t,
                model=self._model,
            )
            mapping = repair.mapping
            method = repair.method
            moved = repair.moved

        decision = Decision(
            mapping=mapping,
            key=key,
            method=method,
            epoch=self._epoch,
            failed=failed_t,
            drained=drained_t,
            moved=moved,
            matrix_digest=matrix_digest(matrix),
            latency_s=time.perf_counter() - t0,
            cached=False,
        )
        self._memo[key] = decision
        while len(self._memo) > self._memo_cap:
            self._memo.popitem(last=False)
        self._activate(matrix, decision)
        if metrics_core.is_enabled():
            self._metric_query(decision.latency_s, warm=False)
        return decision

    async def query(self, matrix: CommMatrix, *, mode: str = "auto") -> Decision:
        """Async front end of :meth:`query_sync` with single-flight.

        Concurrent queries for the same key await one computation (the
        duplicates are counted under ``service_single_flight`` in
        :func:`repro.exec.cache.cache_stats`).  If the computation
        raises, every waiter sees the exception, the in-flight slot is
        released, and neither the service memo nor the underlying cache
        tiers retain partial state — the next query recomputes cleanly.
        """
        from asyncio import get_running_loop, shield

        loop = get_running_loop()
        key = self._key(matrix, self._resolve_mode(mode))
        existing = self._inflight.get(key)
        if existing is not None:
            bump_stat("service_single_flight")
            if metrics_core.is_enabled():
                metrics_core.registry().counter(
                    "placement_single_flight_waits_total",
                    "Queries that awaited an identical in-flight computation",
                ).inc()
            return await shield(existing)
        future: asyncio.Future = loop.create_future()
        self._inflight[key] = future
        try:
            decision = await loop.run_in_executor(
                None, partial(self.query_sync, matrix, mode=mode)
            )
        except BaseException as exc:
            self.record_error(exc)
            if not future.cancelled():
                future.set_exception(exc)
                future.exception()  # mark retrieved: waiters re-raise below
            raise
        else:
            if not future.cancelled():
                future.set_result(decision)
            return decision
        finally:
            self._inflight.pop(key, None)

    # -- phase detection ----------------------------------------------------

    def _activate(self, matrix: CommMatrix, decision: Decision) -> None:
        """Make *decision* current and restart the sketch against it."""
        self._active_matrix = matrix
        self._active_decision = decision
        if self._sketch is None or self._sketch.order != matrix.order:
            self._sketch = CommSketch(matrix.order, window=self.window)
        else:
            self._sketch.clear()

    def ingest(self, events: Iterable) -> int:
        """Feed live :mod:`repro.observe` events into the phase sketch.

        Requires an active decision (the sketch attributes producer
        volume through the current mapping).  Returns the number of
        pairwise records added.
        """
        if self._sketch is None or self._active_decision is None:
            raise ValidationError("no active decision; query before ingesting")
        added = 0
        mapping = self._active_decision.mapping
        for event in events:
            added += self._sketch.observe(event, mapping, self._node_of_pu)
        return added

    def phase_shift(self) -> Optional[float]:
        """Sketch-vs-active-matrix correlation, or ``None`` if too early.

        ``None`` until *min_events* pairwise records accumulated; a
        value below ``phase_threshold`` means the live pattern no
        longer resembles the matrix the current placement was computed
        for.
        """
        if (
            self._sketch is None
            or self._active_matrix is None
            or self._sketch.n_events < self.min_events
        ):
            return None
        return self._sketch.correlation(self._active_matrix)

    def maybe_replace(self) -> Optional[Decision]:
        """Re-place if the workload changed phase; else ``None``.

        When the correlation is below ``phase_threshold``, the sketch
        matrix becomes the new query matrix: the service re-queries
        (through every cache tier, honoring the current dead set), the
        epoch advances, and the fresh decision becomes the phase
        reference.
        """
        corr = self.phase_shift()
        if corr is None or corr >= self.phase_threshold:
            return None
        assert self._sketch is not None
        bump_stat("service_phase_replace")
        if metrics_core.is_enabled():
            metrics_core.registry().counter(
                "placement_phase_replacements_total",
                "Re-placements triggered by phase drift",
            ).inc()
        self._epoch += 1
        return self.query_sync(self._sketch.matrix())

    # -- introspection ------------------------------------------------------

    def stats(self) -> dict:
        """Service-side counters and state for reports and the CLI."""
        return {
            "topology": self._fingerprint[:16],
            "epoch": self._epoch,
            "failed": list(self.failed),
            "drained": list(self.drained),
            "memo_entries": len(self._memo),
            "inflight": len(self._inflight),
            "sketch_events": 0 if self._sketch is None else self._sketch.n_events,
        }
