"""Span indexing: the shared substrate of every ``repro.perf`` analysis.

All of :mod:`repro.perf` consumes the same raw material — the events
of one traced run.  :class:`TraceIndex` digests an event stream once
into the views every analysis needs (per-thread ordered spans, the
global end-sorted order, makespan, the time ledgers, the per-kind,
per-level and per-PU totals, the migration penalties) so critical-path
extraction, attribution, counter groups, traffic matrices and the
invariant checker never re-scan the stream themselves.

The index relies on two properties the tracer guarantees (and
:class:`repro.observe.invariants.InvariantChecker` audits):

* per thread, spans tile ``[0, done_at]`` exactly — a thread is always
  computing, transferring, lock-waiting, or run-queued;
* events are emitted in causal order: a span is emitted no later than
  any event it caused (``seq`` is a topological order of the run).
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field
from typing import Iterable, Optional, Sequence

from repro.observe.tracer import SPAN_KINDS, TraceEvent

#: Span kinds that represent *work* (occupying a PU making progress);
#: ``wait`` (parked on a lock) and ``runq`` (queued behind another
#: thread) are elapsed time but not work.
WORK_KINDS = frozenset({"compute", "transfer"})


def bucket_of(ev: TraceEvent) -> str:
    """The attribution bucket of a span: its kind, with transfers keyed
    by the sharing level the bytes crossed (``transfer:NUMANODE``)."""
    if ev.kind == "transfer" and ev.level:
        return f"transfer:{ev.level}"
    return ev.kind


@dataclass
class TraceIndex:
    """One traced run, digested for analysis.

    Every total is summed in emission order, so it is bit-identical to
    a sequential rescan of the stream.

    Attributes
    ----------
    spans:
        All span events in emission (= causal) order.
    by_thread:
        ``tid -> spans of that thread`` in program order; per-thread
        span starts are non-decreasing.
    makespan:
        Latest span end (0.0 for an empty stream) — the simulated
        processing time as witnessed by the trace.
    serial_time:
        Total span-seconds across all threads (busy + blocked); running
        the whole schedule on one PU could not beat it.
    work_time:
        Total compute + transfer seconds — the work the run performed.
    n_events:
        Size of the raw stream the index was built from.
    count_by_kind, dur_by_kind:
        ``kind -> number of events / summed dur``, instants included
        (a ``migration``'s dur is its penalty).
    bytes_by_level, secs_by_level:
        ``level -> transfer bytes / transfer seconds``; a transfer
        without a level is keyed ``"?"``.
    busy_by_pu:
        ``pu -> work seconds`` of the spans placed on a PU.
    penalty_of:
        ``seq -> migration penalty seconds`` charged into that work
        span.  The simulator adds a migrated thread's pending refill
        penalty to the duration of its *next* compute or transfer.
    """

    spans: tuple[TraceEvent, ...] = ()
    by_thread: dict[int, list[TraceEvent]] = field(default_factory=dict)
    makespan: float = 0.0
    serial_time: float = 0.0
    work_time: float = 0.0
    n_events: int = 0
    count_by_kind: dict[str, int] = field(default_factory=dict)
    dur_by_kind: dict[str, float] = field(default_factory=dict)
    bytes_by_level: dict[str, float] = field(default_factory=dict)
    secs_by_level: dict[str, float] = field(default_factory=dict)
    busy_by_pu: dict[int, float] = field(default_factory=dict)
    penalty_of: dict[int, float] = field(default_factory=dict)
    #: spans sorted by ``(end, seq)`` (for releaser lookups).
    _by_end: list[TraceEvent] = field(default_factory=list, repr=False)
    _end_keys: list[float] = field(default_factory=list, repr=False)

    @classmethod
    def of(cls, events: Iterable[TraceEvent]) -> "TraceIndex":
        spans: list[TraceEvent] = []
        ends: list[float] = []
        by_thread: dict[int, list[TraceEvent]] = {}
        makespan = 0.0
        serial = 0.0
        work = 0.0
        count: dict[str, int] = {}
        durs: dict[str, float] = {}
        nbytes: dict[str, float] = {}
        secs: dict[str, float] = {}
        busy: dict[int, float] = {}
        penalty_of: dict[int, float] = {}
        pending: dict[int, float] = {}  # tid -> penalty not yet charged
        for ev in events:
            kind = ev.kind
            dur = ev.dur
            count[kind] = count.get(kind, 0) + 1
            durs[kind] = durs.get(kind, 0.0) + dur
            if kind not in SPAN_KINDS:
                if kind == "migration":
                    pending[ev.tid] = pending.get(ev.tid, 0.0) + dur
                continue
            spans.append(ev)
            by_thread.setdefault(ev.tid, []).append(ev)
            end = ev.ts + dur
            ends.append(end)
            if end > makespan:
                makespan = end
            serial += dur
            if kind not in WORK_KINDS:
                continue
            work += dur
            if ev.pu >= 0:
                busy[ev.pu] = busy.get(ev.pu, 0.0) + dur
            if kind == "transfer":
                level = ev.level or "?"
                nbytes[level] = nbytes.get(level, 0.0) + ev.nbytes
                secs[level] = secs.get(level, 0.0) + dur
            if pending:
                pen = pending.pop(ev.tid, 0.0)
                if pen > 0.0:
                    penalty_of[ev.seq] = min(pen, dur)
        # Order by (end, seq) with two stable sorts on plain keys: far
        # cheaper than one sort keyed by tuples.
        order = sorted(range(len(spans)), key=[e.seq for e in spans].__getitem__)
        order.sort(key=ends.__getitem__)
        return cls(
            spans=tuple(spans),
            by_thread=by_thread,
            makespan=makespan,
            serial_time=serial,
            work_time=work,
            n_events=sum(count.values()),
            count_by_kind=count,
            dur_by_kind=durs,
            bytes_by_level=nbytes,
            secs_by_level=secs,
            busy_by_pu=busy,
            penalty_of=penalty_of,
            _by_end=[spans[i] for i in order],
            _end_keys=[ends[i] for i in order],
        )

    # -- lookups ------------------------------------------------------------

    def last_ending_before(
        self,
        t: float,
        exclude_tid: Optional[int] = None,
        require_dur: float = 0.0,
        prefer_work: bool = False,
        max_scan: int = 128,
    ) -> Optional[TraceEvent]:
        """The span with the greatest ``(end, seq)`` such that
        ``end <= t``, optionally excluding one thread, zero-duration
        spans, and (when *prefer_work*) preferring non-wait spans.

        Scans at most *max_scan* candidates leftward from the cut so a
        degenerate stream cannot turn one lookup quadratic; returns the
        best candidate seen (or ``None``).
        """
        i = bisect_right(self._end_keys, t) - 1
        fallback: Optional[TraceEvent] = None
        scanned = 0
        while i >= 0 and scanned < max_scan:
            ev = self._by_end[i]
            i -= 1
            scanned += 1
            if exclude_tid is not None and ev.tid == exclude_tid:
                continue
            if ev.dur <= require_dur:
                continue
            if prefer_work and ev.kind == "wait":
                if fallback is None:
                    fallback = ev
                continue
            return ev
        return fallback

    def span_covering(self, tid: int, t: float) -> Optional[TraceEvent]:
        """The latest span of *tid* starting strictly before *t*."""
        spans = self.by_thread.get(tid)
        if not spans:
            return None
        lo, hi = 0, len(spans)
        while lo < hi:
            mid = (lo + hi) // 2
            if spans[mid].ts < t:
                lo = mid + 1
            else:
                hi = mid
        return spans[lo - 1] if lo else None

    def last_finisher(self) -> Optional[TraceEvent]:
        """The span that ends last (ties broken by emission order)."""
        return self._by_end[-1] if self._by_end else None


def ensure_index(
    events_or_index: "TraceIndex | Sequence[TraceEvent]",
) -> TraceIndex:
    """Accept either a prebuilt index or a raw event sequence."""
    if isinstance(events_or_index, TraceIndex):
        return events_or_index
    return TraceIndex.of(events_or_index)
