"""Structured trace events and the tracer that collects them.

The simulator's counters (:class:`~repro.simulate.metrics.MachineMetrics`)
are write-only aggregates: good for headline numbers, useless for
auditing *where* each byte and second went.  The tracer records one
:class:`TraceEvent` per machine activity — compute bursts, transfers
(tagged with the sharing level the bytes crossed), lock waits, run-queue
waits, migrations, lock grants, scheduler decisions — forming an
append-only stream that

* exports to JSON-lines and Chrome ``trace_event`` format
  (:mod:`repro.observe.export`),
* is audited against the aggregate counters by
  :class:`repro.observe.invariants.InvariantChecker`,
* hashes to a determinism fingerprint
  (:mod:`repro.observe.determinism`).

Overhead discipline: a machine without a tracer pays one ``is None``
check per activity; with a tracer, one tuple and one list append.  The
:class:`TraceEvent` objects are built only when the stream is read.
``benchmarks/bench_trace_overhead.py`` pins the enabled/disabled ratio,
and ``tests/test_trace_cost.py`` the Python calls per traced activity.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from fnmatch import fnmatchcase
from typing import Iterable, Iterator, Optional

#: Event kinds whose ``[ts, ts + dur]`` is an exclusive occupation of the
#: thread (spans must not overlap within one thread).  All other kinds
#: are instants or annotations: ``migration`` carries the cache-refill
#: penalty in ``dur`` but the penalty is *charged into* the next span.
SPAN_KINDS = frozenset({"compute", "transfer", "wait", "runq"})

#: All kinds the simulator emits (exporters map anything else verbatim).
KNOWN_KINDS = SPAN_KINDS | frozenset(
    {"migration", "grant", "sched", "thread_start", "thread_end"}
)


@dataclass(slots=True)
class TraceEvent:
    """One traced activity of the simulated machine.

    Attributes
    ----------
    seq:
        Emission order (monotonic per tracer; ties the stream together).
    kind:
        Activity class — see :data:`SPAN_KINDS` / :data:`KNOWN_KINDS`.
    ts, dur:
        Span start and duration in simulated seconds.  Instants have
        ``dur == 0``; ``migration`` events carry the charged penalty.
    tid, thread:
        Simulator thread id and name (``-1`` / ``""`` for machine-level
        events such as scheduler decisions).
    pu, node:
        Logical PU and NUMA-node indices where the activity happened
        (``-1`` when not applicable).
    level:
        Sharing level a transfer crossed (``"L3"``, ``"NUMANODE"``,
        ``"MACHINE"``, ...); empty for non-transfers.
    nbytes:
        Payload size for transfers, 0 otherwise.
    detail:
        Free-form tag: the awaited event's name for waits, the request
        tag for grants, ``"pull:src->dst"`` style for migrations.
    """

    seq: int
    kind: str
    ts: float
    dur: float = 0.0
    tid: int = -1
    thread: str = ""
    pu: int = -1
    node: int = -1
    level: str = ""
    nbytes: float = 0.0
    detail: str = ""

    @property
    def end(self) -> float:
        return self.ts + self.dur

    def is_span(self) -> bool:
        return self.kind in SPAN_KINDS


class Tracer:
    """Collects one row per machine activity; reads them as events.

    A row is a plain tuple in :class:`TraceEvent` field order without
    ``seq`` (the row's index is its ``seq``).  The one way to record is
    :attr:`append`, the bound ``append`` of the row list, so an enabled
    tracer costs the recording site one tuple and one C call.  Readers
    (:attr:`events`, iteration, :meth:`for_kind`, ...) see
    :class:`TraceEvent` objects, built on first read and kept, so
    every read of the same stream returns the same objects.

    One tracer per machine run.  Attach with
    ``Machine(..., tracer=Tracer())`` or
    :meth:`repro.simulate.machine.Machine.attach_tracer`.
    """

    def __init__(self) -> None:
        self._rows: list[tuple] = []
        #: Record one row (see the class docstring for its layout).
        self.append = self._rows.append
        self._events: tuple[TraceEvent, ...] = ()

    # -- queries -----------------------------------------------------------

    @property
    def events(self) -> tuple[TraceEvent, ...]:
        built = len(self._events)
        if built != len(self._rows):
            self._events += tuple(
                TraceEvent(seq, *row)
                for seq, row in enumerate(self._rows[built:], built)
            )
        return self._events

    def __len__(self) -> int:
        return len(self._rows)

    def __iter__(self) -> Iterator[TraceEvent]:
        return iter(self.events)

    def for_thread(self, tid: int) -> list[TraceEvent]:
        return [e for e in self.events if e.tid == tid]

    def for_kind(self, kind: str) -> list[TraceEvent]:
        return [e for e in self.events if e.kind == kind]

    def counts(self) -> Counter:
        """``{kind: number of events}``."""
        return Counter(row[0] for row in self._rows)

    def total(self, kind: str, field_: str = "dur") -> float:
        """Sum of a numeric field over all events of *kind*."""
        return sum(getattr(e, field_) for e in self.events if e.kind == kind)

    def stream_hash(self) -> str:
        """Determinism fingerprint of the full stream (sha-256 hex)."""
        from repro.observe.determinism import stream_hash

        return stream_hash(self.events)


@dataclass(frozen=True)
class EventFilter:
    """Predicate over :class:`TraceEvent` s, parsed from a spec string.

    The spec is a comma-separated list of ``key=value`` clauses; an
    event must satisfy every clause (AND), and a clause with several
    ``|``-separated values matches any of them (OR)::

        kind=transfer|wait,level=MACHINE     remote transfers and waits
        thread=*ctl*,min-dur=1e-6            slow control-thread spans
        tid=0|1,node=1                       two threads, one NUMA node

    Keys: ``kind``, ``thread`` (glob per :mod:`fnmatch`), ``tid``,
    ``pu``, ``node`` (integers), ``level``, ``min-dur`` (a single
    float, in seconds).  Unknown keys raise ``ValueError`` — a typoed
    clause silently matching everything would be worse.
    """

    kinds: Optional[frozenset[str]] = None
    thread_glob: str = ""
    tids: Optional[frozenset[int]] = None
    pus: Optional[frozenset[int]] = None
    nodes: Optional[frozenset[int]] = None
    levels: Optional[frozenset[str]] = None
    min_dur: float = 0.0

    @classmethod
    def parse(cls, spec: str) -> "EventFilter":
        """Build a filter from a spec string (empty spec matches all)."""
        kwargs: dict = {}
        for clause in spec.split(","):
            clause = clause.strip()
            if not clause:
                continue
            key, sep, value = clause.partition("=")
            key = key.strip()
            if not sep or not value.strip():
                raise ValueError(
                    f"bad filter clause {clause!r}: expected key=value"
                )
            alts = [v.strip() for v in value.split("|") if v.strip()]
            if key == "kind":
                kwargs["kinds"] = frozenset(alts)
            elif key == "thread":
                kwargs["thread_glob"] = value.strip()
            elif key in ("tid", "pu", "node"):
                try:
                    kwargs[key + "s"] = frozenset(int(v) for v in alts)
                except ValueError:
                    raise ValueError(
                        f"filter clause {clause!r}: {key} takes integers"
                    ) from None
            elif key == "level":
                kwargs["levels"] = frozenset(v.upper() for v in alts)
            elif key == "min-dur":
                try:
                    kwargs["min_dur"] = float(value.strip())
                except ValueError:
                    raise ValueError(
                        f"filter clause {clause!r}: min-dur takes a float"
                    ) from None
            else:
                raise ValueError(
                    f"unknown filter key {key!r}; one of "
                    "kind, thread, tid, pu, node, level, min-dur"
                )
        return cls(**kwargs)

    def __call__(self, ev: TraceEvent) -> bool:
        if self.kinds is not None and ev.kind not in self.kinds:
            return False
        if self.thread_glob and not fnmatchcase(ev.thread, self.thread_glob):
            return False
        if self.tids is not None and ev.tid not in self.tids:
            return False
        if self.pus is not None and ev.pu not in self.pus:
            return False
        if self.nodes is not None and ev.node not in self.nodes:
            return False
        if self.levels is not None and ev.level not in self.levels:
            return False
        if self.min_dur > 0.0 and ev.dur < self.min_dur:
            return False
        return True

    def apply(self, events: Iterable[TraceEvent]) -> Iterator[TraceEvent]:
        """Lazily yield the matching events, order preserved."""
        return (ev for ev in events if self(ev))


@dataclass
class TraceSummary:
    """Cheap aggregate view of a stream (for reports and sanity prints)."""

    events: int = 0
    spans: int = 0
    by_kind: Counter = field(default_factory=Counter)
    busy_by_kind: dict = field(default_factory=dict)
    bytes_by_level: Counter = field(default_factory=Counter)
    makespan: float = 0.0

    @classmethod
    def of(cls, events: Iterable[TraceEvent]) -> "TraceSummary":
        s = cls()
        busy: dict[str, float] = {}
        for e in events:
            s.events += 1
            s.by_kind[e.kind] += 1
            if e.is_span():
                s.spans += 1
                busy[e.kind] = busy.get(e.kind, 0.0) + e.dur
                s.makespan = max(s.makespan, e.end)
            if e.kind == "transfer" and e.level:
                s.bytes_by_level[e.level] += e.nbytes
        s.busy_by_kind = busy
        return s
