"""Critical-path extraction from a traced run.

Two complementary views of the same dependency structure:

* :func:`extract_critical_path` — the **longest weighted chain** through
  the span dependency DAG.  Nodes are spans; edges are program order
  (consecutive spans of one thread) and wakeup causality (a ``wait``
  span depends on the activity that released it); weights are the work
  durations (compute + transfer — waits and run-queue time are elapsed
  time, not work).  The chain length is the dependency-limited lower
  bound on the makespan: no schedule of this run's work on any number
  of PUs finishes faster.  Structurally ``length <= makespan <=
  serial_time`` — the invariant :class:`repro.observe.invariants.
  InvariantChecker` audits as ``critical-path-bound``.

* :func:`attribute_makespan` — the **backward walk**: starting from the
  span that finishes last, walk the causal chain toward time zero and
  charge every second of ``[0, makespan]`` to a bucket (``compute``,
  ``transfer:<level>``, ``wait``, ``runq``, ``migration``, ``idle``).
  The buckets partition the makespan *exactly*, which is what lets the
  top-down report (:mod:`repro.perf.topdown`) attribute a time gap
  between two runs to buckets that sum to the gap.

Wakeup edges use the standard trace-analysis heuristic (the latest
activity on another thread finishing no later than the wait's release),
because the stream records *when* a wait released, not *who* fired the
event.  Migration penalties are charged by the simulator into the head
of the next work span of the migrated thread; the walk carves them back
out into the ``migration`` bucket.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from repro.observe.tracer import TraceEvent
from repro.perf.spans import WORK_KINDS, TraceIndex, bucket_of, ensure_index

#: Absolute slack used when comparing simulated timestamps.
_ABS_TOL = 1e-12
#: Relative slack (float summation drift over long runs).
_REL_TOL = 1e-9


def _tol(at: float) -> float:
    return _ABS_TOL + _REL_TOL * abs(at)


@dataclass
class CriticalPath:
    """The longest weighted dependency chain of one traced run.

    ``length`` is the chain's work seconds; ``chain`` the spans on it in
    time order (wait/runq links appear with zero weight — they carry the
    dependency, not work).  ``by_kind`` breaks the *weighted* length
    down per bucket; ``elapsed_by_kind`` the chain's elapsed durations
    (including waits), useful to see where the chain parks.
    """

    length: float = 0.0
    makespan: float = 0.0
    serial_time: float = 0.0
    work_time: float = 0.0
    n_spans: int = 0
    n_edges: int = 0
    by_kind: dict[str, float] = field(default_factory=dict)
    elapsed_by_kind: dict[str, float] = field(default_factory=dict)
    #: Spans on the chain (dropped by JSON round-trips — ``n_chain``
    #: preserves the count).
    chain: tuple[TraceEvent, ...] = ()
    n_chain: int = 0

    @property
    def coverage(self) -> float:
        """Chain work as a fraction of the makespan (1.0 = one thread's
        work explains the whole run — no parallel slack)."""
        return self.length / self.makespan if self.makespan > 0 else 0.0

    @property
    def parallelism(self) -> float:
        """Average parallelism: total work / critical work.  The upper
        bound on the speedup more PUs could ever deliver."""
        return self.work_time / self.length if self.length > 0 else 0.0

    def bound_ok(self) -> bool:
        """``critical_path <= makespan <= serial_time`` (with float slack)."""
        return bool(
            self.length <= self.makespan + _tol(self.makespan)
            and self.makespan <= self.serial_time + _tol(self.serial_time)
        )

    def to_json_dict(self) -> dict:
        return {
            "length": self.length,
            "makespan": self.makespan,
            "serial_time": self.serial_time,
            "work_time": self.work_time,
            "n_spans": self.n_spans,
            "n_edges": self.n_edges,
            "chain_spans": self.n_chain,
            "coverage": self.coverage,
            "parallelism": self.parallelism,
            "by_kind": dict(sorted(self.by_kind.items())),
            "elapsed_by_kind": dict(sorted(self.elapsed_by_kind.items())),
            "bound_ok": self.bound_ok(),
        }

    def render(self) -> str:
        lines = [
            f"critical path : {self.length:.6g} s work over "
            f"{self.n_chain} chained spans "
            f"({self.coverage:.1%} of makespan)",
            f"makespan      : {self.makespan:.6g} s    "
            f"serial time: {self.serial_time:.6g} s    "
            f"avg parallelism: {self.parallelism:.2f}x",
        ]
        if self.by_kind:
            parts = [
                f"{k}={v:.4g}s" for k, v in sorted(self.by_kind.items())
            ]
            lines.append("on-chain work : " + "  ".join(parts))
        waits = self.elapsed_by_kind.get("wait", 0.0)
        runq = self.elapsed_by_kind.get("runq", 0.0)
        if waits or runq:
            lines.append(
                f"on-chain stall: wait={waits:.4g}s  runq={runq:.4g}s "
                "(dependency links, zero work weight)"
            )
        lines.append(
            "bound         : critical_path <= makespan <= serial_time — "
            + ("OK" if self.bound_ok() else "VIOLATED")
        )
        return "\n".join(lines)


def extract_critical_path(
    events: "Sequence[TraceEvent] | TraceIndex",
) -> CriticalPath:
    """Longest weighted chain through the span dependency DAG.

    Runs one pass in emission order — the tracer's ``seq`` is a
    topological order of the run (a span is emitted no later than
    anything it causes) — so the DP needs no explicit sort.
    """
    idx = ensure_index(events)
    spans = idx.spans
    n = len(spans)
    if n == 0:
        return CriticalPath()

    best = [0.0] * n
    pred = [-1] * n
    pos_of_seq = {s.seq: i for i, s in enumerate(spans)}
    last_of_thread: dict[int, int] = {}
    n_edges = 0

    for i, s in enumerate(spans):
        weight = s.dur if s.kind in WORK_KINDS else 0.0
        base = 0.0
        p = -1
        j = last_of_thread.get(s.tid, -1)
        if j >= 0:
            n_edges += 1
            if best[j] > base:
                base, p = best[j], j
        if s.kind == "wait":
            r = idx.last_ending_before(
                s.end + _tol(s.end), exclude_tid=s.tid, require_dur=0.0
            )
            # Causality: the releaser must have been emitted before the
            # wait's release was recorded.
            if r is not None and r.seq < s.seq:
                k = pos_of_seq[r.seq]
                n_edges += 1
                if best[k] > base:
                    base, p = best[k], k
        best[i] = base + weight
        pred[i] = p
        last_of_thread[s.tid] = i

    end_i = 0
    for i in range(1, n):  # strict > keeps the earliest argmax: deterministic
        if best[i] > best[end_i]:
            end_i = i

    chain: list[TraceEvent] = []
    by_kind: dict[str, float] = {}
    elapsed: dict[str, float] = {}
    i = end_i
    while i >= 0:
        s = spans[i]
        chain.append(s)
        b = bucket_of(s)
        if s.kind in WORK_KINDS:
            by_kind[b] = by_kind.get(b, 0.0) + s.dur
        elapsed[b] = elapsed.get(b, 0.0) + s.dur
        i = pred[i]
    chain.reverse()

    return CriticalPath(
        length=best[end_i],
        makespan=idx.makespan,
        serial_time=idx.serial_time,
        work_time=idx.work_time,
        n_spans=n,
        n_edges=n_edges,
        by_kind=by_kind,
        elapsed_by_kind=elapsed,
        chain=tuple(chain),
        n_chain=len(chain),
    )


@dataclass
class Attribution:
    """The backward walk's exact partition of ``[0, makespan]``.

    ``buckets`` maps bucket name to seconds; the values sum to
    ``makespan`` within float slack (pinned by property tests).
    """

    buckets: dict[str, float] = field(default_factory=dict)
    makespan: float = 0.0
    n_segments: int = 0

    @property
    def total(self) -> float:
        return sum(self.buckets.values())

    def share(self, bucket: str) -> float:
        return self.buckets.get(bucket, 0.0) / self.makespan if self.makespan else 0.0

    def to_json_dict(self) -> dict:
        return {
            "makespan": self.makespan,
            "n_segments": self.n_segments,
            "buckets": dict(sorted(self.buckets.items())),
        }

    def render(self, title: str = "makespan attribution (critical walk)") -> str:
        lines = [title, "-" * len(title)]
        for name, sec in sorted(
            self.buckets.items(), key=lambda kv: (-kv[1], kv[0])
        ):
            lines.append(f"  {name:<20} {sec:>12.6g} s {self.share(name):>7.1%}")
        lines.append(f"  {'total':<20} {self.total:>12.6g} s "
                     f"(makespan {self.makespan:.6g} s)")
        return "\n".join(lines)


def attribute_makespan(
    events: "Sequence[TraceEvent] | TraceIndex",
) -> Attribution:
    """Walk backward from the last finisher and charge every second.

    The migration penalty the index found charged into a span
    (:attr:`TraceIndex.penalty_of`) goes to the ``migration`` bucket.
    """
    idx = ensure_index(events)
    makespan = idx.makespan
    out = Attribution(makespan=makespan)
    if makespan <= 0.0 or not idx.spans:
        return out
    pen_of = idx.penalty_of
    buckets = out.buckets

    def add(bucket: str, seconds: float) -> None:
        if seconds > 0.0:
            buckets[bucket] = buckets.get(bucket, 0.0) + seconds
            out.n_segments += 1

    last = idx.last_finisher()
    assert last is not None
    tid = last.tid
    cursor = makespan
    guard = 4 * len(idx.spans) + 64

    while cursor > _tol(makespan) and guard > 0:
        guard -= 1
        tol = _tol(cursor)
        s = idx.span_covering(tid, cursor)
        if s is None or s.end < cursor - tol:
            # Nothing on this thread explains the time below the cursor:
            # jump to whatever finished last globally, counting the gap
            # (if any) as idle.
            g = idx.last_ending_before(cursor + tol, require_dur=_ABS_TOL)
            if g is None:
                add("idle", cursor)
                cursor = 0.0
                break
            if g.end < cursor - tol:
                add("idle", cursor - g.end)
                cursor = g.end
            tid = g.tid
            continue
        if s.kind == "wait":
            hi = min(s.end, cursor)
            r = idx.last_ending_before(
                hi + tol, exclude_tid=tid, require_dur=_ABS_TOL, prefer_work=True
            )
            usable = r is not None and r.end > s.ts + tol
            # A wait-kind releaser must strictly advance the walk, or two
            # co-ending waits would hand the cursor back and forth forever.
            if usable and r.kind == "wait" and r.end >= cursor - tol:
                usable = False
            if usable:
                if r.end < cursor:
                    add("wait", cursor - r.end)  # release latency tail
                    cursor = r.end
                tid = r.tid
                continue
            # No releaser found — the wait itself eats the time.
        lo = max(s.ts, 0.0)
        hi = min(s.end, cursor)
        if hi > lo:
            pen = pen_of.get(s.seq, 0.0)
            if pen > 0.0:
                charged = min(max(0.0, min(s.ts + pen, hi) - lo), hi - lo)
                if charged > 0.0:
                    add("migration", charged)
                add(bucket_of(s), (hi - lo) - charged)
            else:
                add(bucket_of(s), hi - lo)
        cursor = min(cursor, lo)

    if cursor > _tol(makespan):
        # Guard exhausted on a pathological stream: keep the partition
        # exact by charging the unexplained remainder as wait.
        add("wait", cursor)
    return out
