"""Conservation-law checking for simulation runs.

Every number in EXPERIMENTS.md flows through ``MachineMetrics``; an
accounting bug there would silently corrupt every experiment.  The
:class:`InvariantChecker` cross-audits three independent records of the
same run — the aggregate counters, the per-thread counters, and the
event stream — and reports any disagreement as a structured
:class:`Violation`:

* **thread-time-accounting** — for every finished thread,
  ``compute + transfer + lock-wait + runq-wait == finish time``
  (migration penalties and jitter are charged *inside* compute/transfer
  durations, so the ledger closes exactly; threads are busy, blocked, or
  queued at all times between start and finish).
* **compute/wait/runq-time-conservation** — aggregate counters equal the
  sums of the corresponding traced spans *and* the per-thread counters.
* **transfer-bytes/time-conservation, transfer-count** — per-level
  ``bytes_by_level`` / ``transfer_time_by_level`` equal the traced
  transfer totals.
* **migration-accounting** — migration count and penalty totals agree
  between counters and events.
* **monotonic-timestamps** — the engine clock never went backwards (the
  instants, stamped with it when emitted, never decrease in emission
  order) and each thread's spans are ordered and non-overlapping.
* **non-negative-duration** — no event has a negative duration or
  timestamp.
* **critical-path-bound** — the longest weighted dependency chain
  (:func:`repro.perf.extract_critical_path`) respects
  ``critical_path <= makespan <= serial_time``.
* **numa-traffic-reconciliation** — the node×node traffic matrix
  (:func:`repro.perf.traffic_matrix`) reconciles with
  ``bytes_by_level``: diagonal = node-local levels, off-diagonal =
  GROUP/MACHINE (= ``MachineMetrics.remote_bytes``), every transfer
  attributed to a valid node pair.

Use :meth:`InvariantChecker.check` after a run; raise on violation with
:meth:`InvariantReport.raise_if_violations`.
"""

from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Optional

from repro.observe.tracer import SPAN_KINDS, TraceEvent
from repro.util.errors import ReproError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.simulate.machine import Machine

#: Names of all invariants the checker knows, in check order.
ALL_INVARIANTS = (
    "non-negative-duration",
    "monotonic-timestamps",
    "thread-time-accounting",
    "compute-time-conservation",
    "wait-time-conservation",
    "runq-time-conservation",
    "transfer-bytes-conservation",
    "transfer-time-conservation",
    "transfer-count",
    "migration-accounting",
    "critical-path-bound",
    "numa-traffic-reconciliation",
)


@dataclass(frozen=True)
class Violation:
    """One violated invariant, machine-readable.

    ``invariant`` is one of :data:`ALL_INVARIANTS`; ``tid`` the offending
    thread (or ``None`` for machine-level violations); ``magnitude`` the
    absolute discrepancy in the invariant's unit (seconds, bytes, count).
    """

    invariant: str
    detail: str
    tid: Optional[int] = None
    magnitude: float = 0.0

    def __str__(self) -> str:
        where = f" [tid {self.tid}]" if self.tid is not None else ""
        return f"{self.invariant}{where}: {self.detail}"


@dataclass
class InvariantReport:
    """Outcome of one :meth:`InvariantChecker.check` call."""

    violations: list[Violation] = field(default_factory=list)
    checked: tuple[str, ...] = ALL_INVARIANTS
    events_audited: int = 0

    @property
    def ok(self) -> bool:
        return not self.violations

    def violated(self, invariant: str) -> list[Violation]:
        return [v for v in self.violations if v.invariant == invariant]

    def raise_if_violations(self) -> None:
        if self.violations:
            raise InvariantError(self)

    def render(self) -> str:
        head = (
            f"invariant check: {len(self.checked)} invariants over "
            f"{self.events_audited} events — "
            + ("OK" if self.ok else f"{len(self.violations)} violation(s)")
        )
        lines = [head]
        lines.extend(f"  FAIL {v}" for v in self.violations)
        return "\n".join(lines)


class InvariantError(ReproError, AssertionError):
    """Raised by :meth:`InvariantReport.raise_if_violations`."""

    def __init__(self, report: InvariantReport) -> None:
        super().__init__(report.render())
        self.report = report


class InvariantChecker:
    """Post-run auditor of a machine, its metrics, and its trace.

    Tolerances absorb float summation drift only: sums are compared with
    ``isclose(rel_tol, abs_tol)``, counts exactly.
    """

    def __init__(self, rel_tol: float = 1e-6, abs_tol: float = 1e-9) -> None:
        self.rel_tol = rel_tol
        self.abs_tol = abs_tol

    # -- helpers -----------------------------------------------------------

    def _close(self, a: float, b: float) -> bool:
        return math.isclose(a, b, rel_tol=self.rel_tol, abs_tol=self.abs_tol)

    def _mismatch(
        self,
        out: list[Violation],
        invariant: str,
        what: str,
        counter: float,
        traced: float,
        tid: Optional[int] = None,
    ) -> None:
        if not self._close(counter, traced):
            out.append(
                Violation(
                    invariant,
                    f"{what}: counter={counter!r} vs traced={traced!r}",
                    tid=tid,
                    magnitude=abs(counter - traced),
                )
            )

    # -- the audit ---------------------------------------------------------

    def check(self, machine: "Machine") -> InvariantReport:
        """Audit *machine* after :meth:`Machine.run` completed.

        Requires a tracer attached before the run (``Machine(...,
        tracer=...)``); raises :class:`ValueError` otherwise.
        """
        tracer = machine.tracer
        if tracer is None:
            raise ValueError(
                "InvariantChecker needs a traced run: pass tracer= to Machine"
            )
        events = tracer.events
        report = InvariantReport(events_audited=len(events))
        out = report.violations
        m = machine.metrics

        self._check_shapes(events, out)
        self._check_thread_accounting(machine, out)
        self._check_aggregates(machine, events, out)
        self._check_perf(machine, events, out)

        # Keep m referenced for clarity even when every sum is zero.
        del m
        return report

    def _check_shapes(
        self, events: tuple[TraceEvent, ...], out: list[Violation]
    ) -> None:
        # Instants are stamped with the engine clock when emitted, so
        # across the whole stream their timestamps never decrease in
        # emission order: a decrease means the clock went backwards.
        # Per thread, spans must be ordered and non-overlapping.  (A
        # span's ts is its *start*, which may legitimately lie ahead of
        # a later instant emitted at decision time while the span was
        # queued, so the two classes are checked apart.)
        last_instant: Optional[TraceEvent] = None
        last_span: dict[int, TraceEvent] = {}
        for ev in events:
            if ev.dur < 0 or ev.ts < 0:
                out.append(
                    Violation(
                        "non-negative-duration",
                        f"event #{ev.seq} {ev.kind} has ts={ev.ts!r} dur={ev.dur!r}",
                        tid=ev.tid if ev.tid >= 0 else None,
                        magnitude=abs(min(ev.ts, ev.dur)),
                    )
                )
            if ev.kind not in SPAN_KINDS:
                prev, last_instant = last_instant, ev
                if prev is not None and ev.ts < prev.ts:
                    out.append(
                        Violation(
                            "monotonic-timestamps",
                            f"event #{ev.seq} {ev.kind} at {ev.ts!r} precedes "
                            f"#{prev.seq} {prev.kind} at {prev.ts!r}",
                            tid=ev.tid if ev.tid >= 0 else None,
                            magnitude=prev.ts - ev.ts,
                        )
                    )
                continue
            if ev.tid < 0:
                continue
            pspan = last_span.get(ev.tid)
            if pspan is not None:
                if ev.ts < pspan.ts - self.abs_tol:
                    out.append(
                        Violation(
                            "monotonic-timestamps",
                            f"span #{ev.seq} {ev.kind} at {ev.ts!r} precedes "
                            f"#{pspan.seq} {pspan.kind} at {pspan.ts!r}",
                            tid=ev.tid,
                            magnitude=pspan.ts - ev.ts,
                        )
                    )
                elif ev.ts < pspan.end - max(
                    self.abs_tol, self.rel_tol * pspan.end
                ):
                    out.append(
                        Violation(
                            "monotonic-timestamps",
                            f"span #{ev.seq} {ev.kind} [{ev.ts!r}, {ev.end!r}] "
                            f"overlaps #{pspan.seq} {pspan.kind} ending {pspan.end!r}",
                            tid=ev.tid,
                            magnitude=pspan.end - ev.ts,
                        )
                    )
            last_span[ev.tid] = ev

    def _check_thread_accounting(
        self, machine: "Machine", out: list[Violation]
    ) -> None:
        for tid in range(machine.n_threads):
            t = machine.thread(tid)
            if t.done_at < 0:  # never finished (run aborted) — skip
                continue
            ledger = t.compute_time + t.transfer_time + t.wait_time + t.runq_time
            self._mismatch(
                out,
                "thread-time-accounting",
                f"thread {t.name!r}: compute+transfer+wait+runq={ledger!r} "
                f"vs finish time",
                t.done_at,
                ledger,
                tid=tid,
            )

    def _check_aggregates(
        self, machine: "Machine", events: tuple[TraceEvent, ...], out: list[Violation]
    ) -> None:
        m = machine.metrics
        traced_dur: dict[str, float] = defaultdict(float)
        traced_bytes: dict[str, float] = defaultdict(float)
        traced_tdur: dict[str, float] = defaultdict(float)
        n_transfers = 0
        n_migrations = 0
        migration_penalty = 0.0
        for ev in events:
            traced_dur[ev.kind] += ev.dur
            if ev.kind == "transfer":
                n_transfers += 1
                traced_bytes[ev.level] += ev.nbytes
                traced_tdur[ev.level] += ev.dur
            elif ev.kind == "migration":
                n_migrations += 1
                migration_penalty += ev.dur

        per_thread = [machine.thread(t) for t in range(machine.n_threads)]
        checks = (
            ("compute-time-conservation", "compute seconds", m.compute_time,
             traced_dur["compute"], sum(t.compute_time for t in per_thread)),
            ("wait-time-conservation", "lock-wait seconds", m.wait_time,
             traced_dur["wait"], sum(t.wait_time for t in per_thread)),
            ("runq-time-conservation", "runq seconds", m.runq_time,
             traced_dur["runq"], sum(t.runq_time for t in per_thread)),
        )
        for name, what, counter, traced, threads in checks:
            self._mismatch(out, name, f"{what} (counter vs events)", counter, traced)
            self._mismatch(out, name, f"{what} (counter vs threads)", counter, threads)

        for level, nbytes in m.bytes_by_level.items():
            self._mismatch(
                out,
                "transfer-bytes-conservation",
                f"bytes at level {level.name}",
                float(nbytes),
                traced_bytes.get(level.name, 0.0),
            )
        for level_name, nbytes in traced_bytes.items():
            if not any(lv.name == level_name for lv in m.bytes_by_level):
                out.append(
                    Violation(
                        "transfer-bytes-conservation",
                        f"traced {nbytes!r} bytes at level {level_name} "
                        "missing from bytes_by_level",
                        magnitude=nbytes,
                    )
                )
        for level, dur in m.transfer_time_by_level.items():
            self._mismatch(
                out,
                "transfer-time-conservation",
                f"transfer seconds at level {level.name}",
                float(dur),
                traced_tdur.get(level.name, 0.0),
            )
        self._mismatch(
            out,
            "transfer-time-conservation",
            "transfer seconds (threads vs events)",
            sum(t.transfer_time for t in per_thread),
            traced_dur["transfer"],
        )
        if m.transfers != n_transfers:
            out.append(
                Violation(
                    "transfer-count",
                    f"counter says {m.transfers} transfers, trace has {n_transfers}",
                    magnitude=abs(m.transfers - n_transfers),
                )
            )
        if m.migrations != n_migrations:
            out.append(
                Violation(
                    "migration-accounting",
                    f"counter says {m.migrations} migrations, trace has {n_migrations}",
                    magnitude=abs(m.migrations - n_migrations),
                )
            )
        self._mismatch(
            out,
            "migration-accounting",
            "migration penalty seconds",
            m.migration_penalty_time,
            migration_penalty,
        )


    def _check_perf(
        self, machine: "Machine", events: tuple[TraceEvent, ...], out: list[Violation]
    ) -> None:
        # Imported lazily: repro.perf consumes this package, so a
        # module-level import would be a cycle.
        from repro.perf.counters import LOCAL_LEVELS
        from repro.perf.critpath import extract_critical_path
        from repro.perf.numa import traffic_matrix

        cp = extract_critical_path(events)
        if not cp.bound_ok():
            out.append(
                Violation(
                    "critical-path-bound",
                    f"critical_path={cp.length!r} <= makespan={cp.makespan!r} "
                    f"<= serial_time={cp.serial_time!r} does not hold",
                    magnitude=max(
                        cp.length - cp.makespan, cp.makespan - cp.serial_time
                    ),
                )
            )

        m = machine.metrics
        tm = traffic_matrix(events)
        local = sum(
            float(v)
            for lv, v in m.bytes_by_level.items()
            if lv.name in LOCAL_LEVELS
        )
        self._mismatch(
            out,
            "numa-traffic-reconciliation",
            "node-local bytes (bytes_by_level vs matrix diagonal)",
            local,
            tm.local_bytes,
        )
        self._mismatch(
            out,
            "numa-traffic-reconciliation",
            "remote bytes (bytes_by_level vs matrix off-diagonal)",
            float(m.remote_bytes),
            tm.remote_bytes,
        )
        total = float(sum(m.bytes_by_level.values()))
        self._mismatch(
            out,
            "numa-traffic-reconciliation",
            "total bytes (bytes_by_level vs matrix row sums)",
            total,
            float(sum(tm.row_sums())),
        )
        self._mismatch(
            out,
            "numa-traffic-reconciliation",
            "total bytes (bytes_by_level vs matrix column sums)",
            total,
            float(sum(tm.col_sums())),
        )
        if tm.unattributed_bytes > 0.0:
            out.append(
                Violation(
                    "numa-traffic-reconciliation",
                    f"{tm.unattributed_bytes!r} transfer bytes carry no "
                    "valid producer/consumer node pair",
                    magnitude=tm.unattributed_bytes,
                )
            )


def check_run(machine: "Machine", raise_on_violation: bool = True) -> InvariantReport:
    """One-call audit: check *machine* and optionally raise on violation."""
    report = InvariantChecker().check(machine)
    if raise_on_violation:
        report.raise_if_violations()
    return report
