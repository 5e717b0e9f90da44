"""Structured observability for the simulator (``repro.observe``).

Three layers over one event stream:

* :mod:`~repro.observe.tracer` — :class:`Tracer` collects one
  :class:`TraceEvent` per machine activity (compute, transfer, lock
  wait, runq wait, migration, grant, scheduler decision), each tagged
  with PU / NUMA node / sharing level.
* :mod:`~repro.observe.export` — lossless JSON-lines round-trip plus
  Chrome ``trace_event`` output for Perfetto timelines
  (``python -m repro.tools.trace`` is the CLI).
* :mod:`~repro.observe.invariants` — :class:`InvariantChecker` audits
  every run's conservation laws (time ledgers, per-level byte totals,
  monotonic clocks) across the three independent records the simulator
  keeps: aggregate counters, per-thread counters, and the trace.
* :mod:`~repro.observe.determinism` — bit-exact run fingerprints for
  same-seed regression tests.

:func:`capture` attaches tracers to every machine built inside a code
block (examples, tools, experiment sweeps) so whole workflows can be
audited without plumbing a tracer through their APIs.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import TYPE_CHECKING, Iterator

from repro import lazy_exports

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.observe.invariants import InvariantReport
    from repro.observe.tracer import Tracer
    from repro.simulate.machine import Machine

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "determinism": ["metrics_fingerprint", "run_fingerprint", "stream_hash"],
    "export": [
        "chrome_payload",
        "dumps_jsonl",
        "loads_jsonl",
        "read_jsonl",
        "write_chrome",
        "write_jsonl",
    ],
    "invariants": [
        "ALL_INVARIANTS",
        "InvariantChecker",
        "InvariantError",
        "InvariantReport",
        "Violation",
        "check_run",
    ],
    "tracer": [
        "KNOWN_KINDS",
        "SPAN_KINDS",
        "EventFilter",
        "TraceEvent",
        "Tracer",
    ],
})
__all__ += ["Capture", "capture"]


class Capture:
    """Machines (and their tracers) collected by :func:`capture`."""

    def __init__(self) -> None:
        self.machines: list["Machine"] = []

    def _on_machine(self, machine: "Machine") -> None:
        from repro.observe import tracer

        if machine.tracer is None:
            machine.attach_tracer(tracer.Tracer())
        self.machines.append(machine)

    @property
    def tracers(self) -> list[Tracer]:
        return [m.tracer for m in self.machines if m.tracer is not None]

    def check_all(self, raise_on_violation: bool = True) -> list[InvariantReport]:
        """Audit every captured machine that completed a run."""
        from repro.observe.invariants import check_run

        reports = []
        for machine in self.machines:
            if not machine._started:  # built but never run — nothing to audit
                continue
            reports.append(check_run(machine, raise_on_violation=raise_on_violation))
        return reports


@contextmanager
def capture() -> Iterator[Capture]:
    """Attach a fresh :class:`Tracer` to every machine built in the block.

    ::

        with observe.capture() as cap:
            run_lk23(policy="treematch", n=1024)
        for report in cap.check_all():
            assert report.ok

    Nesting restores the previous hook on exit; machines that already
    carry a tracer keep it (and are still collected).
    """
    from repro.simulate import machine as machine_mod

    cap = Capture()
    previous = machine_mod.new_machine_hook
    machine_mod.new_machine_hook = cap._on_machine
    try:
        yield cap
    finally:
        machine_mod.new_machine_hook = previous
