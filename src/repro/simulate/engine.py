"""Discrete-event simulation core.

A tiny, deterministic event engine: a priority heap of ``(time, seq,
callback)`` entries.  ``seq`` is a monotonically increasing tie-breaker,
so two events at the same timestamp always fire in scheduling order and
every simulation is bit-for-bit reproducible.

Everything above (machine, threads, ORWL runtime) is built out of
:meth:`Engine.schedule` plus :class:`SimEvent` wait/notify.  The
ordering contract (seq tie-break, registration-order release, late
waiters) is spelled out in DESIGN.md, "Determinism contract", and
pinned by ``tests/test_engine_differential.py`` against a minimal
reference engine.
"""

from __future__ import annotations

import heapq
from typing import Callable, Optional

from repro.util.errors import ReproError

_INF = float("inf")


class SimulationError(ReproError, RuntimeError):
    """Raised on engine misuse (non-finite delays, deadlock detection)."""


class Engine:
    """The event loop owning simulated time.

    The event loop is the single hottest code path in the repo — a
    paper-scale sweep fires tens of millions of events — so ``run``
    binds :meth:`step` once and the class carries ``__slots__`` (one
    engine exists per machine, but its attributes are read per event).
    The drain deliberately delegates per-event work to ``step``: on
    CPython 3.11+ the specializing interpreter inlines the call and
    keeps one hot code path.
    """

    __slots__ = ("_now", "_heap", "_seq", "_events_fired")

    def __init__(self) -> None:
        self._now = 0.0
        self._heap: list[tuple[float, int, Callable[[], None]]] = []
        self._seq = 0
        self._events_fired = 0

    @property
    def now(self) -> float:
        """Current simulated time in seconds.

        The simulator's own per-event paths (the machine, ``SimEvent``,
        the ORWL runtime) read the ``_now`` slot instead: the same value
        without a property call.
        """
        return self._now

    @property
    def events_fired(self) -> int:
        """Number of events processed so far (for diagnostics)."""
        return self._events_fired

    @property
    def pending(self) -> int:
        """Number of events still queued."""
        return len(self._heap)

    def schedule(self, delay: float, fn: Callable[[], None]) -> None:
        """Run *fn* at ``now + delay`` (delay may be 0; must be finite
        and non-negative).

        NaN and infinite delays are rejected: ``delay < 0`` is False
        for NaN, so without the explicit finiteness check a NaN would
        slip into the heap and silently corrupt its ordering (every
        comparison against NaN is False, breaking the sift invariant).
        """
        if not 0.0 <= delay < _INF:
            raise SimulationError(
                f"delay must be finite and non-negative, got {delay}"
            )
        self._seq = seq = self._seq + 1
        heapq.heappush(self._heap, (self._now + delay, seq, fn))

    def at(self, time: float, fn: Callable[[], None]) -> None:
        """Run *fn* at absolute simulated *time* (>= now, finite)."""
        if not self._now <= time < _INF:
            raise SimulationError(
                f"time must be finite and >= now, got {time} (now={self._now})"
            )
        self._seq = seq = self._seq + 1
        heapq.heappush(self._heap, (time, seq, fn))

    def step(self) -> bool:
        """Fire the next event; returns False when the queue is empty."""
        if not self._heap:
            return False
        time, _, fn = heapq.heappop(self._heap)
        self._now = time
        self._events_fired += 1
        fn()
        return True

    def run(self, until: Optional[float] = None, max_events: int = 500_000_000) -> float:
        """Drain the event queue (optionally stopping at time *until*).

        Returns the final simulated time.  *max_events* is a runaway
        guard; exceeding it raises :class:`SimulationError`.

        Callbacks may keep scheduling — ``schedule`` / ``at`` push onto
        the same heap ``step`` pops from; a zero-delay event joins the
        end of the current timestamp (its seq is necessarily higher).
        """
        step = self.step
        fired = 0
        if until is None:
            while step():
                fired += 1
                if fired > max_events:
                    raise SimulationError(
                        f"exceeded max_events={max_events}; livelock?"
                    )
        else:
            heap = self._heap
            while heap:
                if heap[0][0] > until:
                    self._now = until
                    break
                step()
                fired += 1
                if fired > max_events:
                    raise SimulationError(
                        f"exceeded max_events={max_events}; livelock?"
                    )
        return self._now


class SimEvent:
    """One-shot wait/notify: threads park on it, ``fire`` releases them.

    The callbacks are whatever the machine registers to resume a thread;
    firing an already-fired event is an error (ORWL grants are unique).
    ``fire`` schedules one engine entry per waiter, in registration
    order.
    """

    __slots__ = ("_engine", "_fired", "_release_at", "_waiters", "name")

    def __init__(self, engine: Engine, name: str = "") -> None:
        self._engine = engine
        self._fired = False
        self._release_at = 0.0
        self._waiters: list[Callable[[], None]] = []
        self.name = name

    @property
    def fired(self) -> bool:
        return self._fired

    def wait(self, callback: Callable[[], None]) -> None:
        """Invoke *callback* when the event releases.

        Waiting on an already-fired event still honours the fire delay:
        the callback runs at the event's release time (or immediately if
        that has passed).
        """
        if self._fired:
            self._engine.schedule(max(0.0, self._release_at - self._engine._now), callback)
        else:
            self._waiters.append(callback)

    def fire(self, delay: float = 0.0) -> None:
        """Release all waiters after *delay*, in registration order; one-shot."""
        if self._fired:
            raise SimulationError(f"event {self.name!r} fired twice")
        if not 0.0 <= delay < _INF:
            raise SimulationError(
                f"delay must be finite and non-negative, got {delay}"
            )
        self._fired = True
        self._release_at = self._engine._now + delay
        # Scheduling runs no callback, so the list is stable while it is
        # walked; a fired event never queues a waiter again (``wait``
        # schedules late ones directly), so it is emptied, not replaced.
        waiters = self._waiters
        for cb in waiters:
            self._engine.schedule(delay, cb)
        waiters.clear()

    def __repr__(self) -> str:
        state = "fired" if self._fired else f"{len(self._waiters)} waiting"
        return f"<SimEvent {self.name!r} {state}>"
