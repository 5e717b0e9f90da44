"""Progress events emitted by :class:`repro.exec.SweepRunner`.

A sweep is minutes of silent CPU burn; these events are how tools and
tests watch it move.  The runner calls every registered callback with a
:class:`SweepEvent` from the *parent* process (worker processes never
emit), so callbacks are free to print, log, or append to shared state.

Three ready-made sinks:

* :func:`log_progress` — one log line per event via ``repro.util.log``;
* :func:`tracer_progress` — mirror events into a
  :class:`repro.observe.Tracer` stream as kind-``"sweep"`` instants, so
  a sweep's schedule lands in the same JSONL/Chrome exports as the
  simulations it ran;
* :class:`ProgressBar` — a single in-place terminal progress line with
  an ETA.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Optional, TextIO

from repro.util.log import get_logger

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.observe.tracer import Tracer

#: Event kinds, in the order a healthy sweep emits them.  ``worker_crash``,
#: ``retry`` and ``serial_fallback`` only appear on the resilience path;
#: ``cache_stats`` fires once before ``sweep_end`` when any caching
#: tier saw traffic (``detail`` holds ``key=count`` pairs aggregated
#: over the parent and every worker — see :mod:`repro.exec.cache`);
#: ``point_stats`` is emitted by :mod:`repro.stats.sweep` after a
#: replicated sweep aggregates one point (one event per point, after
#: ``sweep_end``; ``label`` is the point label, ``detail`` the
#: rendered :class:`~repro.stats.aggregate.SeedStats`).  In a
#: replicated sweep each replicate is its own task, so ``point_done``
#: fires once per replicate with a ``label#s<r>`` suffix.
SWEEP_EVENT_KINDS = (
    "sweep_start",
    "point_done",
    "chunk_done",
    "worker_crash",
    "retry",
    "serial_fallback",
    "cache_stats",
    "sweep_end",
    "point_stats",
)


@dataclass(frozen=True)
class SweepEvent:
    """One progress notification from a sweep.

    Attributes
    ----------
    kind:
        One of :data:`SWEEP_EVENT_KINDS`.
    ts:
        Wall-clock seconds since the sweep started (parent-process time,
        *not* simulated time).
    index:
        Point index for ``point_done`` (-1 otherwise).
    done, total:
        Points completed so far / points in the sweep.
    label:
        The task's label (``point_done``) or a free-form tag.
    detail:
        Extra context: worker counts, retry attempt, crash reason.
    """

    kind: str
    ts: float
    index: int = -1
    done: int = 0
    total: int = 0
    label: str = ""
    detail: str = ""


#: Signature of a progress sink.
ProgressCallback = Callable[[SweepEvent], None]


def log_progress(event: SweepEvent) -> None:
    """Log one line per event (a ready-made ``on_event`` callback)."""
    log = get_logger("exec")
    msg = f"[{event.ts:8.2f}s] {event.kind} {event.done}/{event.total}"
    if event.label:
        msg += f" {event.label}"
    if event.detail:
        msg += f" ({event.detail})"
    if event.kind in ("worker_crash", "serial_fallback"):
        log.warning(msg)
    else:
        log.info(msg)


def tracer_progress(tracer: "Tracer") -> ProgressCallback:
    """An ``on_event`` callback mirroring sweep events into *tracer*.

    Events are emitted as kind-``"sweep"`` instants whose ``ts`` is the
    wall-clock offset; ``detail`` packs the sweep-event kind, progress
    counter, and label.  Exporters pass unknown kinds through verbatim,
    so sweeps show up in Chrome/JSONL exports alongside machine events.
    """

    def callback(event: SweepEvent) -> None:
        tracer.emit(
            "sweep",
            ts=event.ts,
            detail=f"{event.kind}:{event.done}/{event.total}"
            + (f":{event.label}" if event.label else ""),
        )

    return callback


class ProgressBar:
    """An in-place terminal progress line with an ETA.

    ``[########------------] 12/40 done eta 12s``

    The ETA projects the mean cost so far, ``elapsed / done``, over the
    points still outstanding.

    Use as an ``on_event`` callback::

        runner = SweepRunner(on_event=ProgressBar())

    Writes to *stream* (default stderr) with ``\\r`` redraws; emits a
    final newline on ``sweep_end``.  Renders nothing for non-progress
    events, so it composes with :func:`log_progress` for crash/retry
    visibility.
    """

    def __init__(self, stream: Optional[TextIO] = None, width: int = 20):
        self.stream = stream if stream is not None else sys.stderr
        self.width = width

    def render(self, event: SweepEvent) -> str:
        """The bar line for *event* (pure; exercised directly by tests)."""
        total = max(event.total, 1)
        frac = min(1.0, event.done / total)
        filled = int(frac * self.width)
        bar = "#" * filled + "-" * (self.width - filled)
        line = f"[{bar}] {event.done}/{event.total} done"
        remaining = event.total - event.done
        if remaining <= 0:
            line += f" in {event.ts:.1f}s"
        elif event.done > 0 and event.ts > 0:
            eta = remaining * (event.ts / event.done)
            line += f" eta {eta:.0f}s"
        return line

    def __call__(self, event: SweepEvent) -> None:
        if event.kind in ("sweep_start", "point_done", "sweep_end"):
            self.stream.write("\r" + self.render(event) + "\x1b[K")
            if event.kind == "sweep_end":
                self.stream.write("\n")
            self.stream.flush()
