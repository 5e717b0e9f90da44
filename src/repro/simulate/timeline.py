"""Execution timelines: per-thread activity traces from the simulator.

:meth:`Timeline.from_events` builds one :class:`Segment` per compute
burst and transfer of a traced run (``Machine(..., tracer=Tracer())``),
giving a Gantt-style view of it — which PU did what when, where the
lock-wait gaps are.  Used by the debugging example and by tests that
assert scheduling behaviour (serialization, preemption, overlap).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Optional

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.observe.tracer import TraceEvent


@dataclass(frozen=True)
class Segment:
    """One contiguous activity of a thread on a PU."""

    tid: int
    thread_name: str
    kind: str  # "compute" | "transfer"
    pu: int  # logical PU index
    start: float
    end: float

    @property
    def duration(self) -> float:
        return self.end - self.start


class Timeline:
    """Accumulates segments; provides filtering and ASCII rendering."""

    def __init__(self) -> None:
        self._segments: list[Segment] = []

    @classmethod
    def from_events(cls, events: Iterable["TraceEvent"]) -> "Timeline":
        """The segments of a traced run, in stream order.

        One per ``compute`` and ``transfer`` event, spanning
        ``[ts, ts + dur]`` on the event's PU — the same interval the
        machine reserved for it.
        """
        timeline = cls()
        for ev in events:
            if ev.kind in ("compute", "transfer"):
                timeline.record(
                    Segment(ev.tid, ev.thread, ev.kind, ev.pu, ev.ts, ev.ts + ev.dur)
                )
        return timeline

    def record(self, segment: Segment) -> None:
        self._segments.append(segment)

    @property
    def segments(self) -> tuple[Segment, ...]:
        return tuple(self._segments)

    def __len__(self) -> int:
        return len(self._segments)

    def for_thread(self, tid: int) -> list[Segment]:
        return [s for s in self._segments if s.tid == tid]

    def for_pu(self, pu: int) -> list[Segment]:
        return sorted(
            (s for s in self._segments if s.pu == pu), key=lambda s: s.start
        )

    def busy_time(self, pu: int) -> float:
        """Total occupied seconds on a PU (segments never overlap for
        non-priority threads; priority overlaps are counted twice, which
        is exactly the cycles they steal)."""
        return sum(s.duration for s in self.for_pu(pu))

    def utilization(self, pu: int, makespan: Optional[float] = None) -> float:
        """Busy fraction of a PU over the run (or over *makespan*)."""
        if makespan is None:
            makespan = self.makespan()
        if makespan <= 0:
            return 0.0
        return min(self.busy_time(pu) / makespan, 1.0)

    def makespan(self) -> float:
        return max((s.end for s in self._segments), default=0.0)

    def render(
        self,
        pus: Optional[Iterable[int]] = None,
        width: int = 72,
    ) -> str:
        """ASCII Gantt chart: one row per PU, '#' compute, '=' transfer."""
        if not self._segments:
            return "(empty timeline)"
        span = self.makespan()
        if pus is None:
            pus = sorted({s.pu for s in self._segments})
        lines = []
        for pu in pus:
            row = [" "] * width
            for s in self.for_pu(pu):
                a = int(s.start / span * (width - 1))
                b = max(int(s.end / span * (width - 1)), a)
                ch = "#" if s.kind == "compute" else "="
                for x in range(a, b + 1):
                    row[x] = ch
            lines.append(f"PU{pu:>3} |{''.join(row)}|")
        lines.append(f"      0{' ' * (width - 10)}{span:.3g}s")
        return "\n".join(lines)

    def to_svg(self, width: int = 900, row_h: int = 16) -> str:
        """Render as a standalone SVG Gantt chart.

        One row per PU; compute segments green, transfers orange; time
        axis along the bottom.
        """
        if not self._segments:
            return (
                '<svg xmlns="http://www.w3.org/2000/svg" width="200" height="40">'
                '<text x="10" y="25" font-size="12">empty timeline</text></svg>'
            )
        span = self.makespan()
        pus = sorted({s.pu for s in self._segments})
        label_w = 46
        chart_w = width - label_w
        height = len(pus) * (row_h + 4) + 28
        out = [
            f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
            f'height="{height}" viewBox="0 0 {width} {height}">',
            '<rect width="100%" height="100%" fill="white"/>',
        ]
        colors = {"compute": "#6fbf6f", "transfer": "#e8a050"}
        for row, pu in enumerate(pus):
            y = 4 + row * (row_h + 4)
            out.append(
                f'<text x="4" y="{y + row_h - 4}" font-size="10" '
                f'font-family="sans-serif">PU{pu}</text>'
            )
            out.append(
                f'<rect x="{label_w}" y="{y}" width="{chart_w}" height="{row_h}" '
                'fill="#f4f4f4" stroke="#ccc" stroke-width="0.5"/>'
            )
            for s in self.for_pu(pu):
                x0 = label_w + s.start / span * chart_w
                w = max((s.end - s.start) / span * chart_w, 0.5)
                out.append(
                    f'<rect x="{x0:.2f}" y="{y}" width="{w:.2f}" height="{row_h}" '
                    f'fill="{colors.get(s.kind, "#999")}">'
                    f"<title>{s.thread_name} {s.kind} "
                    f"[{s.start:.6g}, {s.end:.6g}]s</title></rect>"
                )
        axis_y = height - 16
        out.append(
            f'<text x="{label_w}" y="{axis_y + 12}" font-size="10" '
            f'font-family="sans-serif">0</text>'
        )
        out.append(
            f'<text x="{width - 4}" y="{axis_y + 12}" text-anchor="end" '
            f'font-size="10" font-family="sans-serif">{span:.4g}s</text>'
        )
        out.append("</svg>")
        return "\n".join(out)
