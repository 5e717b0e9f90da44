"""One-call post-mortem analysis of a traced run.

:func:`analyze` runs every ``repro.perf`` analysis over one event
stream (indexing it once) and returns a :class:`PerfReport` that
renders as a full text report or serializes to a JSON-safe dict.  The
dict form is what the experiment drivers attach to their sweep points:
it round-trips through :meth:`PerfReport.from_json_dict` minus the
critical-path chain (the span objects themselves stay out of JSON).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

from repro.observe.tracer import TraceEvent
from repro.perf.counters import (
    CounterGroup,
    Metric,
    compute_counter_groups,
    render_counter_groups,
)
from repro.perf.critpath import (
    Attribution,
    CriticalPath,
    attribute_makespan,
    extract_critical_path,
)
from repro.perf.numa import TrafficMatrix, render_heatmap, traffic_matrix
from repro.perf.spans import TraceIndex, ensure_index


@dataclass
class PerfReport:
    """Everything ``repro.perf`` derives from one traced run."""

    label: str = ""
    makespan: float = 0.0
    measured_time: float = 0.0
    n_events: int = 0
    critical_path: CriticalPath = field(default_factory=CriticalPath)
    attribution: Attribution = field(default_factory=Attribution)
    groups: tuple[CounterGroup, ...] = ()
    matrix: TrafficMatrix = field(default_factory=lambda: TrafficMatrix(0))

    def group(self, name: str) -> CounterGroup:
        for g in self.groups:
            if g.name == name:
                return g
        raise KeyError(f"no counter group {name!r}")

    def summary(self) -> dict[str, float]:
        """Flat scalars for cross-seed aggregation (stats.summarize_map)."""
        out = {
            "makespan": self.makespan,
            "measured_time": self.measured_time,
            "critical_path": self.critical_path.length,
            "parallelism": self.critical_path.parallelism,
            "serial_time": self.critical_path.serial_time,
            "local_fraction": self.matrix.local_fraction,
            "remote_bytes": self.matrix.remote_bytes,
        }
        for bucket, sec in self.attribution.buckets.items():
            out[f"walk:{bucket}"] = sec
        return out

    def to_json_dict(self) -> dict:
        return {
            "label": self.label,
            "makespan": self.makespan,
            "measured_time": self.measured_time,
            "n_events": self.n_events,
            "critical_path": self.critical_path.to_json_dict(),
            "attribution": self.attribution.to_json_dict(),
            "groups": [g.to_json_dict() for g in self.groups],
            "matrix": self.matrix.to_json_dict(),
        }

    @classmethod
    def from_json_dict(cls, d: dict) -> "PerfReport":
        cp = d.get("critical_path", {})
        at = d.get("attribution", {})
        return cls(
            label=d.get("label", ""),
            makespan=float(d.get("makespan", 0.0)),
            measured_time=float(d.get("measured_time", 0.0)),
            n_events=int(d.get("n_events", 0)),
            critical_path=CriticalPath(
                length=float(cp.get("length", 0.0)),
                makespan=float(cp.get("makespan", 0.0)),
                serial_time=float(cp.get("serial_time", 0.0)),
                work_time=float(cp.get("work_time", 0.0)),
                n_spans=int(cp.get("n_spans", 0)),
                n_edges=int(cp.get("n_edges", 0)),
                by_kind=dict(cp.get("by_kind", {})),
                elapsed_by_kind=dict(cp.get("elapsed_by_kind", {})),
                n_chain=int(cp.get("chain_spans", 0)),
            ),
            attribution=Attribution(
                buckets=dict(at.get("buckets", {})),
                makespan=float(at.get("makespan", 0.0)),
                n_segments=int(at.get("n_segments", 0)),
            ),
            groups=tuple(
                CounterGroup(
                    name=g["name"],
                    title=g.get("title", ""),
                    metrics=tuple(
                        Metric(m["name"], float(m["value"]), m.get("unit", ""))
                        for m in g.get("metrics", [])
                    ),
                )
                for g in d.get("groups", [])
            ),
            matrix=TrafficMatrix.from_json_dict(
                d.get("matrix", {"n_nodes": 0, "bytes": [], "seconds": []})
            ),
        )

    def render(self, heatmap: bool = True) -> str:
        head = f"Performance report — {self.label or 'run'}"
        parts = [
            head,
            "=" * len(head),
            f"events: {self.n_events}   measured time: "
            f"{self.measured_time:.6g} s",
            "",
            self.critical_path.render(),
            "",
            self.attribution.render(),
            "",
            render_counter_groups(self.groups),
        ]
        if heatmap:
            parts += ["", render_heatmap(self.matrix)]
        return "\n".join(parts)


def analyze(
    events: "Sequence[TraceEvent] | TraceIndex",
    label: str = "",
    measured_time: Optional[float] = None,
    n_pus: Optional[int] = None,
    n_nodes: Optional[int] = None,
) -> PerfReport:
    """Run the full ``repro.perf`` pipeline over one event stream.

    *measured_time* is the experiment's reported processing time;
    defaulted to the trace-witnessed makespan.  *n_pus* / *n_nodes*
    come from the topology and make utilization and matrix sizing
    exact (otherwise both are inferred from the stream).
    """
    idx = ensure_index(events)
    return PerfReport(
        label=label,
        makespan=idx.makespan,
        measured_time=idx.makespan if measured_time is None else measured_time,
        n_events=idx.n_events,
        critical_path=extract_critical_path(idx),
        attribution=attribute_makespan(idx),
        groups=tuple(compute_counter_groups(idx, n_pus=n_pus, n_nodes=n_nodes)),
        matrix=traffic_matrix(idx, n_nodes=n_nodes),
    )
