"""Simulated PMU counters: LIKWID-style derived metric groups.

Real locality work leans on hardware counter groups — LIKWID's
``likwid-perfctr -g MEM`` / ``-g NUMA`` turn raw PMU events into a
handful of derived metrics (bandwidth, stall fraction, remote-traffic
ratio) that make placement effects legible.  The simulator has no PMU,
but it has something better: the complete span stream.  This module
computes the same *shape* of report — named groups of derived metrics —
purely from trace spans, no new instrumentation.

Groups
------
``CPU``
    PU occupation: busy seconds, per-PU utilization (avg/min/max),
    average parallelism, load imbalance (peak vs mean busy PU).
``STALL``
    Where threads were not making progress: lock-wait and run-queue
    seconds, the stall fraction of total thread-seconds.
``MEM``
    Traffic by sharing level: bytes, achieved bandwidth (bytes over
    transfer-seconds, contention included), stream rate (bytes over
    makespan).
``NUMA``
    Locality: node-local vs remote bytes, local fraction, remote
    stream rate.
``SCHED``
    OS-scheduler model: migrations, migration rate, cache-refill
    penalty seconds and their share of compute.

All metrics are pure functions of the event stream (plus optionally the
PU/node counts of the topology, for "PUs used / PUs total" style
ratios), so they are deterministic and comparable across runs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from repro.observe.tracer import TraceEvent
from repro.perf.spans import TraceIndex, ensure_index
from repro.topology.objects import OFF_NODE_LEVELS, ObjType

#: Sharing levels (``TraceEvent.level``) that keep traffic inside one
#: NUMA node: every level but :data:`~repro.topology.objects.
#: OFF_NODE_LEVELS`.  A transfer without a level counts as remote.
LOCAL_LEVELS = frozenset(t.name for t in ObjType if t not in OFF_NODE_LEVELS)


@dataclass(frozen=True)
class Metric:
    """One derived metric: a name, a value, and the unit it is in."""

    name: str
    value: float
    unit: str = ""


@dataclass(frozen=True)
class CounterGroup:
    """A named group of derived metrics (one LIKWID-style table)."""

    name: str
    title: str
    metrics: tuple[Metric, ...]

    def get(self, name: str) -> float:
        for m in self.metrics:
            if m.name == name:
                return m.value
        raise KeyError(f"no metric {name!r} in group {self.name}")

    def to_json_dict(self) -> dict:
        return {
            "name": self.name,
            "title": self.title,
            # A list, not a name-keyed dict: metric order is part of the
            # rendering contract and must survive sort_keys round trips.
            "metrics": [
                {"name": m.name, "value": m.value, "unit": m.unit}
                for m in self.metrics
            ],
        }

    def render(self) -> str:
        head = f"Group {self.name} — {self.title}"
        width = max([len(m.name) for m in self.metrics] + [24])
        lines = [head, "-" * len(head)]
        for m in self.metrics:
            if m.unit == "%":
                val = f"{m.value:.2%}".replace("%", " %")
            else:
                val = f"{m.value:.6g}" + (f" {m.unit}" if m.unit else "")
            lines.append(f"  {m.name:<{width}} {val}")
        return "\n".join(lines)


def _pct(num: float, den: float) -> float:
    return num / den if den > 0 else 0.0


def compute_counter_groups(
    events: "Sequence[TraceEvent] | TraceIndex",
    n_pus: Optional[int] = None,
    n_nodes: Optional[int] = None,
) -> list[CounterGroup]:
    """Derive all counter groups from one run's event stream."""
    idx = ensure_index(events)
    makespan = idx.makespan
    busy_by_pu = idx.busy_by_pu
    wait = idx.dur_by_kind.get("wait", 0.0)
    runq = idx.dur_by_kind.get("runq", 0.0)
    bytes_by_level = idx.bytes_by_level
    secs_by_level = idx.secs_by_level
    n_migrations = idx.count_by_kind.get("migration", 0)
    migration_penalty = idx.dur_by_kind.get("migration", 0.0)
    transfer_secs = idx.dur_by_kind.get("transfer", 0.0)

    pus_used = len(busy_by_pu)
    pus_total = n_pus if n_pus is not None else pus_used
    busy_total = idx.work_time
    utils = sorted(_pct(b, makespan) for b in busy_by_pu.values())
    avg_util = _pct(busy_total, makespan * pus_total) if pus_total else 0.0
    thread_seconds = idx.serial_time

    groups = [
        CounterGroup(
            "CPU",
            "PU occupation",
            (
                Metric("busy seconds (all PUs)", busy_total, "s"),
                Metric("makespan", makespan, "s"),
                Metric("PUs used", float(pus_used)),
                Metric("PUs total", float(pus_total)),
                Metric("utilization avg (of total PUs)", avg_util, "%"),
                Metric("utilization min (used PUs)",
                       utils[0] if utils else 0.0, "%"),
                Metric("utilization max (used PUs)",
                       utils[-1] if utils else 0.0, "%"),
                Metric("avg parallelism", _pct(busy_total, makespan)),
                Metric(
                    "load imbalance (peak/mean - 1)",
                    _pct(utils[-1], sum(utils) / len(utils)) - 1.0
                    if utils else 0.0,
                    "%",
                ),
            ),
        ),
        CounterGroup(
            "STALL",
            "lock waits and run-queue time",
            (
                Metric("lock-wait seconds", wait, "s"),
                Metric("runq seconds", runq, "s"),
                Metric("thread-seconds total", thread_seconds, "s"),
                Metric("stall fraction", _pct(wait + runq, thread_seconds), "%"),
                Metric("runq share of stalls", _pct(runq, wait + runq), "%"),
            ),
        ),
    ]

    mem_metrics: list[Metric] = []
    total_bytes = sum(bytes_by_level.values())
    for level in sorted(bytes_by_level):
        nbytes = bytes_by_level[level]
        secs = secs_by_level.get(level, 0.0)
        mem_metrics.append(Metric(f"bytes [{level}]", nbytes, "B"))
        mem_metrics.append(
            Metric(f"bandwidth [{level}]", _pct(nbytes, secs) / 1e9, "GB/s")
        )
        mem_metrics.append(
            Metric(f"stream rate [{level}]", _pct(nbytes, makespan) / 1e9, "GB/s")
        )
    mem_metrics.append(Metric("bytes total", total_bytes, "B"))
    mem_metrics.append(
        Metric("bandwidth total", _pct(total_bytes, transfer_secs) / 1e9, "GB/s")
    )
    groups.append(CounterGroup("MEM", "traffic by sharing level",
                               tuple(mem_metrics)))

    local_bytes = sum(
        v for lv, v in bytes_by_level.items() if lv in LOCAL_LEVELS
    )
    remote_bytes = total_bytes - local_bytes
    groups.append(
        CounterGroup(
            "NUMA",
            "locality of traffic",
            (
                Metric("node-local bytes", local_bytes, "B"),
                Metric("remote bytes", remote_bytes, "B"),
                Metric("local fraction",
                       _pct(local_bytes, total_bytes) if total_bytes else 1.0,
                       "%"),
                Metric("remote stream rate",
                       _pct(remote_bytes, makespan) / 1e9, "GB/s"),
                Metric("nodes", float(n_nodes) if n_nodes is not None else 0.0),
            ),
        )
    )

    groups.append(
        CounterGroup(
            "SCHED",
            "OS-scheduler model",
            (
                Metric("migrations", float(n_migrations)),
                Metric("migration rate", _pct(n_migrations, makespan), "1/s"),
                Metric("migration penalty seconds", migration_penalty, "s"),
                Metric("penalty share of work",
                       _pct(migration_penalty, busy_total), "%"),
            ),
        )
    )
    return groups


def render_counter_groups(groups: Sequence[CounterGroup]) -> str:
    return "\n\n".join(g.render() for g in groups)
