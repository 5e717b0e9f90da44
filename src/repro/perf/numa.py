"""NUMA traffic matrices: node x node bytes and transfer-seconds.

Wittmann & Hager's ccNUMA task study makes the case that *per-node
traffic attribution* — not aggregate bandwidth — is the quantity that
diagnoses placement.  The tracer gives us exactly that: every transfer
span records the consumer's NUMA node (``node``) and the producer's
(``detail="from-node:N"``), so the stream folds into a directed
``producer x consumer`` matrix of bytes and of transfer-seconds.

The matrix reconciles with the aggregate counters (audited by the
``numa-traffic-reconciliation`` invariant): its total equals
``bytes_by_level``'s total, its diagonal the node-local levels
(NUMANODE and below), its off-diagonal the GROUP/MACHINE traffic.

Rendering: a numeric grid for small machines, a shaded character
heatmap for big ones (a 512-node matrix still fits a terminal), both
with row/column totals.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from repro.observe.tracer import TraceEvent
from repro.perf.spans import TraceIndex, ensure_index

#: Shade ramp for the character heatmap, lightest to darkest.
SHADES = " .:-=+*#%@"

_FROM_NODE = "from-node:"


@dataclass
class TrafficMatrix:
    """Directed node-to-node traffic of one run.

    ``bytes[src, dst]`` / ``seconds[src, dst]`` hold the payload bytes
    and transfer durations of transfers whose producer lived on NUMA
    node ``src`` and consumer on ``dst``.  Transfers with an unknown
    endpoint (a node index of -1, which a healthy run never produces)
    are kept out of the matrix and reported in ``unattributed_bytes``.
    """

    n_nodes: int
    bytes: np.ndarray = field(default_factory=lambda: np.zeros((0, 0)))
    seconds: np.ndarray = field(default_factory=lambda: np.zeros((0, 0)))
    n_transfers: int = 0
    unattributed_bytes: float = 0.0

    # -- totals -------------------------------------------------------------

    @property
    def total_bytes(self) -> float:
        return float(self.bytes.sum())

    @property
    def local_bytes(self) -> float:
        """Diagonal: traffic that stayed inside one node."""
        return float(np.trace(self.bytes))

    @property
    def remote_bytes(self) -> float:
        return self.total_bytes - self.local_bytes

    @property
    def local_fraction(self) -> float:
        total = self.total_bytes
        return self.local_bytes / total if total > 0 else 1.0

    def row_sums(self) -> np.ndarray:
        """Bytes produced per node (outbound, diagonal included)."""
        return self.bytes.sum(axis=1)

    def col_sums(self) -> np.ndarray:
        """Bytes consumed per node (inbound, diagonal included)."""
        return self.bytes.sum(axis=0)

    def hottest_link(self) -> tuple[int, int, float]:
        """``(src, dst, bytes)`` of the heaviest off-diagonal link
        (``(-1, -1, 0.0)`` when there is no remote traffic)."""
        if self.n_nodes == 0:
            return (-1, -1, 0.0)
        off = self.bytes.copy()
        np.fill_diagonal(off, 0.0)
        flat = int(off.argmax())
        src, dst = divmod(flat, self.n_nodes)
        top = float(off[src, dst])
        if top <= 0.0:
            return (-1, -1, 0.0)
        return (src, dst, top)

    def to_json_dict(self) -> dict:
        return {
            "n_nodes": self.n_nodes,
            "bytes": [[float(v) for v in row] for row in self.bytes],
            "seconds": [[float(v) for v in row] for row in self.seconds],
            "n_transfers": self.n_transfers,
            "unattributed_bytes": self.unattributed_bytes,
            "total_bytes": self.total_bytes,
            "local_bytes": self.local_bytes,
            "remote_bytes": self.remote_bytes,
            "local_fraction": self.local_fraction,
        }

    @classmethod
    def from_json_dict(cls, d: dict) -> "TrafficMatrix":
        n = int(d["n_nodes"])
        return cls(
            n_nodes=n,
            bytes=np.asarray(d["bytes"], dtype=float).reshape(n, n),
            seconds=np.asarray(d["seconds"], dtype=float).reshape(n, n),
            n_transfers=int(d.get("n_transfers", 0)),
            unattributed_bytes=float(d.get("unattributed_bytes", 0.0)),
        )


def producer_node_of(ev: TraceEvent) -> int:
    """The producer node a transfer's bytes came from (-1 if untagged):
    the one parser of the ``from-node:N`` detail."""
    if ev.detail.startswith(_FROM_NODE):
        try:
            return int(ev.detail[len(_FROM_NODE):])
        except ValueError:
            return -1
    return -1


def traffic_matrix(
    events: "Sequence[TraceEvent] | TraceIndex",
    n_nodes: Optional[int] = None,
) -> TrafficMatrix:
    """Fold a run's transfer spans into a :class:`TrafficMatrix`.

    The matrix is a *multiset* aggregate: any permutation of the event
    stream produces the identical matrix.  *n_nodes* (the topology's
    node count) sizes the matrix; omitted, the largest node index seen
    in the stream sizes it.

    One pass parses each transfer's producer node and sums its bytes
    and seconds per ``(src, dst)`` pair in emission order; the arrays
    are filled once at the end.
    """
    sums: dict[tuple[int, int], list[float]] = {}
    n_transfers = 0
    unattributed = 0.0
    max_node = -1
    for ev in ensure_index(events).spans:
        if ev.kind != "transfer":
            continue
        n_transfers += 1
        src = producer_node_of(ev)
        dst = ev.node
        if src > max_node:
            max_node = src
        if dst > max_node:
            max_node = dst
        if src < 0 or dst < 0:
            unattributed += ev.nbytes
            continue
        cell = sums.get((src, dst))
        if cell is None:
            cell = sums[src, dst] = [0.0, 0.0]
        cell[0] += ev.nbytes
        cell[1] += ev.dur
    n = max(n_nodes or 0, max_node + 1)
    tm = TrafficMatrix(
        n_nodes=n,
        bytes=np.zeros((n, n)),
        seconds=np.zeros((n, n)),
        n_transfers=n_transfers,
        unattributed_bytes=unattributed,
    )
    if sums:
        rows, cols = zip(*sums)
        cells = np.array(list(sums.values()))
        tm.bytes[rows, cols] = cells[:, 0]
        tm.seconds[rows, cols] = cells[:, 1]
    return tm


def _human_bytes(v: float) -> str:
    for unit in ("B", "K", "M", "G", "T"):
        if abs(v) < 1024.0 or unit == "T":
            return f"{v:.0f}{unit}" if unit == "B" else f"{v:.1f}{unit}"
        v /= 1024.0
    return f"{v:.1f}T"  # pragma: no cover - unreachable


def _shade(v: float, vmax: float) -> str:
    if v <= 0.0 or vmax <= 0.0:
        return SHADES[0]
    # Log scale: traffic spans orders of magnitude between cache-local
    # and cross-machine links.
    frac = 1.0 + np.log10(max(v / vmax, 1e-9)) / 9.0
    i = int(round(frac * (len(SHADES) - 1)))
    return SHADES[max(1, min(i, len(SHADES) - 1))]


def render_heatmap(
    tm: TrafficMatrix,
    value: str = "bytes",
    title: str = "",
    numeric_limit: int = 12,
) -> str:
    """ASCII heatmap of a traffic matrix.

    Machines with at most *numeric_limit* nodes get a numeric grid
    (human-readable byte counts); larger ones a one-character-per-cell
    shade map with a log-scale legend.  Rows are producer nodes,
    columns consumer nodes; both renderings append row totals.
    """
    if value not in ("bytes", "seconds"):
        raise ValueError(f"value must be 'bytes' or 'seconds', got {value!r}")
    m = tm.bytes if value == "bytes" else tm.seconds
    n = tm.n_nodes
    head = title or (
        f"NUMA traffic ({value}) — {n} nodes, rows=producer, cols=consumer"
    )
    lines = [head, "=" * len(head)]
    if n == 0:
        lines.append("(no transfers)")
        return "\n".join(lines)
    fmt = _human_bytes if value == "bytes" else lambda v: f"{v:.3g}"
    if n <= numeric_limit:
        cell_w = max(8, *(len(fmt(float(v))) + 1 for v in m.flat))
        header = " " * 5 + "".join(f"{j:>{cell_w}}" for j in range(n))
        lines.append(header + f" {'total':>{cell_w}}")
        for i in range(n):
            row = "".join(f"{fmt(float(m[i, j])):>{cell_w}}" for j in range(n))
            lines.append(f"{i:>4} {row} {fmt(float(m[i].sum())):>{cell_w}}")
        lines.append(
            " " * 4
            + " "
            + "".join(f"{fmt(float(m[:, j].sum())):>{cell_w}}" for j in range(n))
            + f" {fmt(float(m.sum())):>{cell_w}}"
        )
    else:
        vmax = float(m.max())
        lines.append("     " + "".join(str(j % 10) for j in range(n)))
        for i in range(n):
            cells = "".join(_shade(float(m[i, j]), vmax) for j in range(n))
            lines.append(f"{i:>4} {cells} {fmt(float(m[i].sum()))}")
        lines.append(
            f"scale: '{SHADES[1]}' ~ {fmt(vmax * 1e-9)} … '{SHADES[-1]}' = "
            f"{fmt(vmax)} (log)"
        )
    if value == "bytes":
        lines.append(
            f"local {tm.local_fraction:.1%} of {_human_bytes(tm.total_bytes)} "
            f"({tm.n_transfers} transfers)"
        )
        src, dst, top = tm.hottest_link()
        if top > 0.0:
            lines.append(f"hottest remote link: {src} -> {dst} "
                         f"({_human_bytes(top)})")
    return "\n".join(lines)
