"""Simulation counters.

One :class:`MachineMetrics` per machine run.  Everything the analysis
and EXPERIMENTS.md report comes from here: where bytes moved in the
hierarchy, how much time went to compute vs. transfers vs. lock waits,
and how often the OS-scheduler model migrated unbound threads.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from dataclasses import dataclass, field

from repro.topology.objects import OFF_NODE_LEVELS


@dataclass
class MachineMetrics:
    """Aggregated counters for one simulation run."""

    #: bytes transferred, keyed by the sharing level (LCA object type).
    bytes_by_level: Counter = field(default_factory=Counter)
    #: seconds spent in transfers, keyed by sharing level.
    transfer_time_by_level: defaultdict = field(
        default_factory=lambda: defaultdict(float)
    )
    #: total CPU seconds of Compute work executed.
    compute_time: float = 0.0
    #: total seconds threads spent parked on events (lock/barrier waits).
    wait_time: float = 0.0
    #: total seconds threads spent queued behind other threads on a PU.
    runq_time: float = 0.0
    #: number of OS-scheduler migrations of unbound threads.
    migrations: int = 0
    #: cache-refill penalty seconds charged after migrations.
    migration_penalty_time: float = 0.0
    #: number of transfers that were slowed by contention.
    contended_transfers: int = 0
    #: number of Receive/ReceiveFromNode operations.
    transfers: int = 0

    # -- recording ----------------------------------------------------------
    # The machine writes the per-event counters above in place, on its
    # compute, transfer and wake paths; a migration (rare) goes through
    # this hook.

    def record_migration(self, penalty: float) -> None:
        self.migrations += 1
        self.migration_penalty_time += penalty

    # -- derived -------------------------------------------------------------

    @property
    def total_bytes(self) -> float:
        return float(sum(self.bytes_by_level.values()))

    @property
    def remote_bytes(self) -> float:
        """Bytes that crossed a NUMA boundary (:data:`OFF_NODE_LEVELS`)."""
        return float(sum(self.bytes_by_level.get(t, 0) for t in OFF_NODE_LEVELS))

    @property
    def local_fraction(self) -> float:
        """Fraction of traffic kept inside a NUMA node (1.0 if no traffic)."""
        total = self.total_bytes
        if total == 0:
            return 1.0
        return 1.0 - self.remote_bytes / total

    def summary(self) -> dict[str, float]:
        """Flat dict for reports and EXPERIMENTS.md tables."""
        return {
            "compute_time": self.compute_time,
            "wait_time": self.wait_time,
            "runq_time": self.runq_time,
            "total_bytes": self.total_bytes,
            "remote_bytes": self.remote_bytes,
            "local_fraction": self.local_fraction,
            "migrations": float(self.migrations),
            "migration_penalty_time": self.migration_penalty_time,
            "transfers": float(self.transfers),
            "contended_transfers": float(self.contended_transfers),
        }

    def __repr__(self) -> str:
        return (
            f"<MachineMetrics compute={self.compute_time:.3g}s "
            f"wait={self.wait_time:.3g}s bytes={self.total_bytes:.3g} "
            f"local={self.local_fraction:.0%} migrations={self.migrations}>"
        )
