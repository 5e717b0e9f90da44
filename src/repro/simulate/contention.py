"""Bandwidth-contention model.

Placement changes *who shares which link*; contention is what turns that
sharing into time.  The model tracks in-flight transfers per contended
resource and stretches a new transfer's duration by the load it sees:

* each NUMA node's **memory controller** is a resource — every transfer
  whose data crosses that node's DRAM (producer side) loads it;
* the global **interconnect** is a resource — every transfer whose LCA
  is above NUMANODE loads it.

A resource with capacity *c* and *k* in-flight transfers slows a new
transfer by ``max(1, (k + 1) / c)``.  The load is sampled at transfer
start — a standard DES approximation that keeps the model O(1) per
transfer while still producing the collapse-under-load behaviour that
makes topology-blind placements lose at scale.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.topology.objects import OFF_NODE_LEVELS, ObjType
from repro.util.validate import check_positive


@dataclass(frozen=True)
class ContentionConfig:
    """Capacities (simultaneous full-speed transfers) per resource.

    ``saturation_exponent`` makes overload superlinear: a resource at
    ``k`` times its capacity slows transfers by ``k**exponent``.  Real
    DRAM controllers and interconnects degrade faster than linearly once
    saturated (queueing delay, row-buffer thrashing); the exponent is
    what makes a single-node hotspot — OpenMP's master-node first-touch
    — stop scaling instead of merely plateauing.
    """

    #: concurrent streams one NUMA node's memory controller sustains.
    node_capacity: float = 28.0
    #: concurrent streams the global interconnect sustains.
    interconnect_capacity: float = 40.0
    #: overload exponent (1.0 = proportional sharing).
    saturation_exponent: float = 1.3

    def __post_init__(self) -> None:
        check_positive(self.node_capacity, "node_capacity")
        check_positive(self.interconnect_capacity, "interconnect_capacity")
        if self.saturation_exponent < 1.0:
            raise ValueError(
                f"saturation_exponent must be >= 1, got {self.saturation_exponent}"
            )


#: Levels whose transfers cross a NUMA node's DRAM controller / the
#: global interconnect.  Frozen sets resolved once at import: the
#: membership tests below run on every transfer of every simulation.
_DRAM_LEVELS = OFF_NODE_LEVELS | {ObjType.NUMANODE}
_INTERCONNECT_LEVELS = OFF_NODE_LEVELS


class ContentionModel:
    """In-flight transfer bookkeeping and slowdown computation."""

    def __init__(self, n_nodes: int, config: ContentionConfig | None = None) -> None:
        if n_nodes < 0:
            raise ValueError(f"n_nodes must be >= 0, got {n_nodes}")
        self.config = config or ContentionConfig()
        self._node_inflight = [0] * max(n_nodes, 1)
        self._interconnect_inflight = 0

    # A transfer is summarized by (level, producer_node): which resources
    # it loads.  NUMANODE-level transfers hit one memory controller;
    # wider transfers hit the producer's controller AND the interconnect.

    def slowdown(self, level: ObjType, producer_node: int) -> float:
        """Multiplicative stretch a transfer starting now experiences."""
        exp = self.config.saturation_exponent
        factor = 1.0
        if level in _DRAM_LEVELS and producer_node >= 0:
            k = self._node_inflight[producer_node]
            overload = (k + 1) / self.config.node_capacity
            if overload > 1.0:
                factor = max(factor, overload**exp)
        if level in _INTERCONNECT_LEVELS:
            k = self._interconnect_inflight
            overload = (k + 1) / self.config.interconnect_capacity
            if overload > 1.0:
                factor = max(factor, overload**exp)
        return factor

    def begin(self, level: ObjType, producer_node: int) -> None:
        """Register a transfer as in-flight."""
        if level in _DRAM_LEVELS and producer_node >= 0:
            self._node_inflight[producer_node] += 1
        if level in _INTERCONNECT_LEVELS:
            self._interconnect_inflight += 1

    def end(self, level: ObjType, producer_node: int) -> None:
        """Unregister a finished transfer."""
        if level in _DRAM_LEVELS and producer_node >= 0:
            self._node_inflight[producer_node] -= 1
            assert self._node_inflight[producer_node] >= 0
        if level in _INTERCONNECT_LEVELS:
            self._interconnect_inflight -= 1
            assert self._interconnect_inflight >= 0

    @property
    def interconnect_inflight(self) -> int:
        return self._interconnect_inflight

    def node_inflight(self, node: int) -> int:
        return self._node_inflight[node]
