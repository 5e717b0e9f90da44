"""Synthetic topology construction.

Real deployments would load the topology from hwloc; here we build it
synthetically, the way ``hwloc --input "package:24 core:8 pu:1"`` does.
Two entry points:

* :class:`TopologyBuilder` — explicit, programmatic tree assembly.
* :func:`from_spec` — parse an hwloc-style synthetic description string
  such as ``"numa:4 package:2 l3:1 core:8 pu:2"``.

Default cache/memory attributes are attached so the simulator's memory
model always has sizes and latencies to work with; they can be overridden
per level.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.topology.objects import (
    CacheAttributes,
    MemoryAttributes,
    ObjType,
    TopologyObject,
)
from repro.topology.tree import Topology, TopologyError

#: Default cache attributes per cache level (sizes typical of the 2016 era
#: Xeon machines the paper used: 32 KiB L1d, 256 KiB L2, 20 MiB shared L3).
DEFAULT_CACHE_ATTRS: dict[ObjType, CacheAttributes] = {
    ObjType.L3: CacheAttributes(size=20 * 1024 * 1024, line_size=64, latency=12e-9),
    ObjType.L2: CacheAttributes(size=256 * 1024, line_size=64, latency=4e-9),
    ObjType.L1: CacheAttributes(size=32 * 1024, line_size=64, latency=1.2e-9),
}

#: Default per-NUMA-node memory: 32 GiB at ~90 ns / ~40 GB/s.
DEFAULT_MEMORY_ATTRS = MemoryAttributes(
    local_bytes=32 * 1024 * 1024 * 1024, latency=90e-9, bandwidth=40e9
)

_SPEC_TYPE_NAMES: dict[str, ObjType] = {
    "machine": ObjType.MACHINE,
    "group": ObjType.GROUP,
    "numa": ObjType.NUMANODE,
    "numanode": ObjType.NUMANODE,
    "node": ObjType.NUMANODE,
    "package": ObjType.PACKAGE,
    "socket": ObjType.PACKAGE,
    "l3": ObjType.L3,
    "l2": ObjType.L2,
    "l1": ObjType.L1,
    "core": ObjType.CORE,
    "pu": ObjType.PU,
}


@dataclass
class LevelSpec:
    """One level of a synthetic topology: *count* children of *type_* per parent."""

    type_: ObjType
    count: int
    cache: Optional[CacheAttributes] = None
    memory: Optional[MemoryAttributes] = None

    def __post_init__(self) -> None:
        if self.count <= 0:
            raise TopologyError(f"level count must be > 0, got {self.count}")


class TopologyBuilder:
    """Assemble a balanced topology level by level.

    Example
    -------
    The paper's 24-socket, 8-core, 192-PU SMP::

        topo = (TopologyBuilder("paper-smp")
                .add_level(ObjType.NUMANODE, 24)
                .add_level(ObjType.PACKAGE, 1)
                .add_level(ObjType.L3, 1)
                .add_level(ObjType.CORE, 8)
                .add_level(ObjType.PU, 1)
                .build())
    """

    def __init__(self, name: str = "synthetic") -> None:
        self.name = name
        self._levels: list[LevelSpec] = []

    def add_level(
        self,
        type_: ObjType,
        count: int,
        cache: Optional[CacheAttributes] = None,
        memory: Optional[MemoryAttributes] = None,
    ) -> "TopologyBuilder":
        """Append a level: every object of the previous level gets *count*
        children of *type_*.  Returns ``self`` for chaining."""
        if type_ is ObjType.MACHINE:
            raise TopologyError("MACHINE is implicit; do not add it as a level")
        if self._levels:
            prev = self._levels[-1].type_
            if type_ <= prev and type_ is not ObjType.GROUP:
                raise TopologyError(
                    f"level {type_.name} cannot nest inside {prev.name}"
                )
            if prev is ObjType.PU:
                raise TopologyError("PU must be the innermost level")
        self._levels.append(LevelSpec(type_, count, cache=cache, memory=memory))
        return self

    def build(self) -> Topology:
        """Materialize the tree and return the finalized :class:`Topology`."""
        if not self._levels:
            raise TopologyError("no levels specified")
        if self._levels[-1].type_ is not ObjType.PU:
            raise TopologyError(
                f"innermost level must be PU, got {self._levels[-1].type_.name}"
            )
        root = TopologyObject(ObjType.MACHINE, name=self.name)
        frontier = [root]
        for spec in self._levels:
            next_frontier: list[TopologyObject] = []
            for parent in frontier:
                for _ in range(spec.count):
                    obj = TopologyObject(spec.type_)
                    if spec.type_.is_cache:
                        obj.cache = spec.cache or DEFAULT_CACHE_ATTRS[spec.type_]
                    if spec.type_ is ObjType.NUMANODE:
                        obj.memory = spec.memory or DEFAULT_MEMORY_ATTRS
                    parent.add_child(obj)
                    next_frontier.append(obj)
            frontier = next_frontier
        return Topology(root, name=self.name)


def from_spec(spec: str, name: str = "") -> Topology:
    """Parse an hwloc-style synthetic description.

    *spec* is a whitespace-separated list of ``type:count`` terms, outermost
    first, e.g. ``"numa:24 package:1 l3:1 core:8 pu:1"``.  A bare integer
    term is shorthand for an anonymous GROUP level, as in hwloc.  The
    innermost term must be a ``pu`` level.
    """
    levels: list[tuple[ObjType, int]] = []
    for term in spec.split():
        if ":" in term:
            tname, _, cnt_s = term.partition(":")
            tname = tname.strip().lower()
            if tname not in _SPEC_TYPE_NAMES:
                raise TopologyError(f"unknown object type {tname!r} in spec {spec!r}")
            type_ = _SPEC_TYPE_NAMES[tname]
        else:
            cnt_s = term
            type_ = ObjType.GROUP
        try:
            count = int(cnt_s)
        except ValueError:
            raise TopologyError(f"bad count in term {term!r}") from None
        levels.append((type_, count))
    if not levels:
        raise TopologyError("empty synthetic spec")
    builder = TopologyBuilder(name or spec)
    for type_, count in levels:
        builder.add_level(type_, count)
    return builder.build()


def flat_topology(n_pus: int, name: str = "flat") -> Topology:
    """A machine with *n_pus* PUs directly under one core level.

    Useful in unit tests where hierarchy is irrelevant.
    """
    if n_pus <= 0:
        raise TopologyError(f"n_pus must be > 0, got {n_pus}")
    return (
        TopologyBuilder(name)
        .add_level(ObjType.CORE, n_pus)
        .add_level(ObjType.PU, 1)
        .build()
    )
