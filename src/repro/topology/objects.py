"""Typed topology objects: the hwloc object model.

A machine is represented as a tree of :class:`TopologyObject` nodes whose
types come from :class:`ObjType` (Machine > NUMANode > Package > caches >
Core > PU), the same vocabulary hwloc uses.  Each object carries:

* ``type`` and a per-type ``logical_index`` (hwloc's logical index),
* an ``os_index`` for PUs and NUMA nodes (the OS-visible numbering),
* its :class:`~repro.topology.cpuset.CpuSet` (the PUs underneath it),
* optional :class:`CacheAttributes` / :class:`MemoryAttributes`.

Objects are mutable while a :class:`~repro.topology.builder.TopologyBuilder`
assembles the tree and should be treated as read-only afterwards.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Iterator, Optional

from repro.topology.cpuset import CpuSet, EMPTY


class ObjType(enum.IntEnum):
    """Topology object types, ordered from outermost to innermost.

    The integer order encodes the conventional nesting: a type with a
    smaller value can contain a type with a larger value.  This mirrors
    hwloc's ``hwloc_compare_types``.
    """

    MACHINE = 0
    GROUP = 1
    NUMANODE = 2
    PACKAGE = 3
    L3 = 4
    L2 = 5
    L1 = 6
    CORE = 7
    PU = 8

    @property
    def is_cache(self) -> bool:
        return self in (ObjType.L3, ObjType.L2, ObjType.L1)

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.name


#: Types that can appear between MACHINE and PU, outermost first.
CONTAINMENT_ORDER: tuple[ObjType, ...] = tuple(ObjType)

#: Sharing levels whose transfers cross a NUMA node boundary.  An LCA
#: of NUMANODE or below means both endpoints share one node's DRAM;
#: only GROUP- and MACHINE-level traffic is off-node.
OFF_NODE_LEVELS: frozenset[ObjType] = frozenset({ObjType.GROUP, ObjType.MACHINE})


@dataclass
class CacheAttributes:
    """Cache attributes (sizes in bytes, latency in seconds)."""

    size: int
    line_size: int = 64
    associativity: int = 8
    latency: float = 0.0

    def __post_init__(self) -> None:
        if self.size <= 0:
            raise ValueError(f"cache size must be > 0, got {self.size}")
        if self.line_size <= 0:
            raise ValueError(f"line size must be > 0, got {self.line_size}")


@dataclass
class MemoryAttributes:
    """Local memory attributes of a NUMA node."""

    local_bytes: int
    latency: float = 0.0
    bandwidth: float = 0.0

    def __post_init__(self) -> None:
        if self.local_bytes < 0:
            raise ValueError("local_bytes must be >= 0")


@dataclass(eq=False)
class TopologyObject:
    """One node of the topology tree.

    Identity semantics: two objects are equal only if they are the same
    object (``eq=False``), because a tree may legitimately contain many
    structurally identical siblings.
    """

    type: ObjType
    logical_index: int = 0
    os_index: Optional[int] = None
    name: str = ""
    cache: Optional[CacheAttributes] = None
    memory: Optional[MemoryAttributes] = None
    parent: Optional["TopologyObject"] = None
    children: list["TopologyObject"] = field(default_factory=list)
    cpuset: CpuSet = EMPTY
    depth: int = 0

    # -- structure -----------------------------------------------------------

    def add_child(self, child: "TopologyObject") -> "TopologyObject":
        """Attach *child* and return it (for chaining during building)."""
        if child.parent is not None:
            raise ValueError("child already has a parent")
        if child.type <= self.type and child.type is not ObjType.GROUP:
            raise ValueError(
                f"cannot nest {child.type.name} inside {self.type.name}: "
                "containment order violated"
            )
        child.parent = self
        self.children.append(child)
        return child

    @property
    def arity(self) -> int:
        """Number of direct children."""
        return len(self.children)

    @property
    def is_leaf(self) -> bool:
        return not self.children

    def ancestors(self) -> Iterator["TopologyObject"]:
        """Yield the parent chain from direct parent to the root."""
        node = self.parent
        while node is not None:
            yield node
            node = node.parent

    def descendants(self) -> Iterator["TopologyObject"]:
        """Yield all strict descendants in depth-first pre-order."""
        stack = list(reversed(self.children))
        while stack:
            node = stack.pop()
            yield node
            stack.extend(reversed(node.children))

    def subtree(self) -> Iterator["TopologyObject"]:
        """Yield this object then all descendants (pre-order)."""
        yield self
        yield from self.descendants()

    def leaves(self) -> Iterator["TopologyObject"]:
        """Yield leaf objects of the subtree in left-to-right order."""
        for node in self.subtree():
            if node.is_leaf:
                yield node

    def pus(self) -> Iterator["TopologyObject"]:
        """Yield the PU objects of the subtree in left-to-right order."""
        for node in self.subtree():
            if node.type is ObjType.PU:
                yield node

    # -- formatting -----------------------------------------------------------

    def type_label(self) -> str:
        """Human-readable label like ``"Package#3"`` or ``"PU#17"``."""
        idx = self.os_index if self.os_index is not None else self.logical_index
        return f"{self.type.name.capitalize()}#{idx}"

    def __repr__(self) -> str:
        return (
            f"<{self.type.name} L#{self.logical_index}"
            + (f" P#{self.os_index}" if self.os_index is not None else "")
            + (f" cpuset={self.cpuset.to_list_string()}" if self.cpuset else "")
            + ">"
        )
