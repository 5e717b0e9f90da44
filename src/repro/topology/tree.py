"""The :class:`Topology` container: a finalized, queryable topology tree.

A :class:`Topology` wraps a root :class:`~repro.topology.objects.TopologyObject`
(type ``MACHINE``) once building is complete.  Finalization assigns depths,
logical indices, cpusets, and per-depth level lists, after which the tree
is treated as immutable.  This mirrors how an ``hwloc_topology_t`` is
loaded once and then only queried.

The TreeMatch algorithm consumes topologies through :meth:`Topology.arities`
and :meth:`Topology.leaves`; the simulator consumes them through the
distance and cache queries in :mod:`repro.topology.distance` and
:mod:`repro.topology.query`.
"""

from __future__ import annotations

from typing import Iterator, Optional, Sequence

from repro.topology.cpuset import CpuSet
from repro.topology.objects import ObjType, TopologyObject
from repro.util.errors import ReproError


class TopologyError(ReproError, ValueError):
    """Raised for structurally invalid topologies or bad queries."""


class Topology:
    """A finalized topology tree.

    Parameters
    ----------
    root:
        The ``MACHINE`` object at the top of the tree.  The constructor
        finalizes the tree in place: depths, logical indices per type,
        PU os_index assignment (left-to-right if missing) and cpusets.
    name:
        Optional human-readable machine name.
    """

    def __init__(self, root: TopologyObject, name: str = "") -> None:
        if root.type is not ObjType.MACHINE:
            raise TopologyError(f"root must be MACHINE, got {root.type.name}")
        if root.parent is not None:
            raise TopologyError("root must not have a parent")
        self._root = root
        self.name = name or root.name or "machine"
        self._levels: list[list[TopologyObject]] = []
        self._pus: list[TopologyObject] = []
        self._by_type: dict[ObjType, list[TopologyObject]] = {}
        self._finalize()

    # -- finalization ----------------------------------------------------------

    def _finalize(self) -> None:
        # Depth-first walk assigning depths and collecting levels.
        levels: list[list[TopologyObject]] = []

        def visit(node: TopologyObject, depth: int) -> None:
            node.depth = depth
            while len(levels) <= depth:
                levels.append([])
            levels[depth].append(node)
            for child in node.children:
                visit(child, depth + 1)

        visit(self._root, 0)
        self._levels = levels

        # Validate uniformity: all leaves must be PUs at the same depth.
        leaf_depths = {n.depth for lvl in levels for n in lvl if n.is_leaf}
        if len(leaf_depths) != 1:
            raise TopologyError(
                f"topology must be leaf-uniform: leaves found at depths {sorted(leaf_depths)}"
            )
        for lvl in levels:
            for n in lvl:
                if n.is_leaf and n.type is not ObjType.PU:
                    raise TopologyError(f"leaf object of type {n.type.name}; leaves must be PU")
                if n.type is ObjType.PU and not n.is_leaf:
                    raise TopologyError("PU objects must be leaves")

        # Per-type logical indices in tree order and PU os_index fallback.
        self._by_type = {}
        for lvl in levels:
            for n in lvl:
                bucket = self._by_type.setdefault(n.type, [])
                n.logical_index = len(bucket)
                bucket.append(n)
        self._pus = self._by_type.get(ObjType.PU, [])
        seen_os: set[int] = set()
        for pu in self._pus:
            if pu.os_index is None:
                pu.os_index = pu.logical_index
            if pu.os_index in seen_os:
                raise TopologyError(f"duplicate PU os_index {pu.os_index}")
            seen_os.add(pu.os_index)

        # Bottom-up cpuset computation.
        def fill_cpuset(node: TopologyObject) -> CpuSet:
            if node.type is ObjType.PU:
                assert node.os_index is not None
                node.cpuset = CpuSet.singleton(node.os_index)
            else:
                cs = CpuSet()
                for child in node.children:
                    cs = cs | fill_cpuset(child)
                node.cpuset = cs
            return node.cpuset

        fill_cpuset(self._root)
        if self._root.cpuset.weight() != len(self._pus):
            raise TopologyError("overlapping PU os indices")

    # -- basic accessors --------------------------------------------------------

    @property
    def root(self) -> TopologyObject:
        return self._root

    @property
    def depth(self) -> int:
        """Number of levels (the PU level is ``depth - 1``)."""
        return len(self._levels)

    @property
    def nb_pus(self) -> int:
        return len(self._pus)

    @property
    def cpuset(self) -> CpuSet:
        """The complete cpuset of the machine."""
        return self._root.cpuset

    def objects_at_depth(self, depth: int) -> Sequence[TopologyObject]:
        """All objects at *depth*, left-to-right."""
        if not 0 <= depth < len(self._levels):
            raise TopologyError(f"depth {depth} out of range [0, {len(self._levels)})")
        return tuple(self._levels[depth])

    def nbobjs_at_depth(self, depth: int) -> int:
        return len(self.objects_at_depth(depth))

    def objects_by_type(self, type_: ObjType) -> Sequence[TopologyObject]:
        """All objects of *type_* in logical order (may be empty)."""
        return tuple(self._by_type.get(type_, ()))

    def nbobjs_by_type(self, type_: ObjType) -> int:
        return len(self._by_type.get(type_, ()))

    def type_depth(self, type_: ObjType) -> Optional[int]:
        """The depth at which *type_* lives, or ``None`` if absent.

        Raises :class:`TopologyError` if the type appears at multiple
        depths (possible with asymmetric GROUP usage).
        """
        objs = self._by_type.get(type_)
        if not objs:
            return None
        depths = {o.depth for o in objs}
        if len(depths) > 1:
            raise TopologyError(f"type {type_.name} appears at multiple depths {sorted(depths)}")
        return depths.pop()

    # -- PU-level queries ----------------------------------------------------------

    def pus(self) -> Sequence[TopologyObject]:
        """All PU objects in logical (left-to-right) order."""
        return tuple(self._pus)

    def pu_by_os_index(self, os_index: int) -> TopologyObject:
        for pu in self._pus:
            if pu.os_index == os_index:
                return pu
        raise TopologyError(f"no PU with os_index {os_index}")

    def pu_by_logical_index(self, logical_index: int) -> TopologyObject:
        if not 0 <= logical_index < len(self._pus):
            raise TopologyError(f"PU logical index {logical_index} out of range")
        return self._pus[logical_index]

    # -- structural queries ------------------------------------------------------

    def arities(self) -> list[int]:
        """Per-level arity vector, validated to be uniform per level.

        ``arities()[d]`` is the number of children each object at depth
        *d* has; the PU level is excluded (its arity is 0).  TreeMatch
        requires a balanced tree; this raises :class:`TopologyError` on
        non-uniform levels (use
        :func:`repro.treematch.oversubscription.balance` first).
        """
        out: list[int] = []
        for depth in range(len(self._levels) - 1):
            arities = {n.arity for n in self._levels[depth]}
            if len(arities) != 1:
                raise TopologyError(
                    f"non-uniform arity at depth {depth}: {sorted(arities)}"
                )
            out.append(arities.pop())
        return out

    def leaves(self) -> Sequence[TopologyObject]:
        """The PU objects (synonym used by the mapping code)."""
        return self.pus()

    def common_ancestor(self, a: TopologyObject, b: TopologyObject) -> TopologyObject:
        """Lowest common ancestor of two objects of this topology."""
        if a is b:
            return a
        chain = {id(a)}
        node: Optional[TopologyObject] = a
        while node is not None:
            chain.add(id(node))
            node = node.parent
        node = b
        while node is not None:
            if id(node) in chain:
                return node
            node = node.parent
        raise TopologyError("objects do not share a root (different topologies?)")

    def common_ancestor_depth(self, pu_a: int, pu_b: int) -> int:
        """Depth of the lowest common ancestor of two PUs (by os_index)."""
        a = self.pu_by_os_index(pu_a)
        b = self.pu_by_os_index(pu_b)
        return self.common_ancestor(a, b).depth

    def numa_node_of(self, pu_os_index: int) -> Optional[TopologyObject]:
        """The NUMANode containing a PU, or ``None`` if the tree has none."""
        pu = self.pu_by_os_index(pu_os_index)
        for anc in pu.ancestors():
            if anc.type is ObjType.NUMANODE:
                return anc
        return None

    def package_of(self, pu_os_index: int) -> Optional[TopologyObject]:
        """The Package (socket) containing a PU, or ``None``."""
        pu = self.pu_by_os_index(pu_os_index)
        for anc in pu.ancestors():
            if anc.type is ObjType.PACKAGE:
                return anc
        return None

    def core_of(self, pu_os_index: int) -> Optional[TopologyObject]:
        """The Core containing a PU, or ``None`` (PU-only trees)."""
        pu = self.pu_by_os_index(pu_os_index)
        for anc in pu.ancestors():
            if anc.type is ObjType.CORE:
                return anc
        return None

    def has_hyperthreading(self) -> bool:
        """True if any Core holds more than one PU."""
        return any(c.arity > 1 for c in self.objects_by_type(ObjType.CORE))

    def objects_inside(self, cpuset: CpuSet, type_: ObjType) -> list[TopologyObject]:
        """Objects of *type_* whose cpuset is fully inside *cpuset*."""
        return [o for o in self.objects_by_type(type_) if o.cpuset.issubset(cpuset)]

    # -- rendering -----------------------------------------------------------------

    def render(self) -> str:
        """ASCII rendering similar to ``lstopo --of console``."""
        lines: list[str] = []

        def visit(node: TopologyObject, indent: int) -> None:
            attrs = ""
            if node.cache is not None:
                attrs = f" ({node.cache.size // 1024} KiB)"
            elif node.memory is not None:
                attrs = f" ({node.memory.local_bytes // (1024 * 1024)} MiB)"
            lines.append("  " * indent + node.type_label() + attrs)
            for child in node.children:
                visit(child, indent + 1)

        visit(self._root, 0)
        return "\n".join(lines)

    def __repr__(self) -> str:
        return f"<Topology {self.name!r}: {self.nb_pus} PUs, depth {self.depth}>"

    def __iter__(self) -> Iterator[TopologyObject]:
        return self._root.subtree()
