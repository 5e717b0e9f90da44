"""Distance, latency, and bandwidth matrices derived from the tree.

The simulator and the mapping-cost metrics both need "how far apart are
PU *i* and PU *j*".  Three related notions are provided:

* **hop distance** — ``depth(i) + depth(j) - 2 * depth(lca(i, j))``, the
  tree distance used by TreeMatch's cost analysis;
* **level distance** — the depth of the lowest common ancestor itself,
  which indexes the memory-hierarchy level a transfer lands in;
* **latency / bandwidth matrices** — physical cost numbers attached to
  each sharing level, the simulator's inputs.

All matrices are indexed by PU *logical* index (0..nb_pus-1), the same
indexing the mapping uses.  They are computed once per topology by a
vectorized per-level ancestor sweep — O(depth) numpy passes over the
P × P grid instead of the former pure-Python O(P^2) chain walk — so
even the multi-thousand-PU machines of the scaling study build in well
under a second.  Internally the model keeps the per-pair tables in the
narrowest dtype that fits (depths in int16, object types in int8),
which is what makes a 4096-PU machine cost tens of MB rather than a
GB-class set of int64 matrices.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple, Optional, Sequence

import numpy as np

from repro.topology.objects import ObjType, TopologyObject
from repro.topology.tree import Topology


def _ancestor_chain(obj: TopologyObject) -> list[TopologyObject]:
    chain = [obj]
    node = obj.parent
    while node is not None:
        chain.append(node)
        node = node.parent
    chain.reverse()  # root first
    return chain


def _ancestor_tables(topo: Topology) -> tuple[np.ndarray, np.ndarray]:
    """Per-PU ancestor tables: ``(ids, types)``, each shaped (P, depth+1).

    ``ids[i, d]`` is a dense integer naming the ancestor of PU *i* at
    tree depth *d* (column 0 is the machine root, the last column the PU
    itself); ``types[i, d]`` is that ancestor's :class:`ObjType` value.
    Topologies are leaf-uniform (every PU sits at the same depth), so
    the tables are rectangular.
    """
    pus = topo.pus()
    n = len(pus)
    depth = pus[0].depth + 1 if n else 1
    ids = np.empty((n, depth), dtype=np.int64)
    types = np.empty((n, depth), dtype=np.int8)
    seq: dict[int, int] = {}
    for i, pu in enumerate(pus):
        for d, obj in enumerate(_ancestor_chain(pu)):
            key = id(obj)
            num = seq.get(key)
            if num is None:
                num = seq[key] = len(seq)
            ids[i, d] = num
            types[i, d] = int(obj.type)
    return ids, types


def _lca_tables(topo: Topology) -> tuple[np.ndarray, np.ndarray]:
    """``(lca_depth, lca_type)`` pairwise PU tables, compact dtypes.

    ``lca_depth`` (int16) holds the tree depth of the lowest common
    ancestor (diagonal: the PU depth itself); ``lca_type`` (int8) its
    :class:`ObjType` value (diagonal: the PU type).  Computed as one
    cumulative same-ancestor mask refined level by level — a handful of
    vectorized P × P passes, no Python-level pair loop.
    """
    ids, types = _ancestor_tables(topo)
    n, depth = ids.shape
    lca_depth = np.zeros((n, n), dtype=np.int16)
    lca_type = np.zeros((n, n), dtype=np.int8)
    if n == 0:
        return lca_depth, lca_type
    lca_type[:] = types[0, 0]  # depth 0 is the shared machine root
    same = np.ones((n, n), dtype=bool)
    for d in range(1, depth):
        col = ids[:, d]
        same &= col[:, None] == col[None, :]
        lca_depth[same] = d
        lca_type = np.where(same, types[:, d][:, None], lca_type)
    return lca_depth, lca_type


def lca_depth_matrix(topo: Topology) -> np.ndarray:
    """Matrix ``L[i, j]`` = depth of the lowest common ancestor of PUs i, j.

    Indexed by PU logical index.  Diagonal holds the PU depth itself.
    """
    return _lca_tables(topo)[0].astype(np.int64)


def hop_distance_matrix(topo: Topology) -> np.ndarray:
    """Tree hop distance between PUs: ``d(i)+d(j)-2*d(lca)``."""
    lca = lca_depth_matrix(topo)
    pus = topo.pus()
    depths = np.array([pu.depth for pu in pus], dtype=np.int64)
    out = depths[:, None] + depths[None, :] - 2 * lca
    np.fill_diagonal(out, 0)
    return out


@dataclass
class LinkCosts:
    """Physical cost of sharing data at one tree level.

    ``latency`` is the one-way transfer setup cost in seconds and
    ``bandwidth`` the sustained byte rate for data that must cross this
    level to get from producer to consumer.
    """

    latency: float
    bandwidth: float

    def transfer_time(self, nbytes: float) -> float:
        """Time to move *nbytes* across this level."""
        if nbytes <= 0:
            return 0.0
        return self.latency + nbytes / self.bandwidth


#: Calibrated per-sharing-level costs.  Keys are the *type* of the lowest
#: common ancestor; values follow published NUMA-era measurements: core-
#: private cache sharing is nearly free, same-socket L3 sharing costs tens
#: of ns at ~30 GB/s, same-board DRAM ~100 ns at ~10 GB/s, and remote
#: sockets on a large SMP pay several-fold more with interconnect hops.
DEFAULT_LEVEL_COSTS: dict[ObjType, LinkCosts] = {
    ObjType.CORE: LinkCosts(latency=5e-9, bandwidth=80e9),  # sibling hyperthreads
    ObjType.L1: LinkCosts(latency=4e-9, bandwidth=100e9),
    ObjType.L2: LinkCosts(latency=12e-9, bandwidth=60e9),
    ObjType.L3: LinkCosts(latency=40e-9, bandwidth=30e9),
    ObjType.PACKAGE: LinkCosts(latency=60e-9, bandwidth=25e9),
    ObjType.NUMANODE: LinkCosts(latency=100e-9, bandwidth=10e9),
    ObjType.GROUP: LinkCosts(latency=250e-9, bandwidth=5e9),
    ObjType.MACHINE: LinkCosts(latency=400e-9, bandwidth=3e9),
}

#: Costs for *cluster* trees (the ``cluster`` preset): the GROUP level
#: is a compute node's internal cross-socket link, and the MACHINE root
#: is the inter-node network (InfiniBand-class: microseconds of latency,
#: NIC-limited bandwidth).
CLUSTER_LEVEL_COSTS: dict[ObjType, LinkCosts] = {
    **DEFAULT_LEVEL_COSTS,
    ObjType.GROUP: LinkCosts(latency=400e-9, bandwidth=3e9),  # within a node
    ObjType.MACHINE: LinkCosts(latency=2e-6, bandwidth=1.5e9),  # the network
}


def cluster_distance_model(topo: "Topology") -> "DistanceModel":
    """A :class:`DistanceModel` using :data:`CLUSTER_LEVEL_COSTS`."""
    return DistanceModel(topo, level_costs=dict(CLUSTER_LEVEL_COSTS))


class PuTables(NamedTuple):
    """Per-PU lookups of one topology that the simulator reads per
    transfer (see :meth:`DistanceModel.pu_tables`).  Shared by every
    machine built on the model, so never mutated."""

    #: NUMA node logical index of each PU, by PU logical index (0 on a
    #: tree without NUMA nodes).
    node_of_pu: tuple[int, ...]
    #: PU os_index -> logical index.
    os_to_logical: dict[int, int]
    #: the NUMA nodes, in logical order.
    numa_nodes: Sequence[TopologyObject]
    #: a representative PU (logical index) under each NUMA node.
    node_rep_pu: tuple[int, ...]


@dataclass
class DistanceModel:
    """Bundles the per-topology distance matrices and physical costs.

    Parameters
    ----------
    topo:
        The finalized topology.
    level_costs:
        Mapping from LCA object type to :class:`LinkCosts`; defaults to
        :data:`DEFAULT_LEVEL_COSTS`.  A type missing from the dict falls
        back to the MACHINE entry (worst case).
    """

    topo: Topology
    level_costs: dict[ObjType, LinkCosts] = field(
        default_factory=lambda: dict(DEFAULT_LEVEL_COSTS)
    )

    def __post_init__(self) -> None:
        # One vectorized sweep yields both per-pair tables in compact
        # dtypes (int16 depths, int8 types) — the memory-lean layout the
        # 4096-PU scaling presets rely on.
        lca_depth, lca_type = _lca_tables(self.topo)
        # Same PU: core-local (warm cache), not the PU object itself.
        np.fill_diagonal(lca_type, int(ObjType.CORE))
        self._lca_depth = lca_depth
        self._lca_type = lca_type
        self._hops: Optional[np.ndarray] = None
        self._type_rows: Optional[list[bytes]] = None
        self._pu_tables: Optional[PuTables] = None
        # os_index -> logical index translation for runtime callers.
        self._os_to_logical = {
            pu.os_index: pu.logical_index for pu in self.topo.pus()
        }
        machine_cost = self.level_costs.get(
            ObjType.MACHINE, DEFAULT_LEVEL_COSTS[ObjType.MACHINE]
        )
        max_type = max(int(t) for t in ObjType)
        lat_table = np.zeros(max_type + 1, dtype=np.float64)
        bw_table = np.full(
            max_type + 1, machine_cost.bandwidth, dtype=np.float64
        )
        for t in ObjType:
            costs = self.level_costs.get(t, machine_cost)
            lat_table[int(t)] = costs.latency
            bw_table[int(t)] = costs.bandwidth
        self._lat_table = lat_table
        self._bw_table = bw_table
        # The same per-type tables as plain Python lists, indexed by
        # ObjType value (see type_rows): the simulator's per-transfer
        # lookups read these instead of numpy scalars.
        self.level_types = [ObjType(v) for v in range(len(lat_table))]
        self.level_latency: list[float] = lat_table.tolist()
        self.level_bandwidth: list[float] = bw_table.tolist()

    # -- lookups (hot path: called per halo exchange in the simulator) ------

    def logical_of_os(self, os_index: int) -> int:
        """Translate a PU os_index to its logical index."""
        try:
            return self._os_to_logical[os_index]
        except KeyError:
            raise KeyError(f"no PU with os_index {os_index}") from None

    def type_rows(self) -> list[bytes]:
        """The LCA-type table as one ``bytes`` row per PU (built once).

        ``type_rows()[i][j]`` is the ObjType value of the pair (i, j),
        an index into :attr:`level_types`, :attr:`level_latency` and
        :attr:`level_bandwidth`.  One byte per pair, like the int8
        table, but read with plain Python indexing.
        """
        if self._type_rows is None:
            self._type_rows = [row.tobytes() for row in self._lca_type]
        return self._type_rows

    def pu_tables(self) -> PuTables:
        """The topology's per-PU lookup tables (built once).

        A model from the per-process construction cache
        (:func:`repro.exec.cache.machine_inputs`) serves every machine
        of its topology, so a machine copies no per-PU table.
        """
        if self._pu_tables is None:
            topo = self.topo
            node_of_pu = []
            for pu in topo.pus():
                node = topo.numa_node_of(pu.os_index)
                node_of_pu.append(node.logical_index if node else 0)
            numa_nodes = topo.objects_by_type(ObjType.NUMANODE)
            self._pu_tables = PuTables(
                node_of_pu=tuple(node_of_pu),
                os_to_logical=self._os_to_logical,
                numa_nodes=numa_nodes,
                node_rep_pu=tuple(
                    next(node.pus()).logical_index for node in numa_nodes
                ),
            )
        return self._pu_tables

    def lca_type(self, pu_i: int, pu_j: int) -> ObjType:
        """Sharing level (object type of the LCA) between two logical PUs."""
        return ObjType(int(self._lca_type[pu_i, pu_j]))

    def transfer_time(self, pu_i: int, pu_j: int, nbytes: float) -> float:
        """Time for PU *pu_j* to consume *nbytes* produced on PU *pu_i*.

        Indexed by logical PU index; same-PU transfers cost only the
        core-level latency (warm cache).
        """
        t = self._lca_type[pu_i, pu_j]
        if nbytes <= 0:
            return 0.0
        return float(self._lat_table[t] + nbytes / self._bw_table[t])

    def latency(self, pu_i: int, pu_j: int) -> float:
        return float(self._lat_table[self._lca_type[pu_i, pu_j]])

    def bandwidth(self, pu_i: int, pu_j: int) -> float:
        return float(self._bw_table[self._lca_type[pu_i, pu_j]])

    # -- matrices ---------------------------------------------------------

    @property
    def lca_depths(self) -> np.ndarray:
        """The PU × PU LCA-depth matrix (read-only view, int16)."""
        v = self._lca_depth.view()
        v.flags.writeable = False
        return v

    def hop_matrix(self) -> np.ndarray:
        """The PU × PU hop-distance matrix (computed lazily, cached).

        Derived from the cached LCA depths — no second tree sweep.
        """
        if self._hops is None:
            pus = self.topo.pus()
            depths = np.array([pu.depth for pu in pus], dtype=np.int64)
            hops = depths[:, None] + depths[None, :] - 2 * self._lca_depth
            np.fill_diagonal(hops, 0)
            self._hops = hops
        v = self._hops.view()
        v.flags.writeable = False
        return v

    def latency_matrix(self) -> np.ndarray:
        """PU × PU matrix of pairwise latencies in seconds."""
        return self._lat_table[self._lca_type]

    def bandwidth_matrix(self) -> np.ndarray:
        """PU × PU matrix of pairwise bandwidths in bytes/second."""
        return self._bw_table[self._lca_type]
