"""hwloc-like hardware topology substrate.

The paper uses HWLOC to obtain "a portable abstraction of the
architecture".  This package is that abstraction, built synthetically:

* :mod:`~repro.topology.cpuset` — PU index bitmaps (hwloc_bitmap).
* :mod:`~repro.topology.objects` — typed objects (Machine/NUMANode/
  Package/L3/L2/L1/Core/PU) with cache and memory attributes.
* :mod:`~repro.topology.tree` — the finalized, queryable topology tree.
* :mod:`~repro.topology.builder` — the one builder: level by level,
  or from an hwloc-style synthetic string.
* :mod:`~repro.topology.presets` — the registry of named machines: the
  paper's 24×8 SMP, its friends, and the scaling study's machines.
* :mod:`~repro.topology.distance` — hop/LCA/latency/bandwidth matrices.
* :mod:`~repro.topology.query` — hwloc-flavoured convenience queries.
* :mod:`~repro.topology.serialize` — JSON round-trip.
"""

from repro import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "cpuset": ["CpuSet", "EMPTY"],
    "objects": ["CacheAttributes", "MemoryAttributes", "ObjType", "TopologyObject"],
    "tree": ["Topology", "TopologyError"],
    "builder": ["TopologyBuilder", "from_spec", "flat_topology"],
    "distance": [
        "DistanceModel",
        "LinkCosts",
        "DEFAULT_LEVEL_COSTS",
        "CLUSTER_LEVEL_COSTS",
        "cluster_distance_model",
        "hop_distance_matrix",
        "lca_depth_matrix",
    ],
    "restrict": ["restrict", "restrict_to_objects", "restrict_without"],
}, submodules=["presets", "query", "serialize"])
