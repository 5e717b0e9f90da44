"""Preset topologies: the one registry of named machines.

The headline machine is :func:`paper_smp`, the 24-socket × 8-core,
192-core SMP the paper's Fig. 1 ran on (an SGI UV-class machine at the
time).  The other presets exercise hyperthreading, shallow NUMA, and
flat trees for the control-thread and oversubscription extensions.

The scaling study (:mod:`repro.experiments.scaling`) goes past the
paper on the machines named in :data:`SCALING_NAMES`: the paper's SMP
again as ``paper``, then 48, 96 and 256 sockets of 8 cores, and
``smp512x8``, 512 sockets in 8 groups of 64 (4096 PUs).

Each shape is written once: :func:`_numa_smp` (one NUMA node per
socket) and :func:`_grouped_smp` (the same under a GROUP tier) build
every machine of that shape, with its name passed in.  All machines
take the builder's default cache and memory attributes.
"""

from __future__ import annotations

from typing import Callable

from repro.topology.builder import TopologyBuilder
from repro.topology.objects import CacheAttributes, ObjType
from repro.topology.tree import Topology


def _numa_smp(
    name: str, sockets: int, cores_per_socket: int, pus_per_core: int = 1
) -> Topology:
    """One NUMA node per socket, a shared L3 per socket, private cores."""
    return (
        TopologyBuilder(name)
        .add_level(ObjType.NUMANODE, sockets)
        .add_level(ObjType.PACKAGE, 1)
        .add_level(ObjType.L3, 1)
        .add_level(ObjType.CORE, cores_per_socket)
        .add_level(ObjType.PU, pus_per_core)
        .build()
    )


def _grouped_smp(
    name: str, groups: int, sockets_per_group: int, cores_per_socket: int
) -> Topology:
    """:func:`_numa_smp` islands of *sockets_per_group* under a GROUP tier.

    Sockets inside a group share a fast interconnect; groups are coupled
    by a slower fabric (the GROUP entry of the distance model's cost
    table).
    """
    return (
        TopologyBuilder(name)
        .add_level(ObjType.GROUP, groups)
        .add_level(ObjType.NUMANODE, sockets_per_group)
        .add_level(ObjType.PACKAGE, 1)
        .add_level(ObjType.L3, 1)
        .add_level(ObjType.CORE, cores_per_socket)
        .add_level(ObjType.PU, 1)
        .build()
    )


def paper_smp(sockets: int = 24, cores_per_socket: int = 8) -> Topology:
    """The paper's evaluation machine: 24 sockets × 8 cores = 192 PUs.

    Modeled as one NUMA node per socket (standard for that class of SMP)
    with a shared L3 per socket and private cores, no hyperthreading.
    """
    return _numa_smp(f"paper-smp-{sockets}x{cores_per_socket}", sockets, cores_per_socket)


def dual_xeon(cores_per_socket: int = 12, hyperthreads: int = 2) -> Topology:
    """A common dual-socket Xeon workstation: 2 × 12 cores × 2 HT = 48 PUs."""
    return (
        TopologyBuilder(f"dual-xeon-2x{cores_per_socket}x{hyperthreads}")
        .add_level(ObjType.NUMANODE, 2)
        .add_level(ObjType.PACKAGE, 1)
        .add_level(ObjType.L3, 1, cache=CacheAttributes(size=30 << 20, latency=14e-9))
        .add_level(ObjType.CORE, cores_per_socket)
        .add_level(ObjType.PU, hyperthreads)
        .build()
    )


def hyperthreaded_smp(sockets: int = 4, cores_per_socket: int = 8) -> Topology:
    """A hyperthreaded SMP: each core carries 2 PUs.

    Exercises the paper's control-thread rule "if hyperthreading is
    available, on each physical core we reserve one hyperthread for
    control and one for computation."
    """
    return _numa_smp(
        f"ht-smp-{sockets}x{cores_per_socket}x2", sockets, cores_per_socket, 2
    )


def small_numa(nodes: int = 2, cores: int = 4) -> Topology:
    """A small NUMA box (default 2 nodes × 4 cores) for fast unit tests."""
    return _numa_smp(f"small-numa-{nodes}x{cores}", nodes, cores)


def deep_hierarchy() -> Topology:
    """A deliberately deep tree (NUMA > package > L3 > L2 > core > 2 PU).

    Exercises grouping across many levels of Algorithm 1.
    """
    return (
        TopologyBuilder("deep-hierarchy")
        .add_level(ObjType.NUMANODE, 2)
        .add_level(ObjType.PACKAGE, 2)
        .add_level(ObjType.L3, 1)
        .add_level(ObjType.L2, 2)
        .add_level(ObjType.CORE, 2)
        .add_level(ObjType.PU, 2)
        .build()
    )


def cluster(
    nodes: int = 4,
    sockets_per_node: int = 2,
    cores_per_socket: int = 8,
) -> Topology:
    """A small cluster: *nodes* machines joined by a network.

    The ORWL model is distributed by design; this preset represents a
    cluster as one tree with a GROUP level per compute node, so the
    same mapping algorithm places tasks across machines (network-level
    costs come from the GROUP entry of the distance model — microsecond
    latency, NIC-class bandwidth).  Used by the cluster extension
    experiments.
    """
    return _grouped_smp(
        f"cluster-{nodes}x{sockets_per_node}x{cores_per_socket}",
        nodes, sockets_per_node, cores_per_socket,
    )


#: The scaling study's machines, smallest first (192 to 4096 PUs).
SCALING_NAMES = ("paper", "smp48x8", "smp96x8", "smp256x8", "smp512x8")

#: Name → factory; the construction caches
#: (:func:`repro.exec.cache.machine_inputs`) and the CLI topology
#: resolver build machines by these names.
PRESETS: dict[str, Callable[..., Topology]] = {
    "paper-smp": paper_smp,
    "dual-xeon": dual_xeon,
    "ht-smp": hyperthreaded_smp,
    "small-numa": small_numa,
    "deep": deep_hierarchy,
    "cluster": cluster,
    "paper": lambda: _numa_smp("paper-smp-24x8", 24, 8),
    "smp48x8": lambda: _numa_smp("smp48x8", 48, 8),
    "smp96x8": lambda: _numa_smp("smp96x8", 96, 8),
    "smp256x8": lambda: _numa_smp("smp256x8", 256, 8),
    "smp512x8": lambda: _grouped_smp("smp512x8", 8, 64, 8),
}


def by_name(name: str) -> Topology:
    """Look up and build a preset topology by registry name."""
    try:
        factory = PRESETS[name]
    except KeyError:
        raise KeyError(
            f"unknown preset {name!r}; available: {', '.join(sorted(PRESETS))}"
        ) from None
    return factory()
