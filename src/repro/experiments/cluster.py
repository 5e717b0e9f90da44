"""Cluster extension (E2): topology-aware placement across machines.

ORWL was designed for iterative computing on clusters, and placement
matters *more* across a network than inside one box: a halo that lands
on the wrong side of a NIC costs microseconds instead of nanoseconds.
This experiment runs LK23 on the :func:`repro.topology.presets.cluster`
preset — a tree with one GROUP per compute node and network-class costs
at the root — comparing TreeMatch against bound-but-topology-blind
baselines (round-robin, random).  NoBind is excluded: an OS cannot
migrate a thread across machines, so the unbound model is meaningless
here.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.comm.patterns import square_grid_shape
from repro.exec.cache import machine_inputs
from repro.experiments.paired import point_time
from repro.kernels.lk23_orwl import Lk23Config, build_program
from repro.orwl.runtime import Runtime
from repro.placement.binder import bind_program
from repro.simulate.machine import Machine
from repro.stats.aggregate import SeedStats
from repro.stats.sweep import ReplicateSpec, run_replicated
from repro.topology.objects import ObjType

#: Policies compared across the cluster (all produce bound mappings).
CLUSTER_POLICIES = ("treematch", "round-robin", "random")


@dataclass
class ClusterPoint:
    """One policy's result on the cluster workload.

    ``time_stats`` is populated for multi-seed runs
    (:func:`run_cluster_lk23` with ``seeds > 1``): the aggregate of all
    replicate times, while the scalar fields stay replicate 0's (the
    base-seed run, identical to a single-seed sweep).
    """

    policy: str
    time: float
    network_bytes: float  #: bytes that crossed the inter-node network
    local_fraction: float
    time_stats: Optional[SeedStats] = None


def _cluster_policy_point(
    policy: str,
    nodes: int,
    sockets_per_node: int,
    cores_per_socket: int,
    n: int,
    iterations: int,
    seed: int,
    shuffle_declaration: bool,
) -> ClusterPoint:
    """One policy's cluster run; module-level for the sweep runner."""
    from repro.util.rng import make_rng

    topo, dm = machine_inputs(
        "cluster", nodes, sockets_per_node, cores_per_socket, costs="cluster"
    )
    n_tasks = topo.nb_pus
    rows, cols = square_grid_shape(n_tasks)
    cfg = Lk23Config(n=n, grid_rows=rows, grid_cols=cols, iterations=iterations)
    block_order = None
    if shuffle_declaration:
        rng = make_rng(seed)
        block_order = list(cfg.grid.blocks())
        rng.shuffle(block_order)
    prog = build_program(cfg, block_order=block_order)
    kwargs = {"seed": seed} if policy == "random" else {}
    # Distributed setting: threads cannot leave their node, so the
    # unmapped fallback is replaced by task co-location.
    plan = bind_program(
        prog, topo, policy=policy, control_fallback="colocate", **kwargs
    )
    machine = Machine(topo, distance_model=dm, seed=seed)
    result = Runtime(
        prog, machine, mapping=plan.mapping, control_mapping=plan.control_mapping
    ).run()
    network_bytes = float(
        result.metrics.bytes_by_level.get(ObjType.MACHINE, 0.0)
    )
    return ClusterPoint(
        policy=policy,
        time=result.time,
        network_bytes=network_bytes,
        local_fraction=result.metrics.local_fraction,
    )


def run_cluster_lk23(
    nodes: int = 4,
    sockets_per_node: int = 2,
    cores_per_socket: int = 8,
    n: int = 8192,
    iterations: int = 3,
    policies: tuple[str, ...] = CLUSTER_POLICIES,
    seed: int = 0,
    shuffle_declaration: bool = True,
    n_workers: int = 1,
    seeds: int = 1,
) -> dict[str, ClusterPoint]:
    """LK23 across a cluster under each policy; one task per core.

    With *shuffle_declaration* (the default) the blocks are declared in
    a seeded random order.  Blind policies place threads by declaration
    index, so a friendly row-major order makes them accidentally
    optimal for a stencil; shuffling models the common reality that
    task creation order does not follow data geometry, which is exactly
    the situation the affinity-aware mapping is for.

    Policies are independent runs; *n_workers* fans them out via
    :class:`repro.exec.SweepRunner` (1 = serial reference path, 0 =
    all host cores).  The returned dict is in *policies* order.

    With *seeds* > 1 each policy is replicated over derived seeds —
    which also re-shuffles the declaration order per replicate, so the
    spread captures declaration-order luck, the main noise source for
    the blind policies — and each returned point carries ``time_stats``.
    """
    sweep = run_replicated(
        [
            ReplicateSpec(
                _cluster_policy_point,
                dict(
                    policy=policy,
                    nodes=nodes,
                    sockets_per_node=sockets_per_node,
                    cores_per_socket=cores_per_socket,
                    n=n,
                    iterations=iterations,
                    shuffle_declaration=shuffle_declaration,
                ),
                key=(policy,),
            )
            for policy in policies
        ],
        seeds=seeds,
        base_seed=seed,
        scope="cluster",
        value_of=point_time,
        n_workers=n_workers,
    )
    out: dict[str, ClusterPoint] = {}
    for p in sweep.points:
        point = p.first
        if seeds > 1:
            point.time_stats = p.stats
        out[point.policy] = point
    return out


def table(points: dict[str, ClusterPoint]) -> str:
    """Aligned text table of a cluster run.

    Multi-seed points (``time_stats`` set) get mean ± stddev and CI
    columns; single-seed tables are rendered exactly as before.
    """
    with_stats = any(p.time_stats is not None for p in points.values())
    header = f"{'policy':<14} {'time (ms)':>10} {'network MB':>12} {'NUMA-local':>11}"
    if with_stats:
        header += f" {'mean±sd (ms)':>18} {'95% CI (ms)':>20} {'n':>3}"
    lines = [header, "-" * len(header)]
    for name, p in points.items():
        line = (
            f"{name:<14} {p.time * 1000:>10.2f} {p.network_bytes / 1e6:>12.2f} "
            f"{p.local_fraction:>11.1%}"
        )
        if with_stats and p.time_stats is not None:
            s = p.time_stats
            line += (
                f" {f'{s.mean * 1000:.2f}±{s.stddev * 1000:.2f}':>18}"
                f" {f'[{s.ci_lo * 1000:.2f}, {s.ci_hi * 1000:.2f}]':>20}"
                f" {s.n:>3}"
            )
        lines.append(line)
    return "\n".join(lines)
