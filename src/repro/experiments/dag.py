"""E7 — does topology-aware placement still win on irregular DAGs?

The paper evaluates Bind/NoBind only on iterative barrier-synchronized
stencils.  This experiment runs the same question over the
:mod:`repro.tasks` dependency-graph frontend's three workload families
— tiled Cholesky (regular recursion, panel broadcasts),
level-synchronous BFS on generated irregular graphs (data-dependent
frontier exchange), and skewed divide-and-conquer (fat-tree traffic) —
comparing the placement policies:

* ``bind``    — TreeMatch over the DAG communication matrix (the
  paper's ORWL-Bind, fed by :func:`repro.tasks.compile.dag_matrix`);
* ``nobind``  — identity placement, the OS-order baseline;
* ``service`` — the dedicated-service-core strategy of PR 8.

Statistics are the paired layer of :mod:`repro.experiments.paired`
(shared with the scaling sweep): per-workload comparisons are paired
sign-flip permutation tests, with replicates paired across policies by
replicate index, and Holm–Bonferroni corrects each baseline's family
across the three workloads.  Only replicate 0 shares its seed across
policies; replicate r ≥ 1 derives its seed from the whole (workload,
policy) key, so those pairs are independent draws.  With
``perf_report``, points carry the :func:`repro.perf.analyze` report
plus a DAG-specific critical-path attribution (span flops, busy time
along the span, span fraction of the makespan) — the DAG-intrinsic
bound no placement can beat.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import TYPE_CHECKING, Optional, Sequence

from repro.exec.cache import cached_task_graph
from repro.experiments.fig1 import analyze_run
from repro.experiments.paired import PairedSweep, collect_sweep, point_time
from repro.kernels.bfs import BfsConfig, build_bfs_graph
from repro.kernels.cholesky import CholeskyConfig, build_cholesky_graph
from repro.kernels.divconq import DivConqConfig, build_divconq_graph
from repro.tasks.graph import TaskGraph
from repro.tasks.run import run_graph
from repro.util.validate import ValidationError

if TYPE_CHECKING:
    # The sweep and statistics layer is imported by run_dag, so running
    # a single point does not load it.
    from repro.exec.runner import SweepRunner
    from repro.stats.aggregate import SeedStats

#: The DAG workload families, in headline order.
WORKLOADS = ("cholesky", "bfs", "divconq")

#: The compared placements, in headline order.
POLICIES = ("bind", "nobind", "service")

#: experiment policy name -> placement registry name.
POLICY_OF = {"bind": "treematch", "nobind": "nobind", "service": "service"}


def build_workload(
    workload: str, scale: int = 2, graph_seed: int = 0, parts: int = 8
) -> TaskGraph:
    """Build one family's :class:`TaskGraph` at integer *scale*.

    *graph_seed* drives the BFS input graph and the divide-and-conquer
    split coins — the *structure* seed, deliberately separate from the
    simulation seed so replicates re-run the same DAG under different
    machine jitter (that separation is what makes the comparisons
    paired per DAG instance).

    The graph is built once per process and key
    (:func:`repro.exec.cache.cached_task_graph`) and returned **shared
    and frozen**: every policy and simulation seed of a sweep runs the
    same object, and ``spawn`` / ``region`` on it raise.
    """
    if scale < 1:
        raise ValidationError(f"scale must be >= 1, got {scale}")
    if workload not in WORKLOADS:
        raise ValidationError(f"unknown workload {workload!r}; one of {WORKLOADS}")
    return cached_task_graph(
        (workload, int(scale), int(graph_seed), int(parts)),
        partial(_build_workload, workload, scale, graph_seed, parts),
    )


def _build_workload(
    workload: str, scale: int, graph_seed: int, parts: int
) -> TaskGraph:
    if workload == "cholesky":
        return build_cholesky_graph(CholeskyConfig(blocks=3 + scale, tile=96))
    if workload == "bfs":
        return build_bfs_graph(
            BfsConfig(n_vertices=128 * scale, parts=parts, graph_seed=graph_seed)
        )
    return build_divconq_graph(DivConqConfig(depth=3 + scale, split_seed=graph_seed))


@dataclass
class DagPoint:
    """One (workload, policy) measurement."""

    workload: str
    policy: str
    n_cores: int
    n_tasks: int
    n_edges: int
    time: float
    local_fraction: float
    migrations: int
    remote_bytes: float
    #: digest of the executed DAG (structure + costs).
    graph_digest: str
    #: joint run fingerprint (``None`` unless run with ``fingerprint``).
    fingerprint: Optional[str] = None
    #: JSON dict of the point's perf report plus DAG critical-path
    #: attribution (``None`` unless run with ``perf_report``).
    perf: Optional[dict] = None


def run_dag_point(
    workload: str,
    policy: str,
    n_cores: int = 32,
    cores_per_socket: int = 8,
    scale: int = 2,
    graph_seed: int = 0,
    seed: int = 0,
    fingerprint: bool = False,
    perf_report: bool = False,
) -> DagPoint:
    """Run one workload family under one placement; returns the point.

    The machine is the paper's SMP shape (``n_cores`` over
    ``cores_per_socket``-core sockets) from the per-process construction
    cache.  With *fingerprint*, the run is traced and the point carries
    its :func:`repro.observe.determinism.run_fingerprint`; with
    *perf_report*, the perf analysis plus the DAG's critical-path
    attribution.
    """
    if policy not in POLICY_OF:
        raise ValidationError(f"unknown policy {policy!r}; one of {POLICIES}")
    if n_cores % cores_per_socket != 0:
        raise ValidationError(
            f"core count {n_cores} must be whole sockets of {cores_per_socket}"
        )
    graph = build_workload(workload, scale=scale, graph_seed=graph_seed)
    trace = fingerprint or perf_report
    res = run_graph(
        graph,
        preset="paper-smp",
        preset_args=(n_cores // cores_per_socket, cores_per_socket),
        policy=POLICY_OF[policy],
        seed=seed,
        record_times=perf_report,
        trace=trace,
    )

    fp = res.fingerprint() if fingerprint else None
    perf = None
    if perf_report:
        perf = analyze_run(
            res.machine.tracer.events,
            f"{workload}/{policy}@{n_cores}",
            res.time,
            res.machine.topo,
        ).to_json_dict()
        cp_flops, cp_tasks = graph.critical_path()
        times = res.times
        assert times is not None  # record_times=perf_report above
        cp_busy = sum(times.done[t] - times.ready[t] for t in cp_tasks)
        perf["dag"] = {
            "critical_path_tasks": len(cp_tasks),
            "critical_path_flops": cp_flops,
            "critical_path_busy_s": cp_busy,
            "span_fraction": cp_busy / res.time if res.time > 0 else 0.0,
            "parallelism": graph.parallelism(),
        }

    return DagPoint(
        workload=workload,
        policy=policy,
        n_cores=n_cores,
        n_tasks=graph.n_tasks,
        n_edges=graph.n_edges,
        time=float(res.time),
        local_fraction=res.metrics.local_fraction,
        migrations=res.metrics.migrations,
        remote_bytes=res.metrics.remote_bytes,
        graph_digest=res.graph_digest,
        fingerprint=fp,
        perf=perf,
    )


@dataclass
class DagResult(PairedSweep):
    """All points of an E7 sweep plus the paired statistics.

    Rows are workloads, columns policies; ``bind`` is compared against
    every other policy.
    """

    row_axis = "workload"
    column_axis = "policy"
    candidate = "bind"
    family = "workload families"

    workloads: list[str] = field(default_factory=list)
    policies: list[str] = field(default_factory=list)
    n_cores: int = 32
    scale: int = 2
    graph_seed: int = 0
    n_seeds: int = 1
    alpha: float = 0.05
    points: list[DagPoint] = field(default_factory=list)
    seed_stats: dict[tuple[str, str], SeedStats] = field(default_factory=dict)
    replicates: dict[tuple[str, str], tuple[DagPoint, ...]] = field(
        default_factory=dict
    )

    def _rows(self) -> list[str]:
        return self.workloads

    def _columns(self) -> list[str]:
        return self.policies

    def table(self) -> str:
        """The headline table: per-workload times, speedups, p, delta."""
        verdicts = self.paired_verdicts()
        by_key = self._by_key(verdicts)
        name_w = max([len("workload")] + [len(w) for w in self.workloads])
        header = f"{'workload':<{name_w}} {'tasks':>6} {'edges':>6}"
        for policy in self.policies:
            header += f" {policy + ' mean':>14}"
        for baseline in self._baselines():
            header += f" {'vs ' + baseline:>11} {'p-corr':>8} {'delta':>7}"
        lines = [header, "-" * len(header)]
        for workload in self.workloads:
            first = self.point_of(workload, self.policies[0])
            row = f"{workload:<{name_w}} {first.n_tasks:>6} {first.n_edges:>6}"
            for policy in self.policies:
                try:
                    row += f" {self.mean_time(workload, policy):>14.6f}"
                except KeyError:
                    row += f" {'-':>14}"
            for baseline in self._baselines():
                row += self._verdict_cells(by_key.get((baseline, workload)), 11)
            lines.append(row)
        lines += self._verdict_footer(verdicts)
        return "\n".join(lines)

    def to_json_dict(self) -> dict:
        """JSON-safe dump of the sweep (the CI artifact)."""
        return {
            "format": "repro-dag",
            "workloads": list(self.workloads),
            "policies": list(self.policies),
            "n_cores": self.n_cores,
            "scale": self.scale,
            "graph_seed": self.graph_seed,
            "n_seeds": self.n_seeds,
            "alpha": self.alpha,
            "points": [
                {
                    "workload": p.workload,
                    "policy": p.policy,
                    "cores": p.n_cores,
                    "tasks": p.n_tasks,
                    "edges": p.n_edges,
                    "time": p.time,
                    "local_fraction": p.local_fraction,
                    "migrations": p.migrations,
                    "remote_bytes": p.remote_bytes,
                    "graph_digest": p.graph_digest,
                    **({"fingerprint": p.fingerprint} if p.fingerprint else {}),
                    **({"perf": p.perf} if p.perf is not None else {}),
                }
                for p in self.points
            ],
            **self._paired_json(),
        }


def run_dag(
    workloads: Sequence[str] = WORKLOADS,
    policies: Sequence[str] = POLICIES,
    n_cores: int = 32,
    cores_per_socket: int = 8,
    scale: int = 2,
    graph_seed: int = 0,
    seed: int = 0,
    seeds: int = 1,
    confidence: float = 0.95,
    alpha: float = 0.05,
    n_workers: int = 1,
    runner: Optional[SweepRunner] = None,
    fingerprint: bool = False,
    perf_report: bool = False,
) -> DagResult:
    """The full E7 sweep: workload families × placement policies.

    Every (workload, policy) point replicates *seeds* times on the
    schedule of :func:`repro.stats.run_replicated`.  The per-workload
    tests pair replicates across policies by replicate index; only
    replicate 0 shares its seed across policies, since replicate r ≥ 1
    derives its seed from the whole (workload, policy) key.  Point
    weights scale with task count so the heavy Cholesky instances
    dispatch first under a parallel runner.
    """
    from repro.stats.sweep import ReplicateSpec, run_replicated

    for w in workloads:
        if w not in WORKLOADS:
            raise ValidationError(f"unknown workload {w!r}; one of {WORKLOADS}")
    for p in policies:
        if p not in POLICY_OF:
            raise ValidationError(f"unknown policy {p!r}; one of {POLICIES}")
    result = DagResult(
        workloads=list(workloads),
        policies=list(policies),
        n_cores=n_cores,
        scale=scale,
        graph_seed=graph_seed,
        n_seeds=seeds,
        alpha=alpha,
    )
    weight_of = {
        w: float(build_workload(w, scale=scale, graph_seed=graph_seed).n_tasks)
        for w in workloads
    }
    specs = [
        ReplicateSpec(
            run_dag_point,
            dict(
                workload=workload,
                policy=policy,
                n_cores=n_cores,
                cores_per_socket=cores_per_socket,
                scale=scale,
                graph_seed=graph_seed,
                fingerprint=fingerprint,
                perf_report=perf_report,
            ),
            key=(workload, policy),
            weight=weight_of[workload],
        )
        for workload in workloads
        for policy in policies
    ]
    sweep = run_replicated(
        specs,
        seeds=seeds,
        base_seed=seed,
        scope="dag",
        value_of=point_time,
        confidence=confidence,
        runner=runner,
        n_workers=n_workers,
    )
    return collect_sweep(result, sweep)
