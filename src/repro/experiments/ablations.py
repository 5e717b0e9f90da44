"""Ablation studies for the design choices DESIGN.md calls out.

Each function is a self-contained experiment returning plain data
(dicts/lists) that the corresponding benchmark renders; they are also
imported by tests to assert the qualitative outcomes.

* :func:`mapping_quality` (A1) — TreeMatch vs the baselines on
  hop-bytes / NUMA-cut for synthetic affinity patterns.
* :func:`control_strategy_comparison` (A3) — hyperthread reservation vs
  spare cores vs unmapped control threads on HT and non-HT machines.
* :func:`oversubscription_study` (A4) — tasks ≫ cores.
* :func:`affinity_extraction_fidelity` (A5) — static vs traced matrix.

A2 (Algorithm 1 launch-time cost) times ``tree_match`` directly in
``benchmarks/bench_treematch_cost.py``.
"""

from __future__ import annotations

from typing import Sequence

from repro.comm import patterns
from repro.comm.trace import CommTracer
from repro.kernels.lk23_orwl import Lk23Config, build_program
from repro.orwl.runtime import Runtime
from repro.placement.affinity import matrix_correlation, static_matrix, traced_matrix
from repro.placement.binder import bind_program
from repro.placement.policies import make_policy
from repro.simulate.machine import Machine
from repro.stats.sweep import ReplicateSpec, run_replicated
from repro.topology import presets
from repro.topology.tree import Topology
from repro.treematch import cost as cost_mod


def _attach_time_stats(row: dict[str, float], stats) -> dict[str, float]:
    """Extend an ablation result row with its replicate aggregate.

    Rows stay plain dicts (the benchmarks render them as-is); the stats
    keys appear only for multi-seed runs, so single-seed output is
    unchanged down to the key set.
    """
    row = dict(row)
    row.update(
        time_mean=stats.mean,
        time_stddev=stats.stddev,
        time_ci_lo=stats.ci_lo,
        time_ci_hi=stats.ci_hi,
        n_seeds=float(stats.n),
    )
    return row

#: Policies compared by the mapping-quality ablation.
BASELINE_POLICIES = ("treematch", "compact", "scatter", "round-robin", "random")


def mapping_quality(
    topo: Topology | None = None,
    pattern: str = "stencil",
    seed: int = 0,
) -> dict[str, dict[str, float]]:
    """A1: locality scores of each policy on one affinity pattern.

    Returns ``{policy: score_report_dict}``.  Patterns: ``"stencil"``
    (8 × 8 grid with diagonal frontiers), ``"clustered"`` (8 clusters of
    8), ``"random"`` (sparse random).
    """
    topo = topo or presets.paper_smp(8, 8)
    n = topo.nb_pus
    if pattern == "stencil":
        rows, cols = patterns.square_grid_shape(n)
        matrix = patterns.stencil_2d(rows, cols, edge_volume=1000.0)
    elif pattern == "clustered":
        size = 8 if n % 8 == 0 else 4
        matrix = patterns.clustered(n // size, size, seed=seed)
    elif pattern == "random":
        matrix = patterns.random_sparse(n, density=0.15, seed=seed)
    else:
        raise ValueError(f"unknown pattern {pattern!r}")

    out: dict[str, dict[str, float]] = {}
    for name in BASELINE_POLICIES:
        kwargs = {"seed": seed} if name == "random" else {}
        policy = make_policy(name, **kwargs)
        mapping = policy.place(topo, matrix.order, matrix=matrix)
        out[name] = cost_mod.score_report(mapping, matrix, topo)
    return out


#: The A3 scenarios: preset factory args and LK23 grid shape per name.
_CONTROL_SCENARIOS = {
    "hyperthread": (("hyperthreaded_smp", 4, 8), (4, 8)),
    "spare-cores": (("paper_smp", 8, 8), (2, 2)),
    "unmapped": (("paper_smp", 4, 8), (4, 8)),
}


def _control_scenario(name: str, iterations: int, seed: int = 1) -> dict[str, float]:
    """One A3 scenario; module-level so the sweep runner can pickle it."""
    (factory, *args), (rows, cols) = _CONTROL_SCENARIOS[name]
    topo = getattr(presets, factory)(*args)
    cfg = Lk23Config(n=4096, grid_rows=rows, grid_cols=cols, iterations=iterations)
    prog = build_program(cfg)
    plan = bind_program(prog, topo, policy="treematch")
    machine = Machine(topo, seed=seed)
    runtime = Runtime(
        prog, machine, mapping=plan.mapping, control_mapping=plan.control_mapping
    )
    result = runtime.run()
    return {
        "time": result.time,
        "strategy": plan.control_strategy.value if plan.control_strategy else "none",
        "local_fraction": result.metrics.local_fraction,
    }


def control_strategy_comparison(
    iterations: int = 3, n_workers: int = 1, seeds: int = 1, base_seed: int = 1
) -> dict[str, dict[str, float]]:
    """A3: LK23 with the three control-thread branches.

    Scenarios: (a) a hyperthreaded 4×8×2 machine with one task per core
    (→ HYPERTHREAD_RESERVED: compute on one hyperthread per core,
    control on the sibling); (b) a 64-core machine with only 4 tasks —
    every communication/control thread fits on a spare core (→
    SPARE_CORES); (c) a 32-core machine with 32 tasks — no room at all
    (→ UNMAPPED).  Returns simulated time and the strategy that fired.

    The scenarios are independent simulations; *n_workers* > 1 (or 0 =
    host cores) fans them out via :class:`repro.exec.SweepRunner`.
    With *seeds* > 1 each scenario is replicated over derived seeds and
    the returned rows gain ``time_mean`` / ``time_stddev`` /
    ``time_ci_lo`` / ``time_ci_hi`` / ``n_seeds`` keys.
    """
    names = list(_CONTROL_SCENARIOS)
    sweep = run_replicated(
        [
            ReplicateSpec(
                _control_scenario, dict(name=n, iterations=iterations),
                key=(n,),
            )
            for n in names
        ],
        seeds=seeds,
        base_seed=base_seed,
        scope="ablation-control",
        value_of=lambda row: row["time"],
        n_workers=n_workers,
    )
    return {
        p.key[0]: (
            p.first if seeds == 1 else _attach_time_stats(p.first, p.stats)
        )
        for p in sweep.points
    }


def _oversub_point(factor: int, iterations: int, seed: int = 2) -> dict[str, float]:
    """One A4 oversubscription factor; module-level for the runner."""
    topo = presets.paper_smp(8, 8)  # 64 cores
    n_tasks = topo.nb_pus * factor
    rows, cols = patterns.square_grid_shape(n_tasks)
    cfg = Lk23Config(n=8192, grid_rows=rows, grid_cols=cols, iterations=iterations)
    prog = build_program(cfg)
    plan = bind_program(prog, topo, policy="treematch")
    mains = [
        plan.mapping.pu(k)
        for k, op in enumerate(prog.operations())
        if op.is_main
    ]
    from collections import Counter

    max_mains_per_pu = max(Counter(mains).values())
    machine = Machine(topo, seed=seed)
    runtime = Runtime(
        prog, machine, mapping=plan.mapping, control_mapping=plan.control_mapping
    )
    result = runtime.run()
    return {
        "factor": float(factor),
        "n_tasks": float(n_tasks),
        "time": result.time,
        "max_mains_per_pu": float(max_mains_per_pu),
    }


def oversubscription_study(
    factors: Sequence[int] = (1, 2, 4),
    iterations: int = 3,
    n_workers: int = 1,
    seeds: int = 1,
    base_seed: int = 2,
) -> list[dict[str, float]]:
    """A4: tasks = factor × cores on an 8-socket machine.

    Checks that the virtual-level extension keeps the load balanced
    (max PU load == factor) and reports the simulated time per factor.
    Factors are independent runs; *n_workers* fans them out via
    :class:`repro.exec.SweepRunner` (1 = serial reference path).  With
    *seeds* > 1 each factor is replicated over derived seeds and the
    rows gain ``time_mean`` / ``time_stddev`` / ``time_ci_*`` /
    ``n_seeds`` keys.
    """
    sweep = run_replicated(
        [
            ReplicateSpec(
                _oversub_point, dict(factor=f, iterations=iterations),
                key=(f,),
            )
            for f in factors
        ],
        seeds=seeds,
        base_seed=base_seed,
        scope="ablation-oversub",
        value_of=lambda row: row["time"],
        n_workers=n_workers,
    )
    return [
        p.first if seeds == 1 else _attach_time_stats(p.first, p.stats)
        for p in sweep.points
    ]


def affinity_extraction_fidelity(iterations: int = 3) -> dict[str, float]:
    """A5: correlation between the static matrix and a traced run.

    Runs LK23 once under a :class:`CommTracer`, then correlates the
    trace-derived matrix with the static (composition-derived) one.
    High correlation validates launch-time mapping from structure alone.
    """
    topo = presets.paper_smp(2, 8)
    cfg = Lk23Config(n=2048, grid_rows=4, grid_cols=4, iterations=iterations)
    prog = build_program(cfg)
    plan = bind_program(prog, topo, policy="treematch")
    comm = CommTracer()
    Runtime(
        prog, Machine(topo, seed=3), mapping=plan.mapping,
        control_mapping=plan.control_mapping, comm=comm,
    ).run()
    # Compare pure payload volumes (hints express footprint, not traffic).
    static = static_matrix(prog, use_affinity_hints=False)
    traced = traced_matrix(prog, comm)
    return {
        "correlation": matrix_correlation(static, traced),
        "static_total": static.total_volume(),
        "traced_total": traced.total_volume(),
        "trace_events": float(comm.n_events),
    }
