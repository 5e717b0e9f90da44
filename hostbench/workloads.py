"""The benchmark's three workloads: inputs, ops, verification, rebuilds.

Every workload turns the benchmark seed into an endless stream of op
*groups*.  A group is the unit the timed loop runs whole, so the mix of
op classes inside a run is exact:

* ``fig1-192`` — one group is one Fig. 1 cycle at the paper's 192-core
  point: ORWL-Bind, ORWL-NoBind, OpenMP, each through
  :func:`repro.experiments.fig1.run_point`.  The simulation seed
  advances once per cycle.
* ``dag-e7`` — one group is one op: a whole E7 row, i.e.
  :func:`repro.experiments.dag.run_dag_point` for every DAG family
  under Bind and NoBind at 64 cores.
* ``place-mix`` — one group is a shuffled block of 20 placement
  queries (14 warm, 3 repair, 3 cold) against one
  :class:`repro.placement.service.PlacementService` through
  ``query_sync``.

Simulation seeds, DAG structure seeds and cold matrices come from
finite pools, so every output the benchmark can produce has a pinned
digest in ``reference.json`` (written by ``make_reference.py``).  An op
fails when it raises or when its output does not match that digest.

The traced run asks each workload for its own spans
(:meth:`Workload.span_op`).  fig1/dag ops are simulations: the
``rebuild`` functions replay one from the public call of each layer,
timing a span around every call, and the rebuilt op must reproduce the
public entry point bit for bit.  A place-mix op is a single
``query_sync`` call, so its span is the op's own time.
"""

from __future__ import annotations

import hashlib
import json
import time
from contextlib import contextmanager
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Any, Callable, Iterator, Optional

import numpy as np

from repro.comm import patterns
from repro.comm.patterns import square_grid_shape
from repro.exec.cache import clear_cache, machine_inputs, reset_cache_stats
from repro.experiments.dag import POLICY_OF, build_workload, run_dag_point
from repro.experiments.fig1 import IMPLEMENTATIONS, run_point
from repro.kernels.lk23_orwl import Lk23Config, build_program
from repro.kernels.openmp import OpenMpConfig, run_openmp_lk23
from repro.orwl.runtime import Runtime, RuntimeConfig
from repro.placement.binder import bind_program
from repro.placement.service import PlacementService
from repro.simulate.machine import Machine
from repro.tasks.compile import TaskTimes, compile_graph, dag_matrix
from repro.tasks.run import GraphRunResult

import profile_split

REFERENCE_PATH = Path(__file__).with_name("reference.json")

WORKLOADS = ("fig1-192", "dag-e7", "place-mix")

# fig1-192: the paper's headline point.
FIG1_CORES = 192
FIG1_CORES_PER_SOCKET = 8
FIG1_N = 16384
FIG1_ITERATIONS = 5
FIG1_SIM_SEEDS = 16

# dag-e7: E7 at 64 cores, scale 5 (120, 36 and 766 tasks).
DAG_SOCKETS, DAG_CORES_PER_SOCKET = 8, 8
DAG_CORES = DAG_SOCKETS * DAG_CORES_PER_SOCKET
DAG_SCALE = 5
DAG_FAMILIES = ("cholesky", "bfs", "divconq")
DAG_POLICIES = ("bind", "nobind")
DAG_GRAPH_SEEDS = 4
DAG_SIM_SEEDS = 16

# place-mix: one service on the 192-PU paper SMP.
PLACE_SOCKETS, PLACE_CORES_PER_SOCKET = 24, 8
#: one block of the query stream; its shares put p50 among the warm
#: queries (70 %) and p90 among the cold ones (top 15 %).
PLACE_BLOCK = {"warm": 14, "repair": 3, "cold": 3}
PLACE_COLD_POOL = 2048
PLACE_COLD_SEED_BASE = 1_000_000
#: one candidate PU per socket; a repair kills one or two of them.
PLACE_DEAD_CANDIDATES = tuple(
    8 * s + (3 * s) % 8 for s in range(PLACE_SOCKETS)
)
PLACE_DEAD_SETS = tuple(
    [(a,) for a in PLACE_DEAD_CANDIDATES]
    + [
        (a, b)
        for i, a in enumerate(PLACE_DEAD_CANDIDATES)
        for b in PLACE_DEAD_CANDIDATES[i + 1:]
    ]
)


def hot_matrices() -> list:
    """The place-mix hot set: order-192 matrices from ``repro.comm.patterns``."""
    return [
        patterns.stencil_2d(16, 12, edge_volume=1000.0),
        patterns.stencil_2d(12, 16, edge_volume=1000.0, periodic=True),
        patterns.ring(192, volume=10.0),
        patterns.clustered(24, 8, seed=1),
        patterns.clustered(12, 16, seed=2),
        patterns.clustered(48, 4, seed=3),
        patterns.random_sparse(192, density=0.05, seed=4),
        patterns.all_to_all(192),
    ]


N_HOT = 8

#: ``place-mix`` op class -> span name of its placement layer call.
PLACE_SPANS = {
    "warm": "placement.query_warm",
    "repair": "placement.query_remap",
    "cold": "placement.query_cold",
}


def repair_pair(index: int) -> tuple[int, tuple[int, ...]]:
    """``(hot matrix, dead PU set)`` of one repair query, by global index."""
    dead = PLACE_DEAD_SETS[index // N_HOT]
    return index % N_HOT, dead


N_REPAIR_PAIRS = N_HOT * len(PLACE_DEAD_SETS)


def cold_matrix(index: int):
    """Cold-pool matrix *index*: a sparse order-192 matrix seen once."""
    return patterns.random_sparse(
        192, density=0.05, seed=PLACE_COLD_SEED_BASE + index
    )


# ---------------------------------------------------------------------------
# Digests
# ---------------------------------------------------------------------------


def digest(*parts: Any) -> str:
    """Short sha-256 over the parts' text; floats enter as ``float.hex``."""
    text = "|".join(
        float(p).hex() if isinstance(p, (float, np.floating)) else str(p)
        for p in parts
    )
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def point_digest(label: str, time_s, local_fraction, migrations, remote_bytes) -> str:
    """What a public sim entry point returns: time, locality, migrations."""
    return digest(
        label, float(time_s), float(local_fraction), int(migrations),
        float(remote_bytes),
    )


def sim_digest(label: str, time_s: float, events_fired: int, metrics) -> str:
    """Simulated time, events fired and bytes per sharing level."""
    levels = sorted(
        (lv.name, float(b)) for lv, b in metrics.bytes_by_level.items()
    )
    return digest(
        label, float(time_s), int(events_fired), levels,
        int(metrics.migrations), int(metrics.transfers),
    )


def mapping_digest(mapping) -> str:
    return digest(*mapping.pu_of)


def seed_index(seed: int, label: str, modulo: int) -> int:
    """A stable index in ``[0, modulo)`` derived from the benchmark seed."""
    h = hashlib.sha256(f"{label}:{seed}".encode()).digest()
    return int.from_bytes(h[:8], "big") % modulo


def load_reference() -> dict:
    with REFERENCE_PATH.open() as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# Ops and spans
# ---------------------------------------------------------------------------


@dataclass
class Op:
    """One timed call through a public entry point, plus its check."""

    #: op class, e.g. ``"orwl-bind"`` or ``"warm"``.
    kind: str
    run: Callable[[], Any]
    #: True iff the result is correct.
    check: Callable[[Any], bool]
    #: what :meth:`Workload.rebuild` needs to replay the op.
    spec: tuple = ()


class Spans:
    """Per-op span durations (seconds), summed by span name."""

    def __init__(self) -> None:
        self.durations: dict[str, float] = {}
        self.counts: dict[str, float] = {}

    def add(self, name: str, seconds: float) -> None:
        self.durations[name] = self.durations.get(name, 0.0) + seconds

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self.add(name, time.perf_counter() - t0)

    def count(self, name: str, value: float) -> None:
        self.counts[name] = self.counts.get(name, 0) + value


def run_op(op: Op) -> tuple[float, float, bool, Any]:
    """Time one op; returns ``(start, seconds, ok, result)``.

    *start* is the ``time.perf_counter()`` reading the op's time starts
    from.  Only the call is timed; the check runs after the clock
    stops.  An op that raises or fails its check is not ok.
    """
    t0 = time.perf_counter()
    try:
        result = op.run()
    except Exception as exc:  # noqa: BLE001 - a raising op is a failed op
        return t0, time.perf_counter() - t0, False, exc
    elapsed = time.perf_counter() - t0
    try:
        ok = bool(op.check(result))
    except Exception:  # noqa: BLE001 - a check that cannot run is a failure
        ok = False
    return t0, elapsed, ok, result


def fresh_process_state() -> None:
    """Clear the in-process caches and counters a run starts from."""
    clear_cache()
    reset_cache_stats()


#: Per-layer metrics of the traced run that apply to every workload:
#: set-up, the placement memo, metrics overhead, and the profiled split.
COMMON_LAYER_METRICS = (
    "topology.machine_inputs_ms", "setup.import_ms",
    "placement.memo_hit_ratio", "metrics.enabled_op_ms", "metrics.overhead_x",
    "trace.ops",
) + tuple(
    f"{pkg}.{kind}"
    for pkg in profile_split.LAYERS + (profile_split.OTHER,)
    for kind in ("self_share", "calls_per_op")
)

#: Per-layer metrics of the workloads whose ops are simulations.
SIM_LAYER_METRICS = COMMON_LAYER_METRICS + (
    "simulate.events_fired", "simulate.host_us_per_event",
    "simulate.migrations", "simulate.transfers", "simulate.machine_init_ms",
    "orwl.run_ms", "orwl.runtime_init_ms", "placement.bind_program_ms",
    "exec.machine_inputs_hit_ms", "observe.traced_op_ms", "observe.overhead_x",
    "trace.span_overhead_x",
)


class Workload:
    """A seeded stream of op groups; subclasses define the ops."""

    name = ""
    #: ``(sockets, cores per socket)`` of the paper-smp machine it uses.
    shape: tuple[int, int] = (0, 0)
    #: The per-layer metrics the traced run must report; every other
    #: per-layer metric is declared not to apply and reads 0.
    layer_metrics: tuple[str, ...] = COMMON_LAYER_METRICS

    def prime(self) -> None:
        """Set-up work that is not an op (building long-lived inputs)."""

    def groups(self) -> Iterator[list[Op]]:
        raise NotImplementedError

    def span_op(self, op: Op, spans: Spans) -> tuple[float, Optional[float], bool]:
        """Run *op* for the span pass, recording its layer spans.

        Returns ``(public seconds, rebuilt seconds or None, ok)``.
        """
        raise NotImplementedError

    def observe_variant(self, op: Op) -> Optional[Op]:
        """*op* run with a ``repro.observe`` tracer, if the ops have one."""
        return None

    def kind_metrics(self, kinds: dict[str, int]) -> dict[str, float]:
        """Traced-run metrics from the op class counts of the span pass."""
        return {}

    def report(self, samples: list[tuple]) -> list[str]:
        """Lines printed beside the end-to-end result.

        *samples* holds ``(op, seconds, ok, result)`` for each timed op.
        """
        return []


class SimWorkload(Workload):
    """Ops are simulations that the span pass rebuilds layer by layer."""

    layer_metrics = SIM_LAYER_METRICS

    def rebuild(self, op: Op, spans: Spans) -> tuple[bool, bool]:
        """Replay *op* from the layer calls under *spans*.

        Returns ``(matches_public, output_ok)``.
        """
        raise NotImplementedError

    def span_op(self, op: Op, spans: Spans) -> tuple[float, Optional[float], bool]:
        _start, dt, ok, _ = run_op(op)
        r0 = time.perf_counter()
        try:
            same, rebuilt_ok = self.rebuild(op, spans)
        except Exception:  # noqa: BLE001 - a raising rebuild is a failed op
            same = rebuilt_ok = False
        return dt, time.perf_counter() - r0, ok and same and rebuilt_ok


# ---------------------------------------------------------------------------
# fig1-192
# ---------------------------------------------------------------------------


class Fig1Workload(SimWorkload):
    name = "fig1-192"
    shape = (FIG1_CORES // FIG1_CORES_PER_SOCKET, FIG1_CORES_PER_SOCKET)
    layer_metrics = SIM_LAYER_METRICS + (
        "kernels.build_program_ms", "kernels.openmp_run_ms",
    )

    def __init__(self, seed: int, reference: dict) -> None:
        self.ref = reference["fig1"]
        self.base = seed_index(seed, "fig1", FIG1_SIM_SEEDS)

    def _check(self, impl: str, sim_seed: int, point) -> bool:
        got = point_digest(
            impl, point.time, point.local_fraction, point.migrations,
            point.remote_bytes,
        )
        return point.time > 0 and got == self.ref[f"{impl}:{sim_seed}"]["point"]

    def groups(self) -> Iterator[list[Op]]:
        cycle = 0
        while True:
            sim_seed = (self.base + cycle) % FIG1_SIM_SEEDS
            yield [
                Op(
                    impl,
                    partial(run_fig1_op, impl, sim_seed),
                    partial(self._check, impl, sim_seed),
                    (impl, sim_seed),
                )
                for impl in IMPLEMENTATIONS
            ]
            cycle += 1

    def observe_variant(self, op: Op) -> Op:
        return Op(
            op.kind, partial(run_fig1_op, *op.spec, fingerprint=True),
            op.check, op.spec,
        )

    def rebuild(self, op: Op, spans: Spans) -> tuple[bool, bool]:
        impl, sim_seed = op.spec
        ref = self.ref[f"{impl}:{sim_seed}"]
        point, sim = rebuild_fig1(impl, sim_seed, spans)
        return point == ref["point"], sim == ref["sim"]

    def report(self, samples: list[tuple]) -> list[str]:
        """Simulated speed-ups of ORWL-Bind beside the paper's figures."""
        times: dict[str, list[float]] = {}
        for op, _dt, ok, result in samples:
            if ok:
                times.setdefault(op.kind, []).append(result.time)
        if not all(times.get(k) for k in IMPLEMENTATIONS):
            return []
        bind = np.median(times["orwl-bind"])
        nobind = np.median(times["orwl-nobind"]) / bind
        openmp = np.median(times["openmp"]) / bind
        return [
            f"simulated ORWL-Bind speed-up at 192 cores: {nobind:.2f}x over "
            f"ORWL-NoBind (paper 2.8x), {openmp:.2f}x over OpenMP (paper 5x)",
            "these two ratios are the model's only validation against the "
            "paper; they are deterministic outputs, not gated timings",
        ]


def run_fig1_op(impl: str, sim_seed: int, fingerprint: bool = False):
    """One fig1-192 op: the 192-core point of one implementation."""
    return run_point(
        impl, FIG1_CORES, iterations=FIG1_ITERATIONS, n=FIG1_N,
        cores_per_socket=FIG1_CORES_PER_SOCKET, seed=sim_seed,
        fingerprint=fingerprint,
    )


def rebuild_fig1(impl: str, sim_seed: int, spans: Spans) -> tuple[str, str]:
    """Replay ``run_point`` layer by layer; returns its two digests."""
    with spans.span("exec.machine_inputs_hit"):
        topo, dm = machine_inputs(
            "paper-smp", FIG1_CORES // FIG1_CORES_PER_SOCKET, FIG1_CORES_PER_SOCKET
        )
    with spans.span("simulate.machine_init"):
        machine = Machine(topo, distance_model=dm, seed=sim_seed)
    if impl == "openmp":
        with spans.span("kernels.openmp_run"):
            result = run_openmp_lk23(
                machine,
                OpenMpConfig(
                    n=FIG1_N, n_threads=FIG1_CORES, iterations=FIG1_ITERATIONS
                ),
            )
        sim_wall = spans.durations["kernels.openmp_run"]
        metrics, sim_time = result.metrics, result.time
    else:
        rows, cols = square_grid_shape(FIG1_CORES)
        cfg = Lk23Config(
            n=FIG1_N, grid_rows=rows, grid_cols=cols, iterations=FIG1_ITERATIONS
        )
        with spans.span("kernels.build_program"):
            prog = build_program(cfg)
        policy = "treematch" if impl == "orwl-bind" else "nobind"
        with spans.span("placement.bind_program"):
            plan = bind_program(prog, topo, policy=policy)
        with spans.span("orwl.runtime_init"):
            runtime = Runtime(
                prog, machine, mapping=plan.mapping,
                control_mapping=plan.control_mapping,
            )
        with spans.span("orwl.run"):
            run = runtime.run()
        sim_wall = spans.durations["orwl.run"]
        metrics, sim_time = run.metrics, run.time
    events = machine.engine.events_fired
    spans.count("simulate.events_fired", events)
    spans.count("simulate.migrations", metrics.migrations)
    spans.count("simulate.transfers", metrics.transfers)
    spans.count("simulate.host_us_per_event", sim_wall * 1e6 / max(events, 1))
    point = point_digest(
        impl, sim_time, metrics.local_fraction, metrics.migrations,
        metrics.remote_bytes,
    )
    return point, sim_digest(impl, sim_time, events, metrics)


# ---------------------------------------------------------------------------
# dag-e7
# ---------------------------------------------------------------------------


def run_dag_row(graph_seed: int, sim_seed: int, fingerprint: bool = False) -> list:
    """One E7 row: every family under Bind and NoBind."""
    return [
        run_dag_point(
            family, policy, n_cores=DAG_CORES,
            cores_per_socket=DAG_CORES_PER_SOCKET, scale=DAG_SCALE,
            graph_seed=graph_seed, seed=sim_seed, fingerprint=fingerprint,
        )
        for family in DAG_FAMILIES
        for policy in DAG_POLICIES
    ]


def dag_row_digest(points) -> str:
    return digest(*(
        point_digest(
            f"{p.workload}/{p.policy}/{p.graph_digest}/{p.n_tasks}/{p.n_edges}",
            p.time, p.local_fraction, p.migrations, p.remote_bytes,
        )
        for p in points
    ))


class DagWorkload(SimWorkload):
    name = "dag-e7"
    shape = (DAG_SOCKETS, DAG_CORES_PER_SOCKET)
    layer_metrics = SIM_LAYER_METRICS + (
        "kernels.build_graph_ms", "tasks.compile_graph_ms", "tasks.dag_matrix_ms",
    )

    def __init__(self, seed: int, reference: dict) -> None:
        self.ref = reference["dag"]
        self.graph_seed = seed_index(seed, "dag-graph", DAG_GRAPH_SEEDS)
        self.base = seed_index(seed, "dag-sim", DAG_SIM_SEEDS)

    def _check(self, sim_seed: int, points) -> bool:
        ref = self.ref[f"{self.graph_seed}:{sim_seed}"]["point"]
        return all(p.time > 0 for p in points) and dag_row_digest(points) == ref

    def groups(self) -> Iterator[list[Op]]:
        row = 0
        while True:
            sim_seed = (self.base + row) % DAG_SIM_SEEDS
            yield [
                Op(
                    "row",
                    partial(run_dag_row, self.graph_seed, sim_seed),
                    partial(self._check, sim_seed),
                    (self.graph_seed, sim_seed),
                )
            ]
            row += 1

    def observe_variant(self, op: Op) -> Op:
        return Op(
            op.kind, partial(run_dag_row, *op.spec, fingerprint=True),
            op.check, op.spec,
        )

    def rebuild(self, op: Op, spans: Spans) -> tuple[bool, bool]:
        graph_seed, sim_seed = op.spec
        ref = self.ref[f"{graph_seed}:{sim_seed}"]
        point, sim, schedule_ok = rebuild_dag_row(graph_seed, sim_seed, spans)
        return point == ref["point"], sim == ref["sim"] and schedule_ok


def rebuild_dag_row(
    graph_seed: int, sim_seed: int, spans: Spans
) -> tuple[str, str, bool]:
    """Replay ``run_dag_row`` layer by layer (``run_graph``'s calls).

    Returns the row's public digest, its simulation digest, and whether
    every run passed the happens-before audit
    (:meth:`GraphRunResult.schedule_ok`).
    """
    point_parts, sim_parts = [], []
    schedule_ok = True
    events_total = 0
    run_wall = 0.0
    for family in DAG_FAMILIES:
        for policy in DAG_POLICIES:
            with spans.span("kernels.build_graph"):
                graph = build_workload(family, scale=DAG_SCALE, graph_seed=graph_seed)
            with spans.span("exec.machine_inputs_hit"):
                topo, dm = machine_inputs(
                    "paper-smp", DAG_SOCKETS, DAG_CORES_PER_SOCKET
                )
            with spans.span("simulate.machine_init"):
                machine = Machine(topo, distance_model=dm, seed=sim_seed)
            times = TaskTimes()
            with spans.span("tasks.compile_graph"):
                program = compile_graph(graph, times=times)
            with spans.span("tasks.dag_matrix"):
                matrix = dag_matrix(graph)
            with spans.span("placement.bind_program"):
                plan = bind_program(
                    program, topo, policy=POLICY_OF[policy], matrix=matrix
                )
            with spans.span("orwl.runtime_init"):
                runtime = Runtime(
                    program, machine, mapping=plan.mapping,
                    control_mapping=plan.control_mapping,
                    config=RuntimeConfig(control_threads=True),
                )
            before = spans.durations.get("orwl.run", 0.0)
            with spans.span("orwl.run"):
                run = runtime.run()
            run_wall += spans.durations["orwl.run"] - before
            result = GraphRunResult(
                time=run.time, run=run, plan=plan, times=times, program=program,
                machine=machine, graph_digest=graph.digest(),
            )
            schedule_ok = schedule_ok and result.schedule_ok(graph)
            m = run.metrics
            events = machine.engine.events_fired
            events_total += events
            spans.count("simulate.migrations", m.migrations)
            spans.count("simulate.transfers", m.transfers)
            label = (
                f"{family}/{policy}/{result.graph_digest}/{graph.n_tasks}/"
                f"{graph.n_edges}"
            )
            point_parts.append(point_digest(
                label, run.time, m.local_fraction, m.migrations, m.remote_bytes,
            ))
            sim_parts.append(sim_digest(label, run.time, events, m))
    spans.count("simulate.events_fired", events_total)
    spans.count(
        "simulate.host_us_per_event", run_wall * 1e6 / max(events_total, 1)
    )
    return digest(*point_parts), digest(*sim_parts), schedule_ok


# ---------------------------------------------------------------------------
# place-mix
# ---------------------------------------------------------------------------


class PlaceWorkload(Workload):
    name = "place-mix"
    shape = (PLACE_SOCKETS, PLACE_CORES_PER_SOCKET)
    layer_metrics = COMMON_LAYER_METRICS + tuple(
        f"{span}_ms" for span in PLACE_SPANS.values()
    ) + tuple(f"placement.share_{kind}" for kind in PLACE_SPANS)

    def __init__(self, seed: int, reference: dict) -> None:
        self.ref = reference["place"]
        self.rng = np.random.default_rng(seed_index(seed, "place-stream", 2**63))
        self.cold_next = seed_index(seed, "place-cold", PLACE_COLD_POOL)
        self.repair_order = self.rng.permutation(N_REPAIR_PAIRS)
        self.repair_next = 0
        self.service: Optional[PlacementService] = None
        self.hot: list = []

    def prime(self) -> None:
        """Build the service and answer the hot set once (its cold start)."""
        topo, _ = machine_inputs("paper-smp", *self.shape)
        self.service = PlacementService(topo)
        self.hot = hot_matrices()
        for i, m in enumerate(self.hot):
            decision = self.service.query_sync(m)
            if mapping_digest(decision.mapping) != self.ref["hot"][i]:
                raise RuntimeError(f"hot matrix {i}: mapping digest mismatch")

    def _check(self, expected: str, cached: bool, dead: tuple, decision) -> bool:
        pus = decision.mapping.pu_of
        return (
            decision.cached == cached
            and len(pus) == 192
            and not set(pus) & set(dead)
            and all(0 <= p < 192 for p in pus)
            and mapping_digest(decision.mapping) == expected
        )

    def _repair(self, matrix, dead: tuple):
        svc = self.service
        svc.fail(*dead)
        try:
            return svc.query_sync(matrix)
        finally:
            svc.restore(*dead)

    def _op(self, kind: str) -> Op:
        svc = self.service
        if kind == "warm":
            i = int(self.rng.integers(N_HOT))
            return Op(
                kind, partial(svc.query_sync, self.hot[i]),
                partial(self._check, self.ref["hot"][i], True, ()), (i,),
            )
        if kind == "repair":
            index = int(self.repair_order[self.repair_next % N_REPAIR_PAIRS])
            self.repair_next += 1
            i, dead = repair_pair(index)
            return Op(
                kind, partial(self._repair, self.hot[i], dead),
                partial(self._check, self.ref["repair"][index], False, dead),
                (i, dead),
            )
        index = self.cold_next % PLACE_COLD_POOL
        self.cold_next += 1
        return Op(
            kind, partial(svc.query_sync, cold_matrix(index)),
            partial(self._check, self.ref["cold"][index], False, ()), (index,),
        )

    def groups(self) -> Iterator[list[Op]]:
        kinds = [k for k, n in PLACE_BLOCK.items() for _ in range(n)]
        while True:
            order = self.rng.permutation(len(kinds))
            yield [self._op(kinds[j]) for j in order]

    def span_op(self, op: Op, spans: Spans) -> tuple[float, Optional[float], bool]:
        """An op is one service call: its span is the op's own time."""
        _start, dt, ok, _ = run_op(op)
        spans.add(PLACE_SPANS[op.kind], dt)
        return dt, None, ok

    def kind_metrics(self, kinds: dict[str, int]) -> dict[str, float]:
        total = sum(kinds.values())
        return {
            f"placement.share_{kind}": kinds.get(kind, 0) / total
            for kind in PLACE_SPANS
        }


WORKLOAD_CLASSES = {
    cls.name: cls for cls in (Fig1Workload, DagWorkload, PlaceWorkload)
}


def make_workload(name: str, seed: int, reference: Optional[dict] = None) -> Workload:
    if reference is None:
        reference = load_reference()
    return WORKLOAD_CLASSES[name](seed, reference)
