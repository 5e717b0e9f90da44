"""Execute a compiled task graph on the simulator, placed or unplaced.

:func:`run_graph` is the single-call path from a :class:`TaskGraph` to
a finished simulation: compile, extract the DAG communication matrix,
run the chosen placement policy (through the same
:func:`repro.placement.binder.bind_program` pipeline and memoized
TreeMatch tiers the stencil experiments use), and execute on a seeded
:class:`~repro.simulate.Machine`.  Determinism follows from the parts:
same graph + same machine + same seed = bit-identical run, across
reruns and worker counts — the DAG differential suite enforces it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.exec.cache import machine_inputs
from repro.orwl.program import Program
from repro.orwl.runtime import Runtime, RuntimeConfig, RunResult
from repro.placement.binder import BindPlan, bind_program
from repro.simulate.machine import Machine
from repro.tasks.compile import TaskTimes, compile_graph, dag_matrix
from repro.tasks.graph import TaskGraph
from repro.topology.tree import Topology
from repro.util.validate import ValidationError


@dataclass
class GraphRunResult:
    """Outcome of one DAG execution."""

    #: total simulated time (seconds) — the makespan.
    time: float
    #: the underlying runtime result (metrics, comm trace, engine stats).
    run: RunResult
    #: the placement decision that was applied.
    plan: BindPlan
    #: per-task simulated timestamps (``None`` unless *record_times*).
    times: Optional[TaskTimes]
    #: the compiled ORWL program.
    program: Program
    #: the machine the run executed on (tracer attached iff *trace*).
    machine: Machine
    #: the graph digest the run was keyed by.
    graph_digest: str

    @property
    def metrics(self):
        return self.run.metrics

    def fingerprint(self) -> str:
        """Joint run fingerprint (needs ``trace=True``)."""
        from repro.observe.determinism import run_fingerprint

        return run_fingerprint(self.machine)

    def schedule_ok(self, graph: TaskGraph) -> bool:
        """Every task finished and every edge was respected.

        Requires the run to have been made with ``record_times=True``;
        the per-edge invariant is ``ready[consumer] >= published
        [producer]`` — the consumer could not become runnable before its
        producer published.
        """
        if self.times is None:
            raise ValidationError("run_graph(..., record_times=True) required")
        tasks = graph.tasks()
        if len(self.times.done) != len(tasks):
            return False
        for node in tasks:
            for u in node.deps:
                if self.times.ready[node.name] < self.times.published[tasks[u].name]:
                    return False
        return True


def run_graph(
    graph: TaskGraph,
    preset: str = "small-numa",
    preset_args: tuple[int, ...] = (),
    topo: Optional[Topology] = None,
    policy: str = "treematch",
    seed: int = 0,
    record_times: bool = False,
    trace: bool = False,
    control_threads: bool = True,
) -> GraphRunResult:
    """Compile, place, and execute *graph*; returns the result.

    The machine comes from the per-process construction cache
    (*preset* / *preset_args*, e.g. ``("paper-smp", (4, 8))``) unless an
    explicit *topo* is given.  *policy* is any placement registry name
    (``"treematch"``, ``"nobind"``, ``"service"``, ``"compact"``, ...);
    the affinity matrix fed to it is :func:`repro.tasks.compile
    .dag_matrix` — the DAG edge extraction, already task×task, so the
    binder uses it as is.  With *trace*, a
    :class:`repro.observe.Tracer` is attached (fingerprints, perf
    reports); with *record_times*, per-task timestamps are recorded.
    """
    tracer = None
    if trace:
        from repro.observe.tracer import Tracer

        tracer = Tracer()
    if topo is not None:
        machine = Machine(topo, seed=seed, tracer=tracer)
    else:
        topo, dm = machine_inputs(preset, *preset_args)
        machine = Machine(topo, distance_model=dm, seed=seed, tracer=tracer)

    times = TaskTimes() if record_times else None
    program = compile_graph(graph, times=times)
    matrix = dag_matrix(graph)
    plan = bind_program(program, topo, policy=policy, matrix=matrix)
    runtime = Runtime(
        program,
        machine,
        mapping=plan.mapping,
        control_mapping=plan.control_mapping,
        config=RuntimeConfig(control_threads=control_threads),
    )
    run = runtime.run()
    return GraphRunResult(
        time=run.time,
        run=run,
        plan=plan,
        times=times,
        program=program,
        machine=machine,
        graph_digest=graph.digest(),
    )
