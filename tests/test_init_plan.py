"""The frozen init plan against the ORWL init protocol it replaces.

A frozen :class:`~repro.orwl.program.Program` keeps the outcome of the
init protocol (every location's seeded queue, its granted prefix, and
the order of the grant callbacks), and every
:class:`~repro.orwl.runtime.Runtime` copies it.  Each case here arms a
program through the runtime, snapshots what that left, then replays the
protocol by hand on the same program, one ``OrwlFifo.insert`` per
handle in init order, and checks that both leave the same FIFOs, the
same counters and the same grant-callback calls.  The last cases bound
the Python calls a runtime's set-up makes per handle, so a return to
per-handle call chains fails on any host.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings

from repro.exec.cache import machine_inputs
from repro.experiments.dag import WORKLOADS, build_workload
from repro.kernels.lk23_orwl import Lk23Config, build_program
from repro.kernels.wavefront import WavefrontConfig, build_wavefront_program
from repro.orwl import runtime as runtime_mod
from repro.orwl.fifo import AccessMode
from repro.orwl.program import Program
from repro.orwl.runtime import Runtime, RuntimeConfig
from repro.placement.binder import bind_program
from repro.simulate.machine import Machine
from repro.tasks.compile import compile_graph, dag_matrix
from tests.conftest import count_calls
from tests.test_dag_differential import task_graphs

SHAPE = (2, 8)  # paper-smp, 16 cores
LK23 = Lk23Config(n=1024, grid_rows=4, grid_cols=4, iterations=2)


def _idle(ctx):
    yield ctx.compute(seconds=1e-6)


def _mixed_program() -> Program:
    """Queues the kernels never build: a location whose leading reads
    share the grant, one whose owner has no task (direct grants), and
    one that no handle touches."""
    prog = Program("mixed")
    shared = prog.location("shared", 64.0, owner_task="w")
    orphan = prog.location("orphan", 8.0)
    prog.location("untouched", 8.0, owner_task="r0")
    for name in ("r0", "r1"):
        op = prog.task(name).operation("main", _idle)
        op.handle(shared, AccessMode.READ)
        op.handle(orphan, AccessMode.READ).init_phase = 1
    writer = prog.task("w").operation("main", _idle)
    writer.handle(shared, AccessMode.WRITE).init_phase = 1
    writer.handle(orphan, AccessMode.WRITE)
    return prog


def _program(kind: str):
    """(program, matrix) of *kind*: lk23, wavefront, mixed or an E7 family."""
    if kind == "lk23":
        return build_program(LK23), None
    if kind == "wavefront":
        return build_wavefront_program(WavefrontConfig(rows=3, cols=4, iterations=2)), None
    if kind == "mixed":
        return _mixed_program(), None
    graph = build_workload(kind, scale=1)
    return compile_graph(graph), dag_matrix(graph)


def _snapshot(program: Program) -> tuple:
    """Every FIFO's entries and counters, and where each handle's live
    request sits in its location's queue."""
    fifos = {
        name: (
            [(r.mode, r.tag, r.waiter, r.state, r.payload) for r in loc.fifo.queue],
            loc.fifo.inserted,
            loc.fifo.granted_count(),
            loc.fifo.holder_modes(),
        )
        for name, loc in program.locations.items()
    }
    positions = [
        [r is h.request for r in h.location.fifo.queue].index(True)
        for op in program.operations()
        for h in op.handles
    ]
    return fifos, positions


def _arm_both_ways(program, matrix, policy, monkeypatch, control_threads=True):
    """Arm *program* through a runtime, then replay the init protocol
    by hand; returns both (snapshot, grant calls) pairs."""
    calls: list[tuple] = []

    def record(route, req):
        calls.append((route, req.tag, req.mode, req.waiter))

    queue_call = runtime_mod._ControlQueue.__call__
    direct_call = Runtime._grant_direct

    def queued(self, req):
        record(self, req)
        queue_call(self, req)

    def direct(self, req):
        record("direct", req)
        direct_call(self, req)

    monkeypatch.setattr(runtime_mod._ControlQueue, "__call__", queued)
    monkeypatch.setattr(Runtime, "_grant_direct", direct)

    topo, dm = machine_inputs("paper-smp", *SHAPE)
    plan = bind_program(program, topo, policy=policy, matrix=matrix)
    Runtime(
        program,
        Machine(topo, distance_model=dm, seed=0),
        mapping=plan.mapping,
        control_mapping=plan.control_mapping,
        config=RuntimeConfig(control_threads=control_threads),
    )
    frozen = (_snapshot(program), list(calls))

    # The protocol replayed handle by handle: empty FIFOs with the same
    # grant routing, no live request, then one insert per handle.
    calls.clear()
    for loc in program.locations.values():
        loc.rearm(loc.fifo.on_grant)
    for op in program.operations():
        for h in op.handles:
            h.request = None
    for h in program._init_order:
        h.request = h.location.fifo.insert(h.mode, h.op_name, h.waiter)
    replayed = (_snapshot(program), list(calls))
    return frozen, replayed


@pytest.mark.parametrize(
    "kind, policy",
    [
        ("lk23", "treematch"),
        ("lk23", "nobind"),
        ("wavefront", "treematch"),
        ("mixed", "nobind"),
        *((family, "treematch") for family in WORKLOADS),
    ],
)
def test_frozen_plan_matches_the_replayed_protocol(kind, policy, monkeypatch):
    program, matrix = _program(kind)
    frozen, replayed = _arm_both_ways(program, matrix, policy, monkeypatch)
    assert frozen == replayed
    assert frozen[1], "no grant callback ran"


@pytest.mark.parametrize("kind", ["lk23", "mixed"])
def test_frozen_plan_matches_without_control_threads(kind, monkeypatch):
    program, matrix = _program(kind)
    frozen, replayed = _arm_both_ways(
        program, matrix, "nobind", monkeypatch, control_threads=False
    )
    assert frozen == replayed
    assert {route for route, *_ in frozen[1]} == {"direct"}


@settings(max_examples=25, deadline=None)
@given(graph=task_graphs())
def test_frozen_plan_matches_on_random_dags(graph):
    with pytest.MonkeyPatch.context() as monkeypatch:
        frozen, replayed = _arm_both_ways(
            compile_graph(graph), dag_matrix(graph), "treematch", monkeypatch
        )
    assert frozen == replayed


def _calls_in_runtime_init(program, matrix) -> int:
    topo, dm = machine_inputs("paper-smp", *SHAPE)
    plan = bind_program(program, topo, policy="treematch", matrix=matrix)
    machine = Machine(topo, distance_model=dm, seed=0)
    return count_calls(
        Runtime, program, machine, mapping=plan.mapping,
        control_mapping=plan.control_mapping,
    ).python


@pytest.mark.parametrize("kind", ["lk23", *WORKLOADS])
def test_runtime_setup_makes_few_calls_per_handle(kind):
    """Set-up costs about one call per handle (its request) plus a few
    per operation, task and location; replaying the protocol handle by
    handle cost eight to eleven."""
    program, matrix = _program(kind)
    program.freeze()
    n_handles = sum(len(op.handles) for op in program.operations())
    calls = _calls_in_runtime_init(program, matrix)
    assert calls / n_handles <= 7.0, f"{calls} calls for {n_handles} handles"
