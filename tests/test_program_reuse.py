"""A program runs any number of times: every runtime re-arms it.

Each :class:`Runtime` gives the program's locations fresh FIFOs and no
provenance, and its handles no request, before the init protocol runs.
So the one LK23 program per configuration
(:func:`repro.exec.cache.cached_lk23_program`) and the one compiled
program per frozen E7 graph (:func:`repro.tasks.compile.compile_graph`)
serve every point of a sweep.  Every case here checks a reused program
against a freshly built one, bit for bit.
"""

from __future__ import annotations

import gc
import weakref
from contextlib import contextmanager

import pytest

from repro.exec import cache as cache_mod
from repro.exec.cache import cached_lk23_program, clear_cache, machine_inputs
from repro.experiments import dag as dag_mod
from repro.experiments.dag import WORKLOADS, build_workload, run_dag_point
from repro.experiments.fig1 import run_point
from repro.kernels.lk23_orwl import Lk23Config, build_program
from repro.observe.determinism import run_fingerprint
from repro.observe.tracer import Tracer
from repro.orwl import runtime as runtime_mod
from repro.orwl.fifo import AccessMode
from repro.orwl.program import Program
from repro.orwl.runtime import Runtime
from repro.placement import affinity as affinity_mod
from repro.placement.binder import bind_program
from repro.simulate.machine import Machine
from repro.tasks.compile import compile_graph, dag_matrix
from repro.util.validate import ValidationError

SHAPE = (2, 8)  # paper-smp, 16 cores
LK23 = Lk23Config(n=2048, grid_rows=4, grid_cols=4, iterations=2)


@pytest.fixture(autouse=True)
def _cold_cache():
    clear_cache()
    yield
    clear_cache()


class _Boom(Exception):
    pass


def _program_and_matrix(family: str, fresh: bool):
    """The LK23 or E7 program of *family*: kept, or freshly built."""
    if family == "lk23":
        return (build_program(LK23) if fresh else cached_lk23_program(LK23)), None
    graph = (
        dag_mod._build_workload(family, 1, 0, 8) if fresh
        else build_workload(family, scale=1)
    )
    return compile_graph(graph), dag_matrix(graph)


def _runtime(program, matrix, policy: str, seed: int) -> Runtime:
    topo, dm = machine_inputs("paper-smp", *SHAPE)
    machine = Machine(topo, distance_model=dm, seed=seed, tracer=Tracer())
    plan = bind_program(program, topo, policy=policy, matrix=matrix)
    return Runtime(
        program, machine, mapping=plan.mapping, control_mapping=plan.control_mapping
    )


def _fingerprint(program, matrix, policy: str, seed: int) -> str:
    runtime = _runtime(program, matrix, policy, seed)
    runtime.run()
    return run_fingerprint(runtime.machine)


@contextmanager
def _wrapped_body(program, wrap):
    """Swap the body of the middle operation for ``wrap(body)``."""
    ops = program.operations()
    op = ops[len(ops) // 2]
    body = op.body
    op.body = wrap(body)
    try:
        yield
    finally:
        op.body = body


def _raise_after_first_syscall(body):
    def failing(ctx):
        for k, syscall in enumerate(body(ctx)):
            if k == 1:
                raise _Boom
            yield syscall

    return failing


CASES = [
    pytest.param(family, policy, id=f"{family}-{policy}")
    for family in ("lk23",) + WORKLOADS
    for policy in ("treematch", "nobind")
]


@pytest.mark.parametrize("before", ["other-seed", "raised"])
@pytest.mark.parametrize("family, policy", CASES)
def test_reused_program_matches_fresh_build(family, policy, before):
    fresh, fresh_matrix = _program_and_matrix(family, fresh=True)
    expected = _fingerprint(fresh, fresh_matrix, policy, seed=1)

    program, matrix = _program_and_matrix(family, fresh=False)
    assert _program_and_matrix(family, fresh=False)[0] is program
    if before == "other-seed":
        assert _fingerprint(program, matrix, policy, seed=2) != expected
    else:
        with _wrapped_body(program, _raise_after_first_syscall):
            with pytest.raises(_Boom):
                _fingerprint(program, matrix, policy, seed=2)
    assert _fingerprint(program, matrix, policy, seed=1) == expected
    # The raised run's machine is freed (and its bodies closed) only by
    # the collector: that must not disturb a later run either.
    gc.collect()
    assert _fingerprint(program, matrix, policy, seed=1) == expected


def test_runtime_rearms_every_location_and_handle():
    program, _ = _program_and_matrix("lk23", fresh=False)
    with _wrapped_body(program, _raise_after_first_syscall):
        with pytest.raises(_Boom):
            _fingerprint(program, None, "nobind", seed=2)
    used = {name: loc.fifo for name, loc in program.locations.items()}
    assert any(loc.version for loc in program.locations.values())
    runtime = _runtime(program, None, "nobind", seed=1)
    assert program._armed_by() is runtime
    for name, loc in program.locations.items():
        assert loc.fifo is not used[name]
        assert (loc.last_writer_tid, loc.last_writer_op, loc.version) == (-1, "", 0)
    for op in program.operations():
        for h in op.handles:
            assert h.waiter == runtime.tid_of_op(op.name)
            assert h.request is not None and h.request.waiter == h.waiter


def test_failed_run_is_freed_before_the_next_runtime(runtime_refs):
    program, _ = _program_and_matrix("lk23", fresh=False)
    with _wrapped_body(program, _raise_after_first_syscall):
        with pytest.raises(_Boom):
            _fingerprint(program, None, "nobind", seed=2)
    gc.collect()
    assert len(runtime_refs) == 1
    (runtime, machine), = runtime_refs
    assert runtime() is None and machine() is None
    assert all(len(loc.fifo) == 0 for loc in program.locations.values())
    assert all(h.request is None for op in program.operations() for h in op.handles)


def test_runtime_refuses_a_program_still_running():
    program, _ = _program_and_matrix("lk23", fresh=False)
    refused = []

    def nest(body):
        def nested(ctx):
            try:
                _runtime(program, None, "nobind", seed=3)
            except ValidationError as exc:
                refused.append(str(exc))
            yield from body(ctx)

        return nested

    with _wrapped_body(program, nest):
        _runtime(program, None, "nobind", seed=1).run()
    assert len(refused) == 1 and "still running" in refused[0]


def test_run_refuses_a_program_rearmed_since():
    program, _ = _program_and_matrix("lk23", fresh=False)
    stale = _runtime(program, None, "treematch", seed=1)
    current = _runtime(program, None, "treematch", seed=1)
    with pytest.raises(ValidationError, match="re-armed"):
        stale.run()
    current.run()
    fresh, _ = _program_and_matrix("lk23", fresh=True)
    assert run_fingerprint(current.machine) == _fingerprint(
        fresh, None, "treematch", seed=1
    )


@pytest.fixture
def runtime_refs(monkeypatch):
    """Weak references to every runtime built, and to its machine."""
    refs = []
    init = Runtime.__init__

    def recording_init(self, program, machine, *args, **kwargs):
        init(self, program, machine, *args, **kwargs)
        refs.append((weakref.ref(self), weakref.ref(machine)))

    monkeypatch.setattr(runtime_mod.Runtime, "__init__", recording_init)
    return refs


def _assert_freed_by_refcount(refs, run) -> None:
    gc.collect()
    gc.disable()
    try:
        run()
        assert refs and all(r() is None and m() is None for r, m in refs)
    finally:
        gc.enable()


@pytest.mark.parametrize("impl", ["orwl-bind", "orwl-nobind"])
def test_fig1_point_frees_its_run_but_keeps_the_program(runtime_refs, impl):
    _assert_freed_by_refcount(
        runtime_refs, lambda: run_point(impl, 16, iterations=2, n=2048, seed=1)
    )
    builds = cache_mod.cache_stats().get("program_build", 0)
    program = cached_lk23_program(LK23)  # the program run_point ran
    assert cache_mod.cache_stats().get("program_build", 0) == builds
    assert program._armed_by() is None  # its armer is gone, it is not


@pytest.mark.parametrize("policy", ["bind", "nobind"])
@pytest.mark.parametrize("family", WORKLOADS)
def test_dag_point_frees_its_run_but_keeps_the_program(runtime_refs, family, policy):
    kept = []

    def run():
        run_dag_point(family, policy, n_cores=16, cores_per_socket=8, scale=1, seed=1)
        kept.append(weakref.ref(compile_graph(build_workload(family, scale=1))))

    _assert_freed_by_refcount(runtime_refs, run)
    assert kept[0]() is compile_graph(build_workload(family, scale=1))


def test_clear_cache_drops_the_kept_programs():
    before = cache_mod.cache_stats().get("program_build", 0)
    lk23 = weakref.ref(cached_lk23_program(LK23))
    assert cached_lk23_program(LK23) is lk23()
    assert cache_mod.cache_stats().get("program_build", 0) - before == 1
    dag = weakref.ref(compile_graph(build_workload("cholesky", scale=1)))
    assert dag() is not None
    clear_cache()
    assert lk23() is None and dag() is None
    assert cached_lk23_program(LK23) is not None
    assert cache_mod.cache_stats().get("program_build", 0) - before == 2


@pytest.mark.parametrize("policy", ["treematch", "nobind"])
def test_kept_program_keeps_its_task_matrix(monkeypatch, policy):
    """A second bind of the kept LK23 program reuses the task matrix of
    its first bind instead of extracting it from the handles again, and
    places the program as a fresh build does."""
    topo, _ = machine_inputs("paper-smp", *SHAPE)
    fresh = bind_program(build_program(LK23), topo, policy=policy)
    first = bind_program(cached_lk23_program(LK23), topo, policy=policy)
    calls = []
    extract = affinity_mod._scatter_affinity
    monkeypatch.setattr(
        affinity_mod, "_scatter_affinity", lambda *a: calls.append(a) or extract(*a)
    )
    second = bind_program(cached_lk23_program(LK23), topo, policy=policy)
    assert calls == []
    assert second.matrix is first.matrix
    assert fresh.matrix.values.tobytes() == second.matrix.values.tobytes()
    assert second.mapping == first.mapping == fresh.mapping
    assert second.control_mapping == first.control_mapping == fresh.control_mapping


# -- program freeze -------------------------------------------------------------


def _ring_program(name: str = "ring") -> Program:
    """Two tasks passing one token around; valid, not yet frozen."""
    prog = Program(name)
    for k in range(2):
        prog.location(f"t{k}/out", 64.0, owner_task=f"t{k}")
    for k in range(2):
        op = prog.task(f"t{k}").operation("main", body=None)
        write = op.handle(prog.locations[f"t{k}/out"], AccessMode.WRITE)
        read = op.handle(prog.locations[f"t{1 - k}/out"], AccessMode.READ)
        read.init_phase = 1

        def body(ctx, write=write, read=read):
            yield from ctx.acquire(write)
            ctx.next(write)
            yield from ctx.acquire(read)
            yield ctx.compute(seconds=1e-6)
            ctx.release(read)
            yield from ctx.acquire(write)
            ctx.release(write)

        op.body = body
    return prog


def _run_on_small_machine(program: Program) -> Runtime:
    topo, dm = machine_inputs("paper-smp", 1, 8)
    runtime = Runtime(program, Machine(topo, distance_model=dm, seed=1))
    runtime.run()
    return runtime


@pytest.mark.parametrize("declare", [
    pytest.param(lambda p: p.location("extra", 8.0), id="location"),
    pytest.param(lambda p: p.task("t9"), id="task"),
    pytest.param(lambda p: p.tasks["t0"].operation("sub", body=None),
                 id="operation"),
    pytest.param(lambda p: p.operations()[0].handle(
        p.locations["t1/out"], AccessMode.READ), id="handle"),
])
def test_declaring_after_freeze_raises(declare):
    prog = _ring_program()
    assert prog.freeze() is prog and prog.frozen
    before = (len(prog.locations), len(prog.tasks), prog.n_operations,
              [len(op.handles) for op in prog.operations()])
    with pytest.raises(ValidationError, match="frozen"):
        declare(prog)
    assert (len(prog.locations), len(prog.tasks), prog.n_operations,
            [len(op.handles) for op in prog.operations()]) == before
    assert prog.task("t0") is prog.tasks["t0"]  # fetching still works


def test_frozen_program_keeps_the_init_order_and_swappable_bodies():
    prog = _ring_program().freeze()
    assert prog.freeze() is prog  # idempotent
    assert [(h.op_name, h.location.name) for h in prog._init_order] == [
        ("t0/main", "t0/out"), ("t1/main", "t1/out"),
        ("t0/main", "t1/out"), ("t1/main", "t0/out"),
    ]
    op = prog.operations()[0]
    body = op.body
    calls = []

    def counting(ctx):
        calls.append(ctx.op.name)
        yield from body(ctx)

    op.body = counting
    _run_on_small_machine(prog)
    assert calls == ["t0/main"]


def test_invalid_program_raises_at_freeze_and_at_its_first_runtime():
    prog = _ring_program()
    prog.operations()[1].body = None
    with pytest.raises(ValidationError, match="no body"):
        prog.freeze()
    assert not prog.frozen
    topo, dm = machine_inputs("paper-smp", 1, 8)
    with pytest.raises(ValidationError, match="no body"):
        Runtime(prog, Machine(topo, distance_model=dm, seed=1))
    assert not prog.frozen
    prog.location("extra", 8.0)  # still open for declarations


def test_validate_runs_once_across_runtimes(monkeypatch):
    calls = []
    validate = Program.validate

    def counting_validate(self):
        calls.append(self.name)
        validate(self)

    monkeypatch.setattr(Program, "validate", counting_validate)
    prog = _ring_program()
    times = {_run_on_small_machine(prog).machine.engine.now for _ in range(4)}
    assert calls == ["ring"] and prog.frozen
    assert len(times) == 1
    fresh = _run_on_small_machine(_ring_program("fresh"))
    assert times == {fresh.machine.engine.now}
    assert calls == ["ring", "fresh"]
