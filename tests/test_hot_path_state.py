"""Per-event state of the simulator stays plain Python scalars, and the
machine's scalar idle-balance guard is bit-identical to the full pull
decision it skips."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.experiments.dag import build_workload, run_dag_point
from repro.experiments.fig1 import run_point
from repro.kernels.lk23_orwl import Lk23Config, build_program
from repro.kernels.openmp import OpenMpConfig, run_openmp_lk23
from repro.orwl.runtime import Runtime
from repro.placement.binder import bind_program
from repro.simulate import engine as engine_mod
from repro.simulate.machine import Machine
from repro.simulate.scheduler import SchedulerConfig
from repro.tasks.run import run_graph
from repro.topology import presets

# -- plain-float point and machine state ------------------------------------


@pytest.mark.parametrize("impl", ["orwl-bind", "orwl-nobind", "openmp"])
def test_fig1_point_time_is_float(impl):
    p = run_point(impl, 16, iterations=1, n=1024, seed=3)
    assert type(p.time) is float


def test_dag_point_time_is_float():
    p = run_dag_point("cholesky", "nobind", n_cores=16, scale=1, seed=2)
    assert type(p.time) is float


def _watch_event_times(monkeypatch):
    """Record the type of every event time an engine fires at (the
    drain's ``heappop`` hands it the entry whose time becomes ``now``)."""
    seen = set()
    pop = engine_mod.heappop

    def watched(heap):
        entry = pop(heap)
        seen.add(type(entry[0]))
        return entry

    monkeypatch.setattr(engine_mod, "heappop", watched)
    return seen


@pytest.mark.parametrize("policy", ["treematch", "nobind"])
def test_orwl_engine_time_stays_float(policy, monkeypatch):
    topo = presets.paper_smp(2, 8)
    prog = build_program(Lk23Config(n=1024, grid_rows=4, grid_cols=4, iterations=2))
    plan = bind_program(prog, topo, policy=policy)
    machine = Machine(topo, seed=5)
    seen = _watch_event_times(monkeypatch)
    Runtime(prog, machine, mapping=plan.mapping,
            control_mapping=plan.control_mapping).run()
    assert type(machine.engine.now) is float
    assert seen == {float}


def test_openmp_engine_time_stays_float(monkeypatch):
    machine = Machine(presets.paper_smp(2, 8), seed=5)
    seen = _watch_event_times(monkeypatch)
    run_openmp_lk23(machine, OpenMpConfig(n=1024, n_threads=16, iterations=2))
    assert type(machine.engine.now) is float
    assert seen == {float}


def test_dag_engine_time_stays_float():
    graph = build_workload("divconq", scale=1, graph_seed=0)
    res = run_graph(graph, preset="paper-smp", preset_args=(2, 8),
                    policy="nobind", seed=1)
    assert type(res.machine.engine.now) is float
    assert type(res.time) is float


# -- the scalar idle-balance guard -------------------------------------------

_N_PUS = 8
_TOPO = presets.paper_smp(1, _N_PUS)

_offsets = st.one_of(
    st.floats(-5e-3, 5e-3, allow_nan=False),
    st.sampled_from([0.0, 1e-3, 2e-3, -2e-3]),
)


def _machine(threshold: float, seed: int) -> Machine:
    return Machine(
        _TOPO, seed=seed, scheduler=SchedulerConfig(imbalance_threshold=threshold)
    )


def _set_state(machine: Machine, now: float, offsets: list) -> None:
    """Put the machine at time *now* with PU free times ``now + offset``."""
    machine.engine._now = now
    machine._pu_free_at = [now + off for off in offsets]


@settings(max_examples=200, deadline=None)
@given(
    now=st.floats(0.0, 1.0, allow_nan=False),
    offsets=st.lists(_offsets, min_size=_N_PUS, max_size=_N_PUS),
    threshold=st.sampled_from([0.0, 1e-6, 1e-3, 2e-3, 4e-3]),
    cur=st.integers(0, _N_PUS - 1),
    seed=st.integers(0, 2**32 - 1),
)
def test_guard_implies_pull_declines_without_rng(now, offsets, threshold, cur, seed):
    machine = _machine(threshold, seed)
    _set_state(machine, now, offsets)
    sched = machine.scheduler
    if not machine._balanced(cur):
        return
    before = sched._rng.bit_generator.state
    assert sched.pull_target(cur, machine._backlog()) is None
    assert sched._rng.bit_generator.state == before


def _place(machine: Machine, t, pu: int) -> None:
    """Move thread *t* to PU *pu*, keeping the scheduler's load counts."""
    if t.current_pu >= 0:
        machine.scheduler.vacate(t.current_pu)
    machine.scheduler.occupy(pu)
    t.current_pu = pu


@settings(max_examples=60, deadline=None)
@given(
    steps=st.lists(
        st.tuples(
            st.floats(0.0, 1.0, allow_nan=False),
            st.lists(_offsets, min_size=_N_PUS, max_size=_N_PUS),
            st.integers(0, _N_PUS - 1),
            st.booleans(),
            st.booleans(),
        ),
        min_size=1,
        max_size=20,
    ),
    threshold=st.sampled_from([0.0, 1e-3, 2e-3]),
    seed=st.integers(0, 2**32 - 1),
)
def test_guarded_decisions_match_unguarded(steps, threshold, seed):
    """``Machine._maybe_pull`` and ``Machine._account_balancing`` make
    the same moves, and leave the scheduler RNG in the same state, as
    on a machine whose guard never fires."""
    guarded, full = _machine(threshold, seed), _machine(threshold, seed)
    full._balanced = lambda pu: False
    pairs = []
    for machine in (guarded, full):
        free = machine.thread(machine.add_thread("free"))
        bound = machine.thread(machine.add_thread("bound", bound_pu_os=3))
        _place(machine, bound, bound.bound_pu)
        pairs.append((free, bound))
    quantum = guarded.scheduler.config.migration_quantum
    for now, offsets, cur, balance, use_bound in steps:
        for machine, (free, bound) in zip((guarded, full), pairs):
            _set_state(machine, now, offsets)
            if use_bound:
                t = bound
            else:
                t = free
                _place(machine, t, cur)
            if balance:
                machine._account_balancing(t, quantum)
            else:
                machine._maybe_pull(t)
        for g, f in zip(*pairs):
            assert g.current_pu == f.current_pu
            assert g.migrations == f.migrations
            assert g.pending_penalty == f.pending_penalty
        g_bound = pairs[0][1]
        assert g_bound.current_pu == g_bound.bound_pu and g_bound.migrations == 0
        assert (guarded.scheduler._rng.bit_generator.state
                == full.scheduler._rng.bit_generator.state)
