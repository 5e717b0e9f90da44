"""A finished simulated point frees itself through reference counting,
a running one builds no closure per thread, and the scheduler's kept
least-loaded set decides exactly like a scan.

A drained machine drops its threads' back-links and its trace
observer, a finished runtime detaches its grant callbacks, and
declarations hold no upward links: no point leaves cyclic garbage for
the collector.  The
scheduler's least-loaded set replaces a numpy scan per decision; the
scan survives here as the oracle.
"""

import gc
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.experiments.dag import WORKLOADS, run_dag_point
from repro.experiments.fig1 import IMPLEMENTATIONS, run_point
from repro.orwl.program import Program
from repro.simulate import machine as machine_mod
from repro.simulate.engine import Engine
from repro.simulate.scheduler import OsScheduler, SchedulerConfig
from repro.util.rng import make_rng

# -- no cyclic garbage ---------------------------------------------------------


def _assert_no_cyclic_garbage(run) -> None:
    run()  # first use fills the per-process caches
    gc.collect()
    gc.disable()
    try:
        run()
        assert gc.collect() == 0
    finally:
        gc.enable()


@pytest.mark.parametrize("fingerprint", [False, True], ids=["plain", "traced"])
@pytest.mark.parametrize("impl", IMPLEMENTATIONS)
def test_fig1_point_leaves_no_cyclic_garbage(impl, fingerprint):
    _assert_no_cyclic_garbage(
        lambda: run_point(impl, 16, iterations=2, n=2048, seed=1,
                          fingerprint=fingerprint)
    )


@pytest.mark.parametrize("fingerprint", [False, True], ids=["plain", "traced"])
@pytest.mark.parametrize("policy", ["bind", "nobind"])
@pytest.mark.parametrize("family", WORKLOADS)
def test_dag_point_leaves_no_cyclic_garbage(family, policy, fingerprint):
    _assert_no_cyclic_garbage(
        lambda: run_dag_point(family, policy, n_cores=16, cores_per_socket=8,
                              scale=1, seed=1, fingerprint=fingerprint)
    )


def _callback_objects() -> Counter:
    """Live GC-tracked functions and closure cells."""
    return Counter(
        type(o).__name__ for o in gc.get_objects()
        if type(o).__name__ in ("function", "cell")
    )


def test_no_callback_objects_per_thread(monkeypatch):
    """Mid-run, a point holds no closure per simulated thread: each
    thread is its own continuation and grants route without closures."""
    point = dict(n_cores=64, cores_per_socket=8, scale=5, seed=1)
    run_dag_point("divconq", "bind", **point)  # fills the per-process caches
    gc.collect()
    before = _callback_objects()
    seen = {}
    machines = []
    step = Engine.step

    def probe(engine):
        if engine.events_fired == 3000:
            seen["threads"] = machines[-1].n_threads
            seen["grown"] = _callback_objects() - before
        return step(engine)

    monkeypatch.setattr(machine_mod, "new_machine_hook", machines.append)
    monkeypatch.setattr(Engine, "step", probe)
    run_dag_point("divconq", "bind", **point)
    assert seen["threads"] > 1000
    assert seen["grown"]["function"] < 50 and seen["grown"]["cell"] < 50, seen


def test_declarations_name_their_task():
    prog = Program("p")
    op = prog.task("t").operation("main", body=None)
    assert op.task_name == "t"
    assert op.name == "t/main"
    assert prog.operations() == [op]
    assert not hasattr(op, "task")
    assert not hasattr(prog.task("t"), "program")


# -- least-loaded set vs the numpy scan ---------------------------------------


class ScanScheduler:
    """The scheduler's load decisions as one numpy scan per call: the
    formulation the kept least-loaded set replaced."""

    def __init__(self, n_pus: int, config: SchedulerConfig, seed: int) -> None:
        self.config = config
        self._rng = make_rng(seed)
        self._load = np.zeros(n_pus, dtype=np.int64)

    def occupy(self, pu: int) -> None:
        self._load[pu] += 1

    def vacate(self, pu: int) -> None:
        self._load[pu] -= 1

    def initial_pu(self) -> int:
        lowest = int(self._load.min())
        candidates = np.flatnonzero(self._load == lowest)
        return int(candidates[self._rng.integers(len(candidates))])

    def pull_target(self, current_pu, backlog):
        low = backlog.min()
        if float(backlog[current_pu] - low) <= self.config.imbalance_threshold:
            return None
        candidates = np.flatnonzero(backlog == low)
        target = int(candidates[self._rng.integers(len(candidates))])
        return None if target == current_pu else target

    def maybe_migrate(self, current_pu, backlog=None):
        if backlog is not None:
            target = self.pull_target(current_pu, backlog)
            if target is not None:
                return target
        if self._rng.random() >= self.config.migration_prob:
            return None
        load = self._load.copy()
        load[current_pu] -= 1
        lowest = int(load.min())
        candidates = np.flatnonzero(load == lowest)
        target = int(candidates[self._rng.integers(len(candidates))])
        return None if target == current_pu else target


#: one step: (action, a PU pick, a backlog seed); the pick is reduced
#: modulo the PUs that qualify for the action.
_STEPS = st.lists(
    st.tuples(
        st.sampled_from(["start", "occupy", "vacate", "migrate", "balance"]),
        st.integers(0, 1000),
        st.integers(0, 2**16),
    ),
    max_size=120,
)


@settings(max_examples=200, deadline=None)
@given(
    n_pus=st.integers(1, 70),
    prob=st.sampled_from([0.0, 0.3, 1.0]),
    seed=st.integers(0, 2**32 - 1),
    steps=_STEPS,
)
def test_least_loaded_set_decides_like_the_scan(n_pus, prob, seed, steps):
    config = SchedulerConfig(migration_prob=prob)
    kept = OsScheduler(n_pus, config, seed=seed)
    scan = ScanScheduler(n_pus, config, seed)
    choices: list[tuple] = []
    for action, pick, backlog_seed in steps:
        busy = [pu for pu in range(n_pus) if kept.load_of(pu) > 0]
        if action == "start":
            pu = kept.initial_pu()
            assert scan.initial_pu() == pu
            choices.append(("start", pu))
            kept.occupy(pu)
            scan.occupy(pu)
        elif action == "occupy":
            kept.occupy(pick % n_pus)
            scan.occupy(pick % n_pus)
        elif busy and action == "vacate":
            kept.vacate(busy[pick % len(busy)])
            scan.vacate(busy[pick % len(busy)])
        elif busy:
            pu = busy[pick % len(busy)]
            backlog = None
            if action == "balance":
                # Coarse values, so that ties for the minimum are common.
                rng = np.random.default_rng(backlog_seed)
                backlog = rng.integers(0, 4, n_pus) * 1e-3
            target = kept.maybe_migrate(pu, backlog)
            assert scan.maybe_migrate(pu, backlog) == target
            choices.append((action, pu, target))
            if target is not None:
                for sched in (kept, scan):
                    sched.vacate(pu)
                    sched.occupy(target)
        assert [kept.load_of(pu) for pu in range(n_pus)] == scan._load.tolist()
    assert all(type(c) is int for choice in choices for c in choice[1:]
               if c is not None)
    assert kept._rng.bit_generator.state == scan._rng.bit_generator.state
