"""The op-level communication recorder is a sink the caller passes in.

``Runtime(..., comm=CommTracer())`` records every remote read; a run
given no recorder builds none and makes no call into one.  Only the
callers that read volumes (profiled placement, ablation A5 and tests)
pass one, and recording never changes what the run simulates.
"""

from __future__ import annotations

from dataclasses import fields

import pytest

from repro.comm.trace import CommTracer
from repro.experiments.dag import run_dag_point
from repro.experiments.fig1 import run_point
from repro.experiments.scaling import run_scaling_point
from repro.kernels.lk23_orwl import Lk23Config, build_program
from repro.observe.determinism import run_fingerprint
from repro.observe.tracer import Tracer
from repro.orwl.runtime import RunResult, Runtime, RuntimeConfig
from repro.placement.binder import bind_program
from repro.simulate.machine import Machine

LK23 = Lk23Config(n=1024, grid_rows=2, grid_cols=2, iterations=2)


@pytest.fixture
def comm_calls(monkeypatch):
    """Every call made into any :class:`CommTracer`, by method name."""
    calls: list[str] = []
    for name in ("__init__", "register_all", "record", "record_by_id"):
        method = getattr(CommTracer, name)

        def counted(*args, _method=method, _name=name, **kwargs):
            calls.append(_name)
            return _method(*args, **kwargs)

        monkeypatch.setattr(CommTracer, name, counted)
    return calls


def test_config_and_result_carry_no_recorder():
    assert [f.name for f in fields(RuntimeConfig)] == [
        "control_threads", "grant_cost", "direct_grant_latency"
    ]
    assert "tracer" not in {f.name for f in fields(RunResult)}


@pytest.mark.parametrize("point", [
    lambda: run_point("orwl-bind", 16, iterations=1, n=1024, seed=1),
    lambda: run_point("orwl-nobind", 16, iterations=1, n=1024, seed=1),
    lambda: run_dag_point("cholesky", "bind", n_cores=16, scale=1, seed=2),
    lambda: run_scaling_point("paper", "orwl-bind", iterations=1, cells_per_core=64),
], ids=["fig1-bind", "fig1-nobind", "dag", "scaling"])
def test_default_points_make_no_recorder_calls(comm_calls, point):
    point()
    assert comm_calls == []


def test_a_given_recorder_is_called(comm_calls, small_topo):
    """A given recorder names the program's ops in declaration order and
    is called once per remote read."""
    prog = build_program(LK23)
    comm = CommTracer()
    Runtime(prog, Machine(small_topo, seed=0), comm=comm).run()
    assert comm.names == prog.layout().op_labels
    assert comm_calls[:2] == ["__init__", "register_all"]
    assert comm_calls.count("record_by_id") == comm.n_events > 0


@pytest.mark.parametrize("policy", ["treematch", "nobind"])
def test_recording_leaves_the_run_unchanged(small_topo, policy):
    """A recorder observes: the same run with and without one fires the
    same events at the same times."""
    prog = build_program(LK23)
    plan = bind_program(prog, small_topo, policy=policy)

    def run(comm):
        machine = Machine(small_topo, seed=4, tracer=Tracer())
        Runtime(
            prog, machine, mapping=plan.mapping,
            control_mapping=plan.control_mapping, comm=comm,
        ).run()
        return run_fingerprint(machine)

    comm = CommTracer()
    assert run(comm) == run(None)
    assert comm.n_events > 0


def test_one_recorder_accumulates_across_runs(small_topo):
    prog = build_program(LK23)
    once, twice = CommTracer(), CommTracer()
    Runtime(prog, Machine(small_topo, seed=0), comm=once).run()
    for _ in range(2):
        Runtime(prog, Machine(small_topo, seed=0), comm=twice).run()
    assert twice.names == once.names
    assert twice.n_events == 2 * once.n_events
    assert (twice.to_matrix().values == 2 * once.to_matrix().values).all()
