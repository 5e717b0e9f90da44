"""One path per ORWL protocol step.

The runtime drives each location's FIFO itself: an acquire reads the
handle's live request, and ``orwl_next``, a release and an operation's
teardown each reach :meth:`~repro.orwl.fifo.OrwlFifo.release` in one
frame.  :class:`~repro.orwl.handle.Handle` and
:class:`~repro.orwl.location.Location` keep only state, so:

* no frame from ``orwl/handle.py`` or ``orwl/location.py`` runs during
  ``Runtime.run`` of an LK23 program, bound or not, with control
  threads or direct grants, or of any E7 DAG family (the ``on_call`` hook sees every Python frame, so this holds
  on every Python version);
* the Python calls of one warm op of each host benchmark simulation
  workload stay within 2 % of their count on CPython 3.11.7, collector
  off, sim seed 0, graph seed 0:

  - a ``fig1-192`` ORWL-Bind op (192 cores, n=16384, 5 iterations):
    516,758 calls; 527,734 with the handle methods at teardown and a
    grant-callback setter per location when a run ends;
  - a ``dag-e7`` row (64 cores, scale 5, every family under Bind and
    NoBind): 149,103 calls; 157,887 with those.

  Other versions count differently (3.12 inlines comprehensions,
  which only lowers the counts).
"""

from __future__ import annotations

import os

import pytest

from repro.exec.cache import machine_inputs
from repro.experiments.dag import build_workload, run_dag_point
from repro.experiments.fig1 import run_point
from repro.orwl import handle as handle_mod, location as location_mod
from repro.orwl.runtime import Runtime
from repro.placement.binder import bind_program
from repro.simulate.machine import Machine
from repro.tasks.compile import compile_graph, dag_matrix
from tests.conftest import count_calls
from tests.test_handle_cycle import _lk23

_STATE_FILES = {
    os.path.abspath(handle_mod.__file__),
    os.path.abspath(location_mod.__file__),
}

#: Python calls of one warm op on CPython 3.11.7, and the room left.
FIG1_BIND_CALLS = 516_758
DAG_ROW_CALLS = 149_103
ROOM = 1.02


def _dag(family: str) -> Runtime:
    """An E7 family at scale 2, TreeMatch on 2x8 cores, seed 0."""
    graph = build_workload(family, scale=2, graph_seed=0)
    topo, dm = machine_inputs("paper-smp", 2, 8)
    program = compile_graph(graph)
    plan = bind_program(program, topo, policy="treematch", matrix=dag_matrix(graph))
    return Runtime(
        program, Machine(topo, distance_model=dm, seed=0),
        mapping=plan.mapping, control_mapping=plan.control_mapping,
    )


RUNS = {
    "lk23-bind": lambda: _lk23("treematch", control_threads=True),
    "lk23-nobind": lambda: _lk23("nobind", control_threads=True),
    "lk23-direct-grants": lambda: _lk23("treematch", control_threads=False),
    "cholesky": lambda: _dag("cholesky"),
    "bfs": lambda: _dag("bfs"),
    "divconq": lambda: _dag("divconq"),
}


@pytest.mark.parametrize("case", sorted(RUNS))
def test_run_calls_no_handle_or_location_code(case):
    seen: list[str] = []

    def on_call(code):
        if code.co_filename in _STATE_FILES:
            seen.append(code.co_name)

    result = count_calls(RUNS[case]().run, on_call=on_call).result
    assert result.engine_events > 100
    assert seen == [], f"handle/location frames ran: {sorted(set(seen))}"


def _fig1_bind_op():
    return run_point("orwl-bind", 192, iterations=5, n=16384, cores_per_socket=8, seed=0)


def _dag_row():
    return [
        run_dag_point(
            family, policy, n_cores=64, cores_per_socket=8, scale=5,
            graph_seed=0, seed=0,
        )
        for family in ("cholesky", "bfs", "divconq")
        for policy in ("bind", "nobind")
    ]


@pytest.mark.parametrize(
    "op, calls",
    [(_fig1_bind_op, FIG1_BIND_CALLS), (_dag_row, DAG_ROW_CALLS)],
    ids=["fig1-192-bind", "dag-e7-row"],
)
def test_warm_op_calls_are_bounded(op, calls):
    op()  # warm: imports, memos and per-process caches are paid once
    counted = count_calls(op).python
    assert counted <= calls * ROOM, (
        f"{counted} Python calls, bound {calls} + {ROOM - 1:.0%}"
    )
