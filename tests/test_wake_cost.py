"""A parked ORWL thread is woken directly: no event object per wake.

Every lock grant an acquire waits on, and every control-thread sleep,
has exactly one waiter and one known waker.  The runtime parks the
thread (:class:`~repro.simulate.syscalls.Park`) and the waker
reschedules it (the entry ``engine.schedule`` would push), so a run builds no
:class:`~repro.simulate.engine.SimEvent` at all.  This case runs two
ORWL workloads under ``sys.setprofile``, counts their ``SimEvent``
constructions and bounds their Python calls per engine event, so a
return to a one-shot event (plus its ``Wait`` and name string) per wake
fails on any host.

The bounds also hold the flat per-event path: one Python frame per
syscall outcome (the thread's continuation dispatches the common
syscalls itself, compute and transfers are one frame each, the drain
pops the heap inline and an operation's teardown is an exit hook, not
a wrapping generator), so a return to a chain of small helpers per
event fails here too, and so does a return to a new request and a
chain of frames per ORWL handle iteration (``orwl_next``).

Only ``Runtime.run`` is profiled, with the collector off (a collection
would finalize generators that earlier tests left suspended and count
their frames).  Measured on CPython 3.11, calls per engine event:

* LK23 (``tests/test_trace_cost.py``'s configuration): 6.46 (17,728
  calls for 2,743 engine events); 6.56 with a chain of handle and FIFO
  frames per operation teardown, 9.05 with a new request and a chain of
  frames per handle iteration as well, 19.24 with a helper chain per
  event as well, and 20.77 with an event per wake as well (839 events);
* a ``divconq`` DAG point (scale 2, TreeMatch, 16 cores): 5.79 (5,507
  calls for 951 engine events); 6.18 with that teardown chain, 7.36
  with a chain of frames per release as well, 14.94 with a helper chain
  per event as well, and 16.50 with an event per wake as well (297
  events).

Other versions count calls differently, so the bounds leave up to 4 %
of room; the ``SimEvent`` count is exact everywhere.
"""

from __future__ import annotations

import pytest

from repro.comm.patterns import square_grid_shape
from repro.exec.cache import machine_inputs
from repro.experiments.dag import build_workload
from repro.kernels.lk23_orwl import Lk23Config, build_program
from repro.orwl.runtime import Runtime
from repro.placement.binder import bind_program
from repro.simulate.engine import SimEvent
from repro.simulate.machine import Machine
from repro.tasks.compile import compile_graph, dag_matrix
from tests.conftest import count_calls

_SIM_EVENT_INIT = SimEvent.__init__.__code__


def _lk23_runtime() -> Runtime:
    """Small-numa, n=4096, 8 iterations, TreeMatch, seed 0."""
    topo, dm = machine_inputs("small-numa")
    rows, cols = square_grid_shape(topo.nb_pus)
    program = build_program(
        Lk23Config(n=4096, grid_rows=rows, grid_cols=cols, iterations=8)
    )
    plan = bind_program(program, topo, policy="treematch")
    return Runtime(
        program, Machine(topo, distance_model=dm, seed=0),
        mapping=plan.mapping, control_mapping=plan.control_mapping,
    )


def _divconq_runtime() -> Runtime:
    """A divide-and-conquer DAG (scale 2), TreeMatch on 2x8 cores, seed 0."""
    graph = build_workload("divconq", scale=2, graph_seed=0)
    topo, dm = machine_inputs("paper-smp", 2, 8)
    program = compile_graph(graph)
    plan = bind_program(program, topo, policy="treematch", matrix=dag_matrix(graph))
    return Runtime(
        program, Machine(topo, distance_model=dm, seed=0),
        mapping=plan.mapping, control_mapping=plan.control_mapping,
    )


#: (runtime factory, bound on Python calls per engine event).
CASES = {
    "lk23": (_lk23_runtime, 6.7),
    "divconq": (_divconq_runtime, 6.0),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_wakes_build_no_event_and_few_calls_per_engine_event(case):
    make, max_calls_per_event = CASES[case]
    make().run()  # warm: imports and per-process caches are paid once
    events = 0

    def on_call(code):
        nonlocal events
        if code is _SIM_EVENT_INIT:
            events += 1

    counted = count_calls(make().run, on_call=on_call)
    calls, result = counted.python, counted.result
    assert result.engine_events > 500
    assert events == 0, f"{events} SimEvents built"
    per_event = calls / result.engine_events
    assert per_event <= max_calls_per_event, (
        f"{per_event:.2f} Python calls per engine event "
        f"({calls} calls, {result.engine_events} engine events)"
    )
