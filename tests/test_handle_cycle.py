"""An iterating handle keeps one request for a whole run.

``orwl_next`` sends a handle back to the tail of its location's queue
once per round.  When the handle's request is the held head and its
grant has been delivered, :meth:`~repro.orwl.fifo.OrwlFifo.release`
with ``again`` re-enters that same :class:`~repro.orwl.fifo.Request`
instead of building a new one, and the runtime reaches the FIFO in one
frame.
These cases check that:

* an LK23 run builds no ``Request`` at all (the init plan seeds one per
  handle before the run starts), bound or not, with control threads or
  direct grants;
* a handle's request is the same object in every round;
* ``orwl_next`` with reuse grants exactly what the fresh-request form,
  ``insert`` then ``release(old)``, grants, with the same states and
  counters, whether or not each grant has been delivered;
* the ORWL layer makes a bounded number of Python calls per handle
  iteration.  Measured on CPython 3.11 for ``tests/test_wake_cost.py``'s
  LK23 configuration: 7.70 (8,618 calls for 1,120 iterations); 7.92
  with a chain of handle and FIFO frames per operation teardown, 14.02
  with a new request and a chain of five frames per iteration as well.
  Other versions count calls differently, so the bound leaves 4 % of
  room.

Profiled cases run with the collector off (a collection would finalize
generators that earlier tests left suspended and count their frames).
"""

from __future__ import annotations

import os

import pytest
from hypothesis import given, settings, strategies as st

from repro.comm.patterns import square_grid_shape
from repro.exec.cache import machine_inputs
from repro.kernels.lk23_orwl import Lk23Config, build_program
from repro.orwl import AccessMode, Program, idioms
from repro.orwl import fifo as fifo_mod
from repro.orwl.fifo import _DELIVERED, OrwlFifo, Request, RequestState
from repro.orwl.runtime import OpContext, Runtime, RuntimeConfig
from repro.placement.binder import bind_program
from repro.simulate.machine import Machine
from repro.treematch.mapping import Mapping
from tests.conftest import count_calls
from tests.test_wake_cost import _lk23_runtime

R, W = AccessMode.READ, AccessMode.WRITE
_REQUEST_INIT = Request.__init__.__code__
#: ``OpContext.next`` runs once per handle iteration (``orwl_next``).
_NEXT = OpContext.next.__code__
_ORWL_DIR = os.path.dirname(fifo_mod.__file__) + os.sep

#: Python calls the ``orwl`` layer may make per handle iteration.
MAX_ORWL_CALLS_PER_ITERATION = 8.0


def _lk23(policy: str, control_threads: bool) -> Runtime:
    """Small-numa LK23, n=1024, 3 iterations, seed 0."""
    topo, dm = machine_inputs("small-numa")
    rows, cols = square_grid_shape(topo.nb_pus)
    program = build_program(
        Lk23Config(n=1024, grid_rows=rows, grid_cols=cols, iterations=3)
    )
    plan = bind_program(program, topo, policy=policy)
    return Runtime(
        program, Machine(topo, distance_model=dm, seed=0),
        mapping=plan.mapping, control_mapping=plan.control_mapping,
        config=RuntimeConfig(control_threads=control_threads),
    )


@pytest.mark.parametrize("control_threads", [True, False], ids=["ctl", "direct"])
@pytest.mark.parametrize("policy", ["treematch", "nobind"])
def test_lk23_run_builds_no_request(policy, control_threads):
    counts = {"requests": 0, "requeues": 0}

    def on_call(code):
        if code is _REQUEST_INIT:
            counts["requests"] += 1
        elif code is _NEXT:
            counts["requeues"] += 1

    count_calls(_lk23(policy, control_threads).run, on_call=on_call)
    assert counts["requeues"] > 100
    assert counts["requests"] == 0, f"{counts['requests']} requests built"


def _ring(n_tasks: int, iterations: int, log: dict) -> Program:
    """Each task writes its own location and reads its left neighbour's;
    every sweep logs the live request of each of its handles."""
    prog = Program("ring")
    locs = [
        prog.location(f"l{i}", 512.0, owner_task=f"t{i}") for i in range(n_tasks)
    ]
    for i in range(n_tasks):
        op = prog.task(f"t{i}").operation("main", body=None)
        hw = op.handle(locs[i], W)
        hr = op.handle(locs[i - 1], R)
        hr.init_phase = 1

        def work(ctx, _k, hw=hw, hr=hr):
            for h in (hw, hr):
                log.setdefault(h, []).append(h.request)
            yield ctx.compute(seconds=1e-5)

        op.body = lambda ctx, hw=hw, hr=hr, work=work: idioms.iterative(
            ctx, iterations, work, reads=[hr], writes=[hw]
        )
    return prog


@pytest.mark.parametrize("control_threads", [True, False], ids=["ctl", "direct"])
def test_handle_request_is_one_object_across_rounds(small_topo, control_threads):
    iterations = 5
    log: dict = {}
    prog = _ring(3, iterations, log)
    rt = Runtime(
        prog, Machine(small_topo, seed=0), mapping=Mapping((0, 2, 4)),
        config=RuntimeConfig(control_threads=control_threads),
    )
    seeded = {h: h.request for op in prog.operations() for h in op.handles}
    rt.run()
    assert set(log) == set(seeded)
    for h, seen in log.items():
        assert len(seen) == iterations
        assert all(req is seeded[h] for req in seen), h


def _view(fifo: OrwlFifo, live: list) -> tuple:
    """What reuse must agree on with the fresh-request oracle: every
    handle's live request, the queue and the counters."""
    return (
        [None if r is None else (r.tag, r.mode, r.state, r.waiter) for r in live],
        [r.tag for r in fifo.queue],
        fifo.granted_count(),
        fifo.inserted,
        fifo.holder_modes(),
    )


@settings(max_examples=200, deadline=None)
@given(
    st.booleans(),
    st.lists(
        st.tuples(
            st.sampled_from(
                ["insert-R", "insert-W", "release", "cancel", "next", "deliver"]
            ),
            st.integers(0, 11),
        ),
        min_size=1,
        max_size=60,
    ),
)
def test_requeue_with_reuse_matches_fresh_insert_then_release(direct, script):
    """Property: ``orwl_next`` gives the same grant-callback sequence,
    request states and counters as ``insert`` then ``release(old)``
    with a fresh request each round, over random mixed READ/WRITE
    queues whose grants are delivered at once (*direct*, as without
    control threads) or when the script says (``deliver``: the oldest
    *k* + 1 grants, as a control thread serves its queue).  It
    re-enters *old* exactly when *old* is the held head and its grant
    has been delivered."""
    sides = []
    for _ in range(2):
        log, undelivered = [], []

        def on_grant(req, log=log, undelivered=undelivered):
            log.append(req.tag)
            if direct:
                req.payload = _DELIVERED
            else:
                undelivered.append(req)

        sides.append((OrwlFifo(on_grant, "loc"), log, undelivered, []))
    (one, one_log, one_new, one_live), (two, two_log, two_new, two_live) = sides
    for step, (action, k) in enumerate(script):
        live = [i for i, r in enumerate(one_live) if r is not None]
        granted = [i for i in live if one_live[i].state is RequestState.GRANTED]
        tag = f"q{step}"
        if action.startswith("insert"):
            mode = R if action == "insert-R" else W
            one_live.append(one.insert(mode, tag, waiter=step))
            two_live.append(two.insert(mode, tag, waiter=step))
        elif action == "deliver":
            assert len(one_new) == len(two_new)
            for pending in (one_new, two_new):
                for req in pending[:k + 1]:
                    req.payload = _DELIVERED
                del pending[:k + 1]
        elif action == "release" and granted:
            i = granted[k % len(granted)]
            one.release(one_live[i])
            two.release(two_live[i])
            one_live[i] = two_live[i] = None
        elif action == "cancel" and live:
            i = live[k % len(live)]
            one.cancel(one_live[i])
            two.cancel(two_live[i])
            one_live[i] = two_live[i] = None
        elif action == "next" and granted:
            i = granted[k % len(granted)]
            old = one_live[i]
            reusable = old.payload is _DELIVERED and one.queue[0] is old
            one_live[i] = one.release(old, True, tag, waiter=step)
            assert (one_live[i] is old) == reusable
            fresh = two.insert(two_live[i].mode, tag, waiter=step)
            two.release(two_live[i])
            two_live[i] = fresh
        assert one_log == two_log
        assert _view(one, one_live) == _view(two, two_live)


def test_orwl_calls_per_handle_iteration_are_bounded():
    _lk23_runtime().run()  # warm: imports and per-process caches are paid once
    counts = {"orwl": 0, "iterations": 0}

    def on_call(code):
        if code.co_filename.startswith(_ORWL_DIR):
            counts["orwl"] += 1
            if code is _NEXT:
                counts["iterations"] += 1

    count_calls(_lk23_runtime().run, on_call=on_call)
    assert counts["iterations"] > 500
    per_iteration = counts["orwl"] / counts["iterations"]
    assert per_iteration <= MAX_ORWL_CALLS_PER_ITERATION, (
        f"{per_iteration:.2f} orwl calls per handle iteration "
        f"({counts['orwl']} calls, {counts['iterations']} iterations)"
    )
