"""Shared fixtures: small topologies and matrices used across modules,
the reference drain loop, and the call counter of the cost tests."""

from __future__ import annotations

import gc
import sys
from dataclasses import dataclass
from typing import Any, Callable, Optional

import numpy as np
import pytest

from repro.comm import patterns
from repro.simulate.engine import Engine, SimulationError
from repro.topology import presets
from repro.topology.builder import TopologyBuilder, flat_topology
from repro.topology.objects import ObjType


@pytest.fixture
def small_topo():
    """2 NUMA nodes × 4 cores = 8 PUs."""
    return presets.small_numa(2, 4)


@pytest.fixture
def ht_topo():
    """2 NUMA nodes × 2 cores × 2 hyperthreads = 8 PUs."""
    return (
        TopologyBuilder("ht-test")
        .add_level(ObjType.NUMANODE, 2)
        .add_level(ObjType.PACKAGE, 1)
        .add_level(ObjType.L3, 1)
        .add_level(ObjType.CORE, 2)
        .add_level(ObjType.PU, 2)
        .build()
    )


@pytest.fixture
def flat8():
    """8 PUs, one level of cores, no NUMA."""
    return flat_topology(8)


@pytest.fixture
def paper_topo_small():
    """A 4-socket slice of the paper's machine (32 PUs) — fast tests."""
    return presets.paper_smp(4, 8)


@pytest.fixture
def stencil_matrix():
    """4×4 block stencil affinity (order 16)."""
    return patterns.stencil_2d(4, 4, edge_volume=100.0)


@pytest.fixture
def clustered_matrix():
    """2 clusters of 4 with a known optimal grouping (order 8)."""
    return patterns.clustered(2, 4, intra_volume=100.0, inter_volume=1.0, seed=7)


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


#: Two loops that drain the event queue; every schedule must come out
#: the same under both.  "batched": ``Engine.run`` drains the queue in
#: one call, the path every simulation takes.  "scalar": the reference
#: loop below pops one event per ``Engine.step`` call and keeps the
#: ``until`` and ``max_events`` bookkeeping itself.
DRAIN_MODES = ("batched", "scalar")


def step_drain(engine, until=None, max_events=500_000_000):
    """Reference drain: ``Engine.run`` rebuilt from single steps."""
    step_drain.calls += 1
    fired = 0
    while engine.pending:
        if until is not None and engine._heap[0][0] > until:
            engine._now = until
            break
        engine.step()
        fired += 1
        if fired > max_events:
            raise SimulationError(f"exceeded max_events={max_events}")
    return engine.now


@pytest.fixture
def mode(request, monkeypatch):
    """Select a drain loop (parametrize ``mode`` over DRAIN_MODES with
    ``indirect=True``).  Under "scalar" every ``Engine.run`` in the
    test, including the one inside ``Machine.run``, is the reference
    loop, and the test fails if it never ran."""
    if request.param == "batched":
        yield request.param
        return
    monkeypatch.setattr(Engine, "run", step_drain)
    step_drain.calls = 0
    yield request.param
    assert step_drain.calls > 0, "the scalar drain never ran"


@dataclass
class CallCount:
    """What :func:`count_calls` saw: Python and C calls, and the result."""

    python: int
    c: int
    result: Any


def count_calls(
    fn: Callable[..., Any],
    *args: Any,
    on_call: Optional[Callable[[Any], None]] = None,
    **kwargs: Any,
) -> CallCount:
    """Run ``fn(*args, **kwargs)`` under ``sys.setprofile`` and count
    its calls.

    *on_call(code)*, if given, sees the code object of every Python
    call.  The collector is off while the profiler counts: a collection
    would finalize generators that earlier tests left suspended and
    count their frames as calls of *fn*.  Counts are exact for one
    CPython version; other versions count differently (3.12 inlines
    comprehensions).
    """
    python = c = 0

    def profile(frame, event, arg):
        nonlocal python, c
        if event == "call":
            python += 1
            if on_call is not None:
                on_call(frame.f_code)
        elif event == "c_call":
            c += 1

    gc.collect()
    gc.disable()
    sys.setprofile(profile)
    try:
        result = fn(*args, **kwargs)
    finally:
        sys.setprofile(None)
        gc.enable()
    return CallCount(python, c, result)
