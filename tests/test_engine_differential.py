"""Differential harness: the event engine against a reference model.

The engine's ordering contract (DESIGN.md, "Determinism contract") is
absolute: same-time events fire in scheduling order, a fire releases
its waiters in registration order, and a waiter arriving after a fire
runs at the release time (or now, if that has passed).  Two layers pin
it:

* **property layer** — hypothesis generates random engine programs
  (mixed delays with deliberate same-time ties, wait/fire chains,
  mid-run ``at()`` scheduling, late waiters on fired events) and an
  interpreter replays each program on :class:`Engine` and on the
  minimal reference engine below; the full ``(label, time)`` firing
  log must match element for element.
* **system layer** — real simulations (three LK23 policies, all three
  Figure-1 implementations) keep every conservation law of
  :mod:`repro.observe.invariants`, and a second identical run must
  reproduce the sha-256 run fingerprint, the metrics fingerprint and
  summary dict, the engine step count, and the byte-exact JSONL trace.

Example counts are deliberately bounded (CI runs this module on every
push); crank ``max_examples`` locally when touching the engine core.
"""

from __future__ import annotations

import heapq

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.api import run_lk23
from repro.experiments.fig1 import run_point
from repro.observe import capture
from repro.observe.determinism import metrics_fingerprint, stream_hash
from repro.observe.export import dumps_jsonl
from repro.simulate.engine import Engine, SimEvent


class RefEngine:
    """Reference engine: a heap of (time, seq, fn), seq breaking ties."""

    pending = property(lambda self: len(self.heap))

    def __init__(self) -> None:
        self.now, self.heap, self.seq, self.events_fired = 0.0, [], 0, 0

    def at(self, time, fn) -> None:
        self.seq += 1
        heapq.heappush(self.heap, (time, self.seq, fn))

    def schedule(self, delay, fn) -> None:
        self.at(self.now + delay, fn)

    def run(self) -> None:
        while self.heap:
            self.now, _, fn = heapq.heappop(self.heap)
            self.events_fired += 1
            fn()


class RefEvent:
    """Reference one-shot event: waiters leave in registration order."""

    fired = property(lambda self: self.release_at is not None)

    def __init__(self, engine: RefEngine, name: str = "") -> None:
        self.engine, self.waiters, self.release_at = engine, [], None

    def wait(self, cb) -> None:
        if self.fired:
            self.engine.at(max(self.engine.now, self.release_at), cb)
        else:
            self.waiters.append(cb)

    def fire(self, delay: float = 0.0) -> None:
        self.release_at = self.engine.now + delay
        for cb in self.waiters:
            self.engine.at(self.release_at, cb)


# A small discrete delay pool forces same-timestamp collisions — the
# case the seq tie-break orders.
DELAYS = st.sampled_from([0.0, 0.0, 0.5, 1.0, 1.0, 2.0, 3.5])

OPS = st.one_of(
    st.tuples(st.just("schedule"), DELAYS),
    st.tuples(st.just("at"), DELAYS),
    st.tuples(st.just("event")),
    st.tuples(st.just("wait"), st.integers(0, 7)),
    st.tuples(st.just("fire"), st.integers(0, 7), DELAYS),
    st.tuples(st.just("chain"), st.integers(0, 7), st.integers(0, 7), DELAYS),
)

#: A program is a sequence of driver steps; each step executes a chunk
#: of ops from *inside* a scheduled callback after a generated delay,
#: so waits/fires/at() happen mid-run, interleaved with event dispatch.
PROGRAMS = st.lists(
    st.tuples(DELAYS, st.lists(OPS, max_size=8)), min_size=1, max_size=6
)

IMPLS = {"engine": (Engine, SimEvent), "reference": (RefEngine, RefEvent)}


def run_program(impl: str, program) -> dict:
    """Interpret *program* on one implementation; return every observable."""
    engine_cls, event_cls = IMPLS[impl]
    eng = engine_cls()
    log: list[tuple] = []
    events: list = []

    def logged(label):
        def cb() -> None:
            log.append((label, eng.now))

        return cb

    def exec_op(step: int, k: int, op) -> None:
        kind = op[0]
        if kind == "schedule":
            eng.schedule(op[1], logged(("s", step, k)))
        elif kind == "at":
            eng.at(eng.now + op[1], logged(("a", step, k)))
        elif kind == "event":
            events.append(event_cls(eng, f"ev{len(events)}"))
        elif kind == "wait":
            if events:
                events[op[1] % len(events)].wait(logged(("w", step, k)))
        elif kind == "fire":
            if events:
                ev = events[op[1] % len(events)]
                if not ev.fired:
                    ev.fire(op[2])
        elif kind == "chain":
            if events:
                src = events[op[1] % len(events)]
                dst = events[op[2] % len(events)]
                delay = op[3]

                def chain(dst=dst, delay=delay, label=("c", step, k)) -> None:
                    log.append((label, eng.now))
                    if not dst.fired:
                        dst.fire(delay)

                src.wait(chain)

    at = 0.0
    for step, (delay, ops) in enumerate(program):
        at += delay

        def run_chunk(step=step, ops=ops) -> None:
            log.append((("drv", step), eng.now))
            for k, op in enumerate(ops):
                exec_op(step, k, op)

        eng.at(at, run_chunk)
    eng.run()
    return {
        "log": log,
        "events_fired": eng.events_fired,
        "now": eng.now,
        "pending": eng.pending,
    }


class TestPropertyDifferential:
    @given(program=PROGRAMS)
    @settings(max_examples=60, deadline=None)
    def test_random_programs_identical(self, program):
        assert run_program("engine", program) == run_program("reference", program)

    @given(width=st.integers(2, 40), delay=DELAYS)
    @settings(max_examples=20, deadline=None)
    def test_barrier_release_order(self, width, delay):
        """A wide wakeup releases in registration order, one event each."""
        eng = Engine()
        ev = SimEvent(eng, "barrier")
        log: list[int] = []
        for k in range(width):
            ev.wait(lambda k=k: log.append(k))
        eng.schedule(1.0, lambda: ev.fire(delay))
        eng.run()
        assert log == list(range(width))
        assert (eng.events_fired, eng.now, eng.pending) == (width + 1, 1.0 + delay, 0)


SYSTEM_CONFIG = dict(topology="small-numa", n=2048, iterations=2, seed=3)


class TestSystemDifferential:
    @pytest.mark.parametrize("policy", ["treematch", "nobind", "scatter"])
    def test_lk23_trace_and_metrics_identical(self, policy):
        with capture() as cap:
            first = run_lk23(policy=policy, trace=True, **SYSTEM_CONFIG)
        # The run keeps every conservation law (raises on violation).
        assert len(cap.check_all()) == 1
        again = run_lk23(policy=policy, trace=True, **SYSTEM_CONFIG)
        assert again.time == first.time
        assert again.metrics.summary() == first.metrics.summary()
        assert metrics_fingerprint(again.metrics) == metrics_fingerprint(
            first.metrics
        )
        assert stream_hash(again.trace.events) == stream_hash(first.trace.events)
        assert again.trace.engine_steps == first.trace.engine_steps
        # The exported JSONL trace must match byte for byte.
        assert dumps_jsonl(again.trace.events) == dumps_jsonl(first.trace.events)

    @pytest.mark.parametrize(
        "implementation", ["orwl-bind", "orwl-nobind", "openmp"]
    )
    def test_fig1_fingerprints_identical(self, implementation):
        config = dict(n_cores=8, iterations=2, n=1024, fingerprint=True)
        with capture() as cap:
            first = run_point(implementation, **config)
        assert len(cap.check_all()) == 1
        again = run_point(implementation, **config)
        assert again.fingerprint == first.fingerprint
        assert again.time == first.time
        assert again.local_fraction == first.local_fraction
        assert again.migrations == first.migrations
        assert again.remote_bytes == first.remote_bytes
