"""Differential harness: the batched engine vs the scalar reference.

The engine refactor's contract (DESIGN.md, "Determinism contract") is
absolute: for any workload, ``Engine(mode="batched")`` and
``Engine(mode="scalar")`` must produce identical firing order, clocks,
counters, traces, metrics, and determinism fingerprints.  Two layers
pin it:

* **property layer** — hypothesis generates random engine programs
  (mixed delays with deliberate same-time ties, wait/fire chains,
  mid-run ``at()`` scheduling, late waiters on fired events) and an
  interpreter replays each program on both modes; the full ``(label,
  time)`` firing log must match element for element.
* **system layer** — real simulations (all three Figure-1
  implementations, traced LK23 runs) under both modes must agree on
  the sha-256 run fingerprint, the metrics fingerprint and summary
  dict, ``events_fired``, and the byte-exact JSONL trace export; every
  one of those runs must also keep all conservation laws of
  :mod:`repro.observe.invariants`.

Example counts are deliberately bounded (CI runs this module on every
push); crank ``max_examples`` locally when touching the engine core.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.api import run_lk23
from repro.experiments.fig1 import run_point
from repro.observe import capture
from repro.observe.determinism import metrics_fingerprint, stream_hash
from repro.observe.export import dumps_jsonl
from repro.simulate.engine import ENGINE_MODES, Engine, SimEvent

# A small discrete delay pool forces same-timestamp collisions — the
# case the cohort machinery reorders if the seq bookkeeping is wrong.
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


def run_program(mode: str, program) -> dict:
    """Interpret *program* on one engine mode; return every observable."""
    eng = Engine(mode=mode)
    log: list[tuple] = []
    events: list[SimEvent] = []

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
            events.append(SimEvent(eng, f"ev{len(events)}"))
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
        scalar = run_program("scalar", program)
        batched = run_program("batched", program)
        assert batched == scalar

    @given(width=st.integers(2, 40), delay=DELAYS)
    @settings(max_examples=20, deadline=None)
    def test_barrier_release_order(self, width, delay):
        """A wide wakeup must release in registration order in both modes."""
        logs = {}
        for mode in ENGINE_MODES:
            eng = Engine(mode=mode)
            ev = SimEvent(eng, "barrier")
            log: list[int] = []
            for k in range(width):
                ev.wait(lambda k=k: log.append(k))
            eng.schedule(1.0, lambda: ev.fire(delay))
            eng.run()
            logs[mode] = (log, eng.events_fired, eng.now, eng.pending)
        assert logs["batched"] == logs["scalar"]


SYSTEM_CONFIG = dict(topology="small-numa", n=2048, iterations=2, seed=3)


class TestSystemDifferential:
    @pytest.mark.parametrize("policy", ["treematch", "nobind", "scatter"])
    def test_lk23_trace_and_metrics_identical(self, policy):
        with capture() as cap:
            results = {
                mode: run_lk23(policy=policy, trace=True, engine_mode=mode,
                               **SYSTEM_CONFIG)
                for mode in ENGINE_MODES
            }
        # Both runs keep every conservation law (raises on violation).
        assert len(cap.check_all()) == len(ENGINE_MODES)
        scalar, batched = results["scalar"], results["batched"]
        assert batched.time == scalar.time
        assert batched.metrics.summary() == scalar.metrics.summary()
        assert metrics_fingerprint(batched.metrics) == metrics_fingerprint(
            scalar.metrics
        )
        assert stream_hash(batched.trace.events) == stream_hash(
            scalar.trace.events
        )
        assert batched.trace.engine_steps == scalar.trace.engine_steps
        # The exported JSONL trace must match byte for byte.
        assert dumps_jsonl(batched.trace.events) == dumps_jsonl(
            scalar.trace.events
        )

    @pytest.mark.parametrize(
        "implementation", ["orwl-bind", "orwl-nobind", "openmp"]
    )
    def test_fig1_fingerprints_identical(self, implementation):
        with capture() as cap:
            points = {
                mode: run_point(
                    implementation, n_cores=8, iterations=2, n=1024,
                    fingerprint=True, engine_mode=mode,
                )
                for mode in ENGINE_MODES
            }
        assert len(cap.check_all()) == len(ENGINE_MODES)
        scalar, batched = points["scalar"], points["batched"]
        assert batched.fingerprint == scalar.fingerprint
        assert batched.time == scalar.time
        assert batched.local_fraction == scalar.local_fraction
        assert batched.migrations == scalar.migrations
        assert batched.remote_bytes == scalar.remote_bytes
