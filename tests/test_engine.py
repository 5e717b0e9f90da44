"""Tests for the discrete-event engine and SimEvent.

Cases parametrized over ``mode`` run under both drain loops of
``tests/conftest.py``: one ``Engine.run`` call ("batched") and a
reference loop of single ``Engine.step`` calls ("scalar").  The
randomized ordering laws (against a minimal reference engine) live in
``tests/test_engine_differential.py``.
"""

import math

import pytest

from repro.simulate.engine import Engine, SimEvent, SimulationError

from .conftest import DRAIN_MODES


class TestEngine:
    def test_time_starts_at_zero(self):
        assert Engine().now == 0.0

    def test_events_fire_in_time_order(self):
        e = Engine()
        log = []
        e.schedule(2.0, lambda: log.append("b"))
        e.schedule(1.0, lambda: log.append("a"))
        e.schedule(3.0, lambda: log.append("c"))
        e.run()
        assert log == ["a", "b", "c"]
        assert e.now == 3.0

    def test_same_time_fifo_order(self):
        e = Engine()
        log = []
        for k in range(5):
            e.schedule(1.0, lambda k=k: log.append(k))
        e.run()
        assert log == [0, 1, 2, 3, 4]

    def test_negative_delay_rejected(self):
        with pytest.raises(SimulationError):
            Engine().schedule(-1.0, lambda: None)

    def test_at_absolute_time(self):
        e = Engine()
        log = []
        e.at(5.0, lambda: log.append(e.now))
        e.run()
        assert log == [5.0]

    def test_at_past_rejected(self):
        e = Engine()
        e.schedule(2.0, lambda: None)
        e.run()
        with pytest.raises(SimulationError):
            e.at(1.0, lambda: None)

    def test_nested_scheduling(self):
        e = Engine()
        log = []

        def first():
            log.append(("first", e.now))
            e.schedule(1.0, lambda: log.append(("second", e.now)))

        e.schedule(1.0, first)
        e.run()
        assert log == [("first", 1.0), ("second", 2.0)]

    def test_run_until(self):
        e = Engine()
        log = []
        e.schedule(1.0, lambda: log.append(1))
        e.schedule(10.0, lambda: log.append(10))
        e.run(until=5.0)
        assert log == [1]
        assert e.now == 5.0
        assert e.pending == 1

    def test_step_empty_returns_false(self):
        assert Engine().step() is False

    def test_max_events_guard(self):
        e = Engine()

        def loop():
            e.schedule(0.0, loop)

        e.schedule(0.0, loop)
        with pytest.raises(SimulationError):
            e.run(max_events=100)

    def test_events_fired_counter(self):
        e = Engine()
        for _ in range(3):
            e.schedule(1.0, lambda: None)
        e.run()
        assert e.events_fired == 3


class TestSimEvent:
    def test_wait_then_fire(self):
        e = Engine()
        ev = SimEvent(e, "x")
        log = []
        ev.wait(lambda: log.append(e.now))
        e.schedule(2.0, ev.fire)
        e.run()
        assert log == [2.0]
        assert ev.fired

    def test_wait_after_fire_immediate(self):
        e = Engine()
        ev = SimEvent(e)
        ev.fire()
        log = []
        ev.wait(lambda: log.append(e.now))
        e.run()
        assert log == [0.0]

    def test_fire_with_delay(self):
        e = Engine()
        ev = SimEvent(e)
        log = []
        ev.wait(lambda: log.append(e.now))
        ev.fire(delay=3.0)
        e.run()
        assert log == [3.0]

    def test_late_waiter_honours_fire_delay(self):
        """A waiter registering after fire() still waits until release."""
        e = Engine()
        ev = SimEvent(e)
        log = []
        ev.fire(delay=5.0)
        ev.wait(lambda: log.append(e.now))
        e.run()
        assert log == [5.0]

    def test_waiter_after_release_time_runs_now(self):
        e = Engine()
        ev = SimEvent(e)
        ev.fire(delay=1.0)
        log = []
        e.schedule(10.0, lambda: ev.wait(lambda: log.append(e.now)))
        e.run()
        assert log == [10.0]

    def test_double_fire_rejected(self):
        e = Engine()
        ev = SimEvent(e)
        ev.fire()
        with pytest.raises(SimulationError):
            ev.fire()

    def test_multiple_waiters_all_released(self):
        e = Engine()
        ev = SimEvent(e)
        log = []
        for k in range(4):
            ev.wait(lambda k=k: log.append(k))
        ev.fire()
        e.run()
        assert sorted(log) == [0, 1, 2, 3]


class TestNonFiniteDelays:
    """Regression: NaN/inf delays used to slip into the heap.

    ``delay < 0`` is False for NaN, so the old negative-delay guard let
    NaN through — and one NaN timestamp silently corrupts heap ordering
    (every comparison against NaN is False).  All scheduling entry
    points must reject non-finite values up front, also once the
    engine has drained events and moved its clock.
    """

    BAD = [float("nan"), float("inf"), -float("inf"), -1.0]

    @staticmethod
    def _drained() -> Engine:
        """An engine whose clock a drain has moved to 1.0."""
        e = Engine()
        e.schedule(1.0, lambda: None)
        assert e.run() == 1.0
        return e

    @pytest.mark.parametrize("mode", DRAIN_MODES, indirect=True)
    @pytest.mark.parametrize("delay", BAD, ids=repr)
    def test_schedule_rejects(self, mode, delay):
        with pytest.raises(SimulationError, match="finite"):
            Engine().schedule(delay, lambda: None)
        e = self._drained()
        with pytest.raises(SimulationError, match="finite"):
            e.schedule(delay, lambda: None)
        assert e.pending == 0

    @pytest.mark.parametrize("mode", DRAIN_MODES, indirect=True)
    @pytest.mark.parametrize("time", BAD, ids=repr)
    def test_at_rejects(self, mode, time):
        with pytest.raises(SimulationError):
            Engine().at(time, lambda: None)
        e = self._drained()
        with pytest.raises(SimulationError):
            e.at(time, lambda: None)
        assert e.pending == 0

    @pytest.mark.parametrize("mode", DRAIN_MODES, indirect=True)
    @pytest.mark.parametrize("delay", BAD, ids=repr)
    def test_fire_rejects(self, mode, delay):
        ev = SimEvent(Engine())
        ev.wait(lambda: None)
        with pytest.raises(SimulationError, match="finite"):
            ev.fire(delay)
        ev = SimEvent(self._drained())
        ev.wait(lambda: None)
        with pytest.raises(SimulationError, match="finite"):
            ev.fire(delay)

    def test_fire_validates_even_without_waiters(self):
        """The delay check runs before the (possibly empty) release."""
        ev = SimEvent(Engine())
        with pytest.raises(SimulationError, match="finite"):
            ev.fire(float("nan"))

    def test_rejected_delay_leaves_engine_clean(self):
        e = Engine()
        with pytest.raises(SimulationError):
            e.schedule(math.inf, lambda: None)
        assert e.pending == 0
        assert e.run() == 0.0


class TestEngineModes:
    """A fire with N waiters is N ordinary events at one timestamp,
    whichever loop drains them."""

    @pytest.mark.parametrize("mode", DRAIN_MODES, indirect=True)
    def test_pending_counts_every_waiter(self, mode):
        """Every released waiter is one pending event."""
        e = Engine()
        ev = SimEvent(e)
        for k in range(5):
            ev.wait(lambda: None)
        ev.fire(delay=1.0)
        assert e.pending == 5
        e.run()
        assert e.pending == 0
        assert e.events_fired == 5

    @pytest.mark.parametrize("mode", DRAIN_MODES, indirect=True)
    def test_cohort_counts_toward_events_fired(self, mode):
        """All waiters of one fire (its cohort) count one event each."""
        e = Engine()
        ev = SimEvent(e)
        for _ in range(7):
            ev.wait(lambda: None)
        ev.fire()
        e.schedule(2.0, lambda: None)
        e.run()
        assert e.events_fired == 8

    @pytest.mark.parametrize("mode", DRAIN_MODES, indirect=True)
    def test_schedule_after_fire_sorts_after_cohort(self, mode):
        """A post-fire schedule at the same timestamp runs after every
        waiter of the fire (higher seq)."""
        e = Engine()
        ev = SimEvent(e)
        log = []
        for k in range(3):
            ev.wait(lambda k=k: log.append(("w", k)))
        ev.fire(delay=1.0)
        e.schedule(1.0, lambda: log.append(("late", None)))
        e.run()
        assert log == [("w", 0), ("w", 1), ("w", 2), ("late", None)]

    @pytest.mark.parametrize("mode", DRAIN_MODES, indirect=True)
    def test_zero_delay_from_cohort_joins_timestamp(self, mode):
        """A waiter scheduling at zero delay runs at the same simulated
        time, after the rest of the released waiters (higher seq)."""
        e = Engine()
        ev = SimEvent(e)
        log = []
        ev.wait(lambda: e.schedule(0.0, lambda: log.append(("z", e.now))))
        ev.wait(lambda: log.append(("w", e.now)))
        ev.fire(delay=1.0)
        e.run()
        assert log == [("w", 1.0), ("z", 1.0)]

    @pytest.mark.parametrize("mode", DRAIN_MODES, indirect=True)
    def test_step_drains_cohorts_too(self, mode):
        """``step`` fires one waiter per call; a drain after it finds
        nothing left and keeps the clock."""
        e = Engine()
        ev = SimEvent(e)
        log = []
        for k in range(4):
            ev.wait(lambda k=k: log.append(k))
        ev.fire(delay=1.0)
        steps = 0
        while e.step():
            steps += 1
        assert log == [0, 1, 2, 3]
        assert e.events_fired == 4
        assert steps == 4
        assert e.run() == 1.0
        assert e.events_fired == 4

    @pytest.mark.parametrize("mode", DRAIN_MODES, indirect=True)
    def test_run_until_with_pending_cohort(self, mode):
        e = Engine()
        ev = SimEvent(e)
        for _ in range(3):
            ev.wait(lambda: None)
        ev.fire(delay=10.0)
        e.schedule(1.0, lambda: None)
        assert e.run(until=5.0) == 5.0
        assert e.events_fired == 1
        assert e.pending == 3
        e.run()
        assert e.pending == 0

    @pytest.mark.parametrize("mode", DRAIN_MODES, indirect=True)
    def test_max_events_guard_with_cohorts(self, mode):
        e = Engine()

        def loop():
            ev = SimEvent(e)
            for _ in range(8):
                ev.wait(lambda: None)
            ev.wait(loop)
            ev.fire()

        loop()
        with pytest.raises(SimulationError, match="max_events"):
            e.run(max_events=500)

    @pytest.mark.parametrize("mode", DRAIN_MODES, indirect=True)
    def test_fires_once_per_logical_event(self, mode):
        e = Engine()
        seen = []
        ev = SimEvent(e)
        for _ in range(5):
            ev.wait(lambda: seen.append(e.now))
        ev.fire(delay=2.0)
        e.schedule(3.0, lambda: seen.append(e.now))
        e.run()
        assert seen == [2.0] * 5 + [3.0]
        assert e.events_fired == 6

    def test_repr_counts_waiters(self):
        ev = SimEvent(Engine(), "b")
        for _ in range(3):
            ev.wait(lambda: None)
        assert "3 waiting" in repr(ev)
        ev.fire()
        assert "fired" in repr(ev)
