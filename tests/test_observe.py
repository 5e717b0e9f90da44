"""Tests for repro.observe: tracer, exporters, invariants, determinism.

The fault-injection cases are the load-bearing ones: they prove the
InvariantChecker actually catches the accounting corruptions it exists
to catch, by running a machine through a deliberately mis-charging
metrics double and asserting the *specific* invariant trips.
"""

import io
import json
import math

import pytest

from repro import observe
from repro.observe import (
    InvariantChecker,
    InvariantError,
    TraceEvent,
    Tracer,
    TraceSummary,
    check_run,
    chrome_payload,
    dumps_jsonl,
    loads_jsonl,
    metrics_fingerprint,
    read_jsonl,
    run_fingerprint,
    stream_hash,
    write_chrome,
    write_jsonl,
)
from repro.simulate.engine import SimulationError
from repro.simulate.machine import Machine
from repro.simulate.metrics import MachineMetrics
from repro.simulate.syscalls import Compute, Receive, Wait
from repro.topology import presets
from repro.topology.objects import ObjType


def two_thread_machine(topo, tracer=None, producer_pu=0, consumer_pu=4):
    """Producer computes then fires; consumer waits then pulls 1 MB."""
    machine = Machine(topo, tracer=tracer)
    ready = machine.new_event("payload-ready")
    prod = machine.add_thread("producer", bound_pu_os=producer_pu)
    cons = machine.add_thread("consumer", bound_pu_os=consumer_pu)

    def producer_body():
        yield Compute(1e-3)
        ready.fire()

    def consumer_body():
        yield Wait(ready)
        yield Receive(prod, 1e6)
        yield Compute(2e-3)

    machine.set_body(prod, producer_body())
    machine.set_body(cons, consumer_body())
    return machine


class TestTracer:
    def test_emits_expected_kinds(self, small_topo):
        tracer = Tracer()
        machine = two_thread_machine(small_topo, tracer)
        machine.run()
        counts = tracer.counts()
        assert counts["thread_start"] == 2
        assert counts["thread_end"] == 2
        assert counts["compute"] == 2
        assert counts["transfer"] == 1
        assert counts["wait"] == 1

    def test_transfer_tagged_with_level_and_node(self, small_topo):
        tracer = Tracer()
        machine = two_thread_machine(small_topo, tracer)
        machine.run()
        (ev,) = tracer.for_kind("transfer")
        # PU 0 and PU 4 sit on different NUMA nodes of small_numa(2, 4).
        assert ev.level == "MACHINE"
        assert ev.nbytes == 1e6
        assert ev.node == 1  # consumer's node
        assert ev.detail == "from-node:0"
        assert ev.tid == 1 and ev.thread == "consumer"

    def test_wait_span_covers_block(self, small_topo):
        tracer = Tracer()
        machine = two_thread_machine(small_topo, tracer)
        machine.run()
        (ev,) = tracer.for_kind("wait")
        assert ev.ts == 0.0
        assert ev.dur == pytest.approx(1e-3)
        assert ev.detail == "payload-ready"

    def test_attach_twice_rejected(self, small_topo):
        machine = Machine(small_topo, tracer=Tracer())
        with pytest.raises(SimulationError):
            machine.attach_tracer(Tracer())

    def test_attach_after_run_rejected(self, small_topo):
        machine = two_thread_machine(small_topo)
        machine.run()
        with pytest.raises(SimulationError):
            machine.attach_tracer(Tracer())

    def test_summary_aggregates(self, small_topo):
        tracer = Tracer()
        machine = two_thread_machine(small_topo, tracer)
        machine.run()
        s = TraceSummary.of(tracer.events)
        assert s.events == len(tracer)
        assert s.bytes_by_level == {"MACHINE": 1e6}
        assert s.busy_by_kind["compute"] == pytest.approx(3e-3)
        assert s.makespan == pytest.approx(machine.engine.now)

    def test_untraced_machine_pays_nothing(self, small_topo):
        machine = two_thread_machine(small_topo)
        machine.run()
        assert machine.tracer is None


class TestSchedulerProbe:
    def test_unbound_run_emits_sched_decisions(self, small_topo):
        tracer = Tracer()
        machine = Machine(small_topo, tracer=tracer)
        for k in range(12):  # oversubscribed: forces queueing + pulls
            tid = machine.add_thread(f"w{k}")
            machine.set_body(tid, iter([Compute(1e-3), Compute(1e-3)]))
        machine.run()
        sched = tracer.for_kind("sched")
        assert len(sched) >= 12  # at least one "initial" per thread
        kinds = {e.detail.split(":", 1)[0] for e in sched}
        assert "initial" in kinds
        for ev in sched:
            assert ev.tid == -1 and ev.pu >= 0


class TestExport:
    def test_jsonl_round_trip_lossless(self, small_topo):
        tracer = Tracer()
        machine = two_thread_machine(small_topo, tracer)
        machine.run()
        text = dumps_jsonl(tracer.events)
        back = loads_jsonl(text)
        assert back == list(tracer.events)
        assert stream_hash(back) == stream_hash(tracer.events)

    def test_jsonl_file_round_trip(self, small_topo, tmp_path):
        tracer = Tracer()
        machine = two_thread_machine(small_topo, tracer)
        machine.run()
        path = tmp_path / "trace.jsonl"
        n = write_jsonl(tracer.events, path)
        assert n == len(tracer)
        assert read_jsonl(path) == list(tracer.events)

    def test_chrome_payload_shape(self, small_topo):
        tracer = Tracer()
        machine = two_thread_machine(small_topo, tracer)
        machine.run()
        payload = chrome_payload(tracer.events)
        events = payload["traceEvents"]
        spans = [e for e in events if e.get("ph") == "X"]
        metas = [e for e in events if e.get("ph") == "M"]
        assert len(spans) == sum(1 for e in tracer if e.is_span())
        # Process name + one thread_name record per simulated thread.
        assert any(m["name"] == "process_name" for m in metas)
        names = {m["args"]["name"] for m in metas if m["name"] == "thread_name"}
        assert {"producer", "consumer"} <= names
        # Microsecond conversion.
        (transfer,) = [e for e in spans if e["cat"] == "transfer"]
        ev = tracer.for_kind("transfer")[0]
        assert transfer["ts"] == pytest.approx(ev.ts * 1e6)
        assert transfer["dur"] == pytest.approx(ev.dur * 1e6)
        assert transfer["args"]["level"] == "MACHINE"

    def test_chrome_file_is_valid_json(self, small_topo, tmp_path):
        tracer = Tracer()
        machine = two_thread_machine(small_topo, tracer)
        machine.run()
        path = tmp_path / "trace.json"
        n = write_chrome(tracer.events, path)
        assert n == len(tracer)
        payload = json.loads(path.read_text())
        assert payload["traceEvents"]


class TestInvariants:
    def test_clean_run_passes(self, small_topo):
        machine = two_thread_machine(small_topo, Tracer())
        machine.run()
        report = check_run(machine)
        assert report.ok
        assert report.events_audited == len(machine.tracer)
        assert "OK" in report.render()

    def test_requires_tracer(self, small_topo):
        machine = two_thread_machine(small_topo)
        machine.run()
        with pytest.raises(ValueError, match="tracer"):
            InvariantChecker().check(machine)

    def test_thread_ledger_closes_exactly(self, small_topo):
        machine = two_thread_machine(small_topo, Tracer())
        machine.run()
        for tid in range(machine.n_threads):
            stats = machine.thread_stats(tid)
            ledger = (stats["compute_time"] + stats["transfer_time"]
                      + stats["wait_time"] + stats["runq_time"])
            assert stats["done_at"] == pytest.approx(ledger)


class TestFaultInjection:
    """Corrupt one account, assert the checker names that invariant."""

    def run_with_metrics_double(self, topo, double):
        machine = two_thread_machine(topo, Tracer())
        machine.metrics = double
        machine.run()
        return check_run(machine, raise_on_violation=False)

    def test_mischarged_transfer_duration_is_caught(self, small_topo):
        class MischargingMetrics(MachineMetrics):
            def record_transfer(self, level, nbytes, duration):
                super().record_transfer(level, nbytes, duration * 1.5)

        report = self.run_with_metrics_double(small_topo, MischargingMetrics())
        assert not report.ok
        violated = {v.invariant for v in report.violations}
        assert violated == {"transfer-time-conservation"}
        (v,) = report.violated("transfer-time-conservation")[:1]
        assert v.magnitude > 0

    def test_dropped_bytes_are_caught(self, small_topo):
        class LeakyMetrics(MachineMetrics):
            def record_transfer(self, level, nbytes, duration):
                super().record_transfer(level, 0.0, duration)

        report = self.run_with_metrics_double(small_topo, LeakyMetrics())
        # The dropped bytes break the per-level ledger *and* its
        # reconciliation against the trace-derived NUMA traffic matrix.
        assert {v.invariant for v in report.violations} == {
            "transfer-bytes-conservation",
            "numa-traffic-reconciliation",
        }

    def test_double_counted_transfer_is_caught(self, small_topo):
        class DoubleCounting(MachineMetrics):
            def record_transfer(self, level, nbytes, duration):
                super().record_transfer(level, nbytes, duration)
                super().record_transfer(level, nbytes, duration)

        report = self.run_with_metrics_double(small_topo, DoubleCounting())
        violated = {v.invariant for v in report.violations}
        assert "transfer-count" in violated
        assert "transfer-bytes-conservation" in violated

    def test_lost_wait_time_is_caught(self, small_topo):
        class ForgetfulMetrics(MachineMetrics):
            def record_wait(self, duration):
                pass  # drops the account entirely

        report = self.run_with_metrics_double(small_topo, ForgetfulMetrics())
        assert {v.invariant for v in report.violations} == {
            "wait-time-conservation"
        }

    def test_corrupted_event_stream_is_caught(self, small_topo):
        machine = two_thread_machine(small_topo, Tracer())
        machine.run()
        # Negative duration smuggled into the stream post-hoc.
        machine.tracer.events[3].dur = -1e-9
        report = check_run(machine, raise_on_violation=False)
        assert report.violated("non-negative-duration")

    def test_overlapping_spans_are_caught(self, small_topo):
        machine = two_thread_machine(small_topo, Tracer())
        machine.run()
        spans = [e for e in machine.tracer.events
                 if e.is_span() and e.tid == 1]
        spans[-1].ts = spans[0].ts  # rewind the last span onto the first
        report = check_run(machine, raise_on_violation=False)
        assert report.violated("monotonic-timestamps")

    def test_rewound_instant_is_caught(self, small_topo):
        machine = two_thread_machine(small_topo, Tracer())
        machine.run()
        assert check_run(machine, raise_on_violation=False).ok
        instants = [e for e in machine.tracer.events if not e.is_span()]
        assert [e.kind for e in instants[-2:]] == ["thread_end", "thread_end"]
        # The consumer's end rewound behind the producer's: still after
        # the consumer's own start, but the engine clock it was stamped
        # with went backwards.
        instants[-1].ts = instants[-2].ts / 2
        report = check_run(machine, raise_on_violation=False)
        assert [v.invariant for v in report.violations] == ["monotonic-timestamps"]

    def test_raise_carries_structured_report(self, small_topo):
        class MischargingMetrics(MachineMetrics):
            def record_compute(self, duration):
                super().record_compute(duration * 2.0)

        machine = two_thread_machine(small_topo, Tracer())
        machine.metrics = MischargingMetrics()
        machine.run()
        with pytest.raises(InvariantError) as exc:
            check_run(machine)
        report = exc.value.report
        assert report.violated("compute-time-conservation")
        assert "compute-time-conservation" in str(exc.value)


class TestDeterminism:
    def test_stream_hash_is_order_and_value_sensitive(self):
        a = TraceEvent(0, "compute", 0.0, 1.0, tid=1, thread="t1", pu=0, node=0)
        b = TraceEvent(1, "compute", 1.0, 1.0, tid=1, thread="t1", pu=0, node=0)
        assert stream_hash([a, b]) != stream_hash([b, a])
        c = TraceEvent(1, "compute", 1.0, 1.0 + 1e-15, tid=1, thread="t1",
                       pu=0, node=0)
        assert stream_hash([a, b]) != stream_hash([a, c])

    def test_metrics_fingerprint_sensitive_to_levels(self):
        m1 = MachineMetrics()
        m2 = MachineMetrics()
        m1.record_transfer(ObjType.L3, 100.0, 1e-6)
        m2.record_transfer(ObjType.MACHINE, 100.0, 1e-6)
        assert metrics_fingerprint(m1) != metrics_fingerprint(m2)
        assert metrics_fingerprint(m1) == metrics_fingerprint(m1)

    def test_run_fingerprint_requires_tracer(self, small_topo):
        machine = two_thread_machine(small_topo)
        machine.run()
        with pytest.raises(ValueError):
            run_fingerprint(machine)

    def test_identical_machines_identical_fingerprints(self, small_topo):
        fps = []
        for _ in range(2):
            machine = two_thread_machine(small_topo, Tracer())
            machine.run()
            fps.append(run_fingerprint(machine))
        assert fps[0] == fps[1]


class TestCapture:
    def test_capture_attaches_and_audits(self, small_topo):
        with observe.capture() as cap:
            machine = two_thread_machine(small_topo)
            machine.run()
        assert cap.machines == [machine]
        assert machine.tracer is not None
        reports = cap.check_all()
        assert len(reports) == 1 and reports[0].ok

    def test_capture_skips_machines_that_never_ran(self, small_topo):
        with observe.capture() as cap:
            two_thread_machine(small_topo)  # built, never run
        assert cap.check_all() == []

    def test_capture_restores_hook(self, small_topo):
        from repro.simulate import machine as machine_mod

        before = machine_mod.new_machine_hook
        with observe.capture():
            pass
        assert machine_mod.new_machine_hook is before

    def test_capture_keeps_existing_tracer(self, small_topo):
        mine = Tracer()
        with observe.capture() as cap:
            machine = two_thread_machine(small_topo, tracer=mine)
            machine.run()
        assert machine.tracer is mine
        assert cap.machines == [machine]
