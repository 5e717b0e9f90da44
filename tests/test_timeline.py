"""Tests for the execution-timeline recorder."""

import pytest

from repro.observe import Tracer
from repro.simulate import Compute, Machine, Receive, Segment, Timeline, Wait


def traced_machine(topo) -> Machine:
    return Machine(topo, seed=0, tracer=Tracer())


def timeline_of(m: Machine) -> Timeline:
    return Timeline.from_events(m.tracer.events)


class TestTimelineUnit:
    def test_empty(self):
        tl = Timeline()
        assert len(tl) == 0
        assert tl.makespan() == 0.0
        assert tl.render() == "(empty timeline)"
        assert tl.utilization(0) == 0.0

    def test_record_and_query(self):
        tl = Timeline()
        tl.record(Segment(0, "a", "compute", 0, 0.0, 1.0))
        tl.record(Segment(1, "b", "transfer", 0, 1.0, 1.5))
        tl.record(Segment(0, "a", "compute", 1, 0.0, 2.0))
        assert len(tl) == 3
        assert len(tl.for_thread(0)) == 2
        assert [s.kind for s in tl.for_pu(0)] == ["compute", "transfer"]
        assert tl.busy_time(0) == pytest.approx(1.5)
        assert tl.makespan() == 2.0
        assert tl.utilization(1) == pytest.approx(1.0)

    def test_render_shape(self):
        tl = Timeline()
        tl.record(Segment(0, "a", "compute", 0, 0.0, 1.0))
        tl.record(Segment(1, "b", "transfer", 2, 0.5, 1.0))
        text = tl.render(width=40)
        lines = text.splitlines()
        assert lines[0].startswith("PU  0")
        assert "#" in lines[0]
        assert "=" in lines[1]

    def test_svg_export(self):
        import xml.etree.ElementTree as ET

        tl = Timeline()
        tl.record(Segment(0, "a", "compute", 0, 0.0, 1.0))
        tl.record(Segment(1, "b", "transfer", 1, 0.2, 0.8))
        doc = tl.to_svg()
        root = ET.fromstring(doc)
        assert root.tag.endswith("svg")
        assert "#6fbf6f" in doc  # compute colour
        assert "#e8a050" in doc  # transfer colour
        assert "<title>a compute" in doc

    def test_svg_empty(self):
        assert "empty timeline" in Timeline().to_svg()


class TestMachineIntegration:
    def test_disabled_by_default(self, small_topo):
        m = Machine(small_topo, seed=0)
        assert m.tracer is None
        assert not hasattr(m, "timeline")

    def test_compute_segments_recorded(self, small_topo):
        m = traced_machine(small_topo)
        tid = m.add_thread("t", bound_pu_os=0)
        m.set_body(tid, iter([Compute(0.5), Compute(0.25)]))
        m.run()
        segs = timeline_of(m).for_thread(tid)
        assert [s.duration for s in segs] == pytest.approx([0.5, 0.25])
        assert all(s.kind == "compute" for s in segs)

    def test_transfer_segments_recorded(self, small_topo):
        m = traced_machine(small_topo)
        ev = m.new_event()
        prod = m.add_thread("p", bound_pu_os=0)
        cons = m.add_thread("c", bound_pu_os=4)

        def producer():
            yield Compute(0.1)
            ev.fire()

        def consumer():
            yield Wait(ev)
            yield Receive(prod, 1 << 20)

        m.set_body(prod, producer())
        m.set_body(cons, consumer())
        m.run()
        timeline = timeline_of(m)
        kinds = {s.kind for s in timeline.segments}
        assert kinds == {"compute", "transfer"}
        # The transfer happened on the consumer's PU after the compute.
        tr = [s for s in timeline.segments if s.kind == "transfer"][0]
        assert tr.pu == 4
        assert tr.start >= 0.1

    def test_serialization_visible_in_timeline(self, small_topo):
        m = traced_machine(small_topo)
        for k in range(2):
            tid = m.add_thread(f"t{k}", bound_pu_os=3)
            m.set_body(tid, iter([Compute(1.0)]))
        m.run()
        timeline = timeline_of(m)
        segs = timeline.for_pu(3)
        assert len(segs) == 2
        # Non-overlapping, back to back.
        assert segs[0].end <= segs[1].start + 1e-12
        assert timeline.utilization(3) == pytest.approx(1.0)

    def test_segments_stay_on_the_pu_they_occupied(self, small_topo):
        # Oversubscribed unbound threads migrate after their bursts; each
        # burst still belongs to the PU that ran it, so no PU's segments
        # overlap.
        m = traced_machine(small_topo)
        for k in range(12):
            tid = m.add_thread(f"t{k}")
            m.set_body(tid, iter([Compute(0.5)] * 6))
        m.run()
        assert m.metrics.migrations > 0
        timeline = timeline_of(m)
        for pu in range(small_topo.nb_pus):
            segs = timeline.for_pu(pu)
            assert all(a.end <= b.start + 1e-12 for a, b in zip(segs, segs[1:]))
