"""Edge cases of the contention model and the syscall layer.

Three families the main machine tests skirt around:

* **zero-byte transfers** — legal (an empty block handover), must cost
  zero seconds, and must still count as a transfer so the reconciliation
  invariants hold;
* **single-PU contention** — threads serialized on one PU still overlap
  at transfer *start* (load is sampled when the transfer is scheduled),
  which is exactly the DES approximation the model documents;
* **oversubscribed wakeup ordering** — more waiters than PUs released by
  one fire must resume in registration order, identically under both
  drain loops of ``tests/conftest.py`` (one ``Engine.run`` call, or
  single ``Engine.step`` calls).
"""

from __future__ import annotations

import pytest

from repro.simulate.contention import ContentionConfig, ContentionModel
from repro.simulate.engine import Engine
from repro.simulate.machine import Machine
from repro.simulate.syscalls import Compute, Receive, ReceiveFromNode, Wait
from repro.topology.builder import flat_topology

from .conftest import DRAIN_MODES, step_drain
from repro.topology.objects import ObjType


def _two_thread_transfer(topo, payload, consumer_pu=4, **machine_kw):
    """Producer on PU 0 fires; consumer on *consumer_pu* receives."""
    m = Machine(topo, seed=0, **machine_kw)
    t_prod = m.add_thread("p", bound_pu_os=0)
    t_cons = m.add_thread("c", bound_pu_os=consumer_pu)
    ev = m.new_event()

    def producer():
        yield Compute(1e-6)
        ev.fire()

    def consumer():
        yield Wait(ev)
        yield Receive(t_prod, payload)

    m.set_body(t_prod, producer())
    m.set_body(t_cons, consumer())
    return m, m.run()


class TestZeroByteTransfers:
    def test_zero_byte_receive_costs_nothing(self, small_topo):
        m_zero, t_zero = _two_thread_transfer(small_topo, 0)
        assert m_zero.metrics.transfers == 1
        assert m_zero.metrics.bytes_by_level[ObjType.MACHINE] == 0
        assert m_zero.metrics.transfer_time_by_level[ObjType.MACHINE] == 0.0
        # A real payload on the identical path takes strictly longer.
        _, t_payload = _two_thread_transfer(small_topo, 1 << 20)
        assert t_payload > t_zero

    def test_zero_byte_receive_from_node(self, small_topo):
        m = Machine(small_topo, seed=0)
        tid = m.add_thread("t", bound_pu_os=0)

        def body():
            yield ReceiveFromNode(1, 0.0)  # remote node, empty stream

        m.set_body(tid, body())
        m.run()
        assert m.metrics.transfers == 1
        assert m.metrics.total_bytes == 0.0
        assert m.metrics.local_fraction == 1.0  # no traffic = perfectly local

    def test_zero_byte_on_uma_machine(self):
        m = Machine(flat_topology(4), seed=0)
        tid = m.add_thread("t", bound_pu_os=0)

        def body():
            yield ReceiveFromNode(0, 0.0)

        m.set_body(tid, body())
        assert m.run() == 0.0
        assert m.metrics.transfers == 1

    @pytest.mark.parametrize("cls", [Receive, ReceiveFromNode])
    def test_negative_size_rejected(self, cls):
        with pytest.raises(ValueError, match="negative transfer size"):
            cls(0, -1.0)


class TestSinglePuContention:
    @staticmethod
    def _streams_from_node(topo, n_threads, pus, **machine_kw):
        """*n_threads* threads (cycling over *pus*) each pull 1 MiB from
        node 0's DRAM at t=0."""
        m = Machine(topo, seed=0, **machine_kw)
        for k in range(n_threads):
            tid = m.add_thread(f"t{k}", bound_pu_os=pus[k % len(pus)])
            m.set_body(tid, iter([ReceiveFromNode(0, 1 << 20)]))
        return m, m.run()

    def test_serialized_pu_still_contends_at_start(self, small_topo):
        """Transfers on one PU overlap at sampling time: the load is
        taken when each transfer is *scheduled* (all at t=0), before the
        PU serializes them — the documented start-sampling model."""
        tight = ContentionConfig(node_capacity=1.0, interconnect_capacity=1.0)
        m, _ = self._streams_from_node(
            small_topo, 4, pus=[0], contention=tight
        )
        assert m.metrics.contended_transfers == 3  # all but the first

    def test_contention_stretches_wall_time(self, small_topo):
        tight = ContentionConfig(node_capacity=1.0, interconnect_capacity=1.0)
        roomy = ContentionConfig(node_capacity=64.0, interconnect_capacity=64.0)
        _, t_tight = self._streams_from_node(small_topo, 4, [0], contention=tight)
        _, t_roomy = self._streams_from_node(small_topo, 4, [0], contention=roomy)
        assert t_tight > t_roomy

    def test_within_capacity_is_free(self, small_topo):
        roomy = ContentionConfig(node_capacity=64.0, interconnect_capacity=64.0)
        m, _ = self._streams_from_node(small_topo, 4, [0], contention=roomy)
        assert m.metrics.contended_transfers == 0

    def test_single_pu_uma_machine_never_contends(self):
        """On a one-PU UMA machine, node streams carry producer_node=-1
        (no DRAM controller to load) and NUMANODE-level transfers skip
        the interconnect — even the tightest capacities never bite."""
        tight = ContentionConfig(node_capacity=1.0, interconnect_capacity=1.0)
        m = Machine(flat_topology(1), seed=0, contention=tight)
        for k in range(4):
            tid = m.add_thread(f"t{k}", bound_pu_os=0)
            m.set_body(tid, iter([ReceiveFromNode(0, 1 << 20)]))
        t = m.run()
        assert m.metrics.contended_transfers == 0
        assert m.metrics.transfers == 4
        assert t > 0.0


class TestContentionModelUnits:
    def test_slowdown_below_capacity_is_one(self):
        cm = ContentionModel(2, ContentionConfig(node_capacity=4.0))
        cm.begin(ObjType.NUMANODE, 0)
        assert cm.slowdown(ObjType.NUMANODE, 0) == 1.0

    def test_slowdown_over_capacity_is_superlinear(self):
        cfg = ContentionConfig(
            node_capacity=1.0, interconnect_capacity=1.0, saturation_exponent=1.3
        )
        cm = ContentionModel(1, cfg)
        for _ in range(3):
            cm.begin(ObjType.NUMANODE, 0)
        assert cm.slowdown(ObjType.NUMANODE, 0) == pytest.approx(4.0**1.3)

    def test_cache_level_transfers_never_contend(self):
        cm = ContentionModel(1, ContentionConfig(node_capacity=1.0))
        for _ in range(10):
            cm.begin(ObjType.L3, 0)  # no-op: below DRAM
        assert cm.node_inflight(0) == 0
        assert cm.slowdown(ObjType.L3, 0) == 1.0

    def test_machine_level_loads_both_resources(self):
        cm = ContentionModel(1)
        cm.begin(ObjType.MACHINE, 0)
        assert cm.node_inflight(0) == 1
        assert cm.interconnect_inflight == 1
        cm.end(ObjType.MACHINE, 0)
        assert cm.node_inflight(0) == 0
        assert cm.interconnect_inflight == 0

    def test_unknown_producer_node_skips_dram(self):
        """producer_node=-1 (UMA stream) loads only the interconnect."""
        cm = ContentionModel(0, ContentionConfig(interconnect_capacity=1.0))
        cm.begin(ObjType.MACHINE, -1)
        assert cm.interconnect_inflight == 1
        assert cm.slowdown(ObjType.MACHINE, -1) > 1.0
        assert cm.slowdown(ObjType.NUMANODE, -1) == 1.0

    def test_negative_node_count_rejected(self):
        with pytest.raises(ValueError):
            ContentionModel(-1)

    @pytest.mark.parametrize(
        "kw",
        [
            dict(node_capacity=0.0),
            dict(interconnect_capacity=-1.0),
            dict(saturation_exponent=0.5),
        ],
    )
    def test_bad_config_rejected(self, kw):
        with pytest.raises(ValueError):
            ContentionConfig(**kw)


class TestOversubscribedWakeups:
    @staticmethod
    def _barrier_run(topo, n_threads):
        """*n_threads* threads on 2 PUs park on one event; a firer
        releases them all.  Returns (machine, resume order, final t)."""
        m = Machine(topo, seed=0)
        ev = m.new_event()
        order: list[int] = []
        for k in range(n_threads):
            tid = m.add_thread(f"w{k}", bound_pu_os=k % 2)

            def body(k=k):
                yield Wait(ev)
                order.append(k)
                yield Compute(1e-3)

            m.set_body(tid, body())
        firer = m.add_thread("firer", bound_pu_os=2)

        def fire_body():
            yield Compute(1e-6)
            ev.fire()

        m.set_body(firer, fire_body())
        return m, order, m.run()

    @pytest.mark.parametrize("mode", DRAIN_MODES, indirect=True)
    def test_wakeup_in_registration_order(self, small_topo, mode):
        _, order, _ = self._barrier_run(small_topo, 6)
        assert order == [0, 1, 2, 3, 4, 5]

    def test_modes_agree_on_oversubscribed_barrier(self, small_topo, monkeypatch):
        m_a, order_a, t_a = self._barrier_run(small_topo, 8)
        monkeypatch.setattr(Engine, "run", step_drain)
        m_b, order_b, t_b = self._barrier_run(small_topo, 8)
        assert order_b == order_a
        assert t_b == t_a
        assert m_b.metrics.summary() == m_a.metrics.summary()
        assert m_b.engine.events_fired == m_a.engine.events_fired

    @pytest.mark.parametrize("mode", DRAIN_MODES, indirect=True)
    def test_wait_time_accounts_queueing(self, small_topo, mode):
        """Every waiter's park time lands in wait_time; with 3 waiters
        per PU the serialized computes keep the total deterministic."""
        m, _, _ = self._barrier_run(small_topo, 6)
        assert m.metrics.wait_time > 0.0
