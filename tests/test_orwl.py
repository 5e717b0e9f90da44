"""Tests for ORWL locations, handles, programs, and the runtime."""

import pytest

from repro.comm.trace import CommTracer
from repro.orwl import (
    AccessMode,
    FifoError,
    Handle,
    Location,
    Program,
    Runtime,
    RuntimeConfig,
)
from repro.orwl.fifo import RequestState
from repro.simulate.machine import Machine
from repro.treematch.mapping import Mapping
from repro.util.validate import ValidationError

R, W = AccessMode.READ, AccessMode.WRITE


class TestLocation:
    def test_creation(self):
        loc = Location("x", 1024, owner_task="t")
        assert loc.nbytes == 1024.0
        assert loc.version == 0
        assert loc.last_writer_tid == -1

    def test_invalid_args(self):
        with pytest.raises(ValidationError):
            Location("", 10)
        with pytest.raises(ValidationError):
            Location("x", -1)
        with pytest.raises(ValidationError):
            Location("x", 1, affinity_bytes=-2)

    def test_note_write(self, small_topo):
        """A write's release notes the writer's provenance."""
        prog = Program("w")
        loc = prog.location("x", 10, owner_task="t")
        op = prog.task("t").operation("op", body=None)
        h = op.handle(loc, W)

        def body(ctx):
            yield from ctx.acquire(h)
            ctx.release(h)

        op.body = body
        rt = Runtime(prog, Machine(small_topo, seed=0), mapping=Mapping((0,)))
        rt.run()
        assert loc.last_writer_tid == rt.tid_of_op("t/op")
        assert loc.last_writer_op == "t/op"
        assert loc.version == 1


class TestHandle:
    """A handle is state: the FIFO runs each protocol step on its live
    request."""

    def test_insert_and_release(self):
        loc = Location("x", 10)
        h = Handle(loc, W, "op")
        h.request = loc.fifo.insert(h.mode, h.op_name)
        assert h.request.state is RequestState.GRANTED
        assert loc.fifo.release(h.request) is None
        assert len(loc.fifo) == 0

    def test_release_without_request_rejected(self, small_topo):
        prog = Program("bad")
        loc = prog.location("l", 10, owner_task="t")
        op = prog.task("t").operation("main", body=None)
        h = op.handle(loc, W)

        def body(ctx):
            ctx.release(h)  # release the init grant
            ctx.release(h)  # no request live -> error
            yield ctx.compute(seconds=1e-6)

        op.body = body
        rt = Runtime(prog, Machine(small_topo, seed=0), mapping=Mapping((0,)))
        with pytest.raises(FifoError, match="no request to release"):
            rt.run()

    def test_next_requires_grant(self):
        loc = Location("x", 10)
        h1 = Handle(loc, W, "a")
        h2 = Handle(loc, W, "b")
        h1.request = loc.fifo.insert(h1.mode, h1.op_name)
        h2.request = loc.fifo.insert(h2.mode, h2.op_name)
        with pytest.raises(FifoError):
            loc.fifo.release(h2.request, True, h2.op_name)  # pending, not granted

    def test_next_keeps_round_order(self):
        """orwl_next: re-insertion happens before release, so the handle's
        next-round request precedes anything inserted afterwards."""
        loc = Location("x", 10)
        a = Handle(loc, W, "a")
        b = Handle(loc, W, "b")
        fifo = loc.fifo
        a.request = fifo.insert(a.mode, a.op_name)
        b.request = fifo.insert(b.mode, b.op_name)
        a.request = fifo.release(a.request, True, a.op_name)
        # queue now: b (granted), a (pending) — strict alternation
        assert b.request.state is RequestState.GRANTED
        assert a.request.state is RequestState.PENDING
        b.request = fifo.release(b.request, True, b.op_name)
        assert a.request.state is RequestState.GRANTED

    def test_cancel_idempotent(self):
        loc = Location("x", 10)
        req = loc.fifo.insert(W, "op")
        loc.fifo.cancel(req)
        loc.fifo.cancel(req)
        assert req.state is RequestState.RELEASED
        assert len(loc.fifo) == 0


class TestProgram:
    def test_declaration(self):
        p = Program("demo")
        loc = p.location("l", 10)
        t = p.task("t")
        op = t.operation("main", body=lambda ctx: iter(()))
        h = op.handle(loc, W)
        assert p.n_tasks == 1
        assert p.n_operations == 1
        assert op.is_main
        assert h.op_name == "t/main"

    def test_duplicate_location_rejected(self):
        p = Program("demo")
        p.location("l", 10)
        with pytest.raises(ValidationError):
            p.location("l", 20)

    def test_duplicate_operation_rejected(self):
        p = Program("demo")
        t = p.task("t")
        t.operation("main", body=lambda ctx: iter(()))
        with pytest.raises(ValidationError):
            t.operation("main", body=lambda ctx: iter(()))

    def test_task_idempotent(self):
        p = Program("demo")
        assert p.task("t") is p.task("t")

    def test_readers_writers_of(self):
        p = Program("demo")
        loc = p.location("l", 10)
        t = p.task("t")
        a = t.operation("main", body=lambda ctx: iter(()))
        b = t.operation("sub", body=lambda ctx: iter(()))
        a.handle(loc, W)
        b.handle(loc, R)
        assert p.writers_of(loc) == [a]
        assert p.readers_of(loc) == [b]

    def test_validate_missing_body(self):
        p = Program("demo")
        p.task("t").operation("main", body=None)
        with pytest.raises(ValidationError):
            p.validate()

    def test_validate_unwritten_location(self):
        p = Program("demo")
        loc = p.location("l", 10)
        op = p.task("t").operation("main", body=lambda ctx: iter(()))
        op.handle(loc, R)
        with pytest.raises(ValidationError, match="never written"):
            p.validate()

    def test_operation_index_order(self):
        p = Program("demo")
        t = p.task("t")
        a = t.operation("main", body=lambda ctx: iter(()))
        b = t.operation("x", body=lambda ctx: iter(()))
        assert p.operation_index(a) == 0
        assert p.operation_index(b) == 1


def build_pingpong(iterations=3, nbytes=4096):
    """Writer task A and reader task B alternating on one location."""
    prog = Program("pingpong")
    loc = prog.location("shared", nbytes=nbytes, owner_task="A")
    opA = prog.task("A").operation("main", body=None)
    hA = opA.handle(loc, W)

    def writer(ctx):
        for _ in range(iterations):
            yield from ctx.acquire(hA)
            yield ctx.compute(seconds=1e-4)
            ctx.next(hA)

    opA.body = writer
    opB = prog.task("B").operation("main", body=None)
    hB = opB.handle(loc, R)

    def reader(ctx):
        for _ in range(iterations):
            yield from ctx.acquire(hB)
            yield ctx.compute(seconds=5e-5)
            ctx.next(hB)

    opB.body = reader
    return prog


class TestRuntime:
    def test_pingpong_completes(self, small_topo):
        prog = build_pingpong()
        m = Machine(small_topo, seed=0)
        rt = Runtime(prog, m, mapping=Mapping((0, 4)))
        res = rt.run()
        assert res.time > 0
        assert res.metrics.transfers == 3  # one payload pull per round

    def test_pingpong_traces_volumes(self, small_topo):
        prog = build_pingpong(iterations=4, nbytes=1000)
        m = Machine(small_topo, seed=0)
        comm = CommTracer()
        Runtime(prog, m, mapping=Mapping((0, 4)), comm=comm).run()
        mat = comm.to_matrix()
        assert mat.volume(0, 1) == 4 * 1000.0

    def test_trace_disabled(self, small_topo, monkeypatch):
        """Without a recorder a run records nothing and moves the same
        payloads."""
        calls = []
        monkeypatch.setattr(CommTracer, "record_by_id", lambda *a: calls.append(a))
        prog = build_pingpong()
        m = Machine(small_topo, seed=0)
        res = Runtime(prog, m, mapping=Mapping((0, 4))).run()
        assert res.metrics.transfers == 3
        assert calls == []

    def test_placement_changes_time(self, small_topo):
        times = {}
        for key, pus in [("near", (0, 1)), ("far", (0, 4))]:
            prog = build_pingpong(iterations=10, nbytes=1 << 20)
            m = Machine(small_topo, seed=0)
            rt = Runtime(prog, m, mapping=Mapping(pus))
            times[key] = rt.run().time
        assert times["far"] > times["near"]

    def test_unbound_runs_fine(self, small_topo):
        prog = build_pingpong()
        m = Machine(small_topo, seed=0)
        rt = Runtime(prog, m)  # no mapping: all unbound
        res = rt.run()
        assert res.time > 0
        assert res.mapping.bound_fraction() == 0.0

    def test_without_control_threads(self, small_topo):
        prog = build_pingpong()
        m = Machine(small_topo, seed=0)
        rt = Runtime(
            prog, m, mapping=Mapping((0, 4)), config=RuntimeConfig(control_threads=False)
        )
        res = rt.run()
        assert res.time > 0

    def test_control_threads_add_grant_cost(self, small_topo):
        t_with = t_without = None
        for flag in (True, False):
            prog = build_pingpong(iterations=20)
            m = Machine(small_topo, seed=0)
            rt = Runtime(
                prog,
                m,
                mapping=Mapping((0, 4)),
                config=RuntimeConfig(control_threads=flag, grant_cost=1e-4,
                                     direct_grant_latency=0.0),
            )
            t = rt.run().time
            if flag:
                t_with = t
            else:
                t_without = t
        assert t_with > t_without

    def test_mapping_order_mismatch_rejected(self, small_topo):
        prog = build_pingpong()
        m = Machine(small_topo, seed=0)
        with pytest.raises(ValidationError):
            Runtime(prog, m, mapping=Mapping((0, 1, 2)))

    def test_control_mapping_order_mismatch_rejected(self, small_topo):
        prog = build_pingpong()
        m = Machine(small_topo, seed=0)
        with pytest.raises(ValidationError):
            Runtime(prog, m, mapping=Mapping((0, 1)), control_mapping=Mapping((0,)))

    def test_double_run_rejected(self, small_topo):
        prog = build_pingpong()
        m = Machine(small_topo, seed=0)
        rt = Runtime(prog, m, mapping=Mapping((0, 4)))
        rt.run()
        with pytest.raises(ValidationError):
            rt.run()

    def test_teardown_cancels_leftover_requests(self, small_topo):
        """After the run, no location FIFO retains live requests, even
        though each handle's final orwl_next left one pending."""
        prog = build_pingpong()
        m = Machine(small_topo, seed=0)
        rt = Runtime(prog, m, mapping=Mapping((0, 4)))
        rt.run()
        for loc in prog.locations.values():
            assert len(loc.fifo) == 0

    def test_acquire_without_request_rejected(self, small_topo):
        prog = Program("bad")
        loc = prog.location("l", 10, owner_task="t")
        op = prog.task("t").operation("main", body=None)
        h = op.handle(loc, W)

        def body(ctx):
            ctx.release(h)  # release the init grant
            yield from ctx.acquire(h)  # no request live -> error

        op.body = body
        m = Machine(small_topo, seed=0)
        rt = Runtime(prog, m, mapping=Mapping((0,)))
        with pytest.raises(Exception):
            rt.run()

    def test_compute_arg_validation(self, small_topo):
        prog = Program("c")
        loc = prog.location("l", 0, owner_task="t")
        op = prog.task("t").operation("main", body=None)
        h = op.handle(loc, W)

        def body(ctx):
            with pytest.raises(ValidationError):
                ctx.compute()
            with pytest.raises(ValidationError):
                ctx.compute(seconds=1, flops=1)
            yield ctx.compute(flops=2e9)
            ctx.release(h)

        op.body = body
        m = Machine(small_topo, seed=0, core_rate=1e9)
        rt = Runtime(prog, m, mapping=Mapping((0,)))
        res = rt.run()
        assert res.time >= 2.0

    def test_reader_pulls_from_last_writer_pu(self, small_topo):
        """The transfer is charged producer->consumer: moving the writer
        farther away increases simulated time for identical programs."""
        times = []
        for writer_pu in (1, 4):
            prog = build_pingpong(iterations=5, nbytes=1 << 20)
            m = Machine(small_topo, seed=0)
            rt = Runtime(prog, m, mapping=Mapping((writer_pu, 0)))
            times.append(rt.run().time)
        assert times[1] > times[0]

    def test_init_phase_orders_requests(self, small_topo):
        """A later-declared op with lower init_phase gets the lock first."""
        prog = Program("phases")
        loc = prog.location("l", 0, owner_task="t")
        order = []

        t = prog.task("t")
        op1 = t.operation("late", body=None)
        h1 = op1.handle(loc, W)
        h1.init_phase = 1

        def late(ctx):
            yield from ctx.acquire(h1)
            order.append("late")
            ctx.release(h1)

        op1.body = late

        op2 = t.operation("early", body=None)
        h2 = op2.handle(loc, W)
        h2.init_phase = 0

        def early(ctx):
            yield from ctx.acquire(h2)
            order.append("early")
            ctx.release(h2)

        op2.body = early

        m = Machine(small_topo, seed=0)
        rt = Runtime(prog, m, mapping=Mapping((0, 1)))
        rt.run()
        assert order == ["early", "late"]
