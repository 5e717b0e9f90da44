"""Tests for the ORWL body idioms."""

import pytest

from repro.comm.trace import CommTracer
from repro.orwl import AccessMode, Program, Runtime, idioms
from repro.simulate.machine import Machine
from repro.treematch.mapping import Mapping
from repro.util.validate import ValidationError


def build_idiomatic_pingpong(iterations=4, nbytes=2048):
    """The ping-pong from test_orwl, rewritten with idioms."""
    prog = Program("idiom-pingpong")
    loc = prog.location("shared", nbytes=nbytes, owner_task="A")
    opA = prog.task("A").operation("main", body=None)
    hA = opA.handle(loc, AccessMode.WRITE)
    opA.body = lambda ctx: idioms.iterative(
        ctx, iterations, idioms.compute_sweep(seconds=1e-4),
        writes=[hA], publish_first=False,
    )
    opB = prog.task("B").operation("main", body=None)
    hB = opB.handle(loc, AccessMode.READ)
    opB.body = lambda ctx: idioms.iterative(
        ctx, iterations, idioms.compute_sweep(seconds=5e-5), reads=[hB]
    )
    return prog


class TestIterative:
    def test_pingpong_completes(self, small_topo):
        prog = build_idiomatic_pingpong()
        machine = Machine(small_topo, seed=0)
        comm = CommTracer()
        res = Runtime(prog, machine, mapping=Mapping((0, 4)), comm=comm).run()
        assert res.time > 0
        # Reader pulled the payload every sweep.
        assert comm.volume_between("A/main", "B/main") == 4 * 2048

    def test_invalid_iterations(self, small_topo):
        prog = Program("bad")
        loc = prog.location("l", 0, owner_task="t")
        op = prog.task("t").operation("main", body=None)
        h = op.handle(loc, AccessMode.WRITE)
        op.body = lambda ctx: idioms.iterative(
            ctx, 0, idioms.compute_sweep(seconds=1e-6), writes=[h]
        )
        machine = Machine(small_topo, seed=0)
        rt = Runtime(prog, machine, mapping=Mapping((0,)))
        with pytest.raises(ValidationError):
            rt.run()

    def test_publish_first_unblocks_reader_round_zero(self, small_topo):
        """With publish_first the reader's first import needs no compute
        from the writer: time stays near the reader's own work."""
        times = {}
        for publish in (True, False):
            prog = Program(f"pub-{publish}")
            loc = prog.location("l", 1024, owner_task="w")
            w = prog.task("w").operation("main", body=None)
            hw = w.handle(loc, AccessMode.WRITE)
            hw.init_phase = 0
            w.body = lambda ctx, hw=hw, p=publish: idioms.iterative(
                ctx, 2, idioms.compute_sweep(seconds=5e-3),
                writes=[hw], publish_first=p,
            )
            r = prog.task("r").operation("main", body=None)
            hr = r.handle(loc, AccessMode.READ)
            hr.init_phase = 1

            def reader(ctx, hr=hr):
                yield from ctx.acquire(hr)
                ctx.next(hr)

            r.body = reader
            machine = Machine(small_topo, seed=0)
            res = Runtime(prog, machine, mapping=Mapping((0, 1))).run()
            # Time until the reader's first import was granted is
            # reflected in total wait time.
            times[publish] = res.metrics.wait_time
        assert times[True] < times[False]

    def test_work_receives_sweep_index(self, small_topo):
        seen = []
        prog = Program("idx")
        loc = prog.location("l", 0, owner_task="t")
        op = prog.task("t").operation("main", body=None)
        h = op.handle(loc, AccessMode.WRITE)

        def work(ctx, k):
            seen.append(k)
            yield ctx.compute(seconds=1e-6)

        op.body = lambda ctx: idioms.iterative(ctx, 3, work, writes=[h])
        machine = Machine(small_topo, seed=0)
        Runtime(prog, machine, mapping=Mapping((0,))).run()
        assert seen == [0, 1, 2]

    def test_compute_sweep_validates_args(self, small_topo):
        prog = Program("args")
        loc = prog.location("l", 0, owner_task="t")
        op = prog.task("t").operation("main", body=None)
        op.handle(loc, AccessMode.WRITE)
        fn = idioms.compute_sweep()  # neither seconds nor flops

        def body(ctx):
            yield from fn(ctx, 0)

        op.body = body
        machine = Machine(small_topo, seed=0)
        rt = Runtime(prog, machine, mapping=Mapping((0,)))
        with pytest.raises(ValidationError):
            rt.run()
