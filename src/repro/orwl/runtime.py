"""The ORWL event-based runtime, executing programs on the simulator.

"The implementation of the model reaches high performances thanks to a
decentralized event-based runtime."  This module is that runtime, built
on :class:`repro.simulate.Machine`:

* every **operation** runs as its own simulated thread (paper: "each
  operation is executed by an independent thread");
* every **task** additionally owns a **control thread** — the event/FIFO
  manager of the task's locations.  Lock grants are routed through it,
  so where the control thread is placed genuinely affects grant latency
  (this is what the paper's control-thread mapping extension optimizes);
* the **init protocol** inserts every handle's first request in global
  declaration order before any thread starts, giving the deterministic
  initial FIFO ordering ORWL prescribes (its outcome is frozen with the
  program, and every run starts from a copy of it);
* read acquisitions physically pull the location payload from its last
  writer, priced by topological distance — the locality being optimized.

Placement enters exclusively through the ``mapping`` /
``control_mapping`` arguments: the same program, machine, and seeds run
bound or unbound, which is exactly the paper's ORWL-Bind vs ORWL-NoBind
comparison.
"""

from __future__ import annotations

import weakref
from collections import deque
from dataclasses import dataclass
from functools import partial
from heapq import heappush
from typing import TYPE_CHECKING, Generator, Optional

from repro.orwl.fifo import (
    _DELIVERED, AccessMode, FifoError, Request, RequestState, _ignore_grant,
)
from repro.orwl.handle import Handle
from repro.orwl.program import Operation, Program
from repro.simulate.engine import _INF, Engine, SimulationError
from repro.simulate.machine import Machine, SimThread
from repro.simulate.metrics import MachineMetrics
from repro.simulate.syscalls import Compute, Park, Receive
from repro.treematch.mapping import Mapping
from repro.util.validate import ValidationError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.comm.trace import CommTracer
    from repro.observe.tracer import Tracer


#: What a control thread yields to sleep until a grant (or shutdown)
#: wakes it.  Syscalls are immutable, so one serves every control thread.
_CTL_WAKE = Park("ctl-wake")


@dataclass(frozen=True)
class RuntimeConfig:
    """Tunables of the ORWL runtime model.

    ``grant_cost`` is the control-thread service time per lock grant
    (event handling, FIFO bookkeeping, the message to the waiter) and
    ``direct_grant_latency`` the fallback cost when control threads are
    disabled.  Both are a few microseconds, the magnitude of a futex
    wake plus queue manipulation.
    """

    control_threads: bool = True
    grant_cost: float = 2e-6
    direct_grant_latency: float = 1e-6


@dataclass
class RunResult:
    """Outcome of one runtime execution."""

    #: total simulated processing time in seconds.
    time: float
    #: the machine's counters.
    metrics: MachineMetrics
    #: the mapping that was applied to compute ops.
    mapping: Mapping
    #: events processed by the simulation engine (diagnostics).
    engine_events: int = 0
    #: structured machine trace (None unless a repro.observe.Tracer was
    #: attached to the machine before the run).
    trace: Optional["Tracer"] = None


class _ControlQueue:
    """Service queue of one task's control thread.

    It is also the grant callback of the FIFOs the task owns: a grant
    joins the queue and, if the control thread sleeps (``sleeper``),
    reschedules it at once (the ``(now, seq, thread)`` entry
    ``engine.schedule(0.0, thread)`` would push).
    """

    __slots__ = ("engine", "jobs", "sleeper", "shutdown")

    def __init__(self, engine: Engine) -> None:
        self.engine = engine
        self.jobs: deque[Request] = deque()
        self.sleeper: Optional[SimThread] = None
        self.shutdown = False

    def __call__(self, req: Request) -> None:
        self.jobs.append(req)
        ctl = self.sleeper
        if ctl is not None:
            self.sleeper = None
            engine = self.engine
            engine._seq = seq = engine._seq + 1
            heappush(engine._heap, (engine._now, seq, ctl))


class OpContext:
    """The API surface an operation body sees (its ``ctx`` argument).

    Methods that can block are generators — call them as
    ``yield from ctx.acquire(h)``.  Non-blocking ones are plain calls.
    """

    __slots__ = ("_rt", "op", "tid", "thread")

    def __init__(self, runtime: "Runtime", op: Operation, thread: SimThread) -> None:
        self._rt = runtime
        self.op = op
        #: simulator thread of this operation (what a grant wakes), and
        #: its id.
        self.thread = thread
        self.tid = thread.tid

    # -- work ------------------------------------------------------------

    def compute(self, seconds: Optional[float] = None, flops: Optional[float] = None):
        """A compute burst; give either wall seconds or flops.

        Flops are priced at the executing PU's rate when the work runs
        (heterogeneous machines: a slow core takes proportionally
        longer); seconds are taken literally.
        """
        if (seconds is None) == (flops is None):
            raise ValidationError("give exactly one of seconds= or flops=")
        if seconds is None:
            from repro.simulate.syscalls import ComputeFlops

            return ComputeFlops(flops)
        return Compute(seconds)

    def current_node(self) -> int:
        """NUMA node this op's thread currently runs on (first-touch
        homing: call once at iteration 0 and remember the result)."""
        return self._rt.machine.node_of_thread(self.tid)

    @property
    def now(self) -> float:
        """Current simulated time (seconds) — for schedule recording
        (e.g. the DAG frontend's per-task ready/done timestamps)."""
        return self._rt.machine.engine._now

    # -- lock protocol ------------------------------------------------------

    def acquire(self, handle: Handle) -> Generator:
        """Block until the handle's request is granted; readers then pull
        the payload from its last writer (the locality-priced transfer)."""
        req = handle.request
        if req is None:
            raise ValidationError(
                f"{handle.op_name!r}: acquire without a pending request "
                "(the runtime inserts the initial one; use ctx.next afterwards)"
            )
        if req.payload is None:
            # Not delivered yet: leave this thread for the delivery to
            # wake, and park.
            req.payload = self.thread
            yield self.op.park
        if handle.mode is AccessMode.READ:
            loc = handle.location
            writer = loc.last_writer_tid
            nbytes = loc.nbytes
            if writer >= 0 and writer != self.tid and nbytes > 0:
                rt = self._rt
                comm = rt.comm
                if comm is not None:
                    comm_id = rt._comm_id_of_tid
                    comm.record_by_id(comm_id[writer], comm_id[self.tid], nbytes)
                yield Receive(writer, nbytes)

    def release(self, handle: Handle) -> None:
        """Release the grant (``orwl_release``); writers stamp provenance
        first."""
        loc = handle.location
        if handle.mode is AccessMode.WRITE:
            loc.last_writer_tid = self.tid
            loc.last_writer_op = self.op.name
            loc.version += 1
        req = handle.request
        if req is None:
            raise FifoError(f"handle {handle.op_name!r} has no request to release")
        loc.fifo.release(req)
        handle.request = None

    def next(self, handle: Handle) -> None:
        """``orwl_next``: finish this iteration's access and queue the
        next one (insert-at-tail then release, keeping round order).
        Writers stamp provenance first, as :meth:`release` does.  The
        FIFO re-enters the handle's delivered request itself."""
        loc = handle.location
        if handle.mode is AccessMode.WRITE:
            loc.last_writer_tid = self.tid
            loc.last_writer_op = self.op.name
            loc.version += 1
        old = handle.request
        if old is None or old.state is not RequestState.GRANTED:
            raise FifoError(
                f"orwl_next on handle {handle.op_name!r} without a granted request"
            )
        handle.request = loc.fifo.release(old, True, handle.op_name, handle.waiter)


class Runtime:
    """Instantiate and execute a :class:`Program` on a :class:`Machine`.

    Building a runtime *re-arms* its program: every location gets a
    fresh FIFO and no provenance, every handle no request and this
    run's thread as its waiter.  So a program runs any number of times,
    one runtime after another, and each run is bit-identical to a run
    of a freshly built program.  Two misuses raise
    :class:`ValidationError`: building a runtime on a program whose
    armer is still running, and running a runtime whose program another
    runtime has re-armed since.  A run that raises drops the requests
    it left in the program, so its machine is freed at once.
    """

    def __init__(
        self,
        program: Program,
        machine: Machine,
        mapping: Optional[Mapping] = None,
        control_mapping: Optional[Mapping] = None,
        config: Optional[RuntimeConfig] = None,
        comm: Optional["CommTracer"] = None,
    ) -> None:
        """
        Parameters
        ----------
        program:
            The ORWL program (frozen here if it is not yet, see
            :meth:`Program.freeze`; re-armed for this run).
        machine:
            A fresh machine (one run per machine).
        mapping:
            PU assignment for the compute operations, in program
            declaration order.  ``None`` (or -1 entries) = unbound.
        control_mapping:
            PU assignment for the per-task control threads, in task
            declaration order.  ``None`` = unbound control threads.
        comm:
            A :class:`~repro.comm.trace.CommTracer` that records every
            remote read (writer op -> reader op, payload bytes) under
            the operations' names.  ``None`` records nothing.
        """
        program.freeze()
        armer = program._armed_by() if program._armed_by is not None else None
        if armer is not None and armer._running:
            raise ValidationError(
                f"program {program.name!r} is still running under another runtime"
            )
        self.program = program
        self.machine = machine
        self.config = config or RuntimeConfig()
        self.comm = comm
        self._type_rows = machine.distances.type_rows()
        self._level_latency = machine.distances.level_latency

        ops = program._ops
        n_ops = len(ops)
        if mapping is None:
            mapping = Mapping((-1,) * n_ops, policy="nobind")
        if mapping.n_threads != n_ops:
            raise ValidationError(
                f"mapping covers {mapping.n_threads} threads, program has {n_ops} ops"
            )
        self.mapping = mapping

        layout = program.layout()
        task_names = layout.task_names
        if control_mapping is not None and control_mapping.n_threads != len(task_names):
            raise ValidationError(
                f"control mapping covers {control_mapping.n_threads} threads, "
                f"program has {len(task_names)} tasks"
            )

        # -- re-arm the program for this run (before touching it, so a
        # runtime armed earlier refuses to run on half-re-armed state).
        self._running = False
        program._armed_by = weakref.ref(self)

        # -- op threads (declaration order == thread order); each handle
        # stamps its requests with its operation's thread id.
        op_names = layout.op_labels
        op_tids = machine.add_threads(op_names, mapping.pu_of)
        self._op_tid = dict(zip(op_names, op_tids))
        for op, tid in zip(ops, op_tids):
            for h in op.handles:
                h.waiter = tid
        self._comm_id_of_tid: dict[int, int] = (
            dict(zip(op_tids, comm.register_all(op_names)))
            if comm is not None else {}
        )

        # -- control threads (one per task) ---------------------------------
        self._control_queue_of_task: dict[str, _ControlQueue] = {}
        self._control_tids: list[int] = []
        # Syscalls are immutable: one grant burst serves every grant.
        self._grant_service = Compute(self.config.grant_cost)
        if self.config.control_threads:
            # Control threads are mostly-sleeping event handlers: they
            # preempt briefly rather than queue behind compute bursts.
            self._control_tids = list(machine.add_threads(
                layout.control_labels,
                control_mapping.pu_of if control_mapping is not None
                else (-1,) * len(task_names),
                priority=True,
            ))
            for tname, tid in zip(task_names, self._control_tids):
                cq = self._control_queue_of_task[tname] = _ControlQueue(
                    machine.engine
                )
                machine.set_body(tid, self._control_body(cq, tid))

        # -- the ORWL init protocol, copied from its outcome frozen with
        # the program (see Program.freeze): every location gets a fresh
        # FIFO already holding its seeded requests, then the owners'
        # grant callbacks run in the order the protocol would call them.
        # Grants go to the owner task's control queue, or straight to
        # delivery when the owner has no control thread.
        queues = self._control_queue_of_task
        direct = self._grant_direct
        for loc, queue, n_granted in program._init_queues:
            loc.rearm(queues.get(loc.owner_task, direct), queue, n_granted)
        for h in program._init_grants:
            queues.get(h.location.owner_task, direct)(h.request)

        # -- attach op bodies; an op's teardown is its thread's exit hook.
        self._ops_remaining = n_ops
        for op, tid in zip(ops, op_tids):
            thread = machine.thread(tid)
            machine.set_body(tid, op.body(OpContext(self, op, thread)))
            thread.on_exit = partial(self._finish_op, op)

        self._ran = False

    # -- grant plumbing ------------------------------------------------------

    def _grant_direct(self, req: Request) -> None:
        """Grant callback of a location whose owner has no control
        thread: deliver the grant at once.  Delivering marks *req*
        delivered and, if an acquire is parked on it, reschedules that
        thread after the direct grant latency.

        The state lives on the request itself (``payload``) — a dict
        keyed by ``id(req)`` would collide when a released request is
        garbage collected and a new one reuses its id.  The control
        threads' loop (:meth:`_control_body`) delivers the same way.
        """
        waiter = req.payload
        if waiter is _DELIVERED:
            raise SimulationError(f"grant:{req.tag} delivered twice")
        req.payload = _DELIVERED
        machine = self.machine
        if waiter is not None:
            machine.engine.schedule(self.config.direct_grant_latency, waiter)
        if machine.tracer is not None:
            machine._trace("grant", None, machine.engine._now, detail=req.tag)

    def _control_body(self, cq: _ControlQueue, ctl_tid: int) -> Generator:
        """Control-thread loop: service grant messages until shutdown.

        Each grant is delivered as :meth:`_grant_direct` does.  The
        message latency is priced by the topological distance between
        this thread's PU and the parked thread's: tens of nanoseconds
        under a shared cache, microseconds across a cluster network —
        the decentralized runtime's messages are not free, and their
        cost follows placement like everything else.  The wake is the
        ``(now + latency, seq, thread)`` entry ``engine.schedule`` would
        push.
        """
        machine = self.machine
        engine = machine.engine
        heap = engine._heap
        ctl = machine.thread(ctl_tid)
        jobs = cq.jobs
        service = self._grant_service
        type_rows = self._type_rows
        level_latency = self._level_latency
        while True:
            while jobs:
                req = jobs.popleft()
                yield service
                waiter = req.payload
                if waiter is _DELIVERED:
                    raise SimulationError(f"grant:{req.tag} delivered twice")
                req.payload = _DELIVERED
                if waiter is not None:
                    src = ctl.current_pu
                    dst = waiter.current_pu
                    latency = (
                        0.0 if src < 0 or dst < 0
                        else level_latency[type_rows[src][dst]]
                    )
                    if not 0.0 <= latency < _INF:
                        raise SimulationError(
                            f"delay must be finite and non-negative, got {latency}"
                        )
                    engine._seq = seq = engine._seq + 1
                    heappush(heap, (engine._now + latency, seq, waiter))
                if machine.tracer is not None:
                    machine._trace("grant", ctl, engine._now, detail=req.tag)
            if cq.shutdown:
                return
            cq.sleeper = ctl
            yield _CTL_WAKE

    def _finish_op(self, op: Operation) -> None:
        """An operation's teardown: withdraw whatever request each of
        its handles has left (a granted one is released)."""
        for h in op.handles:
            req = h.request
            if req is not None:
                if req.state is RequestState.GRANTED:
                    h.location.fifo.release(req)
                else:
                    h.location.fifo.cancel(req)
                h.request = None
        self._ops_remaining -= 1
        if self._ops_remaining == 0:
            schedule = self.machine.engine.schedule
            for cq in self._control_queue_of_task.values():
                cq.shutdown = True
                ctl = cq.sleeper
                if ctl is not None:
                    cq.sleeper = None
                    schedule(0.0, ctl)

    # -- execution ----------------------------------------------------------

    def run(self) -> RunResult:
        """Execute to completion; returns the :class:`RunResult`."""
        if self._ran:
            raise ValidationError("runtime already ran; build a fresh one")
        if self.program._armed_by() is not self:
            raise ValidationError(
                f"program {self.program.name!r} was re-armed by another "
                "runtime; build a fresh one"
            )
        self._ran = self._running = True
        failed = True
        try:
            total = self.machine.run()
            failed = False
        finally:
            self._running = False
            self._detach(failed)
        return RunResult(
            time=total,
            metrics=self.machine.metrics,
            mapping=self.mapping,
            engine_events=self.machine.engine.events_fired,
            trace=self.machine.tracer,
        )

    def _detach(self, failed: bool) -> None:
        """Cut the kept program's links into this run.

        The grant callbacks reach the runtime, which reaches the
        locations, so they are always detached.  A run that raised also
        leaves requests queued and held, whose parked threads reach the
        machine: they are dropped, so the failed run is freed at once
        rather than when the next runtime re-arms the program.
        Provenance stays (it is plain data).
        """
        for loc in self.program.locations.values():
            loc.fifo.on_grant = _ignore_grant
            if failed:
                loc.fifo.clear()
        if failed:
            for op in self.program._ops:
                for h in op.handles:
                    h.request = None

    def tid_of_op(self, op_name: str) -> int:
        return self._op_tid[op_name]
