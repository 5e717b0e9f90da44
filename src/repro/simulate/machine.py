"""The simulated NUMA machine.

:class:`Machine` executes :class:`SimThread` generator bodies on the PUs
of a :class:`~repro.topology.tree.Topology`, charging:

* **compute** — serialized per PU (threads sharing a PU queue up);
* **transfers** — priced by the topological distance between producer
  and consumer PUs via :class:`~repro.topology.distance.DistanceModel`,
  stretched by :class:`~repro.simulate.contention.ContentionModel`;
* **unbound threads** — placed and periodically migrated by the
  :class:`~repro.simulate.scheduler.OsScheduler` model, paying a
  cache-refill penalty per migration.

This is the substitution for the paper's real 192-core SMP: wall-clock
"processing time" in the experiments is :attr:`Machine.engine`'s final
simulated time (see DESIGN.md §1).
"""

from __future__ import annotations

import enum
from heapq import heappush
from time import perf_counter
from typing import TYPE_CHECKING, Callable, Generator, Optional, Sequence

import numpy as np

from repro.metrics import core as _metrics_core

from repro.simulate.contention import ContentionConfig, ContentionModel
from repro.simulate.engine import _INF, Engine, SimEvent, SimulationError
from repro.simulate.metrics import MachineMetrics
from repro.simulate.scheduler import OsScheduler, SchedulerConfig
from repro.simulate.syscalls import (
    Compute,
    ComputeFlops,
    Park,
    Receive,
    ReceiveFromNode,
    Syscall,
    Yield,
)
from repro.topology.distance import DEFAULT_LEVEL_COSTS, DistanceModel
from repro.topology.objects import ObjType
from repro.topology.tree import Topology
from repro.util.rng import SeedLike, make_rng
from repro.util.validate import check_positive

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.observe.tracer import Tracer

#: Type of a thread body: a generator yielding Syscalls.
ThreadBody = Generator[Syscall, None, None]

#: Observability hook: when set, called with every newly constructed
#: machine (before threads are added).  ``repro.observe.capture()`` uses
#: it to attach tracers to machines built deep inside examples and
#: tools without plumbing a tracer through their APIs.
new_machine_hook: Optional[Callable[["Machine"], None]] = None


class ThreadState(enum.Enum):
    NEW = "new"
    READY = "ready"
    RUNNING = "running"
    BLOCKED = "blocked"
    DONE = "done"


#: What a thread's continuation does before it resumes the body
#: (:attr:`SimThread.resume_kind`): nothing, wait accounting for the
#: ``Park`` or ``Wait`` it woke from, or the end of its in-flight
#: transfer.
RESUME, WAKE, TRANSFER_DONE = 0, 1, 2

#: Sharing-level index of a node stream read on its own node (local DRAM).
_LOCAL_DRAM = int(ObjType.NUMANODE)


class SimThread:
    """A simulated thread: identity, placement, and its generator body.

    The thread is its own engine callback: calling it resumes the body
    after whatever :attr:`resume_kind` says its pending continuation
    ends.  A thread has at most one pending continuation, so the engine,
    the waker of a :class:`~repro.simulate.syscalls.Park` and
    :meth:`SimEvent.wait <repro.simulate.engine.SimEvent.wait>` take the
    thread itself and no per-thread closure is ever built.
    """

    __slots__ = (
        "tid",
        "name",
        "bound_pu",
        "current_pu",
        "state",
        "body",
        "pending_penalty",
        "consumed_since_balance",
        "blocked_since",
        "priority",
        "machine",
        "resume_kind",
        "wait_name",
        "transfer_level",
        "transfer_node",
        "compute_time",
        "transfer_time",
        "wait_time",
        "runq_time",
        "migrations",
        "done_at",
        "on_exit",
    )

    def __init__(
        self, tid: int, name: str, bound_pu: Optional[int], priority: bool = False
    ) -> None:
        self.tid = tid
        self.name = name
        #: logical PU index if bound, None if under the OS scheduler.
        self.bound_pu = bound_pu
        #: high-priority (preempting) thread — see Machine.add_thread.
        self.priority = priority
        #: logical PU the thread currently occupies.
        self.current_pu: int = -1
        self.state = ThreadState.NEW
        self.body: Optional[ThreadBody] = None
        #: the machine running the thread (set by Machine.run, cleared
        #: once its engine stops), and the kind of its pending
        #: continuation (RESUME, WAKE or TRANSFER_DONE).
        self.machine: Optional["Machine"] = None
        self.resume_kind = RESUME
        #: the name of the ``Park`` or ``Wait`` the thread is blocked
        #: on (the wait span's trace detail).
        self.wait_name = ""
        #: the contention slot (sharing level, producer node) of the
        #: thread's one in-flight transfer.
        self.transfer_level = ObjType.MACHINE
        self.transfer_node = -1
        #: cache-refill seconds to add to the next work item.
        self.pending_penalty = 0.0
        #: CPU seconds consumed since the last balancing decision.
        self.consumed_since_balance = 0.0
        self.blocked_since = 0.0
        #: per-thread accounting (see Machine.thread_stats).
        self.compute_time = 0.0
        self.transfer_time = 0.0
        self.wait_time = 0.0
        self.runq_time = 0.0
        self.migrations = 0
        #: simulated time the body finished (-1 while running).
        self.done_at = -1.0
        #: called with no argument when the body finishes, before the
        #: thread retires (the ORWL runtime's operation teardown).
        self.on_exit: Optional[Callable[[], None]] = None

    def __call__(self) -> None:
        """The thread's continuation: end what it was blocked on, then
        drive the body until it blocks or finishes.

        One frame per event: the wake accounting and the common
        syscalls are handled here and in one machine method each;
        :meth:`Machine._perform` takes the rare kinds.
        """
        machine = self.machine
        assert machine is not None and self.body is not None, "not running"
        kind = self.resume_kind
        if kind == WAKE:
            since = self.blocked_since
            waited = machine.engine._now - since
            machine.metrics.wait_time += waited
            self.wait_time += waited
            if machine.tracer is not None:
                machine._trace("wait", self, since, waited, detail=self.wait_name)
        elif kind == TRANSFER_DONE:
            machine.contention.end(self.transfer_level, self.transfer_node)
        self.state = ThreadState.RUNNING
        try:
            sc = next(self.body)
        except StopIteration:
            if self.on_exit is not None:
                self.on_exit()
            machine._end_thread(self)
            return
        if isinstance(sc, ComputeFlops):
            if self.bound_pu is None:
                machine._maybe_pull(self)  # pick the PU before pricing the work
            machine._do_work(self, sc.flops / machine._rate_of_pu[self.current_pu])
        elif isinstance(sc, Compute):
            machine._do_work(self, sc.duration)
        elif isinstance(sc, Park):
            self.state = ThreadState.BLOCKED
            self.blocked_since = machine.engine._now
            self.wait_name = sc.name
            self.resume_kind = WAKE
            event = sc.event
            if event is not None:
                event.wait(self)
        elif isinstance(sc, Receive):
            machine._do_receive(self, sc.producer, sc.nbytes)
        elif isinstance(sc, ReceiveFromNode):
            machine._do_receive(self, sc.node_index, sc.nbytes, True)
        else:
            machine._perform(self, sc)

    def __repr__(self) -> str:
        return f"<SimThread {self.tid} {self.name!r} {self.state.value} pu={self.current_pu}>"


class Machine:
    """Discrete-event machine executing thread bodies on a topology.

    Parameters
    ----------
    topo:
        The machine's topology; transfer costs derive from it.
    distance_model:
        Optional pre-built :class:`DistanceModel` (rebuilt otherwise).
    core_rate:
        Sustained compute throughput per PU in flop/s (used by workloads
        that express work in flops; bodies may also yield plain seconds).
    core_rate_of:
        Optional per-PU rate overrides ``{pu_os_index: flop/s}`` for
        heterogeneous machines (slow nodes, big.LITTLE cores).  Only
        :class:`~repro.simulate.syscalls.ComputeFlops` work is affected;
        fixed-seconds :class:`Compute` bursts are rate-independent by
        definition.
    contention, scheduler:
        Model configurations (defaults are calibrated, see the modules).
    compute_jitter:
        Multiplicative noise half-width on compute durations (e.g. 0.01
        = ±1 %), de-synchronizing lock-step threads the way real cores
        do.  0 disables.
    seed:
        Seed for scheduler and jitter randomness.
    tracer:
        Optional :class:`repro.observe.Tracer`; when attached the
        machine records one trace row per activity (compute,
        transfer, wait, runq, migration), tagged with PU / NUMA node /
        sharing level, and wires the scheduler's observer.  See
        :mod:`repro.observe`; a Gantt view of the run is
        :meth:`repro.simulate.timeline.Timeline.from_events` of its
        events.
    """

    def __init__(
        self,
        topo: Topology,
        distance_model: Optional[DistanceModel] = None,
        core_rate: float = 2e9,
        contention: Optional[ContentionConfig] = None,
        scheduler: Optional[SchedulerConfig] = None,
        compute_jitter: float = 0.0,
        seed: SeedLike = 0,
        core_rate_of: Optional[dict[int, float]] = None,
        tracer: Optional["Tracer"] = None,
    ) -> None:
        self.topo = topo
        self.distances = distance_model or DistanceModel(topo)
        # Per-topology lookups, shared with every machine on the same
        # model (see DistanceModel.pu_tables): the NUMA node of each PU
        # (for contention), os_index -> logical index, the node list in
        # logical order, and a representative PU under each node (for
        # node receives).
        tables = self.distances.pu_tables()
        self._node_of_pu = tables.node_of_pu
        self._os_to_logical = tables.os_to_logical
        self._numa_nodes = tables.numa_nodes
        self._node_rep_pu = tables.node_rep_pu
        self.core_rate = check_positive(core_rate, "core_rate")
        # Per-logical-PU rates (heterogeneity), defaulting to core_rate.
        self._rate_of_pu = [self.core_rate] * topo.nb_pus
        if core_rate_of:
            os_to_logical = self._os_to_logical
            for os_idx, rate in core_rate_of.items():
                if os_idx not in os_to_logical:
                    raise SimulationError(f"no PU with os_index {os_idx}")
                self._rate_of_pu[os_to_logical[os_idx]] = check_positive(
                    rate, f"core_rate_of[{os_idx}]"
                )
        if not 0.0 <= compute_jitter < 1.0:
            raise ValueError(f"compute_jitter must be in [0, 1), got {compute_jitter}")
        self.compute_jitter = compute_jitter
        self.engine = Engine()
        self.metrics = MachineMetrics()
        n_pus = topo.nb_pus
        n_nodes = max(topo.nbobjs_by_type(ObjType.NUMANODE), 1)
        self.contention = ContentionModel(n_nodes, contention)
        rng = make_rng(seed)
        self._jitter_rng = make_rng(int(rng.integers(2**63 - 1)))
        self.scheduler = OsScheduler(
            n_pus, scheduler, seed=int(rng.integers(2**63 - 1))
        )
        self._threads: list[SimThread] = []
        #: time each PU becomes free (run-queue serialization).  Plain
        #: Python floats: these values become event times, so a numpy
        #: scalar here would leak into ``engine.now`` and every heap key.
        self._pu_free_at = [0.0] * n_pus
        #: per-pair sharing level, as the model's byte rows (see
        #: DistanceModel.type_rows): one list and one bytes index per
        #: transfer instead of a numpy scalar read.
        self._type_rows = self.distances.type_rows()
        # UMA machines charge NUMANODE-class cost for node streams.
        self._uma_node_costs = self.distances.level_costs.get(
            ObjType.NUMANODE, DEFAULT_LEVEL_COSTS[ObjType.NUMANODE]
        )
        self._started = False
        self.tracer: Optional["Tracer"] = None
        if tracer is not None:
            self.attach_tracer(tracer)
        if new_machine_hook is not None:
            new_machine_hook(self)

    def attach_tracer(self, tracer: "Tracer") -> None:
        """Wire *tracer* into the machine and its scheduler.

        Must happen before :meth:`run`; one tracer per machine.
        """
        if self.tracer is not None:
            raise SimulationError("machine already has a tracer attached")
        if self._started:
            raise SimulationError("cannot attach a tracer after run() started")
        self.tracer = tracer

        def trace_sched(kind: str, src: int, dst: int) -> None:
            self._trace("sched", None, self.engine._now, pu=dst,
                        detail=f"{kind}:{src}->{dst}")

        self.scheduler.observer = trace_sched

    # -- thread setup ------------------------------------------------------

    def add_thread(
        self,
        name: str = "",
        bound_pu_os: Optional[int] = None,
        priority: bool = False,
    ) -> int:
        """Register a thread; returns its id.

        *bound_pu_os* is a PU os_index (``None`` = OS-scheduled,
        unbound).  *priority* marks an event-handler-style thread whose
        short bursts preempt whatever occupies its PU instead of queueing
        behind it — the behaviour a mostly-sleeping high-priority thread
        gets from a real kernel.  Its cycles are still charged to the PU.
        """
        tid = len(self._threads)
        pu = -1 if bound_pu_os is None else bound_pu_os
        return self.add_threads([name or f"thread{tid}"], (pu,), priority)[0]

    def add_threads(
        self, names: Sequence[str], bound_pus_os: Sequence[int], priority: bool = False
    ) -> range:
        """Register one thread per name in one call; returns their ids.

        Thread *k* is bound to PU os_index ``bound_pus_os[k]`` (negative
        = unbound); see :meth:`add_thread`.
        """
        if self._started:
            raise SimulationError("cannot add threads after run() started")
        if len(names) != len(bound_pus_os):
            raise SimulationError(
                f"{len(names)} thread names for {len(bound_pus_os)} PUs"
            )
        os_to_logical = self._os_to_logical
        try:
            bound = [None if pu < 0 else os_to_logical[pu] for pu in bound_pus_os]
        except KeyError as exc:
            raise SimulationError(f"no PU with os_index {exc.args[0]}") from None
        threads = self._threads
        first = len(threads)
        for tid, name, pu in zip(range(first, first + len(names)), names, bound):
            threads.append(SimThread(tid, name, pu, priority))
        return range(first, len(threads))

    def set_body(self, tid: int, body: ThreadBody) -> None:
        """Attach the generator body to a registered thread."""
        t = self._threads[tid]
        if t.body is not None:
            raise SimulationError(f"thread {tid} already has a body")
        t.body = body

    def thread(self, tid: int) -> SimThread:
        return self._threads[tid]

    @property
    def n_threads(self) -> int:
        return len(self._threads)

    def new_event(self, name: str = "") -> SimEvent:
        return SimEvent(self.engine, name)

    def thread_stats(self, tid: int) -> dict[str, float]:
        """Per-thread accounting: compute/transfer/wait seconds and
        migration count.  Valid during and after a run."""
        t = self._threads[tid]
        return {
            "compute_time": t.compute_time,
            "transfer_time": t.transfer_time,
            "wait_time": t.wait_time,
            "runq_time": t.runq_time,
            "migrations": float(t.migrations),
            "done_at": t.done_at,
        }

    def node_of_thread(self, tid: int) -> int:
        """NUMA node logical index a thread currently sits on (-1 if
        not yet placed).  Workloads use this for first-touch homing."""
        t = self._threads[tid]
        if t.current_pu < 0:
            return -1
        return self._node_of_pu[t.current_pu]

    # -- execution -----------------------------------------------------------

    def run(self, max_events: int = 500_000_000) -> float:
        """Start all threads, drain the event queue, return final time.

        Raises :class:`SimulationError` with the list of stuck threads if
        the queue drains while threads are still blocked (deadlock).

        Once the engine stops, the machine drops every link that points
        back at it (see :meth:`_release_callbacks`), so a finished
        machine is freed by reference counting alone.
        """
        if self._started:
            raise SimulationError("machine already ran")
        self._started = True
        for t in self._threads:
            if t.body is None:
                raise SimulationError(f"thread {t.tid} ({t.name}) has no body")
            t.current_pu = (
                t.bound_pu if t.bound_pu is not None
                else self.scheduler.initial_pu()
            )
            self.scheduler.occupy(t.current_pu)
            t.state = ThreadState.READY
            t.machine = self
            if self.tracer is not None:
                self._trace("thread_start", t, 0.0,
                            detail="unbound" if t.bound_pu is None else "bound")
            self.engine.schedule(0.0, t)
        flush_metrics = _metrics_core.is_enabled()
        wall_t0 = perf_counter() if flush_metrics else 0.0
        try:
            self.engine.run(max_events=max_events)
        finally:
            self._release_callbacks()
        if flush_metrics:
            from repro.metrics.bridge import record_run

            record_run(self, perf_counter() - wall_t0)
        stuck = [t for t in self._threads if t.state is not ThreadState.DONE]
        if stuck:
            names = ", ".join(f"{t.tid}:{t.name}({t.state.value})" for t in stuck[:10])
            raise SimulationError(
                f"deadlock: {len(stuck)} thread(s) never finished: {names}"
            )
        return self.engine.now

    # -- syscall dispatch ---------------------------------------------------

    def _trace(
        self,
        kind: str,
        t: Optional[SimThread],
        ts: float,
        dur: float = 0.0,
        level: str = "",
        nbytes: float = 0.0,
        detail: str = "",
        pu: int = -1,
    ) -> None:
        """Record one trace row for thread *t* (caller checked the
        tracer is set).

        *t* None records a machine-level row (tid -1) on PU *pu*: a
        scheduler decision, or a grant delivered without a control
        thread.  The row is a tuple in
        :class:`~repro.observe.tracer.TraceEvent` field order, less
        ``seq``.
        """
        if t is None:
            tid, name = -1, ""
        else:
            tid, name, pu = t.tid, t.name, t.current_pu
        assert self.tracer is not None
        self.tracer.append((
            kind, ts, dur, tid, name, pu,
            self._node_of_pu[pu] if pu >= 0 else -1,
            level, nbytes, detail,
        ))

    def _release_callbacks(self) -> None:
        """Drop the links that tie the machine into reference cycles.

        Each thread points back at the machine (its continuation runs
        there) and may hold an exit hook into whoever built it, and the
        trace observer closes over the machine from the scheduler; the
        machine reaches all of them.  Nothing calls them once the engine
        has stopped.
        """
        for t in self._threads:
            t.machine = None
            t.on_exit = None
        self.scheduler.observer = None

    def _end_thread(self, t: SimThread) -> None:
        """Retire thread *t*, whose body has finished."""
        t.state = ThreadState.DONE
        t.done_at = self.engine._now
        if self.tracer is not None:
            self._trace("thread_end", t, self.engine._now)
        self.scheduler.vacate(t.current_pu)

    def _perform(self, t: SimThread, sc: Syscall) -> None:
        """The syscalls :meth:`SimThread.__call__` does not handle itself."""
        if isinstance(sc, Yield):
            t.state = ThreadState.READY
            t.resume_kind = RESUME
            self.engine.schedule(0.0, t)
        else:
            raise SimulationError(f"thread {t.tid} yielded non-syscall {sc!r}")

    def _backlog(self) -> np.ndarray:
        """Per-PU pending-CPU-seconds vector, built on demand for a
        balancing decision that the scalar guard could not settle."""
        backlog = np.array(self._pu_free_at)
        backlog -= self.engine._now
        np.maximum(backlog, 0.0, out=backlog)
        return backlog

    def _balanced(self, pu: int) -> bool:
        """Scalar guard: can no pull move a thread off *pu* right now?

        Every backlog is >= 0, so the imbalance ``backlog[pu] - min`` is
        at most ``backlog[pu]``; when that is within the scheduler's
        threshold :meth:`OsScheduler.pull_target` declines without
        drawing from its RNG.  Skipping it is therefore bit-identical,
        and spares the common case its vector build and reductions.
        """
        return (
            self._pu_free_at[pu] - self.engine._now
            <= self.scheduler.config.imbalance_threshold
        )

    def _migrate(self, t: SimThread, target: int, kind: str) -> None:
        """Move unbound thread *t* to PU *target*, charging the penalty."""
        source = t.current_pu
        self.scheduler.vacate(source)
        self.scheduler.occupy(target)
        t.current_pu = target
        penalty = self.scheduler.config.migration_penalty
        t.pending_penalty += penalty
        t.migrations += 1
        self.metrics.record_migration(penalty)
        if self.tracer is not None:
            self._trace("migration", t, self.engine._now, penalty,
                        detail=f"{kind}:{source}->{target}")

    def _maybe_pull(self, t: SimThread) -> None:
        """Idle-balance an unbound thread before it occupies its PU.

        A ready thread does not queue behind a busy PU while another
        sits idle — the kernel pulls it over (paying the cache-refill
        penalty).  Bound threads never move; that immunity is precisely
        what the paper's binding buys.
        """
        if t.bound_pu is not None or self._balanced(t.current_pu):
            return
        target = self.scheduler.pull_target(t.current_pu, self._backlog())
        if target is not None:
            self._migrate(t, target, "pull")

    def _do_work(self, t: SimThread, duration: float) -> None:
        """Charge a compute burst of *duration* seconds on t's PU.

        One frame: the idle-balance pull (its bound and scalar guards
        tested here, see :meth:`_maybe_pull`), run-queue serialization,
        the accounts, the balancing quantum (see
        :meth:`_account_balancing`) and the continuation's heap entry,
        pushed with :meth:`Engine.at <repro.simulate.engine.Engine.at>`'s
        checks and sequence counter.

        Priority threads preempt: they start at once and push the PU's
        next-free time back by their (short) burst, approximating a
        kernel scheduling a woken high-priority thread within the
        running thread's timeslice.
        """
        engine = self.engine
        now = engine._now
        free_at = self._pu_free_at
        config = self.scheduler.config
        if (
            t.bound_pu is None
            and free_at[t.current_pu] - now > config.imbalance_threshold
        ):
            self._maybe_pull(t)
        if self.compute_jitter > 0.0:
            duration *= 1.0 + self.compute_jitter * (2.0 * self._jitter_rng.random() - 1.0)
        if t.pending_penalty > 0.0:
            duration += t.pending_penalty
            t.pending_penalty = 0.0
        pu = t.current_pu
        metrics = self.metrics
        if t.priority:
            start = now
            end = now + duration
            free_at[pu] = max(free_at[pu] + duration, end)
        else:
            start = free_at[pu]
            if start > now:
                metrics.runq_time += start - now
                t.runq_time += start - now
                if self.tracer is not None:
                    self._trace("runq", t, now, start - now)
            else:
                start = now
            end = free_at[pu] = start + duration
        metrics.compute_time += duration
        t.compute_time += duration
        if self.tracer is not None:
            self._trace("compute", t, start, duration)
        if t.bound_pu is None:
            if t.consumed_since_balance + duration < config.migration_quantum:
                t.consumed_since_balance += duration
            else:
                self._account_balancing(t, duration)
        t.state = ThreadState.READY
        t.resume_kind = RESUME
        if not now <= end < _INF:
            raise SimulationError(
                f"time must be finite and >= now, got {end} (now={now})"
            )
        engine._seq = seq = engine._seq + 1
        heappush(engine._heap, (end, seq, t))

    def _account_balancing(self, t: SimThread, consumed: float) -> None:
        """Run the OS balancer for unbound threads per consumed quantum.

        The pull half is skipped under the scalar guard (see
        :meth:`_balanced`); the noise half always runs, so the
        scheduler's RNG draws keep their order.
        """
        if t.bound_pu is not None:
            return
        t.consumed_since_balance += consumed
        quantum = self.scheduler.config.migration_quantum
        while t.consumed_since_balance >= quantum:
            t.consumed_since_balance -= quantum
            backlog = None if self._balanced(t.current_pu) else self._backlog()
            target = self.scheduler.maybe_migrate(t.current_pu, backlog)
            if target is not None:
                self._migrate(t, target, "balance")

    def _do_receive(
        self, t: SimThread, source: int, nbytes: float, from_node: bool = False
    ) -> None:
        """Charge thread *t* a transfer of *nbytes*: from the PU of thread
        *source*, or (*from_node*) from the DRAM of NUMA node *source*.

        One frame, like :meth:`_do_work`: the pull, the price by sharing
        level, the contention stretch, the accounts, run-queue
        serialization and the heap entry of the transfer's end.
        """
        engine = self.engine
        now = engine._now
        free_at = self._pu_free_at
        if (
            t.bound_pu is None
            and free_at[t.current_pu] - now > self.scheduler.config.imbalance_threshold
        ):
            self._maybe_pull(t)
        dst_pu = t.current_pu
        if from_node and not self._numa_nodes:
            # UMA machine: charge NUMANODE-class cost, no node contention;
            # a pending migration penalty waits for the next burst.
            level = ObjType.NUMANODE
            base = self._uma_node_costs.transfer_time(nbytes)
            node = -1
        else:
            if from_node:
                if not 0 <= source < len(self._numa_nodes):
                    raise SimulationError(f"no NUMA node {source}")
                node = source
                if self._node_of_pu[dst_pu] == node:
                    ti = _LOCAL_DRAM
                else:
                    ti = self._type_rows[self._node_rep_pu[node]][dst_pu]
            else:
                if not 0 <= source < len(self._threads):
                    raise SimulationError(f"Receive from unknown thread {source}")
                src_pu = self._threads[source].current_pu
                if src_pu < 0 or dst_pu < 0:  # pragma: no cover - placed at start
                    raise SimulationError("transfer before placement")
                ti = self._type_rows[src_pu][dst_pu]
                node = self._node_of_pu[src_pu]
            dm = self.distances
            level = dm.level_types[ti]
            base = (
                0.0 if nbytes <= 0
                else dm.level_latency[ti] + nbytes / dm.level_bandwidth[ti]
            )
            if t.pending_penalty > 0.0:
                base += t.pending_penalty
                t.pending_penalty = 0.0
        contention = self.contention
        slow = contention.slowdown(level, node)
        metrics = self.metrics
        if slow > 1.0:
            metrics.contended_transfers += 1
        duration = base * slow
        metrics.bytes_by_level[level] += nbytes
        metrics.transfer_time_by_level[level] += duration
        metrics.transfers += 1
        t.transfer_time += duration
        if t.priority:
            start = now
            end = now + duration
            free_at[dst_pu] = max(free_at[dst_pu] + duration, end)
        else:
            start = free_at[dst_pu]
            if start > now:
                metrics.runq_time += start - now
                t.runq_time += start - now
                if self.tracer is not None:
                    self._trace("runq", t, now, start - now)
            else:
                start = now
            end = free_at[dst_pu] = start + duration
        if self.tracer is not None:
            # ``_name_`` is the member's plain attribute; ``name`` is an
            # enum property, two Python calls per traced transfer.
            self._trace("transfer", t, start, duration, level=level._name_,
                        nbytes=nbytes, detail=f"from-node:{node}")
        contention.begin(level, node)
        t.transfer_level = level
        t.transfer_node = node
        t.state = ThreadState.READY
        t.resume_kind = TRANSFER_DONE
        if not now <= end < _INF:
            raise SimulationError(
                f"time must be finite and >= now, got {end} (now={now})"
            )
        engine._seq = seq = engine._seq + 1
        heappush(engine._heap, (end, seq, t))

    # -- convenience -----------------------------------------------------------

    def seconds_for_flops(self, flops: float) -> float:
        """Convert a flop count to seconds at the machine's core rate."""
        return flops / self.core_rate

