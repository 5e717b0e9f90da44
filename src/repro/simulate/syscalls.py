"""Syscalls: the requests a simulated thread body may yield.

A thread body is a Python generator.  Each ``yield`` hands the machine
one of these objects; the machine performs it (advancing simulated time,
blocking, moving data) and resumes the generator when done.  This is the
simulated analogue of a pthread calling into libc/the ORWL runtime.

* :class:`Compute` — occupy the current PU for a CPU-work duration.
* :class:`Receive` — pull bytes last produced by another thread; the
  cost depends on the topological distance between the two threads'
  PUs (this is where placement pays off or doesn't).
* :class:`Park` — block until whoever holds the thread reschedules it
  with ``engine.schedule(delay, thread)`` (ORWL lock grants and
  control-thread sleeps: one waiter, one known waker).
* :class:`Wait` — park on a :class:`~repro.simulate.engine.SimEvent`
  (barrier releases: any number of waiters).
* :class:`Yield` — give up the PU to other ready threads (cooperative
  scheduling point, zero-cost otherwise).
"""

from __future__ import annotations

from typing import Optional

from repro.simulate.engine import SimEvent


class Syscall:
    """Marker base class for thread requests.

    Syscalls are plain ``__slots__`` classes: one is built per yield on
    the simulator's hot path, so they carry no per-instance ``__dict__``
    and no dataclass machinery.  They compare by identity; treat them as
    immutable (the runtime reuses one instance across yields).
    """

    __slots__ = ()

    def __repr__(self) -> str:
        fields = ", ".join(f"{k}={getattr(self, k)!r}" for k in self.__slots__)
        return f"{type(self).__name__}({fields})"


class Compute(Syscall):
    """Burn *duration* seconds of CPU on the thread's current PU."""

    __slots__ = ("duration",)

    def __init__(self, duration: float) -> None:
        if duration < 0:
            raise ValueError(f"negative compute duration {duration}")
        self.duration = duration


class ComputeFlops(Syscall):
    """Burn *flops* of work, priced at the executing PU's rate.

    Unlike :class:`Compute` (fixed seconds), the duration is resolved
    when the work starts, on whatever PU the thread occupies — the
    syscall for heterogeneous machines where PUs differ in speed.
    """

    __slots__ = ("flops",)

    def __init__(self, flops: float) -> None:
        if flops < 0:
            raise ValueError(f"negative flop count {flops}")
        self.flops = flops


class Receive(Syscall):
    """Consume *nbytes* produced by thread *producer* (by thread id).

    ``producer`` may be ``-1`` to denote main memory at a NUMA node
    (see :class:`ReceiveFromNode`); prefer the explicit class.
    """

    __slots__ = ("producer", "nbytes")

    def __init__(self, producer: int, nbytes: float) -> None:
        if nbytes < 0:
            raise ValueError(f"negative transfer size {nbytes}")
        self.producer = producer
        self.nbytes = nbytes


class ReceiveFromNode(Syscall):
    """Stream *nbytes* from the DRAM of NUMA node *node_index*.

    Models first-touch memory traffic: the OpenMP comparator's workers
    read their matrix slice from wherever it was allocated.
    """

    __slots__ = ("node_index", "nbytes")

    def __init__(self, node_index: int, nbytes: float) -> None:
        if nbytes < 0:
            raise ValueError(f"negative transfer size {nbytes}")
        self.node_index = node_index
        self.nbytes = nbytes


class Park(Syscall):
    """Block until whoever holds this thread reschedules it with
    ``engine.schedule(delay, thread)``.

    The waker keeps the thread itself (the thread is its own engine
    callback), so a one-waiter wake needs no event object.  *name* is
    the wait span's trace detail.
    """

    __slots__ = ("name",)

    #: the event a :class:`Wait` parks on (a plain park has none).
    event: Optional[SimEvent] = None

    def __init__(self, name: str = "") -> None:
        self.name = name


class Wait(Park):
    """Block until the event fires: a :class:`Park` whose waker is a
    :class:`~repro.simulate.engine.SimEvent`, for events any number of
    threads wait on (the event's name is the trace detail)."""

    __slots__ = ("event",)

    def __init__(self, event: SimEvent) -> None:
        self.name = event.name
        self.event = event


class Yield(Syscall):
    """Cooperative scheduling point (lets queued threads on this PU run)."""

    __slots__ = ()
