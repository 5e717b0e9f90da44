"""Host-speed-corrected op and set-up times.

The benchmark runs on shared hosts whose speed drifts: the same work
takes up to twice as long in one spell as in another, spells last from
seconds to many minutes, and CPU time drifts with wall time, so neither
clock gives figures that repeat from one run to the next.  A
:class:`SpeedProbe` measures the drift beside the program: every
:data:`PERIOD_S`, a timer signal runs a short fixed probe
(:func:`probe`: a small pure-Python event loop and numpy/hashlib work
on a 192×192 matrix, no program code), inside ops as well as between
them, and the probe's time says how fast the host is at that moment.

:func:`reference_s` turns a wall-clock interval into *reference
seconds*: the program's wall time in it, less the probes, scaled by
the host's speed around it (:meth:`SpeedProbe.around`) relative to
:data:`REF_PROBE_S`, the probe's time at the reference speed, raised to
:data:`SPEED_EXPONENT`.  A program that does more work reads slower at
any host speed; a host spell that slows the program and the probe
alike cancels out.

The probe feels a slow spell more than the program does, and the
exponent accounts for that.  Fitted on runs of the three workloads,
op times follow the probe's speed with exponents from about 0.65
(``fig1-192`` within one slow stretch, warm placement queries) to 1.0
(cold placement queries, and ``dag-e7`` from a fast spell to a slow
one).  With 0.8, each end-to-end median moved by 12 % or less between
a spell near the reference speed and one at half of it, and the spread
between runs fell to a third to a half of the uncorrected spread.  The
correction cannot see a change to the program that slows the probe as
well, such as threads of the program's own competing for the core; the
workloads run single-threaded, so that does not arise in them.
"""

from __future__ import annotations

import bisect
import gc
import hashlib
import heapq
import signal
import time

import numpy as np

#: Wall time between two probes.
PERIOD_S = 0.1

#: Time of one probe at the reference host speed, in seconds.  It fixes
#: the scale of every corrected time: about the probe's time in a fast
#: spell on 2 shared vCPUs of an Intel Xeon (Sapphire Rapids) KVM guest,
#: CPython 3.11.7, numpy 2.4.6.
REF_PROBE_S = 0.0020

#: How strongly op times follow the probe's speed (see above).
SPEED_EXPONENT = 0.8

_EVENTS = 1200
_ROWS = 40
_MATRIX = np.arange(192 * 192, dtype=float).reshape(192, 192)


class _Event:
    __slots__ = ("t", "k")

    def __init__(self, t: float, k: int) -> None:
        self.t = t
        self.k = k

    def __lt__(self, other: "_Event") -> bool:
        return self.t < other.t


def probe() -> float:
    """Fixed work of the kinds the program does; returns a checksum.

    A heap-driven event loop with small objects, dict updates and
    closures (the simulator's kind of work), then row and column
    reductions, a sort and a sha-256 over rows of a 192×192 matrix (the
    placement service's kind).  Every object it makes is freed before
    it returns.
    """
    heap = [_Event(float(i), i) for i in range(32)]
    heapq.heapify(heap)
    state: dict[int, float] = {}

    def account(e: _Event) -> None:
        state[e.k % 13] = state.get(e.k % 13, 0.0) + e.t

    def successor(e: _Event) -> _Event:
        return _Event(e.t + 1.5 + (e.k % 5) * 0.1, e.k + 1)

    for _ in range(_EVENTS):
        e = heapq.heappop(heap)
        account(e)
        heapq.heappush(heap, successor(e))
    total = sum(state.values())
    m = _MATRIX
    for i in range(_ROWS):
        row = m[i % 192]
        total += row.sum() + m[:, i % 192].max()
        total += hashlib.sha256(row.tobytes()).digest()[0]
        total += np.argsort(-row if i % 2 else row)[0]
    return float(total)


class SpeedProbe:
    """Probe samples over a process's life; corrects intervals by them.

    Between :meth:`start` and :meth:`stop` a timer signal runs the probe
    every :data:`PERIOD_S`, inside ops as well as between them.  Only
    one probe may run in a process, because it owns ``SIGALRM``.
    Timestamps are ``time.perf_counter()`` values.
    """

    def __init__(self) -> None:
        #: end time and duration of every probe, in order.
        self.ends: list[float] = []
        self.costs: list[float] = []

    def _on_timer(self, _signum, _frame) -> None:
        self.sample()

    def sample(self) -> None:
        # The program's garbage collection must not run, and be charged
        # to the probe, inside the timer handler.
        collecting = gc.isenabled()
        gc.disable()
        try:
            t0 = time.perf_counter()
            probe()
            t1 = time.perf_counter()
            self.ends.append(t1)
            self.costs.append(t1 - t0)
        finally:
            if collecting:
                gc.enable()

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._on_timer)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def around(self, t0: float, t1: float) -> tuple[float, float]:
        """``(work seconds, host speed)`` of the interval ``[t0, t1]``.

        The work seconds are the wall time less the probes that ran
        inside the interval.  The host speed (1 = reference speed) is
        the mean over the last probe that ended before *t0*, the probes
        inside and the first one after *t1*.
        """
        lo = bisect.bisect_right(self.ends, t0)
        hi = bisect.bisect_right(self.ends, t1)
        near = self.costs[max(lo - 1, 0):hi + 1]
        if not near:
            raise RuntimeError("no speed probe near the interval")
        speed = sum(REF_PROBE_S / c for c in near) / len(near)
        return t1 - t0 - sum(self.costs[lo:hi]), speed

    def median_speed(self) -> float:
        """Host speed of the median probe (1 = reference speed)."""
        costs = sorted(self.costs)
        return REF_PROBE_S / costs[len(costs) // 2]


def reference_s(work_s: float, speed: float) -> float:
    """Reference seconds of *work_s* seconds at host speed *speed*."""
    return work_s * speed**SPEED_EXPONENT
