"""OS-scheduler model for unbound threads (the "NoBind" substrate).

When a thread has no affinity, the real kernel's CFS decides where it
runs — and periodically load-balances it to another core, cooling its
caches and randomizing its distance to the threads it talks to.  This
module models that with three ingredients:

* **initial placement**: least-loaded PU, ties broken randomly (a decent
  scheduler, deliberately not adversarial — the paper's NoBind numbers
  are not a strawman);
* **periodic migration**: after each ``migration_quantum`` of consumed
  CPU time, the thread is re-balanced with probability ``migration_prob``
  to the currently least-loaded PU, which is topology-blind;
* **migration cost**: a cache-refill penalty added to the thread's next
  compute burst.

All randomness comes from a seeded generator owned by the machine, so
NoBind runs are reproducible.
"""

from __future__ import annotations

from bisect import insort
from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.util.rng import SeedLike, make_rng
from repro.util.validate import check_in_range, check_positive


@dataclass(frozen=True)
class SchedulerConfig:
    """Tunables of the OS-scheduler model.

    Defaults: a balancing decision every 10 ms of consumed CPU time
    (the magnitude of CFS load-balancing intervals); a thread migrates
    when its PU's CPU backlog exceeds the least-loaded PU's by
    ``imbalance_threshold`` (pull-style balancing), plus a small random
    migration probability modelling wakeup-placement noise; each
    migration charges a 50 µs cache-refill penalty, in line with
    measured cache-warmup costs on NUMA machines.
    """

    migration_quantum: float = 10e-3
    migration_prob: float = 0.02
    migration_penalty: float = 50e-6
    imbalance_threshold: float = 2e-3

    def __post_init__(self) -> None:
        check_positive(self.migration_quantum, "migration_quantum")
        check_in_range(self.migration_prob, 0.0, 1.0, "migration_prob")
        check_in_range(self.migration_penalty, 0.0, None, "migration_penalty")
        check_in_range(self.imbalance_threshold, 0.0, None, "imbalance_threshold")


class OsScheduler:
    """Decides placement of unbound threads on behalf of the machine."""

    def __init__(
        self,
        n_pus: int,
        config: SchedulerConfig | None = None,
        seed: SeedLike = None,
    ) -> None:
        if n_pus <= 0:
            raise ValueError(f"n_pus must be > 0, got {n_pus}")
        self.config = config or SchedulerConfig()
        self._rng = make_rng(seed)
        #: threads per PU, and the least-loaded set kept beside it: the
        #: least load and the PUs at it in ascending order — the
        #: candidates ``np.flatnonzero(load == load.min())`` would give.
        self._load = [0] * n_pus
        self._low = 0
        self._at_low = list(range(n_pus))
        #: optional observability probe ``(kind, src_pu, dst_pu)`` fired on
        #: every placement decision — ``"initial"`` / ``"pull"`` /
        #: ``"noise"`` — wired by Machine.attach_tracer.
        self.observer: Callable[[str, int, int], None] | None = None

    # -- load bookkeeping ----------------------------------------------------

    def occupy(self, pu: int) -> None:
        load = self._load
        load[pu] += 1
        if load[pu] == self._low + 1:  # pu leaves the least-loaded set
            at_low = self._at_low
            at_low.remove(pu)
            if not at_low:
                # Every PU is above the old least load now, so the new
                # least-loaded set is the PUs one thread above it.
                low = self._low = self._low + 1
                at_low.extend(p for p, n in enumerate(load) if n == low)

    def vacate(self, pu: int) -> None:
        load = self._load
        load[pu] -= 1
        n = load[pu]
        assert n >= 0
        if n < self._low:
            self._low = n
            self._at_low = [pu]
        elif n == self._low:
            insort(self._at_low, pu)

    def load_of(self, pu: int) -> int:
        return self._load[pu]

    # -- decisions -----------------------------------------------------------

    def initial_pu(self) -> int:
        """Pick a PU for a newly started unbound thread (least loaded)."""
        candidates = self._at_low
        choice = candidates[self._rng.integers(len(candidates))]
        if self.observer is not None:
            self.observer("initial", -1, choice)
        return choice

    def pull_target(self, current_pu: int, backlog: np.ndarray) -> int | None:
        """Idle-balance pull: where a ready thread should run *now*.

        When the thread's PU is booked ``imbalance_threshold`` seconds
        beyond the least-loaded PU, return that least-loaded PU (random
        tie-break) — topology-blind, like a real kernel's idle balance.
        Returns ``None`` when the placement is fine.
        """
        # One reduction pass: the minimum feeds both the imbalance test
        # and the candidate mask.  The machine only calls this when its
        # scalar guard (Machine._balanced) cannot rule a pull out, and
        # never relies on a draw from here when it can: this test
        # returns before touching the RNG.
        low = backlog.min()
        imbalance = float(backlog[current_pu] - low)
        if imbalance <= self.config.imbalance_threshold:
            return None
        candidates = np.flatnonzero(backlog == low)
        target = int(candidates[self._rng.integers(len(candidates))])
        if target == current_pu:
            return None
        if self.observer is not None:
            self.observer("pull", current_pu, target)
        return target

    def maybe_migrate(
        self, current_pu: int, backlog: np.ndarray | None = None
    ) -> int | None:
        """Return a new PU if the balancer moves the thread, else ``None``.

        Called by the machine once per consumed migration quantum.
        *backlog* is the per-PU pending-CPU-seconds vector (how far in
        the future each PU is booked); when the current PU's backlog
        exceeds the minimum by ``imbalance_threshold``, the thread is
        pulled to the least-backlogged PU — topology-blind, like the
        real balancer.  Otherwise a small random migration models
        wakeup-placement noise.
        """
        if backlog is not None:
            target = self.pull_target(current_pu, backlog)
            if target is not None:
                return target
        if self._rng.random() >= self.config.migration_prob:
            return None
        # Random noise migration toward a lightly loaded PU, counting the
        # thread as already gone from its own PU.
        own = self._load[current_pu] - 1
        candidates = self._at_low
        if own < self._low:
            candidates = [current_pu]
        elif own == self._low:
            candidates = candidates.copy()
            insort(candidates, current_pu)
        target = candidates[self._rng.integers(len(candidates))]
        if target == current_pu:
            return None
        if self.observer is not None:
            self.observer("noise", current_pu, target)
        return target
