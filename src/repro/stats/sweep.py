"""Replicated sweeps: N independent seeds per point, one flat dispatch.

This is the layer between an experiment ("these are my sweep points")
and :class:`repro.exec.SweepRunner` ("here are independent tasks").
Each :class:`ReplicateSpec` names one point — an importable function,
its kwargs minus the seed, and a hashable key — and
:func:`run_replicated` expands it into *seeds* tasks:

* replicate 0 runs with the **base seed unchanged**, so an N=1
  replicated sweep is bit-identical to the historical single-run sweep
  (and replicate 0 of an N>1 sweep *is* that historical run);
* replicate r > 0 runs with ``derive_seed(base, scope, *key, r)`` —
  sha-256-derived, so the schedule of seeds is identical across
  processes, platforms and worker counts.

All replicates of all points go to the runner as one flat task list
(points outer, replicates inner), so a parallel sweep load-balances
across the full ``points × seeds`` grid while the returned structure is
grouped back per point in submission order — serial and parallel runs
are bit-identical, inheriting the runner's contract.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Optional, Sequence

from repro.exec.runner import SweepRunner, Task, derive_seed
from repro.stats.aggregate import SeedStats, summarize
from repro.util.validate import ValidationError


@dataclass(frozen=True)
class ReplicateSpec:
    """One sweep point to be replicated.

    ``kwargs`` must *not* contain the seed argument; the expansion adds
    it under *seed_arg* per replicate.  ``key`` feeds the seed
    derivation and names the point in the grouped result.  ``weight``
    is the point's expected relative cost, forwarded to every replicate
    :class:`~repro.exec.runner.Task` so the runner's weight-aware
    chunker keeps giant points from starving the pool.
    """

    fn: Callable[..., Any]
    kwargs: dict[str, Any]
    key: tuple
    seed_arg: str = "seed"
    weight: float = 1.0


@dataclass
class ReplicatedPoint:
    """All replicates of one point, in replicate order."""

    key: tuple
    seeds: tuple[int, ...]
    results: list[Any]
    stats: Optional[SeedStats] = None

    @property
    def first(self) -> Any:
        """Replicate 0 — the historical base-seed run."""
        return self.results[0]


@dataclass
class ReplicatedSweep:
    """The grouped outcome of :func:`run_replicated`."""

    points: list[ReplicatedPoint]
    n_seeds: int
    base_seed: int
    scope: str


def replicate_seeds(base: int, scope: str, key: tuple, n: int) -> list[int]:
    """The seed schedule of one point: base first, derived children after.

    Stable across processes (`derive_seed` is sha-256 based) and
    collision-free across points and replicate indices for any
    practical sweep.
    """
    if n < 1:
        raise ValidationError(f"need at least one replicate, got {n}")
    return [
        int(base) if r == 0 else derive_seed(base, scope, *key, r)
        for r in range(n)
    ]


def run_replicated(
    specs: Sequence[ReplicateSpec],
    seeds: int,
    base_seed: int = 0,
    scope: str = "sweep",
    value_of: Optional[Callable[[Any], float]] = None,
    confidence: float = 0.95,
    runner: Optional[SweepRunner] = None,
    n_workers: int = 1,
) -> ReplicatedSweep:
    """Run every spec *seeds* times and group the results per point.

    With *value_of* (result → measurement, e.g. ``lambda p: p.time``)
    each point also carries a :class:`SeedStats` aggregate.  *runner*
    overrides *n_workers*.
    """
    specs = list(specs)
    if seeds < 1:
        raise ValidationError(f"seeds must be >= 1, got {seeds}")
    if len({s.key for s in specs}) != len(specs):
        raise ValidationError("replicate spec keys must be unique")
    schedule = [replicate_seeds(base_seed, scope, s.key, seeds) for s in specs]
    tasks = [
        Task(spec.fn, {**spec.kwargs, spec.seed_arg: seed}, weight=spec.weight)
        for spec, point_seeds in zip(specs, schedule)
        for seed in point_seeds
    ]
    if runner is None:
        runner = SweepRunner(n_workers=n_workers)
    flat = runner.map(tasks)

    points: list[ReplicatedPoint] = []
    for k, (spec, point_seeds) in enumerate(zip(specs, schedule)):
        results = flat[k * seeds : (k + 1) * seeds]
        stats = None
        if value_of is not None:
            stats = summarize(
                [value_of(r) for r in results], confidence=confidence
            )
        points.append(
            ReplicatedPoint(
                key=spec.key,
                seeds=tuple(point_seeds),
                results=results,
                stats=stats,
            )
        )
    return ReplicatedSweep(
        points=points,
        n_seeds=seeds,
        base_seed=int(base_seed),
        scope=scope,
    )
