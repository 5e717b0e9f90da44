"""Placement policies: TreeMatch plus the standard baselines.

Every policy maps *n* threads (optionally with a communication matrix)
onto a topology, returning a :class:`~repro.treematch.mapping.Mapping`.
The baselines are the ones placement papers conventionally compare
against:

* :class:`CompactPolicy` — fill PUs in logical order (OpenMP
  ``OMP_PROC_BIND=close``);
* :class:`ScatterPolicy` — spread threads as far apart as possible
  (``OMP_PROC_BIND=spread``);
* :class:`RoundRobinPolicy` — PU *t mod P* for thread *t*;
* :class:`RandomPolicy` — uniform random PUs (seeded);
* :class:`NoBindPolicy` — no binding at all (mapping of ``-1`` entries):
  the OS-scheduler model in the simulator takes over, this is the
  paper's "ORWL NoBind" configuration;
* :class:`TreeMatchPolicy` — the paper's contribution, wrapping
  :func:`repro.treematch.tree_match`.

Policies are registered in :data:`POLICY_REGISTRY` for lookup by name.
"""

from __future__ import annotations

import abc
from typing import TYPE_CHECKING, Optional, Sequence

from repro.comm.matrix import CommMatrix
from repro.exec.cache import cached_tree_match
from repro.topology.query import distribute
from repro.topology.tree import Topology
from repro.treematch.algorithm import TreeMatchResult
from repro.treematch.mapping import Mapping
from repro.util.rng import SeedLike, make_rng
from repro.util.validate import ValidationError

if TYPE_CHECKING:
    from repro.placement.service import Decision, PlacementService


class PlacementPolicy(abc.ABC):
    """Interface: produce a thread → PU mapping for a topology."""

    #: Registry name; subclasses override.
    name: str = "abstract"

    @abc.abstractmethod
    def place(
        self,
        topo: Topology,
        n_threads: int,
        matrix: Optional[CommMatrix] = None,
        labels: Optional[Sequence[str]] = None,
    ) -> Mapping:
        """Map *n_threads* threads onto *topo*.

        *matrix* is the thread communication matrix; affinity-blind
        policies ignore it.  *labels* names the threads in the result.
        """

    def _labels(self, n: int, labels: Optional[Sequence[str]]) -> tuple[str, ...]:
        if labels is None:
            return tuple(f"t{i}" for i in range(n))
        if len(labels) != n:
            raise ValidationError(f"{len(labels)} labels for {n} threads")
        return tuple(labels)

    def __repr__(self) -> str:
        return f"<{type(self).__name__}>"


class CompactPolicy(PlacementPolicy):
    """Fill PUs in logical order; wraps around when oversubscribed."""

    name = "compact"

    def place(
        self,
        topo: Topology,
        n_threads: int,
        matrix: Optional[CommMatrix] = None,
        labels: Optional[Sequence[str]] = None,
    ) -> Mapping:
        pus = topo.pus()
        pu_of = tuple(pus[t % len(pus)].os_index for t in range(n_threads))
        return Mapping(pu_of, self._labels(n_threads, labels), policy=self.name)


class ScatterPolicy(PlacementPolicy):
    """Maximize spread using the hwloc-distrib style apportionment."""

    name = "scatter"

    def place(
        self,
        topo: Topology,
        n_threads: int,
        matrix: Optional[CommMatrix] = None,
        labels: Optional[Sequence[str]] = None,
    ) -> Mapping:
        chosen = distribute(topo, n_threads)
        pu_of = tuple(pu.os_index for pu in chosen)
        return Mapping(pu_of, self._labels(n_threads, labels), policy=self.name)


class RoundRobinPolicy(PlacementPolicy):
    """Thread *t* on PU ``t mod P`` by *os* index order."""

    name = "round-robin"

    def place(
        self,
        topo: Topology,
        n_threads: int,
        matrix: Optional[CommMatrix] = None,
        labels: Optional[Sequence[str]] = None,
    ) -> Mapping:
        os_indices = sorted(pu.os_index for pu in topo.pus())
        pu_of = tuple(os_indices[t % len(os_indices)] for t in range(n_threads))
        return Mapping(pu_of, self._labels(n_threads, labels), policy=self.name)


class RandomPolicy(PlacementPolicy):
    """Uniform random placement (with replacement), seeded."""

    name = "random"

    def __init__(self, seed: SeedLike = None) -> None:
        self._rng = make_rng(seed)

    def place(
        self,
        topo: Topology,
        n_threads: int,
        matrix: Optional[CommMatrix] = None,
        labels: Optional[Sequence[str]] = None,
    ) -> Mapping:
        os_indices = [pu.os_index for pu in topo.pus()]
        picks = self._rng.integers(0, len(os_indices), size=n_threads)
        pu_of = tuple(os_indices[int(k)] for k in picks)
        return Mapping(pu_of, self._labels(n_threads, labels), policy=self.name)


class NoBindPolicy(PlacementPolicy):
    """No binding: every thread is left to the OS scheduler (PU = -1).

    This is the paper's "ORWL NoBind" configuration; in the simulator
    the :mod:`repro.simulate.scheduler` model decides actual placement
    and migrations.
    """

    name = "nobind"

    def place(
        self,
        topo: Topology,
        n_threads: int,
        matrix: Optional[CommMatrix] = None,
        labels: Optional[Sequence[str]] = None,
    ) -> Mapping:
        return Mapping.prechecked(
            (-1,) * n_threads, self._labels(n_threads, labels), self.name
        )


class TreeMatchPolicy(PlacementPolicy):
    """The paper's topology-aware policy (Algorithm 1).

    Parameters mirror :func:`repro.treematch.tree_match`; *n_control*
    and the pairing are typically supplied by the ORWL runtime glue in
    :mod:`repro.placement.binder`.
    """

    name = "treematch"

    def __init__(
        self,
        n_control: int = 0,
        control_pairing: Optional[Sequence[int]] = None,
        strategy: str = "auto",
        refine: bool = True,
    ) -> None:
        self.n_control = n_control
        self.control_pairing = control_pairing
        self.strategy = strategy
        self.refine = refine
        self.last_result: Optional[TreeMatchResult] = None

    def place(
        self,
        topo: Topology,
        n_threads: int,
        matrix: Optional[CommMatrix] = None,
        labels: Optional[Sequence[str]] = None,
    ) -> Mapping:
        if matrix is None:
            raise ValidationError("TreeMatchPolicy requires a communication matrix")
        if matrix.order != n_threads:
            raise ValidationError(
                f"matrix order {matrix.order} != n_threads {n_threads}"
            )
        # The memoized front end of tree_match: placement is seed-free,
        # so replicated sweeps derive each mapping once (see
        # repro.exec.cache).
        result = cached_tree_match(
            topo,
            matrix,
            n_control=self.n_control,
            control_pairing=self.control_pairing,
            strategy=self.strategy,
            refine=self.refine,
        )
        self.last_result = result
        mapping = result.mapping.restricted(n_threads)
        return Mapping.prechecked(
            mapping.pu_of, self._labels(n_threads, labels), self.name
        )


class ServicePolicy(PlacementPolicy):
    """Placement through a long-lived :class:`~repro.placement.service.PlacementService`.

    Functionally TreeMatch, but every ``place`` call goes through the
    service's decision memo and honors its fault state: PUs the service
    has marked failed or drained are never used, and repairs are
    incremental (survivor bindings stay put).  One service instance is
    kept per topology fingerprint, so experiments that sweep multiple
    machines through a single policy object work unchanged.

    The underlying services are exposed via :meth:`service_for` so a
    harness can inject faults (``policy.service_for(topo).fail(4)``)
    between placement calls.
    """

    name = "service"

    def __init__(self, strategy: str = "auto", refine: bool = True) -> None:
        self.strategy = strategy
        self.refine = refine
        self._services: dict[str, PlacementService] = {}
        self.last_decision: Optional[Decision] = None

    def service_for(self, topo: Topology) -> "PlacementService":
        """The (lazily created) service bound to *topo*."""
        from repro.exec.cache import topology_fingerprint
        from repro.placement.service import PlacementService

        key = topology_fingerprint(topo)
        svc = self._services.get(key)
        if svc is None:
            svc = PlacementService(
                topo, strategy=self.strategy, refine=self.refine
            )
            self._services[key] = svc
        return svc

    def place(
        self,
        topo: Topology,
        n_threads: int,
        matrix: Optional[CommMatrix] = None,
        labels: Optional[Sequence[str]] = None,
    ) -> Mapping:
        if matrix is None:
            raise ValidationError("ServicePolicy requires a communication matrix")
        if matrix.order != n_threads:
            raise ValidationError(
                f"matrix order {matrix.order} != n_threads {n_threads}"
            )
        decision = self.service_for(topo).query_sync(matrix)
        self.last_decision = decision
        mapping = decision.mapping.restricted(n_threads)
        return Mapping.prechecked(
            mapping.pu_of, self._labels(n_threads, labels), self.name
        )


#: name → policy factory (zero-argument callables).
POLICY_REGISTRY: dict[str, type[PlacementPolicy]] = {
    CompactPolicy.name: CompactPolicy,
    ScatterPolicy.name: ScatterPolicy,
    RoundRobinPolicy.name: RoundRobinPolicy,
    RandomPolicy.name: RandomPolicy,
    NoBindPolicy.name: NoBindPolicy,
    TreeMatchPolicy.name: TreeMatchPolicy,
    ServicePolicy.name: ServicePolicy,
}


def make_policy(name: str, **kwargs) -> PlacementPolicy:
    """Instantiate a policy by registry name."""
    try:
        cls = POLICY_REGISTRY[name]
    except KeyError:
        raise ValidationError(
            f"unknown policy {name!r}; available: {', '.join(sorted(POLICY_REGISTRY))}"
        ) from None
    return cls(**kwargs)
