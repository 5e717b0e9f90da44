"""Construction and placement memos.

Both are per process and bit-identical to the uncached paths (a cached
object is byte-for-byte what the cold computation would produce;
``tests/test_exec.py`` pins this with determinism fingerprints).
Nothing is written to disk, so no entry can outlive the code that
filled it:

* **Placement memo** — :func:`cached_tree_match` memoizes TreeMatch
  results keyed by ``(topology fingerprint, sha-256 comm-matrix
  digest, algorithm params)``.  Placement is seed-independent, so an
  N-seed replicated sweep derives each mapping once instead of N times.
* **Construction LRU** — per-process memos of the static inputs a
  sweep point rebuilds, each LRU-bounded so a long sweep cannot grow
  worker memory without limit, each counted in :func:`cache_stats`:

  - :func:`cached_topology` (``topology_build``) — preset topologies;
  - :func:`cached_distance_model` (``model_build``) — the
    :class:`~repro.topology.distance.DistanceModel` over one, an O(P²)
    LCA sweep;
  - :func:`cached_task_graph` (``graph_build``) — frozen
    :class:`~repro.tasks.graph.TaskGraph` instances, keyed by what
    built them (:func:`repro.experiments.dag.build_workload`).  A graph
    depends on neither the placement policy nor the simulation seed,
    so every point of a sweep shares one, along with its memoised
    digest, communication matrix and compiled ORWL program;
  - :func:`cached_lk23_program` (``program_build``) — the LK23 ORWL
    :class:`~repro.orwl.program.Program` of one
    :class:`~repro.kernels.lk23_orwl.Lk23Config`.  A program runs any
    number of times (each :class:`~repro.orwl.runtime.Runtime` re-arms
    it), so the Bind and NoBind points of every seed share one.

  A sweep touching the same machine shape or DAG many times pays each
  build once per process; forked pool workers inherit what the parent
  built, spawned ones build their own.
"""

from __future__ import annotations

import hashlib
import json
from collections import OrderedDict
from typing import TYPE_CHECKING, Any, Callable, Optional, Sequence, Union

import numpy as np

from repro.topology import presets
from repro.topology.distance import (
    CLUSTER_LEVEL_COSTS,
    DEFAULT_LEVEL_COSTS,
    DistanceModel,
)
from repro.topology.serialize import to_dict as _topology_to_dict
from repro.topology.tree import Topology
from repro.util.validate import ValidationError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.comm.matrix import CommMatrix
    from repro.kernels.lk23_orwl import Lk23Config
    from repro.orwl.program import Program
    from repro.tasks.graph import TaskGraph
    from repro.topology.cpuset import CpuSet
    from repro.treematch.algorithm import TreeMatchResult

#: LRU capacity of the per-process topology / distance-model caches.
TOPOLOGY_CACHE_CAP = 32

#: LRU capacity of the per-process task-graph cache.  A resident graph
#: may carry its dense task×task matrix (766 tasks ≈ 4.7 MB) and its
#: compiled program, hence a smaller cap than the topologies'.
GRAPH_CACHE_CAP = 16

#: LRU capacity of the per-process LK23 program cache: one Figure-1
#: sweep at one size and iteration count builds one program per core
#: count (six by default).
PROGRAM_CACHE_CAP = 8

#: LRU capacity of the in-process placement memo.
PLACEMENT_CACHE_CAP = 256

#: Named cost tables selectable by :func:`cached_distance_model`.
COST_TABLES = {
    "default": DEFAULT_LEVEL_COSTS,
    "cluster": CLUSTER_LEVEL_COSTS,
}


# ---------------------------------------------------------------------------
# Hit/miss counters
# ---------------------------------------------------------------------------

_STATS: dict[str, int] = {}


def _bump(key: str, n: int = 1) -> None:
    _STATS[key] = _STATS.get(key, 0) + n


def cache_stats() -> dict[str, int]:
    """Snapshot of this process's cumulative cache counters."""
    return dict(_STATS)


def bump_stat(key: str, n: int = 1) -> None:
    """Increment a named counter in this process's cache statistics.

    Public so that layers built on the cache (the placement service's
    single-flight and phase-detection counters) report through the same
    :func:`cache_stats` snapshot the tests and benchmarks already read.
    """
    _bump(key, n)


def stats_delta(
    before: dict[str, int], after: Optional[dict[str, int]] = None
) -> dict[str, int]:
    """Counter increments between two snapshots (zero entries dropped).

    *after* defaults to this process's counters now, so a caller can
    snapshot :func:`cache_stats` before some work and read what that
    work did.
    """
    if after is None:
        after = cache_stats()
    out = {}
    for key, value in after.items():
        d = value - before.get(key, 0)
        if d:
            out[key] = d
    return out


def reset_cache_stats() -> None:
    """Zero the counters (tests and benchmarks)."""
    _STATS.clear()


# ---------------------------------------------------------------------------
# Bounded in-process caches
# ---------------------------------------------------------------------------


class _LRUDict(OrderedDict):
    """A dict evicting its least-recently-used entry past *cap* items."""

    def __init__(self, cap: int) -> None:
        super().__init__()
        if cap <= 0:
            raise ValidationError(f"LRU cap must be > 0, got {cap}")
        self.cap = int(cap)

    def get(self, key: Any, default: Any = None) -> Any:
        try:
            value = super().__getitem__(key)
        except KeyError:
            return default
        self.move_to_end(key)
        return value

    def put(self, key: Any, value: Any) -> None:
        super().__setitem__(key, value)
        self.move_to_end(key)
        while len(self) > self.cap:
            self.popitem(last=False)


_TOPOLOGIES: _LRUDict = _LRUDict(TOPOLOGY_CACHE_CAP)
_MODELS: _LRUDict = _LRUDict(TOPOLOGY_CACHE_CAP)
_GRAPHS: _LRUDict = _LRUDict(GRAPH_CACHE_CAP)
_PROGRAMS: _LRUDict = _LRUDict(PROGRAM_CACHE_CAP)
_PLACEMENTS: _LRUDict = _LRUDict(PLACEMENT_CACHE_CAP)


def cached_topology(preset: str, *args: int) -> Topology:
    """Build (or fetch) the preset topology ``presets.PRESETS[preset](*args)``.

    The cache key is ``(preset, args)``; the returned object is shared,
    so treat it as read-only (everything in the repo already does).
    """
    try:
        factory = presets.PRESETS[preset]
    except KeyError:
        raise ValidationError(
            f"unknown preset {preset!r}; available: {', '.join(sorted(presets.PRESETS))}"
        ) from None
    key = (preset, args)
    topo = _TOPOLOGIES.get(key)
    if topo is None:
        topo = factory(*args)
        _TOPOLOGIES.put(key, topo)
        _bump("topology_build")
    return topo


def cached_distance_model(
    preset: str, *args: int, costs: str = "default"
) -> DistanceModel:
    """A shared :class:`DistanceModel` over :func:`cached_topology`.

    *costs* selects a table from :data:`COST_TABLES` (``"default"`` or
    ``"cluster"``).  Every process builds its own model on first use
    (pool workers included) and keeps it in the LRU; a build is cheap
    next to a single sweep point.
    """
    try:
        table = COST_TABLES[costs]
    except KeyError:
        raise ValidationError(
            f"unknown cost table {costs!r}; one of {tuple(COST_TABLES)}"
        ) from None
    key = (preset, args, costs)
    model = _MODELS.get(key)
    if model is None:
        model = DistanceModel(
            cached_topology(preset, *args), level_costs=dict(table)
        )
        _bump("model_build")
        _MODELS.put(key, model)
    return model


def machine_inputs(
    preset: str, *args: int, costs: str = "default"
) -> tuple[Topology, DistanceModel]:
    """The ``(topology, distance_model)`` pair a :class:`Machine` needs.

    The single call sites use: ``Machine(topo, distance_model=model, ...)``.
    """
    model = cached_distance_model(preset, *args, costs=costs)
    return model.topo, model


def cached_task_graph(
    key: tuple, build: Callable[[], "TaskGraph"]
) -> "TaskGraph":
    """Fetch the graph cached under *key*, or ``build()`` and freeze it.

    *key* must name everything *build* depends on.  The returned graph
    is shared and frozen (:meth:`~repro.tasks.graph.TaskGraph.freeze`),
    so any attempt to extend it raises instead of corrupting the other
    holders.
    """
    graph = _GRAPHS.get(key)
    if graph is None:
        graph = build().freeze()
        _GRAPHS.put(key, graph)
        _bump("graph_build")
    return graph


def cached_lk23_program(cfg: "Lk23Config") -> "Program":
    """Fetch the LK23 ORWL program of *cfg*, or build it
    (:func:`repro.kernels.lk23_orwl.build_program`, default declaration
    order).

    The returned program is shared: run it (each runtime re-arms it),
    but do not declare anything more on it.
    """
    program = _PROGRAMS.get(cfg)
    if program is None:
        from repro.kernels.lk23_orwl import build_program

        program = build_program(cfg)
        _PROGRAMS.put(cfg, program)
        _bump("program_build")
    return program


def clear_cache() -> int:
    """Drop all in-process cached objects; returns how many were dropped."""
    caches = (_TOPOLOGIES, _MODELS, _GRAPHS, _PROGRAMS, _PLACEMENTS)
    n = sum(len(c) for c in caches)
    for c in caches:
        c.clear()
    return n


# ---------------------------------------------------------------------------
# Fingerprints and digests
# ---------------------------------------------------------------------------


def topology_fingerprint(topo: Topology) -> str:
    """Content sha-256 of a topology (via its canonical serialized form).

    Cached on the instance: computing it walks the whole tree once, and
    the placement memo consults it per ``tree_match`` call.
    """
    cached = getattr(topo, "_cache_fingerprint", None)
    if cached is not None:
        return cached
    payload = json.dumps(
        _topology_to_dict(topo), sort_keys=True, separators=(",", ":")
    )
    fp = hashlib.sha256(payload.encode("utf-8")).hexdigest()
    topo._cache_fingerprint = fp
    return fp


def matrix_digest(matrix: Union["CommMatrix", np.ndarray]) -> str:
    """Content sha-256 of a communication matrix (values, shape, labels).

    Flipping any single cell flips the digest, so a memoized placement
    can never be served for a different communication pattern.  A
    :class:`~repro.comm.matrix.CommMatrix` is immutable, so its digest
    is computed once and kept on the instance; a raw array is mutable
    and is hashed afresh on every call.
    """
    if isinstance(matrix, np.ndarray):
        return _hash_matrix(matrix, ())
    if matrix._digest is None:
        matrix._digest = _hash_matrix(matrix.values, matrix.labels)
    return matrix._digest


def _hash_matrix(values: np.ndarray, labels: Sequence[str]) -> str:
    """The one digest formula: ``repr(shape)``, the float64 C-order
    bytes (through the buffer protocol, no ``tobytes()`` copy), then
    0x1f and the UTF-8 bytes of each label."""
    values = np.ascontiguousarray(values, dtype=np.float64)
    h = hashlib.sha256()
    h.update(repr(values.shape).encode("utf-8"))
    h.update(values)
    h.update(b"".join(b"\x1f" + label.encode("utf-8") for label in labels))
    return h.hexdigest()


def placement_key(topo: Topology, matrix: "CommMatrix", **params: Any) -> str:
    """The placement memo key: topology ⊕ matrix ⊕ algorithm params."""
    h = hashlib.sha256()
    h.update(topology_fingerprint(topo).encode("utf-8"))
    h.update(matrix_digest(matrix).encode("utf-8"))
    h.update(repr(sorted(params.items())).encode("utf-8"))
    return h.hexdigest()


# ---------------------------------------------------------------------------
# The placement memo
# ---------------------------------------------------------------------------


def cached_tree_match(
    topo: Topology,
    matrix: "CommMatrix",
    n_control: int = 0,
    control_pairing: Optional[Sequence[int]] = None,
    control_volume: Optional[float] = None,
    strategy: str = "auto",
    refine: bool = True,
    allowed: Optional["CpuSet"] = None,
    failed: Optional[Sequence[int]] = None,
) -> "TreeMatchResult":
    """Memoized :func:`repro.treematch.tree_match`.

    Placement depends only on the topology, the communication matrix,
    and the algorithm parameters — never on the simulation seed — so a
    replicated sweep asks for the same mapping once per seed.  Hits are
    served from an in-process LRU; misses run the algorithm and fill it.

    *failed* marks dead PU os indices: the mapping is computed by
    :func:`repro.treematch.remap.remap_full` on the surviving PUs, and
    — critically — the failed set is part of the memo key, so a
    post-failure query can never be answered with a pre-failure cached
    mapping (and vice versa).  Control-thread extension and ``allowed``
    are not composable with ``failed``.
    """
    from repro.treematch.algorithm import TreeMatchResult, tree_match

    failed_t = tuple(sorted({int(p) for p in failed})) if failed else ()
    if failed_t and (n_control or allowed is not None):
        raise ValidationError(
            "cached_tree_match: failed= cannot be combined with "
            "control threads or an allowed cpuset"
        )

    key = placement_key(
        topo,
        matrix,
        n_control=int(n_control),
        control_pairing=(
            None if control_pairing is None else tuple(control_pairing)
        ),
        control_volume=control_volume,
        strategy=str(strategy),
        refine=bool(refine),
        allowed=None if allowed is None else repr(allowed),
        failed=failed_t,
    )
    result = _PLACEMENTS.get(key)
    if result is not None:
        _bump("placement_hit")
        return result
    _bump("placement_miss")
    if failed_t:
        from repro.treematch.remap import remap_full

        remapped = remap_full(
            topo, matrix, failed=failed_t, strategy=strategy, refine=refine
        )
        result = TreeMatchResult(mapping=remapped.mapping)
    else:
        result = tree_match(
            topo,
            matrix,
            n_control=n_control,
            control_pairing=control_pairing,
            control_volume=control_volume,
            strategy=strategy,
            refine=refine,
            allowed=allowed,
        )
    _PLACEMENTS.put(key, result)
    return result
