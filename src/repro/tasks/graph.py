"""The DAG task-graph frontend: ``TaskSpace`` / ``spawn`` over data regions.

The paper evaluates placement only on iterative barrier-free stencils —
every ORWL program in this repo so far has the same shape: a fixed set
of operations looping over ``orwl_next`` rounds.  This module opens the
*other* family of task-based programs, the Parla / OpenMP-task style
dependency graph: a program is a sequence of ``spawn`` calls, each
declaring the data **regions** it reads and writes plus any explicit
control dependencies, and the frontend derives the DAG:

* **read-after-write**: a task reading region ``R`` depends on the most
  recent spawned writer of ``R`` and receives ``R.nbytes`` from it (the
  true dataflow edge — this is what feeds the placement pipeline with a
  real communication matrix);
* **write-after-write**: successive writers of the same region are
  serialized with a zero-byte synchronization edge (each write creates a
  fresh *version* of the region — renaming semantics, so no
  write-after-read edges are needed: a reader pulls its version's
  payload and is thereafter independent of later writers);
* **explicit** ``deps=[...]`` add zero-byte control edges.

Spawn order is program order: a dependency may only name an
already-spawned task, so every :class:`TaskGraph` is acyclic *by
construction* and spawn order is a topological order — the property the
deadlock-freedom tests lean on.

The graph is a pure description.  :mod:`repro.tasks.compile` lowers it
onto ORWL locations/operations and :mod:`repro.tasks.run` executes the
result on the simulator; :meth:`TaskGraph.digest` content-addresses the
structure so cached placements and sweep points are keyed by the DAG
they were computed for.  :meth:`TaskGraph.freeze` ends construction:
a frozen graph rejects further ``spawn`` / ``region`` calls, so it can
be shared (:func:`repro.experiments.dag.build_workload` hands out one
frozen graph per key), and its digest, matrix and compiled program are
each computed once.
"""

from __future__ import annotations

import hashlib
import struct
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Optional, Sequence, Union

from repro.util.validate import ValidationError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.comm.matrix import CommMatrix
    from repro.orwl.program import Program

_DOUBLE = struct.Struct("<d")
_INT64 = struct.Struct("<q")


@dataclass(frozen=True)
class Region:
    """A named data block tasks read and write.

    ``nbytes`` is the payload a reader pulls from the region's writer —
    the volume the placement pipeline optimizes.  Regions are declared
    once on the graph; versioning (one version per write) is handled by
    the dependency inference, not by the caller.
    """

    name: str
    nbytes: float

    def __post_init__(self) -> None:
        if not self.name:
            raise ValidationError("region needs a non-empty name")
        if self.nbytes < 0:
            raise ValidationError(f"region nbytes must be >= 0, got {self.nbytes}")


@dataclass(frozen=True)
class TaskRef:
    """A task identity inside a :class:`TaskSpace` (``space[i, j]``)."""

    space: str
    index: tuple[int, ...]

    @property
    def name(self) -> str:
        if not self.index:
            return self.space
        return f"{self.space}[{','.join(str(i) for i in self.index)}]"

    def __str__(self) -> str:
        return self.name


class TaskSpace:
    """A Parla-style indexable namespace of task identities.

    ``space[k]`` / ``space[i, j]`` return :class:`TaskRef` handles that
    can be spawned once and referenced as dependencies afterwards::

        T = graph.space("T")
        graph.spawn(T[0], flops=1e6, writes=[a])
        graph.spawn(T[1], flops=1e6, reads=[a], deps=[T[0]])
    """

    def __init__(self, graph: "TaskGraph", name: str) -> None:
        if not name:
            raise ValidationError("task space needs a non-empty name")
        self.graph = graph
        self.name = name

    def __getitem__(self, index: Union[int, tuple[int, ...]]) -> TaskRef:
        idx = index if isinstance(index, tuple) else (index,)
        if not all(isinstance(i, int) for i in idx):
            raise ValidationError(
                f"task space {self.name!r} indices must be ints, got {index!r}"
            )
        return TaskRef(self.name, tuple(int(i) for i in idx))

    def __call__(self) -> TaskRef:
        """The space's unindexed singleton task (``space()``)."""
        return TaskRef(self.name, ())

    def __repr__(self) -> str:
        return f"<TaskSpace {self.name!r}>"


#: Anything that names a task: a ref, a spawned node, or a plain name.
TaskLike = Union[TaskRef, "TaskNode", str]


@dataclass(frozen=True)
class TaskNode:
    """One spawned task (immutable once spawned).

    ``deps`` are spawn indices of *all* predecessors — data-inferred and
    explicit alike; ``reads_payload`` maps each data predecessor to the
    bytes flowing along that edge (explicit/serialization-only
    predecessors are absent from it).
    """

    index: int
    name: str
    flops: float
    seconds: float
    reads: tuple[Region, ...]
    writes: tuple[Region, ...]
    deps: tuple[int, ...]
    reads_payload: tuple[tuple[int, float], ...]
    #: bytes streamed from the task's first-touch NUMA home before the
    #: compute burst (models the task's private working set).
    stream_bytes: float = 0.0

    @property
    def cost_flops(self) -> float:
        """The task's weight on the critical path (flops; seconds-priced
        tasks contribute zero flops and are tracked separately)."""
        return self.flops


class TaskGraph:
    """A dependency graph of spawned tasks over shared data regions.

    The builder API (``region`` / ``space`` / ``spawn``) is the whole
    frontend; everything else is introspection consumed by the compiler,
    the placement pipeline, and the tests.  After :meth:`freeze` the
    builder calls raise and :meth:`digest` is memoised.
    """

    def __init__(self, name: str) -> None:
        if not name:
            raise ValidationError("task graph needs a non-empty name")
        self.name = name
        self.regions: dict[str, Region] = {}
        self._tasks: list[TaskNode] = []
        self._index_of: dict[str, int] = {}
        #: region name -> spawn index of its most recent writer.
        self._last_writer: dict[str, int] = {}
        #: (producer, consumer) -> payload bytes (0.0 = pure sync edge).
        self._edges: dict[tuple[int, int], float] = {}
        self._frozen = False
        #: memoised digest (frozen graphs only).
        self._digest: Optional[str] = None
        #: memoised :func:`repro.tasks.compile.dag_matrix` (frozen only).
        self._matrix: Optional["CommMatrix"] = None
        #: memoised :func:`repro.tasks.compile.compile_graph` without
        #: recorded times (frozen only; a program runs any number of times).
        self._program: Optional["Program"] = None

    # -- declaration --------------------------------------------------------

    def freeze(self) -> "TaskGraph":
        """End construction; returns the graph itself.

        A frozen graph raises :class:`ValidationError` on ``spawn`` and
        ``region``, which is what makes it safe to share and to memoise
        its :meth:`digest`, :func:`repro.tasks.compile.dag_matrix` and
        :func:`repro.tasks.compile.compile_graph`.
        Freezing is one-way and idempotent.
        """
        self._frozen = True
        return self

    @property
    def frozen(self) -> bool:
        return self._frozen

    def _check_mutable(self) -> None:
        if self._frozen:
            raise ValidationError(
                f"graph {self.name!r} is frozen; build a new TaskGraph to "
                "change it"
            )

    def region(self, name: str, nbytes: float) -> Region:
        """Declare a data region; names are unique graph-wide."""
        self._check_mutable()
        if name in self.regions:
            raise ValidationError(f"duplicate region {name!r}")
        region = Region(name, float(nbytes))
        self.regions[name] = region
        return region

    def space(self, name: str) -> TaskSpace:
        """A fresh :class:`TaskSpace` bound to this graph."""
        return TaskSpace(self, name)

    def _resolve(self, task: TaskLike) -> int:
        name = task if isinstance(task, str) else task.name
        try:
            return self._index_of[name]
        except KeyError:
            raise ValidationError(
                f"dependency {name!r} has not been spawned yet; dependencies "
                "must reference already-spawned tasks (spawn order is the "
                "program order, which keeps every graph acyclic)"
            ) from None

    def spawn(
        self,
        task: Union[TaskRef, str],
        *,
        flops: float = 0.0,
        seconds: float = 0.0,
        reads: Sequence[Region] = (),
        writes: Sequence[Region] = (),
        deps: Sequence[TaskLike] = (),
        stream_bytes: float = 0.0,
    ) -> TaskNode:
        """Spawn one task; returns its immutable :class:`TaskNode`.

        *flops* is priced at the executing PU's rate when the task runs;
        *seconds* is taken literally (give either, both, or neither —
        a zero-cost task is a pure synchronization point).  *reads* /
        *writes* drive the dependency inference described in the module
        docstring; *deps* add explicit zero-byte control edges.
        """
        self._check_mutable()
        name = task if isinstance(task, str) else task.name
        if not name:
            raise ValidationError("task needs a non-empty name")
        if name in self._index_of:
            raise ValidationError(f"task {name!r} already spawned")
        if flops < 0 or seconds < 0 or stream_bytes < 0:
            raise ValidationError(
                f"task {name!r}: flops/seconds/stream_bytes must be >= 0"
            )
        for region in tuple(reads) + tuple(writes):
            if self.regions.get(region.name) is not region:
                raise ValidationError(
                    f"task {name!r} uses region {region.name!r} not declared "
                    "on this graph"
                )
        index = len(self._tasks)

        dep_set: set[int] = set()
        payload: dict[int, float] = {}
        for region in reads:
            writer = self._last_writer.get(region.name)
            if writer is not None and writer != index:
                dep_set.add(writer)
                payload[writer] = payload.get(writer, 0.0) + region.nbytes
        for region in writes:
            prev = self._last_writer.get(region.name)
            if prev is not None and prev != index:
                dep_set.add(prev)  # WAW serialization (no payload)
        for dep in deps:
            dep_set.add(self._resolve(dep))

        node = TaskNode(
            index=index,
            name=name,
            flops=float(flops),
            seconds=float(seconds),
            reads=tuple(reads),
            writes=tuple(writes),
            deps=tuple(sorted(dep_set)),
            reads_payload=tuple(sorted(payload.items())),
            stream_bytes=float(stream_bytes),
        )
        self._tasks.append(node)
        self._index_of[name] = index
        for u in node.deps:
            key = (u, index)
            self._edges[key] = self._edges.get(key, 0.0) + payload.get(u, 0.0)
        for region in writes:
            self._last_writer[region.name] = index
        return node

    # -- introspection ------------------------------------------------------

    @property
    def n_tasks(self) -> int:
        return len(self._tasks)

    @property
    def n_edges(self) -> int:
        return len(self._edges)

    def tasks(self) -> list[TaskNode]:
        """All tasks in spawn (= topological) order."""
        return list(self._tasks)

    def task(self, name: str) -> TaskNode:
        return self._tasks[self._resolve(name)]

    def edges(self) -> list[tuple[int, int, float]]:
        """``(producer, consumer, payload bytes)`` triples, sorted."""
        return [(u, v, b) for (u, v), b in sorted(self._edges.items())]

    def successors(self, index: int) -> list[int]:
        return sorted(v for (u, v) in self._edges if u == index)

    def sources(self) -> list[int]:
        """Tasks with no predecessors (ready at t=0)."""
        return [t.index for t in self._tasks if not t.deps]

    def sinks(self) -> list[int]:
        """Tasks no other task depends on."""
        have_succ = {u for (u, _v) in self._edges}
        return [t.index for t in self._tasks if t.index not in have_succ]

    def validate(self) -> None:
        """Static sanity checks (cheap; acyclicity holds by construction)."""
        if not self._tasks:
            raise ValidationError(f"graph {self.name!r} has no tasks")
        for u, v in self._edges:
            if not u < v:
                raise ValidationError(
                    f"graph {self.name!r}: edge {u}->{v} violates spawn order"
                )

    # -- analysis -----------------------------------------------------------

    def critical_path(self) -> tuple[float, list[str]]:
        """(flops along the heaviest dependency chain, its task names).

        The DAG-intrinsic lower bound on parallel execution: no
        placement can beat the span.  Seconds-priced tasks contribute no
        flops (mixed-cost graphs should compare spans in one unit).
        """
        dist: list[float] = [0.0] * len(self._tasks)
        prev: list[int] = [-1] * len(self._tasks)
        for node in self._tasks:  # spawn order is topological
            base = 0.0
            for u in node.deps:
                if dist[u] > base:
                    base = dist[u]
                    prev[node.index] = u
                elif dist[u] == base and prev[node.index] == -1:
                    prev[node.index] = u
            dist[node.index] = base + node.cost_flops
        if not dist:
            return 0.0, []
        end = max(range(len(dist)), key=lambda k: (dist[k], -k))
        path: list[str] = []
        k = end
        while k >= 0:
            path.append(self._tasks[k].name)
            k = prev[k]
        path.reverse()
        return dist[end], path

    def total_flops(self) -> float:
        return sum(t.flops for t in self._tasks)

    def total_payload_bytes(self) -> float:
        """Sum of all dataflow edge payloads (the traffic placement sees)."""
        return sum(self._edges.values())

    def parallelism(self) -> float:
        """Average parallelism = total flops / critical-path flops."""
        span, _ = self.critical_path()
        return self.total_flops() / span if span > 0 else float(len(self._tasks))

    def levels(self) -> list[list[int]]:
        """Tasks grouped by dependency depth (level 0 = sources)."""
        depth: list[int] = [0] * len(self._tasks)
        for node in self._tasks:
            if node.deps:
                depth[node.index] = 1 + max(depth[u] for u in node.deps)
        out: list[list[int]] = [[] for _ in range(max(depth, default=-1) + 1)]
        for node in self._tasks:
            out[depth[node.index]].append(node.index)
        return out

    # -- content addressing -------------------------------------------------

    def digest(self) -> str:
        """Canonical sha-256 of the DAG structure (hex digest).

        Covers task names, costs, the full edge set with payloads, and
        region declarations — any structural change flips the digest.
        Floats are folded as IEEE-754 doubles, so the digest is exact,
        platform-independent, and insertion-order-independent (regions
        are hashed sorted; tasks and edges are already canonical —
        spawn order *is* part of the structure).  This is what keys DAG
        sweep points and pins golden schedules in the tests.  A frozen
        graph computes it once.
        """
        if self._digest is not None:
            return self._digest
        digest = self._hash_structure()
        if self._frozen:
            self._digest = digest
        return digest

    def _hash_structure(self) -> str:
        """The digest formula itself (never memoised)."""
        h = hashlib.sha256()

        def feed_str(s: str) -> None:
            b = s.encode("utf-8")
            h.update(_INT64.pack(len(b)))
            h.update(b)

        feed_str("repro-taskgraph-v1")
        feed_str(self.name)
        for rname in sorted(self.regions):
            feed_str(rname)
            h.update(_DOUBLE.pack(self.regions[rname].nbytes))
        for node in self._tasks:
            feed_str(node.name)
            h.update(_DOUBLE.pack(node.flops))
            h.update(_DOUBLE.pack(node.seconds))
            h.update(_DOUBLE.pack(node.stream_bytes))
            for u in node.deps:
                h.update(_INT64.pack(u))
        for u, v, b in self.edges():
            h.update(_INT64.pack(u))
            h.update(_INT64.pack(v))
            h.update(_DOUBLE.pack(b))
        return h.hexdigest()

    def __repr__(self) -> str:
        return (
            f"<TaskGraph {self.name!r}: {self.n_tasks} tasks, "
            f"{self.n_edges} edges, {len(self.regions)} regions>"
        )


def topological_check(order: Iterable[str], graph: TaskGraph) -> Optional[str]:
    """Return an error string if *order* violates the graph's edges.

    Test helper: given task names in (claimed) execution order, verify
    every task appears after all of its dependencies.  ``None`` = valid.
    """
    pos: dict[str, int] = {}
    for k, name in enumerate(order):
        if name in pos:
            return f"task {name!r} appears twice"
        pos[name] = k
    tasks = graph.tasks()
    for node in tasks:
        if node.name not in pos:
            return f"task {node.name!r} missing from the order"
        for u in node.deps:
            dep = tasks[u].name
            if pos[dep] > pos[node.name]:
                return f"{node.name!r} ran before its dependency {dep!r}"
    return None
