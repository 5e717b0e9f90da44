"""Runtime communication tracing.

The paper's add-on "exploit[s] application information as it is gathered
from ORWL runtime to construct a weighted matrix that expresses the
communication volume between threads".  :class:`CommTracer` is that
collector: the ORWL runtime registers its entities once
(:meth:`register_all`) and calls :meth:`record_by_id` whenever one
thread reads data last written by another; :meth:`to_matrix` produces the
:class:`~repro.comm.matrix.CommMatrix` the mapping algorithm consumes.

Entities are registered by name so traces stay meaningful when thread
counts vary between runs.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Iterable, Optional

from repro.comm.matrix import CommMatrix
from repro.util.validate import ValidationError


class CommTracer:
    """Accumulates pairwise communication volumes between named entities."""

    def __init__(self) -> None:
        self._ids: dict[str, int] = {}
        self._names: list[str] = []
        self._volumes: dict[tuple[int, int], float] = defaultdict(float)
        self._events = 0

    # -- registration -----------------------------------------------------

    def register_all(self, names: Iterable[str]) -> list[int]:
        """Register several entities, preserving order; returns their ids."""
        ids, known = [], self._ids
        for name in names:
            idx = known.get(name)
            if idx is None:
                idx = known[name] = len(self._names)
                self._names.append(name)
            ids.append(idx)
        return ids

    @property
    def n_entities(self) -> int:
        return len(self._names)

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(self._names)

    @property
    def n_events(self) -> int:
        """Number of recorded communication events."""
        return self._events

    # -- recording -----------------------------------------------------------

    def record_by_id(self, src_id: int, dst_id: int, nbytes: float) -> None:
        """Record *nbytes* flowing between two registered entities.

        Self-communication is ignored (it never crosses the hierarchy),
        and so is a non-positive volume.
        """
        if src_id == dst_id or nbytes <= 0:
            return
        key = (src_id, dst_id) if src_id < dst_id else (dst_id, src_id)
        self._volumes[key] += nbytes
        self._events += 1

    # -- export --------------------------------------------------------------

    def volume_between(self, a: str, b: str) -> float:
        """Volume recorded between entities *a* and *b*, either way."""
        try:
            i, j = self._ids[a], self._ids[b]
        except KeyError as exc:
            raise ValidationError(f"unregistered entity {exc.args[0]!r}") from None
        key = (i, j) if i < j else (j, i)
        return self._volumes.get(key, 0.0)

    def to_matrix(self, order: Optional[int] = None) -> CommMatrix:
        """Materialize the trace as a :class:`CommMatrix`.

        *order* may be passed to force the matrix size (>= the number of
        registered entities), e.g. to include silent threads.
        """
        n = len(self._names)
        if order is None:
            order = n
        elif order < n:
            raise ValidationError(f"order {order} < {n} registered entities")
        labels = list(self._names) + [f"silent{k}" for k in range(order - n)]
        edges = [(i, j, vol) for (i, j), vol in self._volumes.items()]
        return CommMatrix.from_edges(order, edges, labels=labels)

    def __repr__(self) -> str:
        total = sum(self._volumes.values())
        return (
            f"<CommTracer {len(self._names)} entities, {self._events} events, "
            f"{total:.3g} bytes>"
        )
