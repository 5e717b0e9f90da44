"""Communication matrices.

A :class:`CommMatrix` is the weighted matrix the paper's Section II
describes: entry ``(i, j)`` is the communication volume (bytes) between
thread *i* and thread *j*.  It is kept symmetric with a zero diagonal —
the convention TreeMatch operates on — and supports the operations the
mapping pipeline needs: permutation, aggregation into groups,
normalization, and file round-trip.
"""

from __future__ import annotations

from pathlib import Path
from typing import Iterable, Sequence, Union

import numpy as np

from repro.util.validate import (
    ValidationError,
    check_nonnegative,
    check_square_matrix,
    check_symmetric,
)


class CommMatrix:
    """A symmetric, zero-diagonal, non-negative communication matrix.

    Immutable: the constructor copies *data* into an array it marks
    read-only, and every transform returns a new matrix.  That is what
    lets :func:`repro.exec.cache.matrix_digest` hash a matrix once.

    Parameters
    ----------
    data:
        Square array-like of pairwise volumes.  It is symmetrized as
        ``(m + m.T)`` when *symmetrize* is true — the total traffic
        between a pair is what placement cares about, regardless of
        direction — otherwise it must already be symmetric.
    labels:
        Optional per-row labels (e.g. thread names); defaults to
        ``"t0".."tN-1"``.
    """

    def __init__(
        self,
        data: Union[np.ndarray, Sequence[Sequence[float]]],
        labels: Sequence[str] | None = None,
        symmetrize: bool = False,
    ) -> None:
        m = check_square_matrix(data, "communication matrix")
        check_nonnegative(m, "communication matrix")
        if symmetrize:
            m = m + m.T
        else:
            check_symmetric(m, "communication matrix")
            m = m.copy()
        np.fill_diagonal(m, 0.0)
        m.flags.writeable = False
        self._m = m
        self._digest: str | None = None  # set by cache.matrix_digest
        self._hash: int | None = None  # set by __hash__
        n = m.shape[0]
        if labels is None:
            self._labels = tuple(f"t{i}" for i in range(n))
        else:
            if len(labels) != n:
                raise ValidationError(
                    f"got {len(labels)} labels for a matrix of order {n}"
                )
            self._labels = tuple(str(x) for x in labels)

    # -- constructors -------------------------------------------------------

    @classmethod
    def zeros(cls, order: int, labels: Sequence[str] | None = None) -> "CommMatrix":
        """The empty matrix of the given order."""
        if order < 0:
            raise ValidationError(f"order must be >= 0, got {order}")
        return cls(np.zeros((order, order)), labels=labels)

    @classmethod
    def from_edges(
        cls,
        order: int,
        edges: Iterable[tuple[int, int, float]],
        labels: Sequence[str] | None = None,
    ) -> "CommMatrix":
        """Build from ``(i, j, volume)`` triples (accumulated, symmetrized)."""
        m = np.zeros((order, order))
        for i, j, vol in edges:
            if not (0 <= i < order and 0 <= j < order):
                raise ValidationError(f"edge ({i}, {j}) out of range for order {order}")
            if vol < 0:
                raise ValidationError(f"negative volume {vol} on edge ({i}, {j})")
            if i == j:
                continue
            m[i, j] += vol
            m[j, i] += vol
        return cls(m, labels=labels)

    # -- accessors ----------------------------------------------------------

    @property
    def order(self) -> int:
        """Number of communicating entities (matrix dimension)."""
        return self._m.shape[0]

    @property
    def labels(self) -> tuple[str, ...]:
        return self._labels

    @property
    def values(self) -> np.ndarray:
        """Read-only view of the underlying matrix."""
        return self._m.view()

    def volume(self, i: int, j: int) -> float:
        """Pairwise volume between entities *i* and *j*."""
        return float(self._m[i, j])

    def total_volume(self) -> float:
        """Sum of all pairwise volumes (each pair counted once)."""
        return float(self._m.sum() / 2.0)

    def row_volume(self, i: int) -> float:
        """Total traffic of entity *i* with everyone else."""
        return float(self._m[i].sum())

    def density(self) -> float:
        """Fraction of nonzero off-diagonal pairs."""
        n = self.order
        if n < 2:
            return 0.0
        nonzero = int(np.count_nonzero(self._m)) / 2
        return nonzero / (n * (n - 1) / 2)

    def neighbors(self, i: int) -> list[int]:
        """Indices with nonzero traffic to *i*, sorted by decreasing volume."""
        row = self._m[i]
        idx = np.nonzero(row)[0]
        return sorted((int(j) for j in idx), key=lambda j: (-row[j], j))

    # -- transforms ----------------------------------------------------------

    def normalized(self) -> "CommMatrix":
        """Scale so the max entry is 1 (the zero matrix stays zero)."""
        peak = float(self._m.max()) if self._m.size else 0.0
        if peak == 0.0:
            return CommMatrix(self._m, labels=self._labels)
        return CommMatrix(self._m / peak, labels=self._labels)

    def permuted(self, perm: Sequence[int]) -> "CommMatrix":
        """Reorder entities: new index k holds old entity ``perm[k]``."""
        p = np.asarray(perm, dtype=np.intp)
        if sorted(p.tolist()) != list(range(self.order)):
            raise ValidationError(f"perm must be a permutation of 0..{self.order - 1}")
        m = self._m[np.ix_(p, p)]
        labels = tuple(self._labels[i] for i in p)
        return CommMatrix(m, labels=labels)

    def extended(self, extra: int, labels: Sequence[str] | None = None) -> "CommMatrix":
        """Append *extra* all-zero rows/columns (for control threads)."""
        if extra < 0:
            raise ValidationError(f"extra must be >= 0, got {extra}")
        n = self.order
        m = np.zeros((n + extra, n + extra))
        m[:n, :n] = self._m
        new_labels = list(self._labels) + [
            (labels[k] if labels is not None else f"ctl{k}") for k in range(extra)
        ]
        return CommMatrix(m, labels=new_labels)

    def aggregated(self, groups: Sequence[Sequence[int]]) -> "CommMatrix":
        """Collapse entity groups into single entities.

        This is the paper's ``AggregateComMatrix``: entry (g, h) of the
        result is the sum of volumes between members of group *g* and
        members of group *h*.  Groups must partition ``0..order-1``.
        """
        seen: set[int] = set()
        for g in groups:
            for i in g:
                if i in seen:
                    raise ValidationError(f"entity {i} appears in two groups")
                seen.add(i)
        if seen != set(range(self.order)):
            missing = sorted(set(range(self.order)) - seen)
            raise ValidationError(f"groups must partition entities; missing {missing}")
        k = len(groups)
        # One indicator-matrix product instead of k² fancy-index sums.
        indicator = np.zeros((k, self.order))
        for gi, g in enumerate(groups):
            indicator[gi, list(g)] = 1.0
        out = indicator @ self._m @ indicator.T
        np.fill_diagonal(out, 0.0)
        labels = tuple("+".join(self._labels[i] for i in g) for g in groups)
        return CommMatrix(out, labels=labels)

    # -- IO -------------------------------------------------------------------

    def save(self, path: Union[str, Path]) -> None:
        """Write in the TreeMatch text format: order, then the matrix rows."""
        lines = [str(self.order)]
        lines += [" ".join(f"{v:.17g}" for v in row) for row in self._m]
        lines.append("# labels: " + "\t".join(self._labels))
        Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")

    @classmethod
    def load(cls, path: Union[str, Path]) -> "CommMatrix":
        """Read the format produced by :meth:`save`."""
        text = Path(path).read_text(encoding="utf-8")
        lines = [ln for ln in text.splitlines() if ln.strip()]
        if not lines:
            raise ValidationError(f"empty matrix file {path}")
        order = int(lines[0])
        rows = []
        for ln in lines[1 : 1 + order]:
            rows.append([float(x) for x in ln.split()])
        labels = None
        for ln in lines[1 + order :]:
            if ln.startswith("# labels:"):
                labels = ln[len("# labels:") :].strip().split("\t")
        m = np.asarray(rows)
        if m.shape != (order, order):
            raise ValidationError(
                f"matrix file {path} declares order {order} but has shape {m.shape}"
            )
        return cls(m, labels=labels)

    # -- protocol ---------------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CommMatrix):
            return NotImplemented
        return self.order == other.order and np.array_equal(self._m, other._m)

    def __hash__(self) -> int:
        # Over the values only, like __eq__ (labels do not take part, so
        # matrix_digest is the wrong hash); + 0.0 maps -0.0 to 0.0, which
        # compare equal.  Computed once: the array is read-only.
        if self._hash is None:
            self._hash = hash((self._m.shape, (self._m + 0.0).tobytes()))
        return self._hash

    def __setstate__(self, state: dict) -> None:
        # numpy arrays unpickle writeable; re-freeze so the memoised
        # digest stays valid.  Python's hash of bytes is salted per
        # process, so a pickled hash is dropped.
        self.__dict__.update(state)
        self._m.flags.writeable = False
        self._hash = None

    def __repr__(self) -> str:
        return (
            f"<CommMatrix order={self.order} total={self.total_volume():.3g} "
            f"density={self.density():.2f}>"
        )
