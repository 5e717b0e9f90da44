"""Mapping results: which thread runs on which PU.

A :class:`Mapping` is the output of every placement policy (TreeMatch or
a baseline): an array ``pu_of[t]`` giving the PU *os_index* assigned to
thread *t*, plus optional per-thread labels and, for control threads
under the hyperthread-reservation strategy, a parallel control map.

Oversubscribed mappings are legal: several threads may share a PU.  The
binder and the simulator both consume this object.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Sequence

from repro.topology.tree import Topology
from repro.util.validate import ValidationError


@dataclass
class Mapping:
    """An assignment of threads to PUs.

    Attributes
    ----------
    pu_of:
        ``pu_of[t]`` = PU os_index for thread *t*; ``-1`` means unbound
        (left to the OS scheduler).
    labels:
        Optional thread names, parallel to *pu_of*.
    policy:
        Name of the policy that produced the mapping (for reports).
    """

    pu_of: tuple[int, ...]
    labels: tuple[str, ...] = ()
    policy: str = ""

    def __post_init__(self) -> None:
        self.pu_of = tuple(int(p) for p in self.pu_of)
        if self.labels and len(self.labels) != len(self.pu_of):
            raise ValidationError(
                f"{len(self.labels)} labels for {len(self.pu_of)} threads"
            )
        if not self.labels:
            self.labels = tuple(f"t{i}" for i in range(len(self.pu_of)))
        for t, p in enumerate(self.pu_of):
            if p < -1:
                raise ValidationError(f"thread {t}: invalid PU {p}")

    @classmethod
    def prechecked(
        cls, pu_of: tuple[int, ...], labels: tuple[str, ...], policy: str = ""
    ) -> "Mapping":
        """A mapping of entries that need no checking, built without the
        constructor's per-entry pass: *pu_of* a tuple of Python ints
        ``>= -1`` (such as another mapping's entries) and one label per
        thread."""
        mapping = cls.__new__(cls)
        mapping.pu_of, mapping.labels, mapping.policy = pu_of, labels, policy
        return mapping

    # -- queries -------------------------------------------------------------

    @property
    def n_threads(self) -> int:
        return len(self.pu_of)

    def pu(self, thread: int) -> int:
        """PU os_index of *thread* (-1 if unbound)."""
        return self.pu_of[thread]

    def is_bound(self, thread: int) -> bool:
        return self.pu_of[thread] >= 0

    def bound_fraction(self) -> float:
        """Fraction of threads that received a PU."""
        if not self.pu_of:
            return 0.0
        return sum(1 for p in self.pu_of if p >= 0) / len(self.pu_of)

    def threads_on(self, pu_os_index: int) -> list[int]:
        """Threads assigned to a given PU."""
        return [t for t, p in enumerate(self.pu_of) if p == pu_os_index]

    def occupancy(self) -> Counter:
        """PU os_index -> number of threads mapped there."""
        return Counter(p for p in self.pu_of if p >= 0)

    def max_load(self) -> int:
        """Largest number of threads sharing one PU (0 if all unbound)."""
        occ = self.occupancy()
        return max(occ.values()) if occ else 0

    def validate_against(self, topo: Topology) -> None:
        """Check every bound PU exists in *topo*; raise otherwise."""
        valid = {pu.os_index for pu in topo.pus()}
        for t, p in enumerate(self.pu_of):
            if p >= 0 and p not in valid:
                raise ValidationError(f"thread {t} mapped to unknown PU {p}")

    # -- transforms ---------------------------------------------------------

    def restricted(self, n_threads: int) -> "Mapping":
        """Keep only the first *n_threads* entries (drop padding/control)."""
        if not 0 <= n_threads <= len(self.pu_of):
            raise ValidationError(
                f"cannot restrict mapping of {len(self.pu_of)} threads to {n_threads}"
            )
        return Mapping.prechecked(
            self.pu_of[:n_threads], self.labels[:n_threads], self.policy
        )

    # -- IO (rankfile-style) -------------------------------------------------

    def save(self, path) -> None:
        """Write as a rankfile: one ``label <tab> pu`` line per thread
        (``unbound`` for -1), with the policy in a header comment."""
        from pathlib import Path

        lines = [f"# repro-mapping policy={self.policy or 'unknown'}"]
        for t in range(self.n_threads):
            pu = self.pu_of[t]
            lines.append(f"{self.labels[t]}\t{pu if pu >= 0 else 'unbound'}")
        Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")

    @classmethod
    def load(cls, path) -> "Mapping":
        """Read a rankfile produced by :meth:`save`."""
        from pathlib import Path

        policy = ""
        labels: list[str] = []
        pus: list[int] = []
        for line in Path(path).read_text(encoding="utf-8").splitlines():
            line = line.strip()
            if not line:
                continue
            if line.startswith("#"):
                if "policy=" in line:
                    policy = line.split("policy=", 1)[1].strip()
                continue
            try:
                label, pu_s = line.rsplit("\t", 1)
            except ValueError:
                raise ValidationError(f"malformed rankfile line: {line!r}") from None
            labels.append(label)
            pus.append(-1 if pu_s == "unbound" else int(pu_s))
        return cls(tuple(pus), tuple(labels), policy=policy)

    def __repr__(self) -> str:
        return (
            f"<Mapping {self.policy or 'unnamed'}: {self.n_threads} threads, "
            f"{self.bound_fraction():.0%} bound, max_load={self.max_load()}>"
        )


def map_groups(
    group_hierarchy: Sequence[Sequence[Sequence[int]]],
    n_entities: int,
) -> list[int]:
    """``MapGroups``: turn the per-level group hierarchy into leaf slots.

    Parameters
    ----------
    group_hierarchy:
        ``group_hierarchy[k]`` is the list of groups formed at the k-th
        grouping step, deepest level first (the order Algorithm 1 builds
        them).  Groups at step 0 contain original entity ids; groups at
        step k > 0 contain indices of groups from step k-1.
    n_entities:
        Number of original (padded) entities.

    Returns
    -------
    ``slot_of[e]`` — the leaf slot (DFS order) of each original entity.
    """
    if not group_hierarchy:
        # No internal levels: entities map to slots identically.
        return list(range(n_entities))

    # Expand from the top: the groups of the last step, in order, occupy
    # the subtrees of the root left-to-right.
    def expand(step: int, group_index: int) -> list[int]:
        group = group_hierarchy[step][group_index]
        if step == 0:
            return list(group)
        out: list[int] = []
        for sub in group:
            out.extend(expand(step - 1, sub))
        return out

    top = len(group_hierarchy) - 1
    order: list[int] = []
    for gi in range(len(group_hierarchy[top])):
        order.extend(expand(top, gi))
    if sorted(order) != list(range(n_entities)):
        raise ValidationError(
            "group hierarchy does not enumerate every entity exactly once"
        )
    slot_of = [0] * n_entities
    for slot, entity in enumerate(order):
        slot_of[entity] = slot
    return slot_of
