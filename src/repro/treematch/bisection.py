"""Recursive-bisection grouping (Scotch-style alternative strategy).

Graph partitioners like Scotch build k-way partitions by recursive
edge-cut bisection.  This module implements that approach for the
``GroupProcesses`` step, as a comparison point for TreeMatch's native
greedy grouping (ablation: which grouping heuristic fills the tree
better?).

The bisection itself is Kernighan–Lin on the weighted affinity graph
(via networkx); odd group counts are handled by peeling one
greedy-packed group before recursing.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from repro.treematch.grouping import _validate, group_greedy
from repro.util.validate import ValidationError

if TYPE_CHECKING:
    import networkx as nx


def _to_graph(m: np.ndarray, nodes: list[int]) -> nx.Graph:
    # networkx costs ~180 ms of import; only this ablation needs it.
    import networkx as nx

    g = nx.Graph()
    g.add_nodes_from(nodes)
    for ai in range(len(nodes)):
        for bi in range(ai + 1, len(nodes)):
            w = m[nodes[ai], nodes[bi]]
            if w > 0:
                g.add_edge(nodes[ai], nodes[bi], weight=float(w))
    return g


def _bisect(m: np.ndarray, nodes: list[int], seed: int) -> tuple[list[int], list[int]]:
    """Split *nodes* into two equal halves minimizing the weighted cut."""
    if len(nodes) % 2 != 0:
        raise ValidationError("bisection needs an even node count")
    import networkx as nx

    graph = _to_graph(m, nodes)
    half_a, half_b = nx.algorithms.community.kernighan_lin_bisection(
        graph, weight="weight", seed=seed
    )
    a, b = sorted(half_a), sorted(half_b)
    if len(a) != len(b):  # pragma: no cover - KL keeps halves balanced
        raise ValidationError("unbalanced bisection")
    return a, b


def _peel_group(m: np.ndarray, nodes: list[int], size: int) -> list[int]:
    """Greedily peel one affinity-dense group of *size* from *nodes*."""
    sub = m[np.ix_(nodes, nodes)]
    groups = group_greedy(np.ascontiguousarray(sub), size)
    # group_greedy seeds with the heaviest entity: take its group.
    first = groups[0]
    return sorted(nodes[i] for i in first)


def group_bisection(m: np.ndarray, group_size: int, seed: int = 0) -> list[list[int]]:
    """Partition entities into fixed-size groups by recursive bisection.

    Same contract as :func:`repro.treematch.grouping.group_processes`:
    the matrix order must be a multiple of *group_size*; returns the
    groups in a deterministic order.
    """
    m = _validate(m, group_size)
    n = m.shape[0]
    if group_size == n:
        return [list(range(n))]
    if group_size == 1:
        return [[i] for i in range(n)]

    out: list[list[int]] = []

    def recurse(nodes: list[int]) -> None:
        k = len(nodes) // group_size
        if k == 1:
            out.append(sorted(nodes))
            return
        if k % 2 == 1:
            # Odd split: peel one group, recurse on the remainder.
            group = _peel_group(m, nodes, group_size)
            out.append(group)
            rest = [x for x in nodes if x not in set(group)]
            recurse(rest)
            return
        a, b = _bisect(m, nodes, seed)
        recurse(a)
        recurse(b)

    recurse(list(range(n)))
    # Deterministic group order (by smallest member).
    out.sort(key=lambda g: g[0])
    return out
