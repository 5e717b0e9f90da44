"""Property-based tests for treematch mappings.

No hypothesis here on purpose: the generators are plain seeded
``numpy.random.default_rng`` draws, so every case is reproducible from
its printed seed and the suite adds no dependency.  Across ~200 random
(topology, matrix) pairs we assert the properties Algorithm 1 promises:

* the result is a valid assignment into the topology (every bound PU
  exists) and every entity is bound;
* when there are at least as many PUs as entities, the assignment is an
  injection — no two threads share a PU;
* when oversubscribed, the per-PU load never exceeds the balanced bound
  ``ceil(order / nb_pus)``;
* the mapping respects the tree arity: sibling leaves are filled before
  spilling to the next subtree, so occupancy per internal node is also
  within its balanced bound.
"""

import math
from collections import Counter

import numpy as np

from repro.comm.matrix import CommMatrix
from repro.topology.builder import from_spec
from repro.topology.objects import ObjType
from repro.treematch.algorithm import tree_match
from repro.treematch.mapping import Mapping

N_CASES = 200
MASTER_SEED = 20160913  # CLUSTER'16 conference date


def random_case(rng):
    """One random (topology, matrix) pair, small enough to be fast.

    Topology: 2-4 levels with arities in 1..4, capped at 16 PUs.
    Matrix: random symmetric order in 2..min(10, nb_pus + 4) — sometimes
    oversubscribed on purpose.
    """
    while True:
        depth = int(rng.integers(2, 5))
        arities = [int(rng.integers(1, 5)) for _ in range(depth)]
        nb_pus = math.prod(arities)
        if 2 <= nb_pus <= 16:
            break
    names = ["numa", "package", "l3", "core"][: depth - 1]
    terms = [f"{n}:{a}" for n, a in zip(names, arities[:-1])]
    terms.append(f"pu:{arities[-1]}")
    topo = from_spec(" ".join(terms))

    order = int(rng.integers(2, min(10, nb_pus + 4) + 1))
    m = rng.random((order, order)) * rng.choice([1.0, 1e3, 1e6])
    # Sprinkle zeros so sparse patterns are covered too.
    m[rng.random((order, order)) < 0.3] = 0.0
    matrix = CommMatrix(m, symmetrize=True)
    return topo, matrix


def cases():
    rng = np.random.default_rng(MASTER_SEED)
    for i in range(N_CASES):
        yield i, random_case(rng)


def subtree_pu_sets(topo):
    """os_index sets of the PUs under each internal object."""
    out = []
    for obj in topo:
        if obj.type is ObjType.PU:
            continue
        out.append({pu.os_index for pu in obj.pus()})
    return out


def test_tree_match_properties_hold_across_random_cases():
    checked = 0
    for i, (topo, matrix) in cases():
        result = tree_match(topo, matrix)
        mapping = result.mapping
        ctx = f"case {i}: {topo!r} order={matrix.order}"

        # Valid assignment, fully bound.
        mapping.validate_against(topo)
        assert mapping.n_threads == matrix.order, ctx
        assert mapping.bound_fraction() == 1.0, ctx

        occ = mapping.occupancy()
        cap = math.ceil(matrix.order / topo.nb_pus)
        if matrix.order <= topo.nb_pus:
            # Injection: no PU sharing when there is room.
            assert mapping.max_load() == 1, ctx
            assert len(set(mapping.pu_of)) == matrix.order, ctx
        else:
            # Oversubscription stays balanced.
            assert mapping.max_load() <= cap, ctx

        # Arity respected at every internal level: no subtree holds more
        # threads than its share of balanced leaf slots.
        for pu_set in subtree_pu_sets(topo):
            load = sum(occ.get(p, 0) for p in pu_set)
            assert load <= cap * len(pu_set), (
                f"{ctx}: subtree of {len(pu_set)} PUs holds {load} threads"
            )
        checked += 1
    assert checked == N_CASES


def test_tree_match_is_deterministic_per_case():
    rng = np.random.default_rng(MASTER_SEED + 1)
    for _ in range(10):
        topo, matrix = random_case(rng)
        a = tree_match(topo, matrix).mapping
        b = tree_match(topo, matrix).mapping
        assert a.pu_of == b.pu_of


def test_heavy_pair_lands_closer_than_random_on_average():
    """Directional sanity: over many random cases, the heaviest-talking
    pair should share a deeper ancestor at least as often as a random
    placement would achieve (i.e. TreeMatch is not anti-correlated with
    the matrix).  Checked in aggregate, not per case — individual cases
    may legitimately trade one pair for global cost.
    """
    rng = np.random.default_rng(MASTER_SEED + 2)
    wins = ties = losses = 0
    for _ in range(60):
        topo, matrix = random_case(rng)
        if matrix.order > topo.nb_pus or topo.nb_pus < 4:
            continue
        m = matrix.values
        i, j = np.unravel_index(np.argmax(m), m.shape)
        if m[i, j] == 0:
            continue
        mapping = tree_match(topo, matrix).mapping
        d_tm = depth_of_lca(topo, mapping.pu(int(i)), mapping.pu(int(j)))
        # Random baseline: expected LCA depth of two distinct PUs.
        rand_depths = []
        pus = [p.os_index for p in topo.pus()]
        for _ in range(16):
            a, b = rng.choice(pus, size=2, replace=False)
            rand_depths.append(depth_of_lca(topo, int(a), int(b)))
        base = float(np.mean(rand_depths))
        if d_tm > base:
            wins += 1
        elif d_tm == base:
            ties += 1
        else:
            losses += 1
    assert wins + ties >= losses, (wins, ties, losses)


def depth_of_lca(topo, pu_a: int, pu_b: int) -> int:
    return topo.common_ancestor_depth(pu_a, pu_b)


class TestMappingObject:
    """Properties of the Mapping value object itself, random-vector style."""

    def test_save_load_round_trip(self, tmp_path):
        rng = np.random.default_rng(7)
        for k in range(20):
            n = int(rng.integers(1, 12))
            pus = tuple(int(rng.integers(-1, 16)) for _ in range(n))
            mp = Mapping(pus, policy=f"p{k}")
            path = tmp_path / f"m{k}.rank"
            mp.save(path)
            back = Mapping.load(path)
            assert back.pu_of == mp.pu_of
            assert back.labels == mp.labels
            assert back.policy == mp.policy

    def test_occupancy_and_threads_on_agree(self):
        rng = np.random.default_rng(11)
        for _ in range(30):
            n = int(rng.integers(1, 20))
            mp = Mapping(tuple(int(rng.integers(-1, 6)) for _ in range(n)))
            occ = mp.occupancy()
            assert sum(occ.values()) == sum(1 for p in mp.pu_of if p >= 0)
            recount = Counter()
            for pu in set(mp.pu_of):
                if pu >= 0:
                    recount[pu] = len(mp.threads_on(pu))
            assert recount == occ

    def test_restricted_preserves_prefix(self):
        mp = Mapping((3, 1, 4, 1, 5), policy="x")
        sub = mp.restricted(3)
        assert sub.pu_of == (3, 1, 4)
        assert sub.labels == mp.labels[:3]
        assert sub.policy == "x"
