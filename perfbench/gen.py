"""Seeded request generation for the three workloads.

Every workload draws its inputs from one `random.Random` seeded with the
workload name and the seed, block by block.  A block holds a fixed mix of request kinds in shuffled order, so
every run sees the same shares however far its timed loop gets.  The
library is only consulted for fixed data (the vertex vectors of the
G(3,6) complex); trees, metrics, matrices and weights are built here
with the benchmark's own arithmetic.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import combinations


def random_trivalent_splits(n, rng):
    """A uniformly random trivalent tree on leaves 1..n, by leaf insertion.

    Each edge is held as the bitmask of the leaves on its side away from
    leaf 1 (bit j for leaf j).  Leaf k is attached to a uniformly chosen
    one of the 2k-5 edges of the tree on k-1 leaves, so each of the
    (2n-5)!! labelled trees is equally likely.  Returns the internal
    splits, each as the sorted tuple of leaves on the side without 1.
    """
    edges = [1 << 2, 1 << 3, (1 << 2) | (1 << 3)]
    for k in range(4, n + 1):
        bit = 1 << k
        C = edges.pop(rng.randrange(len(edges)))
        edges = [E | bit if E & C == C else E for E in edges]
        edges += [C, C | bit, bit]
    splits = []
    for E in edges:
        side = tuple(j for j in range(2, n + 1) if E >> j & 1)
        if 2 <= len(side) <= n - 2:
            splits.append(side)
    return sorted(splits)


def random_tree(n, rng):
    """Trivalent topology with positive rational internal lengths and
    nonnegative rational pendant lengths (leaf offsets)."""
    return {
        "n": n,
        "splits": random_trivalent_splits(n, rng),
        "lengths": [
            Fraction(rng.randint(1, 10), rng.randint(1, 4))
            for _ in range(n - 3)
        ],
        "offsets": [Fraction(rng.randint(0, 10), rng.randint(1, 3))
                    for _ in range(n)],
    }


def tree_distances(tree):
    """(i, j) -> path length, summed over the separating splits."""
    n = tree["n"]
    sides = [(frozenset(s), c) for s, c in zip(tree["splits"], tree["lengths"])]
    off = tree["offsets"]
    dist = {}
    for i, j in combinations(range(1, n + 1), 2):
        d = off[i - 1] + off[j - 1]
        for side, c in sides:
            if (i in side) != (j in side):
                d += c
        dist[(i, j)] = d
    return dist


def matrix_csv(n, dist):
    rows = []
    for i in range(1, n + 1):
        rows.append(",".join(
            "0" if i == j else str(dist[(min(i, j), max(i, j))])
            for j in range(1, n + 1)
        ))
    return "\n".join(rows) + "\n"


def tree_split_json(tree):
    """The tree in treespace's split-JSON wire format (n <= 9 only: the
    format writes each side as concatenated digits)."""
    n = tree["n"]
    splits = []
    for side, c in zip(tree["splits"], tree["lengths"]):
        a = [i for i in range(1, n + 1) if i not in side]
        splits.append({
            "split": "".join(map(str, a)) + "|" + "".join(map(str, side)),
            "length": str(c),
        })
    return {"n": n, "splits": splits,
            "leaf_offsets": [str(x) for x in tree["offsets"]]}


def plucker_json(d, n, coords):
    """A weight in pvector's JSON wire format; coords maps d-subsets."""
    return {"d": d, "n": n,
            "coords": {"".join(map(str, S)): str(v) for S, v in coords.items()}}


# -- tree_metrics ---------------------------------------------------------

TREE_SIZES = range(8, 21)


def tree_block(rng):
    """Per leaf count n in 8..20: three exact tree metrics and one with a
    single entry raised past every other pair-sum, which breaks the
    four-point condition on each quadruple through that pair."""
    block = []
    for n in TREE_SIZES:
        for exact in (True, True, True, False):
            tree = random_tree(n, rng)
            dist = tree_distances(tree)
            req = {"kind": "tree_exact" if exact else "tree_perturbed",
                   "n": n, "splits": tree["splits"], "pair": None}
            if not exact:
                pair = tuple(sorted(rng.sample(range(1, n + 1), 2)))
                dist[pair] += 2 * max(dist.values()) + Fraction(
                    rng.randint(1, 9), rng.randint(1, 3))
                req["pair"] = pair
            req["csv"] = matrix_csv(n, dist)
            block.append(req)
    rng.shuffle(block)
    return block


# -- plane_queries --------------------------------------------------------


def facet_weight(facet, raw, rng):
    """A positive integer combination of the facet's vertex vectors plus
    phi(a) for a random integer a: an interior point of the facet cone."""
    coords = {}
    for v in facet:
        c = rng.randint(1, 4)
        for S, x in raw[v].items():
            coords[S] = coords.get(S, 0) + c * x
    a = [rng.randint(-3, 3) for _ in range(6)]
    return {S: coords.get(S, 0) + sum(a[i - 1] for i in S)
            for S in combinations(range(1, 7), 3)}


def random_matrix(rows, cols, rng, hi=9):
    return [[rng.randint(0, hi) for _ in range(cols)] for _ in range(rows)]


def random_points(n, rng, count=4):
    return [[rng.randint(-10, 10) for _ in range(n)] for _ in range(count)]


def plane_block(rng, facets, raw):
    """Twelve oracle requests on facet weights, one on the tropical minors
    of a 2x8 and one of a 3x7 matrix, and two plane_type requests.  A
    type request costs about twenty oracle requests; at one in eight a
    30 s run still holds over 100 requests on a slow machine.

    facets: sorted list of (class name, sorted vertex names);
    raw: vertex name -> {3-subset: integer coordinate}."""
    block = []
    for kind in ["oracle"] * 12 + ["oracle_2x8", "oracle_3x7", "type", "type"]:
        if kind in ("oracle_2x8", "oracle_3x7"):
            d, n = (2, 8) if kind == "oracle_2x8" else (3, 7)
            block.append({"kind": kind, "matrix": random_matrix(d, n, rng),
                          "points": random_points(n, rng)})
            continue
        cls, facet = facets[rng.randrange(len(facets))]
        req = {"kind": kind, "facet_class": cls,
               "w": plucker_json(3, 6, facet_weight(facet, raw, rng))}
        if kind == "oracle":
            req["points"] = random_points(6, rng)
        block.append(req)
    rng.shuffle(block)
    return block


# -- ideal_queries --------------------------------------------------------


def ideal_block(rng):
    """Eleven tree-cone requests (two at n = 5, three at n = 6, six at
    n = 7; characteristic 0 and 2 alternate), six G(3,6) degree requests
    on tropical minors of random 3x6 matrices, two monomial-freeness
    requests on random integer G(2,6) and G(2,7) weights (a monomial
    witness exists) and one on an integer G(2,6) tree weight (free).

    The shares put p50 inside the G(3,6) degree cluster and p90 among
    the n = 7 tree cones instead of on the edge between two clusters.
    A free G(2,7) answer costs about 12 s, so free requests use n = 6."""
    block = []
    for n, count in ((5, 2), (6, 3), (7, 6)):
        for k in range(count):
            tree = random_tree(n, rng)
            block.append({"kind": "tree_cone", "n": n, "char": 2 * (k % 2),
                          "tree": tree_split_json(tree),
                          "splits": tree["splits"]})
    for _ in range(6):
        block.append({"kind": "g36_degree", "matrix": random_matrix(3, 6, rng)})
    for kind, n in (("reject", 6), ("reject", 7), ("free_tree", 6)):
        if kind == "reject":
            w = {S: rng.randint(0, 4) for S in combinations(range(1, n + 1), 2)}
        else:
            tree = random_tree(n, rng)
            tree["lengths"] = [rng.randint(1, 5) for _ in range(n - 3)]
            tree["offsets"] = [rng.randint(0, 5) for _ in range(n)]
            w = {S: -x for S, x in tree_distances(tree).items()}
        block.append({"kind": kind, "n": n, "w": plucker_json(2, n, w)})
    rng.shuffle(block)
    return block


def blocks(workload, seed, facets=None, raw=None):
    """Endless stream of request blocks for a workload and seed."""
    rng = random.Random(f"{workload}:{seed}")
    while True:
        if workload == "tree_metrics":
            yield tree_block(rng)
        elif workload == "plane_queries":
            yield plane_block(rng, facets, raw)
        elif workload == "ideal_queries":
            yield ideal_block(rng)
        else:
            raise ValueError(f"unknown workload {workload!r}")
