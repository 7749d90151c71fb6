"""The space of phylogenetic trees T_n.

Splits and compatibility, the simplicial complex T_n, the four-point
condition, Additive Linkage reconstruction, tree cones in Plucker
coordinates, the tree binomial ideals J_sigma, and Kempe's circular
straightening order.

Sign convention: points of the tree cones are NEGATED tree metrics
modulo image(phi): w = -sum(length * E_{A,B}) - phi(leaf_offsets), so
that -w_ij is the path distance between leaves i and j.
"""

from __future__ import annotations

import csv
import io
import json
from fractions import Fraction
from itertools import combinations

from .complexes import SimplicialComplex
from .exactalg.plucker import plucker_ring
from .exactalg.scalars import QQ
from .pvector import PlueckerVector, d_subsets, phi


class Split:
    """An unordered bipartition {A, B} of [n] with both sides of size >= 2."""

    __slots__ = ("n", "A", "B")

    def __init__(self, n, A, B=None):
        A = frozenset(A)
        if B is None:
            B = frozenset(range(1, n + 1)) - A
        else:
            B = frozenset(B)
        if A | B != frozenset(range(1, n + 1)) or A & B:
            raise ValueError("sides must partition {1..n}")
        if len(A) < 2 or len(B) < 2:
            raise ValueError("both sides need at least 2 leaves")
        # canonical: A is the side containing leaf 1
        if 1 in B:
            A, B = B, A
        self.n = n
        self.A = A
        self.B = B

    def separates(self, i, j) -> bool:
        return (i in self.A) != (j in self.A)

    def sides(self):
        return (self.A, self.B)

    def __eq__(self, other):
        return (
            isinstance(other, Split)
            and other.n == self.n
            and other.A == self.A
        )

    def __hash__(self):
        return hash((self.n, self.A))

    def __str__(self):
        a = "".join(str(i) for i in sorted(self.A))
        b = "".join(str(i) for i in sorted(self.B))
        return f"{a}|{b}"

    __repr__ = __str__


def splits_compatible(s: Split, t: Split) -> bool:
    """True iff some side of s is contained in some side of t."""
    if s.n != t.n:
        raise ValueError("splits on different leaf sets")
    return (
        s.A <= t.A or s.A <= t.B or s.B <= t.A or s.B <= t.B
    )


def E_AB(split: Split) -> dict:
    """The cone generator E_{A,B}: indicator of separated pairs."""
    return {
        (i, j): 1
        for (i, j) in combinations(range(1, split.n + 1), 2)
        if split.separates(i, j)
    }


class SemiLabeledTree:
    """A semi-labeled tree: compatible splits with positive lengths,
    plus rational leaf offsets (defined modulo image(phi))."""

    def __init__(self, n, internal_lengths, leaf_offsets=None):
        self.n = n
        lengths = {}
        for split, c in dict(internal_lengths).items():
            c = Fraction(c)
            if c <= 0:
                raise ValueError("internal edge lengths must be positive")
            lengths[split] = c
        splits = list(lengths)
        for s, t in combinations(splits, 2):
            if not splits_compatible(s, t):
                raise ValueError(f"incompatible splits {s} and {t}")
        if len(splits) > n - 3:
            raise ValueError("too many splits for a tree")
        self.splits = frozenset(splits)
        self.internal_lengths = lengths
        self.leaf_offsets = (
            [Fraction(x) for x in leaf_offsets]
            if leaf_offsets is not None
            else [Fraction(0)] * n
        )
        if len(self.leaf_offsets) != n:
            raise ValueError("need one offset per leaf")

    def is_trivalent(self) -> bool:
        return len(self.splits) == self.n - 3

    def distance(self, i, j):
        """Path distance: sum of separating internal lengths + offsets."""
        if i == j:
            return Fraction(0)
        total = self.leaf_offsets[i - 1] + self.leaf_offsets[j - 1]
        for s, c in self.internal_lengths.items():
            if s.separates(i, j):
                total += c
        return total

    def __eq__(self, other):
        return (
            isinstance(other, SemiLabeledTree)
            and other.n == self.n
            and other.internal_lengths == self.internal_lengths
            and other.leaf_offsets == self.leaf_offsets
        )

    def same_topology(self, other) -> bool:
        return self.n == other.n and self.splits == other.splits

    # -- exports ---------------------------------------------------------

    def to_split_json(self) -> str:
        """JSON with each internal edge as its two sides (the side with
        leaf 1 first), each a sorted list of leaves, and its length."""
        sides = sorted(
            ((sorted(s.A), sorted(s.B)), c) for s, c in self.internal_lengths.items()
        )
        return json.dumps(
            {
                "n": self.n,
                "splits": [
                    {"split": [a, b], "length": str(c)} for (a, b), c in sides
                ],
                "leaf_offsets": [str(x) for x in self.leaf_offsets],
            }
        )

    @classmethod
    def from_split_json(cls, text: str):
        """Read to_split_json output; a split may also be given in the
        older form "A|B" of concatenated leaf digits, for n <= 9."""
        data = json.loads(text)
        n = data["n"]
        lengths = {}
        for item in data["splits"]:
            split = item["split"]
            if isinstance(split, str):
                if n > 9:
                    raise ValueError(
                        f"digit-string split {split!r} is ambiguous for n = {n}"
                    )
                split = [[int(c) for c in side] for side in split.split("|")]
            a, b = split
            lengths[Split(n, a, b)] = Fraction(item["length"])
        return cls(n, lengths, [Fraction(x) for x in data["leaf_offsets"]])

    def to_newick(self) -> str:
        """Newick string with branch lengths, rooted beside leaf n."""
        n = self.n
        # laminar family of clusters: split sides avoiding leaf n
        clusters = {
            (s.A if n in s.B else s.B): c
            for s, c in self.internal_lengths.items()
        }

        def render(members, available):
            inner = [C for C in available if C < members]
            maximal = [
                C for C in inner if not any(C < D for D in inner if D != C)
            ]
            covered = set().union(*maximal) if maximal else set()
            parts = []
            for C in sorted(maximal, key=lambda C: min(C)):
                parts.append(
                    render(C, [D for D in inner if D < C])
                    + f":{clusters[C]}"
                )
            for leaf in sorted(members - covered):
                parts.append(f"{leaf}:{self.leaf_offsets[leaf - 1]}")
            return "(" + ",".join(parts) + ")"

        body = render(frozenset(range(1, n)), list(clusters))
        return f"({body[1:-1]},{n}:{self.leaf_offsets[n - 1]});"

    def __repr__(self):
        inner = ", ".join(
            f"{s}:{c}" for s, c in sorted(
                self.internal_lengths.items(), key=lambda kv: str(kv[0])
            )
        )
        return f"SemiLabeledTree(n={self.n}, {{{inner}}})"


def star_tree(n) -> SemiLabeledTree:
    return SemiLabeledTree(n, {})


# -- pair dissimilarities (d = 2 Plucker vectors) -------------------------


def tree_to_plucker(tree: SemiLabeledTree) -> PlueckerVector:
    """w with w_ij = -(path distance from i to j)."""
    coords = {
        (i, j): -tree.distance(i, j)
        for (i, j) in combinations(range(1, tree.n + 1), 2)
    }
    return PlueckerVector(2, tree.n, coords)


def dissimilarity_from_csv(text: str, negate=True) -> PlueckerVector:
    """Read a symmetric distance matrix; returns w = -d (negate=True)."""
    rows = [
        [Fraction(v) for v in row]
        for row in csv.reader(io.StringIO(text))
        if row
    ]
    n = len(rows)
    if any(len(r) != n for r in rows):
        raise ValueError("distance matrix must be square")
    for i in range(n):
        if rows[i][i] != 0:
            raise ValueError("nonzero diagonal")
        for j in range(i + 1, n):
            if rows[i][j] != rows[j][i]:
                raise ValueError("matrix not symmetric")
    sign = -1 if negate else 1
    coords = {
        (i, j): sign * rows[i - 1][j - 1]
        for (i, j) in combinations(range(1, n + 1), 2)
    }
    return PlueckerVector(2, n, coords)


def dissimilarity_to_csv(w: PlueckerVector, negate=True) -> str:
    n = w.n
    sign = -1 if negate else 1
    buf = io.StringIO()
    writer = csv.writer(buf)
    for i in range(1, n + 1):
        writer.writerow(
            [
                "0" if i == j else str(sign * w[(min(i, j), max(i, j))])
                for j in range(1, n + 1)
            ]
        )
    return buf.getvalue()


def four_point_check(w: PlueckerVector):
    """(True, None) if every quadruple's minimal pair-sum ties, else
    (False, violating quadruple)."""
    if w.d != 2:
        raise ValueError("four-point condition applies to d = 2")
    for q in combinations(range(1, w.n + 1), 4):
        i, j, k, l = q
        sums = sorted(
            [
                w[(i, j)] + w[(k, l)],
                w[(i, k)] + w[(j, l)],
                w[(i, l)] + w[(j, k)],
            ]
        )
        if sums[0] != sums[1]:
            return False, q
    return True, None


def additive_linkage(w: PlueckerVector) -> SemiLabeledTree:
    """Reconstruct the unique tree whose cone contains w.

    Cherry-picking: repeatedly locate a pair of active clusters that are
    siblings in every quartet (smallest-index tie-break), merge them, and
    record the induced split.  Lengths are recovered by the quartet
    formula on the original matrix; zero-length splits are dropped.
    """
    ok, quad = four_point_check(w)
    if not ok:
        raise ValueError(f"four-point condition fails on quadruple {quad}")
    n = w.n

    def D0(i, j):
        return -w[(min(i, j), max(i, j))]

    # active clusters keyed by representative; distances between clusters
    reps = list(range(1, n + 1))
    members = {r: frozenset([r]) for r in reps}
    dist = {(i, j): D0(i, j) for (i, j) in combinations(reps, 2)}

    def d(a, b):
        return dist[(a, b) if a < b else (b, a)]

    split_sides = []
    next_rep = n + 1
    while len(reps) > 3:
        cherry = None
        for a, b in combinations(reps, 2):
            if all(
                d(a, b) + d(k, l) <= min(d(a, k) + d(b, l), d(a, l) + d(b, k))
                for k, l in combinations([r for r in reps if r not in (a, b)], 2)
            ):
                cherry = (a, b)
                break
        if cherry is None:
            raise ValueError("no cherry found; input is not a tree point")
        a, b = cherry
        merged = members[a] | members[b]
        if 2 <= len(merged) <= n - 2:
            split_sides.append(merged)
        x = next_rep
        next_rep += 1
        members[x] = merged
        dab = d(a, b)
        for r in reps:
            if r in (a, b):
                continue
            key = (min(r, x), max(r, x))
            dist[key] = (d(a, r) + d(b, r) - dab) / 2
        reps = [r for r in reps if r not in (a, b)] + [x]

    lengths = {}
    for side in split_sides:
        split = Split(n, side)
        A, B = sorted(split.sides(), key=len)
        length = min(
            (D0(i, k) + D0(j, l) - D0(i, j) - D0(k, l)) / 2
            for i, j in combinations(sorted(A), 2)
            for k, l in combinations(sorted(B), 2)
        )
        if length > 0:
            lengths[split] = length
        elif length < 0:
            raise ValueError("negative split length; input is not a tree point")

    # leaf offsets: residual of -w minus the internal-split part, in image(phi)
    residual = {}
    for i, j in combinations(range(1, n + 1), 2):
        v = D0(i, j)
        for s, c in lengths.items():
            if s.separates(i, j):
                v -= c
        residual[(i, j)] = v
    offsets = _phi_preimage(n, residual)
    if offsets is None:
        raise ValueError("residual not in image(phi); input is not a tree point")
    return SemiLabeledTree(n, lengths, offsets)


def _phi_preimage(n, pairs):
    """Solve a_i + a_j = pairs[(i,j)] exactly; None if inconsistent."""
    if n < 3:
        raise ValueError("need n >= 3")
    # a_1 from the triangle (1,2,3); then a_j = pairs[(1,j)] - a_1
    a1 = (pairs[(1, 2)] + pairs[(1, 3)] - pairs[(2, 3)]) / 2
    a = [a1] + [pairs[(1, j)] - a1 for j in range(2, n + 1)]
    for i, j in combinations(range(1, n + 1), 2):
        if a[i - 1] + a[j - 1] != pairs[(i, j)]:
            return None
    return a


# -- the simplicial complex T_n ------------------------------------------


def _attach_leaf(clusters, i, bit):
    """The edge clusters after attaching a new leaf (bitmask bit) to the
    edge with cluster clusters[i].

    A trivalent tree is held as the list of its edge clusters, each
    cluster being the bitmask of the leaves (bit j-2 for leaf j) on the
    side of the edge away from leaf 1; inserting a leaf into the edge
    with cluster C adds the leaf to exactly the clusters containing C,
    splits that edge in two and adds the leaf's own edge.
    """
    C = clusters[i]
    grown = [C2 | bit if C2 & C == C else C2 for j, C2 in enumerate(clusters) if j != i]
    grown.extend((C | bit, C, bit))
    return grown


# the leaf edges of the tree on {1, 2, 3}
_THREE_LEAF_CLUSTERS = (0b01, 0b10, 0b11)


def _cluster_splits(n, clusters, cache):
    """The splits of the internal edges among the clusters; cache maps
    clusters to Splits already built."""
    splits = []
    for C in clusters:
        if not 2 <= C.bit_count() <= n - 2:
            continue
        if C not in cache:
            cache[C] = Split(n, [j for j in range(2, n + 1) if C >> (j - 2) & 1])
        splits.append(cache[C])
    return frozenset(splits)


def _trivalent_split_sets(n):
    """All trivalent trees on [n] as frozensets of Splits, by recursive
    leaf insertion: each tree on k+1 leaves arises uniquely by attaching
    leaf k+1 to one of the 2k-3 edges of a tree on k leaves."""
    trees = [list(_THREE_LEAF_CLUSTERS)]
    for k in range(4, n + 1):
        bit = 1 << (k - 2)
        trees = [
            _attach_leaf(clusters, i, bit)
            for clusters in trees
            for i in range(len(clusters))
        ]
    cache = {}
    return [_cluster_splits(n, clusters, cache) for clusters in trees]


def tn_complex(n: int) -> SimplicialComplex:
    """The flag complex T_n on compatible splits; facets = trivalent trees."""
    if not 4 <= n <= 9:
        raise ValueError("tn_complex supports 4 <= n <= 9")
    facets = _trivalent_split_sets(n)
    vertices = sorted({s for f in facets for s in f}, key=str)
    expected_vertices = 2 ** (n - 1) - n - 1
    if len(vertices) != expected_vertices:
        raise AssertionError("vertex census failed")
    schroder = 1
    for k in range(3, 2 * n - 4, 2):
        schroder *= k
    if len(facets) != schroder:
        raise AssertionError("facet census failed")
    return SimplicialComplex(vertices, facets)


# -- tree ideals ----------------------------------------------------------


def _quartet_binomial(ring, tree: SemiLabeledTree, quad):
    """For the quadruple, the initial form of the three-term quadric
    p_ij*p_kl - p_ik*p_jl + p_il*p_jk at any interior point of the
    tree's cone: the two crossing-pairing terms with their quadric
    signs (the sibling pairing is dropped)."""
    i, j, k, l = quad
    # which pairing is the sibling one?  {a,b}|{c,d} iff some split
    # separates {a,b} from {c,d}
    def siblings(a, b, c, dd):
        return any(
            not s.separates(a, b) and not s.separates(c, dd) and s.separates(a, c)
            for s in tree.splits
        )

    # quadric terms with signs, in pairing order (ij|kl), (ik|jl), (il|jk)
    terms = [
        (((i, j), (k, l)), 1),
        (((i, k), (j, l)), -1),
        (((i, l), (j, k)), 1),
    ]
    if siblings(i, j, k, l):
        keep = (1, 2)
    elif siblings(i, k, j, l):
        keep = (0, 2)
    elif siblings(i, l, j, k):
        keep = (0, 1)
    else:
        return None  # unresolved quadruple (non-trivalent tree)

    def mono(e1, e2):
        exp = [0] * ring.nvars
        exp[ring.var_index("p_%d%d" % e1)] += 1
        exp[ring.var_index("p_%d%d" % e2)] += 1
        return tuple(exp)

    out = [(mono(*terms[t][0]), terms[t][1]) for t in keep]
    # normalize so the first listed term is +1
    if out[0][1] < 0:
        out = [(m, -c) for m, c in out]
    return ring.from_terms(out)


def j_sigma(tree: SemiLabeledTree, field=QQ):
    """Generators of the tree ideal J_sigma (trivalent trees only)."""
    if not tree.is_trivalent():
        raise ValueError("j_sigma requires a trivalent tree")
    ring = plucker_ring(2, tree.n, field)
    out = []
    for quad in combinations(range(1, tree.n + 1), 4):
        b = _quartet_binomial(ring, tree, quad)
        if b is None:
            raise AssertionError("trivalent tree left a quadruple unresolved")
        out.append(b)
    return out


def kempe_crossing_generators(n: int, field=QQ):
    """The crossing monomials p_ik * p_jl for 1 <= i < j < k < l <= n."""
    if n < 4:
        raise ValueError("need n >= 4")
    ring = plucker_ring(2, n, field)
    out = []
    for i, j, k, l in combinations(range(1, n + 1), 4):
        exp = [0] * ring.nvars
        exp[ring.var_index(f"p_{i}{k}")] += 1
        exp[ring.var_index(f"p_{j}{l}")] += 1
        out.append(ring.monomial(exp))
    return out


def circular_weight(n: int):
    """Weight vector (one entry per pair ij) of the circular realization:
    w_ij = -(j-i)(n-(j-i)), the negated n-gon split metric.

    For every quadruple the crossing pairing has strictly minimal weight,
    so any order refining this weight has the crossing monomials as
    leading terms of the three-term Plucker quadrics.
    """
    return [
        -Fraction((j - i) * (n - (j - i)))
        for (i, j) in combinations(range(1, n + 1), 2)
    ]


def is_caterpillar(tree: SemiLabeledTree) -> bool:
    """True iff the splits form a chain of nested segments (up to
    relabeling): equivalently, every split has a cherry side or the
    split count is < 2."""
    if not tree.is_trivalent():
        raise ValueError("is_caterpillar requires a trivalent tree")
    if tree.n <= 5:
        return True
    # caterpillar iff the splits are totally ordered by refinement on
    # one side: sort sides-containing-1 by size; chain iff each contains
    # or is disjoint from ... simplest: pairwise nested-or-disjoint with
    # a linear chain structure.  A trivalent tree is a caterpillar iff
    # it has exactly 2 cherries.
    cherries = 0
    for pair in combinations(range(1, tree.n + 1), 2):
        a, b = pair
        if all(not s.separates(a, b) for s in tree.splits):
            cherries += 1
    return cherries == 2


def random_trivalent_tree(n, rng, max_length=10) -> SemiLabeledTree:
    """A uniformly shaped trivalent tree with random positive lengths.

    The shape is drawn by leaf insertion: leaf k goes onto one of the
    2k-5 edges of the tree on k-1 leaves, uniformly, so each of the
    (2n-5)!! shapes has one insertion sequence and equal probability.
    """
    clusters = list(_THREE_LEAF_CLUSTERS)
    for k in range(4, n + 1):
        clusters = _attach_leaf(clusters, rng.randrange(len(clusters)), 1 << (k - 2))
    splits = _cluster_splits(n, clusters, {})
    lengths = {
        s: Fraction(rng.randint(1, max_length), rng.randint(1, 4))
        for s in splits
    }
    offsets = [Fraction(rng.randint(0, max_length)) for _ in range(n)]
    return SemiLabeledTree(n, lengths, offsets)
