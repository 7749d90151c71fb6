"""The space of phylogenetic trees T_n.

Splits and compatibility, the simplicial complex T_n, the four-point
condition, Additive Linkage reconstruction, tree cones in Plucker
coordinates, the tree binomial ideals J_sigma, and Kempe's circular
straightening order.

Sign convention: points of the tree cones are NEGATED tree metrics
modulo image(phi): w = -sum(length * E_{A,B}) - phi(leaf_offsets), so
that -w_ij is the path distance between leaves i and j.

Leaf masks: a set of leaves of [n] is held as an int with bit j-1 set
for leaf j.  A split's mask, and the cluster of a tree edge, is the side
away from leaf 1.
"""

from __future__ import annotations

import json
from fractions import Fraction
from itertools import combinations

from .complexes import SimplicialComplex
from .exactalg.plucker import plucker_monomial, plucker_ring
from .exactalg.scalars import QQ
from .minplus import TropMatrix
from .pvector import INF, DPartition, PlueckerVector, scaled


class Split(DPartition):
    """A split of [n]: a two-block d-partition whose blocks both have at
    least 2 leaves.  A is the block holding leaf 1 and B the other; the
    split keeps the leaf mask of B and builds the sets A and B when read."""

    __slots__ = ("mask",)

    def __init__(self, n, A, B=None):
        A = frozenset(A)
        super().__init__(n, (A, frozenset(range(1, n + 1)) - A if B is None else B))
        if min(map(len, self.blocks)) < 2:
            raise ValueError("both sides need at least 2 leaves")
        self.mask = sum(1 << (j - 1) for j in self.blocks[1])

    @classmethod
    def from_mask(cls, n, mask):
        """The split with one side the leaf mask `mask` (either side)."""
        full = (1 << n) - 1
        B = mask ^ full if mask & 1 else mask
        if not (0 <= B <= full and 2 <= B.bit_count() <= n - 2):
            raise ValueError(f"mask {mask:#b} is not a split of [{n}]")
        s = cls.__new__(cls)
        s.n, s.mask = n, B
        s.blocks = tuple(
            tuple(j for j in range(1, n + 1) if (B >> (j - 1) & 1) == side)
            for side in (0, 1))
        return s

    @classmethod
    def parse(cls, text, n=None):
        """Read str(s) back as a Split."""
        p = DPartition.parse(text, n)
        if p.d != 2:
            raise ValueError("a split has exactly two blocks")
        return cls(p.n, *p.blocks)

    @property
    def A(self):
        return frozenset(self.blocks[0])

    @property
    def B(self):
        return frozenset(self.blocks[1])

    def separates(self, i, j) -> bool:
        return bool((self.mask >> (i - 1) ^ self.mask >> (j - 1)) & 1)

    def sides(self):
        return (self.A, self.B)


def splits_compatible(s: Split, t: Split) -> bool:
    """True iff some side of s is contained in some side of t.  Both A
    sides hold leaf 1, so that is: the B sides are disjoint or nested."""
    if s.n != t.n:
        raise ValueError("splits on different leaf sets")
    a, b = s.mask, t.mask
    return not (a & b and a & ~b and b & ~a)


class SemiLabeledTree:
    """A semi-labeled tree: compatible splits with positive lengths,
    plus rational leaf offsets (defined modulo image(phi))."""

    def __init__(self, n, internal_lengths, leaf_offsets=None):
        self.n = n
        lengths = {}
        for split, c in dict(internal_lengths).items():
            if not (isinstance(split, Split) and split.n == n):
                raise ValueError(f"{split!r} is not a Split of [{n}]")
            c = Fraction(c)
            if c <= 0:
                raise ValueError("internal edge lengths must be positive")
            lengths[split] = c
        for s, t in combinations(lengths, 2):
            if not splits_compatible(s, t):
                raise ValueError(f"incompatible splits {s} and {t}")
        if len(lengths) > max(n - 3, 0):
            raise ValueError("too many splits for a tree")
        self.internal_lengths = lengths
        self.leaf_offsets = (
            [Fraction(x) for x in leaf_offsets]
            if leaf_offsets is not None
            else [Fraction(0)] * n
        )
        if len(self.leaf_offsets) != n:
            raise ValueError("need one offset per leaf")

    @property
    def splits(self):
        """The tree's splits, as a frozenset built when read."""
        return frozenset(self.internal_lengths)

    def is_trivalent(self) -> bool:
        return len(self.internal_lengths) == self.n - 3

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
        return (self.n == other.n
                and self.internal_lengths.keys() == other.internal_lengths.keys())

    # -- exports ---------------------------------------------------------

    def to_split_json(self) -> str:
        """JSON with each internal edge as its two sides (the side with
        leaf 1 first), each a sorted list of leaves, and its length."""
        sides = sorted((s.blocks, c) for s, c in self.internal_lengths.items())
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
        """Read to_split_json output; a split may also be given as the
        text str(Split) writes, "A|B" (digits for n <= 9, commas for
        n >= 10), read by Split.parse."""
        data = json.loads(text)
        n = data["n"]
        lengths = {}
        for item in data["splits"]:
            split = item["split"]
            if isinstance(split, str):
                split = Split.parse(split, n)
            elif len(split) == 2:
                split = Split(n, *split)
            else:
                raise ValueError("a split has exactly two blocks")
            lengths[split] = Fraction(item["length"])
        return cls(n, lengths, [Fraction(x) for x in data["leaf_offsets"]])

    def to_newick(self) -> str:
        """Newick string with branch lengths, rooted beside leaf n."""
        n = self.n
        full = (1 << n) - 1
        # laminar family of clusters: split sides avoiding leaf n, as masks
        clusters = {
            (full ^ s.mask if s.mask >> (n - 1) & 1 else s.mask): c
            for s, c in self.internal_lengths.items()
        }

        def below(C, D):
            return C != D and C & D == C

        def render(members, available):
            inner = [C for C in available if below(C, members)]
            maximal = [C for C in inner if not any(below(C, D) for D in inner)]
            parts = []
            rest = members
            # lowest set bit first: the clusters in order of their least leaf
            for C in sorted(maximal, key=lambda C: C & -C):
                parts.append(
                    render(C, [D for D in inner if below(D, C)])
                    + f":{clusters[C]}"
                )
                rest ^= C
            for leaf in range(1, n + 1):
                if rest >> (leaf - 1) & 1:
                    parts.append(f"{leaf}:{self.leaf_offsets[leaf - 1]}")
            return "(" + ",".join(parts) + ")"

        body = render(full >> 1, list(clusters))
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


def dissimilarity_from_csv(text: str) -> PlueckerVector:
    """Read a symmetric distance matrix written as TropMatrix CSV;
    returns w = -d."""
    rows = TropMatrix.from_csv(text).entries
    n = len(rows)
    if n < 2:
        raise ValueError(f"a distance matrix needs at least 2 leaves, got {n}")
    if any(len(r) != n for r in rows):
        raise ValueError("distance matrix must be square")
    if any(v is INF for r in rows for v in r):
        raise ValueError("a distance matrix needs finite entries, not inf")
    for i in range(n):
        if rows[i][i] != 0:
            raise ValueError("nonzero diagonal")
        for j in range(i + 1, n):
            if rows[i][j] != rows[j][i]:
                raise ValueError("matrix not symmetric")
    coords = {
        (i, j): -rows[i - 1][j - 1]
        for (i, j) in combinations(range(1, n + 1), 2)
    }
    return PlueckerVector(2, n, coords)


def dissimilarity_to_csv(w: PlueckerVector) -> str:
    """The distance matrix -w as TropMatrix CSV; w must be finite."""
    d = -w
    leaves = range(1, w.n + 1)
    return TropMatrix([[d[(i, j)] if i != j else 0 for j in leaves]
                       for i in leaves]).to_csv()


def four_point_check(w: PlueckerVector):
    """(True, None) if every quadruple's minimal pair-sum ties, else
    (False, the first violating quadruple in lex order).  A pair-sum with
    an infinite term is infinite, and infinite sums tie with each other.

    The scan runs on w scaled to ints: an infinite coordinate becomes a
    sentinel that puts every sum with an infinite term at or above
    `floor`, above every finite sum, so a unique minimum is a violation
    only when it lies below `floor`."""
    if w.d != 2:
        raise ValueError("four-point condition applies to d = 2")
    n = w.n
    _, ints = scaled(w.as_list())
    big = max((abs(v) for v in ints if v is not None), default=0)
    floor = 2 * big + 1
    D = [[0] * n for _ in range(n)]
    for (i, j), v in zip(w.subsets, ints):
        D[i - 1][j - 1] = D[j - 1][i - 1] = 3 * big + 1 if v is None else v
    for i in range(n):
        Di = D[i]
        for j in range(i + 1, n):
            Dj, dij = D[j], Di[j]
            for k in range(j + 1, n):
                Dk, dik, djk = D[k], Di[k], Dj[k]
                for l in range(k + 1, n):
                    a, b, c = dij + Dk[l], dik + Dj[l], Di[l] + djk
                    if a < b:
                        bad = a != c and min(a, c) < floor
                    elif b < a:
                        bad = b != c and min(b, c) < floor
                    else:
                        bad = c < a and c < floor
                    if bad:
                        return False, (i + 1, j + 1, k + 1, l + 1)
    return True, None


def additive_linkage(w: PlueckerVector) -> SemiLabeledTree:
    """Reconstruct the unique tree whose cone contains w.

    Cherry-picking: repeatedly locate a pair of active clusters that are
    siblings in every quartet (smallest-index tie-break), merge them, and
    record the induced split.  A leaf's offset is its pendant length,
    read at the merge that takes it (or from the last three clusters).
    Internal lengths are recovered by the quartet formula on the original
    matrix; zero-length splits are dropped.
    """
    ok, quad = four_point_check(w)
    if not ok:
        raise ValueError(f"four-point condition fails on quadruple {quad}")
    n = w.n
    if n < 3 or not w.is_finite():
        raise ValueError("additive linkage needs n >= 3 leaves and finite distances")

    def D0(i, j):
        return -w[(min(i, j), max(i, j))]

    # active clusters (leaf masks) keyed by representative; distances
    # between clusters
    reps = list(range(1, n + 1))
    members = {r: 1 << (r - 1) for r in reps}
    dist = {(i, j): D0(i, j) for (i, j) in combinations(reps, 2)}
    offsets = [None] * n

    # the cherry search and the length scan below stay on Fractions: a
    # merged cluster's distances are halves of sums, and the length scan,
    # most of the linkage time, stays for the reason given there
    def d(a, b):
        return dist[(a, b) if a < b else (b, a)]

    def take(a, b, r):
        """If a is a leaf, its pendant length: the distance from a to the
        point where the paths to the clusters b and r part."""
        if a <= n:
            offsets[a - 1] = (d(a, b) + d(a, r) - d(b, r)) / 2

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
        r = next(r for r in reps if r not in cherry)
        take(a, b, r)
        take(b, a, r)
        merged = members[a] | members[b]
        if 2 <= merged.bit_count() <= n - 2:
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
    a, b, c = reps
    take(a, b, c)
    take(b, c, a)
    take(c, a, b)

    # take() on a merged cluster would give its edge's length without this
    # quartet scan; the scan stays while the benchmark keeps every answer,
    # so that a faster loop does not read as a peak-memory regression
    lengths = {}
    for side in split_sides:
        split = Split.from_mask(n, side)
        A, B = sorted(split.blocks, key=len)
        length = min(
            (D0(i, k) + D0(j, l) - D0(i, j) - D0(k, l)) / 2
            for i, j in combinations(A, 2)
            for k, l in combinations(B, 2)
        )
        if length > 0:
            lengths[split] = length
        elif length < 0:
            raise ValueError("negative split length; input is not a tree point")
    return SemiLabeledTree(n, lengths, offsets)


# -- the simplicial complex T_n ------------------------------------------


def _attach_leaf(clusters, i, bit):
    """The edge clusters after attaching a new leaf (leaf mask bit) to
    the edge with cluster clusters[i].

    A trivalent tree is held as the list of its edge clusters, each
    cluster being the leaf mask of the side of the edge away from leaf 1,
    so an internal edge's cluster is its split's mask; inserting a leaf
    into the edge with cluster C adds the leaf to exactly the clusters
    containing C, splits that edge in two and adds the leaf's own edge.
    """
    C = clusters[i]
    grown = [C2 | bit if C2 & C == C else C2 for j, C2 in enumerate(clusters) if j != i]
    grown.extend((C | bit, C, bit))
    return grown


# the leaf edges of the tree on {1, 2, 3}
_THREE_LEAF_CLUSTERS = (0b010, 0b100, 0b110)


def tn_complex(n: int) -> SimplicialComplex:
    """T_n, the flag complex of pairwise-compatible splits (Billera,
    Holmes and Vogtmann 2001): one vertex per split of [n], in str order,
    and the trivalent trees as facets."""
    if not 4 <= n <= 9:
        raise ValueError("tn_complex supports 4 <= n <= 9")
    vertices = sorted((Split.from_mask(n, B) for B in range(2, 1 << n, 2)
                       if 2 <= B.bit_count() <= n - 2), key=str)
    complex_ = SimplicialComplex.flag(
        vertices, [e for e in combinations(vertices, 2) if splits_compatible(*e)])
    schroder = 1
    for k in range(3, 2 * n - 4, 2):
        schroder *= k
    if len(complex_.masks) != schroder:
        raise AssertionError("facet census failed")
    return complex_


# -- tree ideals ----------------------------------------------------------


def _quartet_binomial(ring, tree: SemiLabeledTree, quad):
    """For the quadruple, the initial form of the three-term quadric
    p_ij*p_kl - p_ik*p_jl + p_il*p_jk at any interior point of the
    tree's cone: the two non-sibling pairings with their quadric signs,
    the first made +1, or None if no pairing is the sibling one."""
    i, j, k, l = quad
    # quadric pairings with signs, in order (ij|kl), (ik|jl), (il|jk)
    terms = [(((i, j), (k, l)), 1), (((i, k), (j, l)), -1), (((i, l), (j, k)), 1)]
    for t, (((a, b), (c, e)), _) in enumerate(terms):
        # {a,b}|{c,e} is the sibling pairing iff some split separates the
        # pairs: its side away from leaf 1 meets them in exactly one pair
        P, Q = 1 << (a - 1) | 1 << (b - 1), 1 << (c - 1) | 1 << (e - 1)
        if any(s.mask & (P | Q) in (P, Q) for s in tree.internal_lengths):
            del terms[t]
            break
    else:
        return None  # unresolved quadruple (non-trivalent tree)
    sign = terms[0][1]
    return ring.from_terms(
        (plucker_monomial(ring, *pairing), c * sign) for pairing, c in terms)


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
    return [ring.monomial(plucker_monomial(ring, (i, k), (j, l)))
            for i, j, k, l in combinations(range(1, n + 1), 4)]


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


def cherries(tree: SemiLabeledTree):
    """The 2-leaf sides of the tree's splits, each a sorted pair, sorted.
    In a trivalent tree these are its cherries: the leaf pairs that meet
    at one internal vertex."""
    return sorted(side for s in tree.internal_lengths for side in s.blocks
                  if len(side) == 2)


def is_caterpillar(tree: SemiLabeledTree) -> bool:
    """True iff the trivalent tree is a caterpillar: its internal edges
    form one path.  The internal vertices span a tree whose leaves are
    the cherries' vertices, so for n >= 4 that holds iff the tree has
    exactly two cherries."""
    if not tree.is_trivalent():
        raise ValueError("is_caterpillar requires a trivalent tree")
    return tree.n < 4 or len(cherries(tree)) == 2


def random_trivalent_tree(n, rng, max_length=10) -> SemiLabeledTree:
    """A uniformly shaped trivalent tree with random positive lengths.

    The shape is drawn by leaf insertion: leaf k goes onto one of the
    2k-5 edges of the tree on k-1 leaves, uniformly, so each of the
    (2n-5)!! shapes has one insertion sequence and equal probability.
    The lengths are drawn for the splits in sorted order, so a seed
    gives one tree whatever the hash layout of a set of splits.
    """
    clusters = list(_THREE_LEAF_CLUSTERS)
    for k in range(4, n + 1):
        clusters = _attach_leaf(clusters, rng.randrange(len(clusters)), 1 << (k - 1))
    splits = [Split.from_mask(n, C) for C in clusters if 2 <= C.bit_count() <= n - 2]
    lengths = {
        s: Fraction(rng.randint(1, max_length), rng.randint(1, 4))
        for s in sorted(splits)
    }
    offsets = [Fraction(rng.randint(0, max_length)) for _ in range(n)]
    return SemiLabeledTree(n, lengths, offsets)
