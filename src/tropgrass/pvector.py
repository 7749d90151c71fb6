"""Plucker vectors: rational coordinates indexed by d-subsets of [n].

Also hosts the text of leaf sets and the d-partitions of [n] written
with it, the sum-over-subsets map phi : R^n -> R^C(n,d) whose image is
the common lineality space of all cones of the tropical Grassmannian,
exact reduction modulo that image, and `scaled`, which clears
denominators.
"""

from __future__ import annotations

import json
from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from math import comb, lcm
from operator import sub

INF = float("inf")


def ext(x):
    """Coerce to an extended real: a Fraction, passed through, or INF,
    the one infinity object every coerced value shares, so that callers
    can test `v is INF`."""
    if type(x) is Fraction:
        return x
    if x == INF:
        return INF
    if x == -INF:
        raise ValueError("a coordinate must be a rational or +inf, not -inf")
    return Fraction(x)


def scaled(values):
    """(L, ints) for a collection of values coerced by ext (ints,
    Fractions or INF): L is the lcm of the finite values' denominators,
    and ints holds L*v as an int for each finite v and None for INF."""
    L = lcm(*(v.denominator for v in values if v is not INF))
    return L, [None if v is INF else v.numerator * (L // v.denominator)
               for v in values]


@lru_cache(maxsize=64)
def subset_tuple(d: int, n: int):
    """All sorted d-subsets of {1, ..., n}, as one immutable tuple shared
    by every caller that asks for the same (d, n) among the 64 shapes
    used last."""
    return tuple(combinations(range(1, n + 1), d))


@lru_cache(maxsize=64)
def _subset_set(d: int, n: int):
    return frozenset(subset_tuple(d, n))


def d_subsets(d: int, n: int):
    """All sorted d-subsets of {1, ..., n}, as a new list."""
    return list(subset_tuple(d, n))


def subset_key(leaves, n: int) -> str:
    """The text of a set of leaves of [n] (a d-subset, a block, a split
    side, a circuit): its digits for n <= 9, and its leaves joined by
    commas for n >= 10, where digits would run together."""
    return ("," if n > 9 else "").join(map(str, leaves))


def parse_subset(text: str, n: int):
    """Read subset_key output: the comma form for any n, and digits for
    n <= 9 only.  At n >= 10 a text without a comma is one leaf."""
    return _leaves(text, "," in text or n > 9)


def _leaves(text, commas):
    return tuple(map(int, text.split(",") if commas and text else text))


def partition_key(blocks, n: int) -> str:
    """Leaf sets of [n] joined by "|", each written by subset_key."""
    return "|".join(subset_key(b, n) for b in blocks)


def parse_partition(text: str, n=None):
    """Read partition_key output as a list of leaf tuples.  The whole
    text is read in the comma form when it holds a comma or n >= 10;
    without n, n is its leaf count in the digit form."""
    if n is None:
        n = len(text) - text.count("|")
    commas = "," in text or n > 9
    return [_leaves(chunk, commas) for chunk in text.split("|")]


class DPartition:
    """An unordered partition of [n] into exactly d nonempty blocks."""

    __slots__ = ("n", "blocks")

    def __init__(self, n, blocks):
        blocks = tuple(sorted(tuple(sorted(b)) for b in blocks))
        flat = sorted(i for b in blocks for i in b)
        if flat != list(range(1, n + 1)) or any(not b for b in blocks):
            raise ValueError("blocks must partition [n]")
        self.n = n
        self.blocks = blocks

    @property
    def d(self):
        return len(self.blocks)

    @classmethod
    def parse(cls, text, n=None):
        """Read str(p) back by parse_partition."""
        blocks = parse_partition(text, n)
        return cls(sum(map(len, blocks)) if n is None else n, blocks)

    def __str__(self):
        """The blocks by partition_key: "1|23|456" for n <= 9,
        "1,2|3,...,10" for n >= 10."""
        return partition_key(self.blocks, self.n)

    __repr__ = __str__

    def __eq__(self, other):
        return (
            isinstance(other, DPartition)
            and other.n == self.n
            and other.blocks == self.blocks
        )

    def __hash__(self):
        return hash((self.n, self.blocks))

    def __lt__(self, other):
        return self.blocks < other.blocks


def phi(a, d: int):
    """Map an n-vector to the C(n,d)-vector of d-subset sums."""
    n = len(a)
    a = [Fraction(x) for x in a]
    return PlueckerVector(
        d, n, {S: sum(a[i - 1] for i in S) for S in d_subsets(d, n)}
    )


def _phi_residual(d: int, n: int, u):
    """(k*(u - phi(x)), k) for ints u over subset_tuple(d, n), with x the
    least-squares preimage of u.  The Gram matrix of phi's columns is
    aI + bJ with a = C(n-2, d-1) and b = C(n-2, d-2), so for r = phi^T(u),
    x = (r - b*sum(r) / (a + n*b)) / a, and k = a*(a + n*b) makes k*x the
    int vector X = (a + n*b)*r - b*sum(r)."""
    a, b = comb(n - 2, d - 1), comb(n - 2, d - 2)
    subsets = subset_tuple(d, n)
    r = [0] * n
    for S, uS in zip(subsets, u):
        for i in S:
            r[i - 1] += uS
    total = sum(r)
    X = [(a + n * b) * ri - b * total for ri in r]
    k = a * (a + n * b)
    return [uS * k - sum(X[i - 1] for i in S) for S, uS in zip(subsets, u)], k


class PlueckerVector:
    """A rational (or +inf) coordinate per d-subset of [n], 0 <= d <= n.
    Missing coordinates are 0; a key that is not a sorted d-subset
    raises ValueError."""

    def __init__(self, d: int, n: int, coords=None):
        if not 0 <= d <= n:
            raise ValueError(f"PlueckerVector needs 0 <= d <= n, got d = {d}, n = {n}")
        self.d = d
        self.n = n
        self.subsets = subset_tuple(d, n)
        full = {}
        coords = coords or {}
        allowed = _subset_set(d, n)
        if coords.keys() - allowed:
            bad = next(S for S in coords if S not in allowed)
            raise ValueError(
                f"coordinate key {bad!r} is not a sorted {d}-subset of 1..{n}")
        for S in self.subsets:
            full[S] = ext(coords.get(S, 0))
        self.coords = full
        if all(v is INF for v in full.values()):
            raise ValueError("PlueckerVector needs at least one finite coordinate")

    def __getitem__(self, subset):
        return self.coords[tuple(sorted(subset))]

    def is_finite(self) -> bool:
        return all(v is not INF for v in self.coords.values())

    def as_list(self):
        return [self.coords[S] for S in self.subsets]

    def __add__(self, other):
        self._check(other)
        return PlueckerVector(
            self.d, self.n, {S: self.coords[S] + other.coords[S] for S in self.subsets}
        )

    def __sub__(self, other):
        self._check(other)
        for S in self.subsets:
            if other.coords[S] is INF:
                raise self._not_extended_real(
                    S, "undefined" if self.coords[S] is INF else "-inf")
        return PlueckerVector(
            self.d, self.n, {S: self.coords[S] - other.coords[S] for S in self.subsets}
        )

    def __neg__(self):
        self._refuse_infinite("-inf")
        return PlueckerVector(self.d, self.n, {S: -v for S, v in self.coords.items()})

    def scale(self, c):
        if c in (INF, -INF):
            raise ValueError(f"a scale factor must be a rational, not {c}")
        c = Fraction(c)
        if c <= 0:
            self._refuse_infinite("-inf" if c else "undefined")
        return PlueckerVector(self.d, self.n, {S: v * c for S, v in self.coords.items()})

    def _refuse_infinite(self, result):
        """Raise if any coordinate is INF, whose image would be `result`."""
        S = next((S for S, v in self.coords.items() if v is INF), None)
        if S is not None:
            raise self._not_extended_real(S, result)

    def _not_extended_real(self, S, result):
        return ValueError(
            f"coordinate {subset_key(S, self.n)} of the result is {result}, "
            "which is not an extended real here")

    def _check(self, other):
        if (self.d, self.n) != (other.d, other.n):
            raise ValueError("mismatched Plucker vector shapes")

    def __eq__(self, other):
        return (
            isinstance(other, PlueckerVector)
            and (self.d, self.n) == (other.d, other.n)
            and self.coords == other.coords
        )

    def __hash__(self):
        return hash((self.d, self.n, tuple(self.coords[S] for S in self.subsets)))

    def reduce_mod_phi(self):
        """Canonical representative modulo image(phi): self - phi(x) for
        the least-squares preimage x, computed exactly; two vectors agree
        modulo image(phi) iff their reductions are equal.  Requires all
        coordinates finite and 2 <= d < n."""
        self._check_reducible("reduce_mod_phi")
        D, u = scaled(self.coords.values())
        residual, k = _phi_residual(self.d, self.n, u)
        return PlueckerVector(
            self.d, self.n,
            {S: Fraction(v, k * D) for S, v in zip(self.subsets, residual)})

    def _check_reducible(self, method):
        """Refuse, naming the calling method, a vector that is not finite
        or whose d is outside 2 <= d < n."""
        if not self.is_finite():
            raise ValueError("cannot reduce a vector with infinite coordinates")
        if not 2 <= self.d < self.n:
            raise ValueError(f"{method} needs 2 <= d < n")

    def equals_mod_phi(self, other) -> bool:
        """Whether the residual of self - other is zero; vectors of
        different shapes are never equal, but each must be reducible."""
        self._check_reducible("equals_mod_phi")
        other._check_reducible("equals_mod_phi")
        if (self.d, self.n) != (other.d, other.n):
            return False
        _, ints = scaled([*self.coords.values(), *other.coords.values()])
        N = len(self.subsets)
        u = list(map(sub, ints[:N], ints[N:]))
        return not any(_phi_residual(self.d, self.n, u)[0])

    # -- JSON wire format ------------------------------------------------

    def to_json(self) -> str:
        return json.dumps(
            {
                "d": self.d,
                "n": self.n,
                "coords": {
                    subset_key(S, self.n): ("inf" if v is INF else str(v))
                    for S, v in self.coords.items()
                },
            }
        )

    @classmethod
    def from_json(cls, text: str):
        data = json.loads(text)
        d, n = data["d"], data["n"]
        coords = {}
        for key, val in data["coords"].items():
            if n > 9 and d > 1 and "," not in key:
                raise ValueError(f"digit key {key!r} is ambiguous for n = {n}")
            coords[parse_subset(key, n)] = INF if val == "inf" else Fraction(val)
        return cls(d, n, coords)

    def __repr__(self):
        nz = {subset_key(S, self.n): str(v) for S, v in self.coords.items() if v != 0}
        return f"PlueckerVector(d={self.d}, n={self.n}, {nz})"


def basis_vector(d: int, n: int, *subsets):
    """Sum of unit vectors e_S for the given d-subsets."""
    coords = {}
    for S in subsets:
        S = tuple(sorted(S))
        coords[S] = coords.get(S, 0) + 1
    return PlueckerVector(d, n, coords)
