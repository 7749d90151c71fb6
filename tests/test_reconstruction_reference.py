"""Two algorithms, one answer: integer oracle reconstruction against the
`Fraction` reference it replaced.

`reconstruct_plucker` reads each witness as ints over the lcm of its
denominators and glues the stars of the (d-1)-subsets I, their
d-subsets I + k, in lex order of I: each star after the first holds
I + k0 (k0 the least leaf outside I) from an earlier star, which fixes
its shift, and the values are ints over one running common
denominator.  The reference below is the earlier routine: `Fraction`
height, slack and bound tests, and a recursive union-find with
`Fraction` offsets.  Both must give the same vector, raise the same
`ReconstructionError` message, and ask the oracle the same questions in
the same order.
"""

import random
from fractions import Fraction
from math import comb, lcm

import pytest

from tropgrass.g36 import FACET_SAMPLES, facet_cone_sample
from tropgrass.minplus import tropical_minors
from tropgrass.pvector import INF, PlueckerVector, d_subsets, phi
from tropgrass.treespace import random_trivalent_tree, tree_to_plucker
from tropgrass.troplin import (
    PlaneOracle,
    ReconstructionError,
    TropicalPlane,
    reconstruct_plucker,
)

BIG_PRIME = 2**61 - 1
COPRIME = (2, 3, 5, 7, 11, 13)
PRIMES = COPRIME + (17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67, 71)


def reference_reconstruct_plucker(oracle, d=None, n=None, bound=1):
    d = oracle.d if d is None else d
    n = oracle.n if n is None else n
    bound = Fraction(bound)
    M = 4 * bound * n + 1
    slack = 2 * bound + 1
    subsets = d_subsets(d, n)
    index = {S: i for i, S in enumerate(subsets)}
    parent = list(range(len(subsets)))
    offset = [Fraction(0)] * len(subsets)

    def find(i):
        if parent[i] == i:
            return i, Fraction(0)
        root, above = find(parent[i])
        parent[i] = root
        offset[i] += above
        return root, offset[i]

    def union(i, j, diff):
        ri, oi = find(i)
        rj, oj = find(j)
        if ri == rj:
            return oi - oj == diff
        parent[ri] = rj
        offset[ri] = diff + oj - oi
        return True

    for I in d_subsets(d - 1, n):
        x = oracle.witness(set(I), M)
        if len(x) != n:
            raise ReconstructionError("witness has wrong length")
        for i in I:
            if x[i - 1] != M:
                raise ReconstructionError(
                    f"witness for I={I} does not sit at height M on I"
                )
        rest = [m for m in range(1, n + 1) if m not in I]
        if any(x[m - 1] > M - slack for m in rest):
            raise ReconstructionError(
                f"witness for I={I} is not far below M off I"
            )
        if not oracle.member(x):
            raise ReconstructionError(f"witness for I={I} fails membership")
        k0 = rest[0]
        for j in rest[1:]:
            diff = x[j - 1] - x[k0 - 1]
            if abs(diff) > 2 * bound:
                raise ReconstructionError(
                    f"difference for I={I} exceeds the stated bound"
                )
            Sj = tuple(sorted(set(I) | {j}))
            Sk = tuple(sorted(set(I) | {k0}))
            if not union(index[Sj], index[Sk], diff):
                raise ReconstructionError(
                    "inconsistent differences across witnesses"
                )
    root0, _ = find(0)
    coords = {}
    for S in subsets:
        r, off = find(index[S])
        if r != root0:
            raise ReconstructionError("difference graph is disconnected")
        coords[S] = off
    base = coords[subsets[0]]
    coords = {S: v - base for S, v in coords.items()}
    return PlueckerVector(d, n, coords)


class Recording:
    """An oracle that logs every witness and member call, then answers
    as the oracle it wraps."""

    def __init__(self, oracle):
        self.d, self.n = oracle.d, oracle.n
        self._oracle = oracle
        self.log = []

    def witness(self, I, M):
        self.log.append(("witness", I, type(M), M))
        return self._oracle.witness(I, M)

    def member(self, x):
        self.log.append(("member", list(x)))
        return self._oracle.member(x)


def outcome(routine, oracle, **kw):
    """(vector or error message, oracle log) of one run."""
    rec = Recording(oracle)
    try:
        got = routine(rec, **kw)
    except ReconstructionError as exc:
        got = f"ReconstructionError: {exc}"
    return got, rec.log


def assert_same(oracle, **kw):
    got, got_log = outcome(reconstruct_plucker, oracle, **kw)
    want, want_log = outcome(reference_reconstruct_plucker, oracle, **kw)
    assert got == want
    assert got_log == want_log
    return got


def bound_of(w):
    return max(max(abs(v) for v in w.coords.values()), 1)


def rational(rng):
    return Fraction(rng.randint(-30, 30), rng.choice(COPRIME + (BIG_PRIME,)))


def prime_minors(d, n, rng):
    """Tropical minors of a d x n matrix whose entries lie over distinct
    primes, one of them 2**61 - 1, so that the witnesses of one vector
    have different and coprime denominators."""
    dens = rng.sample(PRIMES, d * n - 1) + [BIG_PRIME]
    rng.shuffle(dens)
    return tropical_minors([[Fraction(rng.randint(-30, 30), dens[r * n + c])
                             for c in range(n)] for r in range(d)])


def rational_vectors(rng):
    """Finite tropical Pluecker vectors over coprime and 2**61 - 1
    denominators: minors of prime-denominator matrices, trees with
    rational edges, and facet samples scaled by 1/p and shifted by phi."""
    for d, n in ((2, 5), (2, 7), (3, 6), (3, 7), (2, 10)):
        for _ in range(2):
            yield prime_minors(d, n, rng)
    for n in (5, 6, 8):
        yield tree_to_plucker(random_trivalent_tree(n, rng, max_length=5)).scale(
            Fraction(1, rng.choice(COPRIME))) + phi([rational(rng) for _ in range(n)], 2)
    for cls in sorted(FACET_SAMPLES):
        yield (facet_cone_sample(cls).scale(Fraction(1, BIG_PRIME))
               + phi([rational(rng) for _ in range(6)], 3))


def test_rational_vectors_match_reference():
    """On the prime-denominator minors, the running common denominator
    grows after the first witness, to a multiple of 2**61 - 1."""
    rng = random.Random(31)
    grew = 0
    for w in rational_vectors(rng):
        oracle = PlaneOracle.from_vector(w)
        got = assert_same(oracle, bound=bound_of(w))
        assert got.equals_mod_phi(w)
        dens = [lcm(*(v.denominator for v in oracle.witness(set(I), 0)))
                for I in d_subsets(w.d - 1, w.n)]
        grew += dens[0] != lcm(*dens) and lcm(*dens) % BIG_PRIME == 0
    assert grew >= 8


def test_rational_bound_matches_reference():
    rng = random.Random(32)
    for w in rational_vectors(rng):
        for bound in (bound_of(w) + Fraction(1, 3), bound_of(w) * Fraction(7, 5)):
            assert_same(PlaneOracle.from_vector(w), bound=bound)


def converted(oracle, convert):
    """The oracle with each witness coordinate passed through convert."""
    return PlaneOracle(oracle.d, oracle.n, oracle.member,
                       lambda I, M: [convert(v) for v in oracle.witness(I, M)])


def int_if_integral(v):
    return int(v) if v.denominator == 1 else v


@pytest.mark.parametrize("n", range(2, 11))
def test_each_star_meets_an_earlier_star(n):
    """The fact the lex-order glue rests on: in d_subsets(d-1, n) order,
    every star I + k after the first holds a d-subset of an earlier
    star, for every 1 <= d < n; indeed it holds I + k0 for k0 the least
    leaf outside I, the subset that fixes the star's shift."""
    for d in range(1, n):
        seen = set()
        for t, I in enumerate(d_subsets(d - 1, n)):
            rest = [k for k in range(1, n + 1) if k not in I]
            star = [tuple(sorted(I + (k,))) for k in rest]
            assert t == 0 or star[0] in seen, (d, n, I)
            seen.update(star)


def test_int_and_float_oracles_match_reference():
    """Witnesses of ints, and of floats over dyadic denominators (whose
    float arithmetic in the reference is exact), up to a 2x8 matrix."""
    rng = random.Random(33)
    for n in (5, 6, 7):
        w = tree_to_plucker(random_trivalent_tree(n, rng, max_length=9))
        got = assert_same(converted(PlaneOracle.from_vector(w), int_if_integral),
                          bound=bound_of(w))
        assert got.equals_mod_phi(w)
    for d, n in ((2, 6), (3, 6), (3, 7), (2, 8)):
        w = tropical_minors([[Fraction(rng.randint(-40, 40), rng.choice((1, 2, 4, 8)))
                              for _ in range(n)] for _ in range(d)])
        for convert in (float, int_if_integral):
            got = assert_same(converted(PlaneOracle.from_vector(w), convert),
                              bound=bound_of(w))
            assert got.equals_mod_phi(w)


def test_floats_are_read_exactly():
    """A float witness is read as the exact rational it stores, so the
    answer is the reference's on the same witnesses given as Fractions
    (the reference itself subtracts the floats, with rounding)."""
    tenths = {(1, 2): 1, (3, 4): 2, (1, 3): 1, (2, 4): 2, (1, 4): 3, (2, 3): 3}
    w = PlueckerVector(2, 4, {S: Fraction(v / 10) for S, v in tenths.items()})
    exact = PlaneOracle.from_vector(w)
    got = assert_same(exact)
    assert got.equals_mod_phi(w)
    assert reconstruct_plucker(converted(exact, float)) == got


def bad_oracles():
    """(oracle, expected message) with one oracle per ReconstructionError
    branch, infinities included.  The reference's disconnected branch is
    not reachable: the witnesses of all (d-1)-subsets join every d-subset
    into one component, and `reconstruct_plucker` has no such branch."""
    w = facet_cone_sample("EEFG")
    base = PlaneOracle.from_vector(w)

    def patched(change):
        def witness(I, M):
            x = base.witness(I, M)
            if tuple(sorted(I)) == (1, 4):
                change(x, M)
            return x
        return PlaneOracle(3, 6, base.member, witness)

    def at(k, v):
        def change(x, M):
            x[k - 1] = v
        return change

    return [
        (PlaneOracle(3, 6, base.member, lambda I, M: base.witness(I, M)[:-1]),
         "witness has wrong length"),
        (patched(at(1, INF)), "witness for I=(1, 4) does not sit at height M on I"),
        (patched(lambda x, M: x.__setitem__(3, M - 1)),
         "witness for I=(1, 4) does not sit at height M on I"),
        (patched(at(2, INF)), "witness for I=(1, 4) is not far below M off I"),
        (patched(lambda x, M: x.__setitem__(1, M)),
         "witness for I=(1, 4) is not far below M off I"),
        (PlaneOracle(3, 6, lambda x: False, base.witness),
         "witness for I=(1, 2) fails membership"),
        (PlaneOracle(3, 6, lambda x: True, lambda I, M: [
            M if m in I else (-20 if m == max(set(range(1, 7)) - I) else 0)
            for m in range(1, 7)]),
         "difference for I=(1, 2) exceeds the stated bound"),
        (PlaneOracle(3, 6, lambda x: True, lambda I, M: [
            M if m in I else (-INF if m == max(set(range(1, 7)) - I) else 0)
            for m in range(1, 7)]),
         "difference for I=(1, 2) exceeds the stated bound"),
        (PlaneOracle(3, 6, lambda x: True, lambda I, M: [
            M if m in I else m * sum(I) % 5 for m in range(1, 7)]),
         "inconsistent differences across witnesses"),
    ]


@pytest.mark.parametrize("case", range(9))
def test_bad_oracles_fail_alike(case):
    oracle, message = bad_oracles()[case]
    got, _ = outcome(reconstruct_plucker, oracle, bound=4)
    assert got == f"ReconstructionError: {message}"
    assert_same(oracle, bound=4)


def test_bad_witness_values_fail_alike():
    """INF on I, INF or a rational above M - slack off I, and a witness
    that drifts off the plane by 1/p, on rational vectors."""
    rng = random.Random(34)
    for w in list(rational_vectors(rng))[:6]:
        base = PlaneOracle.from_vector(w)
        bound = bound_of(w)
        for k in range(w.n):
            for value in (INF, lambda M: M - 2 * bound, lambda M: Fraction(1, BIG_PRIME)):
                def witness(I, M, k=k, value=value):
                    x = base.witness(I, M)
                    x[k] = value(M) if callable(value) else value
                    return x
                assert_same(PlaneOracle(w.d, w.n, base.member, witness), bound=bound)


# -- work counts --------------------------------------------------------------


@pytest.fixture
def fractions_made(monkeypatch):
    """A counter of Fraction constructions, arithmetic results included."""
    made = [0]
    new = Fraction.__new__

    def counting(cls, *args, **kwargs):
        made[0] += 1
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", counting)
    return made


@pytest.mark.parametrize("cls", sorted(FACET_SAMPLES))
def test_reconstruction_makes_a_fraction_per_coordinate(cls, fractions_made):
    w = facet_cone_sample(cls)
    oracle = PlaneOracle.from_vector(w)
    bound = int(bound_of(w))
    fractions_made[0] = 0
    got = reconstruct_plucker(oracle, bound=bound)
    assert fractions_made[0] <= comb(6, 3) + 3
    assert got.equals_mod_phi(w)


def test_membership_of_an_integer_point_makes_no_fraction(fractions_made):
    w = facet_cone_sample("FFGG")
    inside = [20, 20, w[(1, 2, 3)], w[(1, 2, 4)], w[(1, 2, 5)], w[(1, 2, 6)]]
    for x in ([0, 1, 2, 3, 4, 5], [int(v) for v in inside], inside):
        plane = TropicalPlane(w)
        fractions_made[0] = 0
        plane.contains(x)
        assert fractions_made[0] == 0
    assert TropicalPlane(w).contains([int(v) for v in inside])
