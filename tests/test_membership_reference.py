"""Two algorithms, one answer: sparse circuit evaluation against a dense
reference.

`TropPolynomial` evaluates each finite term on its own support, in ints:
its coefficients over their common denominator L, the point scaled once
to (m*x, m).  `TropicalPlane.contains` coerces and scales the point once
for all circuits.  The reference below is the dense `Fraction`
evaluation these replaced: every term forms c + sum_i e_i * x_i over all
coordinates, and membership rebuilds each circuit's coefficient list
from w and coerces the point again for every circuit.
"""

import random
from fractions import Fraction
from itertools import combinations
from math import lcm

import pytest

from tropgrass.g36 import FACET_SAMPLES, facet_cone_sample
from tropgrass.minplus import (
    TropPolynomial,
    ext,
    finite_point,
    trop_linear_form,
    tropical_minors,
)
from tropgrass.pvector import INF, PlueckerVector, d_subsets, phi, scaled
from tropgrass.troplin import DegenerateCircuit, TropicalPlane


def reference_point(x, n):
    x = [ext(v) for v in x]
    if len(x) != n:
        raise ValueError("point length does not match variable count")
    if any(v == INF for v in x):
        raise ValueError("evaluation points must be finite")
    return x


def reference_argmin(terms, x):
    """Dense pass over an exponent -> coefficient dict at a coerced x."""
    best = INF
    tight = set()
    for exp, c in terms.items():
        if c == INF:
            continue
        v = c + sum(e * xi for e, xi in zip(exp, x))
        if not tight or v < best:
            best = v
            tight = {exp}
        elif v == best:
            tight.add(exp)
    return best, tight


def reference_contains(w, x):
    """(ok, first violating circuit) with circuit J carrying w_{J - j}
    on x_j; every circuit is built before any is evaluated."""
    forms = []
    for J in combinations(range(1, w.n + 1), w.d + 1):
        terms = {}
        for j in J:
            exp = tuple(int(i == j) for i in range(1, w.n + 1))
            terms[exp] = w[tuple(i for i in J if i != j)]
        if sum(c != INF for c in terms.values()) < 2:
            raise DegenerateCircuit(J)
        forms.append((J, terms))
    for J, terms in forms:
        if len(reference_argmin(terms, reference_point(x, w.n))[1]) < 2:
            return False, J
    return True, None


# -- polynomials ----------------------------------------------------------


def random_polynomial(rng):
    nvars = rng.randint(1, 4)
    exps = {tuple(rng.randint(0, 3) for _ in range(nvars))
            for _ in range(rng.randint(1, 6))}
    terms = {e: INF if rng.random() < 0.2 else Fraction(rng.randint(-4, 4),
                                                          rng.choice([1, 1, 2, 3]))
             for e in exps}
    terms[next(iter(exps))] = rng.randint(-2, 2)  # one finite coefficient
    return TropPolynomial(nvars, terms)


def test_sparse_polynomial_evaluation_matches_dense_reference():
    rng = random.Random(9)
    tied = 0
    for _ in range(600):
        F = random_polynomial(rng)
        for _ in range(4):
            x = [rng.choice([rng.randint(-3, 3), Fraction(rng.randint(-6, 6), 2)])
                 for _ in range(F.nvars)]
            best, tight = reference_argmin(F.terms, reference_point(x, F.nvars))
            assert F.evaluate(x) == best
            assert F.tight_terms(x) == tight
            assert F.on_hypersurface(x) == (len(tight) >= 2)
            tied += len(tight) >= 2
        for bad in ([0] * (F.nvars + 1), [INF] + [0] * (F.nvars - 1)):
            for method in (F.evaluate, F.tight_terms, F.on_hypersurface):
                with pytest.raises(ValueError):
                    method(bad)
    assert tied > 100


# -- planes ---------------------------------------------------------------


def fraction_matrix(rows, cols, rng):
    return [[Fraction(rng.randint(-9, 9), rng.choice([1, 2, 3]))
             for _ in range(cols)] for _ in range(rows)]


def infinite_entry_matrix(rows, cols, rng):
    return [[INF if rng.random() < 0.15 else rng.randint(0, 9)
             for _ in range(cols)] for _ in range(rows)]


def sample_planes():
    rng = random.Random(4)
    planes = [facet_cone_sample(cls) for cls in sorted(FACET_SAMPLES)]
    for _ in range(3):
        planes.append(tropical_minors(
            [[rng.randint(0, 9) for _ in range(8)] for _ in range(2)]))
        planes.append(tropical_minors(
            [[rng.randint(0, 9) for _ in range(7)] for _ in range(3)]))
        planes.append(tropical_minors(
            [[rng.randint(0, 1) for _ in range(6)] for _ in range(3)]))
        planes.append(tropical_minors(fraction_matrix(3, 6, rng)))
        planes.append(tropical_minors(infinite_entry_matrix(2, 6, rng)))
        planes.append(tropical_minors(infinite_entry_matrix(3, 6, rng)))
    planes.append(PlueckerVector(3, 3, {(1, 2, 3): Fraction(5, 3)}))
    planes.append(PlueckerVector(4, 4, {}))
    # circuit 123 has one finite coefficient
    planes.append(PlueckerVector(2, 4, {(1, 2): INF, (1, 3): INF}))
    return planes


def sample_points(w, rng):
    """Cocircuit points (x_i = M on a (d-1)-subset I, x_m = w_{I+m}
    elsewhere, infinite coordinates replaced by finite ones above M),
    each also shifted globally and perturbed in one coordinate, plus
    random points."""
    finite = [abs(v) for v in w.coords.values() if v != INF]
    M = 4 * (max(finite) + 1) * w.n + 1
    points = []
    for I in d_subsets(w.d - 1, w.n):
        x = []
        for m in range(1, w.n + 1):
            v = M if m in I else w[tuple(sorted(I + (m,)))]
            x.append(M + rng.randint(1, 3) if v == INF else v)
        points.append(x)
        points.append([v + Fraction(7, 3) for v in x])
        y = list(x)
        y[rng.randrange(w.n)] += rng.choice([-1, 1, Fraction(-1, 2), Fraction(1, 3)])
        points.append(y)
    for _ in range(6):
        points.append([Fraction(rng.randint(-10, 10), rng.choice([1, 2]))
                       for _ in range(w.n)])
    return points


def test_membership_matches_dense_reference():
    rng = random.Random(11)
    answers = {True: 0, False: 0}
    infinite = degenerate = 0
    for w in sample_planes():
        plane = TropicalPlane(w)
        infinite += not w.is_finite()
        for x in sample_points(w, rng):
            try:
                want = reference_contains(w, x)
            except DegenerateCircuit:
                degenerate += 1
                with pytest.raises(DegenerateCircuit):
                    plane.contains(x)
                continue
            got = plane.contains(x)
            assert (bool(got), got.violating_circuit) == want, (w, x)
            answers[want[0]] += 1
    # both answers, infinite weights and the degenerate refusal occur
    assert answers[True] > 150 and answers[False] > 150
    assert infinite >= 3 and degenerate > 0


# -- the integer scale ----------------------------------------------------
# Every benchmark input is integral, so L = m = 1 there; these cases
# reach L > 1 and m > 1.

COPRIME = (2, 3, 5, 7, 11)
BIG_PRIME = 2**61 - 1


def rational(rng):
    """A rational of either sign over a coprime or a large prime
    denominator."""
    return Fraction(rng.randint(-40, 40), rng.choice(COPRIME + (BIG_PRIME,)))


def test_scaled():
    """`scaled` on ints, coprime and large prime denominators and INF:
    L*v round-trips, None sits exactly at INF, and L is the lcm of the
    finite values' denominators."""
    rng = random.Random(26)
    for _ in range(300):
        values = [rng.choice([INF, rng.randint(-9, 9), rational(rng)])
                  for _ in range(rng.randint(0, 8))]
        L, ints = scaled(values)
        finite = [v for v in values if v is not INF]
        assert L == lcm(*(Fraction(v).denominator for v in finite))
        assert [v is INF for v in values] == [c is None for c in ints]
        assert [Fraction(c, L) for c in ints if c is not None] == finite
        assert all(type(c) is int for c in ints if c is not None)
    x = finite_point([Fraction(1, 2), -3, Fraction(-5, 3), Fraction(2, BIG_PRIME)], 4)
    assert scaled(x) == (6 * BIG_PRIME, [3 * BIG_PRIME, -18 * BIG_PRIME,
                                         -10 * BIG_PRIME, 12])
    assert scaled(finite_point([0, -7], 2)) == (1, [0, -7])
    assert scaled([INF, INF]) == (1, [None, None]) and scaled([]) == (1, [])


def test_coprime_denominators_match_dense_reference():
    """Coefficients over coprime denominators (L > 1), rational points
    (m > 1), negative values and INF coefficients; half the polynomials
    get a coefficient that ties a second term with the minimum."""
    rng = random.Random(21)
    tied = both = 0
    for _ in range(400):
        nvars = rng.randint(1, 4)
        exps = list({tuple(rng.randint(0, 3) for _ in range(nvars))
                     for _ in range(rng.randint(2, 6))})
        terms = {e: INF if rng.random() < 0.2 else rational(rng) for e in exps}
        terms[exps[0]] = rational(rng)
        x = [rng.choice([rng.randint(-5, 5), rational(rng)]) for _ in range(nvars)]
        if len(exps) > 1 and rng.random() < 0.5:
            best, _ = reference_argmin(terms, x)
            e = exps[-1]
            terms[e] = best - sum(k * v for k, v in zip(e, x))
        F = TropPolynomial(nvars, terms)
        best, tight = reference_argmin(F.terms, reference_point(x, nvars))
        assert F.evaluate(x) == best
        assert F.tight_terms(x) == tight
        assert F.on_hypersurface(x) == (len(tight) >= 2)
        tied += len(tight) >= 2
        L = scaled(F.terms.values())[0]
        both += L > 1 and scaled(finite_point(x, nvars))[0] > 1
    assert tied > 100 and both > 200


def test_evaluation_scales_with_coefficients_and_point():
    """Scaling every coefficient and the point by k > 0 scales the
    minimum by k and keeps the terms that attain it."""
    rng = random.Random(22)
    for _ in range(300):
        F = random_polynomial(rng)
        x = [rational(rng) for _ in range(F.nvars)]
        k = rng.choice([2, 7, Fraction(3, 5), Fraction(BIG_PRIME, 6)])
        G = TropPolynomial(F.nvars, {e: c if c is INF else k * c
                                     for e, c in F.terms.items()})
        kx = [k * v for v in x]
        assert G.evaluate(kx) == k * F.evaluate(x)
        assert G.tight_terms(kx) == F.tight_terms(x)


def rational_planes(rng):
    """Tropical Pluecker vectors over coprime and large prime
    denominators: minors of rational matrices, some with INF entries, and
    facet samples scaled by 1/p and shifted by phi of a rational vector."""
    for d, n in ((2, 5), (2, 6), (3, 6), (2, 10)):
        for _ in range(2):
            yield tropical_minors([[rational(rng) for _ in range(n)] for _ in range(d)])
            yield tropical_minors([[INF if rng.random() < 0.2 else rational(rng)
                                    for _ in range(n)] for _ in range(d)])
    for cls in sorted(FACET_SAMPLES):
        yield (facet_cone_sample(cls).scale(Fraction(1, BIG_PRIME))
               + phi([rational(rng) for _ in range(6)], 3))


def test_rational_planes_match_dense_reference():
    """Weights over coprime and large prime denominators, with INF
    coordinates, at cocircuit points shifted by 1/p along (1, ..., 1)."""
    rng = random.Random(23)
    answers = {True: 0, False: 0}
    for w in rational_planes(rng):
        plane = TropicalPlane(w)
        for x in sample_points(w, rng):
            x = [v + Fraction(1, BIG_PRIME) for v in x]
            got = plane.contains(x)
            want = reference_contains(w, x)
            assert (bool(got), got.violating_circuit) == want, (w, x)
            answers[want[0]] += 1
    assert answers[True] > 100 and answers[False] > 100


def test_circuits_equal_linear_forms_of_rational_planes():
    """The forms built from the plane's integer table over one common
    denominator equal trop_linear_form of each circuit's coefficients,
    and evaluate alike."""
    rng = random.Random(25)
    for w in rational_planes(rng):
        try:
            forms = TropicalPlane(w).circuits()
        except DegenerateCircuit:
            continue
        for J, F in zip(combinations(range(1, w.n + 1), w.d + 1), forms):
            coeffs = [INF] * w.n
            for j in J:
                coeffs[j - 1] = w[tuple(i for i in J if i != j)]
            G = trop_linear_form(coeffs)
            assert F == G and hash(F) == hash(G) and repr(F) == repr(G)
            assert F.to_json() == G.to_json() and F.is_homogeneous()
            x = [rational(rng) for _ in range(w.n)]
            assert F.evaluate(x) == G.evaluate(x)
            assert F.tight_terms(x) == G.tight_terms(x)


def test_foreign_infinity_is_read_as_inf():
    """A float infinity that is not pvector.INF is coerced to INF by
    PlueckerVector and TropPolynomial, so identity tests see it."""
    other = float("1e400")
    assert other == INF and other is not INF
    w = PlueckerVector(2, 4, {(1, 2): other, (1, 3): Fraction(1, 3),
                              (1, 4): -2, (2, 3): Fraction(5, 7)})
    assert w[(1, 2)] is INF and not w.is_finite()
    plane = TropicalPlane(w)
    for x in sample_points(w, random.Random(24)):
        assert (bool(plane.contains(x)), plane.contains(x).violating_circuit) == \
            reference_contains(w, x)
    with pytest.raises(ValueError, match="at least one finite"):
        PlueckerVector(2, 3, {S: other for S in d_subsets(2, 3)})

    F = TropPolynomial(2, [((1, 0), other), ((0, 1), Fraction(1, 3)), ((0, 0), 2)])
    assert F.terms[(1, 0)] is INF
    assert F.evaluate([-100, 0]) == Fraction(1, 3)
    assert F.tight_terms([0, Fraction(5, 3)]) == {(0, 1), (0, 0)}
    for bad in ([other, 0], [0, other]):
        with pytest.raises(ValueError, match="finite"):
            F.evaluate(bad)
    with pytest.raises(ValueError, match="at least one finite"):
        TropPolynomial(1, [((1,), other)])


def test_rational_degenerate_circuit():
    """A circuit with one finite coefficient is refused before any point
    is scaled, with rational weights too, and named by its leaves."""
    for n, label in ((5, "123"), (10, "1,2,3")):
        w = PlueckerVector(2, n, {S: INF if S in ((1, 2), (1, 3)) else Fraction(1, BIG_PRIME)
                                  for S in d_subsets(2, n)})
        with pytest.raises(DegenerateCircuit):
            reference_contains(w, [Fraction(1, 3)] * n)
        with pytest.raises(DegenerateCircuit, match=f"^circuit {label} has"):
            TropicalPlane(w).contains([Fraction(1, 3)] * n)
