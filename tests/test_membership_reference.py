"""Two algorithms, one answer: sparse circuit evaluation against a dense
reference.

`TropPolynomial` evaluates each finite term on its own support, and
`TropicalPlane.contains` coerces the point once for all circuits.  The
reference below is the dense evaluation these replaced: every term
forms c + sum_i e_i * x_i over all coordinates, and membership rebuilds
each circuit's coefficient list from w and coerces the point again for
every circuit.
"""

import random
from fractions import Fraction
from itertools import combinations

import pytest

from tropgrass.g36 import FACET_SAMPLES, facet_cone_sample
from tropgrass.minplus import TropPolynomial, ext, tropical_minors
from tropgrass.pvector import INF, PlueckerVector, d_subsets
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
