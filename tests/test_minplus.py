"""Min-plus arithmetic, tropical polynomials and matrices."""

import random
from fractions import Fraction
from itertools import permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tropgrass.minplus import (
    TropMatrix,
    TropPolynomial,
    ext,
    trop_add,
    trop_mul,
    trop_linear_form,
    tropical_determinant,
    tropical_minors,
)
from tropgrass.pvector import INF


def test_scalar_semiring():
    assert trop_add(3, 5) == 3
    assert trop_add(INF, 5) == 5
    assert trop_add(3, INF) == 3
    assert trop_mul(3, 5) == 8
    assert trop_mul(INF, 5) == INF
    assert trop_mul(3, INF) == INF
    assert ext("1/2") == Fraction(1, 2)
    assert ext(INF) == INF


def _det_oracle(rows):
    """Independent oracle: assignment DP over column subsets."""
    n = len(rows)
    best = {0: Fraction(0)}
    for r in range(n):
        nxt = {}
        for mask, cost in best.items():
            for c in range(n):
                if mask >> c & 1:
                    continue
                v = rows[r][c]
                if v == INF:
                    continue
                m2 = mask | 1 << c
                cand = cost + v
                if m2 not in nxt or cand < nxt[m2]:
                    nxt[m2] = cand
        best = nxt
    full = (1 << n) - 1
    return best.get(full, INF)


@given(
    st.lists(
        st.lists(
            st.one_of(st.integers(-9, 9), st.just(INF)), min_size=4, max_size=4
        ),
        min_size=4,
        max_size=4,
    )
)
@settings(max_examples=100, deadline=None)
def test_tropical_determinant_against_dp_oracle(rows):
    assert tropical_determinant(rows) == _det_oracle(
        [[INF if v == INF else Fraction(v) for v in row] for row in rows]
    )


@given(
    st.lists(st.lists(st.integers(-5, 5), min_size=3, max_size=3), min_size=3, max_size=3),
    st.integers(-5, 5),
)
@settings(max_examples=50, deadline=None)
def test_determinant_row_shift_and_swap(rows, c):
    det = tropical_determinant(rows)
    shifted = [row[:] for row in rows]
    shifted[1] = [v + c for v in shifted[1]]
    assert tropical_determinant(shifted) == det + c
    swapped = [rows[1], rows[0], rows[2]]
    assert tropical_determinant(swapped) == det


def test_duplicate_row_is_singular():
    m = TropMatrix([[0, 1, 2], [0, 1, 2], [5, 0, 3]])
    assert m.is_tropically_singular()
    # generic matrix: not singular
    assert not TropMatrix([[0, 9, 17], [31, 0, 40], [55, 61, 0]]).is_tropically_singular()


def test_all_infinite_determinant():
    assert tropical_determinant([[INF, INF], [INF, INF]]) == INF
    assert TropMatrix([[INF, 0], [INF, 0]]).is_tropically_singular()


def test_determinant_size_guard():
    with pytest.raises(ValueError):
        TropMatrix([[0] * 9 for _ in range(9)]).tropical_determinant()
    with pytest.raises(ValueError):
        TropMatrix([[0, 1], [1, 0], [2, 2]]).tropical_determinant()


def test_tropical_minors_match_submatrix_determinants():
    m = TropMatrix([[0, 1, 2, 3], [4, 0, 1, 7], [2, 2, 0, 1]])
    pv = m.tropical_minors()
    for S in pv.subsets:
        assert pv[S] == m.column_submatrix(S).tropical_determinant()
    assert tropical_minors([[0, 1, 2], [3, 0, 1]])[(1, 2)] == 0


def _fraction_permutation_sums(rows):
    """Reference: the Fraction sum of every permutation that meets no
    infinite entry."""
    sums = []
    for perm in permutations(range(len(rows))):
        vals = [rows[r][c] for r, c in enumerate(perm)]
        if all(v != INF for v in vals):
            sums.append(sum(vals, Fraction(0)))
    return sums


def test_integer_minors_match_fraction_enumeration():
    """One common denominator per matrix and int sums give the minors
    and the singularity verdicts of Fraction sums, on rational, 0/1 and
    infinite entries."""
    rng = random.Random(13)
    entries = [
        lambda: Fraction(rng.randint(-20, 20), rng.choice((1, 2, 3, 5, 7))),
        lambda: rng.randint(0, 1),
        lambda: INF if rng.random() < 0.2 else rng.randint(-9, 9),
        lambda: float("inf") if rng.random() < 0.2 else Fraction(rng.randint(0, 9), 4),
    ]
    singular = infinite = 0
    for d, n in ((2, 8), (3, 6), (3, 7), (4, 5)):
        for _ in range(12):
            entry = rng.choice(entries)
            rows = [[entry() for _ in range(n)] for _ in range(d)]
            pv = tropical_minors(rows)
            for S in pv.subsets:
                sub = [[ext(row[c - 1]) for c in S] for row in rows]
                sums = _fraction_permutation_sums(sub)
                want = min(sums) if sums else INF
                assert pv[S] == want and (pv[S] is INF) == (want is INF)
                assert TropMatrix(sub).tropical_determinant() == want
                verdict = not sums or sums.count(want) >= 2
                assert TropMatrix(sub).is_tropically_singular() == verdict
                singular += verdict
                infinite += want is INF
    assert singular > 50 and infinite > 5


def test_polynomial_evaluation_and_tightness():
    # min(x1 + x2, 1 + 2*x2, 3)
    F = TropPolynomial(2, [((1, 1), 0), ((0, 2), 1), ((0, 0), 3)])
    assert F.evaluate([1, 1]) == 2
    assert F.tight_terms([1, 1]) == {(1, 1)}
    assert F.evaluate([0, 0]) == 0
    assert F.on_hypersurface([2, 1])  # 3 = 3
    assert not F.on_hypersurface([0, 0])


def test_polynomial_infinite_coefficients():
    F = TropPolynomial(2, [((1, 0), INF), ((0, 1), 0), ((0, 0), 2)])
    assert F.evaluate([100, 5]) == 2
    with pytest.raises(ValueError):
        TropPolynomial(1, [((1,), INF)])
    with pytest.raises(ValueError):
        F.evaluate([INF, 0])


def test_linear_form():
    F = trop_linear_form([1, 0, INF])
    assert F.evaluate([0, 0, 123]) == 0
    assert F.tight_terms([-1, 0, 0]) == {(1, 0, 0), (0, 1, 0)}


def test_polynomial_json_round_trip():
    F = TropPolynomial(2, [((1, 1), Fraction(1, 3)), ((0, 0), INF), ((2, 0), -2)])
    assert TropPolynomial.from_json(F.to_json()) == F


def test_matrix_csv_round_trip():
    m = TropMatrix([[0, Fraction(1, 2)], [INF, -3]])
    assert TropMatrix.from_csv(m.to_csv()) == m
