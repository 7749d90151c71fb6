"""Exact polynomial algebra: fields, rings, orders, Groebner engine,
initial ideals, Pluecker machinery, valuation certificates."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tropgrass.exactalg import (
    GF,
    GF4,
    QQ,
    FANO_LINES,
    IdealHandle,
    MultiPoly,
    PolyRing,
    StepBudgetExceeded,
    TermOrder,
    contains_monomial,
    degree_of,
    degrevlex,
    elimination_order,
    eliminate,
    expand_on_generic_matrix,
    fano_certificate_search,
    fano_weight,
    field_of_characteristic,
    generic_matrix_ring,
    initial_form,
    initial_ideal,
    intersect_ideals,
    is_monomial_free,
    normal_form,
    plucker_generators,
    plucker_ring,
    plucker_valuations,
    reduced_groebner_basis,
    sort_sign,
    three_term_quadric,
    toric_kernel,
    weight_refined_order,
)
from tropgrass.exactalg.plucker import FANO_COLUMNS, TPolyMatrix
from tropgrass.pvector import INF, d_subsets, subset_key


# -- scalars --------------------------------------------------------------


def test_prime_field():
    F = GF(7)
    assert F(10) == 3
    assert F.mul(3, 5) == 1
    assert F.inv(3) == 5
    assert F(Fraction(1, 2)) == 4
    with pytest.raises(ValueError):
        GF(6)
    with pytest.raises(ZeroDivisionError):
        GF(2)(Fraction(1, 2))


def test_gf4_is_a_field():
    els = [0, 1, 2, 3]
    for a in els:
        assert GF4.add(a, a) == 0  # characteristic 2
        if a:
            assert GF4.mul(a, GF4.inv(a)) == 1
    # x * x = x + 1 under the generator x = 2
    assert GF4.mul(2, 2) == 3
    assert GF4.mul(2, 3) == 1
    # distributivity spot check
    for a in els:
        for b in els:
            for c in els:
                assert GF4.mul(a, GF4.add(b, c)) == GF4.add(
                    GF4.mul(a, b), GF4.mul(a, c)
                )
    assert GF4(-1) == 1
    assert field_of_characteristic(0) == QQ
    assert field_of_characteristic(5) == GF(5)


# -- rings, parsing, orders ----------------------------------------------


def test_parse_and_arithmetic():
    R = PolyRing(QQ, ["x", "y"])
    f = R.parse("x^2 - 2*x*y + y^2")
    g = R.parse("x - y")
    assert f == g * g
    assert (f - g * g).is_zero()
    assert R.parse("3") * R.parse("1/3") == R.one()


def test_degrevlex_leading_term():
    R = PolyRing(QQ, ["x", "y", "z"])
    order = degrevlex(3)
    # grevlex: x*y beats z^2 in degree 2? both degree 2: revlex on reversed
    f = R.parse("x*z + y^2")
    lead = max(f.terms, key=order.key)
    assert lead == (0, 2, 0)  # y^2 beats x*z under degrevlex


def test_weight_refined_order_picks_initial_terms():
    R = PolyRing(QQ, ["x", "y"])
    f = R.parse("x^2 + x*y + y^2")
    w = [0, 1]
    assert initial_form(f, w) == R.parse("x^2")
    order = weight_refined_order(w)
    lead = max(f.terms, key=order.key)
    assert lead in initial_form(f, w).terms
    assert degrevlex(2).is_degree_compatible()
    assert not TermOrder([1, 0]).is_degree_compatible()
    assert TermOrder([-1, 0]).is_degree_compatible()


# -- Groebner engine ------------------------------------------------------


def test_known_lex_basis():
    R = PolyRing(QQ, ["x", "y"])
    order = elimination_order(2, [0])  # eliminate x
    basis = reduced_groebner_basis(
        [R.parse("x^2 - y"), R.parse("x*y - x")], order
    )
    # eliminant: y^2 - y
    strs = {str(g) for g in basis}
    assert "y^2 - y" in strs


def test_membership_and_normal_form():
    R = PolyRing(QQ, ["x", "y", "z"])
    I = IdealHandle(R, [R.parse("x - y"), R.parse("y - z")])
    assert I.contains(R.parse("x - z"))
    assert not I.contains(R.parse("x + z"))
    nf = I.normal_form(R.parse("x^2"))
    assert I.contains(R.parse("x^2") - nf)


@given(st.integers(0, 3), st.integers(0, 3), st.integers(-3, 3))
@settings(max_examples=30, deadline=None)
def test_normal_form_is_linear(a, b, c):
    R = PolyRing(QQ, ["x", "y"])
    I = IdealHandle(R, [R.parse("x^2 - y")])
    f = R.parse("x") ** a
    g = R.parse("y") ** b
    s = I.normal_form(f) + I.normal_form(g) * c
    assert I.normal_form(f + g * c) == s


def test_step_budget():
    R = PolyRing(QQ, ["x", "y", "z"])
    gens = [R.parse("x*y - z"), R.parse("y*z - x")]
    with pytest.raises(StepBudgetExceeded):
        reduced_groebner_basis(gens, degrevlex(3), max_steps=0)


def test_groebner_over_gf2():
    R = PolyRing(GF(2), ["x", "y"])
    basis = reduced_groebner_basis(
        [R.parse("x^2 + y"), R.parse("y^2 + x")], degrevlex(2)
    )
    I = IdealHandle(R, basis)
    assert I.contains(R.parse("x^4 + x"))


# -- elimination, intersection, toric kernels ----------------------------


def test_eliminate_parametrized_curve():
    R = PolyRing(QQ, ["t", "x", "y"])
    I = IdealHandle(R, [R.parse("x - t^2"), R.parse("y - t^3")])
    J = eliminate(I, ["t"])
    assert J.ring.variables == ("x", "y")
    assert J.equals(IdealHandle(J.ring, [J.ring.parse("x^3 - y^2")]))


def test_intersection_of_coordinate_ideals():
    R = PolyRing(QQ, ["x", "y"])
    a = IdealHandle(R, [R.parse("x")])
    b = IdealHandle(R, [R.parse("y")])
    meet = intersect_ideals(a, b)
    assert meet.equals(IdealHandle(R, [R.parse("x*y")]))


def test_toric_kernel_twisted_cubic():
    src = PolyRing(QQ, ["a", "b", "c", "d"])
    tgt = PolyRing(QQ, ["s", "t"])
    ker = toric_kernel(
        {"a": (3, 0), "b": (2, 1), "c": (1, 2), "d": (0, 3)}, src, tgt
    )
    expect = IdealHandle(
        src,
        [src.parse("a*c - b^2"), src.parse("b*d - c^2"), src.parse("a*d - b*c")],
    )
    assert ker.equals(expect)
    assert degree_of(ker) == 3


def test_toric_kernel_signed_images():
    src = PolyRing(QQ, ["a", "b"])
    tgt = PolyRing(QQ, ["s"])
    ker = toric_kernel({"a": tgt.parse("s"), "b": tgt.parse("-s")}, src, tgt)
    assert ker.equals(IdealHandle(src, [src.parse("a + b")]))


# -- initial ideals and monomial-freeness --------------------------------


def test_initial_ideal_toy():
    R = PolyRing(QQ, ["x", "y"])
    I = IdealHandle(R, [R.parse("x^2 + x*y")])
    inw = initial_ideal(I, [0, 1])
    assert inw.equals(IdealHandle(R, [R.parse("x^2")]))


def test_contains_monomial_with_witness():
    R = PolyRing(QQ, ["x", "y"])
    I = IdealHandle(R, [R.parse("x^2")])
    res = contains_monomial(I)
    assert not res.free and res.witness is not None
    assert I.contains(res.witness)
    J = IdealHandle(R, [R.parse("x - y")])
    assert contains_monomial(J).free


def test_is_monomial_free_flips_with_weight():
    R = PolyRing(QQ, ["x", "y"])
    I = IdealHandle(R, [R.parse("x + y")])
    assert is_monomial_free(I, [0, 0]).free
    res = is_monomial_free(I, [0, 1])  # in_w = <x>
    assert not res.free


# -- Hilbert degrees ------------------------------------------------------


def test_degree_of_hypersurface_and_points():
    R = PolyRing(QQ, ["x", "y", "z"])
    assert degree_of(IdealHandle(R, [R.parse("x^3 - y^2*z")])) == 3
    # two reduced points on P^1: degree 2
    S = PolyRing(QQ, ["x", "y"])
    assert degree_of(IdealHandle(S, [S.parse("x^2 - y^2")])) == 2


# -- Pluecker machinery ---------------------------------------------------


def test_sort_sign():
    assert sort_sign((2, 1, 3)) == (-1, (1, 2, 3))
    assert sort_sign((1, 2)) == (1, (1, 2))
    assert sort_sign((2, 2, 3)) is None


@pytest.mark.parametrize(
    "d,n,count", [(2, 4, 1), (2, 5, 5), (3, 6, 35), (3, 7, 140)]
)
def test_plucker_generator_counts(d, n, count):
    assert len(plucker_generators(d, n)) == count


def test_three_term_quadric_membership():
    ring = plucker_ring(2, 5)
    I = IdealHandle(ring, plucker_generators(2, 5))
    for quad in d_subsets(4, 5):
        assert I.contains(three_term_quadric(ring, *quad))


def test_generators_vanish_on_generic_matrix():
    for g in plucker_generators(2, 4) + plucker_generators(3, 6)[:5]:
        d = 2 if g.ring.nvars == 6 else 3
        n = 4 if d == 2 else 6
        assert expand_on_generic_matrix(g, d, n).is_zero()


def test_nontrivial_polynomial_does_not_vanish():
    ring = plucker_ring(2, 4)
    assert not expand_on_generic_matrix(ring.parse("p_12"), 2, 4).is_zero()


def test_expansion_reads_variables_by_name():
    # the variables of I_{3,7} in colex subset order p_123, p_124, p_134, ...
    colex = sorted(d_subsets(3, 7), key=lambda S: tuple(reversed(S)))
    ring = PolyRing(QQ, ["p_" + subset_key(S) for S in colex])
    g = plucker_generators(3, 7)[0]
    assert expand_on_generic_matrix(ring.parse(str(g)), 3, 7).is_zero()
    assert not expand_on_generic_matrix(ring.parse("p_124"), 3, 7).is_zero()
    with pytest.raises(ValueError):
        expand_on_generic_matrix(PolyRing(QQ, ["p_12", "x"]).parse("x"), 2, 4)


def test_tpoly_matrix_minors():
    # valuations of a 2x3 matrix over Q[t]
    M = TPolyMatrix([[[1], [0, 1], [0, 0, 1]], [[0, 1], [1], [1]]], QQ)
    pv = plucker_valuations(M)
    # minor(1,2) = 1*1 - t*t = 1 - t^2 : valuation 0
    assert pv[(1, 2)] == 0
    # minor(1,3) = 1*1 - t^2*t = 1 - t^3 : valuation 0
    assert pv[(1, 3)] == 0
    # minor(2,3) = t*1 - t^2*1 : valuation 1
    assert pv[(2, 3)] == 1
    # a vanishing minor gets valuation INF
    Z = TPolyMatrix([[[1], [1], [0]], [[0], [0], [1]]], QQ)
    assert plucker_valuations(Z)[(1, 2)] == INF


# -- the Fano certificate -------------------------------------------------


def test_fano_weight_shape():
    w = fano_weight()
    assert sum(1 for v in w.coords.values() if v == 1) == 7
    assert all(w[T] == 1 for T in FANO_LINES)


def test_fano_base_realizes_fano_over_gf2():
    lines = {tuple(sorted(T)) for T in FANO_LINES}
    for T in d_subsets(3, 7):
        a, b, c = (FANO_COLUMNS[i - 1] for i in T)
        dependent = tuple(x ^ y for x, y in zip(a, b)) == c
        assert dependent == (T in lines)


def test_gf4_certificate_found_and_exact():
    M, trials = fano_certificate_search(GF4, random.Random(0))
    assert M is not None
    assert plucker_valuations(M) == fano_weight()


def test_gf2_obstruction():
    """Over GF(2) no perturbation reaches all seven lines: the seven
    linear t-coefficient forms sum to zero identically, verified on the
    21 unit perturbations."""
    F2 = GF(2)
    for r in range(3):
        for c in range(7):
            rows = [
                [
                    [FANO_COLUMNS[cc][rr], 1 if (rr, cc) == (r, c) else 0]
                    for cc in range(7)
                ]
                for rr in range(3)
            ]
            M = TPolyMatrix(rows, F2)
            total = 0
            for T in FANO_LINES:
                det = M.minor(T)
                total += det[1] if len(det) > 1 else 0
            assert total % 2 == 0
    M, best = fano_certificate_search(F2, random.Random(0), max_trials=400)
    assert M is None and best <= 6


def test_certificate_requires_characteristic_two():
    with pytest.raises(ValueError):
        fano_certificate_search(QQ, random.Random(0))
