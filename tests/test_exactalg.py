"""Exact polynomial algebra: fields, rings, orders, Groebner engine,
initial ideals, Pluecker machinery, valuation certificates."""

import itertools
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
    weight_order,
)
from tropgrass.exactalg import ideals
from tropgrass.cli import SAGBI_WEIGHTS
from tropgrass.exactalg.plucker import FANO_COLUMNS, TPolyMatrix, generic_minor, plucker_name
from tropgrass.minplus import tropical_minors
from tropgrass.pvector import INF, PlueckerVector, d_subsets
from tropgrass.treespace import (
    four_point_check,
    j_sigma,
    random_trivalent_tree,
    tree_to_plucker,
)

from test_complexes import reference_smith_factors


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
    order = weight_order(w)
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


@given(
    st.sampled_from([QQ, GF(3), GF(5)]),
    st.integers(0, 3), st.integers(0, 3), st.integers(-3, 3),
)
@settings(max_examples=60, deadline=None)
def test_normal_form_is_linear(field, a, b, c):
    R = PolyRing(field, ["x", "y"])
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


def _elimination_reference(a, b, idx):
    """Compare exponents a, b (-1, 0, 1): degree in the variables idx
    first, then degrevlex (total degree, then the last differing
    exponent, smaller wins)."""
    for x, y in ((sum(a[i] for i in idx), sum(b[i] for i in idx)), (sum(a), sum(b))):
        if x != y:
            return 1 if x > y else -1
    for x, y in zip(reversed(a), reversed(b)):
        if x != y:
            return 1 if x < y else -1
    return 0


def test_elimination_order_matches_reference_comparator():
    rng = random.Random(3)
    for _ in range(400):
        n = rng.randint(1, 5)
        idx = rng.sample(range(n), rng.randint(0, n))
        order = elimination_order(n, idx)
        a = tuple(rng.randint(0, 3) for _ in range(n))
        b = tuple(rng.randint(0, 3) for _ in range(n))
        ka, kb = order.key(a), order.key(b)
        assert (ka > kb) - (ka < kb) == _elimination_reference(a, b, idx)


def test_gf4_reads_integral_fractions_as_ints():
    R = PolyRing(GF4, ["x", "y"])
    x, y = R.gen(0), R.gen(1)
    omega_x = R.from_terms([((1, 0), 2)])
    assert R.parse("x") * 2 == x * Fraction(2) == omega_x
    assert R.parse("x + 2*y") == x + y * 2 != x
    assert GF4(Fraction(-1)) == GF4(-1) == 1
    assert GF4(Fraction(2)) == GF4(2) == 2
    # the criterion-10 certificate over GF(4) is still found
    M, _ = fano_certificate_search(GF4, random.Random(0))
    assert M is not None and plucker_valuations(M) == fano_weight()


def test_groebner_rejects_fields_other_than_q_and_gf_p():
    R = PolyRing(GF4, ["x", "y"])
    f = R.from_terms([((1, 0), 1), ((0, 1), 2)])  # x + omega*y
    with pytest.raises(ValueError, match="QQ and GF\\(p\\)"):
        reduced_groebner_basis([f], degrevlex(2))
    with pytest.raises(ValueError, match="QQ and GF\\(p\\)"):
        normal_form(R.parse("x"), [f], degrevlex(2))
    with pytest.raises(ValueError, match="QQ and GF\\(p\\)"):
        IdealHandle(R, [f]).contains(R.parse("x"))


def test_groebner_over_gf2():
    R = PolyRing(GF(2), ["x", "y"])
    basis = reduced_groebner_basis(
        [R.parse("x^2 + y"), R.parse("y^2 + x")], degrevlex(2)
    )
    I = IdealHandle(R, basis)
    assert I.contains(R.parse("x^4 + x"))


# -- elimination, intersection, toric kernels ----------------------------


def test_eliminate_parametrized_curve():
    for field in (QQ, GF(2), GF(3)):
        R = PolyRing(field, ["t", "x", "y"])
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


def _elimination_kernel(monomial_map, source_ring, target_ring):
    """Reference toric kernel: x_i - image_i in the ring of both variable
    sets, target variables eliminated."""
    comb = PolyRing(source_ring.field, source_ring.variables + target_ring.variables)
    ns, nt = source_ring.nvars, target_ring.nvars
    gens = []
    for i, name in enumerate(source_ring.variables):
        ((texp, tc),) = monomial_map[name].terms.items()
        gens.append(comb.from_terms([
            (tuple(int(j == i) for j in range(ns)) + (0,) * nt, 1),
            ((0,) * ns + texp, comb.field.neg(tc)),
        ]))
    elim = eliminate(IdealHandle(comb, gens), list(target_ring.variables))
    return IdealHandle(source_ring, [MultiPoly(source_ring, dict(g.terms))
                                     for g in elim.generators])


def test_toric_kernel_matches_elimination():
    rng = random.Random(12)
    for trial in range(60):
        field = (QQ, GF(2), GF(3), GF(5))[trial % 4]
        ns, nt, deg = rng.randint(3, 6), rng.randint(1, 3), rng.randint(1, 4)
        src = PolyRing(field, [f"x{i}" for i in range(ns)])
        tgt = PolyRing(field, [f"t{i}" for i in range(nt)])
        exps = [e for e in itertools.product(range(deg + 1), repeat=nt)
                if sum(e) == deg]
        # distinct images where there are enough, so the kernel is not linear
        exps = rng.sample(exps, ns) if len(exps) >= ns else rng.choices(exps, k=ns)
        images = {}
        for name, exp in zip(src.variables, exps):
            c = rng.choice([-3, -2, -1, 1, 2, 3, Fraction(1, 2)]) if field == QQ \
                else rng.randrange(1, field.characteristic)
            images[name] = tgt.monomial(exp, c)
        ker = toric_kernel(images, src, tgt)
        assert ker.equals(_elimination_kernel(images, src, tgt)), (trial, images)


def test_integer_kernel_is_a_saturated_lattice_basis():
    rng = random.Random(3)
    for _ in range(300):
        n, m = rng.randint(1, 7), rng.randint(1, 4)
        vectors = [[rng.randint(-3, 3) for _ in range(m)] for _ in range(n)]
        if rng.random() < 0.3:  # force a dependent column
            i, j = rng.randrange(n), rng.randrange(n)
            vectors[i] = [2 * x for x in vectors[j]]
        basis = ideals._integer_kernel(vectors)
        for u in basis:
            assert all(sum(uj * a[k] for uj, a in zip(u, vectors)) == 0
                       for k in range(m))
        assert len(basis) == n - len(reference_smith_factors(vectors))
        # invariant factors all 1: the basis spans all of ker_Z, no sublattice
        assert reference_smith_factors(basis) == [1] * len(basis)


def test_toric_kernel_rejects_inhomogeneous_kernel():
    src = PolyRing(QQ, ["a", "b"])
    tgt = PolyRing(QQ, ["s"])
    with pytest.raises(ValueError):
        toric_kernel({"a": tgt.parse("s"), "b": tgt.parse("s^2")}, src, tgt)


def test_toric_kernel_budget():
    ring = plucker_ring(3, 6)
    mring = generic_matrix_ring(3, 6)
    flat = [q for row in SAGBI_WEIGHTS for q in row]
    mono_map = {"p_" + "".join(map(str, S)):
                initial_form(generic_minor(mring, 3, 6, S), flat)
                for S in d_subsets(3, 6)}
    with pytest.raises(StepBudgetExceeded):
        toric_kernel(mono_map, ring, mring, max_steps=1)


# -- initial ideals and monomial-freeness --------------------------------


def test_initial_ideal_toy():
    R = PolyRing(QQ, ["x", "y"])
    I = IdealHandle(R, [R.parse("x^2 + x*y")])
    inw = initial_ideal(I, [0, 1])
    assert inw.equals(IdealHandle(R, [R.parse("x^2")]))


def test_equals_rejects_ideals_in_different_rings():
    R = PolyRing(QQ, ["x", "y"])
    I = IdealHandle(R, [R.parse("x")])
    assert I.equals(IdealHandle(R, [R.parse("2*x")]))
    assert not I.equals(IdealHandle(R, [R.parse("y")]))
    for S, text in ((PolyRing(GF(2), ["x", "y"]), "x"),
                    (PolyRing(QQ, ["u", "v"]), "u")):
        with pytest.raises(ValueError, match="different rings"):
            I.equals(IdealHandle(S, [S.parse(text)]))


def test_initial_ideal_seeds_its_reduced_degrevlex_basis():
    # the basis initial_ideal hands over (the initial forms of the
    # weight-order basis) against a fresh degrevlex Buchberger run
    rng = random.Random(5)
    cases = []
    for field in (QQ, GF(2), GF(3)):
        for n in (5, 6):
            ideal = IdealHandle.of(plucker_generators(2, n, field))
            for k in range(6):
                if k % 2:
                    w = tree_to_plucker(random_trivalent_tree(n, rng)).as_list()
                else:
                    w = [rng.randint(0, 3) for _ in range(ideal.ring.nvars)]
                cases.append((ideal, w))
    g36 = IdealHandle.of(plucker_generators(3, 6))
    for _ in range(6):
        rows = [[rng.randint(0, 9) for _ in range(6)] for _ in range(3)]
        cases.append((g36, tropical_minors(rows).as_list()))
    cases += [(g36, [rng.randint(0, 1) for _ in range(20)]) for _ in range(3)]
    for ideal, w in cases:
        inw = initial_ideal(ideal, w)
        order = degrevlex(ideal.ring.nvars)
        fresh = reduced_groebner_basis(inw.generators, order)
        assert inw.reduced_groebner(order) == fresh, (ideal.ring.field, w)


def test_buchberger_runs_per_ideal_request(monkeypatch):
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return reduced_groebner_basis(*args, **kwargs)

    monkeypatch.setattr(ideals, "reduced_groebner_basis", counting)
    # G(3,6) degree: the weight-order run only
    w = tropical_minors([[0, 1, 3, 2, 5, 4], [2, 0, 1, 4, 3, 6], [1, 3, 0, 2, 6, 5]])
    assert degree_of(initial_ideal(IdealHandle.of(plucker_generators(3, 6)),
                                   w.as_list())) == 42
    assert len(calls) == 1
    # tree cone: the weight-order run plus J_sigma's degrevlex run
    calls.clear()
    tree = random_trivalent_tree(7, random.Random(3))
    inw = initial_ideal(IdealHandle.of(plucker_generators(2, 7)),
                        tree_to_plucker(tree).as_list())
    assert inw.equals(IdealHandle.of(j_sigma(tree)))
    assert len(calls) == 2
    # free G(2,6) tree weight: the weight-order run plus one saturation
    # run for each of the 14 variables other than the last
    calls.clear()
    tree = random_trivalent_tree(6, random.Random(4))
    assert is_monomial_free(IdealHandle.of(plucker_generators(2, 6)),
                            tree_to_plucker(tree).as_list()).free
    assert len(calls) == 15


def test_contains_monomial_with_witness():
    R = PolyRing(QQ, ["x", "y"])
    I = IdealHandle(R, [R.parse("x^2")])
    res = contains_monomial(I)
    assert not res.free and res.witness is not None
    assert I.contains(res.witness)
    J = IdealHandle(R, [R.parse("x - y")])
    assert contains_monomial(J).free
    S = PolyRing(QQ, ["x", "y", "z"])
    x, y, z = S.gen(0), S.gen(1), S.gen(2)
    # no element of the degrevlex basis is a monomial, so the witness
    # comes from the search bounded by the saturation exponents
    for k, witness in ((2, "x^4"), (4, "x^8")):
        K = IdealHandle(S, [(x + y) ** k, 3 * x * y + x * z + y * z])
        assert not any(g.is_monomial() for g in K.reduced_groebner(degrevlex(3)))
        res = contains_monomial(K)
        assert not res.free and str(res.witness) == witness
    with pytest.raises(StepBudgetExceeded):
        contains_monomial(K, max_steps=50)  # x^8 is the 120th candidate
    with pytest.raises(ValueError):
        contains_monomial(IdealHandle(S, [x - 1]))


def test_is_monomial_free_flips_with_weight():
    R = PolyRing(QQ, ["x", "y"])
    I = IdealHandle(R, [R.parse("x + y")])
    assert is_monomial_free(I, [0, 0]).free
    res = is_monomial_free(I, [0, 1])  # in_w = <x>
    assert not res.free


def test_d2_monomial_freeness_matches_four_point_condition():
    # w lies in G(2,n) iff in_w(I_{2,n}) has no monomial iff w satisfies
    # the four-point condition: half tree metrics, half random integers
    rng = random.Random(2)
    for n, count in ((5, 200), (6, 100)):
        ideal = IdealHandle.of(plucker_generators(2, n))
        for k in range(count):
            if k % 2:
                w = tree_to_plucker(random_trivalent_tree(n, rng))
            else:
                w = PlueckerVector(2, n, {S: rng.randint(0, 3)
                                          for S in d_subsets(2, n)})
            res = is_monomial_free(ideal, w.as_list())
            assert res.free == four_point_check(w)[0], (n, w.as_list())
            assert res.free or res.witness.is_monomial()


# -- Hilbert degrees ------------------------------------------------------


def test_degree_of_hypersurface_and_points():
    R = PolyRing(QQ, ["x", "y", "z"])
    assert degree_of(IdealHandle(R, [R.parse("x^3 - y^2*z")])) == 3
    # two reduced points on P^1: degree 2
    S = PolyRing(QQ, ["x", "y"])
    assert degree_of(IdealHandle(S, [S.parse("x^2 - y^2")])) == 2


def reference_degree(num):
    """(degree, c) from a Hilbert numerator num = (1 - t)^c * h, by
    dividing by (1 - t) while num(1) = 0, as `degree_of` did before its
    closed form."""
    c = 0
    while sum(num) == 0:
        out = []
        acc = 0
        for x in num[:-1]:
            acc += x
            out.append(acc)
        num = out
        while num and num[-1] == 0:
            num.pop()
        c += 1
    return sum(num), c


def test_degree_of_matches_division_by_one_minus_t():
    """On seeded monomial ideals in up to 6 variables, each generator in
    one or two of them, so that the numerators carry from 1 up to 5
    factors (1 - t)."""
    rng = random.Random(41)
    factors = set()
    for _ in range(600):
        nvars = rng.randint(1, 6)
        exps = []
        for _ in range(rng.randint(1, 10)):
            e = [0] * nvars
            for i in rng.sample(range(nvars), rng.randint(1, min(2, nvars))):
                e[i] = rng.randint(1, 3)
            exps.append(tuple(e))
        num = ideals._hilbert_numerator(exps)
        if not num:
            continue
        degree, c = reference_degree(num)
        R = PolyRing(QQ, [f"x{i}" for i in range(nvars)])
        assert degree_of(IdealHandle(R, [R.monomial(e) for e in exps])) == degree
        factors.add(c)
    assert factors >= set(range(1, 6))


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
    ring = PolyRing(QQ, [plucker_name(S) for S in colex])
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


def reference_t_minor(rows, field, cols):
    """The minor on columns cols of a matrix over field[t] whose entries
    are coefficient lists [c0, c1, ...] or scalars, in coefficient-list
    arithmetic: the list of its coefficients up to the last nonzero one,
    [] for a zero minor."""
    zero = field.zero()

    def trim(coeffs):
        while coeffs and coeffs[-1] == zero:
            coeffs.pop()
        return coeffs

    def coerce(entry):
        return trim([field(c) for c in (
            entry if isinstance(entry, (list, tuple)) else [entry])])

    def mul(a, b):
        if not a or not b:
            return []
        out = [zero] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            if x == zero:
                continue
            for j, y in enumerate(b):
                out[i + j] = field.add(out[i + j], field.mul(x, y))
        return trim(out)

    def add(a, b):
        out = [zero] * max(len(a), len(b))
        for i, x in enumerate(a):
            out[i] = x
        for i, y in enumerate(b):
            out[i] = field.add(out[i], y)
        return trim(out)

    entries = [[coerce(entry) for entry in row] for row in rows]
    det = []
    for perm in itertools.permutations(range(len(entries))):
        sign = sort_sign(perm)[0]
        prod = [field.one()]
        for r, pos in enumerate(perm):
            prod = mul(prod, entries[r][cols[pos] - 1])
            if not prod:
                break
        if not prod:
            continue
        if sign < 0:
            prod = [field.neg(c) for c in prod]
        det = add(det, prod)
    return det


def _random_t_entry(rng, field):
    """A scalar or a coefficient list of t-degree 0-3 over field, zero
    about a fifth of the time, with trailing zeros now and then."""
    if field == QQ:
        pick = lambda: Fraction(rng.randint(-3, 3), rng.randint(1, 3))
    else:
        pick = lambda: field(rng.randrange(4))
    if rng.random() < 0.2:
        return rng.choice([0, [], [0, 0]])
    if rng.random() < 0.2:
        return pick()
    return [pick() for _ in range(rng.randint(1, 4))]


def test_t_minor_matches_coefficient_list_reference():
    rng = random.Random(22)
    vanishing = 0
    for field in (QQ, GF(2), GF(3), GF4):
        for d, n in ((2, 4), (3, 6), (3, 7)):
            for trial in range(12):
                rows = [[_random_t_entry(rng, field) for _ in range(n)]
                        for _ in range(d)]
                if trial % 3 == 0:
                    # a repeated column: every minor through both vanishes
                    a, b = rng.sample(range(n), 2)
                    for row in rows:
                        row[b] = row[a]
                M = TPolyMatrix(rows, field)
                for S in d_subsets(d, n):
                    ref = reference_t_minor(rows, field, S)
                    det = M.minor(S)
                    assert det.total_degree() == len(ref) - 1
                    assert [det.coeff((i,)) for i in range(len(ref))] == ref
                    vanishing += not ref
    assert vanishing > 100


def reference_generic_minor(ring, d, n, cols):
    """The minor on columns cols of the generic d x n matrix, built
    term by term from the exponents of its permutations."""
    terms = []
    for perm in itertools.permutations(range(d)):
        exp = [0] * ring.nvars
        for r, pos in enumerate(perm):
            exp[r * n + cols[pos] - 1] += 1
        terms.append((tuple(exp), sort_sign(perm)[0]))
    return ring.from_terms(terms)


@pytest.mark.parametrize("d,n", [(2, 4), (3, 6), (3, 7), (4, 7)])
def test_generic_minor_matches_exponent_reference(d, n):
    ring = generic_matrix_ring(d, n)
    for S in d_subsets(d, n):
        ref = reference_generic_minor(ring, d, n, S)
        got = generic_minor(ring, d, n, S)
        assert got == ref and str(got) == str(ref)


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
                total += det.coeff((1,))
            assert total % 2 == 0
    M, best = fano_certificate_search(F2, random.Random(0), max_trials=400)
    assert M is None and best <= 6


def test_certificate_requires_characteristic_two():
    with pytest.raises(ValueError):
        fano_certificate_search(QQ, random.Random(0))
