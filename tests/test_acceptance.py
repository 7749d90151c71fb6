"""Acceptance gate: the ten criteria, one test and one printed
PASS/FAIL line each.

Where a published value depends on a choice the paper leaves implicit
(a term-order tie-break, the residue field of a certificate), the
criterion's comments say which choice reproduces it and why.
"""

import contextlib
import math
import random
import signal
import time
from fractions import Fraction
from itertools import combinations

import pytest

from tropgrass import g36, treespace, troplin
from tropgrass.cli import SAGBI_WEIGHTS, SPECIAL_CUBIC, char7_weight
from tropgrass.exactalg import (
    GF4,
    GF,
    QQ,
    IdealHandle,
    PolyRing,
    StepBudgetExceeded,
    degree_of,
    degrevlex,
    expand_on_generic_matrix,
    fano_certificate_search,
    field_of_characteristic,
    initial_form,
    initial_ideal,
    intersect_ideals,
    is_monomial_free,
    normal_form,
    plucker_generators,
    plucker_ring,
    plucker_valuations,
    reduced_groebner_basis,
    toric_kernel,
    weight_order,
)
from tropgrass.exactalg.ideals import _hilbert_numerator, _minimalize_monomials
from tropgrass.exactalg.plucker import generic_matrix_ring, generic_minor, plucker_name
from tropgrass.minplus import tropical_minors
from tropgrass.pvector import d_subsets
from tropgrass.treespace import (
    SemiLabeledTree,
    circular_weight,
    is_caterpillar,
    j_sigma,
    kempe_crossing_generators,
    random_trivalent_tree,
    tn_complex,
    tree_to_plucker,
)
from tropgrass.troplin import (
    DPartition,
    PlaneOracle,
    ci_status_d2,
    circuits,
    obvious_types,
    plane_type,
    reconstruct_plucker,
)


# one line per criterion; echoed into the terminal summary by conftest
ACCEPTANCE_LINES = []


@contextlib.contextmanager
def criterion(number, name, budget_seconds):
    start = time.monotonic()
    try:
        yield
    except BaseException:
        elapsed = time.monotonic() - start
        line = f"ACCEPTANCE {number}: FAIL — {name} ({elapsed:.1f}s)"
        ACCEPTANCE_LINES.append(line)
        print("\n" + line)
        raise
    elapsed = time.monotonic() - start
    line = f"ACCEPTANCE {number}: PASS — {name} ({elapsed:.1f}s)"
    ACCEPTANCE_LINES.append(line)
    print("\n" + line)
    assert elapsed < budget_seconds, (
        f"criterion {number} took {elapsed:.1f}s, budget {budget_seconds}s"
    )


class _Timeout(Exception):
    pass


@contextlib.contextmanager
def _time_limit(seconds):
    if seconds <= 0:
        raise _Timeout

    def handler(signum, frame):
        raise _Timeout

    old = signal.signal(signal.SIGALRM, handler)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, old)


# -- criterion 1 ----------------------------------------------------------


def test_criterion_01_tree_space_censuses():
    with criterion(1, "tree-space censuses", 10):
        assert tn_complex(4).f_vector() == (3,)
        t5 = tn_complex(5)
        assert t5.f_vector() == (10, 15)
        # Petersen graph: 15 edges, 3-regular
        degree = {v: 0 for v in t5.vertices}
        for e in t5.maximal_faces:
            for v in e:
                degree[v] += 1
        assert all(d == 3 for d in degree.values())
        t6 = tn_complex(6)
        assert t6.f_vector() == (25, 105, 105)
        assert len(t6.maximal_faces) == 105
        assert tn_complex(7).f_vector()[:1] == (56,)
        assert len(tn_complex(7).maximal_faces) == 945
        for n in range(4, 10):
            shapes = tn_complex(n).maximal_faces
            splits = {s for shape in shapes for s in shape}
            assert len(splits) == 2 ** (n - 1) - n - 1, n
            assert len(shapes) == math.prod(range(2 * n - 5, 0, -2)), n


# -- criterion 2 ----------------------------------------------------------


def test_criterion_02_tree_initial_ideals():
    with criterion(2, "tree initial ideals equal the quartet ideals", 300):
        rng = random.Random(2024)
        sizes = [5] * 8 + [6] * 7 + [7] * 5
        for n in sizes:
            tree = random_trivalent_tree(n, rng)
            w = tree_to_plucker(tree).as_list()
            for char in (0, 2):
                field = field_of_characteristic(char)
                ideal = IdealHandle.of(plucker_generators(2, n, field))
                inw = initial_ideal(ideal, w)
                js = IdealHandle.of(j_sigma(tree, field))
                assert inw.equals(js), (n, char, tree)


# -- criterion 3 ----------------------------------------------------------


def test_criterion_03_kempe_catalan():
    with criterion(3, "crossing monomial ideal and Catalan degrees", 60):
        for n in (4, 5, 6):
            ideal = IdealHandle.of(plucker_generators(2, n))
            inw = initial_ideal(ideal, circular_weight(n))
            crossing = IdealHandle.of(kempe_crossing_generators(n))
            assert inw.equals(crossing), n
            catalan = math.comb(2 * n - 4, n - 2) // (n - 1)
            assert degree_of(ideal) == catalan, n
        assert [math.comb(2 * n - 4, n - 2) // (n - 1) for n in (4, 5, 6)] == [
            2, 5, 14,
        ]


# -- criterion 4 ----------------------------------------------------------


def test_criterion_04_g36_complex():
    with criterion(4, "G(3,6) complex census and homology", 120):
        delta = g36.build_delta()
        assert delta.f_vector() == (65, 550, 1410, 1065, 15)
        complex_ = g36.build_g36()
        assert complex_.f_vector() == (65, 550, 1395, 1035)
        assert g36.facet_census(complex_) == {
            "EEEE": 30, "EEFF1": 90, "EEFF2": 90, "EFFG": 180,
            "EEEG": 240, "EEFG": 360, "FFGG": 45,
        }
        for tri in g36.missing_fff_triangles():
            a, b, c = sorted(tri, key=str)
            assert g36.is_edge(a, b) and g36.is_edge(a, c) and g36.is_edge(b, c)
            assert not complex_.has_face(tri)
        assert complex_.betti_numbers(check_torsion=True) == (1, 0, 0, 126)
        assert g36.bipyramid_identity_holds()
        ok, failures = g36.triangle_links_match(complex_)
        assert ok, failures


# -- criterion 5 ----------------------------------------------------------


# the 35 binomial generators of in_w(I_{3,6}) at the FFGG sample point
FFGG_BINOMIALS = """
p124*p135-p123*p145 p123*p146-p124*p136 p125*p136-p126*p135
p125*p146-p126*p145 p135*p146-p136*p145 p123*p245-p124*p235
p123*p246-p124*p236 p126*p235-p125*p236 p125*p246-p126*p245
p134*p235-p135*p234 p136*p234-p134*p236 p136*p235-p135*p236
p134*p245-p145*p234 p134*p246-p146*p234 p146*p245-p145*p246
p135*p346-p136*p345 p146*p345-p145*p346 p135*p245-p145*p235
p135*p256-p156*p235 p156*p245-p145*p256 p135*p456-p145*p356
p136*p246-p146*p236 p136*p256-p156*p236 p146*p256-p156*p246
p136*p456-p146*p356 p235*p246-p236*p245 p235*p346-p236*p345
p245*p346-p246*p345 p235*p456-p245*p356 p246*p356-p236*p456
p136*p245-p135*p246 p145*p236-p135*p246 p146*p235-p135*p246
p123*p456-p124*p356 p134*p256-p156*p234
""".split()


def test_criterion_05_g36_algebra():
    with criterion(5, "G(3,6) monomial-freeness and the FFGG ideal", 900):
        ring = plucker_ring(3, 6)
        ideal = IdealHandle(ring, plucker_generators(3, 6))
        for cls in sorted(g36.FACET_SAMPLES):
            w = g36.facet_cone_sample(cls).as_list()
            assert is_monomial_free(ideal, w).free, cls
        w = g36.facet_cone_sample("FFGG").as_list()
        inw = initial_ideal(ideal, w)
        printed = IdealHandle(
            ring, [ring.parse(b.replace("p", "p_")) for b in FFGG_BINOMIALS]
        )
        assert inw.equals(printed)
        P = IdealHandle(
            ring,
            list(inw.generators) + [ring.parse("p_125*p_346 - p_126*p_345")],
        )
        Q = IdealHandle(
            ring,
            list(inw.generators)
            + [
                ring.parse(v)
                for v in ("p_135", "p_136", "p_145", "p_146",
                          "p_235", "p_236", "p_245", "p_246")
            ],
        )
        assert intersect_ideals(P, Q).equals(inw)
        assert (degree_of(P), degree_of(Q), degree_of(ideal)) == (38, 4, 42)


# -- criterion 6 ----------------------------------------------------------


# printed initial forms of the 3x3 minors under the weights W: for each
# column triple, the row assigned to each column and the sign
SAGBI_INITIAL_FORMS = {
    (1, 2, 3): (1, (3, 1, 2)),
    (1, 2, 4): (1, (3, 1, 2)),
    (1, 2, 5): (1, (2, 3, 1)),
    (1, 2, 6): (1, (2, 3, 1)),
    (1, 3, 4): (-1, (3, 2, 1)),
    (1, 3, 5): (-1, (3, 2, 1)),
    (1, 3, 6): (-1, (3, 2, 1)),
    (1, 4, 5): (-1, (3, 2, 1)),
    (1, 4, 6): (-1, (3, 2, 1)),
    (1, 5, 6): (1, (3, 1, 2)),
    (2, 3, 4): (-1, (3, 2, 1)),
    (2, 3, 5): (-1, (3, 2, 1)),
    (2, 3, 6): (-1, (3, 2, 1)),
    (2, 4, 5): (-1, (3, 2, 1)),
    (2, 4, 6): (-1, (3, 2, 1)),
    (2, 5, 6): (1, (3, 1, 2)),
    (3, 4, 5): (-1, (3, 2, 1)),
    (3, 4, 6): (-1, (3, 2, 1)),
    (3, 5, 6): (1, (2, 3, 1)),
    (4, 5, 6): (1, (2, 3, 1)),
}


def test_criterion_06_sagbi_counterexample():
    with criterion(6, "maximal minors are not a universal sagbi basis", 300):
        w = tropical_minors(SAGBI_WEIGHTS)
        target = (
            g36.gv("g_123456").raw_vector() + g36.gv("g_125634").raw_vector()
        )
        assert w == target
        ring = plucker_ring(3, 6)
        mring = generic_matrix_ring(3, 6)
        flat = [q for row in SAGBI_WEIGHTS for q in row]
        mono_map = {}
        for S, (sign, rows) in SAGBI_INITIAL_FORMS.items():
            lead = initial_form(generic_minor(mring, 3, 6, S), flat)
            exp = [0] * 18
            for r, c in zip(rows, S):
                exp[(r - 1) * 6 + (c - 1)] = 1
            assert lead.terms == {tuple(exp): Fraction(sign)}, S
            mono_map["p_" + "".join(map(str, S))] = lead
        ideal = IdealHandle(ring, plucker_generators(3, 6))
        inw = initial_ideal(ideal, w.as_list())
        P = IdealHandle(
            ring,
            list(inw.generators) + [ring.parse("p_125*p_346 - p_126*p_345")],
        )
        kernel = toric_kernel(mono_map, ring, mring)
        assert kernel.equals(P)
        dk, di = degree_of(kernel), degree_of(inw)
        assert (dk, di) == (38, 42) and dk != di


# -- criterion 7 ----------------------------------------------------------


EEFF1_TYPE = """1|23|456 1|56|234 2|13|456 2|56|134 3|12|456 3|56|124
4|12|356 4|56|123 5|12|346 5|46|123 6|12|345 6|45|123 12|34|56""".split()

FFGG_TYPE = """1|34|256 1|56|234 2|34|156 2|56|134 3|12|456 3|56|124
4|12|356 4|56|123 5|12|346 5|34|126 6|12|345 6|34|125 12|34|56""".split()

EEEE_TYPE = """1|23|456 1|234|56 2|13|456 2|135|46 3|12|456 3|126|45
4|26|135 4|126|35 5|16|234 5|126|34 6|15|234 6|135|24""".split()


def _expected_type(nonobvious):
    return {DPartition.parse(s) for s in nonobvious} | obvious_types(3, 6)


def test_criterion_07_tropical_planes():
    with criterion(7, "plane circuits, types and complete intersections", 1800):
        # the six printed circuits of the dual of the three-cherry tree
        from tropgrass.minplus import trop_linear_form
        from tropgrass.pvector import INF, basis_vector
        from tropgrass.treespace import Split

        snowflake = SemiLabeledTree(
            6, {Split(6, {1, 2}): 1, Split(6, {3, 4}): 1, Split(6, {5, 6}): 1}
        )
        w2 = (
            basis_vector(2, 6, (1, 2))
            + basis_vector(2, 6, (3, 4))
            + basis_vector(2, 6, (5, 6))
        )
        forms = circuits(troplin.dual(w2))
        assert forms == [
            trop_linear_form(c)
            for c in (
                [0, 0, 0, 0, 1, INF],
                [0, 0, 0, 0, INF, 1],
                [0, 0, 1, INF, 0, 0],
                [0, 0, INF, 1, 0, 0],
                [1, INF, 0, 0, 0, 0],
                [INF, 1, 0, 0, 0, 0],
            )
        ]
        # the three printed type lists
        sagbi_types = plane_type(g36.facet_cone_sample("EEFF1"))
        assert sagbi_types == _expected_type(EEFF1_TYPE)
        assert len(sagbi_types) == 28
        ffgg_types = plane_type(g36.facet_cone_sample("FFGG"))
        assert ffgg_types == _expected_type(FFGG_TYPE)
        assert len(ffgg_types) == 28
        # the printed EEEE list is the type of the facet
        # {e_123, e_156, e_246, e_345}
        eeee_w = (
            g36.gv("e_123").raw_vector()
            + g36.gv("e_156").raw_vector()
            + g36.gv("e_246").raw_vector()
            + g36.gv("e_345").raw_vector()
        )
        eeee_types = plane_type(eeee_w)
        assert eeee_types == _expected_type(EEEE_TYPE)
        assert len(eeee_types) == 27
        # the three tetrahedra of one bipyramid share the FFGG type
        for fa, fb in combinations(("f_1234", "f_1256", "f_3456"), 2):
            sample = (
                g36.gv(fa).raw_vector()
                + g36.gv(fb).raw_vector()
                + g36.gv("g_123456").raw_vector()
                + g36.gv("g_125634").raw_vector()
            )
            assert plane_type(sample) == ffgg_types, (fa, fb)
        # complete-intersection obstruction
        res = ci_status_d2(snowflake)
        assert res.status == "NotCompleteIntersection"
        for n in (6, 7):
            for shape in tn_complex(n).maximal_faces:
                tree = SemiLabeledTree(n, {s: 1 for s in shape})
                status = ci_status_d2(tree).status
                if is_caterpillar(tree):
                    assert status == "Unknown"
                else:
                    assert status == "NotCompleteIntersection", tree


# -- criterion 8 ----------------------------------------------------------


def test_criterion_08_reconstruction_round_trip():
    with criterion(8, "oracle reconstruction round trips", 600):
        rng = random.Random(88)
        for trial in range(50):
            n = 5 + trial % 3
            tree = random_trivalent_tree(n, rng)
            w = tree_to_plucker(tree)
            bound = max(abs(v) for v in w.coords.values()) + 1
            got = reconstruct_plucker(PlaneOracle.from_vector(w), bound=bound)
            assert got.equals_mod_phi(w), (trial, tree)
        for cls in sorted(g36.FACET_SAMPLES):
            w = g36.facet_cone_sample(cls)
            bound = max(abs(v) for v in w.coords.values()) + 1
            got = reconstruct_plucker(PlaneOracle.from_vector(w), bound=bound)
            assert got.equals_mod_phi(w), cls


# -- criterion 9 ----------------------------------------------------------


def _gr37_hilbert_numerator(top):
    """Numerator of the Hilbert series of Gr(3,7) over (1-t)^35, through
    t^top.  The degree-k piece of the coordinate ring is the GL_7 module
    of the 3 x k rectangle, whose dimension is the hook-content count of
    its semistandard tableaux with entries at most 7."""

    def dim(k):
        return math.prod(
            Fraction(7 + j - i, (3 - i) + (k - j) + 1)
            for i in range(1, 4)
            for j in range(1, k + 1)
        )

    series = [int(dim(k)) for k in range(top + 1)]
    assert series[1:5] == [35, 490, 4116, 24696]
    for _ in range(35):
        series = [c - (series[i - 1] if i else 0) for i, c in enumerate(series)]
    return series


def _basis_census(gb):
    census = {}
    for g in gb:
        census[g.total_degree()] = census.get(g.total_degree(), 0) + 1
    return (len(gb), census.get(2, 0), census.get(3, 0), census.get(4, 0))


def _assert_minimal_basis_of_i37(gb, order):
    """Certify gb as a minimal Groebner basis of I_{3,7} for order, so its
    census is that of the minimal generators of the leading-term ideal
    and does not rest on the Buchberger run alone.  Its elements lie in
    the prime I_{3,7} (they vanish on the generic matrix), so their
    leading monomials generate a subideal of in(I); a subideal with the
    Hilbert series of in(I), that is of Gr(3,7), is all of in(I); and
    minimal leading monomials are its minimal generators."""
    for g in gb:
        assert expand_on_generic_matrix(g, 3, 7).is_zero(), str(g)
    leads = [order.leading_monomial(g) for g in gb]
    assert len(_minimalize_monomials(leads)) == len(leads)
    num = _hilbert_numerator(leads)
    top = 45
    assert len(num) <= top + 1
    num += [0] * (top + 1 - len(num))
    assert num == _gr37_hilbert_numerator(top)


def test_criterion_09_g37_characteristic_dependence():
    with criterion(9, "G(3,7) characteristic dependence (staged)", 3600):
        # the environment caps a test run at ten minutes of wall clock,
        # so stage 3 gets a 240s budget instead of the remainder of the
        # hour; cases that exceed it use the documented fallback suite
        deadline = time.monotonic() + 240
        problems = []
        w = char7_weight()
        wl = w.as_list()
        wp = char7_weight(wprime=True)
        wpl = wp.as_list()

        # stage 1: the reduced Groebner basis over Q in the -w refined
        # order.  A reduced basis is unique for its term order, and
        # weight_order(w) breaks the ties of -w by degrevlex over the ring's
        # variable order, so the census depends on that variable order.
        # The published census (196; 140,52,4) is for the colex order
        # p123, p124, p134, p234, p125, ..., in which Macaulay 2
        # enumerates subsets.  The library's lex order p123, p124, ...,
        # p567 gives (195; 140,51,4).  Both bases carry the same
        # certificate: elements in I_{3,7}, minimal leading monomials, and
        # the Hilbert series of Gr(3,7).
        gens = plucker_generators(3, 7)
        colex = sorted(d_subsets(3, 7), key=lambda S: tuple(reversed(S)))
        ring_c = PolyRing(QQ, [plucker_name(S) for S in colex])
        order_c = weight_order([w[S] for S in colex])
        gb_c = reduced_groebner_basis(
            [ring_c.parse(str(g)) for g in gens], order_c
        )
        got = _basis_census(gb_c)
        if got != (196, 140, 52, 4):
            problems.append(
                f"published basis census (196; 140,52,4) not reproduced in "
                f"the colex order: computed {got[0]} elements with degree "
                f"census ({got[1]},{got[2]},{got[3]})"
            )
        _assert_minimal_basis_of_i37(gb_c, order_c)
        order = weight_order(wl)
        gb = reduced_groebner_basis(gens, order)
        got = _basis_census(gb)
        if got != (195, 140, 51, 4):
            problems.append(
                f"lex-order basis census (195; 140,51,4) not reproduced: "
                f"computed {got[0]} elements with degree census "
                f"({got[1]},{got[2]},{got[3]})"
            )
        _assert_minimal_basis_of_i37(gb, order)

        # stage 2: the special cubic f and its initial forms
        ring0 = plucker_ring(3, 7)
        f = ring0.parse(SPECIAL_CUBIC)
        assert expand_on_generic_matrix(f, 3, 7).is_zero()
        assert normal_form(
            ring_c.parse(SPECIAL_CUBIC), gb_c, order_c
        ).is_zero(), "f not in the basis's ideal"
        # normal form against the partial basis (the generators) stays in I
        nf = normal_form(f, gens, degrevlex(35))
        assert expand_on_generic_matrix(nf, 3, 7).is_zero()
        inf0 = initial_form(f, wl)
        assert str(inf0) == "2*p_123*p_467*p_567"
        ring2 = plucker_ring(3, 7, GF(2))
        inf2 = initial_form(ring2.parse(SPECIAL_CUBIC), wl)
        assert len(inf2.terms) == 7
        # the modified weight isolates the char-marking pair of terms
        infp = initial_form(f, wpl)
        assert len(infp.terms) == 2
        assert len(initial_form(ring2.parse(SPECIAL_CUBIC), wpl).terms) == 1

        # stage 3: monomial-freeness flips, cheapest cases first, within
        # the wall-clock budget; timed-out cases fall back per the spec
        cases = [
            ("char 0, w", 0, wl, False),
            ("char 2, w'", 2, wpl, False),
            ("char 2, w", 2, wl, True),
            ("char 0, w'", 0, wpl, True),
        ]
        timed_out = []
        for label, char, vec, expected_free in cases:
            field = field_of_characteristic(char)
            ideal = IdealHandle.of(plucker_generators(3, 7, field))
            try:
                with _time_limit(deadline - time.monotonic()):
                    res = is_monomial_free(ideal, vec)
            except _Timeout:
                timed_out.append(label)
                continue
            assert res.free == expected_free, label
        if timed_out:
            note = (
                "criterion 9 budget note: monomial-freeness timed out for "
                + " and ".join(timed_out)
                + "; fallback suite (stage 2) passed"
            )
            ACCEPTANCE_LINES.append(note)
            print(note)
        assert not problems, "; ".join(problems)


# -- criterion 10 ---------------------------------------------------------


def test_criterion_10_char2_certificate():
    with criterion(10, "characteristic-2 valuation certificate", 60):
        w = char7_weight()
        # a degree-1 certificate does exist in characteristic 2: over
        # GF(4) the bounded search finds one immediately.  The claim is
        # over an algebraically closed field of characteristic 2, whose
        # residue field contains GF(4), so this certificate witnesses it.
        rng = random.Random(0)
        M4, _ = fano_certificate_search(GF4, rng)
        assert M4 is not None
        assert plucker_valuations(M4) == w
        # over GF(2) itself no certificate exists.  The t-coefficient of a
        # line's minor pairs the columns of E at the line's three points
        # with its wedge a^b.  Through each Fano point c pass three lines
        # {c, a, b} with a + b = c, and their wedges sum to 0 mod 2.  So
        # the seven t-coefficients sum to 0 identically; seven values in
        # GF(2) that sum to 0 cannot all be 1, and at most six of the
        # seven lines reach valuation exactly 1.  The search attains
        # that bound.
        M2, best = fano_certificate_search(GF(2), random.Random(0),
                                           max_trials=5000)
        assert M2 is None and best == 6, (
            f"GF(2)[t] search returned a matrix or missed the bound of "
            f"6 of 7 lines (best {best})"
        )
