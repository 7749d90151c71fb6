"""Pluecker vectors, the map phi, reduction modulo its image, and the
text of leaf sets."""

import ast
import json
import random
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tropgrass.minplus import TropPolynomial
from tropgrass.pvector import (
    INF,
    PlueckerVector,
    basis_vector,
    d_subsets,
    ext,
    parse_partition,
    parse_subset,
    partition_key,
    phi,
    subset_key,
)
from tropgrass.treespace import (
    SemiLabeledTree,
    Split,
    random_trivalent_tree,
    tree_to_plucker,
)
from tropgrass.troplin import DPartition


def test_subset_enumeration():
    assert d_subsets(2, 4) == [(1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)]
    assert len(d_subsets(3, 7)) == 35
    assert subset_key((1, 3, 7), 7) == "137"
    assert parse_subset("137", 7) == (1, 3, 7)


def test_phi_block_sums():
    a = [1, 2, 3, 4]
    v = phi(a, 2)
    assert v[(1, 2)] == 3 and v[(3, 4)] == 7 and v[(1, 4)] == 5


def test_arithmetic_and_json():
    w = basis_vector(2, 4, (1, 2)) + basis_vector(2, 4, (3, 4))
    assert w[(1, 2)] == 1 and w[(1, 3)] == 0
    assert (w - w) == PlueckerVector(2, 4, {})
    assert PlueckerVector.from_json(w.to_json()) == w
    winf = PlueckerVector(2, 4, {(1, 2): INF, (1, 3): Fraction(1, 2)})
    assert PlueckerVector.from_json(winf.to_json()) == winf


def test_reduce_mod_phi_idempotent_and_kills_phi():
    a = [Fraction(1), Fraction(-2), Fraction(3), Fraction(0), Fraction(5)]
    v = phi(a, 2)
    assert v.reduce_mod_phi() == PlueckerVector(2, 5, {})
    w = basis_vector(2, 5, (1, 2))
    r = w.reduce_mod_phi()
    assert r.reduce_mod_phi() == r


@given(
    st.lists(st.integers(-20, 20), min_size=5, max_size=5),
    st.lists(st.integers(-20, 20), min_size=10, max_size=10),
)
@settings(max_examples=60, deadline=None)
def test_equals_mod_phi_invariance(a, coords):
    w = PlueckerVector(2, 5, dict(zip(d_subsets(2, 5), coords)))
    shifted = w + phi(a, 2)
    assert w.equals_mod_phi(shifted)
    assert w.reduce_mod_phi() == shifted.reduce_mod_phi()


def test_equals_mod_phi_reduces_the_difference_once():
    """Equal modulo image(phi) exactly when the two reductions agree."""
    rng = random.Random(8)
    agree = 0
    for n in range(3, 8):
        for d in range(2, n):
            for _ in range(4):
                w = PlueckerVector(d, n, {S: Fraction(rng.randint(-9, 9), rng.randint(1, 5))
                                          for S in d_subsets(d, n)})
                v = w + phi([Fraction(rng.randint(-9, 9), rng.randint(1, 3))
                             for _ in range(n)], d)
                if rng.random() < 0.5:
                    v = v + basis_vector(d, n, rng.choice(d_subsets(d, n)))
                want = w.reduce_mod_phi() == v.reduce_mod_phi()
                assert w.equals_mod_phi(v) == v.equals_mod_phi(w) == want
                agree += want
    assert 20 < agree < 80


def test_equals_mod_phi_across_shapes_and_infinities():
    w = PlueckerVector(2, 5, {})
    assert not w.equals_mod_phi(PlueckerVector(3, 5, {}))
    assert not w.equals_mod_phi(PlueckerVector(2, 6, {}))
    infinite = PlueckerVector(2, 5, {(1, 2): INF})
    for a, b in ((w, infinite), (infinite, w), (infinite, infinite),
                 (PlueckerVector(2, 6, {}), infinite)):
        with pytest.raises(ValueError, match="infinite coordinates"):
            a.equals_mod_phi(b)


@pytest.mark.parametrize("method", ["reduce_mod_phi", "phi_preimage", "equals_mod_phi"])
def test_phi_methods_name_themselves_when_d_is_out_of_range(method):
    for d, n in ((1, 4), (2, 2), (4, 4)):
        v = PlueckerVector(d, n, {})
        args = (v,) if method == "equals_mod_phi" else ()
        with pytest.raises(ValueError, match=f"^{method} needs 2 <= d < n$"):
            getattr(v, method)(*args)


def _gauss_solve(matrix, rhs):
    """Reference: solve a square rational system by Gaussian elimination."""
    n = len(matrix)
    A = [[Fraction(x) for x in row] + [Fraction(rhs[i])] for i, row in enumerate(matrix)]
    for col in range(n):
        piv = next(r for r in range(col, n) if A[r][col] != 0)
        A[col], A[piv] = A[piv], A[col]
        pv = A[col][col]
        A[col] = [x / pv for x in A[col]]
        for r in range(n):
            if r != col and A[r][col] != 0:
                f = A[r][col]
                A[r] = [x - f * y for x, y in zip(A[r], A[col])]
    return [A[i][n] for i in range(n)]


def _gram_reduction(w):
    """Reference: w minus phi of the solution of phi's normal equations."""
    d, n = w.d, w.n
    gram = [[sum(i in S and j in S for S in w.subsets) for j in range(1, n + 1)]
            for i in range(1, n + 1)]
    rhs = [sum(w[S] for S in w.subsets if i + 1 in S) for i in range(n)]
    return w - phi(_gauss_solve(gram, rhs), d)


def test_reduce_mod_phi_matches_gram_solve():
    """The closed form against solving the normal equations of phi, and
    equals_mod_phi against whether that solve leaves the difference of
    two vectors at zero: pairs that differ by phi of a random vector, and
    pairs that differ by one more unit vector besides."""
    rng = random.Random(5)
    outcomes = {True: 0, False: 0}
    for n in range(3, 9):
        for d in range(2, n):
            zero = PlueckerVector(d, n, {})
            for _ in range(3):
                w = PlueckerVector(d, n, {S: Fraction(rng.randint(-30, 30), rng.randint(1, 4))
                                          for S in d_subsets(d, n)})
                assert w.reduce_mod_phi() == _gram_reduction(w)
                v = w + phi([Fraction(rng.randint(-9, 9), rng.randint(1, 3))
                             for _ in range(n)], d)
                for u in (v, v + basis_vector(d, n, rng.choice(w.subsets))):
                    want = _gram_reduction(w - u) == zero
                    assert w.equals_mod_phi(u) == u.equals_mod_phi(w) == want
                    outcomes[want] += 1
    # at d = n - 1 phi is onto, so only the other shapes give False
    assert outcomes[True] > 70 and outcomes[False] > 40


@pytest.mark.parametrize("n", range(3, 9))
def test_phi_preimage_inverts_phi(n):
    """phi(a).phi_preimage() is a for every 2 <= d < n; one unit vector
    more leaves image(phi), except at d = n - 1, where phi is onto."""
    rng = random.Random(60 + n)
    for d in range(2, n):
        for _ in range(3):
            a = [Fraction(rng.randint(-20, 20), rng.randint(1, 6)) for _ in range(n)]
            v = phi(a, d)
            assert v.phi_preimage() == a
            off = v + basis_vector(d, n, rng.choice(v.subsets))
            if d == n - 1:
                assert phi(off.phi_preimage(), d) == off
            else:
                assert off.phi_preimage() is None
    with pytest.raises(ValueError):
        PlueckerVector(2, n, {(1, 2): INF}).phi_preimage()


def _triangle_preimage(n, pairs):
    """Reference at d = 2: a_1 from the triangle (1, 2, 3), then
    a_j = pairs[(1, j)] - a_1; None if some a_i + a_j misses pairs[(i, j)]."""
    a1 = (pairs[(1, 2)] + pairs[(1, 3)] - pairs[(2, 3)]) / 2
    a = [a1] + [pairs[(1, j)] - a1 for j in range(2, n + 1)]
    if any(a[i - 1] + a[j - 1] != pairs[(i, j)] for i, j in pairs):
        return None
    return a


def test_phi_preimage_matches_the_triangle_solve_on_tree_residuals():
    """What the internal splits leave of a tree's distances is phi of its
    leaf offsets; one unit vector more is outside image(phi) for n >= 4."""
    rng = random.Random(8)
    for n in range(3, 13):
        for _ in range(4):
            tree = random_trivalent_tree(n, rng)
            bare = SemiLabeledTree(n, tree.internal_lengths)
            residual = tree_to_plucker(bare) - tree_to_plucker(tree)
            assert (residual.phi_preimage() == _triangle_preimage(n, residual.coords)
                    == tree.leaf_offsets)
            bent = residual + basis_vector(2, n, rng.choice(residual.subsets))
            assert bent.phi_preimage() == _triangle_preimage(n, bent.coords)
            assert (bent.phi_preimage() is None) == (n > 3)


def test_infinite_coordinates_block_phi_reduction():
    w = PlueckerVector(2, 4, {(1, 2): INF})
    with pytest.raises(ValueError):
        w.reduce_mod_phi()


def test_dimension_mismatch():
    w = PlueckerVector(2, 4, {})
    v = PlueckerVector(2, 5, {})
    with pytest.raises(ValueError):
        _ = w + v


@pytest.mark.parametrize("coords, bad", [
    ({(2, 1): 5, (1, 4): 7}, "(2, 1)"),
    ({(1, 2): 5, (1, 4): 7}, "(1, 4)"),
    ({(1, 2, 3): 1}, "(1, 2, 3)"),
    ({(1, 1): 1}, "(1, 1)"),
])
def test_keys_that_are_not_sorted_subsets_are_rejected(coords, bad):
    with pytest.raises(ValueError, match=re.escape(f"key {bad} is not")):
        PlueckerVector(2, 3, coords)


def test_from_json_rejects_keys_that_are_not_sorted_subsets():
    text = '{"d": 2, "n": 3, "coords": {"12": "1", "21": "5", "14": "7"}}'
    with pytest.raises(ValueError, match="not a sorted 2-subset"):
        PlueckerVector.from_json(text)
    ok = PlueckerVector.from_json('{"d": 2, "n": 3, "coords": {"13": "5"}}')
    assert ok.as_list() == [0, 5, 0]


@pytest.mark.parametrize("d, n", [(2, 10), (3, 10), (2, 12), (1, 11)])
def test_json_round_trip_past_nine_leaves(d, n):
    w = phi(range(n), d) + basis_vector(d, n, tuple(range(n - d + 1, n + 1)))
    text = w.to_json()
    assert PlueckerVector.from_json(text) == w
    # leaves joined by commas, so "1,10" is never read back as (1, 1, 0)
    last = ",".join(map(str, range(n - d + 1, n + 1)))
    assert f'"{last}": ' in text


def test_json_keys_stay_digits_up_to_nine_leaves():
    w = basis_vector(2, 9, (1, 9))
    assert w.to_json().startswith('{"d": 2, "n": 9, "coords": {"12": "0"')
    assert PlueckerVector.from_json('{"d": 2, "n": 9, "coords": {"1,9": "1"}}') == w


def test_json_digit_key_is_refused_past_nine_leaves():
    with pytest.raises(ValueError, match="ambiguous for n = 10"):
        PlueckerVector.from_json('{"d": 2, "n": 10, "coords": {"110": "1"}}')


# -- leaf-set text ------------------------------------------------------------
# JSON keys, d-partition blocks, split sides, circuits and reprs are all
# written by subset_key: digits for n <= 9, leaves joined by commas above.


def leaf_tokens(text):
    """The leaves a leaf-set text names, split at every comma and bar."""
    return [int(v) for v in re.split("[,|]", text)]


@pytest.mark.parametrize("n", range(4, 13))
def test_every_leaf_set_writer_reads_back(n):
    rng = random.Random(n)
    for _ in range(30):
        S = tuple(sorted(rng.sample(range(1, n + 1), rng.randint(1, n))))
        text = subset_key(S, n)
        assert parse_subset(text, n) == S
        assert ("," in text) == (n > 9 and len(S) > 1)

        leaves = rng.sample(range(1, n + 1), n)
        cuts = sorted(rng.sample(range(1, n), rng.randint(1, n - 1)))
        p = DPartition(n, [leaves[a:b] for a, b in zip([0, *cuts], [*cuts, n])])
        assert DPartition.parse(str(p)) == DPartition.parse(str(p), n) == p
        assert parse_partition(partition_key(p.blocks, n), n) == list(p.blocks)

        split = Split(n, rng.sample(range(1, n + 1), rng.randint(2, n - 2)))
        doc = {"n": n, "splits": [{"split": str(split), "length": "1"}],
               "leaf_offsets": ["0"] * n}
        assert SemiLabeledTree.from_split_json(json.dumps(doc)).splits == {split}
        if n > 9:
            assert sorted(leaf_tokens(str(split))) == list(range(1, n + 1))


def test_leaf_sets_are_digits_up_to_nine_leaves():
    assert subset_key((1, 3, 9), 9) == "139"
    assert partition_key([(1, 9), (2, 3)], 9) == "19|23"
    assert str(DPartition(9, [[1, 9], range(2, 9)])) == "19|2345678"
    assert str(Split(9, {1, 9})) == "19|2345678"
    assert repr(basis_vector(2, 9, (1, 9))) == "PlueckerVector(d=2, n=9, {'19': '1'})"
    assert subset_key((1, 3, 10), 10) == "1,3,10"
    assert str(Split(12, {1, 12})) == "1,12|2,3,4,5,6,7,8,9,10,11"


def test_leaf_set_text_refusals():
    with pytest.raises(ValueError, match="partition"):
        DPartition.parse("1,2|34")
    with pytest.raises(ValueError, match="ambiguous for n = 12"):
        PlueckerVector.from_json('{"d": 2, "n": 12, "coords": {"112": "1"}}')
    assert parse_subset("11", 12) == (11,)


def test_reprs_past_nine_leaves_name_each_leaf():
    n = 12
    w = basis_vector(2, n, (1, 2), (1, 11), (11, 12))
    text = repr(w)
    coords = ast.literal_eval(text[text.index("{"):-1])
    assert {parse_subset(key, n) for key in coords} == {(1, 2), (1, 11), (11, 12)}
    assert all(len(leaf_tokens(key)) == 2 for key in coords)

    tree = random_trivalent_tree(n, random.Random(12))
    sides = re.findall(r"([\d,]+\|[\d,]+):", repr(tree))
    assert len(sides) == n - 3
    for text in sides:
        assert sorted(leaf_tokens(text)) == list(range(1, n + 1))
    assert {Split(n, *parse_partition(t, n)) for t in sides} == tree.splits


# -- arithmetic with INF ------------------------------------------------------


def test_arithmetic_refuses_results_outside_the_extended_reals():
    """INF - INF and 0 * INF are undefined and -INF is no extended real
    here; each is refused with the coordinate that would hold it."""
    w = PlueckerVector(2, 4, {(1, 2): INF, (1, 3): 1})
    finite = PlueckerVector(2, 4, {(1, 3): Fraction(1, 2)})
    cases = [
        (lambda: w - w, "undefined"),
        (lambda: finite - w, "-inf"),
        (lambda: -w, "-inf"),
        (lambda: w.scale(-1), "-inf"),
        (lambda: w.scale(Fraction(-1, 3)), "-inf"),
        (lambda: w.scale(0), "undefined"),
    ]
    for op, result in cases:
        with pytest.raises(ValueError, match=f"^coordinate 12 of the result is {result}, "
                                             "which is not an extended real here$"):
            op()
    assert (w + w)[(1, 2)] is INF and (w + w)[(1, 3)] == 2
    assert (w - finite)[(1, 2)] is INF and (w - finite)[(1, 3)] == Fraction(1, 2)
    assert w.scale(3)[(1, 2)] is INF and w.scale(3)[(1, 3)] == 3
    assert -finite == finite.scale(-1) and finite.scale(0) == PlueckerVector(2, 4, {})


@pytest.mark.parametrize("factor", [INF, float("-inf")])
def test_scale_refuses_a_factor_that_is_no_rational(factor):
    w = PlueckerVector(2, 4, {(1, 2): 1})
    with pytest.raises(ValueError, match="^a scale factor must be a rational, not "):
        w.scale(factor)


def test_minus_infinity_is_no_coordinate():
    with pytest.raises(ValueError, match="^a coordinate must be a rational or "
                                         r"\+inf, not -inf$"):
        ext(float("-inf"))
    with pytest.raises(ValueError, match="must be a rational or"):
        PlueckerVector(2, 4, {(1, 2): float("-inf")})
    with pytest.raises(ValueError, match="must be a rational or"):
        TropPolynomial(1, [((1,), float("-inf"))])
    assert ext(float("inf")) is INF and ext(Fraction(1, 3)) == Fraction(1, 3)


def test_arithmetic_names_a_coordinate_past_nine_leaves():
    w = PlueckerVector(2, 10, {(1, 10): INF})
    with pytest.raises(ValueError, match="^coordinate 1,10 of the result is -inf"):
        -w


# -- equals_mod_phi in ints ---------------------------------------------------


@pytest.mark.parametrize("n", range(3, 9))
def test_equals_mod_phi_matches_reduction_for_every_shape(n):
    """Equal pairs v + phi(a) and near misses one coordinate off by 1/q,
    over coprime denominators, for every 2 <= d < n.  At d = n - 1, phi
    is onto, so the near misses are equal too."""
    rng = random.Random(40 + n)

    def rational():
        return Fraction(rng.randint(-20, 20), rng.choice((1, 2, 3, 5, 7, 2**61 - 1)))

    for d in range(2, n):
        for _ in range(3):
            v = PlueckerVector(d, n, {S: rational() for S in d_subsets(d, n)})
            a = [rational() for _ in range(n)]
            same = v + phi(a, d)
            S = rng.choice(d_subsets(d, n))
            off = same + PlueckerVector(d, n, {S: Fraction(rng.choice((-1, 1)),
                                                           rng.choice((1, 3, 11)))})
            for u, want in ((same, True), (off, d == n - 1), (v, True)):
                assert (v.reduce_mod_phi() == u.reduce_mod_phi()) == want
                assert v.equals_mod_phi(u) == u.equals_mod_phi(v) == want
