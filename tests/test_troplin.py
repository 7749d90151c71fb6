"""Tropical planes: circuits, duality, types, oracle reconstruction,
and the complete-intersection obstruction."""

import random
from fractions import Fraction

import pytest

from tropgrass.minplus import trop_linear_form
from tropgrass.pvector import (
    INF,
    PlueckerVector,
    basis_vector,
    d_subsets,
    phi,
    subset_tuple,
)
from tropgrass.treespace import (
    SemiLabeledTree,
    Split,
    random_trivalent_tree,
    star_tree,
    tree_to_plucker,
)
from tropgrass.troplin import (
    CIStatus,
    DegenerateCircuit,
    DPartition,
    PlaneOracle,
    ReconstructionError,
    TropicalPlane,
    ci_status_d2,
    circuits,
    dual,
    is_bounded_face,
    obvious_types,
    plane_type,
    reconstruct_plucker,
)
from tropgrass.g36 import facet_cone_sample


def snowflake_vector():
    """w = e_12 + e_34 + e_56, the three-cherry tree on 6 leaves."""
    return (
        basis_vector(2, 6, (1, 2))
        + basis_vector(2, 6, (3, 4))
        + basis_vector(2, 6, (5, 6))
    )


# -- circuits and duality -------------------------------------------------


def test_dual_of_snowflake():
    wstar = dual(snowflake_vector())
    expected = (
        basis_vector(4, 6, (3, 4, 5, 6))
        + basis_vector(4, 6, (1, 2, 5, 6))
        + basis_vector(4, 6, (1, 2, 3, 4))
    )
    assert wstar == expected


def test_six_printed_circuits_of_dual_plane():
    wstar = dual(snowflake_vector())
    forms = circuits(wstar)
    expected = [
        [0, 0, 0, 0, 1, INF],  # F_12345
        [0, 0, 0, 0, INF, 1],  # F_12346
        [0, 0, 1, INF, 0, 0],  # F_12356
        [0, 0, INF, 1, 0, 0],  # F_12456
        [1, INF, 0, 0, 0, 0],  # F_13456
        [INF, 1, 0, 0, 0, 0],  # F_23456
    ]
    assert forms == [trop_linear_form(c) for c in expected]


def test_dual_is_an_involution():
    rng = random.Random(7)
    coords = {S: rng.randint(-5, 5) for S in d_subsets(3, 6)}
    w = PlueckerVector(3, 6, coords)
    assert dual(dual(w)) == w
    assert dual(w).d == 3 and dual(w).n == 6


def test_degenerate_circuit():
    w = PlueckerVector(2, 4, {(1, 2): INF, (1, 3): INF, (1, 4): 0,
                              (2, 3): 0, (2, 4): 0, (3, 4): 0})
    with pytest.raises(DegenerateCircuit):
        circuits(w)


@pytest.mark.parametrize("n, label", [(4, "123"), (10, "1,2,3")])
def test_degenerate_circuit_is_named_by_its_leaves(n, label):
    w = PlueckerVector(2, n, {(1, 2): INF, (1, 3): INF})
    with pytest.raises(DegenerateCircuit, match=f"^circuit {label} has fewer"):
        circuits(w)


# -- membership -----------------------------------------------------------


def test_membership_on_and_off():
    plane = TropicalPlane(snowflake_vector())
    # a cocircuit point: x_m = w_{I+m} for I = {1}
    w = snowflake_vector()
    x = [100] + [w[tuple(sorted({1, m}))] for m in range(2, 7)]
    res = plane.contains(x)
    assert res and res.violating_circuit is None
    assert x in plane
    off = [0, 0, 0, 1, 2, 4]
    bad = plane.contains(off)
    assert not bad and bad.violating_circuit is not None
    assert off not in plane


@pytest.mark.parametrize("n, point, label", [
    (6, [0, 0, 0, 1, 2, 4], "145"),
    (10, [0, 0, 0, 0, 0, 0, 0, 0, 5, 9], "1,9,10"),
])
def test_membership_repr_names_the_circuit_by_its_leaves(n, point, label):
    res = TropicalPlane(basis_vector(2, n, (1, 2))).contains(point)
    assert repr(res) == f"Membership(False, violating_circuit={label})"


def test_membership_invariant_under_global_shift():
    plane = TropicalPlane(snowflake_vector())
    w = snowflake_vector()
    x = [100] + [w[tuple(sorted({1, m}))] for m in range(2, 7)]
    shifted = [v + Fraction(7, 3) for v in x]
    assert shifted in plane


def test_plane_without_circuits_still_validates_points():
    plane = TropicalPlane(PlueckerVector(4, 4, {}))
    assert plane.circuits() == []
    assert plane.contains([1, 2, Fraction(1, 3), -4])
    for bad in ([1, 2], [INF, 0, 0, 0]):
        with pytest.raises(ValueError):
            plane.contains(bad)


def test_circuits_and_answers_share_the_subset_tuples():
    w = snowflake_vector()
    plane = TropicalPlane(w)
    assert w.subsets is PlueckerVector(2, 6, {}).subsets is subset_tuple(2, 6)
    assert plane.circuit_subsets() is subset_tuple(3, 6)
    assert list(plane.circuit_subsets()) == d_subsets(3, 6)
    bad = plane.contains([0, 0, 0, 1, 2, 4])
    assert any(bad.violating_circuit is J for J in subset_tuple(3, 6))


# -- d-partitions ---------------------------------------------------------


def test_dpartition_parse_and_str():
    p = DPartition.parse("1|23|456")
    assert str(p) == "1|23|456"
    assert p.n == 6 and p.d == 3
    assert p == DPartition(6, [[4, 5, 6], [1], [3, 2]])
    assert not is_bounded_face(p)
    assert is_bounded_face(DPartition.parse("12|34|56"))
    with pytest.raises(ValueError):
        DPartition(6, [[1, 2], [2, 3], [4, 5, 6]])
    with pytest.raises(ValueError):
        DPartition(6, [[1, 2], [3, 4]])


def test_dpartition_past_nine_leaves():
    """Leaves are joined by commas for n >= 10 (the JSON key rule), so
    str and parse round-trip; n <= 9 keeps its digits."""
    p = DPartition(10, [[1, 2], list(range(3, 11))])
    assert str(p) == "1,2|3,4,5,6,7,8,9,10"
    assert DPartition.parse(str(p)) == DPartition.parse(str(p), 10) == p
    singles = DPartition(10, [[i] for i in range(1, 11)])
    assert str(singles) == "1|2|3|4|5|6|7|8|9|10"
    assert DPartition.parse(str(singles)) == singles
    for q in obvious_types(3, 11):
        assert DPartition.parse(str(q)) == q
    assert DPartition.parse("1|2,3|4,5,6") == DPartition.parse("1|23|456")
    assert str(DPartition(9, [[1, 9], range(2, 9)])) == "19|2345678"
    with pytest.raises(ValueError, match="partition"):
        DPartition.parse("12|345678910")


def test_obvious_types():
    obv = obvious_types(3, 6)
    assert len(obv) == 15
    assert DPartition.parse("1|2|3456") in obv
    assert len(obvious_types(2, 5)) == 5


# -- plane types ----------------------------------------------------------


def test_plane_type_of_caterpillar_5():
    t = SemiLabeledTree(
        5, {Split(5, {1, 2}): 1, Split(5, {1, 2, 3}): 1}
    )
    types = plane_type(tree_to_plucker(t))
    expected = obvious_types(2, 5) | {
        DPartition.parse("12|345"),
        DPartition.parse("123|45"),
    }
    assert types == expected


def test_plane_type_of_snowflake_has_nine_edges():
    types = plane_type(snowflake_vector())
    expected = obvious_types(2, 6) | {
        DPartition.parse("12|3456"),
        DPartition.parse("34|1256"),
        DPartition.parse("56|1234"),
    }
    assert types == expected


@pytest.mark.parametrize("n", range(4, 8))
def test_plane_type_of_a_tree_bounds_its_splits(n):
    """At d = 2 the bounded types of L_w are the splits of the tree of w,
    as DPartition objects, and the other types are the obvious ones;
    both for trivalent trees and with one split contracted; fewer trees
    at larger n, where plane_type costs more."""
    rng = random.Random(70 + n)
    for _ in range(9 - n):
        tree = random_trivalent_tree(n, rng)
        dropped = rng.choice(sorted(tree.splits))
        contracted = SemiLabeledTree(
            n, {s: c for s, c in tree.internal_lengths.items() if s != dropped},
            tree.leaf_offsets)
        for t in (tree, contracted):
            types = plane_type(tree_to_plucker(t))
            assert {p for p in types if is_bounded_face(p)} == t.splits
            assert {p for p in types if not is_bounded_face(p)} == obvious_types(2, n)


def test_plane_type_guards():
    with pytest.raises(ValueError):
        plane_type(PlueckerVector(4, 6, {(1, 2, 3, 4): 1}))
    with pytest.raises(ValueError):
        plane_type(PlueckerVector(2, 4, {(1, 2): INF, (1, 3): 0}))


# -- oracle reconstruction ------------------------------------------------


def test_reconstruct_tree_vectors():
    rng = random.Random(5)
    for n in (5, 6, 7):
        t = random_trivalent_tree(n, rng, max_length=1)
        w = tree_to_plucker(t)
        bound = max(abs(v) for v in w.coords.values()) + 1
        got = reconstruct_plucker(PlaneOracle.from_vector(w), bound=bound)
        assert got.equals_mod_phi(w)


def test_reconstruct_g36_sample():
    w = facet_cone_sample("FFGG")
    got = reconstruct_plucker(PlaneOracle.from_vector(w), bound=4)
    assert got.equals_mod_phi(w)


def test_reconstruct_zero_vector():
    w = PlueckerVector(2, 5, {})
    got = reconstruct_plucker(PlaneOracle.from_vector(w))
    assert got.equals_mod_phi(w)


def test_reconstruct_rejects_bad_witnesses():
    w = tree_to_plucker(star_tree(5))
    base = PlaneOracle.from_vector(w)

    low = PlaneOracle(2, 5, base.member, lambda I, M: [0] * 5)
    with pytest.raises(ReconstructionError):
        reconstruct_plucker(low)

    def off_plane_witness(I, M):
        x = base.witness(I, M)
        k = next(m for m in range(1, 6) if m not in I)
        x[k - 1] += Fraction(1, 2)
        return x

    lying = PlaneOracle(2, 5, base.member, off_plane_witness)
    with pytest.raises(ReconstructionError):
        reconstruct_plucker(lying)


def test_reconstruct_infinite_vector_refused():
    w = PlueckerVector(2, 4, {(1, 2): INF, (1, 3): 0})
    with pytest.raises(ValueError):
        PlaneOracle.from_vector(w)


# -- complete intersections -----------------------------------------------


def test_ci_status_snowflake():
    t = SemiLabeledTree(
        6, {Split(6, {1, 2}): 1, Split(6, {3, 4}): 1, Split(6, {5, 6}): 1}
    )
    res = ci_status_d2(t)
    assert res.status == "NotCompleteIntersection"
    assert res.certificate == ((1, 2), (3, 4), (5, 6))


def test_ci_status_caterpillar_unknown():
    t = SemiLabeledTree(
        6,
        {
            Split(6, {1, 2}): 1,
            Split(6, {1, 2, 3}): 1,
            Split(6, {1, 2, 3, 4}): 1,
        },
    )
    assert ci_status_d2(t).status == "Unknown"


def test_ci_status_guards():
    with pytest.raises(ValueError):
        ci_status_d2(star_tree(6))
    with pytest.raises(ValueError):
        ci_status_d2(SemiLabeledTree(4, {Split(4, {1, 2}): 1}))
