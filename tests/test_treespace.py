"""Trees, tree metrics, the space of trees, and tree ideals."""

import json
import random
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tropgrass.exactalg import (
    QQ,
    IdealHandle,
    initial_form,
    plucker_generators,
    plucker_ring,
    three_term_quadric,
)
from tropgrass.treespace import (
    SemiLabeledTree,
    Split,
    _trivalent_split_sets,
    additive_linkage,
    circular_weight,
    dissimilarity_from_csv,
    dissimilarity_to_csv,
    four_point_check,
    is_caterpillar,
    j_sigma,
    kempe_crossing_generators,
    random_trivalent_tree,
    splits_compatible,
    star_tree,
    tn_complex,
    tree_to_plucker,
)


# -- splits ---------------------------------------------------------------


def test_split_basics():
    s = Split(6, {3, 4})
    assert s.A == frozenset({1, 2, 5, 6})  # canonical side holds leaf 1
    assert s.separates(3, 1) and not s.separates(3, 4)
    assert s == Split(6, {1, 2, 5, 6})
    assert str(s) == "1256|34"
    with pytest.raises(ValueError):
        Split(6, {3})
    with pytest.raises(ValueError):
        Split(6, {1, 2}, {2, 3, 4, 5, 6})


def test_split_compatibility():
    a = Split(6, {1, 2})
    b = Split(6, {1, 2, 3})
    c = Split(6, {2, 3})
    assert splits_compatible(a, b)
    assert not splits_compatible(a, c)
    with pytest.raises(ValueError):
        splits_compatible(a, Split(5, {1, 2}))


# -- trees and metrics ----------------------------------------------------


def snowflake():
    """The trivalent tree on 6 leaves with three cherry splits."""
    return SemiLabeledTree(
        6,
        {Split(6, {1, 2}): 1, Split(6, {3, 4}): 2, Split(6, {5, 6}): 3},
        [1, 1, 2, 0, 1, 3],
    )


def caterpillar6():
    return SemiLabeledTree(
        6,
        {
            Split(6, {1, 2}): 1,
            Split(6, {1, 2, 3}): 1,
            Split(6, {1, 2, 3, 4}): 2,
        },
    )


def test_tree_construction_guards():
    with pytest.raises(ValueError):
        SemiLabeledTree(6, {Split(6, {1, 2}): 0})
    with pytest.raises(ValueError):
        SemiLabeledTree(6, {Split(6, {1, 2}): 1, Split(6, {2, 3}): 1})
    with pytest.raises(ValueError):
        SemiLabeledTree(4, {Split(4, {1, 2}): 1}, [0, 0, 0])


def test_distances():
    t = snowflake()
    assert t.distance(1, 2) == 2  # offsets only, same cherry
    assert t.distance(1, 3) == 1 + 2 + 1 + 2  # offsets + splits 12, 34
    assert t.distance(4, 6) == 0 + 3 + 2 + 3
    assert t.distance(3, 3) == 0
    assert star_tree(5).distance(2, 4) == 0
    assert t.is_trivalent() and not star_tree(5).is_trivalent()
    assert t.same_topology(
        SemiLabeledTree(6, {s: c + 1 for s, c in t.internal_lengths.items()})
    )


def test_four_point_check():
    ok, quad = four_point_check(tree_to_plucker(snowflake()))
    assert ok and quad is None
    from tropgrass.pvector import PlueckerVector

    bad = PlueckerVector(
        2,
        4,
        {(1, 2): -10, (3, 4): -10, (1, 3): -2, (1, 4): -2, (2, 3): -2, (2, 4): -2},
    )
    ok, quad = four_point_check(bad)
    assert not ok and quad == (1, 2, 3, 4)
    with pytest.raises(ValueError):
        four_point_check(PlueckerVector(3, 6, {}))


@pytest.mark.parametrize("n,seed", [(5, 1), (5, 2), (6, 3), (6, 4), (7, 5)])
def test_additive_linkage_round_trip(n, seed):
    rng = random.Random(seed)
    t = random_trivalent_tree(n, rng)
    back = additive_linkage(tree_to_plucker(t))
    assert back == t


def test_additive_linkage_non_trivalent_and_star():
    t = SemiLabeledTree(6, {Split(6, {1, 2}): 1, Split(6, {5, 6}): 2},
                        [1, 0, 2, 1, 0, 1])
    assert additive_linkage(tree_to_plucker(t)) == t
    s = star_tree(5)
    assert additive_linkage(tree_to_plucker(s)) == s


def test_additive_linkage_rejects_non_tree():
    from tropgrass.pvector import PlueckerVector

    bad = PlueckerVector(
        2,
        4,
        {(1, 2): -10, (3, 4): -10, (1, 3): -2, (1, 4): -2, (2, 3): -2, (2, 4): -2},
    )
    with pytest.raises(ValueError):
        additive_linkage(bad)


@given(st.integers(0, 10 ** 6))
@settings(max_examples=25, deadline=None)
def test_round_trip_property(seed):
    rng = random.Random(seed)
    n = rng.choice([5, 6, 7])
    t = random_trivalent_tree(n, rng)
    w = tree_to_plucker(t)
    assert four_point_check(w) == (True, None)
    assert additive_linkage(w) == t


# -- serialization --------------------------------------------------------


def test_split_json_round_trip():
    t = snowflake()
    assert SemiLabeledTree.from_split_json(t.to_split_json()) == t


def test_split_json_round_trip_beyond_nine_leaves():
    # leaf 12 and leaves 1, 2 would read alike as concatenated digits
    t = random_trivalent_tree(12, random.Random(7))
    text = t.to_split_json()
    assert SemiLabeledTree.from_split_json(text) == t
    for item in json.loads(text)["splits"]:
        a, b = item["split"]
        assert a == sorted(a) and b == sorted(b) and 1 in a
        assert sorted(a + b) == list(range(1, 13))


def test_split_json_reads_digit_strings():
    doc = {
        "n": 6,
        "splits": [{"split": "1234|56", "length": "2"},
                   {"split": "3456|12", "length": "1/2"}],
        "leaf_offsets": ["0", "1", "0", "0", "3", "0"],
    }
    t = SemiLabeledTree.from_split_json(json.dumps(doc))
    assert t == SemiLabeledTree(
        6, {Split(6, {5, 6}): 2, Split(6, {1, 2}): Fraction(1, 2)},
        [0, 1, 0, 0, 3, 0],
    )
    doc["n"] = 12
    with pytest.raises(ValueError):
        SemiLabeledTree.from_split_json(json.dumps(doc))


def test_newick_contains_all_leaves_and_lengths():
    t = snowflake()
    nwk = t.to_newick()
    assert nwk.endswith(";")
    for leaf in range(1, 7):
        assert f"{leaf}:" in nwk


def test_dissimilarity_csv_round_trip():
    w = tree_to_plucker(snowflake())
    text = dissimilarity_to_csv(w)
    assert dissimilarity_from_csv(text) == w
    with pytest.raises(ValueError):
        dissimilarity_from_csv("0,1\n2,0\n")
    with pytest.raises(ValueError):
        dissimilarity_from_csv("1,2\n2,1\n")


# -- the space of trees ---------------------------------------------------


@pytest.mark.parametrize(
    "n,vertices,facets", [(4, 3, 3), (5, 10, 15), (6, 25, 105), (7, 56, 945)]
)
def test_tn_complex_censuses(n, vertices, facets):
    c = tn_complex(n)
    fv = c.f_vector()
    assert fv[0] == vertices
    assert fv[-1] == facets
    assert c.is_pure() and c.dim() == n - 4


def test_tn_complex_homology_wedge_of_spheres():
    # T_n is homotopy equivalent to a wedge of (n-2)! spheres S^{n-4}
    assert tn_complex(5).betti_numbers(check_torsion=True) == (1, 6)
    assert tn_complex(6).betti_numbers(check_torsion=True) == (1, 0, 24)


def test_tn_complex_guard():
    with pytest.raises(ValueError):
        tn_complex(3)


# -- tree ideals ----------------------------------------------------------


def test_kempe_generators():
    gens = kempe_crossing_generators(5)
    assert len(gens) == 5
    names = {str(g) for g in gens}
    assert "p_13*p_24" in names and "p_25*p_14" in names or "p_14*p_25" in names


def test_circular_weight_selects_crossing_terms():
    for n in (4, 5, 6, 7):
        w = circular_weight(n)
        ring = plucker_ring(2, n)
        idx = {
            pair: k
            for k, pair in enumerate(combinations(range(1, n + 1), 2))
        }
        for i, j, k, l in combinations(range(1, n + 1), 4):
            q = three_term_quadric(ring, i, j, k, l)
            inw = initial_form(q, w)
            assert len(inw.terms) == 1
            exp = next(iter(inw.terms))
            crossing = [0] * len(w)
            crossing[idx[(i, k)]] += 1
            crossing[idx[(j, l)]] += 1
            assert exp == tuple(crossing)


def test_j_sigma_generates_initial_ideal_n5():
    rng = random.Random(11)
    t = random_trivalent_tree(5, rng)
    w = [v for v in tree_to_plucker(t).coords.values()]
    ring = plucker_ring(2, 5)
    I = IdealHandle(ring, plucker_generators(2, 5))
    from tropgrass.exactalg import initial_ideal

    inw = initial_ideal(I, [Fraction(x) for x in w])
    J = IdealHandle(ring, j_sigma(t))
    assert inw.equals(J)


def test_j_sigma_requires_trivalent():
    with pytest.raises(ValueError):
        j_sigma(star_tree(6))


# -- shapes ---------------------------------------------------------------


def test_is_caterpillar():
    assert is_caterpillar(caterpillar6())
    assert not is_caterpillar(snowflake())
    rng = random.Random(0)
    assert is_caterpillar(random_trivalent_tree(5, rng))
    with pytest.raises(ValueError):
        is_caterpillar(star_tree(6))


def test_random_trivalent_tree_is_trivalent():
    rng = random.Random(3)
    for n in (5, 6, 7, 8):
        t = random_trivalent_tree(n, rng)
        assert t.is_trivalent() and len(t.internal_lengths) == n - 3


def test_random_trivalent_tree_many_leaves():
    t = random_trivalent_tree(30, random.Random(11))
    assert t.is_trivalent() and len(t.splits) == 27


def test_random_trivalent_tree_hits_every_shape():
    rng = random.Random(5)
    shapes = {random_trivalent_tree(5, rng).splits for _ in range(200)}
    assert shapes == set(_trivalent_split_sets(5))
    assert len(shapes) == 15
