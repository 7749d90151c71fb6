"""Trees, tree metrics, the space of trees, and tree ideals."""

import gc
import json
import random
import tracemalloc
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tropgrass.exactalg import (
    GF,
    QQ,
    IdealHandle,
    initial_form,
    plucker_generators,
    plucker_ring,
    three_term_quadric,
)
from tropgrass.minplus import TropMatrix
from tropgrass.pvector import INF, DPartition, PlueckerVector
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


def test_split_is_a_two_block_d_partition():
    s = Split(6, {3, 4})
    assert isinstance(s, DPartition)
    assert s == DPartition(6, [[3, 4], [1, 2, 5, 6]]) == DPartition.parse("1256|34")
    assert hash(s) == hash(DPartition.parse("1256|34"))
    for n in (6, 12):
        for t in (Split(n, {2, n}), Split(n, {1, 2}, range(3, n + 1))):
            back = Split.parse(str(t), n)
            assert back == t and type(back) is Split and back.A == t.A
    assert Split.parse("12|345").sides() == ({1, 2}, {3, 4, 5})
    for text in ("1|2|3456", "1|23456", "12|346"):
        with pytest.raises(ValueError):
            Split.parse(text, 6)


def test_split_compatibility():
    a = Split(6, {1, 2})
    b = Split(6, {1, 2, 3})
    c = Split(6, {2, 3})
    assert splits_compatible(a, b)
    assert not splits_compatible(a, c)
    with pytest.raises(ValueError):
        splits_compatible(a, Split(5, {1, 2}))


def reference_separates(s, i, j):
    """The frozenset definition: i and j lie on different sides of s."""
    return (i in s.A) != (j in s.A)


def reference_compatible(s, t):
    """The frozenset definition: some side of s lies in some side of t."""
    return any(X <= Y for X in s.sides() for Y in t.sides())


def random_split(rng, n):
    while True:
        side = {j for j in range(1, n + 1) if rng.random() < 0.5}
        if 2 <= len(side) <= n - 2:
            return Split(n, side)


def split_pairs(rng, n):
    """Seeded pairs of splits of [n]: random pairs, a split with itself
    and with the split given by its other side, a crossing pair (one leaf
    of B swapped with one of A), and pairs whose B sides are nested or
    disjoint wherever a leaf can be moved."""
    for _ in range(6):
        s, t = random_split(rng, n), random_split(rng, n)
        yield s, t
        yield s, Split(n, s.B)
        yield s, Split(n, s.A)
        grow = sorted(s.A - {1})
        yield s, Split(n, s.B - {rng.choice(sorted(s.B))} | {rng.choice(grow)})
        if len(grow) >= 2:
            yield s, Split(n, s.B | {rng.choice(grow)})
            yield s, Split(n, set(rng.sample(grow, 2)))


@pytest.mark.parametrize("n", range(4, 21))
def test_split_masks_match_the_frozenset_definitions(n):
    rng = random.Random(100 + n)
    full = (1 << n) - 1
    outcomes = set()
    for s, t in split_pairs(rng, n):
        for u in (s, t):
            assert u.mask == sum(1 << (j - 1) for j in u.B)
            assert Split.from_mask(n, u.mask) == u == Split.from_mask(n, full ^ u.mask)
            p = DPartition(n, u.blocks)
            assert u == p and p == u and hash(u) == hash(p)
        for i, j in combinations(range(1, n + 1), 2):
            assert s.separates(i, j) == s.separates(j, i) == reference_separates(s, i, j)
        got = splits_compatible(s, t)
        assert got == splits_compatible(t, s) == reference_compatible(s, t)
        outcomes.add(got)
    assert outcomes == {True, False}


def test_split_from_mask_refuses_non_splits():
    for n, mask in ((5, 0), (5, 0b00010), (5, 0b11110), (5, 0b100000), (5, -2),
                    (4, 0b1110)):
        with pytest.raises(ValueError, match="is not a split of"):
            Split.from_mask(n, mask)


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
    with pytest.raises(ValueError, match=r"^12\|345 is not a Split of \[6\]$"):
        SemiLabeledTree(6, {Split(5, {1, 2}): 1})
    with pytest.raises(ValueError, match="is not a Split of"):
        SemiLabeledTree(5, {Split(5, {1, 2}): 1, Split(6, {1, 2}): 2})
    with pytest.raises(ValueError, match=r"^12\|3456 is not a Split of \[6\]$"):
        SemiLabeledTree(6, {DPartition(6, [[1, 2], [3, 4, 5, 6]]): 1})


def test_star_trees_on_two_and_three_leaves():
    for n in (2, 3):
        t = star_tree(n)
        assert t.splits == frozenset()
        assert tree_to_plucker(t) == PlueckerVector(2, n, {})
    w = tree_to_plucker(SemiLabeledTree(2, {}, [1, Fraction(1, 2)]))
    assert w == PlueckerVector(2, 2, {(1, 2): Fraction(-3, 2)})
    w = tree_to_plucker(SemiLabeledTree(3, {}, [1, 2, 4]))
    assert w == PlueckerVector(2, 3, {(1, 2): -3, (1, 3): -5, (2, 3): -6})


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


def test_distance_csv_is_trop_matrix_csv():
    w = tree_to_plucker(snowflake())
    text = dissimilarity_to_csv(w)
    assert TropMatrix.from_csv(text).to_csv() == text
    with pytest.raises(ValueError, match="finite entries, not inf"):
        dissimilarity_from_csv("0,inf\ninf,0\n")
    with pytest.raises(ValueError, match="ragged"):
        dissimilarity_from_csv("0,1\n1\n")
    with pytest.raises(ValueError, match="square"):
        dissimilarity_from_csv("0,1,2\n1,0,3\n")
    with pytest.raises(ValueError, match="coordinate 12 of the result is -inf"):
        dissimilarity_to_csv(PlueckerVector(2, 4, {(1, 2): INF}))


def test_additive_linkage_needs_three_leaves_and_finite_distances():
    for w in (PlueckerVector(2, 2, {(1, 2): -3}), PlueckerVector(2, 5, {(1, 2): INF})):
        with pytest.raises(ValueError, match="n >= 3 leaves and finite distances"):
            additive_linkage(w)


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


TN_F_VECTORS = {
    4: (3,),
    5: (10, 15),
    6: (25, 105, 105),
    7: (56, 490, 1260, 945),
    8: (119, 1918, 9450, 17325, 10395),
}


@pytest.mark.parametrize("n", range(4, 9))
def test_tn_complex_vertices_and_f_vectors(n):
    """The vertices are every split of [n] in str order, written as the
    d-partition of its two leaf sets; the f-vector is the known one."""
    leaves = frozenset(range(1, n + 1))
    sides = [frozenset({1, *rest}) for k in range(1, n - 2)
             for rest in combinations(range(2, n + 1), k)]
    want = sorted(str(DPartition(n, [A, leaves - A])) for A in sides)
    complex_ = tn_complex(n)
    assert [str(v) for v in complex_.vertices] == want
    assert complex_.f_vector() == TN_F_VECTORS[n]


def test_tn_complex_homology_wedge_of_spheres():
    # T_n is homotopy equivalent to a wedge of (n-2)! spheres S^{n-4}
    assert tn_complex(5).betti_numbers(check_torsion=True) == (1, 6)
    assert tn_complex(6).betti_numbers(check_torsion=True) == (1, 0, 24)
    # (Robinson & Whitehouse 1996); T_8 with its f-vector
    assert tn_complex(4).betti_numbers(check_torsion=True) == (3,)
    assert tn_complex(7).betti_numbers(check_torsion=True) == (1, 0, 0, 120)
    t8 = tn_complex(8)
    assert t8.f_vector() == (119, 1918, 9450, 17325, 10395)
    assert t8.betti_numbers(check_torsion=True) == (1, 0, 0, 0, 720)


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


def reference_quartet_binomial(ring, tree, quad):
    """The tree binomial of a quadruple as it was first written, by
    formatting variable names: the two non-sibling pairings of
    p_ij*p_kl - p_ik*p_jl + p_il*p_jk with their signs, the first +1."""
    i, j, k, l = quad

    def siblings(a, b, c, dd):
        return any(
            not s.separates(a, b) and not s.separates(c, dd) and s.separates(a, c)
            for s in tree.splits
        )

    terms = [(((i, j), (k, l)), 1), (((i, k), (j, l)), -1), (((i, l), (j, k)), 1)]
    if siblings(i, j, k, l):
        keep = (1, 2)
    elif siblings(i, k, j, l):
        keep = (0, 2)
    elif siblings(i, l, j, k):
        keep = (0, 1)
    else:
        return None

    def mono(e1, e2):
        exp = [0] * ring.nvars
        exp[ring.var_index("p_%d%d" % e1)] += 1
        exp[ring.var_index("p_%d%d" % e2)] += 1
        return tuple(exp)

    out = [(mono(*terms[t][0]), terms[t][1]) for t in keep]
    if out[0][1] < 0:
        out = [(m, -c) for m, c in out]
    return ring.from_terms(out)


def same_terms(f, g):
    """Equal as written: same ring, and the same terms in the same order
    with the same coefficients."""
    return f.ring is g.ring and list(f.terms.items()) == list(g.terms.items())


def sample_trees(n):
    """Every trivalent tree on [n] for n <= 6, and 40 seeded ones at n = 7."""
    if n == 7:
        rng = random.Random(7)
        return [random_trivalent_tree(7, rng) for _ in range(40)]
    return [SemiLabeledTree(n, {s: 1 for s in splits})
            for splits in _trivalent_split_sets(n)]


@pytest.mark.parametrize("field", [QQ, GF(3)], ids=["QQ", "GF3"])
@pytest.mark.parametrize("n", [4, 5, 6, 7])
def test_j_sigma_matches_the_name_formatting_reference(n, field):
    ring = plucker_ring(2, n, field)
    for tree in sample_trees(n):
        expected = [reference_quartet_binomial(ring, tree, q)
                    for q in combinations(range(1, n + 1), 4)]
        got = j_sigma(tree, field)
        assert len(got) == len(expected)
        assert all(map(same_terms, got, expected))


@pytest.mark.parametrize("n", [4, 5, 6, 7])
def test_quadrics_and_crossings_match_their_parsed_names(n):
    ring = plucker_ring(2, n)
    quads = list(combinations(range(1, n + 1), 4))
    for (i, j, k, l), crossing in zip(quads, kempe_crossing_generators(n)):
        text = f"p_{i}{j}*p_{k}{l} - p_{i}{k}*p_{j}{l} + p_{i}{l}*p_{j}{k}"
        assert same_terms(three_term_quadric(ring, i, j, k, l), ring.parse(text))
        assert same_terms(crossing, ring.parse(f"p_{i}{k}*p_{j}{l}"))


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


def test_kept_trees_hold_masks_not_frozensets():
    """A Split keeps its blocks and one int mask: no frozenset and no
    __dict__.  A 20-leaf tree then retains under 12 KB (about 28 KB when
    each split also kept its two sides as frozensets)."""
    rng = random.Random(20)
    random_trivalent_tree(20, rng)
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        trees = [random_trivalent_tree(20, rng) for _ in range(20)]
        gc.collect()
        per_tree = (tracemalloc.get_traced_memory()[0] - before) / len(trees)
    finally:
        tracemalloc.stop()
    assert per_tree < 12 * 1024
    slots = [name for cls in Split.__mro__ for name in getattr(cls, "__slots__", ())]
    for tree in trees:
        for s in tree.internal_lengths:
            assert not hasattr(s, "__dict__")
            assert not any(isinstance(getattr(s, name), frozenset) for name in slots)


def test_random_trivalent_tree_hits_every_shape():
    rng = random.Random(5)
    shapes = {random_trivalent_tree(5, rng).splits for _ in range(200)}
    assert shapes == set(_trivalent_split_sets(5))
    assert len(shapes) == 15
