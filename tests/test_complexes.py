"""Simplicial complexes: f-vectors, links, flag complexes, homology."""

import os
import random
import subprocess
import sys
from fractions import Fraction
from itertools import combinations
from math import gcd

import pytest

from tropgrass.complexes import SimplicialComplex, _invariant_factors, _smith_factors
from tropgrass.g36 import TRIANGLE_LINKS, build_delta, build_g36, gv, vertices
from tropgrass.treespace import tn_complex


def circle():
    return SimplicialComplex([1, 2, 3], [[1, 2], [2, 3], [1, 3]])


def sphere2():
    # boundary of the tetrahedron
    faces = [[1, 2, 3], [1, 2, 4], [1, 3, 4], [2, 3, 4]]
    return SimplicialComplex([1, 2, 3, 4], faces)


def projective_plane():
    # minimal 6-vertex triangulation of RP^2
    faces = [
        [1, 2, 3], [1, 3, 4], [1, 4, 5], [1, 2, 6], [1, 5, 6],
        [2, 3, 5], [2, 4, 5], [2, 4, 6], [3, 4, 6], [3, 5, 6],
    ]
    return SimplicialComplex(range(1, 7), faces)


def test_f_vector_and_euler():
    c = circle()
    assert c.f_vector() == (3, 3)
    assert c.euler_characteristic() == 0
    s = sphere2()
    assert s.f_vector() == (4, 6, 4)
    assert s.euler_characteristic() == 2
    assert s.is_pure() and s.dim() == 2


def test_betti_numbers():
    assert circle().betti_numbers() == (1, 1)
    assert sphere2().betti_numbers(check_torsion=True) == (1, 0, 1)
    two_points = SimplicialComplex([1, 2], [[1], [2]])
    assert two_points.betti_numbers() == (2,)


def test_torsion_detection():
    rp2 = projective_plane()
    assert rp2.euler_characteristic() == 1
    assert rp2.betti_numbers() == (1, 0, 0)  # rational homology vanishes
    with pytest.raises(ValueError):
        rp2.betti_numbers(check_torsion=True)  # H_1 = Z/2


def test_flag_complex():
    # 5-cycle: flag complex is the cycle itself
    edges = [(1, 2), (2, 3), (3, 4), (4, 5), (1, 5)]
    c = SimplicialComplex.flag([1, 2, 3, 4, 5], edges)
    assert c.f_vector() == (5, 5)
    # complete graph on 4 vertices: flag complex is the solid tetrahedron
    k4 = SimplicialComplex.flag(
        [1, 2, 3, 4], [(i, j) for i in range(1, 5) for j in range(i + 1, 5)]
    )
    assert k4.f_vector() == (4, 6, 4, 1)
    assert k4.betti_numbers() == (1, 0, 0, 0)
    # isolated vertices survive
    iso = SimplicialComplex.flag([1, 2, 3], [(1, 2)])
    assert iso.f_vector() == (3, 1)


def test_link():
    s = sphere2()
    lk = s.link([1])
    assert lk.f_vector() == (3, 3)  # a circle
    lk2 = s.link([1, 2])
    assert sorted(lk2.vertices) == [3, 4]
    with pytest.raises(ValueError):
        s.link([1, 2, 3, 4])


def test_containment_and_maximal_face_pruning():
    c = SimplicialComplex([1, 2, 3], [[1, 2, 3], [1, 2], [3]])
    assert len(c.maximal_faces) == 1
    assert c.has_face([1, 3])
    assert c.has_face([1, 2, 3, 3])  # duplicate elements collapse
    with pytest.raises(ValueError):
        SimplicialComplex([1, 1], [[1]])
    with pytest.raises(ValueError):
        SimplicialComplex([1], [[2]])


def _reference_maximal(faces):
    """Maximal faces by the direct scan: each face against every kept one."""
    kept = []
    for f in sorted(map(frozenset, faces), key=len, reverse=True):
        if not any(f <= g for g in kept):
            kept.append(f)
    return kept


def test_maximal_faces_from_duplicate_and_nested_faces():
    faces = [[3], [1, 2], [2, 1], [1, 2, 3], [4, 5], [5, 4], [4], [],
             [1, 3], [5, 6], [2, 3, 1], [6]]
    c = SimplicialComplex(range(1, 7), faces)
    assert c.maximal_faces == [frozenset({1, 2, 3}), frozenset({4, 5}),
                               frozenset({5, 6})]
    rng = random.Random(5)
    for _ in range(200):
        faces = [rng.sample(range(8), rng.randint(0, 4)) for _ in range(rng.randint(0, 12))]
        faces += [list(reversed(f)) for f in rng.sample(faces, len(faces) // 3)]
        rng.shuffle(faces)
        assert SimplicialComplex(range(8), faces).maximal_faces == _reference_maximal(faces)


def test_boundary_map_in_degree_zero_is_zero():
    assert SimplicialComplex([1, 2], [[1, 2]]).boundary_matrix(0) == ([{}, {}], 0)
    s = sphere2()
    assert s.boundary_matrix(0) == ([{}] * s.f_vector()[0], 0)


def test_boundary_maps_compose_to_zero():
    for c in (sphere2(), projective_plane(), tn_complex(6), build_g36()):
        for d in range(1, c.dim() + 1):
            lower, _ = c.boundary_matrix(d - 1)
            for col in c.boundary_matrix(d)[0]:
                total = {}
                for r, v in col.items():
                    for k, u in lower[r].items():
                        total[k] = total.get(k, 0) + v * u
                assert not any(total.values()), (c, d, col)


def test_json_round_trip():
    s = sphere2()
    back = SimplicialComplex.from_json(s.to_json())
    assert back.f_vector() == s.f_vector()
    assert back.euler_characteristic() == s.euler_characteristic()


# -- the integer elimination ----------------------------------------------


def reference_smith_factors(a):
    """Reference invariant factors of a dense integer matrix, each dividing
    the next, by row and column operations around the entry of least
    absolute value; independent of the library's row echelon."""
    a = [row[:] for row in a]
    m, n = len(a), len(a[0]) if a else 0
    factors = []
    top = 0
    while top < min(m, n):
        # find smallest nonzero entry at or below/right of (top, top)
        best = None
        for i in range(top, m):
            for j in range(top, n):
                v = a[i][j]
                if v and (best is None or abs(v) < abs(a[best[0]][best[1]])):
                    best = (i, j)
        if best is None:
            break
        bi, bj = best
        a[top], a[bi] = a[bi], a[top]
        for row in a:
            row[top], row[bj] = row[bj], row[top]
        piv = a[top][top]
        dirty = False
        for i in range(top + 1, m):
            q = a[i][top] // piv
            if q:
                for j in range(top, n):
                    a[i][j] -= q * a[top][j]
            if a[i][top]:
                dirty = True
        for j in range(top + 1, n):
            q = a[top][j] // piv
            if q:
                for i in range(top, m):
                    a[i][j] -= q * a[i][top]
            if a[top][j]:
                dirty = True
        if dirty:
            continue
        factors.append(abs(piv))
        top += 1
    # a diagonal form; gcd/lcm exchanges turn it into the divisor chain
    for i in range(len(factors)):
        for j in range(i + 1, len(factors)):
            g = gcd(factors[i], factors[j])
            factors[i], factors[j] = g, factors[i] * factors[j] // g
    return factors


def fraction_rank(cols, nrows):
    """Reference rank over Q by Gaussian elimination on Fractions."""
    rows = [[Fraction(col.get(r, 0)) for col in cols] for r in range(nrows)]
    rank = 0
    for c in range(len(cols)):
        piv = next((r for r in range(rank, nrows) if rows[r][c]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        for r in range(nrows):
            if r != rank and rows[r][c]:
                q = rows[r][c] / rows[rank][c]
                rows[r] = [x - q * y for x, y in zip(rows[r], rows[rank])]
        rank += 1
    return rank


def random_sparse_matrix(rng):
    nrows, ncols = rng.randint(1, 9), rng.randint(1, 9)
    density = rng.choice([0.15, 0.3, 0.6])
    cols = [
        {r: v for r in range(nrows)
         if rng.random() < density and (v := rng.randint(-3, 3))}
        for _ in range(ncols)
    ]
    return cols, nrows


def test_elimination_rank_matches_fraction_rank():
    rng = random.Random(20)
    for _ in range(300):
        cols, nrows = random_sparse_matrix(rng)
        assert len(_invariant_factors(cols)) == fraction_rank(cols, nrows)


def test_elimination_invariant_factors_match_smith():
    rng = random.Random(21)
    nonunit = 0
    for _ in range(300):
        cols, nrows = random_sparse_matrix(rng)
        dense = [[col.get(r, 0) for col in cols] for r in range(nrows)]
        factors = _invariant_factors(cols)
        assert factors == _smith_factors(dense) == reference_smith_factors(dense)
        nonunit += any(f != 1 for f in factors)
    assert nonunit > 20  # the residual block is exercised


def test_smith_factors_form_a_divisor_chain():
    assert _smith_factors([[2, 0], [0, 3]]) == [1, 6]
    assert _smith_factors([[4, 0, 0], [0, 6, 0], [0, 0, 0]]) == [2, 12]
    assert _smith_factors([[0, 0]]) == []
    rng = random.Random(22)
    for _ in range(300):  # dense, larger entries: many echelon rounds
        m, n = rng.randint(1, 6), rng.randint(1, 6)
        a = [[rng.randint(-30, 30) for _ in range(n)] for _ in range(m)]
        assert _smith_factors(a) == reference_smith_factors(a), a


# -- homology: coboundaries with clearing against the plain elimination ----


def reference_betti_numbers(c, check_torsion=False):
    """Betti numbers by eliminating each boundary matrix in ascending d,
    every column, with no transpose and no clearing."""
    top = c.dim()
    if top < 0:
        return ()
    ncells = c.f_vector()
    ranks = [0] * (top + 2)
    for d in range(1, top + 1):
        factors = _invariant_factors(c.boundary_matrix(d)[0])
        ranks[d] = len(factors)
        torsion = [f for f in factors if f != 1]
        if check_torsion and torsion:
            raise ValueError(
                f"torsion detected in boundary map d={d}: "
                f"invariant factors {torsion}"
            )
    return tuple(ncells[d] - ranks[d] - ranks[d + 1] for d in range(top + 1))


def outcome(betti, *args):
    """The Betti numbers, or the text of the ValueError raised instead."""
    try:
        return betti(*args)
    except ValueError as e:
        return str(e)


def suspension(c):
    """The join of c with two new points."""
    apexes = [("north", len(c.vertices)), ("south", len(c.vertices))]
    faces = [set(f) | {apex} for f in c.maximal_faces for apex in apexes]
    return SimplicialComplex(list(c.vertices) + apexes, faces)


def disjoint_union(a, b):
    def tag(k, f):
        return [(k, v) for v in f]

    return SimplicialComplex(
        tag(0, a.vertices) + tag(1, b.vertices),
        [tag(0, f) for f in a.maximal_faces] + [tag(1, f) for f in b.maximal_faces],
    )


def random_flag_complex(rng):
    n = rng.randint(1, 12)
    p = rng.choice([0.2, 0.4, 0.6, 0.8])
    edges = [e for e in combinations(range(n), 2) if rng.random() < p]
    return SimplicialComplex.flag(range(n + rng.randint(0, 2)), edges)


def random_pure_complex(rng, dim):
    """Random (dim+1)-sets on at most 9 vertices; every other one is glued
    onto a relabelled RP^2 (dim 2) or its suspension (dim 3), so that some
    of them have torsion."""
    m = rng.randint(dim + 1, 9)
    faces = [rng.sample(range(m), dim + 1) for _ in range(rng.randint(1, 3 * m))]
    if rng.random() < 0.5:
        base = projective_plane() if dim == 2 else suspension(projective_plane())
        m = max(m, len(base.vertices))
        relabel = dict(zip(base.vertices, rng.sample(range(m), len(base.vertices))))
        faces = faces[: rng.randint(0, 4)]
        faces += [[relabel[v] for v in f] for f in base.maximal_faces]
    return SimplicialComplex(range(m), faces)


def assert_same_homology(c):
    assert c.betti_numbers() == reference_betti_numbers(c), c
    got = outcome(c.betti_numbers, True)
    assert got == outcome(reference_betti_numbers, c, True), c
    return got


def test_betti_numbers_match_reference_on_random_complexes():
    rng = random.Random(23)
    torsion = 0
    for _ in range(120):
        assert_same_homology(random_flag_complex(rng))
    for dim in (2, 3):
        for _ in range(120):
            torsion += isinstance(assert_same_homology(random_pure_complex(rng, dim)), str)
    assert 20 < torsion < 220  # the error path is compared, not only the ranks


def test_betti_numbers_match_reference_with_torsion():
    rp2 = projective_plane()
    assert assert_same_homology(rp2).startswith("torsion detected in boundary map d=2:")
    assert assert_same_homology(suspension(rp2)).startswith(
        "torsion detected in boundary map d=3:")
    # the least d with torsion is the one named
    assert assert_same_homology(disjoint_union(suspension(rp2), rp2)).startswith(
        "torsion detected in boundary map d=2:")
    assert assert_same_homology(suspension(suspension(rp2))) == (
        "torsion detected in boundary map d=4: invariant factors [2]")
    for c in (circle(), sphere2(), SimplicialComplex([1, 2], [[1], [2]]),
              SimplicialComplex([], [])):
        assert_same_homology(c)


def test_betti_numbers_match_reference_on_g36_links_and_tree_spaces():
    g = build_g36()
    for tri, _ in TRIANGLE_LINKS.values():
        assert_same_homology(g.link([gv(x) for x in tri]))
    rng = random.Random(24)
    order = sorted(g.vertices, key=str)
    for d in (0, 1, 2):
        for face in rng.sample(g.faces_of_dim(d), 6):
            assert_same_homology(g.link([order[i] for i in face]))
    for n in (4, 5, 6, 7):
        assert_same_homology(tn_complex(n))
    assert assert_same_homology(build_delta()) == (1, 0, 0, 126, 0)
    assert assert_same_homology(g) == (1, 0, 0, 126)


# -- flag complexes: bitmask Bron-Kerbosch against brute force -------------


def reference_maximal_cliques(labels, edges):
    """Every maximal clique, by testing every vertex subset."""
    adjacent = {frozenset(e) for e in edges}
    cliques = [
        frozenset(s)
        for k in range(1, len(labels) + 1)
        for s in combinations(labels, k)
        if all(frozenset(p) in adjacent for p in combinations(s, 2))
    ]
    return {c for c in cliques if not any(c < o for o in cliques)}


def test_flag_complex_matches_brute_force_cliques_on_mixed_labels():
    pool = ([0, 1, 2, 3, 7, -4] + ["1", "a", "b", "e_123", ""]
            + [(1,), (1, 2), ("a", 3)] + vertices()[::13])
    rng = random.Random(25)
    for _ in range(150):
        labels = rng.sample(pool, rng.randint(0, 10))
        p = rng.choice([0.3, 0.5, 0.7, 0.9])
        edges = [(u, v) if rng.random() < 0.5 else (v, u)
                 for u, v in combinations(labels, 2) if rng.random() < p]
        edges += rng.sample(edges, len(edges) // 4)  # repeated edges
        c = SimplicialComplex.flag(labels, edges)
        assert len(set(c.maximal_faces)) == len(c.maximal_faces)
        assert set(c.maximal_faces) == reference_maximal_cliques(labels, edges)
        assert c.vertices == tuple(labels)


def test_g36_maximal_face_order_does_not_depend_on_the_hash_seed():
    script = (
        "from tropgrass.g36 import build_delta, build_g36\n"
        "for c in (build_delta(), build_g36()):\n"
        "    print([sorted(map(str, f)) for f in c.maximal_faces])\n"
    )
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    outs = []
    for seed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src)
        outs.append(subprocess.run([sys.executable, "-c", script], env=env,
                                   capture_output=True, text=True, check=True).stdout)
    assert outs[0].count("\n") == 2 and "e_123" in outs[0]
    assert outs[0] == outs[1]
