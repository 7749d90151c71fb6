"""The 65-vertex complexes Delta and Delta-prime and their census data."""

from itertools import permutations

import pytest

from tropgrass.g36 import (
    E,
    F,
    FACET_SAMPLES,
    G,
    G36Vertex,
    bipyramid_identity_holds,
    build_delta,
    build_g36,
    edge_class_census,
    edges,
    facet_census,
    facet_class,
    facet_cone_sample,
    gv,
    is_edge,
    missing_fff_triangles,
    orbit_of,
    triangle_links_match,
    vertices,
)

# the heavy complexes are shared across tests
DELTA = build_delta()
GPRIME = build_g36()


def test_vertex_parsing_and_canonicalization():
    assert gv("e_123") == E(1, 2, 3) == E(3, 2, 1)
    assert gv("f_1234") == F(1, 2, 3, 4)
    # the g label is canonical under cyclic rotation of its pair triple
    assert gv("g_123456") == gv("g_345612") == gv("g_561234")
    assert gv("g_123456") != gv("g_125634")
    assert str(gv("g_345612")) == "g_123456"
    with pytest.raises(ValueError):
        gv("e_12")
    with pytest.raises(ValueError):
        gv("h_123")
    with pytest.raises(ValueError):
        gv("g_123455")


def test_vertex_counts():
    verts = vertices()
    assert len(verts) == 65
    kinds = {}
    for v in verts:
        kinds[v.kind] = kinds.get(v.kind, 0) + 1
    assert kinds == {"e": 20, "f": 15, "g": 30}


def test_raw_vectors():
    v = E(1, 2, 3).raw_vector()
    assert v[(1, 2, 3)] == 1 and v[(4, 5, 6)] == 0
    f = F(1, 2, 3, 4).raw_vector()
    assert f[(1, 2, 3)] == 1 and f[(1, 2, 4)] == 1 and f[(1, 5, 6)] == 0
    # g_123456 = f_1234 + e_345 + e_346
    g = gv("g_123456").raw_vector()
    support = {S for S, v in g.coords.items() if v}
    assert support == {
        (1, 2, 3), (1, 2, 4), (1, 3, 4), (2, 3, 4), (3, 4, 5), (3, 4, 6)
    }


def test_edge_census():
    assert edge_class_census() == {
        "EE": 100,
        "EF": 120,
        "EG": 180,
        "FF": 45,
        "FG": 90,
        "GG": 15,
    }
    assert len(edges()) == 550


def test_is_edge_examples():
    assert is_edge(E(1, 2, 3), E(1, 4, 5))
    assert not is_edge(E(1, 2, 3), E(1, 2, 4))
    assert is_edge(F(1, 2, 3, 4), F(3, 4, 5, 6))
    assert not is_edge(F(1, 2, 3, 4), F(1, 2, 3, 5))
    assert is_edge(gv("g_123456"), gv("g_125634"))
    assert not is_edge(gv("g_123456"), gv("g_123546"))


def test_delta_f_vector():
    assert DELTA.f_vector() == (65, 550, 1410, 1065, 15)


def test_g36_f_vector_and_purity():
    assert GPRIME.f_vector() == (65, 550, 1395, 1035)
    assert GPRIME.is_pure() and GPRIME.dim() == 3


def test_facet_census():
    assert facet_census(GPRIME) == {
        "EEEE": 30,
        "EEFF1": 90,
        "EEFF2": 90,
        "EFFG": 180,
        "EEEG": 240,
        "EEFG": 360,
        "FFGG": 45,
    }


def test_facet_class_on_samples():
    for cls, names in FACET_SAMPLES.items():
        face = frozenset(gv(x) for x in names)
        assert facet_class(face) == cls
        assert face in {frozenset(f) for f in GPRIME.maximal_faces} or any(
            face <= frozenset(f) for f in GPRIME.maximal_faces
        )


def test_missing_fff_triangles_are_non_faces():
    tris = missing_fff_triangles()
    assert len(tris) == 15
    for tri in tris:
        a, b, c = sorted(tri, key=str)
        assert is_edge(a, b) and is_edge(a, c) and is_edge(b, c)
        assert not GPRIME.has_face(tri)
        # the same triangle is a face of the flag complex Delta, which is
        # exactly why Delta-prime is not flag
        assert DELTA.has_face(tri)


def reference_g_vertices_and_pairings():
    """The G-vertices and pairings of [6] in first-seen order over the
    720 permutations of [6], as `g36` listed them by permutation scan."""
    gs, pairings = [], []
    for perm in permutations(range(1, 7)):
        pairs = [perm[0:2], perm[2:4], perm[4:6]]
        v = G36Vertex("g", pairs)
        if v not in gs:
            gs.append(v)
        pairing = tuple(sorted(tuple(sorted(p)) for p in pairs))
        if pairing not in pairings:
            pairings.append(pairing)
    return gs, pairings


def test_vertices_and_missing_triangles_match_permutation_scan():
    gs, pairings = reference_g_vertices_and_pairings()
    assert len(gs) == 30 and len(pairings) == 15
    assert vertices()[35:] == gs
    assert missing_fff_triangles() == [
        frozenset([F(*p1, *p2), F(*p1, *p3), F(*p2, *p3)])
        for p1, p2, p3 in pairings]


def test_euler_characteristic_and_homology():
    assert GPRIME.euler_characteristic() == -125
    assert GPRIME.betti_numbers(check_torsion=True) == (1, 0, 0, 126)


def test_bipyramid_identity():
    assert bipyramid_identity_holds()


def test_orbits_match_census():
    census = facet_census(GPRIME)
    for cls, names in FACET_SAMPLES.items():
        face = frozenset(gv(x) for x in names)
        assert len(orbit_of(face)) == census[cls]
    assert len(orbit_of(E(1, 2, 3))) == 20
    assert len(orbit_of(gv("g_123456"))) == 30


def test_triangle_links():
    ok, failures = triangle_links_match(GPRIME)
    assert ok, failures


def test_facet_cone_samples():
    w = facet_cone_sample("FFGG")
    raws = [gv(x).raw_vector() for x in FACET_SAMPLES["FFGG"]]
    total = raws[0]
    for r in raws[1:]:
        total = total + r
    assert w == total
    with pytest.raises(ValueError):
        facet_cone_sample("ABCD")


def test_is_edge_is_symmetric():
    verts = vertices()
    for i, u in enumerate(verts):
        for v in verts[i + 1:]:
            assert is_edge(u, v) == is_edge(v, u), (u, v)
    with pytest.raises(ValueError):
        is_edge(verts[0], verts[0])


def test_permutation_action_preserves_edges():
    perm = (2, 3, 4, 5, 6, 1)
    for u, v in edges()[:100]:
        assert is_edge(u.permuted(perm), v.permuted(perm))
