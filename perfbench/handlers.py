"""One handler per request kind.

Each handler calls the library's public functions in the order the
matching `tropgrass.cli` subcommand does, every call through
`t.call("<module>.<function>", ...)` so a tracer can time it.  Answers
keep the library's objects; checks.py inspects them after the loop.
"""

from __future__ import annotations

import json
from fractions import Fraction
from itertools import combinations

from tropgrass import exactalg, minplus, treespace, troplin
from tropgrass.pvector import PlueckerVector

# Buchberger S-pair budget per call; exhausting it fails the request.
BUDGET = 20000


def tree(t, req):
    """cli: tree reconstruct."""
    w = t.call("treespace.dissimilarity_from_csv",
               treespace.dissimilarity_from_csv, req["csv"])
    ok, quad = t.call("treespace.four_point_check", treespace.four_point_check, w)
    if not ok:
        return {"accepted": False, "quad": quad}
    tree_ = t.call("treespace.additive_linkage", treespace.additive_linkage, w)
    back = t.call("treespace.tree_to_plucker", treespace.tree_to_plucker, tree_)
    return {
        "accepted": True,
        "tree": tree_,
        "round_trip": t.call("pvector.eq", back.__eq__, w),
        "newick": t.call("treespace.to_newick", tree_.to_newick),
        "split_json": t.call("treespace.to_split_json", tree_.to_split_json),
    }


def _load(t, req):
    return t.call("pvector.from_json", PlueckerVector.from_json,
                  json.dumps(req["w"]))


def witness_points(w):
    """The cocircuit points of L_w: x_i = M on a (d-1)-subset I and
    x_m = w_{I+m} elsewhere, with M far above every coordinate."""
    bound = max(abs(v) for v in w.coords.values()) + 1
    M = 4 * bound * w.n + 1
    points = []
    for I in combinations(range(1, w.n + 1), w.d - 1):
        points.append([
            M if m in I else w.coords[tuple(sorted(I + (m,)))]
            for m in range(1, w.n + 1)
        ])
    return points


def oracle(t, req):
    """cli: plane member (over a batch of points), plane dual, plane
    reconstruct; matrix requests first take tropical minors."""
    if "matrix" in req:
        w = t.call("minplus.tropical_minors", minplus.tropical_minors,
                   req["matrix"])
    else:
        w = _load(t, req)
    plane = t.call("troplin.TropicalPlane", troplin.TropicalPlane, w)
    t.call("troplin.circuits", plane.circuits)
    points = witness_points(w)
    witnesses = len(points)
    points += [[Fraction(v) for v in p] for p in req["points"]]
    member = [t.call("troplin.contains", plane.contains, x) for x in points]
    ws = t.call("troplin.dual", troplin.dual, w)
    back = t.call("troplin.dual", troplin.dual, ws)
    involution = t.call("pvector.eq", back.__eq__, w)
    dual_json = t.call("pvector.to_json", ws.to_json)
    bound = max((abs(v) for v in w.coords.values()), default=Fraction(0))
    orc = t.call("troplin.PlaneOracle.from_vector",
                 troplin.PlaneOracle.from_vector, w)
    rec = t.call("troplin.reconstruct_plucker", troplin.reconstruct_plucker,
                 orc, bound=max(bound, 1))
    return {
        "w": w,
        "points": points,
        "witnesses": witnesses,
        "member": [(bool(m), m.violating_circuit) for m in member],
        "involution": involution,
        "dual_json": dual_json,
        "round_trip": t.call("pvector.equals_mod_phi", rec.equals_mod_phi, w),
        "reconstructed_json": t.call("pvector.to_json", rec.to_json),
    }


def plane_type(t, req):
    """cli: plane type."""
    w = _load(t, req)
    plane = t.call("troplin.TropicalPlane", troplin.TropicalPlane, w)
    types = t.call("troplin.plane_type", troplin.plane_type, plane)
    return {
        "types": sorted(str(p) for p in types),
        "bounded": sorted(
            str(p) for p in types
            if t.call("troplin.is_bounded_face", troplin.is_bounded_face, p)
        ),
    }


def tree_cone(t, req):
    """cli: treespace verify-initial, on the request's tree."""
    n = req["n"]
    field = t.call("exactalg.field_of_characteristic",
                   exactalg.field_of_characteristic, req["char"])
    tree_ = t.call("treespace.SemiLabeledTree.from_split_json",
                   treespace.SemiLabeledTree.from_split_json,
                   json.dumps(req["tree"]))
    w = t.call("treespace.tree_to_plucker", treespace.tree_to_plucker, tree_)
    w = t.call("pvector.as_list", w.as_list)
    gens = t.call("exactalg.plucker_generators", exactalg.plucker_generators,
                  2, n, field)
    ideal = t.call("exactalg.IdealHandle.of", exactalg.IdealHandle.of, gens)
    inw = t.call("exactalg.initial_ideal", exactalg.initial_ideal, ideal, w,
                 max_steps=BUDGET)
    js = t.call("treespace.j_sigma", treespace.j_sigma, tree_, field)
    js = t.call("exactalg.IdealHandle.of", exactalg.IdealHandle.of, js)
    return {"generators": inw.generators,
            "equal": t.call("exactalg.equals", inw.equals, js)}


def _plucker_ideal(t, d, n):
    field = t.call("exactalg.field_of_characteristic",
                   exactalg.field_of_characteristic, 0)
    ring = t.call("exactalg.plucker_ring", exactalg.plucker_ring, d, n, field)
    gens = t.call("exactalg.plucker_generators", exactalg.plucker_generators,
                  d, n, field)
    return t.call("exactalg.IdealHandle", exactalg.IdealHandle, ring, gens)


def g36_degree(t, req):
    """cli: groebner degree --d 3 --n 6 --w, at tropical minors."""
    w = t.call("minplus.tropical_minors", minplus.tropical_minors, req["matrix"])
    ideal = _plucker_ideal(t, 3, 6)
    inw = t.call("exactalg.initial_ideal", exactalg.initial_ideal, ideal,
                 t.call("pvector.as_list", w.as_list), max_steps=BUDGET)
    return {"w": w, "degree": t.call("exactalg.degree_of", exactalg.degree_of,
                                     inw, max_steps=BUDGET)}


def monomial_free(t, req):
    """cli: groebner monomial-free --d 2."""
    ideal = _plucker_ideal(t, 2, req["n"])
    w = t.call("pvector.as_list", _load(t, req).as_list)
    res = t.call("exactalg.is_monomial_free", exactalg.is_monomial_free,
                 ideal, w, max_steps=BUDGET)
    return {"free": res.free, "witness": res.witness}


HANDLERS = {
    "tree_exact": tree,
    "tree_perturbed": tree,
    "oracle": oracle,
    "oracle_2x8": oracle,
    "oracle_3x7": oracle,
    "type": plane_type,
    "tree_cone": tree_cone,
    "g36_degree": g36_degree,
    "reject": monomial_free,
    "free_tree": monomial_free,
}
