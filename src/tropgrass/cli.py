"""Batch command-line front end.

Each subcommand runs one scenario against the library and writes a JSON
report with a "claims" array of {name, expected, actual, pass} entries.
Exit codes: 0 all claims hold, 2 a claim failed, 1 usage error or
exhausted step budget.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys
from fractions import Fraction

from . import g36, treespace, troplin
from .exactalg import (
    GF4,
    IdealHandle,
    StepBudgetExceeded,
    degree_of,
    fano_certificate_search,
    fano_weight,
    field_of_characteristic,
    initial_form,
    initial_ideal,
    intersect_ideals,
    is_monomial_free,
    plucker_generators,
    plucker_ring,
    plucker_valuations,
    toric_kernel,
)
from .exactalg.plucker import _generic_minor, generic_matrix_ring
from .minplus import tropical_minors
from .pvector import PlueckerVector, basis_vector, d_subsets


def _claim(report, name, expected, actual):
    ok = expected == actual
    report["claims"].append(
        {
            "name": name,
            "expected": _jsonable(expected),
            "actual": _jsonable(actual),
            "pass": ok,
        }
    )
    return ok


def _jsonable(x):
    if isinstance(x, (list, tuple)):
        return [_jsonable(v) for v in x]
    if isinstance(x, Fraction):
        return str(x)
    if isinstance(x, (bool, int, str)) or x is None:
        return x
    return str(x)


def _emit(report, output):
    text = json.dumps(report, indent=2, sort_keys=True) + "\n"
    if output:
        with open(output, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0 if all(c["pass"] for c in report["claims"]) else 2


def _load_weight(path) -> PlueckerVector:
    with open(path) as fh:
        return PlueckerVector.from_json(fh.read())


# -- scenarios -----------------------------------------------------------


def cmd_tree_reconstruct(args):
    with open(args.input) as fh:
        w = treespace.dissimilarity_from_csv(fh.read())
    ok, quad = treespace.four_point_check(w)
    report = {"subcommand": "tree reconstruct", "claims": []}
    _claim(report, "four_point_condition", True, ok)
    if not ok:
        report["violating_quadruple"] = list(quad)
        return _emit(report, args.output)
    tree = treespace.additive_linkage(w)
    back = treespace.tree_to_plucker(tree)
    _claim(report, "distance_round_trip", True, back == w)
    report["newick"] = tree.to_newick()
    report["splits"] = json.loads(tree.to_split_json())
    return _emit(report, args.output)


def cmd_treespace_stats(args):
    n = args.n
    complex_ = treespace.tn_complex(n)
    f = complex_.f_vector()
    report = {"subcommand": "treespace stats", "n": n, "claims": []}
    _claim(report, "vertices", 2 ** (n - 1) - n - 1, f[0])
    facets = len(complex_.maximal_faces)
    expected = 1
    for k in range(2 * n - 5, 0, -2):
        expected *= k
    _claim(report, "facets", expected, facets)
    report["f_vector"] = list(f)
    return _emit(report, args.output)


def cmd_treespace_verify_initial(args):
    field = field_of_characteristic(args.char)
    rng = random.Random(args.seed)
    report = {
        "subcommand": "treespace verify-initial",
        "n": args.n,
        "characteristic": args.char,
        "seed": args.seed,
        "claims": [],
    }
    for trial in range(args.trials):
        tree = treespace.random_trivalent_tree(args.n, rng)
        w = treespace.tree_to_plucker(tree).as_list()
        ideal = IdealHandle.of(plucker_generators(2, args.n, field))
        inw = initial_ideal(ideal, w, max_steps=args.budget)
        js = IdealHandle.of(treespace.j_sigma(tree, field))
        _claim(report, f"j_sigma_equals_initial_ideal_{trial}", True, inw.equals(js))
    return _emit(report, args.output)


def cmd_g36_verify(args):
    report = {"subcommand": "g36 verify", "claims": []}
    delta = g36.build_delta()
    _claim(report, "delta_f_vector", [65, 550, 1410, 1065, 15], list(delta.f_vector()))
    complex_ = g36.build_g36()
    _claim(report, "f_vector", [65, 550, 1395, 1035], list(complex_.f_vector()))
    census = g36.facet_census(complex_)
    _claim(
        report,
        "facet_census",
        {"EEEE": 30, "EEFF1": 90, "EEFF2": 90, "EFFG": 180,
         "EEEG": 240, "EEFG": 360, "FFGG": 45},
        census,
    )
    _claim(report, "bipyramid_identity", True, g36.bipyramid_identity_holds())
    if args.homology:
        _claim(
            report,
            "betti_numbers",
            [1, 0, 0, 126],
            list(complex_.betti_numbers(check_torsion=True)),
        )
    if args.links:
        ok, failures = g36.triangle_links_match(complex_)
        _claim(report, "triangle_links", True, ok)
        if failures:
            report["link_failures"] = _jsonable(failures)
    if args.cones:
        ring = plucker_ring(3, 6)
        ideal = IdealHandle(ring, plucker_generators(3, 6))
        for cls in sorted(g36.FACET_SAMPLES):
            w = g36.facet_cone_sample(cls).as_list()
            res = is_monomial_free(ideal, w, max_steps=args.budget)
            _claim(report, f"monomial_free_{cls}", True, res.free)
    return _emit(report, args.output)


def cmd_plane_type(args):
    w = _load_weight(args.w)
    types = troplin.plane_type(troplin.TropicalPlane(w))
    report = {"subcommand": "plane type", "claims": []}
    report["types"] = sorted(str(p) for p in types)
    report["bounded"] = sorted(
        str(p) for p in types if troplin.is_bounded_face(p)
    )
    _claim(report, "nonempty", True, bool(types))
    return _emit(report, args.output)


def cmd_plane_member(args):
    w = _load_weight(args.w)
    x = [Fraction(v) for v in args.point.split(",")]
    res = troplin.TropicalPlane(w).contains(x)
    report = {"subcommand": "plane member", "claims": []}
    report["member"] = bool(res)
    if not res:
        report["violating_circuit"] = "".join(map(str, res.violating_circuit))
    _claim(report, "membership_decided", True, True)
    return _emit(report, args.output)


def cmd_plane_dual(args):
    w = _load_weight(args.w)
    ws = troplin.dual(w)
    report = {"subcommand": "plane dual", "claims": []}
    _claim(report, "involution", True, troplin.dual(ws) == w)
    report["dual"] = json.loads(ws.to_json())
    return _emit(report, args.output)


def cmd_plane_reconstruct(args):
    w = _load_weight(args.w)
    bound = max(
        (abs(v) for v in w.coords.values()), default=Fraction(0)
    )
    oracle = troplin.PlaneOracle.from_vector(w)
    rec = troplin.reconstruct_plucker(oracle, bound=max(bound, 1))
    report = {"subcommand": "plane reconstruct", "claims": []}
    _claim(report, "round_trip_mod_phi", True, rec.equals_mod_phi(w))
    report["reconstructed"] = json.loads(rec.to_json())
    return _emit(report, args.output)


def cmd_groebner(args):
    field = field_of_characteristic(args.char)
    ring = plucker_ring(args.d, args.n, field)
    ideal = IdealHandle(ring, plucker_generators(args.d, args.n, field))
    w = _load_weight(args.w).as_list() if args.w else None
    report = {
        "subcommand": f"groebner {args.action}",
        "d": args.d,
        "n": args.n,
        "characteristic": args.char,
        "claims": [],
    }
    if args.action == "initial":
        inw = initial_ideal(ideal, w, max_steps=args.budget)
        report["generators"] = sorted(str(g) for g in inw.generators)
        _claim(report, "computed", True, True)
    elif args.action == "monomial-free":
        res = is_monomial_free(ideal, w, max_steps=args.budget)
        report["free"] = res.free
        if res.witness is not None:
            report["witness"] = str(res.witness)
        _claim(report, "decided", True, True)
    elif args.action == "degree":
        target = initial_ideal(ideal, w, max_steps=args.budget) if w else ideal
        report["degree"] = degree_of(target, max_steps=args.budget)
        _claim(report, "computed", True, True)
    elif args.action == "intersect":
        w2 = _load_weight(args.w2).as_list()
        a = initial_ideal(ideal, w, max_steps=args.budget)
        b = initial_ideal(ideal, w2, max_steps=args.budget)
        meet = intersect_ideals(a, b, max_steps=args.budget)
        report["generators"] = sorted(str(g) for g in meet.generators)
        _claim(report, "computed", True, True)
    return _emit(report, args.output)


SPECIAL_CUBIC = (
    "2*p_123*p_467*p_567 - p_367*p_567*p_124 - p_167*p_467*p_235"
    " - p_127*p_567*p_346 - p_126*p_367*p_457 - p_237*p_467*p_156"
    " + p_134*p_567*p_267 + p_246*p_567*p_137 + p_136*p_267*p_457"
)


def char7_weight(wprime=False):
    w = fano_weight()
    if wprime:
        w = w - basis_vector(3, 7, (1, 2, 4))
    return w


def cmd_char7(args):
    field = field_of_characteristic(args.char)
    w = char7_weight(args.wprime)
    ring = plucker_ring(3, 7, field)
    f = ring.parse(SPECIAL_CUBIC)
    report = {
        "subcommand": "char7 demo",
        "characteristic": args.char,
        "wprime": args.wprime,
        "claims": [],
    }
    wl = w.as_list()
    inf = initial_form(f, wl)
    report["initial_form_of_special_cubic"] = str(inf)
    if not args.wprime:
        _claim(
            report,
            "initial_form_is_monomial",
            args.char != 2,
            len(inf.terms) == 1,
        )
    ideal = IdealHandle(ring, plucker_generators(3, 7, field))
    res = is_monomial_free(ideal, wl, max_steps=args.budget)
    report["monomial_free"] = res.free
    if res.witness is not None:
        report["witness"] = str(res.witness)
    expected_free = (args.char == 2) != args.wprime
    _claim(report, "monomial_free_matches_characteristic", expected_free, res.free)
    if args.char == 2 and not args.wprime:
        rng = random.Random(args.seed)
        M, trials = fano_certificate_search(GF4, rng)
        _claim(report, "gf4_valuation_certificate_found", True, M is not None)
        if M is not None:
            _claim(
                report,
                "certificate_valuations",
                True,
                plucker_valuations(M) == w,
            )
    return _emit(report, args.output)


SAGBI_WEIGHTS = [
    [2, 1, 2, 1, 0, 0],
    [1, 2, 0, 0, 2, 1],
    [0, 0, 1, 2, 1, 2],
]


def cmd_sagbi(args):
    report = {"subcommand": "sagbi demo", "claims": []}
    w = tropical_minors(SAGBI_WEIGHTS)
    target = g36.gv("g_123456").raw_vector() + g36.gv("g_125634").raw_vector()
    _claim(report, "tropical_minors_hit_gg_cone", True, w == target)
    ring = plucker_ring(3, 6)
    mring = generic_matrix_ring(3, 6)
    flat = [q for row in SAGBI_WEIGHTS for q in row]
    mono_map = {}
    all_monomial = True
    for S in d_subsets(3, 6):
        lead = initial_form(_generic_minor(mring, 3, 6, S), flat)
        if len(lead.terms) != 1:
            all_monomial = False
        mono_map["p_" + "".join(map(str, S))] = lead
    _claim(report, "twenty_initial_forms_are_monomials", True, all_monomial)
    inw = initial_ideal(
        IdealHandle(ring, plucker_generators(3, 6)), w.as_list(),
        max_steps=args.budget,
    )
    P = IdealHandle(
        ring,
        list(inw.generators) + [ring.parse("p_125*p_346 - p_126*p_345")],
    )
    ker = toric_kernel(mono_map, ring, mring, max_steps=args.budget)
    _claim(report, "kernel_equals_P", True, ker.equals(P))
    dk, di = degree_of(ker), degree_of(inw)
    report["degrees"] = {"kernel": dk, "initial_ideal": di}
    _claim(report, "degrees_differ", True, dk != di)
    return _emit(report, args.output)


# -- argument plumbing ---------------------------------------------------


def _env_int(name, default):
    raw = os.environ.get(name)
    return default if raw in (None, "") else int(raw)


def build_parser():
    parser = argparse.ArgumentParser(
        prog="tropgrass", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="group", required=True)

    def common(p):
        p.add_argument("--output", help="write the JSON report here")
        p.add_argument(
            "--budget",
            type=int,
            default=_env_int("TROPGRASS_BUDGET", None),
            help="step budget: S-pairs per Groebner run, witness candidates",
        )
        p.add_argument(
            "--seed",
            type=int,
            default=_env_int("TROPGRASS_SEED", 0),
            help="random seed",
        )

    tree = sub.add_parser("tree").add_subparsers(dest="action", required=True)
    p = tree.add_parser("reconstruct")
    p.add_argument("--input", required=True, help="CSV distance matrix")
    common(p)
    p.set_defaults(func=cmd_tree_reconstruct)

    ts = sub.add_parser("treespace").add_subparsers(dest="action", required=True)
    p = ts.add_parser("stats")
    p.add_argument("--n", type=int, required=True)
    common(p)
    p.set_defaults(func=cmd_treespace_stats)
    p = ts.add_parser("verify-initial")
    p.add_argument("--n", type=int, default=6)
    p.add_argument("--char", type=int, default=0)
    p.add_argument("--trials", type=int, default=3)
    common(p)
    p.set_defaults(func=cmd_treespace_verify_initial)

    g = sub.add_parser("g36").add_subparsers(dest="action", required=True)
    p = g.add_parser("verify")
    p.add_argument("--homology", action="store_true")
    p.add_argument("--links", action="store_true")
    p.add_argument("--cones", action="store_true")
    common(p)
    p.set_defaults(func=cmd_g36_verify)

    pl = sub.add_parser("plane").add_subparsers(dest="action", required=True)
    for name, func, extra in [
        ("type", cmd_plane_type, ()),
        ("member", cmd_plane_member, ("point",)),
        ("dual", cmd_plane_dual, ()),
        ("reconstruct", cmd_plane_reconstruct, ()),
    ]:
        p = pl.add_parser(name)
        p.add_argument("--w", required=True, help="PlueckerVector JSON file")
        for e in extra:
            p.add_argument(f"--{e}", required=True)
        common(p)
        p.set_defaults(func=func)

    gr = sub.add_parser("groebner")
    gr.add_argument("action", choices=["initial", "monomial-free", "degree", "intersect"])
    gr.add_argument("--d", type=int, required=True)
    gr.add_argument("--n", type=int, required=True)
    gr.add_argument("--char", type=int, default=0)
    gr.add_argument("--w", help="PlueckerVector JSON file")
    gr.add_argument("--w2", help="second weight for intersect")
    common(gr)
    gr.set_defaults(func=cmd_groebner)

    c7 = sub.add_parser("char7").add_subparsers(dest="action", required=True)
    p = c7.add_parser("demo")
    p.add_argument("--char", type=int, default=0)
    p.add_argument("--wprime", action="store_true")
    common(p)
    p.set_defaults(func=cmd_char7)

    sg = sub.add_parser("sagbi").add_subparsers(dest="action", required=True)
    p = sg.add_parser("demo")
    common(p)
    p.set_defaults(func=cmd_sagbi)

    return parser


def run(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 1 if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except StepBudgetExceeded as exc:
        sys.stderr.write(f"budget exhausted: {exc}\n")
        return 1
    except (OSError, ValueError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1


def main():
    sys.exit(run())


if __name__ == "__main__":
    main()
