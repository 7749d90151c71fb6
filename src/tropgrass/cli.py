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
from .exactalg.plucker import generic_matrix_ring, generic_minor
from .minplus import tropical_minors
from .pvector import PlueckerVector, basis_vector, d_subsets, subset_key


def _claim(report, name, expected, actual):
    report["claims"].append({"name": name, "expected": _jsonable(expected),
                             "actual": _jsonable(actual), "pass": expected == actual})


def _jsonable(x):
    if isinstance(x, (list, tuple)):
        return [_jsonable(v) for v in x]
    if isinstance(x, dict):
        return {str(k): _jsonable(v) for k, v in x.items()}
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
# Each fills in the report frame that run() made for it.


def cmd_tree_reconstruct(args, report):
    with open(args.input) as fh:
        w = treespace.dissimilarity_from_csv(fh.read())
    ok, quad = treespace.four_point_check(w)
    _claim(report, "four_point_condition", True, ok)
    if not ok:
        report["violating_quadruple"] = list(quad)
        return
    tree = treespace.additive_linkage(w)
    back = treespace.tree_to_plucker(tree)
    _claim(report, "distance_round_trip", True, back == w)
    report["newick"] = tree.to_newick()
    report["splits"] = json.loads(tree.to_split_json())


def cmd_treespace_stats(args, report):
    n = args.n
    complex_ = treespace.tn_complex(n)
    f = complex_.f_vector()
    report["n"] = n
    _claim(report, "vertices", 2 ** (n - 1) - n - 1, f[0])
    facets = len(complex_.maximal_faces)
    expected = 1
    for k in range(2 * n - 5, 0, -2):
        expected *= k
    _claim(report, "facets", expected, facets)
    report["f_vector"] = list(f)


def cmd_treespace_verify_initial(args, report):
    field = field_of_characteristic(args.char)
    rng = random.Random(args.seed)
    report.update(n=args.n, characteristic=args.char, seed=args.seed)
    for trial in range(args.trials):
        tree = treespace.random_trivalent_tree(args.n, rng)
        w = treespace.tree_to_plucker(tree).as_list()
        ideal = IdealHandle.of(plucker_generators(2, args.n, field))
        inw = initial_ideal(ideal, w, max_steps=args.budget)
        js = IdealHandle.of(treespace.j_sigma(tree, field))
        _claim(report, f"j_sigma_equals_initial_ideal_{trial}", True, inw.equals(js))


def cmd_g36_verify(args, report):
    delta = g36.build_delta()
    _claim(report, "delta_f_vector", [65, 550, 1410, 1065, 15], list(delta.f_vector()))
    complex_ = g36.build_g36()
    _claim(report, "f_vector", [65, 550, 1395, 1035], list(complex_.f_vector()))
    census = g36.facet_census(complex_)
    _claim(report, "facet_census",
           {"EEEE": 30, "EEFF1": 90, "EEFF2": 90, "EFFG": 180,
            "EEEG": 240, "EEFG": 360, "FFGG": 45}, census)
    _claim(report, "bipyramid_identity", True, g36.bipyramid_identity_holds())
    if args.homology:
        _claim(report, "betti_numbers", [1, 0, 0, 126],
               list(complex_.betti_numbers(check_torsion=True)))
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


def cmd_plane_type(args, report):
    w = _load_weight(args.w)
    types = troplin.plane_type(troplin.TropicalPlane(w))
    report["types"] = sorted(str(p) for p in types)
    report["bounded"] = sorted(str(p) for p in types if troplin.is_bounded_face(p))
    _claim(report, "nonempty", True, bool(types))


def cmd_plane_member(args, report):
    w = _load_weight(args.w)
    x = [Fraction(v) for v in args.point.split(",")]
    res = troplin.TropicalPlane(w).contains(x)
    report["member"] = bool(res)
    if not res:
        report["violating_circuit"] = subset_key(res.violating_circuit, w.n)
    _claim(report, "membership_decided", True, True)


def cmd_plane_dual(args, report):
    w = _load_weight(args.w)
    ws = troplin.dual(w)
    _claim(report, "involution", True, troplin.dual(ws) == w)
    report["dual"] = json.loads(ws.to_json())


def cmd_plane_reconstruct(args, report):
    w = _load_weight(args.w)
    bound = max((abs(v) for v in w.coords.values()), default=Fraction(0))
    oracle = troplin.PlaneOracle.from_vector(w)
    rec = troplin.reconstruct_plucker(oracle, bound=max(bound, 1))
    _claim(report, "round_trip_mod_phi", True,
           rec.reduce_mod_phi() == w.reduce_mod_phi())
    report["reconstructed"] = json.loads(rec.to_json())


def _plucker_ideal(args, report):
    """I_{d,n} over the field of args.char, recorded in the report."""
    field = field_of_characteristic(args.char)
    ring = plucker_ring(args.d, args.n, field)
    ideal = IdealHandle(ring, plucker_generators(args.d, args.n, field))
    report.update(d=args.d, n=args.n, characteristic=args.char)
    return ideal


def cmd_groebner_initial(args, report):
    ideal = _plucker_ideal(args, report)
    inw = initial_ideal(ideal, _load_weight(args.w).as_list(), max_steps=args.budget)
    report["generators"] = sorted(str(g) for g in inw.generators)
    _claim(report, "computed", True, True)


def cmd_groebner_monomial_free(args, report):
    ideal = _plucker_ideal(args, report)
    res = is_monomial_free(ideal, _load_weight(args.w).as_list(), max_steps=args.budget)
    report["free"] = res.free
    if res.witness is not None:
        report["witness"] = str(res.witness)
    _claim(report, "decided", True, True)


def cmd_groebner_degree(args, report):
    target = _plucker_ideal(args, report)
    if args.w:
        w = _load_weight(args.w).as_list()
        target = initial_ideal(target, w, max_steps=args.budget)
    report["degree"] = degree_of(target, max_steps=args.budget)
    _claim(report, "computed", True, True)


def cmd_groebner_intersect(args, report):
    ideal = _plucker_ideal(args, report)
    w, w2 = (_load_weight(p).as_list() for p in (args.w, args.w2))
    a = initial_ideal(ideal, w, max_steps=args.budget)
    b = initial_ideal(ideal, w2, max_steps=args.budget)
    meet = intersect_ideals(a, b, max_steps=args.budget)
    report["generators"] = sorted(str(g) for g in meet.generators)
    _claim(report, "computed", True, True)


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


def cmd_char7(args, report):
    field = field_of_characteristic(args.char)
    w = char7_weight(args.wprime)
    ring = plucker_ring(3, 7, field)
    f = ring.parse(SPECIAL_CUBIC)
    report.update(characteristic=args.char, wprime=args.wprime)
    wl = w.as_list()
    inf = initial_form(f, wl)
    report["initial_form_of_special_cubic"] = str(inf)
    if not args.wprime:
        _claim(report, "initial_form_is_monomial", args.char != 2, len(inf.terms) == 1)
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
            _claim(report, "certificate_valuations", True, plucker_valuations(M) == w)


SAGBI_WEIGHTS = [
    [2, 1, 2, 1, 0, 0],
    [1, 2, 0, 0, 2, 1],
    [0, 0, 1, 2, 1, 2],
]


def cmd_sagbi(args, report):
    w = tropical_minors(SAGBI_WEIGHTS)
    target = g36.gv("g_123456").raw_vector() + g36.gv("g_125634").raw_vector()
    _claim(report, "tropical_minors_hit_gg_cone", True, w == target)
    ring = plucker_ring(3, 6)
    mring = generic_matrix_ring(3, 6)
    flat = [q for row in SAGBI_WEIGHTS for q in row]
    mono_map = {name: initial_form(generic_minor(mring, 3, 6, S), flat)
                for name, S in zip(ring.variables, d_subsets(3, 6))}
    _claim(report, "twenty_initial_forms_are_monomials", True,
           all(len(lead.terms) == 1 for lead in mono_map.values()))
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


# -- argument plumbing ---------------------------------------------------
# An option is (flag, argparse keywords); "env" names the environment
# variable that overrides its default when the parser is built.

_W = ("--w", {"required": True, "help": "PlueckerVector JSON file"})
_CHAR = ("--char", {"type": int, "default": 0})
_BUDGET = ("--budget", {
    "type": int, "env": "TROPGRASS_BUDGET",
    "help": "step budget: S-pairs per Groebner run, witness candidates",
})
_SEED = ("--seed", {"type": int, "default": 0, "env": "TROPGRASS_SEED",
                    "help": "random seed"})
_PLUCKER = (("--d", {"type": int, "required": True}),
            ("--n", {"type": int, "required": True}), _CHAR)


def _flag(name):
    return (name, {"action": "store_true"})


# (group, action, scenario, the options it reads besides --output)
SUBCOMMANDS = (
    ("tree", "reconstruct", cmd_tree_reconstruct,
     (("--input", {"required": True, "help": "CSV distance matrix"}),)),
    ("treespace", "stats", cmd_treespace_stats,
     (("--n", {"type": int, "required": True}),)),
    ("treespace", "verify-initial", cmd_treespace_verify_initial,
     (("--n", {"type": int, "default": 6}), _CHAR,
      ("--trials", {"type": int, "default": 3}), _BUDGET, _SEED)),
    ("g36", "verify", cmd_g36_verify,
     (_flag("--homology"), _flag("--links"), _flag("--cones"), _BUDGET)),
    ("plane", "type", cmd_plane_type, (_W,)),
    ("plane", "member", cmd_plane_member, (_W, ("--point", {"required": True}))),
    ("plane", "dual", cmd_plane_dual, (_W,)),
    ("plane", "reconstruct", cmd_plane_reconstruct, (_W,)),
    ("groebner", "initial", cmd_groebner_initial, _PLUCKER + (_W, _BUDGET)),
    ("groebner", "monomial-free", cmd_groebner_monomial_free,
     _PLUCKER + (_W, _BUDGET)),
    ("groebner", "degree", cmd_groebner_degree,
     _PLUCKER + (("--w", {"help": "PlueckerVector JSON file"}), _BUDGET)),
    ("groebner", "intersect", cmd_groebner_intersect,
     _PLUCKER + (_W, ("--w2", {"required": True, "help": "second weight"}), _BUDGET)),
    ("char7", "demo", cmd_char7, (_CHAR, _flag("--wprime"), _BUDGET, _SEED)),
    ("sagbi", "demo", cmd_sagbi, (_BUDGET,)),
)


def build_parser():
    parser = argparse.ArgumentParser(
        prog="tropgrass", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="group", required=True)
    groups = {}
    for group, action, func, options in SUBCOMMANDS:
        if group not in groups:
            groups[group] = sub.add_parser(group).add_subparsers(
                dest="action", required=True)
        p = groups[group].add_parser(action)
        for flag, kw in options:
            kw = dict(kw)
            raw = os.environ.get(kw.pop("env", ""))
            if raw:
                kw["default"] = int(raw)
            p.add_argument(flag, **kw)
        p.add_argument("--output", help="write the JSON report here")
        p.set_defaults(func=func)
    return parser


def _glue_negative_values(argv):
    """Join a value that starts like a negative number ("-3,1,2") to the
    "--flag" before it, which argparse would otherwise read as an unknown
    option: ["--point", "-3,1"] becomes ["--point=-3,1"]."""
    out = []
    for arg in argv:
        if (out and out[-1].startswith("--") and "=" not in out[-1]
                and arg[:1] == "-" and arg[1:2].isdigit()):
            out[-1] += "=" + arg
        else:
            out.append(arg)
    return out


def run(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(
            _glue_negative_values(sys.argv[1:] if argv is None else argv))
    except SystemExit as exc:
        return 1 if exc.code not in (0, None) else 0
    report = {"subcommand": f"{args.group} {args.action}", "claims": []}
    try:
        args.func(args, report)
        return _emit(report, args.output)
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
