"""Correctness checks run on every stored answer after the timed loop.

Each check recomputes what it can with the benchmark's own arithmetic
rather than trusting the library, and returns a list of problems (empty
when the answer is right).
"""

from __future__ import annotations

import csv
import io
import json
from fractions import Fraction
from itertools import combinations


def parse_csv(text):
    rows = [[Fraction(v) for v in row] for row in csv.reader(io.StringIO(text)) if row]
    return {(i + 1, j + 1): rows[i][j]
            for i, j in combinations(range(len(rows)), 2)}


def four_point_violation(n, dist):
    """First quadruple whose largest pair-sum of distances is attained
    once, or None when dist is a tree metric."""
    for quad in combinations(range(1, n + 1), 4):
        if not _tied_max(dist, *quad):
            return quad
    return None


def _tied_max(dist, i, j, k, l):
    sums = sorted((dist[(i, j)] + dist[(k, l)], dist[(i, k)] + dist[(j, l)],
                   dist[(i, l)] + dist[(j, k)]))
    return sums[1] == sums[2]


def check_tree(req, ans):
    n = req["n"]
    dist = parse_csv(req["csv"])
    if req["kind"] == "tree_perturbed":
        if ans["accepted"]:
            return ["perturbed matrix accepted"]
        quad = tuple(ans["quad"])
        errors = []
        if _tied_max(dist, *quad):
            errors.append(f"quadruple {quad} satisfies the four-point condition")
        if not set(req["pair"]) <= set(quad):
            errors.append(f"quadruple {quad} misses the perturbed pair")
        return errors
    if not ans["accepted"]:
        return [f"exact tree metric rejected at {ans['quad']}"]
    errors = [] if ans["round_trip"] else ["distance round trip failed"]
    tree = ans["tree"]
    got = sorted(
        tuple(sorted(s.B if 1 in s.A else s.A)) for s in tree.internal_lengths
    )
    if got != [tuple(s) for s in req["splits"]]:
        errors.append("reconstructed topology differs from the generating tree")
    off = tree.leaf_offsets
    for (i, j), want in dist.items():
        have = off[i - 1] + off[j - 1] + sum(
            c for s, c in tree.internal_lengths.items()
            if (i in s.A) != (j in s.A)
        )
        if have != want:
            errors.append(f"reconstructed distance {i},{j} is {have}, not {want}")
            break
    if sorted(int(x.split(":")[0].strip("(")) for x in ans["newick"]
              .rstrip(";").replace(")", "").split(",")) != list(range(1, n + 1)):
        errors.append("newick string does not list every leaf once")
    return errors


def _unique_min(w, J, x):
    """Whether the terms w_{J-j} + x_j of circuit J have a unique minimum."""
    vals = [w[tuple(m for m in J if m != j)] + x[j - 1] for j in J]
    return vals.count(min(vals)) == 1


def check_oracle(req, ans):
    w = ans["w"].coords
    d, n = ans["w"].d, ans["w"].n
    circuits = list(combinations(range(1, n + 1), d + 1))
    errors = []
    for idx, (x, (member, J)) in enumerate(zip(ans["points"], ans["member"])):
        inside = not any(_unique_min(w, C, x) for C in circuits)
        if idx < ans["witnesses"] and not member:
            errors.append(f"witness point {idx} reported outside the plane")
        if member != inside:
            errors.append(f"membership of point {idx} is wrong")
        elif not member and not _unique_min(w, J, x):
            errors.append(f"violating circuit of point {idx} has a tied minimum")
    if not ans["involution"]:
        errors.append("dual(dual(w)) != w")
    if not ans["round_trip"]:
        errors.append("reconstruction differs from w modulo phi")
    rec = json.loads(ans["reconstructed_json"])["coords"]
    diff = {S: Fraction(rec["".join(map(str, S))]) - v for S, v in w.items()}
    if not in_phi_image(d, n, diff):
        errors.append("reconstruction minus w is not in the image of phi")
    dual = json.loads(ans["dual_json"])["coords"]
    for S, v in w.items():
        rest = "".join(str(i) for i in range(1, n + 1) if i not in S)
        if Fraction(dual[rest]) != v:
            errors.append(f"dual coordinate {rest} is not w_{S}")
            break
    return errors


def in_phi_image(d, n, v):
    """Whether v (d-subset -> rational) equals sum_{i in S} a_i for some a:
    Gaussian elimination on the system, inconsistent iff a row reduces
    to 0 = nonzero."""
    rows = [[Fraction(int(i in S)) for i in range(1, n + 1)] + [v[S]] for S in v]
    rank = 0
    for col in range(n):
        piv = next((r for r in range(rank, len(rows)) if rows[r][col]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        p = rows[rank]
        for r in range(len(rows)):
            if r != rank and rows[r][col]:
                f = rows[r][col] / p[col]
                rows[r] = [a - f * b for a, b in zip(rows[r], p)]
        rank += 1
    return all(row[n] == 0 for row in rows[rank:])


def obvious_types(n=6):
    """Partitions of [n] into two singletons and one block of n-2."""
    out = set()
    for a, b in combinations(range(1, n + 1), 2):
        rest = [i for i in range(1, n + 1) if i not in (a, b)]
        blocks = sorted([[a], [b], rest])  # blocks ordered by least element
        out.add("|".join("".join(map(str, blk)) for blk in blocks))
    return out


def check_type(req, ans):
    types = set(ans["types"])
    errors = []
    if not obvious_types() <= types:
        errors.append("type misses an obvious type")
    want = 27 if req["facet_class"] == "EEEE" else 28
    if len(types) != want:
        errors.append(f"{len(types)} types for class {req['facet_class']}, not {want}")
    bounded = sorted(t for t in types if all(len(b) >= 2 for b in t.split("|")))
    if bounded != ans["bounded"]:
        errors.append("bounded faces misreported")
    return errors


def check_tree_cone(req, ans):
    return [] if ans["equal"] else ["initial ideal differs from J_sigma"]


def check_degree(req, ans):
    return [] if ans["degree"] == 42 else [f"degree {ans['degree']}, not 42"]


def check_monomial_free(req, ans):
    n = req["n"]
    dist = {tuple(int(c) for c in S): -Fraction(v)
            for S, v in req["w"]["coords"].items()}
    tree_point = four_point_violation(n, dist) is None
    errors = []
    if ans["free"] != tree_point:
        errors.append("monomial-freeness disagrees with the four-point condition")
    if not ans["free"] and len(ans["witness"].terms) != 1:
        errors.append("witness is not a monomial")
    return errors


CHECKS = {
    "tree_exact": check_tree,
    "tree_perturbed": check_tree,
    "oracle": check_oracle,
    "oracle_2x8": check_oracle,
    "oracle_3x7": check_oracle,
    "type": check_type,
    "tree_cone": check_tree_cone,
    "g36_degree": check_degree,
    "reject": check_monomial_free,
    "free_tree": check_monomial_free,
}
