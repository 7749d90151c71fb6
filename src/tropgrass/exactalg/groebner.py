"""Buchberger's algorithm with Gebauer-Moller pair elimination.

Internally polynomials are flattened to dicts {exponent: int} with
content-free integer coefficients over Q (cross-multiplication instead of
rational division) or ints over GF(p).  The public entry points speak
MultiPoly.

Weighted orders are only degree-wise total, so they are valid term orders
on homogeneous input; callers passing inhomogeneous generators must use a
weight-free (global) order.  `buchberger` enforces this.
"""

from __future__ import annotations

import heapq
from fractions import Fraction
from math import gcd

from .poly import MultiPoly, PolyRing


class StepBudgetExceeded(RuntimeError):
    """Raised when a Groebner run exhausts its step budget.

    Carries the partial basis computed so far (not reduced, not complete).
    """

    def __init__(self, message, partial=None):
        super().__init__(message)
        self.partial = partial or []


def _flatten(poly: MultiPoly, order):
    """MultiPoly -> (sorted term list, leading exp), integer-normalized."""
    if poly.is_zero():
        return None
    field = poly.ring.field
    if field.characteristic == 0:
        denom = 1
        for c in poly.terms.values():
            f = Fraction(c)
            denom = denom * f.denominator // gcd(denom, f.denominator)
        ints = {e: int(c * denom) for e, c in poly.terms.items()}
        g = 0
        for v in ints.values():
            g = gcd(g, v)
        lead = max(ints, key=order.key)
        if ints[lead] < 0:
            g = -g
        terms = {e: v // g for e, v in ints.items()}
    else:
        p = field.characteristic
        terms = {e: c % p for e, c in poly.terms.items() if c % p}
        if not terms:
            return None
        lead = max(terms, key=order.key)
        inv = pow(terms[lead], -1, p)
        terms = {e: (c * inv) % p for e, c in terms.items()}
    return terms, lead


def _normalize(terms, lead, char):
    """Normalize a flat poly: primitive/positive over Z, monic over GF(p)."""
    if char == 0:
        g = 0
        for v in terms.values():
            g = gcd(g, v)
        if g == 0:
            return None
        if terms[lead] < 0:
            g = -g
        if g != 1:
            terms = {e: v // g for e, v in terms.items()}
    else:
        lc = terms[lead] % char
        if lc != 1:
            inv = pow(lc, -1, char)
            terms = {e: (v * inv) % char for e, v in terms.items()}
    return terms, lead


def _reduce(terms, order, basis, char, scale=None):
    """Full normal form of a flat term dict against flat basis entries.

    basis: list of (terms, lead_exp).  Returns a flat dict (possibly empty).
    scale: mutable [int] or None.  When given, accumulates the factor the
    input was multiplied by (fraction-free reduction over Z) and the final
    content normalization is skipped, so result == scale[0] * NF(input).
    """
    key = order.key
    result = {}
    rest = dict(terms)
    blead = [(b[1], b[0]) for b in basis]
    while rest:
        exp = max(rest, key=key)
        c = rest.pop(exp)
        reducer = None
        for lexp, bterms in blead:
            ok = True
            for a, b in zip(lexp, exp):
                if a > b:
                    ok = False
                    break
            if ok:
                reducer = (lexp, bterms)
                break
        if reducer is None:
            result[exp] = c
            continue
        lexp, bterms = reducer
        shift = tuple(b - a for a, b in zip(lexp, exp))
        if char == 0:
            lc = bterms[lexp]
            g = gcd(lc, c)
            mult_all = abs(lc // g)
            mult_b = c // g if lc > 0 else -(c // g)
            if mult_all != 1:
                for e in rest:
                    rest[e] *= mult_all
                for e in result:
                    result[e] *= mult_all
                if scale is not None:
                    scale[0] *= mult_all
            for e, v in bterms.items():
                if e == lexp:
                    continue
                ne = tuple(a + s for a, s in zip(e, shift))
                nv = rest.get(ne, 0) - mult_b * v
                if nv:
                    rest[ne] = nv
                else:
                    rest.pop(ne, None)
        else:
            for e, v in bterms.items():
                if e == lexp:
                    continue
                ne = tuple(a + s for a, s in zip(e, shift))
                nv = (rest.get(ne, 0) - c * v) % char
                if nv:
                    rest[ne] = nv
                else:
                    rest.pop(ne, None)
    if char == 0 and result and scale is None:
        g = 0
        for v in result.values():
            g = gcd(g, v)
        lead = max(result, key=key)
        if result[lead] < 0:
            g = -g
        if g not in (0, 1):
            result = {e: v // g for e, v in result.items()}
    return result


def _spoly(f, g, char):
    """S-polynomial of flat entries f=(terms, lead), g=(terms, lead)."""
    fterms, flead = f
    gterms, glead = g
    lcm_exp = tuple(max(a, b) for a, b in zip(flead, glead))
    fshift = tuple(l - a for l, a in zip(lcm_exp, flead))
    gshift = tuple(l - a for l, a in zip(lcm_exp, glead))
    out = {}
    if char == 0:
        fc, gc = fterms[flead], gterms[glead]
        d = gcd(fc, gc)
        fm, gm = gc // d, fc // d
    else:
        fm, gm = 1, 1
    for e, v in fterms.items():
        ne = tuple(a + s for a, s in zip(e, fshift))
        out[ne] = out.get(ne, 0) + fm * v
    for e, v in gterms.items():
        ne = tuple(a + s for a, s in zip(e, gshift))
        nv = out.get(ne, 0) - gm * v
        if char:
            nv %= char
        if nv:
            out[ne] = nv
        else:
            out.pop(ne, None)
    if char:
        out = {e: v % char for e, v in out.items() if v % char}
    return out


def _divides(a, b):
    for x, y in zip(a, b):
        if x > y:
            return False
    return True


def _lcm_exp(a, b):
    return tuple(max(x, y) for x, y in zip(a, b))


def _coprime(a, b):
    return all(x == 0 or y == 0 for x, y in zip(a, b))


def buchberger(generators, order, max_steps=None):
    """Groebner basis (flat form) of MultiPoly generators under order.

    Returns a list of flat (terms, lead) entries.  Raises
    StepBudgetExceeded when max_steps S-pair reductions are exceeded.
    """
    if not order.is_degree_compatible():
        for g in generators:
            if not g.is_zero() and not g.is_homogeneous():
                raise ValueError(
                    "weighted/elimination orders require homogeneous generators"
                )
    char = 0
    flats = []
    for g in generators:
        if not g.is_zero():
            char = g.ring.field.characteristic
            fl = _flatten(g, order)
            if fl is not None:
                flats.append(fl)
    if not flats:
        return []
    flats.sort(key=lambda f: (sum(f[1]), order.key(f[1])))

    key = order.key
    basis = []          # list of (terms, lead)
    pair_heap = []      # (deg, key(lcm), tiebreak, i, j)
    pairs = set()
    counter = 0

    def push_pair(i, j):
        nonlocal counter
        lcm = _lcm_exp(basis[i][1], basis[j][1])
        counter += 1
        heapq.heappush(pair_heap, (sum(lcm), key(lcm), counter, i, j))
        pairs.add((i, j))

    def update(h):
        """Gebauer-Moller update: add flat h to basis, refresh pair set."""
        hterms, hlead = h
        new_idx = len(basis)
        basis.append(h)
        # candidate pairs with h
        cand = list(range(new_idx))
        lcms = {i: _lcm_exp(basis[i][1], hlead) for i in cand}
        keep = []
        for i in cand:
            li = lcms[i]
            dominated = False
            for j in cand:
                if j == i:
                    continue
                lj = lcms[j]
                if lj != li and _divides(lj, li):
                    dominated = True
                    break
            if not dominated:
                keep.append(i)
        # among equal lcms keep a single representative
        seen = {}
        keep2 = []
        for i in keep:
            li = lcms[i]
            if li in seen:
                continue
            seen[li] = i
            keep2.append(i)
        # Buchberger's coprimality criterion
        keep3 = [i for i in keep2 if not _coprime(basis[i][1], hlead)]
        # prune old pairs via the chain criterion
        stale = []
        for (i, j) in pairs:
            lij = _lcm_exp(basis[i][1], basis[j][1])
            if (
                _divides(hlead, lij)
                and lcms[i] != lij
                and lcms[j] != lij
            ):
                stale.append((i, j))
        for p in stale:
            pairs.discard(p)
        for i in keep3:
            push_pair(i, new_idx)

    for f in flats:
        red = _reduce(f[0], order, basis, char)
        if red:
            lead = max(red, key=key)
            update(_normalize(red, lead, char))

    steps = 0
    while pair_heap:
        _, _, _, i, j = heapq.heappop(pair_heap)
        if (i, j) not in pairs:
            continue
        pairs.discard((i, j))
        steps += 1
        if max_steps is not None and steps > max_steps:
            raise StepBudgetExceeded(
                f"S-pair budget {max_steps} exhausted", partial=list(basis)
            )
        s = _spoly(basis[i], basis[j], char)
        if not s:
            continue
        red = _reduce(s, order, basis, char)
        if red:
            lead = max(red, key=key)
            update(_normalize(red, lead, char))
    return basis


def _interreduce(basis, order, char):
    """Minimalize and tail-reduce a flat Groebner basis."""
    # minimal: drop entries whose lead is divisible by another lead
    basis = sorted(basis, key=lambda f: (sum(f[1]), order.key(f[1])))
    minimal = []
    for i, (terms, lead) in enumerate(basis):
        keep = True
        for j, (_, lead2) in enumerate(basis):
            if i != j and _divides(lead2, lead):
                if lead2 != lead or j < i:
                    keep = False
                    break
        if keep:
            minimal.append((terms, lead))
    reduced = []
    for i, (terms, lead) in enumerate(minimal):
        others = minimal[:i] + minimal[i + 1 :]
        red = _reduce(terms, order, others, char)
        lead = max(red, key=order.key)
        reduced.append(_normalize(red, lead, char))
    reduced.sort(key=lambda f: (sum(f[1]), order.key(f[1])))
    return reduced


def _unflatten(ring: PolyRing, flat):
    terms, lead = flat
    if ring.field.characteristic == 0:
        lc = Fraction(terms[lead])
        return MultiPoly(ring, {e: Fraction(v) / lc for e, v in terms.items()})
    return MultiPoly(ring, dict(terms))


def reduced_groebner_basis(generators, order, max_steps=None):
    """The unique reduced (monic) Groebner basis as MultiPoly list."""
    gens = [g for g in generators if not g.is_zero()]
    if not gens:
        return []
    ring = gens[0].ring
    char = ring.field.characteristic
    gb = buchberger(gens, order, max_steps=max_steps)
    gb = _interreduce(gb, order, char)
    return [_unflatten(ring, f) for f in gb]


def normal_form(f: MultiPoly, basis, order):
    """Remainder of f on division by basis (a list of MultiPoly)."""
    if f.is_zero():
        return f
    ring = f.ring
    char = ring.field.characteristic
    flat_basis = []
    for g in basis:
        fl = _flatten(g, order)
        if fl is not None:
            flat_basis.append(fl)
    flat = _flatten(f, order)
    if flat is None:
        return ring.zero()
    scale = [1]
    red = _reduce(flat[0], order, flat_basis, char, scale=scale)
    if not red:
        return ring.zero()
    # _flatten rescaled f and _reduce multiplied through by scale[0];
    # undo both so that f - normal_form(f) lies in the ideal with exact
    # coefficients (linearity of NF).
    flat_terms, flat_lead = flat
    if char == 0:
        factor = Fraction(f.terms[flat_lead]) / (flat_terms[flat_lead] * scale[0])
        return MultiPoly(ring, {e: Fraction(v) * factor for e, v in red.items()})
    factor = (f.terms[flat_lead] % char) * pow(flat_terms[flat_lead], -1, char)
    return MultiPoly(ring, {e: (v * factor) % char for e, v in red.items()})
