"""Buchberger's algorithm with Gebauer-Moller pair elimination, over Q
and GF(p).

Internally polynomials are flattened to dicts {exponent: int}.  Only
`_normalize` decides the coefficient form: content-free with a positive
leading coefficient over Q (cross-multiplication instead of rational
division), monic residues over GF(p).  Every other step runs the same
integer arithmetic in every characteristic.  The public entry points speak
MultiPoly.

Weight orders with a positive entry are only degree-wise total, so they
are valid term orders on homogeneous input; callers passing inhomogeneous
generators must use a global order.  `buchberger` enforces this.
"""

from __future__ import annotations

import heapq
from math import gcd, lcm

from .poly import MultiPoly, PolyRing
from .scalars import PrimeField, RationalField


class StepBudgetExceeded(RuntimeError):
    """Raised when a Groebner run exhausts its step budget.

    Carries the partial basis computed so far (not reduced, not complete).
    """

    def __init__(self, message, partial=None):
        super().__init__(message)
        self.partial = partial or []


def _flatten(poly: MultiPoly, order):
    """Nonzero MultiPoly -> normalized flat (terms, lead) with int
    coefficients: denominators cleared over Q, residues mod p over GF(p)."""
    char = poly.ring.field.characteristic
    if char:
        terms = {e: c % char for e, c in poly.terms.items()}
    else:
        denom = lcm(*(c.denominator for c in poly.terms.values()))
        terms = {e: int(c * denom) for e, c in poly.terms.items()}
    return _normalize(terms, max(terms, key=order.key), char)


def _normalize(terms, lead, char):
    """Normalize a flat poly: primitive/positive over Z, monic over GF(p)."""
    if char:
        inv = pow(terms[lead], -1, char)
        if inv != 1:
            terms = {e: (v * inv) % char for e, v in terms.items()}
    else:
        g = gcd(*terms.values())
        if terms[lead] < 0:
            g = -g
        if g != 1:
            terms = {e: v // g for e, v in terms.items()}
    return terms, lead


def _reduce(terms, order, basis, char):
    """Full normal form of a flat term dict against normalized flat basis
    entries (list of (terms, lead_exp)).

    The reduction is fraction-free: returns (remainder, scale) with
    remainder == scale * NF(input), the remainder's coefficients read mod
    char.  Over GF(p) every basis entry is monic, so the scale stays 1.
    """
    key = order.key
    result = {}
    rest = dict(terms)
    scale = 1
    blead = [(b[1], b[0]) for b in basis]
    while rest:
        exp = max(rest, key=key)
        c = rest.pop(exp)
        if char:
            c %= char
            if not c:
                continue
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
        lc = bterms[lexp]
        g = gcd(lc, c)
        mult_all = abs(lc // g)
        mult_b = c // g if lc > 0 else -(c // g)
        if mult_all != 1:
            for e in rest:
                rest[e] *= mult_all
            for e in result:
                result[e] *= mult_all
            scale *= mult_all
        for e, v in bterms.items():
            if e == lexp:
                continue
            ne = tuple(a + s for a, s in zip(e, shift))
            nv = rest.get(ne, 0) - mult_b * v
            if nv:
                rest[ne] = nv
            else:
                rest.pop(ne, None)
    return result, scale


def _spoly(f, g):
    """S-polynomial of normalized flat entries f=(terms, lead), g=(terms, lead).

    Over GF(p) both leads are 1, so both multipliers are 1 and every
    coefficient lies strictly between -p and p: a zero mod p is a zero.
    """
    fterms, flead = f
    gterms, glead = g
    lcm_exp = tuple(max(a, b) for a, b in zip(flead, glead))
    fshift = tuple(l - a for l, a in zip(lcm_exp, flead))
    gshift = tuple(l - a for l, a in zip(lcm_exp, glead))
    fc, gc = fterms[flead], gterms[glead]
    d = gcd(fc, gc)
    fm, gm = gc // d, fc // d
    out = {}
    for e, v in fterms.items():
        ne = tuple(a + s for a, s in zip(e, fshift))
        out[ne] = out.get(ne, 0) + fm * v
    for e, v in gterms.items():
        ne = tuple(a + s for a, s in zip(e, gshift))
        nv = out.get(ne, 0) - gm * v
        if nv:
            out[ne] = nv
        else:
            out.pop(ne, None)
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
                    "weight orders with a positive entry require homogeneous"
                    " generators"
                )
    flats = [_flatten(g, order) for g in generators if not g.is_zero()]
    if not flats:
        return []
    char = generators[0].ring.field.characteristic
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
        red, _ = _reduce(f[0], order, basis, char)
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
        s = _spoly(basis[i], basis[j])
        if not s:
            continue
        red, _ = _reduce(s, order, basis, char)
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
        red, _ = _reduce(terms, order, others, char)
        lead = max(red, key=order.key)
        reduced.append(_normalize(red, lead, char))
    reduced.sort(key=lambda f: (sum(f[1]), order.key(f[1])))
    return reduced


def _unflatten(ring: PolyRing, flat):
    """Flat (terms, lead) -> monic MultiPoly over ring's field."""
    terms, lead = flat
    field = ring.field
    inv = field.inv(field(terms[lead]))
    return MultiPoly(ring, {e: field.mul(field(v), inv) for e, v in terms.items()})


def _characteristic(ring: PolyRing):
    """The characteristic of ring's field, which must be Q or GF(p)."""
    if not isinstance(ring.field, (RationalField, PrimeField)):
        raise ValueError(
            f"Groebner computations run over QQ and GF(p), not {ring.field}"
        )
    return ring.field.characteristic


def reduced_groebner_basis(generators, order, max_steps=None):
    """The unique reduced (monic) Groebner basis as MultiPoly list."""
    gens = [g for g in generators if not g.is_zero()]
    if not gens:
        return []
    ring = gens[0].ring
    char = _characteristic(ring)
    gb = buchberger(gens, order, max_steps=max_steps)
    gb = _interreduce(gb, order, char)
    return [_unflatten(ring, f) for f in gb]


def normal_form(f: MultiPoly, basis, order):
    """Remainder of f on division by basis (a list of MultiPoly)."""
    ring = f.ring
    char = _characteristic(ring)
    if f.is_zero():
        return f
    flat_basis = [_flatten(g, order) for g in basis if not g.is_zero()]
    flat_terms, flat_lead = _flatten(f, order)
    red, scale = _reduce(flat_terms, order, flat_basis, char)
    # _flatten rescaled f and _reduce multiplied through by scale; undo
    # both so that f - normal_form(f) lies in the ideal with exact
    # coefficients (linearity of NF).
    field = ring.field
    factor = field.mul(
        f.terms[flat_lead], field.inv(field(flat_terms[flat_lead] * scale))
    )
    return MultiPoly(ring, {e: field.mul(field(v), factor) for e, v in red.items()})
