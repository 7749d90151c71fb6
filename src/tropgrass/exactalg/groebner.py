"""Buchberger's algorithm with Gebauer-Moller pair elimination, over Q
and GF(p).

Internally polynomials are flattened to dicts {monomial: int}, each
monomial packed into one int by a `_Packing`: the low bits hold one field
per variable, an exponent under a guard bit, so that a | b is
`(b - a) & guard == 0`, a product with a monomial is one addition and an
lcm a few mask operations; the high bits make the int itself the order
key, so the leading term is a plain `max`.  Every queued pair stores its
lcm once.  A monomial that outgrows its field sets a guard bit, which is
checked when the monomial leaves the remainder; the run then restarts
with wider fields, so nothing wraps.  Only `_flatten` and `_unflatten`
translate, and results reuse the exponent tuples of their inputs.

Only `_normalize` decides the coefficient form: content-free with a
positive leading coefficient over Q (cross-multiplication instead of
rational division), monic residues over GF(p).  Every other step runs the
same integer arithmetic in every characteristic.  The public entry points
speak MultiPoly.

Weight orders with a positive entry are only degree-wise total, so they
are valid term orders on homogeneous input; callers passing inhomogeneous
generators must use a global order.  `buchberger` enforces this.
"""

from __future__ import annotations

import heapq
from math import gcd
from operator import mul

from ..pvector import scaled
from .poly import MultiPoly, PolyRing
from .scalars import PrimeField, RationalField

# Value bits per exponent field of a run's first attempt, at least; each
# restart after an overflow doubles them.
_MIN_VALUE_BITS = 4


class StepBudgetExceeded(RuntimeError):
    """Raised when a Groebner run exhausts its step budget."""


class _Overflow(Exception):
    """An exponent outgrew its packed field."""


class _Packing:
    """Exponent vectors of one term order's ring, packed into ints.

    With n variables and fields of B = value_bits + 1 bits, the low
    L = n*B bits hold P(e) = sum e_i 2^(B i), with the top bit of each
    field a guard bit that stays clear while every e_i < 2^value_bits.
    The packed monomial is x(e) = A(e) 2^(2L) - P(e) 2^L + P(e), where
    A(e) = -<w, e> S + deg(e) and S exceeds every degree.  x is linear in
    e, so products and quotients of monomials are sums and differences of
    ints, and x(a) < x(b) exactly when the order's key of a is smaller:
    (-<w, e>, degree, revlex) from the high bits down.  Both hold even for
    fields that have overflowed into their guard bit, so an overflowed
    monomial is ordered right until it is detected.  `tuples` maps each
    packed monomial of the run's inputs to its exponent tuple, and
    `coefficients` holds the run's output coefficients.
    """

    def __init__(self, order, value_bits):
        n = order.nvars
        bits = value_bits + 1
        low = n * bits
        self.order = order
        self.value_bits = value_bits
        self.shifts = [bits * i for i in range(n)]
        self.field = (1 << bits) - 1
        self.guard = sum(1 << (s + value_bits) for s in self.shifts)
        self.low = (1 << low) - 1
        self.low_bits = low
        self.high = 2 * low
        scale = n * self.field + 1
        self.weights = [1 - w * scale for w in order.int_weight]
        self.coefs = [(a << self.high) - (1 << (s + low)) + (1 << s)
                      for a, s in zip(self.weights, self.shifts)]
        self.tuples = {}
        self.coefficients = {}

    @classmethod
    def fitting(cls, order, polys):
        """The narrowest packing, of at least _MIN_VALUE_BITS, whose fields
        hold twice every exponent of polys."""
        top = max((max(e, default=0) for f in polys for e in f.terms), default=0)
        return cls(order, max(_MIN_VALUE_BITS, (2 * top).bit_length()))

    def wider(self):
        return _Packing(self.order, 2 * self.value_bits)

    def pack(self, exp):
        x = sum(map(mul, exp, self.coefs))
        self.tuples[x] = exp
        return x

    def unpack(self, x):
        """The exponent tuple of packed monomial x, the input's own tuple
        when x was packed from one."""
        exp = self.tuples.get(x)
        if exp is None:
            p, f = x & self.low, self.field
            exp = self.tuples[x] = tuple((p >> s) & f for s in self.shifts)
        return exp

    def lift(self, p):
        """(degree, packed monomial) of the low part p of a monomial."""
        deg = a = 0
        q, bits, f = p, self.value_bits + 1, self.field
        while q:
            i = ((q & -q).bit_length() - 1) // bits
            v = (q >> (i * bits)) & f
            q ^= v << (i * bits)
            deg += v
            a += v * self.weights[i]
        return deg, (a << self.high) + p - (p << self.low_bits)

    def degree(self, x):
        return self.lift(x & self.low)[0]

    def lcm(self, a, b):
        """lcm of the low parts a, b of two monomials: the larger field of
        each, picked by the borrow-free guard bits of (a | guard) - b."""
        g = ((a | self.guard) - b) & self.guard
        m = g - (g >> self.value_bits)
        return (a & m) | (b & ~m)


def _flatten(poly: MultiPoly, pack):
    """Nonzero MultiPoly -> normalized flat (terms, lead) with int
    coefficients: denominators cleared over Q, residues mod p over GF(p)."""
    char = poly.ring.field.characteristic
    packed = pack.pack
    if char:
        terms = {packed(e): c % char for e, c in poly.terms.items()}
    else:
        terms = dict(zip(map(packed, poly.terms), scaled(poly.terms.values())[1]))
    return _normalize(terms, max(terms), char)


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


def _reduce(terms, basis, char, guard):
    """Full normal form of a flat term dict against normalized flat basis
    entries (list of (terms, lead)).

    The reduction is fraction-free: returns (remainder, scale) with
    remainder == scale * NF(input), the remainder's coefficients read mod
    char.  Over GF(p) every basis entry is monic, so the scale stays 1.
    Raises _Overflow on a monomial with a guard bit set: every monomial
    passes here before it is divided, multiplied or kept.
    """
    result = {}
    rest = dict(terms)
    scale = 1
    while rest:
        exp = max(rest)
        c = rest.pop(exp)
        if char:
            c %= char
            if not c:
                continue
        if exp & guard:
            raise _Overflow
        for bterms, lexp in basis:
            if not (exp - lexp) & guard:
                break
        else:
            result[exp] = c
            continue
        shift = exp - lexp
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
            ne = e + shift
            nv = rest.get(ne, 0) - mult_b * v
            if nv:
                rest[ne] = nv
            else:
                rest.pop(ne, None)
    return result, scale


def _spoly(f, g, lcm_exp):
    """S-polynomial of normalized flat entries f=(terms, lead), g=(terms,
    lead) whose leads have the packed lcm lcm_exp.

    Over GF(p) both leads are 1, so both multipliers are 1 and every
    coefficient lies strictly between -p and p: a zero mod p is a zero.
    """
    fterms, flead = f
    gterms, glead = g
    fshift, gshift = lcm_exp - flead, lcm_exp - glead
    fc, gc = fterms[flead], gterms[glead]
    d = gcd(fc, gc)
    fm, gm = gc // d, fc // d
    out = {e + fshift: fm * v for e, v in fterms.items()}
    for e, v in gterms.items():
        ne = e + gshift
        nv = out.get(ne, 0) - gm * v
        if nv:
            out[ne] = nv
        else:
            out.pop(ne, None)
    return out


def _by_degree(pack, basis):
    return sorted(basis, key=lambda f: (pack.degree(f[1]), f[1]))


def buchberger(generators, order, pack, max_steps=None):
    """Groebner basis (flat form, packed by pack) of MultiPoly generators
    under order.

    Returns a list of flat (terms, lead) entries.  Raises
    StepBudgetExceeded when max_steps S-pair reductions are exceeded, and
    _Overflow when an exponent outgrows pack's fields.
    """
    if not order.is_degree_compatible():
        for g in generators:
            if not g.is_zero() and not g.is_homogeneous():
                raise ValueError(
                    "weight orders with a positive entry require homogeneous"
                    " generators"
                )
    flats = [_flatten(g, pack) for g in generators if not g.is_zero()]
    if not flats:
        return []
    char = generators[0].ring.field.characteristic
    flats = _by_degree(pack, flats)

    guard, low, plcm, lift = pack.guard, pack.low, pack.lcm, pack.lift
    basis = []          # list of (terms, lead)
    leads = []          # low part of each basis entry's lead
    pair_heap = []      # (deg(lcm), lcm, tiebreak, i, j)
    pairs = {}          # queued (i, j) -> low part of its lcm
    counter = 0

    def update(h):
        """Gebauer-Moller update: add flat h to basis, refresh pair set."""
        nonlocal counter
        hlead = h[1]
        hp = hlead & low
        new_idx = len(basis)
        lcms = [plcm(p, hp) for p in leads]
        basis.append(h)
        leads.append(hp)
        # an lcm strictly divisible by another one is dropped; a strict
        # divisor is a smaller int, so only smaller lcms are candidates
        distinct = sorted(set(lcms))
        dominated = set()
        for k, li in enumerate(distinct):
            for lj in distinct[:k]:
                if not (li - lj) & guard:
                    dominated.add(li)
                    break
        # among equal lcms keep the first; drop it if its leads are
        # coprime (Buchberger's criterion: then the lcm is their product)
        keep = []
        seen = set()
        for i, li in enumerate(lcms):
            if li in dominated or li in seen:
                continue
            seen.add(li)
            if li != leads[i] + hp:
                keep.append(i)
        # prune old pairs via the chain criterion
        stale = [
            ij for ij, lij in pairs.items()
            if not (lij - hp) & guard
            and lcms[ij[0]] != lij
            and lcms[ij[1]] != lij
        ]
        for ij in stale:
            del pairs[ij]
        hdeg, _ = lift(hp)
        for i in keep:
            li = lcms[i]
            sdeg, shift = lift(li - hp)
            counter += 1
            heapq.heappush(pair_heap, (hdeg + sdeg, hlead + shift, counter, i, new_idx))
            pairs[(i, new_idx)] = li

    for f in flats:
        red, _ = _reduce(f[0], basis, char, guard)
        if red:
            update(_normalize(red, max(red), char))

    steps = 0
    while pair_heap:
        _, lcm_exp, _, i, j = heapq.heappop(pair_heap)
        if pairs.pop((i, j), None) is None:
            continue
        steps += 1
        if max_steps is not None and steps > max_steps:
            raise StepBudgetExceeded(f"S-pair budget {max_steps} exhausted")
        s = _spoly(basis[i], basis[j], lcm_exp)
        if not s:
            continue
        red, _ = _reduce(s, basis, char, guard)
        if red:
            update(_normalize(red, max(red), char))
    return basis


def _interreduce(basis, pack, char):
    """Minimalize and tail-reduce a flat Groebner basis."""
    guard = pack.guard
    # minimal: drop entries whose lead is divisible by an earlier lead;
    # in degree order a lead's other divisors all come before it
    minimal = []
    for terms, lead in _by_degree(pack, basis):
        if not any(not (lead - m[1]) & guard for m in minimal):
            minimal.append((terms, lead))
    reduced = []
    for i, (terms, lead) in enumerate(minimal):
        others = minimal[:i] + minimal[i + 1 :]
        red, _ = _reduce(terms, others, char, guard)
        reduced.append(_normalize(red, max(red), char))
    return _by_degree(pack, reduced)


def _unflatten(ring: PolyRing, flat, pack):
    """Flat (terms, lead) -> monic MultiPoly over ring's field.  Equal
    coefficients of one run share one field element."""
    terms, lead = flat
    field = ring.field
    lc = terms[lead]
    inv = field.inv(field(lc))
    unpack, shared = pack.unpack, pack.coefficients
    out = {}
    for e, v in terms.items():
        c = shared.get((v, lc))
        if c is None:
            c = shared[(v, lc)] = field.mul(field(v), inv)
        out[unpack(e)] = c
    return MultiPoly(ring, out)


def _characteristic(ring: PolyRing):
    """The characteristic of ring's field, which must be Q or GF(p)."""
    if not isinstance(ring.field, (RationalField, PrimeField)):
        raise ValueError(
            f"Groebner computations run over QQ and GF(p), not {ring.field}"
        )
    return ring.field.characteristic


def _packed(run, order, polys):
    """run(pack) with the narrowest fitting packing, restarted with wider
    fields for as long as an exponent overflows.  order must have one
    weight per variable of the polys' ring."""
    if order.nvars != polys[0].ring.nvars:
        raise ValueError("weight length does not match variable count")
    pack = _Packing.fitting(order, polys)
    while True:
        try:
            return run(pack)
        except _Overflow:
            pack = pack.wider()


def reduced_groebner_basis(generators, order, max_steps=None):
    """The unique reduced (monic) Groebner basis as MultiPoly list."""
    gens = [g for g in generators if not g.is_zero()]
    if not gens:
        return []
    ring = gens[0].ring
    char = _characteristic(ring)

    def run(pack):
        gb = buchberger(gens, order, pack, max_steps=max_steps)
        gb = _interreduce(gb, pack, char)
        return [_unflatten(ring, f, pack) for f in gb]

    return _packed(run, order, gens)


def normal_form(f: MultiPoly, basis, order):
    """Remainder of f on division by basis (a list of MultiPoly)."""
    ring = f.ring
    char = _characteristic(ring)
    if f.is_zero():
        return f

    def run(pack):
        flat_basis = [_flatten(g, pack) for g in basis if not g.is_zero()]
        flat_terms, flat_lead = _flatten(f, pack)
        red, scale = _reduce(flat_terms, flat_basis, char, pack.guard)
        # _flatten rescaled f and _reduce multiplied through by scale; undo
        # both so that f - normal_form(f) lies in the ideal with exact
        # coefficients (linearity of NF).
        field = ring.field
        factor = field.mul(
            f.terms[pack.unpack(flat_lead)],
            field.inv(field(flat_terms[flat_lead] * scale)),
        )
        return MultiPoly(ring, {pack.unpack(e): field.mul(field(v), factor)
                                for e, v in red.items()})

    return _packed(run, order, [f, *basis])
