"""Ideal-level operations: initial ideals, saturation, monomial-freeness,
intersection, elimination, toric kernels and Hilbert-series degrees."""

from __future__ import annotations

from functools import reduce
from itertools import combinations_with_replacement, zip_longest
from math import comb
from operator import mul, or_

from ..complexes import integer_echelon
from .groebner import StepBudgetExceeded, normal_form, reduced_groebner_basis
from .orders import TermOrder, degrevlex, elimination_order, weight_order
from .poly import MultiPoly, PolyRing


class IdealHandle:
    """An ideal presented by generators, with cached reduced bases."""

    def __init__(self, ring: PolyRing, generators):
        self.ring = ring
        self.generators = tuple(g for g in generators if not g.is_zero())
        self._bases = {}

    @classmethod
    def of(cls, generators):
        gens = list(generators)
        if not gens:
            raise ValueError("need at least one generator (possibly zero)")
        return cls(gens[0].ring, gens)

    def reduced_groebner(self, order: TermOrder, max_steps=None):
        if order not in self._bases:
            self._bases[order] = reduced_groebner_basis(
                self.generators, order, max_steps=max_steps
            )
        return self._bases[order]

    def normal_form(self, f: MultiPoly):
        order = degrevlex(self.ring.nvars)
        return normal_form(f, self.reduced_groebner(order), order)

    def contains(self, f: MultiPoly) -> bool:
        return self.normal_form(f).is_zero()

    def equals(self, other: "IdealHandle") -> bool:
        """Ideal equality: the reduced degrevlex bases agree."""
        if self.ring != other.ring:
            raise ValueError("ideals live in different rings")
        order = degrevlex(self.ring.nvars)
        return self.reduced_groebner(order) == other.reduced_groebner(order)

    def is_homogeneous(self) -> bool:
        return all(g.is_homogeneous() for g in self.generators)

    def __repr__(self):
        return f"IdealHandle({len(self.generators)} gens in {self.ring})"


# -- initial forms and initial ideals ------------------------------------


def initial_form(f: MultiPoly, w) -> MultiPoly:
    """Sum of the terms of f with minimal <exponent, w> (min convention)."""
    if f.is_zero():
        return f
    iw = TermOrder(w).int_weight
    if len(iw) != f.ring.nvars:
        raise ValueError("weight length does not match variable count")
    return _initial_form(f, iw)


def _initial_form(f, iw):
    """initial_form at a weight scaled to the integers iw."""
    best = None
    chosen = {}
    for exp, c in f.terms.items():
        wt = sum(map(mul, exp, iw))
        if best is None or wt < best:
            best = wt
            chosen = {exp: c}
        elif wt == best:
            chosen[exp] = c
    return MultiPoly(f.ring, chosen)


def initial_ideal(ideal: IdealHandle, w, max_steps=None) -> IdealHandle:
    """in_w(I), generated by in_w(G) for G the reduced basis of I under
    weight_order(w), i.e. w refined by degrevlex; so in_w(G) is also the
    reduced degrevlex basis of in_w(I) (Sturmfels, GBCP, Cor. 1.9).
    An initial form equal to one still in use elsewhere (the cones of a
    Groebner fan share many) is that same object."""
    worder = weight_order(w)
    if worder.nvars != ideal.ring.nvars:
        raise ValueError("weight length does not match variable count")
    basis = ideal.reduced_groebner(worder, max_steps=max_steps)
    shared = ideal.ring.shared
    inw = IdealHandle(ideal.ring, [shared(_initial_form(g, worder.int_weight)) for g in basis])
    order = degrevlex(ideal.ring.nvars)
    lead = order.leading_monomial
    # reduced_groebner_basis's order: the degrevlex key starts with the degree
    inw._bases[order] = sorted(inw.generators, key=lambda g: order.key(lead(g)))
    return inw


# -- saturation and monomial-freeness ------------------------------------


class MonomialFreeness:
    """Decision result: free flag plus a monomial witness when not free."""

    def __init__(self, free: bool, witness=None):
        self.free = free
        self.witness = witness

    def __bool__(self):
        return self.free

    def __repr__(self):
        if self.free:
            return "MonomialFreeness(free=True)"
        return f"MonomialFreeness(free=False, witness={self.witness})"


def saturate(ideal: IdealHandle, max_steps=None):
    """J : (x_1 ... x_n)^oo for a homogeneous ideal J, one variable at a
    time in J's own ring (Bayer).

    Under an order whose leading terms carry the least power of x_i
    (degrevlex for the last variable, weight_order(e_i) for any other),
    dividing each element of a Groebner basis by its largest power of x_i
    gives a basis of J : x_i^oo.  Returns that basis after the last
    variable and the list of the largest power of each x_i divided out;
    stops early once the basis holds a constant, i.e. at (1).  max_steps
    caps each Groebner run.
    """
    if not ideal.is_homogeneous():
        raise ValueError("saturation requires a homogeneous ideal")
    ring = ideal.ring
    n = ring.nvars
    # x_{n-1} first, since the degrevlex basis is its Bayer basis
    basis = ideal.reduced_groebner(degrevlex(n), max_steps=max_steps)
    power = [0] * n
    for i in [n - 1, *range(n - 1)]:
        if i != n - 1:
            basis = reduced_groebner_basis(
                basis, weight_order([int(j == i) for j in range(n)]),
                max_steps=max_steps,
            )
        ks = [min(e[i] for e in g.terms) for g in basis]
        power[i] = max(ks, default=0)
        basis = [
            MultiPoly(ring, {e[:i] + (e[i] - k,) + e[i + 1:]: c
                             for e, c in g.terms.items()})
            for g, k in zip(basis, ks)
        ]
        if any(g.total_degree() == 0 for g in basis):
            break
    return basis, power


def contains_monomial(ideal: IdealHandle, max_steps=None):
    """Does the homogeneous ideal J contain a monomial?  Decided by saturation.

    J contains a monomial iff J : (x_1 ... x_n)^oo = (1) (see saturate).
    The powers divided out bound the degree of a search for the first
    monomial of J in degree, then lexicographic, order; each candidate
    tested counts as one step against max_steps.
    """
    if not ideal.is_homogeneous():
        raise ValueError("contains_monomial requires a homogeneous ideal")
    ring = ideal.ring
    n = ring.nvars
    base_order = degrevlex(n)
    gbase = ideal.reduced_groebner(base_order, max_steps=max_steps)
    for g in gbase:
        if g.is_monomial():
            return MonomialFreeness(False, witness=g)
    basis, power = saturate(ideal, max_steps=max_steps)
    if not any(g.total_degree() == 0 for g in basis):
        return MonomialFreeness(True)
    # the product of x_i^power[i] lies in J, so the search ends by its degree
    candidates = (c for deg in range(1, sum(power) + 1)
                  for c in combinations_with_replacement(range(n), deg))
    for steps, combo in enumerate(candidates, 1):
        if max_steps is not None and steps > max_steps:
            raise StepBudgetExceeded(f"witness search budget {max_steps} exhausted")
        mono = ring.monomial([combo.count(j) for j in range(n)])
        if normal_form(mono, gbase, base_order).is_zero():
            return MonomialFreeness(False, witness=mono)
    return MonomialFreeness(False, witness=ring.monomial(power))


def is_monomial_free(ideal: IdealHandle, w, max_steps=None) -> MonomialFreeness:
    """True iff in_w(I) contains no monomial (Grassmannian membership test)."""
    inw = initial_ideal(ideal, w, max_steps=max_steps)
    return contains_monomial(inw, max_steps=max_steps)


# -- elimination, intersection, toric kernels ----------------------------


def eliminate(ideal: IdealHandle, variables, max_steps=None) -> IdealHandle:
    """Intersection with the subring omitting the given variables.

    Returns an ideal in the smaller ring (variables dropped).
    """
    ring = ideal.ring
    idx = sorted(ring.var_index(v) if isinstance(v, str) else v for v in variables)
    idx_set = set(idx)
    order = elimination_order(ring.nvars, idx)
    basis = reduced_groebner_basis(ideal.generators, order, max_steps=max_steps)
    keep = [i for i in range(ring.nvars) if i not in idx_set]
    small = PolyRing(ring.field, [ring.variables[i] for i in keep])
    out = []
    for g in basis:
        if all(all(e[i] == 0 for i in idx) for e in g.terms):
            out.append(
                MultiPoly(small, {tuple(e[i] for i in keep): c for e, c in g.terms.items()})
            )
    return IdealHandle(small, out)


def intersect_ideals(a: IdealHandle, b: IdealHandle, max_steps=None) -> IdealHandle:
    """I cap J via the auxiliary variable t and elimination."""
    if a.ring != b.ring:
        raise ValueError("ideals live in different rings")
    ring = a.ring
    ext = PolyRing(ring.field, ("_t",) + ring.variables)

    def lift(g):
        return MultiPoly(ext, {(0,) + e: c for e, c in g.terms.items()})

    t = ext.gen(0)
    gens = [t * lift(g) for g in a.generators]
    gens += [(ext.one() - t) * lift(g) for g in b.generators]
    elim = eliminate(IdealHandle(ext, gens), ["_t"], max_steps=max_steps)
    # map back onto the original ring object
    out = [MultiPoly(ring, dict(g.terms)) for g in elim.generators]
    return IdealHandle(ring, out)


def _integer_kernel(vectors):
    """Basis of the lattice {u in Z^n : sum_j u_j a_j = 0} of the integer
    vectors a_1..a_n, by unimodular row reduction of [A^T | I]: the rows
    whose A^T part is cleared.  The row operations are invertible over Z,
    so the basis spans all of ker_Z(A), not a sublattice of finite index.
    """
    n, m = len(vectors), len(vectors[0]) if vectors else 0
    rows = [list(a) + [int(i == j) for j in range(n)] for i, a in enumerate(vectors)]
    return [row[m:] for row in rows[integer_echelon(rows, m):]]


def toric_kernel(monomial_map, source_ring: PolyRing, target_ring: PolyRing,
                 max_steps=None) -> IdealHandle:
    """Kernel of the ring map sending each source variable to a monomial
    in the target variables.

    monomial_map: dict source-variable-name -> exponent tuple over the
    target ring (or a MultiPoly term c * monomial in the target ring,
    c a nonzero scalar).

    For x_j -> c_j t^{a_j} the kernel is the saturation by the product of
    the variables of the binomials c(u-) x^{u+} - c(u+) x^{u-}, u in a
    basis of L = ker_Z(A), where c(v) is the coefficient of the image of
    x^v (Sturmfels, Groebner Bases and Convex Polytopes, Lemma 12.2).
    The kernel must be homogeneous (ValueError otherwise); max_steps caps
    each Groebner run of the saturation.
    """
    field = source_ring.field
    images = [monomial_map[name] for name in source_ring.variables]
    images = [f if isinstance(f, MultiPoly) else target_ring.monomial(f) for f in images]
    if not all(f.is_monomial() for f in images):
        raise ValueError("images must be monomials")
    exps, coeffs = zip(*(next(iter(f.terms.items())) for f in images))

    def coeff(v):
        return reduce(field.mul, [c for c, k in zip(coeffs, v) for _ in range(k)],
                      field.one())

    binomials = []
    for u in _integer_kernel(exps):
        plus, minus = tuple(max(x, 0) for x in u), tuple(max(-x, 0) for x in u)
        binomials.append(source_ring.from_terms(
            [(plus, coeff(minus)), (minus, field.neg(coeff(plus)))]))
    basis, _ = saturate(IdealHandle(source_ring, binomials), max_steps=max_steps)
    return IdealHandle(source_ring, basis)


# -- Hilbert series degree ------------------------------------------------


def _poly_sum(a, b):
    """a + b for coefficient lists (constant term first), trimmed of
    trailing zeros."""
    out = [x + y for x, y in zip_longest(a, b, fillvalue=0)]
    while out and out[-1] == 0:
        out.pop()
    return out


def _poly_mul(a, b):
    """a * b for coefficient lists with nonzero leading coefficients."""
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _polarized_masks(exps):
    """One int per exponent tuple: its polarization as a support mask,
    with bit (i, k) set when x_i^k divides it.  Divisibility, lcm and
    coprimality of monomials are those of their masks, and the degree
    is the popcount."""
    offsets = [0]
    for col in zip(*exps):
        offsets.append(offsets[-1] + max(col))
    return [sum(((1 << a) - 1) << at for a, at in zip(e, offsets)) for e in exps]


def _minimal_masks(masks):
    """The masks that no other one divides, for masks listed by
    nondecreasing popcount (a divisor comes before its multiples)."""
    out = []
    for m in masks:
        if all(k & ~m for k in out):
            out.append(m)
    return out


def _minimalize_monomials(exps):
    """The minimal generators among exps, by (degree, exponent)."""
    exps = sorted(set(exps), key=lambda e: (sum(e), e))
    by_mask = dict(zip(_polarized_masks(exps), exps))
    return [by_mask[m] for m in _minimal_masks(list(by_mask))]


def _hilbert_numerator(exps):
    """Numerator of the Hilbert series of R/<exps> over (1-t)^nvars.

    Computed on the polarization, a squarefree ideal with the same
    graded Betti numbers and so the same numerator (Bigatti, JPAA 1997;
    Bayer & Stillman, J. Symb. Comp. 1992).  [] for the unit ideal.
    """
    masks = _minimal_masks(sorted(set(_polarized_masks(exps)), key=int.bit_count))
    if masks and not masks[0]:
        return []
    return _squarefree_numerator(masks)


def _squarefree_numerator(masks):
    """The numerator for the minimal squarefree generators masks, listed
    by nondecreasing popcount; no mask is 0."""
    if not masks:
        return [1]
    union = reduce(or_, masks)
    if sum(m.bit_count() for m in masks) == union.bit_count():
        # pairwise coprime: a complete intersection
        return reduce(_poly_mul, ([1] + [0] * (m.bit_count() - 1) + [-1] for m in masks))
    groups = _variable_disjoint_groups(masks)
    if len(groups) > 1:
        # R/I is the tensor product of the groups' quotients
        return reduce(_poly_mul, map(_squarefree_numerator, groups))
    counts = {}
    for m in masks:
        while m:
            low = m & -m
            counts[low] = counts.get(low, 0) + 1
            m ^= low
    x = max(counts, key=counts.get)
    # 0 -> (R/(I:x))(-1) -> R/I -> R/(I+<x>) -> 0; I+<x> splits off x,
    # and I:x rewrites only the generators that hold x, none of which
    # is x itself, since x is shared.
    without = [m for m in masks if not m & x]
    cut = _minimal_masks([m ^ x for m in masks if m & x])
    colon = sorted(cut + [m for m in without if all(k & ~m for k in cut)],
                   key=int.bit_count)
    return _poly_sum(_poly_mul(_squarefree_numerator(without), [1, -1]),
                     [0] + _squarefree_numerator(colon))


def _variable_disjoint_groups(masks):
    """masks split into groups whose supports are pairwise disjoint and
    which no finer such split has, each group in the order of masks."""
    groups = []
    while masks:
        support, grown = masks[0], True
        while grown:
            grown = False
            for m in masks:
                if m & support and m | support != support:
                    support |= m
                    grown = True
        groups.append([m for m in masks if m & support])
        masks = [m for m in masks if not m & support]
    return groups


def degree_of(ideal: IdealHandle, max_steps=None) -> int:
    """Degree of the projective scheme of a homogeneous ideal.

    Computed from the Hilbert series of the initial monomial ideal of a
    reduced Groebner basis.  Write its numerator as num = (1-t)^c * h
    with h(1) != 0; the degree is h(1).  The coefficient of s^k in
    num(1-s) = s^c * h(1-s) is (-1)^k * sum_i C(i, k) * num_i, so the
    first nonzero one is at k = c and equals h(1).
    """
    if not ideal.is_homogeneous():
        raise ValueError("degree_of requires a homogeneous ideal")
    order = degrevlex(ideal.ring.nvars)
    basis = ideal.reduced_groebner(order, max_steps=max_steps)
    num = _hilbert_numerator([order.leading_monomial(g) for g in basis])
    if not num:
        raise ValueError("unit ideal has no projective degree")
    for k in range(len(num)):
        h1 = sum(comb(i, k) * c for i, c in enumerate(num))
        if h1:
            return (-1) ** k * h1
