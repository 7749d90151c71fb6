"""The Plucker ideal I_{d,n} and related constructions.

Variables are named ``p_<i1><i2>...<id>`` (plucker_name) for sorted
d-subsets of [n], in lexicographic subset order.  Generators are the
quadratic exchange relations, minimalized by linear algebra in degree two.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations, permutations

from ..pvector import INF, PlueckerVector, d_subsets, subset_key
from .poly import MultiPoly, PolyRing
from .scalars import QQ


def sort_sign(tup):
    """(sign, sorted tuple) of an index tuple, or None on a repeat."""
    t = list(tup)
    if len(set(t)) != len(t):
        return None
    sign = 1
    for i in range(len(t)):
        for j in range(len(t) - 1 - i):
            if t[j] > t[j + 1]:
                t[j], t[j + 1] = t[j + 1], t[j]
                sign = -sign
    return sign, tuple(t)


def _leibniz_minor(ring, rows, cols) -> MultiPoly:
    """The minor on the (1-based) columns cols of a d x n matrix of
    MultiPolys of ring given by its rows: the sum over the permutations
    of range(d) of the signed products of the entries they pick."""
    d, n = len(rows), len(rows[0]) if rows else 0
    if len(cols) != d:
        raise ValueError(f"a minor of a {d} x {n} matrix needs {d} columns, got {tuple(cols)}")
    if not all(1 <= c <= n for c in cols):
        raise ValueError(f"columns {tuple(cols)} are not all in 1..{n}")
    det = ring.zero()
    for perm in permutations(range(len(rows))):
        prod = ring.one()
        for r, pos in enumerate(perm):
            prod = prod * rows[r][cols[pos] - 1]
        det = det + prod if sort_sign(perm)[0] > 0 else det - prod
    return det


def plucker_ring(d: int, n: int, field=QQ) -> PolyRing:
    """The ring of I_{d,n}, one shared object per (d, n, field), whether
    the field is passed or left to its default."""
    return _plucker_ring(d, n, field)


@lru_cache(maxsize=32)
def _plucker_ring(d, n, field):
    return PolyRing(field, [plucker_name(S) for S in d_subsets(d, n)])


def plucker_name(S) -> str:
    """The variable name of p_S for a sorted subset S: "p_" and S's
    digits, as pvector.subset_key writes them for n <= 9, at every n,
    since a ring does not know n."""
    return "p_" + subset_key(S, 9)


def plucker_monomial(ring: PolyRing, *subsets) -> tuple:
    """The exponent in ring of the product of p_S over the sorted
    subsets S, repeats counted; each p_S is found by plucker_name, so
    the ring may list its Plucker variables in any order."""
    exp = [0] * ring.nvars
    for S in subsets:
        exp[ring.var_index(plucker_name(S))] += 1
    return tuple(exp)


def _exchange_relations(d: int, n: int):
    """Quadratic exchange relations as {(S,T): int} with S <= T sorted."""
    rels = []
    seen = set()
    for I in combinations(range(1, n + 1), d - 1):
        for J in combinations(range(1, n + 1), d + 1):
            terms = {}
            for pos, j in enumerate(J):
                b1 = sort_sign(I + (j,))
                b2 = sort_sign(tuple(x for x in J if x != j))
                if b1 is None or b2 is None:
                    continue
                s = (-1) ** pos * b1[0] * b2[0]
                key = tuple(sorted((b1[1], b2[1])))
                terms[key] = terms.get(key, 0) + s
            terms = {k: v for k, v in terms.items() if v}
            if not terms:
                continue
            items = sorted(terms.items())
            sgn = 1 if items[0][1] > 0 else -1
            canon = tuple((k, sgn * v) for k, v in items)
            if canon not in seen:
                seen.add(canon)
                rels.append(dict(canon))
    return rels


def _to_poly(ring: PolyRing, rel: dict) -> MultiPoly:
    return ring.from_terms(
        (plucker_monomial(ring, S, T), c) for (S, T), c in rel.items())


def _minimalize_quadrics(polys):
    """Maximal linearly independent subset, by incremental elimination."""
    if not polys:
        return []
    field = polys[0].ring.field
    zero = field.zero()
    echelon = {}  # pivot exponent -> reduced row dict
    kept = []
    for f in polys:
        row = dict(f.terms)
        while row:
            pivot = max(row)
            if pivot not in echelon:
                inv = field.inv(row[pivot])
                echelon[pivot] = {e: field.mul(c, inv) for e, c in row.items()}
                kept.append(f)
                break
            base = echelon[pivot]
            c = row[pivot]
            for e, v in base.items():
                s = field.add(row.get(e, zero), field.neg(field.mul(c, v)))
                if s == zero:
                    row.pop(e, None)
                else:
                    row[e] = s
    return kept


def plucker_generators(d: int, n: int, field=QQ):
    """Generators of I_{d,n}: the quadratic exchange relations,
    minimalized by linear algebra in degree 2; for d=2 these are the
    C(n,4) three-term relations.  A new list of polynomials shared by
    every call with the same (d, n, field), in plucker_ring's ring.
    """
    if d < 2 or d >= n:
        raise ValueError("need 2 <= d < n")
    return list(_plucker_generators(d, n, field))


@lru_cache(maxsize=32)
def _plucker_generators(d, n, field):
    ring = plucker_ring(d, n, field)
    return tuple(_minimalize_quadrics(
        [_to_poly(ring, rel) for rel in _exchange_relations(d, n)]))


def three_term_quadric(ring: PolyRing, i, j, k, l) -> MultiPoly:
    """p_ij p_kl - p_ik p_jl + p_il p_jk (d=2), for i<j<k<l."""
    return ring.from_terms((
        (plucker_monomial(ring, (i, j), (k, l)), 1),
        (plucker_monomial(ring, (i, k), (j, l)), -1),
        (plucker_monomial(ring, (i, l), (j, k)), 1),
    ))


# -- expansion on a generic matrix --------------------------------------


def generic_matrix_ring(d: int, n: int, field=QQ) -> PolyRing:
    names = [f"x{r}_{c}" for r in range(1, d + 1) for c in range(1, n + 1)]
    return PolyRing(field, names)


def generic_minor(ring: PolyRing, d: int, n: int, cols) -> MultiPoly:
    """The minor on columns cols of the generic d x n matrix of
    generic_matrix_ring, whose entry (r, c) is x<r>_<c>."""
    return _leibniz_minor(
        ring, [[ring.gen(r * n + c) for c in range(n)] for r in range(d)], cols)


def expand_on_generic_matrix(f: MultiPoly, d: int, n: int) -> MultiPoly:
    """Substitute each p_S by the d x d minor on columns S of a generic
    symbolic d x n matrix and expand.  Zero output certifies membership
    in I_{d,n}.  Each variable is read through its name ``p_<S>``, so the
    ring may list the Plucker variables in any order."""
    target = generic_matrix_ring(d, n, f.ring.field)
    by_name = {plucker_name(S): S for S in d_subsets(d, n)}
    unknown = [v for v in f.ring.variables if v not in by_name]
    if unknown:
        raise ValueError(f"not Plucker variables of G({d},{n}): {unknown}")
    subs = [by_name[v] for v in f.ring.variables]
    minors = {}
    result = target.zero()
    for exp, c in f.terms.items():
        term = target.one() * c
        for vi, e in enumerate(exp):
            if e == 0:
                continue
            S = subs[vi]
            if S not in minors:
                minors[S] = generic_minor(target, d, n, S)
            term = term * minors[S] ** e
        result = result + term
    return result


# -- valuation certificates over k[t] ------------------------------------


class TPolyMatrix:
    """A d x n matrix of univariate polynomials in t over a field.

    Entries are given as coefficient lists [c0, c1, ...] (index = power
    of t) or scalars, and held as MultiPolys of the ring field[t].
    """

    def __init__(self, rows, field=QQ):
        self.field = field
        self._ring = PolyRing(field, ("t",))

        def poly(entry):
            coeffs = entry if isinstance(entry, (list, tuple)) else [entry]
            return self._ring.from_terms(((i,), c) for i, c in enumerate(coeffs))

        self.entries = [[poly(entry) for entry in row] for row in rows]
        self.d = len(self.entries)
        self.n = len(self.entries[0]) if self.entries else 0
        if any(len(row) != self.n for row in self.entries):
            raise ValueError("ragged matrix")

    def minor(self, cols):
        """Determinant of the column submatrix, as a t-polynomial."""
        return _leibniz_minor(self._ring, self.entries, cols)


def plucker_valuations(M: TPolyMatrix) -> PlueckerVector:
    """Per d-subset S: the lowest t-degree of the minor on columns S.

    A vanishing minor yields an infinite coordinate; callers decide how
    to treat it.
    """
    return PlueckerVector(M.d, M.n, {S: _valuation(M, S) for S in d_subsets(M.d, M.n)})


def _valuation(M: TPolyMatrix, S):
    """The lowest t-degree of the minor on columns S, or INF if it vanishes."""
    return min((e[0] for e in M.minor(S).terms), default=INF)


# -- the Fano configuration and its valuation certificate ----------------

FANO_LINES = (
    (1, 2, 4), (2, 3, 5), (3, 4, 6), (4, 5, 7),
    (1, 5, 6), (2, 6, 7), (1, 3, 7),
)

# columns of a GF(2) realization: triples are dependent exactly on the lines
FANO_COLUMNS = (
    (0, 0, 1), (0, 1, 0), (1, 0, 0), (0, 1, 1),
    (1, 1, 0), (1, 1, 1), (1, 0, 1),
)


def fano_weight() -> PlueckerVector:
    """The (3,7) weight vector with coordinate 1 on the line-triples of
    the Fano plane and 0 elsewhere."""
    return PlueckerVector(3, 7, {T: 1 for T in FANO_LINES})


def fano_certificate_search(field, rng, max_trials=20000):
    """Bounded search for a t-perturbation of the Fano matrix over the
    given characteristic-2 field whose Pluecker valuations equal the
    Fano weight vector exactly.

    Tries matrices M(t) with entry (r, c) = FANO_COLUMNS[c][r] + t*E[r][c]
    for random E over the field.  Returns (matrix, trials) on success or
    (None, best) after max_trials, where best is the largest number of
    line-triples that simultaneously reached valuation exactly 1.

    Over GF(2) itself the search provably cannot succeed: the seven
    t-coefficients of the line minors are linear forms in E whose sum is
    identically zero mod 2, so at most six can be nonzero at once.
    """
    if field.characteristic != 2:
        raise ValueError("the Fano vector needs residue characteristic 2")
    w = fano_weight()
    # the nonzero field elements, probed from small integer labels
    units = sorted({field(x) for x in range(1, 8)} - {field.zero()})
    best = 0
    for trial in range(1, max_trials + 1):
        E = [[rng.choice([field.zero()] + units) for _ in range(7)] for _ in range(3)]
        rows = [
            [[field(FANO_COLUMNS[c][r]), E[r][c]] for c in range(7)]
            for r in range(3)
        ]
        M = TPolyMatrix(rows, field)
        # only the line minors decide `good`; the other 28 wait for a hit
        good = sum(1 for T in FANO_LINES if _valuation(M, T) == 1)
        if good > best:
            best = good
        if good == 7 and plucker_valuations(M) == w:
            return M, trial
    return None, best
