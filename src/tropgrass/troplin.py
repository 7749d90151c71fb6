"""Tropical linear spaces L_w from Pluecker vectors.

Circuit generation, membership, face types (d-partitions), duality,
reconstruction of w from a membership oracle, bounded faces, and the
complete-intersection obstruction for d = 2.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from math import lcm

from .minplus import finite_point, scaled_linear_form
from .pvector import (
    INF, DPartition, PlueckerVector, d_subsets, ext, scaled, subset_key,
    subset_tuple)
from .treespace import cherries, is_caterpillar

_TYPE_GUARD_D = (2, 3)
_TYPE_GUARD_N = 7


class DegenerateCircuit(ValueError):
    """A circuit with fewer than two finite coefficients: w is outside
    the regime where L_w is a tropical linear space."""


def is_bounded_face(p: DPartition) -> bool:
    """A type's face is bounded iff every block has at least 2 elements."""
    return all(len(b) >= 2 for b in p.blocks)


class TropicalPlane:
    """The tropical linear space cut out by the circuits of w."""

    def __init__(self, w: PlueckerVector):
        self.w = w
        self._table = None
        self._circuits = None

    @property
    def d(self):
        return self.w.d

    @property
    def n(self):
        return self.w.n

    def circuit_subsets(self):
        return subset_tuple(self.w.d + 1, self.w.n)

    def _scaled_circuits(self):
        """(L, table): w scaled to ints over L by `scaled`, and per
        circuit J, in the order of circuit_subsets(), its finite
        (j - 1, L * w_{J minus j}) pairs.  Raises DegenerateCircuit at
        the first J with fewer than two."""
        if self._table is None:
            coords = self.w.coords
            L, ints = scaled(coords.values())
            ints = dict(zip(coords, ints))
            table = []
            for J in self.circuit_subsets():
                row = []
                for k, j in enumerate(J):
                    c = ints[J[:k] + J[k + 1:]]
                    if c is not None:
                        row.append((j - 1, c))
                if len(row) < 2:
                    raise DegenerateCircuit(
                        f"circuit {subset_key(J, self.n)} has fewer than "
                        "two finite coefficients"
                    )
                table.append(row)
            self._table = L, table
        return self._table

    def circuits(self):
        """The C(n, d+1) tropical linear forms F_J, J of size d+1, with
        coefficient w_{J minus j} on x_j."""
        if self._circuits is None:
            L, table = self._scaled_circuits()
            coords = self.w.coords
            out = []
            for J, row in zip(self.circuit_subsets(), table):
                coeffs = [INF] * self.n
                for k, j in enumerate(J):
                    coeffs[j - 1] = coords[J[:k] + J[k + 1:]]
                out.append(scaled_linear_form(coeffs, L, row))
            self._circuits = out
        return self._circuits

    def contains(self, x):
        """Whether x lies on every circuit hypersurface; returns a
        truthy/falsy result carrying the first violating circuit.  The
        point is coerced, validated and scaled to integers once, also when
        there are no circuits (d = n).  With x scaled to (m, m*x), the
        term of x_j in circuit J is compared as the int
        L*w_{J minus j}*m + L*m*x_j."""
        m, xs = scaled(finite_point(x, self.n))
        L, table = self._scaled_circuits()
        if L != 1:
            xs = [L * v for v in xs]
        for J, row in zip(self.circuit_subsets(), table):
            terms = [c * m + xs[i] for i, c in row]
            if terms.count(min(terms)) < 2:
                return Membership(False, J, self.n)
        return Membership(True, None, self.n)

    def __contains__(self, x):
        return bool(self.contains(x))


class Membership:
    """Boolean membership answer plus the violating circuit, if any, of
    a plane in n coordinates."""

    __slots__ = ("ok", "violating_circuit", "n")

    def __init__(self, ok, violating_circuit, n):
        self.ok = ok
        self.violating_circuit = violating_circuit
        self.n = n

    def __bool__(self):
        return self.ok

    def __repr__(self):
        if self.ok:
            return "Membership(True)"
        J = subset_key(self.violating_circuit, self.n)
        return f"Membership(False, violating_circuit={J})"


def circuits(w: PlueckerVector):
    return TropicalPlane(w).circuits()


def dual(w: PlueckerVector) -> PlueckerVector:
    """w* has ([n] minus I)-coordinate equal to the I-coordinate of w."""
    full = set(range(1, w.n + 1))
    coords = {
        tuple(sorted(full - set(S))): v for S, v in w.coords.items()
    }
    return PlueckerVector(w.n - w.d, w.n, coords)


# -- face types via exhaustive tight-pattern search ----------------------


def plane_type(plane) -> set:
    """The set of d-partitions of the d-dimensional faces of L_w.

    Depth-first search over exact tight sets, one circuit at a time:
    choosing S as *the* argmin of circuit J adds the equalities
    x_j - x_k = w_{J-k} - w_{J-j} for j, k in S and strict inequalities
    against J - S, so the feasible leaves are the disjoint relative
    interiors of the faces of L_w.  Constraints are pure difference
    bounds, so exact feasibility is an incremental all-pairs-shortest-
    path check over (value, strictness) weights.  A feasible leaf has
    dimension equal to its number of difference-constancy classes; the
    leaves with exactly d classes contribute their class partitions.
    """
    if isinstance(plane, PlueckerVector):
        plane = TropicalPlane(plane)
    d, n = plane.d, plane.n
    if d not in _TYPE_GUARD_D or n > _TYPE_GUARD_N:
        raise ValueError(
            f"plane_type is guarded to d in {_TYPE_GUARD_D}, n <= {_TYPE_GUARD_N}"
        )
    if not plane.w.is_finite():
        raise ValueError("plane_type requires a finite Pluecker vector")
    # per circuit: list of (arcs for each exact tight set S), where an
    # arc (a, b, c, s) means x_a - x_b <= c, strictly if s
    circuit_choices = []
    for J in plane.circuit_subsets():
        coeff = {j: plane.w[tuple(x for x in J if x != j)] for j in J}
        choices = []
        for size in range(2, len(J) + 1):
            for S in combinations(J, size):
                arcs = []
                for j in S:
                    for m in J:
                        if m == j:
                            continue
                        arcs.append(
                            (j - 1, m - 1, coeff[m] - coeff[j], m not in S)
                        )
                choices.append(arcs)
        circuit_choices.append(choices)

    results = set()

    def add_arc(dist, a, b, c, s):
        """Tighten with x_a - x_b <= c (strict if s); None if empty."""
        old = dist[a][b]
        if old is not None and (old[0] < c or (old[0] == c and (old[1] or not s))):
            return dist
        nd = [row[:] for row in dist]
        nd[a][b] = (c, s)
        for i in range(n):
            ia = nd[i][a]
            if ia is None:
                continue
            for j in range(n):
                bj = nd[b][j]
                if bj is None:
                    continue
                v = ia[0] + c + bj[0]
                vs = ia[1] or s or bj[1]
                cur = nd[i][j]
                if cur is None or v < cur[0] or (v == cur[0] and vs and not cur[1]):
                    nd[i][j] = (v, vs)
        for i in range(n):
            di = nd[i][i]
            if di[0] < 0 or (di[0] == 0 and di[1]):
                return None
        return nd

    def classes_of(dist):
        """The blocks of "d_ab + d_ba = 0": dist is closed and feasible
        at a leaf, so that is an equivalence, and each a joins the
        block of the least b <= a tied to it."""
        blocks = {}
        for a in range(n):
            for b in range(a + 1):
                ab, ba = dist[a][b], dist[b][a]
                if ab is not None and ba is not None and ab[0] + ba[0] == 0:
                    blocks.setdefault(b, []).append(a + 1)
                    break
        return list(blocks.values())

    def dfs(idx, dist):
        if idx == len(circuit_choices):
            blocks = classes_of(dist)
            if len(blocks) == d:
                results.add(DPartition(n, blocks))
            return
        for arcs in circuit_choices[idx]:
            nd = dist
            for a, b, c, s in arcs:
                nd = add_arc(nd, a, b, c, s)
                if nd is None:
                    break
            if nd is not None:
                dfs(idx + 1, nd)

    start = [[None] * n for _ in range(n)]
    for i in range(n):
        start[i][i] = (Fraction(0), False)
    dfs(0, start)
    return results


def obvious_types(d, n):
    """The partitions with d-1 singletons and one big block: the types
    of the unbounded coordinate-direction faces present in every L_w."""
    out = set()
    for singles in combinations(range(1, n + 1), d - 1):
        rest = [i for i in range(1, n + 1) if i not in singles]
        out.add(DPartition(n, [[s] for s in singles] + [rest]))
    return out


# -- reconstruction from a membership oracle -----------------------------


class PlaneOracle:
    """Black-box access to a tropical linear space: a membership test
    plus a witness finder for points with prescribed huge coordinates.

    Reconstruction uses only oracle answers; the defining vector is
    hidden.  from_vector builds the standard oracle of L_w, whose
    witness for I is the cocircuit point x_i = M (i in I),
    x_m = w_{I+m} (m not in I).
    """

    def __init__(self, d, n, member, witness):
        self.d = d
        self.n = n
        self.member = member
        self.witness = witness

    @classmethod
    def from_vector(cls, w: PlueckerVector):
        if not w.is_finite():
            raise ValueError("oracle construction requires a finite vector")
        plane = TropicalPlane(w)

        def member(x):
            return bool(plane.contains(x))

        def witness(I, M):
            x = []
            for m in range(1, w.n + 1):
                if m in I:
                    x.append(ext(M))
                else:
                    x.append(ext(w[tuple(sorted(set(I) | {m}))]))
            return x

        return cls(w.d, w.n, member, witness)


class ReconstructionError(ValueError):
    """The oracle is inconsistent with every Pluecker vector in bound."""


def _ratio(v):
    """v as (numerator, denominator) in lowest terms, exactly also for
    a float; None for INF, -inf, NaN and a value that is no number."""
    try:
        return v.as_integer_ratio()
    except (AttributeError, OverflowError, ValueError):
        return None


def reconstruct_plucker(oracle: PlaneOracle, bound=1):
    """Recover w modulo image(phi) from a plane oracle.

    For each (d-1)-subset I the oracle must produce a point of the plane
    with x_i = M := 4*bound*n + 1 on I and all other coordinates at most
    M - (2*bound + 1); each witness is validated against the membership
    test, and the circuit on I + {j,k} then forces
    w_{I+j} - w_{I+k} = x_j - x_k on the star of I, its d-subsets I + k.
    The stars are glued in lex order of I, anchored at 0 on the first
    d-subset.  With k0 the least leaf outside I, every star after the
    first already knows w on I + k0, since k0 < max(I) puts I + k0 in the
    star of the lex-earlier I + k0 - max(I).  So I + k0 fixes the star's
    shift, and each other subset of the star that already has a value
    is checked against it.

    Each witness is read as ints over the lcm m of its denominators, so
    the height, slack and bound tests compare ints.  The glued values
    are ints over one running common denominator D, which grows to
    lcm(D, m) when a witness needs it; only the returned coordinates
    are Fractions.
    """
    d, n = oracle.d, oracle.n
    bound = Fraction(bound)
    bp, bq = bound.numerator, bound.denominator
    M = Fraction(4 * bp * n + bq, bq)
    height = M.as_integer_ratio()
    low = 2 * bp * (2 * n - 1)  # M - (2*bound + 1) = low / bq
    value = {tuple(range(1, d + 1)): 0}  # D * (w_S - w_{12...d})
    D = 1
    for I in d_subsets(d - 1, n):
        x = oracle.witness(set(I), M)
        if len(x) != n:
            raise ReconstructionError("witness has wrong length")
        ratios = [_ratio(v) for v in x]
        for i in I:
            if ratios[i - 1] != height:
                raise ReconstructionError(
                    f"witness for I={I} does not sit at height M on I"
                )
        rest = [m for m in range(1, n + 1) if m not in I]
        for k in rest:
            r = ratios[k - 1]
            if (x[k - 1] == INF) if r is None else r[0] * bq > low * r[1]:
                raise ReconstructionError(
                    f"witness for I={I} is not far below M off I"
                )
        if not oracle.member(x):
            raise ReconstructionError(f"witness for I={I} fails membership")
        finite = {k: ratios[k - 1] for k in rest if ratios[k - 1]}
        m = lcm(*(q for _, q in finite.values()))
        xs = {k: p * (m // q) for k, (p, q) in finite.items()}
        if D % m:
            grow = lcm(D, m) // D
            value = {S: v * grow for S, v in value.items()}
            D *= grow
        per = D // m
        limit = 2 * bp * m  # |dx| * bq > limit iff |dx / m| > 2 * bound
        k0 = rest[0]
        shift = value[tuple(sorted(I + (k0,)))]
        for j in rest[1:]:
            if j not in xs or k0 not in xs or abs(xs[j] - xs[k0]) * bq > limit:
                raise ReconstructionError(
                    f"difference for I={I} exceeds the stated bound"
                )
            v = shift + (xs[j] - xs[k0]) * per
            if value.setdefault(tuple(sorted(I + (j,))), v) != v:
                raise ReconstructionError(
                    "inconsistent differences across witnesses"
                )
    return PlueckerVector(
        d, n, {S: Fraction(value[S], D) for S in d_subsets(d, n)})


# -- complete-intersection obstruction for d = 2 -------------------------


class CIStatus:
    """Outcome of the complete-intersection test for a tree's dual."""

    __slots__ = ("status", "certificate")

    def __init__(self, status, certificate=None):
        self.status = status
        self.certificate = certificate

    def __repr__(self):
        if self.certificate is None:
            return f"CIStatus({self.status})"
        return f"CIStatus({self.status}, certificate={self.certificate})"


def ci_status_d2(tree) -> CIStatus:
    """Prop-style obstruction: if the trivalent tree is not a
    caterpillar it has three pairwise disjoint cherries, and any path
    between two tree points misses the interior of at least one of
    them, so that leaf pair is never separated: the dual (n-2)-plane is
    not a complete intersection.  Caterpillars are left Unknown."""
    if tree.n < 5:
        raise ValueError("need n >= 5 leaves")
    if not tree.is_trivalent():
        raise ValueError("complete-intersection test needs a trivalent tree")
    if is_caterpillar(tree):
        return CIStatus("Unknown")
    return CIStatus("NotCompleteIntersection", tuple(cherries(tree)[:3]))
