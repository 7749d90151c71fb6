"""Finite simplicial complexes: f-vectors, links, flag complexes, and
integral simplicial homology via exact linear algebra."""

from __future__ import annotations

import json
from heapq import heapify, heappop, heappush
from itertools import combinations
from math import gcd


class SimplicialComplex:
    """A finite simplicial complex stored by its maximal faces.

    Vertices are hashable labels; faces are frozensets of vertices.
    """

    def __init__(self, vertices, maximal_faces):
        self.vertices = tuple(vertices)
        vset = set(self.vertices)
        if len(vset) != len(self.vertices):
            raise ValueError("duplicate vertices")
        maximal = [frozenset(f) for f in maximal_faces]
        for f in maximal:
            if not f <= vset:
                raise ValueError(f"face {sorted(f)} uses unknown vertices")
        # drop faces contained in others
        maximal.sort(key=len, reverse=True)
        kept = []
        for f in maximal:
            if not any(f <= g for g in kept):
                kept.append(f)
        self.maximal_faces = kept
        self._faces_by_dim = None
        self._vertex_pos = None

    @classmethod
    def flag(cls, vertices, edges):
        """The flag (clique) complex of a graph: faces = cliques."""
        vertices = list(vertices)
        adj = {v: set() for v in vertices}
        for u, v in edges:
            adj[u].add(v)
            adj[v].add(u)
        cliques = list(_max_cliques(adj))
        isolated = [frozenset([v]) for v in vertices if not adj[v]]
        return cls(vertices, cliques + isolated)

    def faces(self):
        """dict: dimension -> sorted list of faces (frozensets)."""
        if self._faces_by_dim is None:
            seen = set()
            for m in self.maximal_faces:
                for k in range(1, len(m) + 1):
                    for f in combinations(sorted(m, key=str), k):
                        seen.add(frozenset(f))
            by_dim = {}
            for f in seen:
                by_dim.setdefault(len(f) - 1, []).append(f)
            for d in by_dim:
                by_dim[d].sort(key=lambda f: sorted(map(str, f)))
            self._faces_by_dim = by_dim
        return self._faces_by_dim

    def faces_of_dim(self, d):
        return self.faces().get(d, [])

    def f_vector(self):
        by_dim = self.faces()
        if not by_dim:
            return ()
        top = max(by_dim)
        return tuple(len(by_dim.get(d, [])) for d in range(top + 1))

    def dim(self):
        by_dim = self.faces()
        return max(by_dim) if by_dim else -1

    def is_pure(self) -> bool:
        d = self.dim()
        return all(len(m) - 1 == d for m in self.maximal_faces)

    def euler_characteristic(self) -> int:
        return sum((-1) ** d * c for d, c in enumerate(self.f_vector()))

    def has_face(self, face) -> bool:
        f = frozenset(face)
        return any(f <= m for m in self.maximal_faces)

    def link(self, face) -> "SimplicialComplex":
        f = frozenset(face)
        if not self.has_face(f):
            raise ValueError(f"face {sorted(map(str, f))} not in complex")
        link_max = []
        for m in self.maximal_faces:
            if f <= m:
                link_max.append(m - f)
        link_max = [g for g in link_max if g]
        verts = sorted(set().union(*link_max) if link_max else set(), key=str)
        return SimplicialComplex(verts, link_max)

    # -- homology ---------------------------------------------------------

    def _cells(self, d):
        """The d-faces in faces_of_dim order, each as the sorted tuple of
        its vertices' positions in the str order of the vertices."""
        if self._vertex_pos is None:
            order = sorted(self.vertices, key=str)
            self._vertex_pos = {v: i for i, v in enumerate(order)}
        pos = self._vertex_pos
        return [tuple(sorted(pos[v] for v in f)) for f in self.faces_of_dim(d)]

    def boundary_matrix(self, d):
        """Sparse boundary map C_d -> C_{d-1} with the sorted-vertex
        orientation; columns indexed by d-faces, rows by (d-1)-faces."""
        lower = {c: i for i, c in enumerate(self._cells(d - 1))}
        cols = []
        for cell in self._cells(d):
            col = {}
            sign = 1
            for i in range(len(cell)):
                col[lower[cell[:i] + cell[i + 1 :]]] = sign
                sign = -sign
            cols.append(col)
        return cols, len(lower)

    def betti_numbers(self, check_torsion=False):
        """Ranks of H_d(K; Q) for d = 0..dim.

        Each boundary matrix is built once and reduced by one integer
        elimination with unit pivots (see _invariant_factors), which gives
        its rank and its invariant factors together.  With
        check_torsion=True, raises if some invariant factor is not 1, that
        is, if integral homology has torsion; otherwise integral homology
        is free and the Betti numbers tell all.
        """
        top = self.dim()
        if top < 0:
            return ()
        ranks = {}
        ncells = {d: len(self.faces_of_dim(d)) for d in range(top + 1)}
        for d in range(1, top + 1):
            factors = _invariant_factors(self.boundary_matrix(d)[0])
            ranks[d] = len(factors)
            torsion = [f for f in factors if f != 1]
            if check_torsion and torsion:
                raise ValueError(
                    f"torsion detected in boundary map d={d}: "
                    f"invariant factors {torsion}"
                )
        ranks[0] = 0
        ranks[top + 1] = 0
        return tuple(
            ncells[d] - ranks[d] - ranks[d + 1] for d in range(top + 1)
        )

    # -- JSON wire format -------------------------------------------------

    def to_json(self) -> str:
        return json.dumps(
            {
                "vertices": [str(v) for v in self.vertices],
                "maximal_faces": sorted(
                    [sorted(map(str, f)) for f in self.maximal_faces]
                ),
            }
        )

    @classmethod
    def from_json(cls, text: str):
        data = json.loads(text)
        return cls(data["vertices"], data["maximal_faces"])

    def __repr__(self):
        return f"SimplicialComplex(f={self.f_vector()})"


def _max_cliques(adj):
    """Bron-Kerbosch with pivoting; yields maximal cliques of size >= 1."""
    order = sorted(adj, key=str)

    def bk(R, P, X):
        if not P and not X:
            if R:
                yield frozenset(R)
            return
        pivot = max(P | X, key=lambda u: len(adj[u] & P))
        for v in [v for v in order if v in P - adj[pivot]]:
            yield from bk(R | {v}, P & adj[v], X & adj[v])
            P = P - {v}
            X = X | {v}

    yield from bk(set(), set(order), set())


def _reduce(col, pivots):
    """Clear the entries of col (a dict, changed in place) on pivot rows.

    pivots maps a row r to (k, rows, values): the k-th pivot column made,
    with entry 1 at r and its other entries on rows, values.  A pivot
    column is zero on the rows of all older pivots, so subtracting pivot k
    adds entries only on rows of younger pivots or of no pivot, and one
    pass, oldest first, clears every pivot row.
    """
    heap = [(pivots[r][0], r) for r in col if r in pivots]
    heapify(heap)
    while heap:
        r = heappop(heap)[1]
        c = col.pop(r, 0)
        if not c:
            continue
        _, rows, values = pivots[r]
        for k, v in zip(rows, values):
            old = col.get(k, 0)
            new = old - c * v
            if new:
                col[k] = new
                if not old and k in pivots:
                    heappush(heap, (pivots[k][0], k))
            elif old:
                del col[k]


def _invariant_factors(cols):
    """Nonzero invariant factors of a sparse integer matrix given as
    column dicts {row: entry}, each dividing the next; their number is
    its rank.

    One elimination over Z: each column is reduced against the pivot
    columns made so far and, if a +-1 entry is left, it becomes a pivot
    column there.  Only unit pivots are used, so every step is an
    integral column operation and each pivot adds an invariant factor 1.
    A column left without a unit entry waits and is reduced again once
    newer pivots exist.  What is left at the end is the residual block,
    zero on every pivot row, and its invariant factors (_smith_factors)
    complete the list.  Boundary matrices of simplicial complexes have
    +-1 entries throughout, so the residual is usually empty.
    """
    pivots = {}
    pending = map(dict, cols)
    while True:
        grew = False
        residual = []
        for col in pending:
            _reduce(col, pivots)
            r = min((r for r, v in col.items() if v == 1 or v == -1), default=None)
            if r is None:
                if col:
                    residual.append(col)
                continue
            sign = col.pop(r)
            pivots[r] = (len(pivots), tuple(col), tuple(v * sign for v in col.values()))
            grew = True
        if not (residual and grew):
            break
        pending = residual
    if not residual:
        return [1] * len(pivots)
    rows = sorted({r for col in residual for r in col})
    dense = [[col.get(r, 0) for col in residual] for r in rows]
    return [1] * len(pivots) + _smith_factors(dense)


def _smith_factors(a):
    """Nonzero invariant factors of a small dense integer matrix, each
    dividing the next."""
    a = [row[:] for row in a]
    m, n = len(a), len(a[0]) if a else 0
    factors = []
    top = 0
    while top < min(m, n):
        # find smallest nonzero entry at or below/right of (top, top)
        best = None
        for i in range(top, m):
            for j in range(top, n):
                v = a[i][j]
                if v and (best is None or abs(v) < abs(a[best[0]][best[1]])):
                    best = (i, j)
        if best is None:
            break
        bi, bj = best
        a[top], a[bi] = a[bi], a[top]
        for row in a:
            row[top], row[bj] = row[bj], row[top]
        piv = a[top][top]
        dirty = False
        for i in range(top + 1, m):
            q = a[i][top] // piv
            if q:
                for j in range(top, n):
                    a[i][j] -= q * a[top][j]
            if a[i][top]:
                dirty = True
        for j in range(top + 1, n):
            q = a[top][j] // piv
            if q:
                for i in range(top, m):
                    a[i][j] -= q * a[i][top]
            if a[top][j]:
                dirty = True
        if dirty:
            continue
        factors.append(abs(piv))
        top += 1
    # a diagonal form; gcd/lcm exchanges turn it into the divisor chain
    for i in range(len(factors)):
        for j in range(i + 1, len(factors)):
            g = gcd(factors[i], factors[j])
            factors[i], factors[j] = g, factors[i] * factors[j] // g
    return factors
