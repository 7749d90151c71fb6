"""Finite simplicial complexes: f-vectors, links, flag complexes, and
integral simplicial homology via exact linear algebra, with the
unimodular integer row echelon that the Smith factors and the lattice
kernels of `exactalg` share."""

from __future__ import annotations

from heapq import heapify, heappop, heappush
from math import gcd


class SimplicialComplex:
    """A finite simplicial complex stored by its maximal faces.

    Vertices are hashable labels, numbered once in their str order, and
    a face is one int mask, bit i for vertex number i: `masks` holds the
    maximal faces, largest first.  Labels are read back by `labels`.
    """

    def __init__(self, vertices, maximal_faces):
        self.vertices = tuple(vertices)
        self._labels = sorted(self.vertices, key=str)
        self._index = {v: i for i, v in enumerate(self._labels)}
        if len(self._index) != len(self.vertices):
            raise ValueError("duplicate vertices")
        masks = []
        for f in maximal_faces:
            m = self._mask(f)
            if m is None:
                raise ValueError(f"face {sorted(set(f))} uses unknown vertices")
            masks.append(m)
        # drop repeated faces and faces contained in others: a face can only
        # lie in one of the larger kept faces before it
        kept, larger = [], 0
        for f in sorted(dict.fromkeys(masks), key=int.bit_count, reverse=True):
            while larger < len(kept) and kept[larger].bit_count() > f.bit_count():
                larger += 1
            if not any(f & g == f for g in kept[:larger]):
                kept.append(f)
        self.masks = kept
        self._faces_by_dim = None

    @classmethod
    def flag(cls, vertices, edges):
        """The flag (clique) complex of a simple graph: faces = cliques.
        A loop edge or an edge to an unknown vertex raises ValueError."""
        complex_ = cls(vertices, ())
        adj = [0] * len(complex_.vertices)
        for u, v in edges:
            i, j = complex_._index.get(u), complex_._index.get(v)
            if i is None or j is None:
                raise ValueError(f"edge {(u, v)} uses unknown vertices")
            if i == j:
                raise ValueError(f"edge {(u, v)} is a loop")
            adj[i] |= 1 << j
            adj[j] |= 1 << i
        complex_.masks = sorted(_max_cliques(adj), key=int.bit_count, reverse=True)
        return complex_

    def _mask(self, face):
        """The mask of a collection of labels, or None if one is no vertex."""
        bits = [self._index.get(v) for v in face]
        return None if None in bits else sum({1 << i for i in bits})

    def labels(self, mask):
        """The labels of the vertices of a face mask, in vertex order."""
        return [self._labels[i] for i in _bits(mask)]

    @property
    def maximal_faces(self):
        """The maximal faces as frozensets of labels, in the order of masks."""
        return [frozenset(self.labels(m)) for m in self.masks]

    def faces(self):
        """dict: dimension -> the masks of the faces of that dimension, in
        lex order of their sorted vertex numbers.  The faces of a size are
        its maximal faces and the faces one larger less one vertex."""
        if self._faces_by_dim is None:
            # among faces of one size, lex order is the descending order of
            # the mask's bits read from vertex 0 up; it keeps the pivot
            # columns of betti_numbers sparse
            width = (len(self._labels) + 7) // 8
            by_dim, level = {}, set()
            for k in range(max(map(int.bit_count, self.masks), default=0), 0, -1):
                level = {f ^ (1 << i) for f in level for i in _bits(f)}
                level.update(m for m in self.masks if m.bit_count() == k)
                by_dim[k - 1] = sorted(level, reverse=True, key=lambda m: m.to_bytes(
                    width, "little").translate(_REVERSED_BITS))
            self._faces_by_dim = dict(reversed(by_dim.items()))
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
        return all(m.bit_count() - 1 == d for m in self.masks)

    def euler_characteristic(self) -> int:
        return sum((-1) ** d * c for d, c in enumerate(self.f_vector()))

    def has_face(self, face) -> bool:
        f = self._mask(face)
        return f is not None and any(f & m == f for m in self.masks)

    def link(self, face) -> "SimplicialComplex":
        face = set(face)
        if not self.has_face(face):
            raise ValueError(f"face {sorted(map(str, face))} not in complex")
        f = self._mask(face)
        link_max = [m ^ f for m in self.masks if f & m == f and m != f]
        verts = 0
        for m in link_max:
            verts |= m
        return SimplicialComplex(self.labels(verts), map(self.labels, link_max))

    # -- homology ---------------------------------------------------------

    def boundary_matrix(self, d):
        """Sparse boundary map C_d -> C_{d-1} with the sorted-vertex
        orientation; columns indexed by d-faces, rows by (d-1)-faces.
        For d = 0 it is the zero map C_0 -> 0: the empty face is no cell."""
        if d == 0:
            return [{} for _ in self.faces_of_dim(0)], 0
        lower = {c: i for i, c in enumerate(self.faces_of_dim(d - 1))}
        cols = []
        for cell in self.faces_of_dim(d):
            col = {}
            sign = 1
            for i in _bits(cell):
                col[lower[cell ^ (1 << i)]] = sign
                sign = -sign
            cols.append(col)
        return cols, len(lower)

    def betti_numbers(self, check_torsion=False):
        """Ranks of H_d(K; Q) for d = 0..dim.

        For d = 1..dim the coboundary matrix, the transpose of the
        boundary map C_d -> C_{d-1}, is reduced by one integer elimination
        with unit pivots (see _eliminate), which gives the rank of the
        boundary map and its invariant factors together: a matrix and its
        transpose share them.  The column of a (d-1)-face that was a pivot
        row of the reduction before is skipped ("clearing"): that pivot
        column is a cocycle with entry 1 on the face, so the face's column
        is an integer combination of the columns of the faces after it in
        pivot order and of the faces that were no pivot, and dropping it
        leaves the column lattice as it was.  With check_torsion=True,
        raises for the least d whose boundary map has an invariant factor
        other than 1, that is, if integral homology has torsion; otherwise
        integral homology is free and the Betti numbers tell all.
        """
        top = self.dim()
        if top < 0:
            return ()
        ncells = [len(self.faces_of_dim(d)) for d in range(top + 1)]
        ranks = [0] * (top + 2)
        pivots = {}
        for d in range(1, top + 1):
            cob = [{} for _ in range(ncells[d - 1])]
            for j, col in enumerate(self.boundary_matrix(d)[0]):
                for i, v in col.items():
                    cob[i][j] = v
            kept = [col for i, col in enumerate(cob) if i not in pivots]
            pivots, factors = _eliminate(kept)
            ranks[d] = len(factors)
            torsion = [f for f in factors if f != 1]
            if check_torsion and torsion:
                raise ValueError(
                    f"torsion detected in boundary map d={d}: "
                    f"invariant factors {torsion}"
                )
        return tuple(
            ncells[d] - ranks[d] - ranks[d + 1] for d in range(top + 1)
        )

    def __repr__(self):
        return f"SimplicialComplex(f={self.f_vector()})"


# each byte with its bits in reverse order
_REVERSED_BITS = bytes(int(f"{b:08b}"[::-1], 2) for b in range(256))


def _bits(mask):
    """The positions of the set bits of mask, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _max_cliques(adj):
    """Bron-Kerbosch with pivoting on a graph whose vertices are 0..n-1
    and adj[v] the bitmask of v's neighbours; yields the maximal cliques,
    isolated vertices included, as bitmasks.  The pivot is the least
    vertex with the most neighbours in P and candidates go in increasing
    order, so the cliques come in one order whatever the labels hash to.
    """

    def bk(R, P, X):
        if not P:
            if not X:
                yield R
            return
        most = -1
        for u in _bits(P | X):
            if (k := (adj[u] & P).bit_count()) > most:
                most, pivot = k, u
        for v in _bits(P & ~adj[pivot]):
            bit = 1 << v
            yield from bk(R | bit, P & adj[v], X & adj[v])
            P &= ~bit
            X |= bit

    if adj:
        yield from bk(0, (1 << len(adj)) - 1, 0)


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


def _eliminate(cols):
    """Eliminate a sparse integer matrix given as column dicts {row:
    entry}; returns (pivots, factors): the pivot columns by their pivot
    rows, as _reduce reads them, and the nonzero invariant factors, each
    dividing the next, whose number is the rank.

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
        return pivots, [1] * len(pivots)
    rows = sorted({r for col in residual for r in col})
    dense = [[col.get(r, 0) for col in residual] for r in rows]
    return pivots, [1] * len(pivots) + _smith_factors(dense)


def _smith_factors(a):
    """Nonzero invariant factors of a small dense integer matrix, each
    dividing the next.

    Row echelon forms of the matrix and of its transpose alternate, zero
    rows dropped, until it is diagonal (Kannan & Bachem, SIAM J. Comput.
    8, 1979): each round either shrinks the leading pivot or leaves its
    row and column clear.
    """
    while any(v for i, row in enumerate(a) for j, v in enumerate(row) if i != j):
        a = [list(col) for col in zip(*a)]
        del a[integer_echelon(a, len(a[0])):]
    factors = [abs(row[i]) for i, row in enumerate(a) if i < len(row) and row[i]]
    # a diagonal form; gcd/lcm exchanges turn it into the divisor chain
    for i in range(len(factors)):
        for j in range(i + 1, len(factors)):
            g = gcd(factors[i], factors[j])
            factors[i], factors[j] = g, factors[i] * factors[j] // g
    return factors


def integer_echelon(rows, ncols):
    """Bring the integer rows (lists, changed in place) to row echelon
    form on their first ncols entries by unimodular row operations: swaps
    and subtracting integer multiples of one row from another.  Returns
    the rank r on those columns; rows[:r] hold the pivots, in order, and
    rows[r:] are zero there.  In each column the row whose entry has the
    least absolute value becomes the pivot row and the rows below are
    reduced by it, until the pivot is the only nonzero entry left at or
    below it.
    """
    top = 0
    for col in range(ncols):
        while live := [r for r in range(top, len(rows)) if rows[r][col]]:
            p = min(live, key=lambda r: abs(rows[r][col]))
            rows[top], rows[p] = rows[p], rows[top]
            if len(live) == 1:
                top += 1
                break
            for r in range(top + 1, len(rows)):
                q = rows[r][col] // rows[top][col]
                rows[r] = [x - q * y for x, y in zip(rows[r], rows[top])]
    return top
