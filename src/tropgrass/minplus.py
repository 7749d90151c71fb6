"""Tropical (min-plus) arithmetic.

Scalars live in (Q union {+infinity}, min, +): exact rationals so that
ties -- the defining condition for tropical hypersurfaces -- are decidable.
Infinity is neutral for tropical addition (min) and absorbing for tropical
multiplication (ordinary +).
"""

from __future__ import annotations

import csv
import io
from fractions import Fraction
from functools import lru_cache
from itertools import permutations

from .pvector import INF, PlueckerVector, d_subsets, ext, scaled


def finite_point(x, n: int):
    """Coerce x to a list of n finite rationals: an int stays an int and
    every other value becomes a Fraction; evaluation points must be
    finite."""
    x = [v if type(v) is int else ext(v) for v in x]
    if len(x) != n:
        raise ValueError("point length does not match variable count")
    if any(v is INF for v in x):
        raise ValueError("evaluation points must be finite")
    return x


def trop_add(a, b):
    """Tropical sum: min."""
    if a == INF:
        return b
    if b == INF:
        return a
    return min(a, b)


def trop_mul(a, b):
    """Tropical product: ordinary sum, with absorbing infinity."""
    if a == INF or b == INF:
        return INF
    return a + b


class TropPolynomial:
    """A tropical polynomial: finitely many (exponent, coefficient) terms.

    Exponents are tuples of nonnegative ints; coefficients are extended
    reals with at least one finite.  Terms with +infinity coefficient are
    tolerated but never attain the minimum.

    The finite coefficients are also kept as ints over their common
    denominator L.  At a point scaled to (m, m*x), the term c + <e, x>
    is compared as the int c*L*m + L*<e, m*x>, so every tie is decided
    by an int comparison.
    """

    def __init__(self, nvars: int, terms):
        self.nvars = nvars
        clean = {}
        for exp, c in (terms.items() if isinstance(terms, dict) else terms):
            exp = tuple(int(e) for e in exp)
            if len(exp) != nvars:
                raise ValueError("exponent length does not match variable count")
            if any(e < 0 for e in exp):
                raise ValueError("exponents must be nonnegative")
            if exp in clean:
                raise ValueError(f"duplicate exponent {exp}")
            clean[exp] = ext(c)
        self.terms = clean
        self._denominator, ints = scaled(clean.values())
        # each finite term as (exponent, L * coefficient, (index, exponent)
        # pairs of nonzero exponent), so that evaluation reads only the
        # coordinates it needs
        self._finite = [
            (exp, c, tuple((i, e) for i, e in enumerate(exp) if e))
            for exp, c in zip(clean, ints) if c is not None
        ]
        if not self._finite:
            raise ValueError("need at least one finite coefficient")

    def evaluate(self, x):
        """min over terms of coefficient + <exponent, x>."""
        m, xs = scaled(finite_point(x, self.nvars))
        return Fraction(self._argmin(m, xs)[0], self._denominator * m)

    def tight_terms(self, x):
        """The set of exponents attaining evaluate(F, x)."""
        return set(self._argmin(*scaled(finite_point(x, self.nvars)))[1])

    def on_hypersurface(self, x) -> bool:
        """x lies on T(F) iff the minimum is attained at least twice."""
        return len(self._argmin(*scaled(finite_point(x, self.nvars)))[1]) >= 2

    def _argmin(self, m, xs):
        """L*m times the minimum, and the list of exponents attaining it,
        at a point scaled to (m, xs) = (m, m*x).  Each finite term is
        evaluated on its own support."""
        L = self._denominator
        best = None
        tight = []
        for exp, c, support in self._finite:
            v = 0
            for i, e in support:
                v += xs[i] if e == 1 else e * xs[i]
            v = c * m + L * v
            if best is None or v < best:
                best = v
                tight = [exp]
            elif v == best:
                tight.append(exp)
        return best, tight

    def is_homogeneous(self) -> bool:
        degs = {sum(e) for e, _, _ in self._finite}
        return len(degs) <= 1

    def __eq__(self, other):
        return (
            isinstance(other, TropPolynomial)
            and other.nvars == self.nvars
            and other.terms == self.terms
        )

    def __hash__(self):
        return hash((self.nvars, frozenset(self.terms.items())))

    def __repr__(self):
        chunks = []
        for exp, c in sorted(self.terms.items()):
            mono = "*".join(
                f"x{i+1}" + (f"^{e}" if e > 1 else "")
                for i, e in enumerate(exp)
                if e
            )
            cs = "inf" if c is INF else str(c)
            chunks.append(f"{cs}" + (f"*{mono}" if mono else ""))
        return "TropPolynomial(" + " (+) ".join(chunks) + ")"


def trop_linear_form(coeffs) -> TropPolynomial:
    """c1*x1 (+) ... (+) cn*xn from a coefficient list."""
    n = len(coeffs)
    terms = []
    for i, c in enumerate(coeffs):
        exp = [0] * n
        exp[i] = 1
        terms.append((tuple(exp), c))
    return TropPolynomial(n, terms)


@lru_cache(maxsize=16)
def _unit_exponents(n: int):
    return tuple(tuple(int(i == j) for i in range(n)) for j in range(n))


def scaled_linear_form(coeffs, L, scaled) -> TropPolynomial:
    """trop_linear_form(coeffs) from coefficients a caller has already
    scaled: `scaled` lists (index, L * coeffs[index]) as ints for every
    finite coefficient, in index order, over a common denominator L of
    them.  Skips the exponent validation and the lcm."""
    F = TropPolynomial.__new__(TropPolynomial)
    units = _unit_exponents(len(coeffs))
    F.nvars = len(coeffs)
    F.terms = dict(zip(units, coeffs))
    F._denominator = L
    F._finite = [(units[i], c, ((i, 1),)) for i, c in scaled]
    return F


class TropMatrix:
    """A rectangular matrix of extended reals."""

    MAX_DET = 8  # direct permutation enumeration; 8! = 40320

    def __init__(self, rows):
        self.entries = [[ext(v) for v in row] for row in rows]
        self.nrows = len(self.entries)
        self.ncols = len(self.entries[0]) if self.entries else 0
        if any(len(r) != self.ncols for r in self.entries):
            raise ValueError("ragged matrix")

    def __getitem__(self, rc):
        r, c = rc
        return self.entries[r][c]

    def column_submatrix(self, cols):
        """Submatrix on 1-based column indices."""
        return TropMatrix([[row[c - 1] for c in cols] for row in self.entries])

    def _scaled_entries(self):
        """(rows of L*entry as ints, None for INF; L), over one common
        denominator L of all entries."""
        L, flat = scaled([v for row in self.entries for v in row])
        k = self.ncols
        return [flat[r * k:(r + 1) * k] for r in range(self.nrows)], L

    @classmethod
    def _permutation_sums(cls, rows, cols):
        """sum_r rows[r][cols[sigma(r)]] for every permutation sigma that
        meets no None entry (up to MAX_DET rows)."""
        if len(rows) > cls.MAX_DET:
            raise ValueError(
                f"direct enumeration limited to {cls.MAX_DET}x{cls.MAX_DET}"
            )
        sums = []
        for perm in permutations(cols):
            total = 0
            for row, c in zip(rows, perm):
                v = row[c]
                if v is None:
                    break
                total += v
            else:
                sums.append(total)
        return sums

    def _determinant(self, rows, L, cols):
        """min over permutations, as one Fraction, or INF."""
        sums = self._permutation_sums(rows, cols)
        return Fraction(min(sums), L) if sums else INF

    def tropical_determinant(self):
        """min over permutations sigma of sum_r M[r, sigma(r)]."""
        if self.nrows != self.ncols:
            raise ValueError("tropical determinant needs a square matrix")
        return self._determinant(*self._scaled_entries(), range(self.ncols))

    def tropical_minors(self) -> PlueckerVector:
        """PlueckerVector of tropical maximal-minor values (d = nrows)."""
        if self.nrows > self.ncols:
            raise ValueError("need at least as many columns as rows")
        rows, L = self._scaled_entries()
        coords = {}
        for S in d_subsets(self.nrows, self.ncols):
            coords[S] = self._determinant(rows, L, [c - 1 for c in S])
        return PlueckerVector(self.nrows, self.ncols, coords)

    def is_tropically_singular(self) -> bool:
        """Square matrix whose permutation minimum is attained twice
        (or that has no finite permutation)."""
        if self.nrows != self.ncols:
            raise ValueError("singularity test needs a square matrix")
        rows, _ = self._scaled_entries()
        sums = self._permutation_sums(rows, range(self.ncols))
        return not sums or sums.count(min(sums)) >= 2

    # -- CSV wire format --------------------------------------------------

    def to_csv(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf)
        for row in self.entries:
            writer.writerow(["inf" if v is INF else str(v) for v in row])
        return buf.getvalue()

    @classmethod
    def from_csv(cls, text: str):
        rows = []
        for row in csv.reader(io.StringIO(text)):
            if not row:
                continue
            rows.append([INF if v.strip() == "inf" else Fraction(v) for v in row])
        return cls(rows)

    def __eq__(self, other):
        return isinstance(other, TropMatrix) and other.entries == self.entries

    def __repr__(self):
        return f"TropMatrix({self.nrows}x{self.ncols})"


def tropical_determinant(rows):
    """Convenience wrapper accepting raw nested lists."""
    m = rows if isinstance(rows, TropMatrix) else TropMatrix(rows)
    return m.tropical_determinant()


def tropical_minors(rows):
    m = rows if isinstance(rows, TropMatrix) else TropMatrix(rows)
    return m.tropical_minors()
