"""Tropical (min-plus) arithmetic.

Scalars live in (Q union {+infinity}, min, +): exact rationals so that
ties -- the defining condition for tropical hypersurfaces -- are decidable.
Infinity is neutral for tropical addition (min) and absorbing for tropical
multiplication (ordinary +).
"""

from __future__ import annotations

import csv
import io
import json
from fractions import Fraction
from itertools import permutations
from math import factorial

from .pvector import INF, PlueckerVector, d_subsets


def ext(x):
    """Coerce to an extended real: Fraction or +infinity."""
    if x == INF:
        return INF
    return Fraction(x)


def finite_point(x, n: int):
    """Coerce x to a list of n Fractions; evaluation points must be finite."""
    x = [ext(v) for v in x]
    if len(x) != n:
        raise ValueError("point length does not match variable count")
    if any(v == INF for v in x):
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
        if not clean or all(c == INF for c in clean.values()):
            raise ValueError("need at least one finite coefficient")
        self.terms = clean
        # each finite term with its (index, exponent) pairs of nonzero
        # exponent, so that evaluation reads only the coordinates it needs
        self._finite = [
            (exp, c, tuple((i, e) for i, e in enumerate(exp) if e))
            for exp, c in clean.items()
            if c != INF
        ]

    def evaluate(self, x):
        """min over terms of coefficient + <exponent, x>."""
        return self._argmin(finite_point(x, self.nvars))[0]

    def tight_terms(self, x):
        """The set of exponents attaining evaluate(F, x)."""
        return set(self._argmin(finite_point(x, self.nvars))[1])

    def on_hypersurface(self, x) -> bool:
        """x lies on T(F) iff the minimum is attained at least twice."""
        return len(self._argmin(finite_point(x, self.nvars))[1]) >= 2

    def _argmin(self, point):
        """The minimum and the list of exponents attaining it, at a point
        already coerced by finite_point.  Each finite term is evaluated on
        its own support."""
        best = None
        tight = []
        for exp, c, support in self._finite:
            v = c
            for i, e in support:
                v += point[i] if e == 1 else e * point[i]
            if best is None or v < best:
                best = v
                tight = [exp]
            elif v == best:
                tight.append(exp)
        return best, tight

    def is_homogeneous(self) -> bool:
        degs = {sum(e) for e, c in self.terms.items() if c != INF}
        return len(degs) <= 1

    def __eq__(self, other):
        return (
            isinstance(other, TropPolynomial)
            and other.nvars == self.nvars
            and other.terms == self.terms
        )

    def __hash__(self):
        return hash((self.nvars, frozenset(self.terms.items())))

    def to_json(self) -> str:
        return json.dumps(
            {
                "vars": self.nvars,
                "terms": [
                    {
                        "exp": list(exp),
                        "coeff": "inf" if c == INF else str(c),
                    }
                    for exp, c in sorted(self.terms.items())
                ],
            }
        )

    @classmethod
    def from_json(cls, text: str):
        data = json.loads(text)
        terms = [
            (
                tuple(t["exp"]),
                INF if t["coeff"] == "inf" else Fraction(t["coeff"]),
            )
            for t in data["terms"]
        ]
        return cls(data["vars"], terms)

    def __repr__(self):
        chunks = []
        for exp, c in sorted(self.terms.items()):
            mono = "*".join(
                f"x{i+1}" + (f"^{e}" if e > 1 else "")
                for i, e in enumerate(exp)
                if e
            )
            cs = "inf" if c == INF else str(c)
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

    def _finite_permutation_sums(self):
        """Yield sum_r M[r, sigma(r)] for every permutation sigma that
        meets no infinite entry (square matrices up to MAX_DET)."""
        if self.nrows > self.MAX_DET:
            raise ValueError(
                f"direct enumeration limited to {self.MAX_DET}x{self.MAX_DET}"
            )
        for perm in permutations(range(self.nrows)):
            total = Fraction(0)
            for r, c in enumerate(perm):
                v = self.entries[r][c]
                if v == INF:
                    break
                total += v
            else:
                yield total

    def tropical_determinant(self):
        """min over permutations sigma of sum_r M[r, sigma(r)]."""
        if self.nrows != self.ncols:
            raise ValueError("tropical determinant needs a square matrix")
        return min(self._finite_permutation_sums(), default=INF)

    def tropical_minors(self) -> PlueckerVector:
        """PlueckerVector of tropical maximal-minor values (d = nrows)."""
        if self.nrows > self.ncols:
            raise ValueError("need at least as many columns as rows")
        coords = {}
        for S in d_subsets(self.nrows, self.ncols):
            coords[S] = self.column_submatrix(S).tropical_determinant()
        return PlueckerVector(self.nrows, self.ncols, coords)

    def is_tropically_singular(self) -> bool:
        """Square matrix whose permutation minimum is attained twice."""
        if self.nrows != self.ncols:
            raise ValueError("singularity test needs a square matrix")
        det = self.tropical_determinant()
        if det == INF:
            return True
        count = 0
        for total in self._finite_permutation_sums():
            if total == det:
                count += 1
                if count >= 2:
                    return True
        return False

    # -- CSV wire format --------------------------------------------------

    def to_csv(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf)
        for row in self.entries:
            writer.writerow(["inf" if v == INF else str(v) for v in row])
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
