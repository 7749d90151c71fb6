"""Sparse multivariate polynomials with exact coefficients.

A polynomial is a map from exponent vectors (tuples of nonnegative ints)
to nonzero field elements.  Rings are lightweight contexts carrying the
coefficient field and the ordered variable names.
"""

from __future__ import annotations

import re
from fractions import Fraction
from weakref import WeakValueDictionary

from .scalars import QQ


class PolyRing:
    """Polynomial ring: a coefficient field plus ordered variable names."""

    def __init__(self, field, variables):
        self.field = field
        self.variables = tuple(variables)
        self.nvars = len(self.variables)
        self._index = {v: i for i, v in enumerate(self.variables)}
        if len(self._index) != self.nvars:
            raise ValueError("duplicate variable names")
        self._live = WeakValueDictionary()

    def shared(self, poly):
        """The polynomial of this ring equal to poly that is already in
        use, or poly itself.  The table holds polynomials weakly, so it
        keeps only those that someone else still holds."""
        key = frozenset(poly.terms.items())
        found = self._live.get(key)
        if found is None:
            self._live[key] = found = poly
        return found

    def var_index(self, name: str) -> int:
        return self._index[name]

    def zero(self):
        return MultiPoly(self, {})

    def one(self):
        return MultiPoly(self, {(0,) * self.nvars: self.field.one()})

    def gen(self, name_or_index):
        i = name_or_index if isinstance(name_or_index, int) else self._index[name_or_index]
        exp = [0] * self.nvars
        exp[i] = 1
        return MultiPoly(self, {tuple(exp): self.field.one()})

    def monomial(self, exp, coeff=None):
        c = self.field.one() if coeff is None else self.field(coeff)
        if c == self.field.zero():
            return self.zero()
        return MultiPoly(self, {tuple(exp): c})

    def from_terms(self, terms):
        """Build from an iterable of (exponent, coefficient), merging duplicates."""
        acc = {}
        zero = self.field.zero()
        for exp, c in terms:
            exp = tuple(exp)
            c = self.field(c)
            s = self.field.add(acc.get(exp, zero), c)
            if s == zero:
                acc.pop(exp, None)
            else:
                acc[exp] = s
        return MultiPoly(self, acc)

    def __eq__(self, other):
        return (
            isinstance(other, PolyRing)
            and other.field == self.field
            and other.variables == self.variables
        )

    def __hash__(self):
        return hash((self.field, self.variables))

    def __repr__(self):
        return f"PolyRing({self.field}, {len(self.variables)} vars)"

    _TERM_RE = re.compile(r"([+-]?)\s*([^+-]+)")

    def parse(self, text: str):
        """Parse `±c*v1*v2^2` term syntax, e.g. ``p_123*p_456 - 2*p_124*p_356``."""
        text = text.strip()
        if text in ("", "0"):
            return self.zero()
        terms = []
        for sign, body in self._TERM_RE.findall(text):
            body = body.strip()
            if not body:
                continue
            coeff = Fraction(-1 if sign == "-" else 1)
            exp = [0] * self.nvars
            for factor in body.split("*"):
                factor = factor.strip()
                if not factor:
                    continue
                if "^" in factor:
                    base, power = factor.split("^")
                    power = int(power)
                else:
                    base, power = factor, 1
                base = base.strip()
                if base in self._index:
                    exp[self._index[base]] += power
                else:
                    coeff *= Fraction(base) ** power
            terms.append((tuple(exp), self.field(coeff)))
        return self.from_terms(terms)


class MultiPoly:
    """Immutable sparse polynomial over a PolyRing."""

    __slots__ = ("ring", "terms", "__weakref__")

    def __init__(self, ring: PolyRing, terms: dict):
        self.ring = ring
        self.terms = terms

    def is_zero(self) -> bool:
        return not self.terms

    def is_monomial(self) -> bool:
        return len(self.terms) == 1

    def is_homogeneous(self) -> bool:
        degs = {sum(e) for e in self.terms}
        return len(degs) <= 1

    def total_degree(self) -> int:
        if not self.terms:
            return -1
        return max(sum(e) for e in self.terms)

    def coeff(self, exp):
        return self.terms.get(tuple(exp), self.ring.field.zero())

    def __neg__(self):
        neg = self.ring.field.neg
        return MultiPoly(self.ring, {e: neg(c) for e, c in self.terms.items()})

    def __add__(self, other):
        other = self._coerce(other)
        field = self.ring.field
        zero = field.zero()
        out = dict(self.terms)
        for e, c in other.terms.items():
            s = field.add(out.get(e, zero), c)
            if s == zero:
                out.pop(e, None)
            else:
                out[e] = s
        return MultiPoly(self.ring, out)

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __mul__(self, other):
        if not isinstance(other, MultiPoly):
            c = self.ring.field(other)
            if c == self.ring.field.zero():
                return self.ring.zero()
            mul = self.ring.field.mul
            return MultiPoly(self.ring, {e: mul(v, c) for e, v in self.terms.items()})
        field = self.ring.field
        zero = field.zero()
        out = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                s = field.add(out.get(e, zero), field.mul(c1, c2))
                if s == zero:
                    out.pop(e, None)
                else:
                    out[e] = s
        return MultiPoly(self.ring, out)

    __rmul__ = __mul__

    def __pow__(self, k: int):
        result = self.ring.one()
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result

    def _coerce(self, other):
        if isinstance(other, MultiPoly):
            return other
        c = self.ring.field(other)
        if c == self.ring.field.zero():
            return self.ring.zero()
        return MultiPoly(self.ring, {(0,) * self.ring.nvars: c})

    def __eq__(self, other):
        if not isinstance(other, MultiPoly):
            return (self - self._coerce(other)).is_zero()
        return self.ring == other.ring and self.terms == other.terms

    def __hash__(self):
        return hash((self.ring, frozenset(self.terms.items())))

    def sorted_terms(self, order=None):
        """Terms sorted leading-first (by order key, or degrevlex default)."""
        if order is None:
            keyf = lambda e: (sum(e), tuple(reversed([-x for x in e])))
        else:
            keyf = order.key
        return sorted(self.terms.items(), key=lambda t: keyf(t[0]), reverse=True)

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        for exp, c in self.sorted_terms():
            factors = []
            for v, e in zip(self.ring.variables, exp):
                if e == 1:
                    factors.append(v)
                elif e > 1:
                    factors.append(f"{v}^{e}")
            cf = Fraction(c) if self.ring.field == QQ else c
            body = "*".join(factors)
            if not factors:
                chunk = str(cf)
            elif cf == 1:
                chunk = body
            elif cf == -1:
                chunk = f"-{body}"
            else:
                chunk = f"{cf}*{body}"
            parts.append(chunk)
        out = parts[0]
        for chunk in parts[1:]:
            out += f" - {chunk[1:]}" if chunk.startswith("-") else f" + {chunk}"
        return out

    def __repr__(self):
        return f"MultiPoly({self})"
