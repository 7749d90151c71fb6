"""Exact coefficient fields: the rationals and prime fields GF(p)."""

from __future__ import annotations

from fractions import Fraction


def _is_prime(p: int) -> bool:
    if p < 2:
        return False
    d = 2
    while d * d <= p:
        if p % d == 0:
            return False
        d += 1
    return True


class RationalField:
    """The field Q, characteristic 0.  Elements are Fraction."""

    characteristic = 0

    def __call__(self, x):
        return Fraction(x)

    def zero(self):
        return Fraction(0)

    def one(self):
        return Fraction(1)

    def add(self, a, b):
        return a + b

    def mul(self, a, b):
        return a * b

    def neg(self, a):
        return -a

    def inv(self, a):
        return 1 / Fraction(a)

    def __repr__(self):
        return "QQ"

    def __eq__(self, other):
        return isinstance(other, RationalField)

    def __hash__(self):
        return hash("QQ")


class PrimeField:
    """GF(p) for a prime p.  Elements are ints in [0, p)."""

    def __init__(self, p: int):
        if not _is_prime(p):
            raise ValueError(f"{p} is not prime")
        self.p = p
        self.characteristic = p

    def __call__(self, x):
        if isinstance(x, Fraction):
            num = x.numerator % self.p
            den = x.denominator % self.p
            if den == 0:
                raise ZeroDivisionError(f"denominator divisible by {self.p}")
            return num * pow(den, -1, self.p) % self.p
        return int(x) % self.p

    def zero(self):
        return 0

    def one(self):
        return 1

    def add(self, a, b):
        return (a + b) % self.p

    def mul(self, a, b):
        return (a * b) % self.p

    def neg(self, a):
        return (-a) % self.p

    def inv(self, a):
        if a % self.p == 0:
            raise ZeroDivisionError("inverse of zero in GF(p)")
        return pow(a, -1, self.p)

    def __repr__(self):
        return f"GF({self.p})"

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("GF", self.p))


class QuarticField:
    """GF(4) = GF(2)[x]/(x^2+x+1).  Elements are ints 0..3 read as bit
    vectors (bit 0 = 1, bit 1 = x); addition is xor."""

    characteristic = 2

    _MUL = [
        [0, 0, 0, 0],
        [0, 1, 2, 3],
        [0, 2, 3, 1],
        [0, 3, 1, 2],
    ]
    _INV = [None, 1, 3, 2]

    def __call__(self, x):
        if isinstance(x, Fraction) and x.denominator != 1:
            if x.denominator % 2 == 0:
                raise ZeroDivisionError("denominator divisible by 2")
            return x.numerator % 2
        x = int(x)
        # 0..3 are field elements already; other integers embed via GF(2)
        return x if 0 <= x <= 3 else x % 2

    def zero(self):
        return 0

    def one(self):
        return 1

    def add(self, a, b):
        return a ^ b

    def mul(self, a, b):
        return self._MUL[a][b]

    def neg(self, a):
        return a

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("inverse of zero in GF(4)")
        return self._INV[a]

    def __repr__(self):
        return "GF(4)"

    def __eq__(self, other):
        return isinstance(other, QuarticField)

    def __hash__(self):
        return hash("GF4")


QQ = RationalField()
GF4 = QuarticField()


def GF(p: int) -> PrimeField:
    return PrimeField(p)


def field_of_characteristic(char: int):
    """Field context for a CLI-style characteristic flag (0 or a prime)."""
    return QQ if char == 0 else GF(char)
