"""Term orders: weight vectors refined by degree-reverse-lexicographic.

Convention: the *leading* term of a polynomial is the term whose order key
is largest, and keys are built so that the leading term has minimal
weight <exponent, w>.  This matches the min-plus convention used for
initial forms throughout: the leading term of f under the order refining
w is a term of in_w(f).
"""

from __future__ import annotations

from ..pvector import ext, scaled


class TermOrder:
    """Weight order refined by degrevlex.

    ``key(exp)`` returns a tuple; larger key = greater monomial = closer
    to leading.  Components, in comparison order:

    1. negated w-weight, so minimal-weight terms lead;
    2. degrevlex on the fixed variable order.
    """

    def __init__(self, weight):
        self.weight = tuple(map(ext, weight))
        self.nvars = len(self.weight)
        _, iw = scaled(self.weight)
        if None in iw:
            raise ValueError(
                f"weight entry {iw.index(None) + 1} of {self.nvars} is inf; "
                "a term order needs finite weights")
        self.int_weight = tuple(iw)  # the weight scaled to ints, order-equivalent

    def key(self, exp):
        wdot = sum(a * b for a, b in zip(exp, self.int_weight))
        return (-wdot, (sum(exp), tuple(-e for e in reversed(exp))))

    def leading_term(self, poly):
        """(exponent, coefficient) of the leading term; None for zero."""
        if poly.is_zero():
            return None
        exp = max(poly.terms, key=self.key)
        return exp, poly.terms[exp]

    def leading_monomial(self, poly):
        lt = self.leading_term(poly)
        return None if lt is None else lt[0]

    def is_degree_compatible(self) -> bool:
        """True if this is a global term order (1 is the least monomial),
        hence usable on inhomogeneous input.  Only weights that can make
        some variable beat 1 (i.e. positive entries, given the min
        convention's negated weight key) break globality.
        """
        return all(x <= 0 for x in self.weight)

    def __eq__(self, other):
        return isinstance(other, TermOrder) and other.int_weight == self.int_weight

    def __hash__(self):
        return hash(self.int_weight)

    def __repr__(self):
        wtag = "0" if all(x == 0 for x in self.weight) else str(list(self.weight))
        return f"TermOrder(w={wtag})"


def degrevlex(nvars: int) -> TermOrder:
    return TermOrder((0,) * nvars)


def weight_order(weight) -> TermOrder:
    """Term order refining w (min convention) by degrevlex.

    The leading term of any f under this order is a term of in_w(f); this
    is the order 'defined by -w' in max-convention systems.
    """
    return TermOrder(weight)


def elimination_order(nvars: int, eliminate) -> TermOrder:
    """Weight -1 on the eliminated variables: a monomial of higher degree
    in them beats every monomial of lower degree, and ties fall to
    degrevlex.  A Groebner basis under this order meets the subring of
    the remaining variables in a Groebner basis of the elimination ideal
    (Cox, Little & O'Shea, Ideals, Varieties, and Algorithms, 3.1).
    """
    weight = [0] * nvars
    for i in eliminate:
        weight[i] = -1
    return TermOrder(weight)
