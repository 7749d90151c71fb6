"""The packed-monomial Groebner engine: S-pair counts pinned through the
public step budget, packed monomial arithmetic against tuple references,
overflow restarts, and results that share their inputs' objects."""

import gc
import random
import weakref

import pytest

from tropgrass.exactalg import (
    IdealHandle,
    PolyRing,
    QQ,
    StepBudgetExceeded,
    degrevlex,
    field_of_characteristic,
    initial_ideal,
    normal_form,
    plucker_generators,
    plucker_ring,
    reduced_groebner_basis,
    weight_order,
)
from tropgrass.exactalg import ideals
from tropgrass.exactalg.groebner import _Overflow, _Packing, _reduce
from tropgrass.exactalg.orders import TermOrder
from tropgrass.minplus import tropical_minors
from tropgrass.treespace import random_trivalent_tree, tree_to_plucker

MATRIX = [[0, 1, 3, 2, 5, 4], [2, 0, 1, 4, 3, 6], [1, 3, 0, 2, 6, 5]]


def _g36_minors(field):
    w = tropical_minors(MATRIX).as_list()
    return lambda k: reduced_groebner_basis(
        plucker_generators(3, 6, field), weight_order(w), max_steps=k)


def _g27_tree(field):
    w = tree_to_plucker(random_trivalent_tree(7, random.Random(3))).as_list()
    return lambda k: reduced_groebner_basis(
        plucker_generators(2, 7, field), weight_order(w), max_steps=k)


def _g26_saturation(field):
    w = tree_to_plucker(random_trivalent_tree(6, random.Random(4))).as_list()
    inw = initial_ideal(IdealHandle.of(plucker_generators(2, 6, field)), w)
    return lambda k: ideals.saturate(IdealHandle(inw.ring, inw.generators),
                                     max_steps=k)


# S-pairs of the run (the largest run, for the saturation), counted with
# the tuple-keyed engine that preceded the packed one
@pytest.mark.parametrize("char", [0, 2, 3])
@pytest.mark.parametrize("make, spairs", [
    (_g36_minors, 195), (_g27_tree, 140), (_g26_saturation, 52)])
def test_spair_counts_are_pinned_by_the_step_budget(make, spairs, char):
    run = make(field_of_characteristic(char))
    run(spairs)
    with pytest.raises(StepBudgetExceeded):
        run(spairs - 1)


def _divides(a, b):
    return all(x <= y for x, y in zip(a, b))


@pytest.mark.parametrize("value_bits", [1, 2, 4, 7])
def test_packed_monomials_match_tuple_references(value_bits):
    rng = random.Random(value_bits)
    top = 2 ** value_bits - 1
    for _ in range(60):
        n = rng.randint(1, 6)
        order = TermOrder([rng.randint(-3, 3) for _ in range(n)])
        pack = _Packing(order, value_bits)
        # exponents drawn near the width limit as often as near zero
        exps = [tuple(rng.choice([0, 1, top - 1, top, rng.randint(0, top)])
                      for _ in range(n)) for _ in range(12)]
        for a in exps:
            xa = pack.pack(a)
            assert pack.unpack(xa) == a
            assert pack.lift(xa & pack.low) == (sum(a), xa)
            assert not xa & pack.guard
            for b in exps:
                xb = pack.pack(b)
                assert (not (xb - xa) & pack.guard) == _divides(a, b)
                m = tuple(map(max, a, b))
                assert pack.lcm(xa & pack.low, xb & pack.low) == pack.pack(m) & pack.low
                ka, kb = order.key(a), order.key(b)
                assert (xa > xb) - (xa < xb) == (ka > kb) - (ka < kb)
                # a product past the width sets a guard bit, never a
                # neighbouring field
                s = tuple(map(sum, zip(a, b)))
                assert bool((xa + xb) & pack.guard) == (max(s, default=0) > top)
                if not (xa + xb) & pack.guard:
                    assert xa + xb == pack.pack(s)


def test_overflowed_monomial_stops_the_reduction():
    pack = _Packing(degrevlex(2), 2)
    x3 = pack.pack((3, 0))
    with pytest.raises(_Overflow):
        _reduce({x3 + pack.pack((1, 0)): 1}, [], 0, pack.guard)


def _overflow_cases():
    R = PolyRing(QQ, ["x", "y", "z"])
    gens = [R.parse("x^5*y - z^6"), R.parse("x*y^4 - y*z^4")]
    yield lambda: reduced_groebner_basis(gens, degrevlex(3))
    w = tropical_minors(MATRIX).as_list()
    yield lambda: reduced_groebner_basis(plucker_generators(3, 6), weight_order(w))
    # the weight-order run of a monomial-freeness test, then a saturation
    # whose runs each pick their packing afresh
    rng = random.Random(0)
    t = [rng.randint(0, 4) for _ in range(15)]
    yield lambda: ideals.saturate(
        initial_ideal(IdealHandle.of(plucker_generators(2, 6)), t))[0]


def test_narrow_fields_restart_wider_with_the_same_basis(monkeypatch):
    expected = [[str(g) for g in run()] for run in _overflow_cases()]
    widths = []
    wider = _Packing.wider

    def recording(self):
        widths.append(self.value_bits)
        return wider(self)

    def tightest(cls, order, polys):
        top = max(max(e) for f in polys for e in f.terms)
        return cls(order, max(1, top.bit_length()))

    monkeypatch.setattr(_Packing, "fitting", classmethod(tightest))
    monkeypatch.setattr(_Packing, "wider", recording)
    for run, want in zip(_overflow_cases(), expected):
        widths.clear()
        assert [str(g) for g in run()] == want
        assert widths, "no field overflowed"


@pytest.mark.parametrize("nvars", [5, 7])
def test_order_of_another_length_is_refused(nvars):
    gens = plucker_generators(2, 4)
    order = degrevlex(nvars)
    with pytest.raises(ValueError, match="weight length"):
        reduced_groebner_basis(gens, order)
    with pytest.raises(ValueError, match="weight length"):
        normal_form(gens[0] * gens[0], gens, order)
    with pytest.raises(ValueError, match="weight length"):
        initial_ideal(IdealHandle.of(gens), [0] * nvars)


def test_results_reuse_their_inputs_exponent_tuples():
    gens = plucker_generators(2, 6)
    w = tree_to_plucker(random_trivalent_tree(6, random.Random(1))).as_list()
    inputs = {id(e) for g in gens for e in g.terms}
    basis = reduced_groebner_basis(gens, weight_order(w))
    assert all(id(e) in inputs for g in basis for e in g.terms)


def test_plucker_ring_and_generators_are_shared():
    assert plucker_ring(2, 5) is plucker_ring(2, 5, QQ)
    gf3 = field_of_characteristic(3)
    assert plucker_ring(3, 6, gf3) is plucker_ring(3, 6, field_of_characteristic(3))
    a, b = plucker_generators(2, 5), plucker_generators(2, 5)
    assert a is not b and all(f is g for f, g in zip(a, b))
    assert all(f.ring is plucker_ring(2, 5) for f in a)
    a.pop()
    assert len(plucker_generators(2, 5)) == 5


def test_initial_forms_in_use_are_shared():
    ideal = IdealHandle.of(plucker_generators(2, 6))
    tree = random_trivalent_tree(6, random.Random(2))
    w = tree_to_plucker(tree).as_list()
    first = initial_ideal(ideal, w).generators
    again = initial_ideal(IdealHandle.of(plucker_generators(2, 6)),
                          [2 * x for x in w]).generators
    assert all(f is g for f, g in zip(first, again))
    # the ring's table holds them only while someone else does
    refs = [weakref.ref(f) for f in first]
    del first, again
    gc.collect()
    assert not any(r() for r in refs)
