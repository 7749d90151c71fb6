"""Tests of the benchmark itself: seeded inputs, span arithmetic, checks.

Run from the repository root:  python3 -m pytest perfbench/test_perfbench.py
"""

import json
import os
import random
import sys
import types
from itertools import combinations, islice

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [HERE, os.path.join(os.path.dirname(HERE), "src")]

import checks  # noqa: E402
import gen  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
from tropgrass import g36  # noqa: E402

_PLANE = None


def _plane_inputs():
    global _PLANE
    if _PLANE is None:
        _PLANE = run.plane_inputs(g36.build_g36(), g36)
    return _PLANE


def _requests(workload, seed, nblocks=2):
    facets, raw = _plane_inputs() if workload == "plane_queries" else (None, None)
    blocks = islice(gen.blocks(workload, seed, facets, raw), nblocks)
    return json.dumps([req for block in blocks for req in block], sort_keys=True)


def test_same_seed_same_requests_other_seed_other_requests():
    for workload in run.WORKLOADS:
        first = _requests(workload, 7)
        assert first == _requests(workload, 7), workload
        assert first != _requests(workload, 8), workload


def test_block_mix_is_fixed():
    kinds = {
        "tree_metrics": {"tree_exact": 39, "tree_perturbed": 13},
        "plane_queries": {"oracle": 12, "oracle_2x8": 1, "oracle_3x7": 1, "type": 2},
        "ideal_queries": {"tree_cone": 11, "g36_degree": 6, "reject": 2, "free_tree": 1},
    }
    for workload, want in kinds.items():
        got = {}
        for req in json.loads(_requests(workload, 3, nblocks=1)):
            got[req["kind"]] = got.get(req["kind"], 0) + 1
        assert got == want, workload


def test_random_trees_are_trivalent_and_cover_all_shapes():
    rng = random.Random(1)
    seen = set()
    for _ in range(600):
        splits = gen.random_trivalent_splits(5, rng)
        assert len(splits) == 2
        seen.add(tuple(splits))
    assert len(seen) == 15  # (2*5-5)!! trivalent trees on 5 leaves
    splits = [frozenset(s) for s in gen.random_trivalent_splits(20, rng)]
    assert len(splits) == 17 and len(set(splits)) == 17
    for a, b in combinations(splits, 2):  # sides without leaf 1 nest or are disjoint
        assert a <= b or b <= a or not (a & b)


def test_generated_metrics_pass_or_fail_the_four_point_check():
    for req in json.loads(_requests("tree_metrics", 5, nblocks=1)):
        dist = checks.parse_csv(req["csv"])
        quad = checks.four_point_violation(req["n"], dist)
        if req["kind"] == "tree_exact":
            assert quad is None
        else:
            assert quad is not None and set(req["pair"]) <= set(quad)


def _span(sid, name, start, end, parent, error=False):
    return tracing.Span(sid, name, start, end, parent, 0, error)


def test_self_time_on_a_hand_built_span_tree():
    spans = [
        _span(0, "request.x", 0.0, 10.0, None),
        _span(1, "treespace.a", 1.0, 3.0, 0),
        _span(2, "treespace.b", 2.0, 5.0, 0),     # overlaps its sibling
        _span(3, "exactalg.c", 8.0, 12.0, 0, True),  # runs past its parent
        _span(4, "pvector.d", 1.5, 2.5, 1),
    ]
    own = tracing.self_times(spans)
    assert own == {0: 4.0, 1: 1.0, 2: 3.0, 3: 4.0, 4: 1.0}
    layers = tracing.layer_metrics(spans)
    assert layers["treespace.s"] == 4.0
    assert layers["treespace.a.calls"] == 1 and layers["treespace.a.s"] == 1.0
    assert layers["exactalg.fail"] == 1 and layers["treespace.fail"] == 0
    assert layers["bench.s"] == 4.0
    assert layers["cli.s"] == 0.0


def test_checks_catch_wrong_answers():
    req = {"kind": "type", "facet_class": "EEEE"}
    obvious = sorted(checks.obvious_types())
    assert checks.check_type(req, {"types": obvious, "bounded": []})  # 15, not 27
    w = {"d": 2, "n": 6, "coords": {"".join(map(str, S)): "0"
                                    for S in combinations(range(1, 7), 2)}}
    req = {"kind": "reject", "n": 6, "w": w}  # the zero weight is a tree point
    assert checks.check_monomial_free(req, {"free": True, "witness": None}) == []
    monomial = types.SimpleNamespace(terms={(1,) * 15: 1})
    assert checks.check_monomial_free(req, {"free": False, "witness": monomial})


def test_phi_image():
    a = [3, -1, 4, 1, 5, 9]
    v = {S: sum(a[i - 1] for i in S) for S in combinations(range(1, 7), 3)}
    assert checks.in_phi_image(3, 6, v)
    v[(1, 2, 3)] += 1
    assert not checks.in_phi_image(3, 6, v)
