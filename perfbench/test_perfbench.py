"""Tests of the benchmark's oracle and inputs, against hand-known values.

    python3 -m pytest -q perfbench

None of these compares with qschur output.
"""

import itertools
import json
import os
import random
import statistics
import time

import pytest

import hostspeed
import oracle
import run
from layers import PER_LAYER
from workloads import MALFORMED, MALFORMED_EVERY, Request, Round, \
    check_request, make_stream

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.mark.parametrize("point, dim", [
    ((2, 1, 1), 10), ((2, 2, 2), 35), ((4, 1, 1), 226), ((3, 2, 1), 270),
    ((3, 1, 2), 270), ((3, 2, 2), 994), ((3, 1, 0), 9), ((2, 0, 2), 10)])
def test_mixed_space_dim(point, dim):
    assert oracle.mixed_space_dim(*point) == dim


@pytest.mark.parametrize("weight, dim", [
    ((1, 0), 2), ((2, 0), 3), ((1, -1), 3), ((1, 0, -1), 8), ((1, 1, 0), 3),
    ((2, 0, 0), 6), ((2, 0, -1), 15)])
def test_weyl_dim(weight, dim):
    assert oracle.weyl_dim(weight) == dim


@pytest.mark.parametrize("n, m, dim", [(2, 1, 4), (2, 2, 10), (3, 1, 9),
                                       (2, 3, 20), (3, 2, 45)])
def test_schur_algebra_dim(n, m, dim):
    assert oracle.schur_algebra_dim(n, m) == dim


def _fillings(shape, n):
    rows = [list(itertools.combinations(range(1, n + 1), w)) for w in shape]
    for choice in itertools.product(*rows):
        yield {"shape": list(shape), "rows": [list(r) for r in choice]}


@pytest.mark.parametrize("point", [(2, 1, 1), (2, 2, 1), (2, 2, 2),
                                   (3, 1, 1), (3, 2, 1), (3, 1, 2)])
def test_rational_tableaux_count_matches_brute_force(point):
    n, r, s = point
    count = 0
    for k in range(min(r, s) + 1):
        for lam in oracle.partitions(r - k, r - k):
            for mu in oracle.partitions(s - k, s - k):
                for left in _fillings(lam, n):
                    for right in _fillings(mu, n):
                        if oracle.is_standard_rational(
                                {"left": left, "right": right}, n):
                            count += 1
    assert count == oracle.rational_tableaux_count(n, r, s)


def test_det_and_inverse():
    x = [[1, 2, 3], [0, 1, 4], [5, 6, 0]]
    assert oracle.det(x) == 1
    assert oracle.inverse(x) == [[-24, 18, 5], [20, -15, -4], [-5, 4, 1]]
    assert oracle.det([]) == 1
    assert oracle.det([[1, 2], [2, 4]]) == 0


def test_point_starred_generators_are_inverse_transpose():
    pt = oracle.Point([[1, 2], [0, 1]])
    assert pt.xstar == [[1, 0], [-2, 1]]
    assert pt.det == 1
    # cross relation (9) at q = 1: sum_k x_1k x*_2k = 0
    rel = [{"plain": [[1, k]], "starred": [[2, k]], "coeff": {"0": "1"}}
           for k in (1, 2)]
    assert oracle.mixed_value(rel, pt) == 0
    # and sum_k x_1k x*_1k = 1 (the element dfrak^(1))
    d1 = [{"plain": [[1, k]], "starred": [[1, k]], "coeff": {"0": "1"}}
          for k in (1, 2)]
    assert oracle.mixed_value(d1, pt) == 1


def test_laurent_at_one_and_bideterminant():
    assert oracle.laurent_at_one({"-1": "2", "3": "-5"}) == -3
    x = [[1, 2], [3, 4]]
    assert oracle.bideterminant(x, [[1, 2]], [[1, 2]]) == -2
    assert oracle.bideterminant(x, [[1], [2]], [[2], [1]]) == 6


def test_coefficient_and_tableau_properties():
    assert oracle.is_laurent_json({"-2": "3"})
    assert not oracle.is_laurent_json({})
    assert not oracle.is_laurent_json({"num": {"0": "1"}, "den": {"1": "1"}})
    assert not oracle.is_laurent_json({"0": "0"})
    assert oracle.is_standard({"shape": [2, 2], "rows": [[1, 2], [1, 3]]}, 3)
    assert not oracle.is_standard({"shape": [2], "rows": [[1, 1]]}, 3)
    assert not oracle.is_standard({"shape": [1, 1], "rows": [[2], [1]]}, 3)
    assert not oracle.is_standard({"shape": [1], "rows": [[4]]}, 3)
    one = {"shape": [1], "rows": [[1]]}
    two = {"shape": [1], "rows": [[2]]}
    assert not oracle.is_standard_rational({"left": one, "right": one}, 2)
    assert oracle.is_standard_rational({"left": one, "right": two}, 2)


EMPTY = {"shape": [], "rows": []}


def _tab(*rows):
    return {"shape": [len(r) for r in rows], "rows": [list(r) for r in rows]}


@pytest.mark.parametrize("kind, argv, n, r, s, elem, term", [
    # x_12 is the bideterminant (1 | 2)
    ("ord", ["straighten", "ord", "--n", "2"], 2, 1, 0,
     [{"word": [[1, 2]], "coeff": {"1": "3"}}],
     {"left": _tab((1,)), "right": _tab((2,))}),
    # iota(x*_11) = (2 | 2) for n = 2
    ("iota", ["iota", "--n", "2", "--r", "0", "--s", "1"], 2, 0, 1,
     [{"plain": [], "starred": [[1, 1]], "coeff": {"1": "3"}}],
     {"left": _tab((2,)), "right": _tab((2,))}),
    # x_21 in bidegree (1, 0) is the rational bideterminant with k = 0
    ("mixed", ["straighten", "mixed", "--n", "2", "--r", "1", "--s", "0"],
     2, 1, 0,
     [{"plain": [[2, 1]], "starred": [], "coeff": {"1": "3"}}],
     {"k": 0, "left": {"left": _tab((2,)), "right": EMPTY},
      "right": {"left": _tab((1,)), "right": EMPTY}}),
])
def test_check_request_accepts_right_and_rejects_wrong(kind, argv, n, r, s,
                                                       elem, term):
    req = Request(kind, n, r, s, argv, elem)
    right = {"terms": [dict(term, coeff={"1": "3"})]}
    assert check_request(req, right, random.Random(0)) == []
    wrong = {"terms": [dict(term, coeff={"1": "2"})]}
    assert check_request(req, wrong, random.Random(0))
    not_laurent = {"terms": [dict(term, coeff={"num": {"1": "3"},
                                               "den": {"0": "1"}})]}
    assert check_request(req, not_laurent, random.Random(0))


def test_stream_is_seeded_and_malformed_share_is_fixed():
    a, b, c = make_stream(1), make_stream(1), make_stream(2)
    assert [r.payload for r in a] == [r.payload for r in b]
    assert [r.payload for r in a] != [r.payload for r in c]
    for stream in (a, c):
        bad = [t for t, r in enumerate(stream) if r.kind == "malformed"]
        assert bad == list(range(MALFORMED_EVERY - 1, len(stream),
                                 MALFORMED_EVERY))
        assert len(stream) == 402 and len(bad) == 20
        assert {stream[t].payload for t in bad} == \
            {json.dumps(elem) for _, elem in MALFORMED}
        for req in stream:
            if req.kind != "malformed":
                words = [json.dumps([t.get("word"), t.get("plain"),
                                     t.get("starred")]) for t in req.elem]
                assert len(set(words)) == len(words)


def test_benchmark_json_lists_every_metric():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    assert [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]] \
        == [tuple(m) for m in PER_LAYER]
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == \
        run.END_TO_END
    assert [w["name"] for w in bench["workloads"]] == list(run.WORKLOADS)


def test_calibrated_clock_scales_a_round_to_reference_seconds():
    clock = hostspeed.CalibratedClock()
    clock.start()
    t0, lap = time.perf_counter(), clock.lap()
    while time.perf_counter() < t0 + 0.3:
        pass
    clock.stop()
    raw = time.perf_counter() - t0
    timed, first, end = clock.since(lap)
    # probes ran, and the clock left their time out
    assert (first, end) == (0, len(clock.probes_s)) and end >= 2
    assert sum(clock.probes_s) <= raw - timed < sum(clock.probes_s) + 0.01
    # a lap is scaled by the mean speed of the probes during it and the
    # nearest on each side, MIN_PROBES at least: probes at half the
    # reference speed halve it
    ref, wide = hostspeed.REF_PROBE_S, hostspeed.MIN_PROBES
    clock.probes_s = [ref] * 3 * wide + [2 * ref] * 3 * wide
    assert clock.scale() == 0.75
    assert clock.scale(4 * wide, 5 * wide) == 0.5
    assert clock.scale(wide, wide) == 1.0 and clock.scale(0, 0) == 1.0
    assert clock.scale(3 * wide, 3 * wide) == 0.75
    rnd = Round()
    rnd.add((8.0, 4 * wide, 5 * wide), latency=False)
    rnd.add((1.0, wide, wide + 1), wall=False)
    rnd.add((3.0, 3 * wide, 3 * wide), wall=False)
    rnd.calibrate(clock)
    assert (rnd.raw_wall_s, rnd.wall_s, rnd.scale) == (8.0, 4.0, 0.75)
    assert rnd.latencies_ms == [1000.0, 3000.0 * 0.75]
    untimed = Round()
    untimed.add(hostspeed.WallClock().since(time.perf_counter() - 8.0))
    untimed.calibrate(hostspeed.WallClock())
    assert untimed.scale == 1.0 and untimed.wall_s == untimed.raw_wall_s


def test_quantile_is_interpolation_when_narrow_and_smooths_when_wide():
    few = [80.0, 490.0, 1200.0, 1230.0]
    cuts = statistics.quantiles(few, n=10, method="inclusive")
    assert run.quantile(few, 0.5) == pytest.approx(cuts[4])
    assert run.quantile(few, 0.9) == pytest.approx(cuts[8])
    assert run.quantile([7.0], 0.9) == 7.0
    # a gap at the median: the plain median sits on one side of it, the
    # smoothed one between the two sides
    gap = [1.0] * 50 + [3.0] * 51
    assert statistics.median(gap) == 3.0
    assert 1.5 < run.quantile(gap, 0.5) < 2.5
    assert run.quantile(list(range(101)), 0.5) == pytest.approx(50.0)
