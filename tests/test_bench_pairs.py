"""tools/bench_pairs.py: the summary of paired benchmark runs."""

import importlib.util
import pathlib

import pytest

PATH = pathlib.Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"
SPEC = importlib.util.spec_from_file_location("bench_pairs", PATH)
bench_pairs = importlib.util.module_from_spec(SPEC)
SPEC.loader.exec_module(bench_pairs)

END_TO_END = [{"name": "wall_s", "better": "lower", "bound": 0.25},
              {"name": "req_per_s", "better": "higher", "bound": 0.25}]


def run(pair, side, wall, rate, correct=True, failed=0):
    return {"workload": "w", "pair": pair, "side": side, "exit": 0,
            "elapsed": 1.0,
            "result": {"correct": correct, "attempted": 10, "failed": failed,
                       "metrics": {"wall_s": {"value": wall, "unit": "s"},
                                   "req_per_s": {"value": rate,
                                                 "unit": "1/s"}}}}


def test_a_lower_is_better_metric():
    got = bench_pairs.metric_summary([3.0, 3.2, 3.1, 3.4],
                                     [2.9, 3.2, 3.0, 3.5], "lower", 0.25)
    assert got == {"parent_median": 3.15, "change_median": 3.1,
                   "change_vs_parent": -0.0159,
                   "parent_q1_q3": [3.075, 3.25],
                   # pair 2 ties and counts for neither side
                   "change_better_pairs": "2/4",
                   "bound": 0.25, "within_bound": True}


def test_a_higher_is_better_metric_respects_its_direction():
    got = bench_pairs.metric_summary([10.0, 10.0, 10.0], [11.0, 9.0, 12.0],
                                     "higher", 0.1)
    assert got["change_better_pairs"] == "2/3"
    assert got["change_vs_parent"] == 0.1
    assert got["within_bound"]


@pytest.mark.parametrize("better, change, within", [
    ("lower", 1.25, True), ("lower", 1.26, False),
    ("higher", 0.75, True), ("higher", 0.74, False)])
def test_within_bound_is_the_worse_side_only(better, change, within):
    got = bench_pairs.metric_summary([1.0, 1.0], [change, change], better,
                                     0.25)
    assert got["within_bound"] is within


def test_summarize_pairs_runs_and_keeps_the_failures():
    runs = [run(1, "parent", 3.0, 40.0), run(1, "change", 2.8, 42.0),
            run(2, "change", 2.9, 41.0), run(2, "parent", 3.1, 39.0),
            run(3, "parent", 3.2, 38.0, correct=False, failed=2)]
    got = bench_pairs.summarize(runs, END_TO_END)
    # pair 3 has no change run, so only pairs 1 and 2 are summarized
    assert got["pairs"] == 2
    assert got["all_correct"] is False
    assert got["failed"] == [0, 2]
    assert got["wall_s"]["parent_median"] == 3.05
    assert got["wall_s"]["change_median"] == 2.85
    assert got["wall_s"]["change_better_pairs"] == "2/2"
    assert got["req_per_s"]["change_better_pairs"] == "2/2"
    assert got["req_per_s"]["parent_q1_q3"] == [39.25, 39.75]


def test_summarize_gives_no_metric_below_two_pairs():
    got = bench_pairs.summarize([run(1, "parent", 3.0, 40.0),
                                 run(1, "change", 2.8, 42.0)], END_TO_END)
    assert got == {"pairs": 1, "all_correct": True, "failed": [0]}
