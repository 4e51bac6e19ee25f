"""Alternating parent/change pairs of one benchmark workload, summarized.

Run from the root of the change's checkout:

    python3 tools/bench_pairs.py --parent DIR --change DIR --workload W \
        --pairs N [--out FILE]

Pair p (p = 1, ..., N) runs

    python3 perfbench/run.py --workload W --seed p --seconds RUN_SECONDS \
        --trace 0

in each checkout, the parent first when p is odd and the change first when
it is even; RUN_SECONDS is BENCHMARK.json's run_seconds.  Every run is kept
with its exit code and result.  The first run that exits non-zero or
reports correct: false stops the script (exit 1) after the runs so far are
written.

The summary has, per end_to_end metric of BENCHMARK.json, the fields of
the BENCH_*.json files: the two medians, change_vs_parent (change median
over parent median, minus 1), parent_q1_q3 (statistics.quantiles, n = 4,
inclusive), change_better_pairs (pairs where the change is strictly better
in the metric's direction; ties count for neither side), bound and
within_bound (the change median is worse than the parent's by at most
the bound).  With --out the runs and the summary go to FILE as JSON;
runs and summary of other workloads already in FILE are kept, and this
workload's are replaced.  The summary is also printed.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_once(checkout, workload, seed, seconds):
    """One perfbench/run.py run in checkout: (exit code, elapsed s, result
    JSON or None)."""
    started = time.monotonic()
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, capture_output=True, text=True)
    elapsed = time.monotonic() - started
    lines = proc.stdout.splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    return proc.returncode, elapsed, result


def _sides(runs, name):
    """{pair: value of metric name} for each side, over the pairs that have
    a result on both sides."""
    values = {"parent": {}, "change": {}}
    for run in runs:
        if run["result"] is not None:
            values[run["side"]][run["pair"]] = \
                run["result"]["metrics"][name]["value"]
    pairs = sorted(values["parent"].keys() & values["change"].keys())
    return ([values["parent"][p] for p in pairs],
            [values["change"][p] for p in pairs])


def metric_summary(parent, change, better, bound):
    """The BENCH_*.json summary of one metric over paired values."""
    sign = 1 if better == "higher" else -1
    p_med, c_med = statistics.median(parent), statistics.median(change)
    q1, _, q3 = statistics.quantiles(parent, n=4, method="inclusive")
    wins = sum(1 for p, c in zip(parent, change) if sign * (c - p) > 0)
    worse_by = sign * (p_med - c_med) / p_med
    return {"parent_median": round(p_med, 5),
            "change_median": round(c_med, 5),
            "change_vs_parent": round(c_med / p_med - 1, 4),
            "parent_q1_q3": [round(q1, 5), round(q3, 5)],
            "change_better_pairs": f"{wins}/{len(parent)}",
            "bound": bound,
            "within_bound": worse_by <= bound}


def summarize(runs, end_to_end):
    """The summary of one workload's runs for the end_to_end metric specs
    (each with name, better and bound) of BENCHMARK.json."""
    results = [run["result"] for run in runs if run["result"] is not None]
    out = {"pairs": len(_sides(runs, end_to_end[0]["name"])[0]),
           "all_correct": (len(results) == len(runs)
                           and all(r["correct"] for r in results)),
           "failed": sorted({r["failed"] for r in results})}
    if out["pairs"] >= 2:
        for spec in end_to_end:
            parent, change = _sides(runs, spec["name"])
            out[spec["name"]] = metric_summary(parent, change, spec["better"],
                                               spec["bound"])
    return out


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", required=True)
    ap.add_argument("--change", required=True)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--pairs", type=int, required=True)
    ap.add_argument("--out")
    args = ap.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    runs, stopped = [], False
    for pair in range(1, args.pairs + 1):
        order = ["parent", "change"] if pair % 2 else ["change", "parent"]
        for side in order:
            code, elapsed, result = run_once(
                getattr(args, side), args.workload, pair,
                bench["run_seconds"])
            runs.append({"workload": args.workload, "pair": pair,
                         "side": side, "exit": code,
                         "elapsed": round(elapsed, 3), "result": result})
            print(f"{args.workload} pair {pair} {side}: exit {code}",
                  file=sys.stderr)
            if code != 0 or result is None or not result.get("correct"):
                stopped = True
                break
        if stopped:
            break
    summary = summarize(runs, bench["end_to_end"])
    if args.out:
        doc = {}
        if os.path.exists(args.out):
            with open(args.out) as fh:
                doc = json.load(fh)
        doc.setdefault("summary", {})[args.workload] = summary
        doc["runs"] = [run for run in doc.get("runs", [])
                       if run["workload"] != args.workload] + runs
        with open(args.out, "w") as fh:
            json.dump(doc, fh, indent=1)
            fh.write("\n")
    print(json.dumps({args.workload: summary}, indent=1))
    return 1 if stopped else 0


if __name__ == "__main__":
    sys.exit(main())
