"""Benchmark for qschur: run one workload and print its metrics.

    python3 perfbench/run.py --workload {verify-all,schur-weyl,queries}
        --seed N --seconds S --trace {0,1}

Run from the root of a source checkout; qschur is imported from ./src.
Every round runs in a fresh single-threaded process with a fixed
PYTHONHASHSEED, so module caches start empty.  Untraced (--trace 0), the
run first starts SETUP_LAUNCHES processes that only set up, then runs whole
rounds while the next one is expected to end within S seconds (at least
one), and reports the end-to-end metrics as medians (setup_s over the
set-up-only processes).  Its times are in reference seconds: each process
samples the host's speed while it runs and scales its wall times by it,
so that the drift of a shared host's speed cancels (see hostspeed.py).
Traced (--trace 1), it runs exactly one round with the per-layer
wrappers installed, so the counts repeat exactly, writes its spans under
perfbench/out/ and reports the per-layer metrics.  The last line of
standard output is the result JSON; the exit code is 0 only when every
output checked out.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
WORKER = os.path.join(HERE, "worker.py")
WORKLOADS = ("verify-all", "schur-weyl", "queries")
SETUP_LAUNCHES = 10
WORKER_TIMEOUT_S = 150
QUANTILE_SE = 2

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mib": "MiB",
              "req_per_s": "1/s", "req_p50_ms": "ms", "req_p90_ms": "ms"}

ENV = dict(os.environ, PYTHONHASHSEED="0", OMP_NUM_THREADS="1",
           OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")


def launch(workload, seed, *extra):
    """Run one worker process and return its JSON result."""
    launched = time.monotonic()
    proc = subprocess.run(
        [sys.executable, WORKER, "--workload", workload, "--seed", str(seed),
         "--launched", repr(launched), *extra],
        cwd=ROOT, env=ENV, capture_output=True, text=True,
        timeout=WORKER_TIMEOUT_S)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        sys.exit(f"worker for {workload} exited {proc.returncode}")
    return json.loads(proc.stdout.splitlines()[-1])


def quantile(values, p):
    """The p-quantile of values, smoothed over its neighbouring ranks.

    A mean of the sorted values under a triangular kernel centred on rank
    p * (n - 1), QUANTILE_SE standard errors of a sample quantile
    (sqrt(p (1 - p) / n)) wide on each side and at least one rank, where
    it is the linear interpolation of statistics.quantiles(...,
    method="inclusive").  A single round's latencies are noisy, and where
    few operations lie near the quantile the plain order statistic jumps
    between them from run to run; the kernel averages over them.
    """
    xs = sorted(values)
    n = len(xs)
    if n == 1:
        return xs[0]
    width = max(QUANTILE_SE * math.sqrt(p * (1 - p) / n), 1 / (n - 1))
    weights = [max(0.0, 1 - abs(i / (n - 1) - p) / width) for i in range(n)]
    return sum(w * x for w, x in zip(weights, xs)) / sum(weights)


def summarize(rounds, setups):
    """End-to-end metrics: medians over rounds; latency quantiles over ops.

    Every round runs the same operations in the same order, so an
    operation's latency is its median over the rounds.
    """
    per_op = [statistics.median(op) for op in
              zip(*(rnd["latencies_ms"] for rnd in rounds))]
    return {
        "wall_s": statistics.median(r["wall_s"] for r in rounds),
        "setup_s": statistics.median(setups),
        "peak_rss_mib": statistics.median(r["rss_mib"] for r in rounds),
        "req_per_s": statistics.median(r["ops"] / r["wall_s"]
                                       for r in rounds),
        "req_p50_ms": quantile(per_op, 0.5),
        "req_p90_ms": quantile(per_op, 0.9),
    }


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not os.path.isfile(os.path.join(ROOT, "src", "qschur", "cli.py")):
        sys.exit(f"no qschur sources under {ROOT}/src")
    os.makedirs(OUT, exist_ok=True)

    if args.trace:
        from layers import PER_LAYER
        spans = os.path.join(OUT, f"spans-{args.workload}-{args.seed}.tsv.gz")
        rounds = [launch(args.workload, args.seed, "--spans", spans)]
        units = {name: unit for name, unit, _ in PER_LAYER}
        values = rounds[0]["layers"]
        setups = []
    else:
        setups = [launch(args.workload, args.seed, "--setup-only")
                  for _ in range(SETUP_LAUNCHES)]
        rounds = []
        start = time.monotonic()
        while True:
            rounds.append(launch(args.workload, args.seed))
            elapsed = time.monotonic() - start
            if elapsed * (len(rounds) + 1) / len(rounds) > args.seconds:
                break
        units = END_TO_END
        values = summarize(rounds, [s["setup_s"] for s in setups])

    for rnd in rounds:
        for msg in rnd["failures"] + rnd["errors"]:
            print(f"{args.workload}: {msg}", file=sys.stderr)
    correct = not any(rnd["errors"] for rnd in rounds)
    result = {
        "correct": correct,
        "attempted": sum(r["ops"] for r in rounds),
        "failed": sum(r["failed"] for r in rounds),
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()},
    }
    with open(os.path.join(OUT, f"result-{args.workload}-{args.seed}-"
                                f"trace{args.trace}.json"), "w") as fh:
        json.dump(dict(result, rounds=rounds, setups=setups), fh)
    print(json.dumps(result))
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
