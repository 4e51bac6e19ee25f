"""One round of a workload in a fresh process; prints one JSON line.

    python3 perfbench/worker.py --workload NAME --seed N --launched T
        [--setup-only] [--spans FILE]

--launched is the time.monotonic() reading taken by the parent just before
it started this process (CLOCK_MONOTONIC is system-wide on Linux), so
setup_s covers interpreter start, imports and input generation.  setup_s
and the round's times are in reference seconds (see hostspeed.py): the
scale comes from the probes that sample the host's speed during the
round, or, with --setup-only, from SETUP_PROBES probes run after set-up.
With --spans the round is traced, runs no probes, and reports wall
seconds and its per-layer metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
SETUP_PROBES = 20


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--launched", type=float, required=True)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--spans")
    args = ap.parse_args()

    sys.path.insert(0, SRC)
    import qschur
    if os.path.dirname(os.path.abspath(qschur.__file__)) != \
            os.path.join(SRC, "qschur"):
        sys.exit(f"qschur imported from {qschur.__file__}, not from {SRC}")
    from workloads import WORKLOADS
    workload = WORKLOADS[args.workload](args.seed)
    setup_s = time.monotonic() - args.launched
    if args.spans:
        from layers import Tracer
        tracer = Tracer()
        tracer.install()
        rnd = workload.run()
        result = dict(rnd.as_dict(), setup_s=setup_s,
                      layers=tracer.metrics(rnd.wall_s))
        tracer.write_spans(args.spans)
    else:
        from hostspeed import CalibratedClock
        clock = CalibratedClock()
        if args.setup_only:
            clock.sample(SETUP_PROBES)
            result = {}
        else:
            clock.start()
            try:
                rnd = workload.run(clock)
            finally:
                clock.stop()
            result = rnd.as_dict()
        result.update(setup_s=setup_s * clock.scale(), raw_setup_s=setup_s)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
