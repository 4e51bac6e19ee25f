"""One sha256 per qschur report, to check that a change keeps its output.

Run from the root of a checkout:

    PYTHONHASHSEED=0 PYTHONPATH=src python3 tools/report_digest.py

and compare the printed lines with those of another checkout.  The
reports, each run in this process through ``qschur.cli.main`` and
digested with its exit code and stderr:

* ``verify all`` as JSON and as CSV;
* ``dims --unsafe-large`` at (n, r, s) = (3,2,2) and (4,2,1);
* every request of ``perfbench/workloads.make_stream(seed)`` for seeds
  1-3, one digest per seed.

``elapsed_ms`` is removed wherever it appears, since it is a wall time.
The ``queries.seed*`` digests hash the raw stdout, so equal digests there
prove the stream's output byte-identical; the ``verify-all.json`` and
``dims.*`` digests hash the JSON re-dumped without ``elapsed_ms``, so they
cannot see a change of whitespace.
Any hash seed other than 0 is refused: the digests are only comparable
under one.  ``perfbench/`` is read, never written (no bytecode either).
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import os
import sys

from qschur import cli

SEEDS = (1, 2, 3)
DIMS_POINTS = ((3, 2, 2), (4, 2, 1))


def call(argv, stdin=""):
    """(exit code, stdout, stderr) of one CLI call."""
    out, err = io.StringIO(), io.StringIO()
    saved = sys.stdin
    sys.stdin = io.StringIO(stdin)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    except SystemExit as exc:
        code = exc.code
    finally:
        sys.stdin = saved
    return code, out.getvalue(), err.getvalue()


def drop_elapsed(value):
    if isinstance(value, dict):
        return {k: drop_elapsed(v) for k, v in value.items()
                if k != "elapsed_ms"}
    if isinstance(value, list):
        return [drop_elapsed(v) for v in value]
    return value


def json_without_elapsed(text):
    if not text:  # a failed call prints to stderr only
        return text
    return json.dumps(drop_elapsed(json.loads(text)), indent=2,
                      sort_keys=True) + "\n"


def csv_without_elapsed(text):
    if not text:
        return text
    reader = csv.DictReader(io.StringIO(text))
    fields = [f for f in reader.fieldnames if f != "elapsed_ms"]
    out = io.StringIO()
    writer = csv.DictWriter(out, fieldnames=fields, extrasaction="ignore")
    writer.writeheader()
    writer.writerows(reader)
    return out.getvalue()


def digest(results):
    """sha256 over a list of (exit code, stdout, stderr)."""
    h = hashlib.sha256()
    for code, out, err in results:
        h.update(json.dumps([code, out, err]).encode())
    return h.hexdigest()


def reports():
    """(name, digest) for every report, in a fixed order."""
    for fmt, strip in (("json", json_without_elapsed),
                       ("csv", csv_without_elapsed)):
        code, out, err = call(["verify", "all", "--format", fmt])
        yield f"verify-all.{fmt}", digest([(code, strip(out), err)])
    for n, r, s in DIMS_POINTS:
        code, out, err = call(["dims", "--n", str(n), "--r", str(r),
                               "--s", str(s), "--unsafe-large"])
        yield f"dims.{n}{r}{s}", digest([(code, json_without_elapsed(out),
                                          err)])
    sys.dont_write_bytecode = True
    sys.path.insert(0, os.path.join(os.getcwd(), "perfbench"))
    from workloads import make_stream
    for seed in SEEDS:
        yield f"queries.seed{seed}", digest(
            [call(req.argv, req.payload) for req in make_stream(seed)])


def main():
    if os.environ.get("PYTHONHASHSEED") != "0":
        print("error: run with PYTHONHASHSEED=0", file=sys.stderr)
        return 2
    for name, hexdigest in reports():
        print(f"{name:18} {hexdigest}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
