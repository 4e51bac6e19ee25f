"""Hits, misses and sizes of qschur's caches after each benchmark workload.

Run from the root of a checkout:

    PYTHONPATH=src python3 tools/cache_report.py

Each workload runs in a fresh process, so every cache starts empty:

* ``verify-all``: ``verify all`` through ``qschur.cli.main``;
* ``schur-weyl``: ``verify_schur_weyl`` at the points of
  ``perfbench/workloads.SchurWeyl``;
* ``queries``: every request of ``perfbench/workloads.make_stream(1)``,
  through ``qschur.cli.main``.

For each workload it prints hits, misses and currsize of every
``functools.cache`` in qschur (see ``caches``), then the entries of the
table of shared units +-q^e in ``laurent``, of the ``Rewriter`` memos of
``PLAIN`` and ``STARRED`` and of ``_STRAIGHTEN.solvers`` (see ``memos``),
whose hits are not counted.  It
takes no options and writes nothing: no bytecode either.
"""

from __future__ import annotations

import concurrent.futures
import importlib
import multiprocessing
import os
import sys

MODULES = ("laurent", "tableaux", "linalg", "qmatrix", "mixed", "tensor",
           "cli")
WORKLOADS = ("verify-all", "schur-weyl", "queries")


def caches():
    """{"module.name": cached function} for every functools.cache that a
    qschur module holds as a global.  Modules are scanned bottom up, so a
    cache imported by a higher module keeps the name it was defined under."""
    found = {}
    for modname in MODULES:
        module = importlib.import_module(f"qschur.{modname}")
        for name, value in vars(module).items():
            if (callable(getattr(value, "cache_info", None))
                    and value not in found.values()):
                found[f"{modname}.{name}"] = value
    return found


def memos():
    """{name: dict} for the memos and tables that are not functools
    caches."""
    from qschur import laurent, qmatrix
    return {"laurent._UNITS": laurent._UNITS,
            "qmatrix.PLAIN.cache": qmatrix.PLAIN.cache,
            "qmatrix.PLAIN.inserts": qmatrix.PLAIN.inserts,
            "qmatrix.STARRED.cache": qmatrix.STARRED.cache,
            "qmatrix.STARRED.inserts": qmatrix.STARRED.inserts,
            "qmatrix._STRAIGHTEN.solvers": qmatrix._STRAIGHTEN.solvers}


def _perfbench():
    sys.path.insert(0, os.path.join(os.getcwd(), "perfbench"))
    import workloads
    return workloads


def run_workload(workload):
    """Run one workload of WORKLOADS in this process."""
    from report_digest import call
    if workload == "verify-all":
        call(["verify", "all"])
    elif workload == "schur-weyl":
        from qschur import tensor
        for point in _perfbench().SchurWeyl.POINTS:
            tensor.verify_schur_weyl(*point)
    else:  # queries
        for req in _perfbench().make_stream(1):
            call(req.argv, req.payload)


def measure(workload):
    """Run workload, then [(name, hits, misses, size)] of every cache; the
    hits and misses of a memo are None."""
    sys.dont_write_bytecode = True
    run_workload(workload)
    rows = []
    for name, fn in caches().items():
        info = fn.cache_info()
        rows.append((name, info.hits, info.misses, info.currsize))
    rows += [(name, None, None, len(memo)) for name, memo in memos().items()]
    return rows


def main():
    context = multiprocessing.get_context("spawn")
    for workload in WORKLOADS:
        with concurrent.futures.ProcessPoolExecutor(
                max_workers=1, mp_context=context) as pool:
            rows = pool.submit(measure, workload).result()
        print(f"{workload:42} {'hits':>8} {'misses':>8} {'currsize':>9}")
        for name, hits, misses, size in rows:
            hits, misses = ("-" if v is None else v for v in (hits, misses))
            print(f"  {name:40} {hits:>8} {misses:>8} {size:>9}")
        print(flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
