"""The names the benchmark's tracer wraps must exist where it looks.

``perfbench/layers.py`` patches qschur functions and methods by name; a
refactor that moves one of them would make ``run.py --trace 1`` fail or
silently record nothing.  The lookups here mirror ``Tracer._patch``.
"""

import importlib
import pathlib
import sys

import pytest

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1]
                       / "perfbench"))
import layers  # noqa: E402

TARGETS = sorted({target for table in (layers.SPANS, layers.COUNTERS)
                  for targets in table.values() for target in targets})


@pytest.mark.parametrize("module, attr", TARGETS)
def test_traced_target_resolves(module, attr):
    mod = importlib.import_module("qschur." + module)
    if "." in attr:
        cls_name, meth = attr.split(".")
        assert callable(vars(getattr(mod, cls_name)).get(meth)), attr
    else:
        assert callable(getattr(mod, attr)), attr


def test_traced_tables_and_registries_exist():
    from qschur import cli, qmatrix
    assert callable(vars(qmatrix.Rewriter).get("normal_word"))
    for table in (qmatrix.PLAIN.cache, qmatrix.STARRED.cache,
                  qmatrix._STRAIGHTEN.solvers):
        assert isinstance(table, dict)
    assert tuple(cli.SUITES) == layers.SUITES
    assert callable(cli._case)


def test_run_suite_looks_up_suites_and_case_at_call_time(monkeypatch):
    # perfbench's verify-all workload swaps cli.SUITES entries and cli._case
    # for timed wrappers; bound early, its request metrics would read 0
    from qschur import cli
    calls = {"suite": 0, "case": 0}
    suite, make_case = cli.SUITES["centrality"], cli._case

    def counted_suite(*args, **kwargs):
        calls["suite"] += 1
        return suite(*args, **kwargs)

    def counted_case(ok, **info):
        calls["case"] += 1
        return make_case(ok, **info)

    monkeypatch.setitem(cli.SUITES, "centrality", counted_suite)
    monkeypatch.setattr(cli, "_case", counted_case)
    report = cli.run_suite("centrality")
    assert calls["suite"] == 1
    assert calls["case"] == len(report["cases"]) == 2
