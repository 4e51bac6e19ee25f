"""The command-line surface: subcommands, formats, exit codes."""

import argparse
import contextlib
import functools
import io
import json
import os
import pathlib
import re
import subprocess
import sys
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from qschur import mixed as mx
from qschur import qmatrix as qm
from qschur import cli
from qschur import tensor as tn
from qschur.cli import main
from qschur.laurent import ONE
from qschur.mixed import (MixedElem, rational_bideterminant,
                          standard_rational_bitableaux)

EXPECTED_SUITES = ["pbw", "laplace", "centrality", "hecke-relations",
                   "walled-relations", "kernel-Y", "jacobi", "detk",
                   "straightening-lemmas", "bijection", "rational-basis",
                   "phi-iota", "bicommute", "kappa-equivariance",
                   "weight-projectors", "schur-weyl"]


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_suite_registry():
    assert list(cli.SUITES) == EXPECTED_SUITES


def test_tableaux_rational_count(capsys):
    code, out = run(capsys, "tableaux", "--rational",
                    "--n", "2", "--r", "1", "--s", "1")
    assert code == 0
    assert json.loads(out)["count"] == 4


def test_tableaux_ordinary(capsys):
    code, out = run(capsys, "tableaux", "--n", "2", "--m", "2")
    assert code == 0
    report = json.loads(out)
    assert report["count"] == 4  # shapes (2) and (1,1) with entries <= 2


def test_dims_reports_four_way_agreement(capsys):
    code, out = run(capsys, "dims", "--n", "2", "--r", "1", "--s", "1")
    assert code == 0
    report = json.loads(out)
    assert report["ok"]
    assert report["commutant_dim"] == report["image_dim"] == \
        report["rational_bitableaux"] == report["coeff_quotient_dim"] == 10


def uncertified(monkeypatch):
    real = tn.image_algebra_dim_modular
    monkeypatch.setattr(tn, "image_algebra_dim_modular",
                        lambda *args: real(*args) - 1)


def not_commuting(monkeypatch):
    real = tn.walled_generators

    def broken(n, r, s):
        _, S, Shat = real(n, r, s)
        a, b = tn.mixed_basis(n, r, s)[:2]
        return tn.Endo({(a, b): ONE}), S, Shat

    monkeypatch.setattr(tn, "walled_generators", broken)


@pytest.mark.parametrize("patch, error", [
    (uncertified, "uncertified: 9 <= dim <= 10"),
    (not_commuting, "generators do not commute with the proposed "
                    "commutant generators")])
def test_dims_reports_a_failed_certificate(patch, error, monkeypatch,
                                           capsys):
    patch(monkeypatch)
    code = main(["dims", "--n", "2", "--r", "1", "--s", "1"])
    out, err = capsys.readouterr()
    assert code == 1
    assert err == ""
    report = json.loads(out)
    assert not report["ok"]
    assert report["error"] == error
    assert report["commutant_dim"] is report["image_dim"] is None
    assert report["rational_bitableaux"] == \
        report["coeff_quotient_dim"] == 10


def test_dims_at_3_2_2(capsys):
    # d = 81: the four-way check past the former desk scale
    code, out = run(capsys, "dims", "--n", "3", "--r", "2", "--s", "2")
    assert code == 0
    report = json.loads(out)
    assert report["ok"]
    assert report["commutant_dim"] == report["image_dim"] == \
        report["rational_bitableaux"] == report["coeff_quotient_dim"] == 994


def test_basis_counts(capsys):
    code, out = run(capsys, "basis", "ord", "--n", "2", "--m", "2")
    assert code == 0 and json.loads(out)["count"] == 10
    code, out = run(capsys, "basis", "mixed",
                    "--n", "2", "--r", "1", "--s", "1")
    assert code == 0 and json.loads(out)["count"] == 10


def test_straighten_ord_roundtrip(tmp_path, capsys):
    elem = [{"word": [[2, 1], [1, 2]], "coeff": {"0": "1"}}]
    path = tmp_path / "elem.json"
    path.write_text(json.dumps(elem))
    code, out = run(capsys, "straighten", "ord", "--n", "2",
                    "--input", str(path))
    assert code == 0
    report = json.loads(out)
    assert len(report["terms"]) == 2  # -q (12|12) + q (1/2 | 1/2) pattern


@pytest.mark.parametrize("key", ["00", " 0"])
def test_straighten_sums_exponent_keys_that_read_as_one_integer(
        key, monkeypatch, capsys):
    # equal exponents are summed like repeated words: both give 3, not 2
    reports = []
    coeff = json.dumps({"0": "1", key: "2"})
    for text in (f'[{{"word": [[1, 1]], "coeff": {coeff}}}]',
                 '[{"word": [[1, 1]], "coeff": {"0": "1"}},'
                 ' {"word": [[1, 1]], "coeff": {"0": "2"}}]'):
        monkeypatch.setattr("sys.stdin", io.StringIO(text))
        code, out = run(capsys, "straighten", "ord", "--n", "2",
                        "--input", "-")
        assert code == 0
        reports.append(json.loads(out))
    assert reports[0] == reports[1]
    assert [t["coeff"] for t in reports[0]["terms"]] == [{"0": "3"}]


def test_straighten_mixed(tmp_path, capsys):
    elem = MixedElem({(((1, 1),), ((1, 1),)): ONE}, normalized=True)
    path = tmp_path / "elem.json"
    path.write_text(json.dumps(elem.to_json()))
    code, out = run(capsys, "straighten", "mixed", "--n", "2",
                    "--r", "1", "--s", "1", "--input", str(path))
    assert code == 0
    assert json.loads(out)["terms"]


def test_iota_reports_neg_q_form_on_basis_element(tmp_path, capsys):
    n, r, s = 2, 1, 1
    k, rt, rt2 = standard_rational_bitableaux(n, r, s)[0]
    b = rational_bideterminant(rt, rt2, k, n)
    path = tmp_path / "elem.json"
    path.write_text(json.dumps(b.to_json()))
    code, out = run(capsys, "iota", "--n", "2", "--r", "1", "--s", "1",
                    "--input", str(path))
    assert code == 0
    report = json.loads(out)
    assert len(report["terms"]) == 1
    assert "neg_q_exponent" in report


def test_verify_single_suite(capsys):
    code, out = run(capsys, "verify", "bijection")
    assert code == 0
    report = json.loads(out)
    assert report["ok"] and report["suites"][0]["suite"] == "bijection"


def test_verify_with_parameter_restriction(capsys):
    code, out = run(capsys, "verify", "jacobi", "--n", "3")
    assert code == 0
    report = json.loads(out)
    cases = report["suites"][0]["cases"]
    assert [c["n"] for c in cases] == [3]


def test_verify_restricts_grid_suites_to_r_and_s(capsys):
    code, out = run(capsys, "verify", "kernel-Y", "--n", "2",
                    "--r", "1", "--s", "1")
    assert code == 0
    cases = json.loads(out)["suites"][0]["cases"]
    assert [(c["n"], c["r"], c["s"]) for c in cases] == [(2, 1, 1)]
    code, out = run(capsys, "verify", "bijection", "phi-iota", "--n", "2",
                    "--r", "1")
    assert code == 0
    for suite in json.loads(out)["suites"]:
        points = [(c["r"], c["s"]) for c in suite["cases"]
                  if not c.get("anchor")]
        assert points == [(1, 0), (1, 1), (1, 2)], suite["suite"]
    code, out = run(capsys, "verify", "walled-relations", "hecke-relations",
                    "--n", "2", "--r", "2", "--s", "1")
    assert code == 0
    for suite in json.loads(out)["suites"]:
        points = [(c["r"], c["s"]) for c in suite["cases"] if "r" in c]
        assert points == [(2, 1)], suite["suite"]
    # a restriction that leaves a suite no case is bad input, not a pass
    assert main(["verify", "kappa-equivariance", "--n", "2", "--s", "0"]) == 2


# the axes of each suite's points; a flag for another axis is ignored
SUITE_AXES = {"pbw": "n", "laplace": "n", "centrality": "n",
              "hecke-relations": "nmrs", "walled-relations": "nrs",
              "kernel-Y": "nrs", "jacobi": "n", "detk": "n",
              "straightening-lemmas": "n", "bijection": "nrs",
              "rational-basis": "nrs", "phi-iota": "nrs", "bicommute": "nrs",
              "kappa-equivariance": "nrs", "weight-projectors": "nm",
              "schur-weyl": "nrs"}
CHEAP = {"n": 2, "r": 1, "s": 1, "m": 2}


def test_suite_axes_are_the_declared_ones():
    from qschur.cli import POINTS
    assert list(SUITE_AXES) == EXPECTED_SUITES
    for name, axes in SUITE_AXES.items():
        assert {k for p in POINTS[name] for k in p} == set(axes), name


@pytest.mark.parametrize("name, axis, value", [
    (name, axis, CHEAP[axis]) for name, axes in SUITE_AXES.items()
    for axis in axes] + [("schur-weyl", "s", 0)])
def test_every_axis_restricts_every_suite(name, axis, value, capsys):
    code, out = run(capsys, "verify", name, f"--{axis}", str(value))
    assert code == 0
    cases = [c for c in json.loads(out)["suites"][0]["cases"]
             if not c.get("anchor")]
    assert any(axis in c for c in cases)
    assert all(c[axis] == value for c in cases if axis in c)


def test_restricted_points_keep_their_first_position(capsys):
    def points(*argv):
        code, out = run(capsys, "verify", "schur-weyl", *argv)
        assert code == 0
        return [(c["n"], c["r"], c["s"])
                for c in json.loads(out)["suites"][0]["cases"]]
    assert points("--r", "1") == [(2, 1, 1), (2, 1, 2), (3, 1, 1), (2, 1, 0)]
    assert points("--s", "0") == [(2, 1, 0), (2, 2, 0), (3, 1, 0)]
    assert points("--n", "2") == [(2, 1, 1), (2, 2, 1), (2, 1, 2),
                                  (2, 1, 0), (2, 2, 0)]


def test_a_restriction_may_leave_the_declared_values(capsys):
    code, out = run(capsys, "verify", "walled-relations", "--n", "2",
                    "--r", "3", "--unsafe-large")
    assert code == 0
    cases = json.loads(out)["suites"][0]["cases"]
    assert [(c["n"], c["r"], c["s"]) for c in cases] == [(2, 3, 1), (2, 3, 2)]
    # the walled relations need r, s >= 1, as kappa needs s >= 1
    assert main(["verify", "walled-relations", "--r", "0"]) == 2


def failed_certificate(capsys, name, *argv):
    """verify name and centrality: exit 1, centrality still ok, and the
    cases of name by their ok value."""
    code, out = run(capsys, "verify", name, "centrality", *argv)
    assert code == 1
    report = json.loads(out)
    suites = {rep["suite"]: rep for rep in report["suites"]}
    assert not report["ok"] and not suites[name]["ok"]
    assert suites["centrality"]["ok"]
    cases = suites[name]["cases"]
    return ([c for c in cases if c["ok"]], [c for c in cases if not c["ok"]])


def test_a_dependent_rational_basis_fails_its_points(monkeypatch, capsys):
    def dependent(n, r, s):
        raise AssertionError("standard rational bideterminants must be "
                             "independent")
    monkeypatch.setattr(mx, "rational_basis", dependent)
    passed, failed = failed_certificate(capsys, "rational-basis",
                                        "--n", "2", "--r", "1")
    assert not passed
    assert [(c["r"], c["s"]) for c in failed] == [(1, 0), (1, 1), (1, 2)]
    assert all(c["error"] == "standard rational bideterminants must be "
               "independent" for c in failed)


def raise_in_iota_at_s_1(monkeypatch, exc):
    """Make mx.iota raise exc on elements of bidegree (r, 1): phi-iota
    compares iota(m) with (-q)^c (t_R|t_R') for each right factor
    m = dfrak^(k) (R|R')*, so its faults go in there."""
    real = mx.iota

    def iota(a, n):
        # every term of a right factor has s starred letters
        _, starred = next(iter(a.terms))
        if len(starred) == 1:
            raise exc
        return real(a, n)
    monkeypatch.setattr(mx, "iota", iota)


def test_a_failed_c_exponent_fails_its_point_only(monkeypatch, capsys):
    raise_in_iota_at_s_1(monkeypatch, AssertionError(
        "iota image is not a power of -q times the bideterminant"))
    passed, failed = failed_certificate(capsys, "phi-iota", "--n", "2")
    # the points after a failed one still run
    assert [(c["r"], c["s"]) for c in passed] == \
        [(0, 2), (1, 0), (1, 2), (2, 0), (2, 2)]
    assert all("basis_elements" in c for c in passed)
    assert [(c["r"], c["s"], c["error"]) for c in failed] == [
        (r, 1, "iota image is not a power of -q times the bideterminant")
        for r in (0, 1, 2)]


def test_an_internal_fault_fails_its_point_only(monkeypatch, capsys):
    # not bad input (exit 2): the fault fails its points, the rest still run
    raise_in_iota_at_s_1(monkeypatch, KeyError("internal"))
    passed, failed = failed_certificate(capsys, "phi-iota", "--n", "2")
    assert [(c["r"], c["s"]) for c in passed] == \
        [(0, 2), (1, 0), (1, 2), (2, 0), (2, 2)]
    assert [(c["r"], c["s"], c["error"]) for c in failed] == [
        (r, 1, "internal fault: KeyError: 'internal'") for r in (0, 1, 2)]


def test_phi_iota_builds_no_quotient(monkeypatch):
    # one normal-form comparison per right factor m = dfrak^(k) (R|R')*,
    # iota(m) against (-q)^c (t_R|t_R'), and a row check per basis element
    # certify phi(iota(b)) = b with no quotient: at (2,3,3) the exact
    # quotient takes about 40 s to build
    calls = []
    real_init, real_quotient = mx.MixedQuotient.__init__, mx.quotient

    def init(self, *args):
        calls.append(args)
        real_init(self, *args)

    def quotient(*args):
        calls.append(args)
        return real_quotient(*args)
    monkeypatch.setattr(mx.MixedQuotient, "__init__", init)
    monkeypatch.setattr(mx, "quotient", quotient)
    cases = cli.suite_phi_iota([{"n": 2, "r": 3, "s": 3}])
    assert cases == [{"n": 2, "r": 3, "s": 3, "basis_elements": 84,
                      "ok": True}]
    assert calls == []


def test_phi_iota_straightens_nothing(monkeypatch):
    # the normal-form comparison needs no straightening block
    calls = []
    real = qm.straighten

    def straighten(*args):
        calls.append(args)
        return real(*args)
    monkeypatch.setattr(qm, "straighten", straighten)
    monkeypatch.setattr(mx, "straighten", straighten)
    # an empty block cache for the run, so that any block built shows
    monkeypatch.setattr(qm._STRAIGHTEN, "solvers", {})
    cases = cli.suite_phi_iota([{"n": 3, "r": 2, "s": 1}])
    assert [c["ok"] for c in cases] == [True]
    assert calls == []
    assert qm._STRAIGHTEN.solvers == {}


SRC = pathlib.Path(__file__).resolve().parents[1] / "src"

# a process whose only child is the CLI, so that its RUSAGE_CHILDREN peak
# is the CLI's own peak RSS
MEASURED_CLI = """
import json, resource, subprocess, sys
proc = subprocess.run(
    [sys.executable, "-c",
     "import sys; from qschur.cli import main; sys.exit(main(sys.argv[1:]))",
     *sys.argv[1:]], capture_output=True, text=True)
print(json.dumps({"code": proc.returncode, "out": proc.stdout,
                  "err": proc.stderr, "peak_kib": resource.getrusage(
                      resource.RUSAGE_CHILDREN).ru_maxrss}))
"""


def run_measured(*argv):
    """Exit code, stdout, stderr and peak RSS (KiB) of `qschur argv` run
    in a fresh process."""
    path = os.pathsep.join(filter(None, [str(SRC),
                                         os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", MEASURED_CLI, *argv],
                          env=dict(os.environ, PYTHONPATH=path),
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def verify_phi_iota_large(n, r, s):
    return run_measured("verify", "phi-iota", "--n", str(n), "--r", str(r),
                        "--s", str(s), "--unsafe-large")


# the counts are perfbench/oracle.mixed_space_dim at these points
@pytest.mark.parametrize("n, r, s, count", [(4, 1, 2, 1712),
                                            (4, 2, 2, 11732),
                                            (3, 3, 3, 7540)])
def test_phi_iota_passes_at_large_points(n, r, s, count):
    run = verify_phi_iota_large(n, r, s)
    assert run["code"] == 0, run["err"]
    assert json.loads(run["out"])["suites"][0]["cases"] == [
        {"n": n, "r": r, "s": s, "basis_elements": count, "ok": True}]


def test_phi_iota_at_a_large_point_stays_small():
    # one iota image per right factor (k, R, R'): about 35 MiB at (4, 1, 2),
    # where one image and one (t|t') per basis element peaked at 211 MiB
    run = verify_phi_iota_large(4, 1, 2)
    assert run["code"] == 0, run["err"]
    assert run["peak_kib"] < 120 * 1024


def test_weight_projectors_builds_each_projector_once(monkeypatch):
    # the scalar checks and the enlarged generator set share one build of
    # each projector: 9 compositions at n = 2 and 19 at n = 3, m = 1, 2, 3
    built = []
    real = tn.weight_projector

    def counting(n, m, lam):
        built.append((n, m, lam))
        return real(n, m, lam)
    monkeypatch.setattr(tn, "weight_projector", counting)
    cases = cli.suite_weight_projectors()
    assert len(cases) == 6 and all(c["ok"] for c in cases)
    assert len(built) == len(set(built)) == 28


def test_an_inhomogeneous_iota_image_fails_its_points(monkeypatch, capsys):
    # every word its own content: an image of two words is inhomogeneous
    monkeypatch.setattr(qm, "word_content", lambda word, n: word)
    passed, failed = failed_certificate(capsys, "kernel-Y", "--n", "2",
                                        "--s", "1")
    # iota of a single starred letter at n = 2 is a single word
    assert [(c["r"], c["s"]) for c in passed] == [(0, 1)]
    assert [(c["r"], c["error"]) for c in failed] == [
        (r, "iota image is not content-homogeneous") for r in (1, 2)]


def test_unknown_suite_exits_2(capsys):
    assert main(["verify", "nosuchsuite"]) == 2


def counting_suites(monkeypatch):
    """Wrap every cli.SUITES entry; the returned dict counts their calls."""
    calls = {"suites": 0}
    for name, suite in list(cli.SUITES.items()):
        def counted(*args, suite=suite, **kwargs):
            calls["suites"] += 1
            return suite(*args, **kwargs)
        monkeypatch.setitem(cli.SUITES, name, counted)
    return calls


@pytest.mark.parametrize("argv, error", [
    (["all", "bogus"], "unknown suite: bogus"),
    (["all", "--n", "4", "--r", "0", "--s", "0", "--unsafe-large"],
     "no case of suite walled-relations matches --n/--r/--s/--m")],
    ids=["unknown-beside-all", "restriction-leaves-no-case"])
def test_verify_checks_all_its_input_before_any_suite(argv, error,
                                                      monkeypatch, capsys):
    calls = counting_suites(monkeypatch)
    assert main(["verify", *argv]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.splitlines() == [f"error: {error}"]
    assert calls["suites"] == 0


def test_caps_enforced(capsys):
    assert main(["dims", "--n", "9", "--r", "1", "--s", "1"]) == 2
    assert main(["tableaux", "--n", "2", "--m", "9"]) == 2


def test_missing_parameters_exit_2(capsys, tmp_path):
    assert main(["dims", "--n", "2"]) == 2
    assert main(["straighten", "ord", "--n", "2",
                 "--input", str(tmp_path / "missing.json")]) == 2


def test_unwritable_output_exits_2(tmp_path, capsys):
    path = tmp_path / "no_such_dir" / "x.json"
    assert main(["tableaux", "--n", "2", "--m", "2",
                 "--output", str(path)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error:")


def test_repeated_main_calls_do_not_accumulate_suites(capsys):
    # the parser is built once and reused; the suite names of one call must
    # not leak into the next
    for name in ("centrality", "pbw", "centrality"):
        code, out = run(capsys, "verify", name, "--n", "2")
        assert code == 0
        assert [rep["suite"] for rep in json.loads(out)["suites"]] == [name]


def test_csv_format(capsys):
    code, out = run(capsys, "tableaux", "--n", "2", "--m", "2",
                    "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].split(",") == sorted(("rows", "shape"))
    assert len(lines) == 5


def test_output_file(tmp_path, capsys):
    path = tmp_path / "report.json"
    code = main(["dims", "--n", "2", "--r", "1", "--s", "1",
                 "--output", str(path)])
    assert code == 0
    assert json.loads(path.read_text())["ok"]


def test_verify_output_deterministic_modulo_timing(capsys):
    _, out1 = run(capsys, "verify", "bijection")
    _, out2 = run(capsys, "verify", "bijection")
    r1, r2 = json.loads(out1), json.loads(out2)
    for rep in (r1, r2):
        for suite in rep["suites"]:
            suite.pop("elapsed_ms")
    assert r1 == r2


_BAD_PAIR = [{"plain": [[1, 2]], "starred": [[2, 1]], "coeff": {"0": "1"}}]


@pytest.mark.parametrize("argv, elem", [
    # a letter outside 1..n
    (["straighten", "ord", "--n", "2"],
     [{"word": [[1, 3], [1, 1]], "coeff": {"0": "1"}}]),
    # an object where the list of terms belongs
    (["straighten", "ord", "--n", "3"],
     {"word": [[1, 1]], "coeff": {"0": "1"}}),
    # a term without its keys, and one with a list as a coefficient
    (["straighten", "ord", "--n", "3"], [{"coeff": {"0": "1"}}]),
    (["straighten", "ord", "--n", "3"],
     [{"word": [[1, 1]], "coeff": {"0": [1]}}]),
    # a bidegree-(1,1) element declared as (2,1)
    (["straighten", "mixed", "--n", "2", "--r", "2", "--s", "1"], _BAD_PAIR),
    (["iota", "--n", "2", "--r", "2", "--s", "1"], _BAD_PAIR),
    # a JSON boolean as a coefficient, true or false
    (["straighten", "ord", "--n", "2"],
     [{"word": [[1, 1]], "coeff": {"0": True}}]),
    (["straighten", "ord", "--n", "2"],
     [{"word": [[1, 1]], "coeff": {"0": False}}]),
])
def test_malformed_input_exits_2(argv, elem, monkeypatch, capsys):
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(elem)))
    assert main(argv + ["--input", "-"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error:")


@pytest.mark.parametrize("text, message", [
    ('[{"word": [[1, 1]], "coeff": {"0": "1"}}', "the element is not JSON"),
    ('[{"word": [[1, 1]], "coeff": {"0": "abc"}}]',
     "coefficients must be integers"),
    ('[{"word": [[1, 1]], "coeff": {"x": "1"}}]',
     "exponents must be integers"),
    ('[{"word": [[1, 1]], "coeff": {"0": "1"}},'
     ' {"word": [[1, 1], [2, 2]], "coeff": {"0": "1"}}]',
     "inhomogeneous element"),
])
def test_unreadable_input_is_a_param_error(text, message, monkeypatch,
                                           capsys):
    # main reports only ParamError and OSError as bad input (exit 2)
    monkeypatch.setattr("sys.stdin", io.StringIO(text))
    assert main(["straighten", "ord", "--n", "2", "--input", "-"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.splitlines() == [err.strip()]
    assert err.startswith(f"error: {message}")


_WORD = [{"word": [[1, 2]], "coeff": {"0": "1"}}]


@pytest.mark.parametrize("argv, elem, target", [
    (["dims", "--n", "2", "--r", "1", "--s", "1"], None,
     "tensor.verify_schur_weyl"),
    (["straighten", "ord", "--n", "2"], _WORD, "qmatrix.straighten"),
    (["straighten", "mixed", "--n", "2", "--r", "1", "--s", "1"], _BAD_PAIR,
     "mixed.rational_straighten"),
    (["iota", "--n", "2", "--r", "1", "--s", "1"], _BAD_PAIR, "mixed.iota"),
])
def test_an_internal_fault_of_a_subcommand_exits_1(argv, elem, target,
                                                   monkeypatch, capsys):
    # a KeyError inside the work is a fault of qschur, not bad input; the
    # elements are well formed ((1,1) for _BAD_PAIR at --r 1 --s 1)
    def fault(*args, **kwargs):
        raise KeyError("internal")
    monkeypatch.setattr(f"qschur.{target}", fault)
    if elem is not None:
        monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(elem)))
        argv = argv + ["--input", "-"]
    assert main(argv) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: internal fault: KeyError: 'internal'\n"


# -- the element reader's messages ------------------------------------------

_ORD2 = ["straighten", "ord", "--n", "2"]
_ORD3 = ["straighten", "ord", "--n", "3"]
_MIXED_11 = ["straighten", "mixed", "--n", "2", "--r", "1", "--s", "1"]
_MIXED_21 = ["straighten", "mixed", "--n", "2", "--r", "2", "--s", "1"]
_IOTA_21 = ["iota", "--n", "2", "--r", "2", "--s", "1"]


def _term(word, coeff):
    return {"word": word, "coeff": coeff}


def _pair(plain, starred, coeff):
    return {"plain": plain, "starred": starred, "coeff": coeff}


def _nested(depth):
    """A letter of the form [[...[]...]], lists nested depth + 1 deep."""
    return json.dumps([_term([[]], {"0": "1"})]).replace(
        "[[]]", "[" * (depth + 1) + "]" * (depth + 1))


_NOT_INTS = "coefficients must be integers"
_NOT_EXPS = "exponents must be integers"
_TOO_DEEP = ("the element is not JSON: maximum recursion depth exceeded "
             "while decoding a JSON array from a unicode string")

# (argv, the --input text, the one stderr line after "error: "); every row
# exits 2.  Each row but the last two prints what it printed before the
# reader took one pass per term; the two nested rows were internal faults.
READER_MESSAGES = [
    # the inputs of test_malformed_input_exits_2
    (_ORD2, [_term([[1, 3], [1, 1]], {"0": "1"})],
     "letter [1, 3] is not a pair of indices in 1..2"),
    (_ORD3, _term([[1, 1]], {"0": "1"}),
     "the element must be a JSON list of terms"),
    (_ORD3, [{"coeff": {"0": "1"}}], "every term needs the keys word, coeff"),
    (_ORD3, [_term([[1, 1]], {"0": [1]})], _NOT_INTS),
    (_MIXED_21, _BAD_PAIR,
     "a term has bidegree (1, 1), not (--r, --s) = (2, 1)"),
    (_IOTA_21, _BAD_PAIR,
     "a term has bidegree (1, 1), not (--r, --s) = (2, 1)"),
    (_ORD2, [_term([[1, 1]], {"0": True})], _NOT_INTS),
    (_ORD2, [_term([[1, 1]], {"0": False})], _NOT_INTS),
    # letters: a float, a bool, three indices, a float in the starred half
    (_ORD2, [_term([[1, 2.0]], {"0": "1"})],
     "letter [1, 2.0] is not a pair of indices in 1..2"),
    (_ORD2, [_term([[True, 1]], {"0": "1"})],
     "letter [True, 1] is not a pair of indices in 1..2"),
    (_ORD2, [_term([[1, 1, 1]], {"0": "1"})],
     "letter [1, 1, 1] is not a pair of indices in 1..2"),
    (_MIXED_11, [_pair([[1, 1]], [[2.0, 1]], {"0": "1"})],
     "letter [2.0, 1] is not a pair of indices in 1..2"),
    # coefficients and exponent keys
    (_ORD2, [_term([[1, 1]], {"0": 2.5})], _NOT_INTS),
    (_ORD2, [_term([[1, 1]], {"0": 2.0})], _NOT_INTS),
    (_ORD2, [_term([[1, 1]], {"0": None})], _NOT_INTS),
    (_ORD2, [_term([[1, 1]], {"0": "1.5"})], _NOT_INTS),
    (_ORD2, [_term([[1, 1]], {"1.5": "1"})], _NOT_EXPS),
    (_ORD2, [_term([[1, 1]], {"": "1"})], _NOT_EXPS),
    # two faults in one term: keys, then coefficients, exponents, letters
    # and bidegree
    (_ORD2, [{"wrod": [[1, 1]], "coeff": {"0": 2.5}}],
     "every term needs the keys word, coeff"),
    (_ORD2, [_term([[1, 1]], {"x": "1", "0": "1.5"})], _NOT_INTS),
    (_ORD2, [_term([[1, 3]], {"x": "1"})], _NOT_EXPS),
    (_MIXED_21, [_pair([[1, 1]], [[1, 3]], {"0": "1"})],
     "letter [1, 3] is not a pair of indices in 1..2"),
    (_MIXED_11, [_pair([[3, 1]], [], {"0": "y"})], _NOT_INTS),
    # a fault of the first term comes before one of the second
    (_ORD2, [_term([[1, 3]], {"0": "1"}), {"coeff": {"0": "1"}}],
     "letter [1, 3] is not a pair of indices in 1..2"),
    # JSON nested past the recursion limit, as a whole and in a letter
    (_ORD2, "[" * 100_000, _TOO_DEEP),
    (_ORD2, _nested(990), _TOO_DEEP),
]


def read_through_main(argv, elem, path):
    """main(argv) reading elem (a JSON text if a str) from the file path;
    (exit code, stdout, stderr)."""
    path.write_text(elem if isinstance(elem, str) else json.dumps(elem))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv + ["--input", str(path)])
    return code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("argv, elem, message", READER_MESSAGES,
                         ids=map(str, range(len(READER_MESSAGES))))
def test_the_reader_prints_one_exact_line(argv, elem, message, tmp_path):
    assert read_through_main(argv, elem, tmp_path / "elem.json") == \
        (2, "", f"error: {message}\n")


def test_the_reader_leaves_int_letters_only_in_the_memos(tmp_path):
    for argv, elem, _ in READER_MESSAGES:
        read_through_main(argv, elem, tmp_path / "elem.json")
    # well-formed elements reach the rewriters too
    for argv, elem in ((_ORD2, _WORD), (_MIXED_11, _BAD_PAIR)):
        assert read_through_main(argv, elem, tmp_path / "elem.json")[0] == 0
    words = []
    for rewriter in (qm.PLAIN, qm.STARRED):
        for word, nf in rewriter.cache.items():
            words += [word, *nf]
        for (u, x), nf in rewriter.inserts.items():
            words += [u, (x,), *nf]
    assert words
    assert all(type(i) is int for w in words for letter in w for i in letter)


# -- fuzzed straighten/iota input ------------------------------------------

# floats include integral ones such as 2.0, and NaN and +-Infinity, which
# json.load reads; the reader refuses every one of them
_json_scalars = (st.none() | st.booleans() | st.integers(-3, 5)
                 | st.text(max_size=3) | st.integers(-3, 5).map(float)
                 | st.floats())
_json_values = st.one_of(
    st.recursive(_json_scalars,
                 lambda inner: st.lists(inner, max_size=3)
                 | st.dictionaries(st.text(max_size=3), inner, max_size=3),
                 max_leaves=8),
    # a scalar nested 2 to 40 lists deep
    st.builds(lambda x, depth: functools.reduce(lambda v, _: [v],
                                                range(depth), x),
              _json_scalars, st.integers(2, 40)))


def _mostly(good, *bad):
    """good fifteen times in sixteen, else one of bad."""
    return st.integers(0, 15).flatmap(
        lambda k: good if k else st.one_of(*bad))


# mostly well-formed terms, so that the straightening itself runs too
def _letters(n):
    return _mostly(st.lists(st.integers(1, n), min_size=2, max_size=2),
                   st.lists(st.integers(0, n + 2), min_size=2, max_size=2),
                   st.lists(st.integers(1, n) | st.integers(1, n).map(float),
                            min_size=2, max_size=2),
                   _json_values)


def _word(n, length):
    return _mostly(st.lists(_letters(n), min_size=length, max_size=length),
                   st.lists(_letters(n), max_size=3))


_coeffs = _mostly(
    st.dictionaries(st.integers(-2, 2).map(str), st.integers(-3, 3),
                    min_size=1, max_size=2),
    st.dictionaries(st.sampled_from(["0", "-1", "x", "1.5", ""]),
                    st.sampled_from(["1", "-2", "q", "", "2.0"])
                    | _json_values, max_size=2))


@st.composite
def _requests(draw):
    """(argv, element) of a straighten or iota call reading stdin."""
    argv = draw(st.sampled_from([["straighten", "ord"],
                                 ["straighten", "mixed"], ["iota"]]))
    n = draw(st.sampled_from([2, 3]))
    argv = argv + ["--n", str(n), "--input", "-"]
    if argv[1] == "ord":
        lengths = {"word": draw(st.integers(0, 3))}
    else:
        r, s = draw(st.integers(0, 2)), draw(st.integers(0, 2))
        lengths = {"plain": r, "starred": s}
        argv += ["--r", str(r), "--s", str(s)]
    term = st.fixed_dictionaries(
        {h: _word(n, k) for h, k in lengths.items()} | {"coeff": _coeffs})
    return argv, draw(_mostly(st.lists(term, min_size=1, max_size=3),
                              _json_values))


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(request=_requests())
def test_fuzzed_input_exits_0_or_2_with_one_error_line(request):
    argv, elem = request
    text = json.dumps(elem)
    out, err = io.StringIO(), io.StringIO()
    with mock.patch("sys.stdin", io.StringIO(text)), \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    if code == 0:
        assert err.getvalue() == ""
        json.loads(out.getvalue())
    else:
        assert code == 2
        assert out.getvalue() == ""
        lines = err.getvalue().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:")


# -- the printed bytes -------------------------------------------------------

def as_json_dumps(text):
    """text as json.dumps(indent=2, sort_keys=True) prints it, newline
    included: the byte-for-byte contract of a JSON report."""
    return json.dumps(json.loads(text), indent=2, sort_keys=True) + "\n"


def call(argv, stdin=""):
    """(exit code, stdout, stderr) of one main call."""
    out, err = io.StringIO(), io.StringIO()
    with mock.patch("sys.stdin", io.StringIO(stdin)), \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


@pytest.fixture(scope="module")
def make_stream():
    """perfbench/workloads.make_stream, imported without writing bytecode
    under perfbench/."""
    bench = str(pathlib.Path(__file__).resolve().parents[1] / "perfbench")
    saved = sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    sys.path.insert(0, bench)
    try:
        from workloads import make_stream
    finally:
        sys.path.remove(bench)
        sys.dont_write_bytecode = saved
    return make_stream


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_stream_reports_are_the_bytes_of_json_dumps(seed, make_stream):
    printed = 0
    for req in make_stream(seed):
        code, out, err = call(req.argv, req.payload)
        if code == 0:
            assert out == as_json_dumps(out), req.argv
            printed += 1
        else:  # a malformed request prints one error line and no report
            assert out == "" and err.startswith("error:")
    assert printed > 350


@pytest.mark.parametrize("argv", [
    ["verify", "bijection"],
    ["dims", "--n", "2", "--r", "1", "--s", "1"],
    ["tableaux", "--n", "3", "--m", "3"],
    ["tableaux", "--rational", "--n", "2", "--r", "2", "--s", "1"],
    ["basis", "ord", "--n", "2", "--m", "3"],
    ["basis", "mixed", "--n", "2", "--r", "1", "--s", "1"],
])
def test_reports_are_the_bytes_of_json_dumps(argv, tmp_path):
    code, out, err = call(argv)
    assert (code, err) == (0, "")
    assert out == as_json_dumps(out)
    path = tmp_path / "report.json"
    assert call(argv + ["--output", str(path)]) == (0, "", "")
    # the same bytes, but for the wall time of each run
    assert re.sub(rb'"elapsed_ms": \d+', b"", path.read_bytes()) == \
        re.sub(rb'"elapsed_ms": \d+', b"", out.encode())


def test_a_null_prints_as_json_dumps_prints_it(monkeypatch):
    def unmet(lower, upper):
        raise AssertionError("uncertified: 9 <= dim <= 10")
    monkeypatch.setattr(tn, "squeeze", unmet)
    code, out, err = call(["dims", "--n", "2", "--r", "1", "--s", "1"])
    assert (code, err) == (1, "")
    assert '"commutant_dim": null,' in out
    assert out == as_json_dumps(out)


@pytest.mark.parametrize("value, name", [
    (0.5, "float"), ((1, 2), "tuple"), ({1: "x"}, "int"), (b"x", "bytes")])
def test_a_report_of_another_type_is_an_internal_fault(value, name,
                                                       monkeypatch,
                                                       tmp_path):
    # reports hold dicts with str keys, lists, str, int, bool and None only
    monkeypatch.setattr(tn, "verify_schur_weyl",
                        lambda n, r, s: {"ok": True, "value": [value]})
    argv = ["dims", "--n", "2", "--r", "1", "--s", "1"]
    code, out, err = call(argv)
    assert (code, out) == (1, "")
    assert err.startswith("error: internal fault: TypeError: ")
    assert name in err and err.count("\n") == 1
    path = tmp_path / "report.json"
    assert call(argv + ["--output", str(path)]) == (1, "", err)
    assert not path.exists()  # nothing half written


# strings and keys with non-ASCII, control, quote and backslash characters
_tricky_text = st.text(st.sampled_from('"\\/\n\t\x00\x1f\x7fé€ \ud800𝄞')
                       | st.characters(), max_size=5)

_report_values = st.recursive(
    st.none() | st.booleans() | st.integers() | _tricky_text
    | st.integers(max_value=-2 ** 64) | st.just([]) | st.just({}),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(_tricky_text, inner, max_size=4),
    max_leaves=20)


@settings(max_examples=300, deadline=None)
@given(value=_report_values)
def test_emit_writes_what_json_dumps_writes(value):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        cli._emit(value, argparse.Namespace(format="json", output=None))
    assert out.getvalue() == json.dumps(value, indent=2,
                                        sort_keys=True) + "\n"
