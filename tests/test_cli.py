"""The command-line surface: subcommands, formats, exit codes."""

import contextlib
import io
import json
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from qschur.cli import main, suite_registry
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
    assert suite_registry() == EXPECTED_SUITES
    assert "schur-weyl" in suite_registry()


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


def test_unknown_suite_exits_2(capsys):
    assert main(["verify", "nosuchsuite"]) == 2


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
    # the parser is built once and reused; --suite values must not leak
    # from one call into the next
    for _ in range(2):
        code, out = run(capsys, "verify", "--suite", "centrality",
                        "--n", "2")
        assert code == 0
        assert [rep["suite"] for rep in json.loads(out)["suites"]] == \
            ["centrality"]


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
])
def test_malformed_input_exits_2(argv, elem, monkeypatch, capsys):
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(elem)))
    assert main(argv + ["--input", "-"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error:")


# -- fuzzed straighten/iota input ------------------------------------------

_json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 5) | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=8)


def _mostly(good, *bad):
    """good fifteen times in sixteen, else one of bad."""
    return st.integers(0, 15).flatmap(
        lambda k: good if k else st.one_of(*bad))


# mostly well-formed terms, so that the straightening itself runs too
def _letters(n):
    return _mostly(st.lists(st.integers(1, n), min_size=2, max_size=2),
                   st.lists(st.integers(0, n + 2), min_size=2, max_size=2),
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
