"""End-to-end acceptance checks.

Each test covers one headline claim of the package and prints a single
PASS/FAIL line.  They exercise the library directly (the command-line caps
do not apply here) and together they certify the full desk-scale story:
dimension agreement, the kernel and inverse of the embedding, the worked
correspondences, every relation suite, and integrality of all expansions.
"""

from math import comb

from qschur import cli
from qschur.laurent import LaurentPoly, ONE, quantum_integer
from qschur.linalg import Echelon
from qschur import mixed as mx
from qschur import qmatrix as qm
from qschur import tableaux as tb
from qschur import tensor as tn


def _report(num, desc, ok):
    print(f"criterion {num} ({desc}): {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {num} failed: {desc}"


def _all_ok(cases):
    return bool(cases) and all(c["ok"] for c in cases)


def test_criterion_01_four_way_dimension_agreement():
    ok = True
    for n, r, s in ((2, 1, 1), (2, 2, 1), (2, 1, 2), (3, 1, 1)):
        rep = tn.verify_schur_weyl(n, r, s)
        if not rep["ok"]:
            ok = False
        if (n, r, s) == (2, 1, 1) and rep["commutant_dim"] != 10:
            ok = False
    _report(1, "commutant = image = tableau count = quotient dim", ok)


def test_criterion_02_ordinary_dimensions():
    ok = True
    for n in (2, 3):
        for m in (1, 2, 3, 4):
            expected = comb(n * n + m - 1, m)
            pairs = qm.standard_bitableaux(n, m)
            if len(pairs) != expected:
                ok = False
            ech = Echelon()
            for t, t2 in pairs:
                ech.insert(dict(qm.bideterminant(t, t2).terms))
            if ech.rank != expected:
                ok = False
            keys = tn.ordinary_basis(n, m)
            hecke = [tn.hecke_generator(n, m, i) for i in range(1, m)]
            gens = [tn.ugen_ordinary(n, m, g)
                    for g in tn.uprime_generators(n, m)]
            dim = tn.certified_image_dim(gens, keys, hecke)
            if dim != expected:
                ok = False
    _report(2, "ordinary basis count = rank = image dimension", ok)


def test_criterion_03_iota_kernel():
    ok = _all_ok(cli.suite_kernel_y())
    _report(3, "iota kills the relation span and nothing else", ok)


def test_criterion_04_jacobi():
    ok = _all_ok(cli.suite_jacobi([{"n": n} for n in (2, 3, 4)]))
    _report(4, "complementary-minor identity for every starred minor", ok)


def test_criterion_05_basis_image_and_inverse():
    ok = _all_ok(cli.suite_phi_iota())
    for n in (2, 3):
        for r in range(3):
            for s in range(3):
                if r + s == 0:
                    continue
                for k, rt, rt2 in mx.standard_rational_bitableaux(n, r, s):
                    c = mx.c_exponent(rt, rt2)
                    if not isinstance(c, int):
                        ok = False
    _report(5, "iota sends basis elements to signed q-power multiples "
               "of standard bideterminants and phi inverts it", ok)


def test_criterion_06_worked_bijection():
    rt = tb.RationalTableau(tb.Tableau(((1, 3), (2,))),
                            tb.Tableau(((3, 4), (3, 5))))
    ok = tb.is_standard_rational(rt, 5)
    t = tb.rational_to_ordinary(rt, 5, 5)
    ok = ok and t.shape == (5, 5, 5, 3, 3, 2, 1)
    ok = ok and tb.weight(t.entries(), 5) == (6, 6, 4, 4, 4)
    ok = ok and tb.ordinary_to_rational(t, 5, 5) == rt
    ok = ok and _all_ok(cli.suite_bijection())
    _report(6, "rational/ordinary tableau correspondence round-trips", ok)


def test_criterion_07_relation_suites():
    ok = _all_ok(cli.suite_hecke_relations())
    ok = ok and _all_ok(cli.suite_walled_relations())
    E, _, _ = tn.walled_generators(4, 1, 1)
    ok = ok and E.then(E) == E.scale(quantum_integer(4))
    ok = ok and _all_ok(cli.suite_centrality())
    ok = ok and _all_ok(cli.suite_laplace([{"n": n} for n in (2, 3, 4)]))
    ok = ok and _all_ok(cli.suite_detk())
    ok = ok and _all_ok(cli.suite_straightening_lemmas())
    _report(7, "Hecke, walled, centrality, Laplace, sandwich and "
               "straightening-lemma relation suites", ok)


def test_criterion_08_bicommutation_and_kappa():
    ok = _all_ok(cli.suite_bicommute())
    ok = ok and _all_ok(cli.suite_kappa_equivariance())
    _report(8, "walled and quantum-group actions commute; kappa is "
               "equivariant", ok)


def test_criterion_09_unit_denominators():
    ok = _all_ok(cli.suite_rational_basis())
    for n, r, s in ((2, 1, 1), (2, 2, 1), (2, 1, 2), (3, 1, 1)):
        for word in mx.quotient(n, r, s).words:
            elem = mx.MixedElem({word: ONE}, normalized=True)
            try:
                expansion = mx.rational_straighten(elem, n, r, s)
            except AssertionError:
                ok = False
                continue
            ok = ok and all(isinstance(c, LaurentPoly)
                            for c in expansion.values())
    _report(9, "all rational straightening coefficients are Laurent "
               "polynomials", ok)


def test_criterion_10_weight_projectors():
    ok = _all_ok(cli.suite_weight_projectors())
    _report(10, "weight projectors act as claimed and lie in the image", ok)
