"""The mixed coefficient algebra, iota, rational straightening, phi."""

import functools
import itertools
import json
import random

import pytest

from qschur import cli, mixed, qmatrix
from qschur.laurent import LaurentPoly, ONE, neg_q_log, neg_q_power
from qschur.linalg import Echelon, accumulate
from qschur.mixed import (MixedElem, c_exponent, check_detk,
                          check_straightening_shift,
                          check_straightening_vanishing,
                          cross_relation_generators, det_frak,
                          det_ideal_checker, iota,
                          iota_starred_letter, jacobi_check, mixed_multiply,
                          phi, quotient, rational_bideterminant,
                          rational_basis, rational_straighten,
                          standard_rational_bitableaux,
                          violating_instance_data)
from qschur.qmatrix import (AlgebraElem, bideterminant, monomial_basis,
                            multiply, quantum_det, standard_bitableaux)
from qschur.tableaux import (Tableau, enumerate_standard_rational,
                             rational_to_ordinary, weight)


def test_mixed_halves_commute_against_plain_model():
    # the plain half of a product is normalized independently of the
    # starred half: x*_{ij} x_{kl} and x_{kl} x*_{ij} agree
    a = MixedElem.plain_gen(2, 1)
    b = MixedElem.starred_gen(1, 2)
    assert mixed_multiply(a, b) == mixed_multiply(b, a)


def test_quotient_dimensions_match_bitableau_counts():
    expected = {(2, 1, 1): 10, (2, 2, 1): 20, (2, 1, 2): 20, (2, 2, 2): 35,
                (3, 1, 1): 65}
    for (n, r, s), dim in expected.items():
        assert quotient(n, r, s).dimension() == dim
        assert len(standard_rational_bitableaux(n, r, s)) == dim


def test_relation_generators_map_to_zero_in_quotient():
    for n in (2, 3):
        for r, s in ((1, 1), (2, 1), (1, 2)):
            quot = quotient(n, r, s)
            for g in cross_relation_generators(n, r, s):
                assert quot.is_coset_zero(g)


def test_iota_kills_relation_span():
    for n in (2, 3):
        for r, s in ((1, 1), (2, 1), (1, 2), (2, 2)):
            for g in cross_relation_generators(n, r, s):
                assert iota(g, n).is_zero()


def test_iota_rank_equals_quotient_dimension():
    for n in (2, 3):
        for r, s in ((1, 1), (2, 1), (1, 2)):
            quot = quotient(n, r, s)
            ech = Echelon()
            for word in quot.words:
                img = iota(MixedElem({word: ONE}, normalized=True), n)
                if not img.is_zero():
                    ech.insert(dict(img.terms))
            assert ech.rank == quot.dimension()


def test_iota_letter_anchor():
    # n=2: iota(x*_11) = (2|2), iota(x*_12) = -q (2|1)
    assert iota_starred_letter(1, 1, 2) == AlgebraElem.generator(2, 2)
    assert iota_starred_letter(1, 2, 2) == \
        AlgebraElem.generator(2, 1).scale(LaurentPoly.q(1, -1))


def test_iota_is_multiplicative():
    n = 2
    a = MixedElem.plain_gen(1, 2)
    b = MixedElem.starred_gen(2, 1)
    assert iota(mixed_multiply(a, b), n) == \
        multiply(iota(a, n), iota(b, n))


def test_det_frak_maps_to_det_power():
    for n in (2, 3):
        det = quantum_det(n)
        power = AlgebraElem.one()
        for k in range(1, 3):
            power = multiply(power, det)
            assert iota(det_frak(k, n), n) == power


def test_jacobi_all_minors_small():
    for n in (2, 3):
        idx = list(range(1, n + 1))
        for l in range(0, n + 1):
            for rows in itertools.combinations(idx, l):
                for cols in itertools.combinations(idx, l):
                    exp, crows, ccols = jacobi_check(list(rows),
                                                     list(cols), n)
                    assert exp == sum(cols) - sum(rows)
                    assert len(crows) == n - l


def test_detk_congruences():
    assert check_detk(2)
    assert check_detk(3)


def former_check_detk(n, k):
    """The former check (test oracle): the sandwich pairs around dfrak^(k)
    built by hand, the off-diagonal ones zero and the diagonal ones
    congruent to each other."""
    d = mixed.det_frak(k, n)
    quot = quotient(n, k + 1, k + 1)

    def sandwich_pair(row_side, i, j, weight_exp):
        terms = {}
        for (pw, sw), c in d.terms.items():
            for l in range(1, n + 1):
                lp = (i, l) if row_side else (l, i)
                ls = (j, l) if row_side else (l, j)
                accumulate(terms, [(((lp,) + pw, sw + (ls,)),
                                    LaurentPoly.q(weight_exp(l)))], c)
        return MixedElem(terms)

    pairs = [(i, j) for i in range(1, n + 1) for j in range(1, n + 1)
             if i != j]
    if not all(quot.is_coset_zero(sandwich_pair(True, i, j, lambda l: 0))
               and quot.is_coset_zero(
                   sandwich_pair(False, i, j, lambda l: 2 * l))
               for i, j in pairs):
        return False
    diag = [sandwich_pair(False, i, i, lambda l, i=i: 2 * l - 2 * i)
            for i in range(1, n + 1)]
    diag += [sandwich_pair(True, j, j, lambda l: 0) for j in range(1, n + 1)]
    return all(quot.is_coset_zero(diag[0] - other) for other in diag[1:])


@pytest.mark.parametrize("middle", [
    None,
    MixedElem({(((1, 2),), ((1, 2),)): ONE}),
    MixedElem({(((1, 1),), ((2, 2),)): ONE}),
    MixedElem({(((1, 1),), ((1, 1),)): ONE})],
    ids=["dfrak", "x12-x*12", "x11-x*22", "x11-x*11"])
@pytest.mark.parametrize("n", [2, 3])
def test_detk_check_matches_the_former_sandwich_check(n, middle,
                                                      monkeypatch):
    # the (11) cores give every colsum_i - rowsum_j, which span the same
    # differences as the former diagonal comparison
    if middle is not None:
        monkeypatch.setattr(mixed, "det_frak", lambda k, n: middle)
    want = middle is None
    assert check_detk(n) is want
    assert former_check_detk(n, 1) is want


def former_sandwiches(cores, n, r, s):
    """The former route (test oracle): each h1 * core * h3 as two products
    of one-term elements, normalized after each."""
    for pw in monomial_basis(n, r - 1):
        h1 = MixedElem({(pw, ()): ONE}, normalized=True)
        for sw in monomial_basis(n, s - 1):
            h3 = MixedElem({((), sw): ONE}, normalized=True)
            for core in cores:
                yield mixed_multiply(mixed_multiply(h1, core), h3)


@pytest.mark.parametrize("r, s", [(1, 1), (1, 2), (2, 1), (2, 2)])
@pytest.mark.parametrize("n", [2, 3])
def test_sandwiches_match_the_former_two_products(n, r, s):
    # the relation cores build Y; dfrak^(1) is DetIdealChecker's middle
    for cores in (mixed.cross_relation_cores(n), [det_frak(1, n)]):
        assert list(mixed._sandwiches(cores, n, r, s)) == \
            list(former_sandwiches(cores, n, r, s))


def test_rational_straighten_unit_denominators():
    for n, r, s in ((2, 1, 1), (2, 2, 1), (2, 1, 2), (3, 1, 1)):
        for word in quotient(n, r, s).words:
            elem = MixedElem({word: ONE}, normalized=True)
            expansion = rational_straighten(elem, n, r, s)
            for coeff in expansion.values():
                assert isinstance(coeff, LaurentPoly)


def test_rational_basis_rejects_a_dependent_bideterminant(monkeypatch):
    real = mixed.standard_rational_bitableaux
    monkeypatch.setattr(mixed, "standard_rational_bitableaux",
                        lambda n, r, s: real(n, r, s) + real(n, r, s)[-1:])
    with pytest.raises(AssertionError):
        mixed._RationalBasis(2, 1, 1)


@pytest.mark.parametrize("n, r, s", [(2, 2, 2), (3, 1, 2), (3, 2, 1)])
def test_rational_basis_builds_each_right_factor_once(n, r, s, monkeypatch):
    calls = []
    real = mixed.rational_right_factor

    def recording(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(mixed, "rational_right_factor", recording)
    bitableaux = standard_rational_bitableaux(n, r, s)
    assert mixed._RationalBasis(n, r, s).index == bitableaux
    want = {(k, rt.right, rt2.right, n) for k, rt, rt2 in bitableaux}
    assert len(calls) == len(want) < len(bitableaux)
    assert set(calls) == want


@functools.cache
def basis_index(n, r, s):
    """The index of rational_basis(n, r, s), built once per point here:
    src/ does not cache it."""
    return frozenset(rational_basis(n, r, s).index)


def reconstructs(expansion, a, n, r, s):
    """The expansion sums its standard rational bideterminants back to a
    modulo Y.  rational_basis(n, r, s) building certifies that those
    bideterminants are independent mod Y, so this pins the expansion."""
    assert set(expansion) <= basis_index(n, r, s)
    total = {w: -c for w, c in a.terms.items()}
    for (k, rt, rt2), c in expansion.items():
        accumulate(total, rational_bideterminant(rt, rt2, k, n).terms.items(),
                   c)
    return quotient(n, r, s).is_coset_zero(MixedElem(total, normalized=True))


# (2, 3, 3) is left out: its quotient takes minutes to build
IOTA_ROUTE_POINTS = ([(2, r, s) for r in range(4) for s in range(4)
                      if r + s and (r, s) != (3, 3)]
                     + [(3, r, s) for r in range(4) for s in range(4)
                        if 1 <= r + s <= 3])


@pytest.mark.parametrize("n, r, s", IOTA_ROUTE_POINTS)
def test_rational_straighten_matches_the_basis_route(n, r, s):
    quot = quotient(n, r, s)
    words = quot.words
    for word in words:
        elem = MixedElem({word: ONE}, normalized=True)
        assert reconstructs(rational_straighten(elem, n, r, s), elem, n, r, s)
    rng = random.Random(f"{n}{r}{s}")
    for _ in range(3):
        elem = MixedElem({w: LaurentPoly({rng.randint(-2, 2):
                                          rng.choice((-2, -1, 1, 3))})
                          for w in rng.sample(words, min(5, len(words)))})
        expansion = rational_straighten(elem, n, r, s)
        assert reconstructs(expansion, elem, n, r, s)
        assert all(isinstance(c, LaurentPoly) for c in expansion.values())
        assert quot.is_coset_zero(phi(iota(elem, n), n, r, s) - elem)


def test_rational_straighten_rejects_another_bidegree():
    # for n = 2 the iota images of bidegrees (2, 0) and (1, 1) both have
    # degree 2, so only the bidegree check tells them apart
    elem = MixedElem({(((1, 1), (2, 2)), ()): ONE}, normalized=True)
    with pytest.raises(AssertionError):
        rational_straighten(elem, 2, 1, 1)


def test_a_shape_outside_the_rational_condition(monkeypatch):
    # for n = 3, s = 1 the shape (1, 1) fails sum(lam[:1]) >= 2: phi drops
    # that bideterminant, rational_straighten raises on it
    t = Tableau(((1,), (2,)))
    img = bideterminant(t, t)
    assert phi(img, 3, 0, 1).is_zero()
    monkeypatch.setattr(mixed, "iota", lambda a, n: img)
    with pytest.raises(AssertionError):
        rational_straighten(MixedElem.starred_gen(1, 1), 3, 0, 1)


def test_c_exponent_form():
    # every standard rational bideterminant has an integer c; the oracles
    # below check iota(b) = (-q)^c (t|t')
    for n, r, s in ((2, 1, 1), (2, 2, 1), (3, 1, 1)):
        for k, rt, rt2 in standard_rational_bitableaux(n, r, s):
            c = c_exponent(rt, rt2)
            assert isinstance(c, int)


RATIONAL_BASIS_POINTS = [(n, r, s) for n in (2, 3) for r in range(3)
                         for s in range(3) if r + s]


def test_rational_basis_expansion_is_identity_on_basis():
    # the straightening route, the oracle of the phi-iota suite's
    # normal-form comparison: each b straightens to the single term 1 on b
    for n, r, s in RATIONAL_BASIS_POINTS + [(4, 1, 1)]:
        for k, rt, rt2 in standard_rational_bitableaux(n, r, s):
            b = rational_bideterminant(rt, rt2, k, n)
            assert rational_straighten(b, n, r, s) == {(k, rt, rt2): ONE}


def c_by_unit_word(rt, rt2, k, n, s):
    """The former route to c, without straightening: build (t|t'), read c
    at a word whose coefficient in (t|t') is a unit, and compare the
    normal forms of iota(b) and (-q)^c (t|t')."""
    img = iota(rational_bideterminant(rt, rt2, k, n), n)
    bidet = bideterminant(rational_to_ordinary(rt, n, s),
                          rational_to_ordinary(rt2, n, s))
    w = next(w for w, c in bidet.terms.items() if c.is_unit())
    sign, e = bidet.terms[w].unit_decompose()
    c = neg_q_log(img.terms.get(w, LaurentPoly.zero())
                  * LaurentPoly.q(-e, sign))
    assert c is not None
    assert img == bidet.scale(neg_q_power(c))
    return c


@pytest.mark.parametrize("n, r, s", RATIONAL_BASIS_POINTS)
def test_c_exponent_matches_the_straightened_image(n, r, s):
    # c_exponent is the closed form; the oracle is the unit-word route,
    # which builds (t|t') and compares normal forms
    for k, rt, rt2 in standard_rational_bitableaux(n, r, s):
        assert c_exponent(rt, rt2) == c_by_unit_word(rt, rt2, k, n, s)


def phi_iota_fails(n=2, r=1, s=1):
    """Whether the phi-iota suite fails a case at (n, r, s)."""
    cases = cli.suite_phi_iota([{"n": n, "r": r, "s": s}])
    return any(not case["ok"] for case in cases)


# the phi-iota suite compares the normal forms of iota(m) and
# (-q)^c (t_R|t_R') for each right factor m, with c from c_exponent;
# (2, 3, 3) runs in test_cli
@pytest.mark.parametrize("n, r, s", [(3, 2, 2), (3, 3, 1), (4, 1, 1),
                                     (4, 2, 1)])
def test_c_exponent_matches_the_straightening_off_the_suite_grid(n, r, s):
    assert not phi_iota_fails(n, r, s)


def phi_iota_per_element(n, r, s):
    """The former phi-iota case at (n, r, s): for every (k, rt, rt2), b
    built as ((L|L') dfrak^(k)) (R|R')*, and the normal forms of iota(b)
    and (-q)^c (t|t') compared, with no factoring through (k, R, R')."""
    bitableaux = standard_rational_bitableaux(n, r, s)
    ok = True
    for k, rt, rt2 in bitableaux:
        left = MixedElem.from_plain(bideterminant(rt.left, rt2.left))
        right = MixedElem.from_starred(bideterminant(rt.right, rt2.right,
                                                     qexp=-1))
        b = mixed_multiply(mixed_multiply(left, det_frak(k, n)), right)
        bidet = bideterminant(rational_to_ordinary(rt, n, s),
                              rational_to_ordinary(rt2, n, s))
        if iota(b, n) != bidet.scale(neg_q_power(c_exponent(rt, rt2))):
            ok = False
    return [{"n": n, "r": r, "s": s, "basis_elements": len(bitableaux),
             "ok": ok}]


@pytest.mark.parametrize("n, r, s", RATIONAL_BASIS_POINTS + [
    (3, 2, 2), (3, 3, 1), (4, 1, 1), (4, 2, 1)])
def test_phi_iota_by_right_factors_matches_the_per_element_route(n, r, s):
    # the suite compares iota once per right factor dfrak^(k) (R|R')*; the
    # oracle compares iota(b) with (-q)^c (t|t') for every b
    assert cli.suite_phi_iota([{"n": n, "r": r, "s": s}]) == \
        phi_iota_per_element(n, r, s)


def test_a_corrupted_right_factor_fails_its_point_only(monkeypatch):
    # (k, R, R') = (1, [2], [3]) has bidegree (1, 2): among the points run,
    # only (3, 2, 2) has a rational bideterminant over it
    n = 3
    right, right2 = Tableau(((2,),)), Tableau(((3,),))
    target = mixed.rational_right_factor(1, right, right2, n)
    real = mixed.iota
    seen = []

    def iota_off_by_minus_q(a, n_):
        if n_ == n and a == target:
            seen.append(a)
            return real(a, n_).scale(neg_q_power(1))
        return real(a, n_)
    monkeypatch.setattr(mixed, "iota", iota_off_by_minus_q)
    points = [(2, 2, 2), (3, 1, 1), (3, 2, 1), (3, 2, 2), (3, 1, 0)]
    cases = cli.suite_phi_iota([{"n": n_, "r": r, "s": s}
                                for n_, r, s in points])
    assert len(seen) == 1
    assert [(c["n"], c["r"], c["s"]) for c in cases if not c["ok"]] == \
        [(3, 2, 2)]
    assert all("error" not in c for c in cases)


def test_a_misordered_tableau_fails_the_row_check(monkeypatch):
    # a rational_to_ordinary that reverses the complement rows of a tableau
    # with a left half (where that keeps a shape) leaves every right factor
    # intact, so only the per-element row check can fail the case
    n, r, s = 3, 2, 2
    assert not phi_iota_fails(n, r, s)
    real = cli.tb.rational_to_ordinary
    changed = []

    def reversed_complements(rt, n_, s_):
        t = real(rt, n_, s_)
        split = len(t.rows) - len(rt.left.rows)
        comp = t.rows[:split]
        if not rt.left.rows or len({len(row) for row in comp}) != 1 or \
                comp == comp[::-1]:
            return t
        changed.append(rt)
        return Tableau(comp[::-1] + t.rows[split:])
    monkeypatch.setattr(cli.tb, "rational_to_ordinary", reversed_complements)
    cases = cli.suite_phi_iota([{"n": n, "r": r, "s": s}])
    assert changed
    assert cases == [{"n": n, "r": r, "s": s, "basis_elements": 994,
                      "ok": False}]


def test_phi_iota_takes_iota_once_per_right_factor(monkeypatch):
    # at (3, 2, 2): 994 rational bideterminants over 55 right factors
    # (k, R, R').  Only the right factor with k = r has an empty left half,
    # so only its (t_R|t_R') is a whole (t|t') of degree r + (n-1)s = 6;
    # the per-element route took 994 iota images and built 994 of these
    n, r, s = 3, 2, 2
    iotas, degrees = [], []
    real_iota, real_bidet = mixed.iota, qmatrix.bideterminant

    def iota_counted(a, n_):
        iotas.append(a)
        return real_iota(a, n_)

    def bideterminant_counted(t, t2, qexp=1):
        degrees.append(t.size())
        return real_bidet(t, t2, qexp)
    monkeypatch.setattr(mixed, "iota", iota_counted)
    monkeypatch.setattr(qmatrix, "bideterminant", bideterminant_counted)
    assert not phi_iota_fails(n, r, s)
    assert len(iotas) == 55
    assert len(degrees) == 55
    assert degrees.count(r + (n - 1) * s) == 1


def drop_term(img, pos):
    words = sorted(img.terms)
    return AlgebraElem({w: img.terms[w] for w in words if w != words[pos]},
                       normalized=True)


@pytest.mark.parametrize("corrupt", [
    lambda img: img.scale(2),
    lambda img: img.scale(-1),
    lambda img: img.scale(LaurentPoly.q(1) + LaurentPoly.q(-1)),
    lambda img: img + multiply(AlgebraElem.generator(2, 2),
                               AlgebraElem.generator(1, 1)),
    lambda img: drop_term(img, 0),
    lambda img: drop_term(img, -1)],
    ids=["doubled", "negated", "times-q+q^-1", "extra-term", "first-dropped",
         "last-dropped"])
def test_c_exponent_rejects_a_corrupted_image(corrupt, monkeypatch):
    # the phi-iota suite certifies iota(b) = (-q)^c (t|t') for c_exponent
    # through the iota images of the right factors, which are corrupted here
    assert not phi_iota_fails()
    real = mixed.iota
    monkeypatch.setattr(mixed, "iota", lambda a, n: corrupt(real(a, n)))
    assert phi_iota_fails()


@pytest.mark.parametrize("beside", [False, True],
                         ids=["alone", "beside-the-image"])
def test_c_exponent_rejects_another_pair_of_the_same_content(beside,
                                                             monkeypatch):
    # (-q)^c (u|u') for another standard pair of the content of (t, t'),
    # in place of every iota image of a right factor or added to it: the
    # comparison with (-q)^c (t_R|t_R') fails either way
    n, r, s = 2, 1, 1

    def content(pair):
        return [weight(t.entries(), n) for t in pair]

    for k, rt, rt2 in standard_rational_bitableaux(n, r, s):
        pair = (rational_to_ordinary(rt, n, s),
                rational_to_ordinary(rt2, n, s))
        others = [other for other in standard_bitableaux(n, r + (n - 1) * s)
                  if other != pair and content(other) == content(pair)]
        if others:
            break
    wrong = bideterminant(*others[0]).scale(neg_q_power(c_exponent(rt, rt2)))
    real = mixed.iota
    monkeypatch.setattr(mixed, "iota", lambda a, n: wrong + real(a, n)
                        if beside else wrong)
    assert phi_iota_fails(n, r, s)


def test_a_warm_c_exponent_builds_no_bideterminant(monkeypatch):
    # the closed form straightens nothing and builds nothing
    n, r, s = 2, 2, 1
    k, rt, rt2 = standard_rational_bitableaux(n, r, s)[-1]
    c = c_by_unit_word(rt, rt2, k, n, s)
    calls = []
    for module in (qmatrix, mixed):
        for name in ("straighten", "iota", "bideterminant"):
            if hasattr(module, name):
                def counted(*args, real=getattr(module, name), **kwargs):
                    calls.append(args)
                    return real(*args, **kwargs)
                monkeypatch.setattr(module, name, counted)
    assert c_exponent(rt, rt2) == c
    assert calls == []


def test_phi_inverts_iota_on_basis():
    for n, r, s in ((2, 1, 1), (2, 1, 2), (2, 2, 1), (3, 1, 1)):
        quot = quotient(n, r, s)
        for k, rt, rt2 in standard_rational_bitableaux(n, r, s):
            b = rational_bideterminant(rt, rt2, k, n)
            rep = phi(iota(b, n), n, r, s)
            assert all(len(pw) == r and len(sw) == s for pw, sw in rep.terms)
            assert quot.is_coset_zero(rep - b)


def test_phi_kills_nothing_extra():
    # phi composed with iota is the identity on arbitrary cosets too
    n, r, s = 2, 1, 1
    quot = quotient(n, r, s)
    total = MixedElem.zero()
    for word in quot.words:
        total = total + MixedElem({word: ONE}, normalized=True)
    assert quot.is_coset_zero(phi(iota(total, n), n, r, s) - total)


def raw_span(gens):
    """One Echelon over the raw terms of gens: no grading, no quotient."""
    ech = Echelon()
    for g in gens:
        ech.insert(g.terms)
    return ech


def raw_congruent_zero(n, r, s):
    """DetIdealChecker.congruent_zero by the raw-span route: membership in
    the span of the relation generators and the sandwiched dfrak^(1)."""
    sandwiched = [mixed_multiply(mixed_multiply(
        MixedElem({(pw, ()): ONE}, normalized=True), det_frak(1, n)),
        MixedElem({((), sw): ONE}, normalized=True))
        for pw in monomial_basis(n, r - 1) for sw in monomial_basis(n, s - 1)]
    ech = raw_span(cross_relation_generators(n, r, s) + sandwiched)
    return lambda a: ech.contains(a.terms)


@pytest.mark.parametrize("n, r, s", [(2, 1, 1), (3, 1, 1)])
def test_congruent_zero_matches_the_raw_span(n, r, s):
    checker = det_ideal_checker(n, r, s)
    oracle = raw_congruent_zero(n, r, s)
    words = quotient(n, r, s).words
    gens = cross_relation_generators(n, r, s)
    rng = random.Random(f"congruent{n}{r}{s}")

    def laurent():
        return LaurentPoly({rng.randint(-2, 2): rng.choice((-2, -1, 1, 3))})

    verdicts = []
    for _ in range(12):
        # a multiple of dfrak^(1) plus relations lies in the ideal ...
        zero = det_frak(1, n).scale(laurent())
        for g in rng.sample(gens, 3):
            zero = zero + g.scale(laurent())
        # ... and one more word, spread over several grades, mostly not
        other = MixedElem({w: laurent()
                           for w in rng.sample(words, rng.randint(1, 4))})
        for a in (zero, zero + other, other):
            verdicts.append(checker.congruent_zero(a))
            assert verdicts[-1] == oracle(a)
    assert True in verdicts and False in verdicts


def test_quotient_residual_vanishes_with_the_raw_span():
    quot = quotient(2, 2, 1)
    gens = cross_relation_generators(2, 2, 1)
    oracle = raw_span(gens)
    rng = random.Random("residual")
    for g in gens[:10]:
        assert quot.residual(g) == {}
    verdicts = []
    for _ in range(10):
        zero = MixedElem.zero()
        for g in rng.sample(gens, 3):
            zero = zero + g.scale(LaurentPoly.q(rng.randint(-2, 2)))
        other = MixedElem({w: LaurentPoly.q(rng.randint(-2, 2))
                           for w in rng.sample(quot.words, 3)})
        for a in (zero, zero + other, other):
            verdicts.append(quot.is_coset_zero(a))
            assert verdicts[-1] == oracle.contains(a.terms)
    assert True in verdicts and False in verdicts


def content_grade(word, n):
    """(row, column) content difference between the halves; Y-invariant."""
    row, col = [0] * n, [0] * n
    pw, sw = word
    for i, j in pw:
        row[i - 1] += 1
        col[j - 1] += 1
    for i, j in sw:
        row[i - 1] -= 1
        col[j - 1] -= 1
    return tuple(row), tuple(col)


def per_grade_residual(n, r, s):
    """The former MixedQuotient: one Echelon per content grade of the
    relation generators, and residuals reduced grade by grade."""
    blocks = {}
    for g in cross_relation_generators(n, r, s):
        (grade,) = {content_grade(w, n) for w in g.terms}
        blocks.setdefault(grade, Echelon()).insert(g.terms)

    def residual(a):
        parts = {}
        for w, c in a.terms.items():
            parts.setdefault(content_grade(w, n), {})[w] = c
        out = {}
        for grade, vec in parts.items():
            out.update(blocks.get(grade, Echelon()).reduce(vec))
        return out
    return sum(e.rank for e in blocks.values()), residual


@pytest.mark.parametrize("n, r, s", [(2, 2, 2), (3, 2, 1), (3, 1, 2)])
def test_quotient_matches_the_per_grade_build(n, r, s):
    quot = quotient(n, r, s)
    rank, residual = per_grade_residual(n, r, s)
    assert quot.dimension() == len(quot.words) - rank
    homogeneous = cross_relation_generators(n, r, s) + [
        rational_bideterminant(rt, rt2, k, n)
        for k, rt, rt2 in standard_rational_bitableaux(n, r, s)]
    for a in homogeneous:
        assert quot.residual(a) == residual(a)


def test_straightening_shift_instances():
    for n in (2, 3):
        idx = list(range(1, n + 1))
        for k in (1, 2):
            for r_vec in itertools.combinations(idx, k):
                for s_vec in itertools.combinations(idx, k):
                    for j in range(1, n):
                        assert check_straightening_shift(n, r_vec, s_vec,
                                                         j, k)


def test_straightening_vanishing_instances():
    for n in (2, 3):
        idx = list(range(1, n + 1))
        found = 0
        for lr in (1, 2):
            for ls in (1, 2):
                for r_prime in itertools.combinations(idx, lr):
                    for s_prime in itertools.combinations(idx, ls):
                        try:
                            violating_instance_data(n, r_prime, s_prime)
                        except ValueError:
                            continue
                        found += 1
                        for r_vec in itertools.combinations(idx, lr):
                            for s_vec in itertools.combinations(idx, ls):
                                assert check_straightening_vanishing(
                                    n, r_prime, s_prime, r_vec, s_vec)
        assert found > 0


def test_enumeration_matches_pair_structure():
    # pairs are same-shape and same-k; count is the square sum
    n, r, s = 2, 2, 2
    singles = enumerate_standard_rational(n, r, s)
    by_key = {}
    for k, rt in singles:
        by_key.setdefault((k, rt.shapes()), []).append(rt)
    assert sum(len(v) ** 2 for v in by_key.values()) == \
        len(standard_rational_bitableaux(n, r, s))


def read_mixed_element(obj, path):
    """obj, of bidegree (1, 1), written to path and read back by the CLI's
    element reader."""
    path.write_text(json.dumps(obj))
    args = cli.build_parser().parse_args(
        ["straighten", "mixed", "--n", "2", "--r", "1", "--s", "1",
         "--input", str(path)])
    return cli._read_element(args, mixed=True)


def test_mixed_json_roundtrip(tmp_path):
    elem = mixed_multiply(MixedElem.plain_gen(2, 1),
                          MixedElem.starred_gen(1, 2))
    assert read_mixed_element(elem.to_json(), tmp_path / "elem.json") == elem


def test_mixed_from_json_sums_repeated_words(tmp_path):
    term = {"plain": [[1, 2]], "starred": [[2, 1]], "coeff": {"0": "1"}}
    elem = read_mixed_element([term, term], tmp_path / "elem.json")
    assert elem.terms == {(((1, 2),), ((2, 1),)): LaurentPoly.from_int(2)}
