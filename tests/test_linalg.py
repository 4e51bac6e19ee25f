"""Exact linear algebra engines, cross-checked against sympy ranks."""

import itertools
import random

import pytest
import sympy
from sympy.polys.matrices import DomainMatrix
from hypothesis import given, settings
from hypothesis import strategies as st

from qschur import laurent, linalg
from qschur import qmatrix as qm
from qschur.laurent import LaurentPoly, ONE, ZERO
from qschur.linalg import (Echelon, RationalFn, SparseSum, SpanSolver,
                           UnitSolver, accumulate, mat_nullspace)
from qschur import mixed as mx
from qschur.mixed import MixedElem
from qschur.qmatrix import AlgebraElem
from qschur.tensor import Endo

_q = sympy.Symbol("q")


def to_sympy(p):
    return sympy.Add(*[c * _q ** e for e, c in p.terms.items()])


laurents = st.dictionaries(st.integers(-2, 2), st.integers(-5, 5),
                           max_size=3).map(LaurentPoly)


def test_rationalfn_normalization_routes():
    q = LaurentPoly.q(1)
    a = RationalFn(q * q - ONE, q - ONE)          # folds to q + 1
    b = RationalFn(q + ONE)
    assert a == b and a.den.is_one()
    c = RationalFn(ONE, LaurentPoly.q(2, -3))     # unit-content denominator
    d = RationalFn(LaurentPoly.q(-2), LaurentPoly.from_int(-3))
    assert c == d
    assert not RationalFn(ONE, q + ONE).den.is_one()


def test_rationalfn_hash_agrees_with_eq():
    q = LaurentPoly.q(1)
    a = RationalFn((q + 1) * (q + 2), (q + 2) * (q + 3))
    b = RationalFn(q + 1, q + 3)
    assert a == b and hash(a) == hash(b) and len({a, b}) == 1
    assert hash(RationalFn(q * q - ONE, q - ONE)) == hash(RationalFn(q + 1))


def test_accumulate_scales_and_drops_cancelled_entries():
    q = LaurentPoly.q(1)
    acc = {"a": q, "b": ONE}
    out = accumulate(acc, [("a", -ONE), ("b", ONE), ("c", ONE), ("z", ZERO)],
                     q)
    assert out is acc and acc == {"b": ONE + q, "c": q}
    assert accumulate({"a": ONE}, [("a", -ONE)]) == {}


# -- the Laurent kernel against a schoolbook oracle --------------------------

def _schoolbook(a, b):
    """a * b by the double loop, normalized by the LaurentPoly constructor."""
    t = {}
    for e1, c1 in a.terms.items():
        for e2, c2 in b.terms.items():
            t[e1 + e2] = t.get(e1 + e2, 0) + c1 * c2
    return LaurentPoly(t)


def _schoolbook_sum(a, b):
    """a + b by merging the term dicts, normalized by the constructor."""
    t = dict(a.terms)
    for e, c in b.terms.items():
        t[e] = t.get(e, 0) + c
    return LaurentPoly(t)


def _former_accumulate(acc, items, coeff=None):
    """Reference for accumulate: multiply each item, then add it."""
    for k, v in items:
        if coeff is not None:
            v = _schoolbook(coeff, v)
        t = acc.get(k)
        if t is not None:
            v = _schoolbook_sum(t, v)
        if v.is_zero():
            acc.pop(k, None)
        else:
            acc[k] = v
    return acc


_ints = st.integers(-5, 5) | st.integers(-2 ** 80, 2 ** 80)
_polys = st.dictionaries(st.integers(-3, 3), _ints, max_size=3).map(LaurentPoly)
_monomials = st.builds(LaurentPoly.q, st.integers(-3, 3),
                       _ints.filter(bool))
_factors = _monomials | _polys | st.just(ZERO) | st.just(ONE)


@st.composite
def _accumulate_inputs(draw):
    """(acc, items, coeff) over a few keys, with entries that cancel."""
    coeff = draw(st.none() | st.just(ONE) | _monomials | _polys)
    c = ONE if coeff is None else coeff
    keys = st.sampled_from("abcd")
    acc = draw(st.dictionaries(keys, _polys))
    items = draw(st.lists(st.tuples(keys, _polys), max_size=6))
    for k in draw(st.lists(keys, max_size=2)):
        w = draw(_polys)
        if draw(st.booleans()):
            acc[k] = -_schoolbook(c, w)    # item (k, w) cancels the entry
        else:
            items.append((k, -w))          # items (k, w), (k, -w) cancel
        items.append((k, w))
    acc = {k: v for k, v in acc.items() if not v.is_zero()}
    return acc, draw(st.permutations(items)), coeff


@given(_accumulate_inputs())
@settings(max_examples=300, deadline=None)
def test_accumulate_matches_the_former_loop(inputs):
    acc, items, coeff = inputs
    values = list(acc.values()) + [v for _, v in items]
    before = [dict(v.terms) for v in values]
    want = _former_accumulate(dict(acc), items, coeff)
    got = accumulate(acc, items, coeff)
    assert got is acc
    assert list(got) == list(want)      # key order too
    assert all(got[k].terms == want[k].terms and got[k].terms for k in got)
    # Laurent values are shared, never written in place
    assert [v.terms for v in values] == before


@given(_factors, _factors)
@settings(max_examples=300, deadline=None)
def test_laurent_product_matches_the_schoolbook_product(a, b):
    before = dict(a.terms), dict(b.terms)
    assert (a * b).terms == (b * a).terms == _schoolbook(a, b).terms
    assert (a.terms, b.terms) == before


@given(_factors, _factors, _ints)
@settings(max_examples=300, deadline=None)
def test_laurent_sum_and_int_product_match_schoolbook(a, b, k):
    before = dict(a.terms), dict(b.terms)
    neg_b = LaurentPoly({e: -c for e, c in b.terms.items()})
    kk = LaurentPoly.from_int(k)
    assert (a + b).terms == _schoolbook_sum(a, b).terms
    assert (a - b).terms == _schoolbook_sum(a, neg_b).terms
    assert (-a).terms == {e: -c for e, c in a.terms.items()}
    assert (a + k).terms == (k + a).terms == _schoolbook_sum(a, kk).terms
    assert (k * a).terms == (a * k).terms == _schoolbook(kk, a).terms
    assert (a.terms, b.terms) == before


def test_a_monomial_factor_is_the_kernel_coefficient(monkeypatch):
    # the kernel shifts and scales by a monomial coefficient; as an item
    # the monomial would take the general double loop
    seen = []

    def spy(acc, items, coeff=None):
        seen.append(coeff)
        return accumulate(acc, items, coeff)

    monkeypatch.setattr(laurent, "accumulate", spy)
    poly = LaurentPoly({0: 1, 1: 4})
    for mono in (LaurentPoly.q(2, -3), ONE):
        for a, b in ((mono, poly), (poly, mono)):
            seen.clear()
            assert (a * b).terms == _schoolbook(a, b).terms
            assert seen == [mono]


def test_element_classes_share_the_sparse_sum_arithmetic():
    shared = {"zero", "is_zero", "__add__", "__neg__", "__sub__", "scale",
              "__eq__"}
    for cls in (AlgebraElem, MixedElem, Endo):
        assert issubclass(cls, SparseSum)
        assert not shared & set(vars(cls)), cls


def test_rationalfn_field_laws():
    q = LaurentPoly.q(1)
    a = RationalFn(ONE, q + ONE)
    b = RationalFn(q, q - ONE)
    assert (a + b) * (q + ONE) * (q - ONE) == \
        (q - ONE) + q * (q + ONE)
    assert a * a.inverse() == RationalFn.one()
    assert (a / b) * b == a


def _row_dicts(rows):
    """Dense rows of Laurent entries as sparse dicts, zeros dropped."""
    return [{c: v for c, v in enumerate(row) if not v.is_zero()}
            for row in rows]


def _rank(rows):
    ech = Echelon()
    for row in _row_dicts(rows):
        ech.insert(row)
    return ech.rank


@given(st.lists(st.lists(laurents, min_size=4, max_size=4),
                min_size=3, max_size=3))
@settings(max_examples=20, deadline=None)
def test_rank_matches_sympy(rows):
    # sympy's rank over the field Z(q), by its DomainMatrix
    sym = DomainMatrix.from_Matrix(sympy.Matrix(
        [[to_sympy(v) for v in row] for row in rows])).to_field()
    assert _rank(rows) == sym.rank()


@given(st.lists(st.lists(laurents, min_size=4, max_size=4),
                min_size=3, max_size=3))
@settings(max_examples=20, deadline=None)
def test_rank_transpose_invariant(rows):
    assert _rank(rows) == _rank(list(zip(*rows)))


def reduce_over_all_pivots(ech, v):
    """The residual of the former Echelon.reduce loop, which visits every
    pivot in order, under the pivot rule of Echelon: a row whose pivot
    entry is 1 is subtracted as it is, any other pivot entry scales v
    first, and the content is divided out only after a scaling."""
    v = {k: val for k, val in v.items() if not val.is_zero()}
    scaled = False
    for c in ech.pivots:
        coeff = v.get(c)
        if coeff is None:
            continue
        row = ech.pivots[c]
        if row[c].is_one():
            v = accumulate(dict(v), row.items(), -coeff)
        else:
            v = accumulate({k: val * row[c] for k, val in v.items()},
                           row.items(), -coeff)
            scaled = True
        if not v:
            break
    return linalg._strip_content(v) if scaled and v else v


@given(st.lists(st.dictionaries(st.integers(0, 6), laurents, max_size=4),
                max_size=5),
       st.lists(st.dictionaries(st.integers(0, 6), laurents, max_size=5),
                min_size=1, max_size=4))
@settings(max_examples=60, deadline=None)
def test_echelon_reduce_matches_the_all_pivots_loop(rows, vecs):
    ech = Echelon()
    for row in rows:
        ech.insert(row)
    for v in vecs + rows:
        assert ech.reduce(v) == reduce_over_all_pivots(ech, v)


@given(st.lists(st.dictionaries(st.integers(0, 6), laurents, max_size=4),
                max_size=5),
       st.lists(st.dictionaries(st.integers(0, 6), laurents, max_size=5),
                min_size=1, max_size=4))
@settings(max_examples=60, deadline=None)
def test_echelon_residual_matches_reduce(rows, vecs):
    """The residual reduce returns has no pivot column left, is its own
    residual, and is empty exactly when contains holds."""
    ech = Echelon()
    for row in rows:
        ech.insert(row)
    for v in vecs + rows:
        res = ech.reduce(v)
        assert not set(res) & set(ech.pivots)
        assert ech.reduce(res) == res
        assert ech.contains(v) == (not res)


def divided_by_unit_at(v, c):
    """v divided by its entry at c, a unit +-q^k."""
    sign, k = v[c].unit_decompose()
    return {j: val * LaurentPoly.q(-k, sign) for j, val in v.items()}


class FullScanEchelon:
    """The former Echelon.insert, which back-reduces by visiting every
    pivot row, over reduce_over_all_pivots, under the pivot rule of
    Echelon: the lowest unit column of the residual, or of the residual
    with its content divided out, with the row divided by that unit; else
    the fewest terms.  A row whose pivot entry becomes a unit after a
    fraction-free back-reduction is divided by it."""

    def __init__(self):
        self.pivots = {}

    def insert(self, v):
        res = reduce_over_all_pivots(self, v)
        if not res:
            return False
        units = [c for c in res if res[c].is_unit()]
        if not units:
            res = linalg._strip_content(res)
            units = [c for c in res if res[c].is_unit()]
        if units:
            pc = min(units)
            res = divided_by_unit_at(res, pc)
        else:
            pc = min(res, key=lambda c: (res[c].num_terms(), c))
        p = res[pc]
        for c0, row in self.pivots.items():
            coeff = row.get(pc)
            if coeff is None:
                continue
            if p.is_one():
                new = accumulate(dict(row), res.items(), -coeff)
            else:
                new = linalg._strip_content(accumulate(
                    {k: val * p for k, val in row.items()}, res.items(),
                    -coeff))
                if new[c0].is_unit():
                    new = divided_by_unit_at(new, c0)
            self.pivots[c0] = new
        self.pivots[pc] = res
        return True


# sparse rows with nonzero entries, so back-reductions chain
sparse_rows = st.dictionaries(st.integers(0, 4),
                              laurents.filter(lambda p: not p.is_zero()),
                              min_size=1, max_size=3)


@given(st.lists(st.tuples(st.integers(0, 2), sparse_rows), max_size=12))
@settings(max_examples=60, deadline=None)
def test_echelon_insert_matches_the_full_scan(rows):
    """Block-diagonal rows (block b owns the columns (b, j)): after every
    insert the pivot rows, and their order, are those of the full scan,
    and the rows of the other blocks are the same objects as before."""
    ech, oracle = Echelon(), FullScanEchelon()
    for b, row in rows:
        row = {(b, j): v for j, v in row.items()}
        before = dict(ech.pivots)
        assert ech.insert(row) == oracle.insert(row)
        assert list(ech.pivots.items()) == list(oracle.pivots.items())
        assert all(ech.pivots[c] is r for c, r in before.items()
                   if c[0] != b)


def test_echelon_contains_span_members():
    ech = Echelon()
    rows = [{0: ONE, 1: LaurentPoly.q(1)},
            {1: ONE, 2: LaurentPoly.q(-1)}]
    for row in rows:
        ech.insert(dict(row))
    combo = {}
    for row, c in zip(rows, (LaurentPoly.q(2), LaurentPoly.from_int(3))):
        for k, v in row.items():
            combo[k] = combo.get(k, LaurentPoly.zero()) + c * v
    assert ech.contains(combo)
    assert not ech.contains({0: ONE})


def unit_pivots_are_one(ech):
    """Every stored row whose pivot entry is a unit has the shared ONE
    there."""
    return all(row[c] is ONE for c, row in ech.pivots.items()
               if row[c].is_unit())


def test_echelon_mixes_unit_and_non_unit_pivots():
    # (2, 3) has no unit entry, so it keeps the fraction-free step; (1, 1)
    # then reduces to a residual with a unit entry
    rows = [[LaurentPoly.from_int(2), LaurentPoly.from_int(3)], [ONE, ONE]]
    ech = Echelon()
    for row in _row_dicts(rows):
        ech.insert(row)
    assert ech.rank == 2 == sympy.Matrix([[2, 3], [1, 1]]).rank()
    assert unit_pivots_are_one(ech)
    assert ech.contains({0: ONE}) and ech.contains({1: LaurentPoly.q(3, 5)})
    ech = Echelon()
    ech.insert({0: LaurentPoly.from_int(2), 1: LaurentPoly.from_int(3)})
    assert ech.pivots[0][0].terms == {0: 2}
    assert ech.contains({0: LaurentPoly.from_int(4),
                         1: LaurentPoly.from_int(6)})
    assert not ech.contains({0: ONE, 1: ONE})


def test_a_fraction_free_back_reduction_that_leaves_a_unit_makes_it_one():
    # (1, 2q, 0) has pivot ONE; (0, 2q, 1 + q) has no unit entry and pivots
    # on 2q; back-reducing the first row gives (2q, 0, -2q - 2q^2), which is
    # 2q (1, 0, -1 - q) and so is stored with ONE again
    q = LaurentPoly.q(1)
    ech = Echelon()
    ech.insert({0: ONE, 1: 2 * q})
    ech.insert({1: 2 * q, 2: ONE + q})
    assert ech.pivots == {0: {0: ONE, 2: -(ONE + q)},
                          1: {1: 2 * q, 2: ONE + q}}
    assert ech.pivots[0][0] is ONE and unit_pivots_are_one(ech)


# entries that are often units, so that rows mix unit and non-unit pivots
mixed_entries = (laurents | st.builds(LaurentPoly.q, st.integers(-2, 2),
                                      st.sampled_from([1, -1]))
                 | st.builds(LaurentPoly, st.dictionaries(
                     st.integers(-2, 2), st.sampled_from([1, -1, 2]),
                     min_size=1, max_size=2)))


@given(st.lists(st.lists(mixed_entries, min_size=4, max_size=4),
                min_size=1, max_size=4),
       st.lists(mixed_entries, min_size=4, max_size=4),
       st.lists(st.integers(-2, 2), min_size=4, max_size=4))
@settings(max_examples=100, deadline=None)
def test_unit_and_non_unit_pivots_match_sympy(rows, vec, scalars):
    ech = Echelon()
    for row in _row_dicts(rows):
        ech.insert(row)
        assert unit_pivots_are_one(ech)
    # sympy's rank over the field Z(q), by its DomainMatrix
    sym = DomainMatrix.from_Matrix(sympy.Matrix(
        [[to_sympy(v) for v in row] for row in [vec] + rows])).to_field()
    assert ech.rank == sym[1:, :].rank()
    # a Laurent combination of the rows is in the span
    combo = {}
    for row, k in zip(_row_dicts(rows), scalars):
        accumulate(combo, row.items(), LaurentPoly.q(k, k + 3))
    assert ech.contains(combo)
    # and any vector is in it exactly when it does not raise the rank
    assert ech.contains(_row_dicts([vec])[0]) == (sym.rank() == ech.rank)


def test_the_quotient_shares_every_unit_entry():
    # the memory the unit table saves: every unit entry of the pivot rows
    # of an exact quotient is the table's object, and the rows pivoted on
    # a unit hold ONE there
    quot = mx.quotient(3, 2, 2)
    shared = {id(u) for u in laurent._UNITS.values()}
    entries = [x for row in quot.echelon.pivots.values()
               for x in row.values()]
    units = [x for x in entries if x.is_unit()]
    assert len(units) > len(entries) // 2
    assert all(id(x) in shared for x in units)
    assert unit_pivots_are_one(quot.echelon)


@given(st.lists(st.lists(laurents, min_size=4, max_size=4),
                min_size=2, max_size=3))
@settings(max_examples=20, deadline=None)
def test_nullspace_annihilates(rows):
    basis = mat_nullspace(_row_dicts(rows), 4)
    assert len(basis) == 4 - _rank(rows)
    for vec in basis:
        for r, row in enumerate(rows):
            total = RationalFn.zero()
            for j, v in enumerate(row):
                total = total + RationalFn(v) * vec[j]
            assert total.is_zero()


def test_spansolver_skips_dependent_rows():
    solver = SpanSolver()
    assert solver.insert({0: RationalFn.one()})
    assert not solver.insert({0: RationalFn(LaurentPoly.q(3))})
    assert solver.rank == 1
    combo = solver.solve({0: RationalFn(LaurentPoly.q(1))})
    assert set(combo) == {0}
    assert combo[0] == RationalFn(LaurentPoly.q(1))


def test_the_fraction_field_oracle_stays_off_the_laurent_kernel(
        monkeypatch):
    # SpanSolver sums its rows of fractions with its own loop: it never
    # calls linalg.accumulate, and laurent.accumulate, which the Laurent
    # numerators and denominators of RationalFn go through, never gets a
    # fraction
    kernel = laurent.accumulate
    calls = {"linalg": 0, "laurent": 0, "with a fraction": 0}

    def counting(name):
        def spy(acc, items, coeff=None):
            items = list(items)
            calls[name] += 1
            calls["with a fraction"] += any(
                isinstance(x, RationalFn)
                for x in [coeff, *acc.values(), *(v for _, v in items)])
            return kernel(acc, items, coeff)
        return spy

    monkeypatch.setattr(laurent, "accumulate", counting("laurent"))
    monkeypatch.setattr(linalg, "accumulate", counting("linalg"))
    q = LaurentPoly.q(1)
    rows = [{0: q + ONE, 1: ONE, 2: q}, {0: ONE, 1: q, 2: ONE + q},
            {0: q + 2 * ONE, 1: ONE + q, 2: 2 * q + ONE}]
    solver = SpanSolver(rows)
    assert solver.rank == 2
    # rows[0] + q rows[1]
    v = {0: 2 * q + ONE, 1: ONE + q * q, 2: 2 * q + q * q}
    assert solver.solve(v) == {0: RationalFn.one(), 1: RationalFn(q)}
    (vec,) = mat_nullspace(rows, 3)
    assert all(sum((RationalFn(x) * vec[c] for c, x in row.items()),
                   RationalFn.zero()).is_zero() for row in rows)
    assert calls["linalg"] == calls["with a fraction"] == 0
    assert calls["laurent"] > 0


def test_unitsolver_solves_over_the_laurent_ring():
    q = LaurentPoly.q(1)
    solver = UnitSolver()
    solver.insert({0: q, 1: ONE + q})
    solver.insert({0: ONE, 1: ONE})     # determinant -1
    # (q, 1 + q) + q (1, 1) = (2q, 1 + 2q)
    assert solver.solve({0: 2 * q, 1: ONE + 2 * q}) == {0: ONE, 1: q}
    assert solver.solve({2: ONE}) is None
    # a negative unit pivot: (-q, 1 - q) + q (1, 1) = (0, 1)
    solver = UnitSolver()
    solver.insert({0: -q, 1: ONE - q})
    solver.insert({0: ONE, 1: ONE})
    assert solver.solve({1: ONE}) == {0: ONE, 1: q}


def test_unitsolver_raises_without_a_unit_pivot():
    q = LaurentPoly.q(1)
    # determinant 2: the second row reduces to (0, 2)
    solver = UnitSolver()
    solver.insert({0: ONE, 1: ONE})
    with pytest.raises(AssertionError):
        solver.insert({0: ONE, 1: 3 * ONE})
    # determinant q^2 - 1: the second row reduces to (0, q - q^-1)
    solver = UnitSolver()
    solver.insert({0: q, 1: ONE})
    with pytest.raises(AssertionError):
        solver.insert({0: ONE, 1: q})
    # a dependent row reduces to zero
    with pytest.raises(AssertionError):
        solver.insert({0: q, 1: ONE})
    # determinant -1, but the first row has no unit entry: the greedy
    # build is a certificate only when it succeeds
    with pytest.raises(AssertionError):
        UnitSolver().insert({0: 2 * ONE, 1: 3 * ONE})


class GaussJordanUnitSolver:
    """The former UnitSolver: RREF over Z[q,q^-1], combinations tracked.

    Every insert back-reduces all earlier rows and their combinations, and
    every solve multiplies the vector into those combinations.  It calls
    linalg.accumulate through the module, so a spy on it counts both this
    oracle's work and UnitSolver's.
    """

    def __init__(self):
        self.rows = []      # (pivot col, row dict, combo dict)

    def _reduce(self, v, combo):
        for pc, row, rcombo in self.rows:
            coeff = v.get(pc)
            if coeff is not None:
                linalg.accumulate(v, row.items(), -coeff)
                linalg.accumulate(combo, rcombo.items(), -coeff)
        return v, combo

    def insert(self, v):
        v, combo = self._reduce(dict(v), {len(self.rows): ONE})
        units = [c for c, x in v.items() if x.is_unit()]
        if not units:
            raise AssertionError("no unit pivot")
        pc = min(units)
        sign, k = v[pc].unit_decompose()
        inv = LaurentPoly.q(-k, sign)
        v = linalg.accumulate({}, v.items(), inv)
        combo = linalg.accumulate({}, combo.items(), inv)
        for _, row0, combo0 in self.rows:
            coeff = row0.get(pc)
            if coeff is not None:
                linalg.accumulate(row0, v.items(), -coeff)
                linalg.accumulate(combo0, combo.items(), -coeff)
        self.rows.append((pc, v, combo))

    def solve(self, v):
        v = {c: x for c, x in v.items() if not x.is_zero()}
        res, combo = self._reduce(v, {})
        if res:
            return None
        return {i: -x for i, x in combo.items()}


def _combine(rows, coeffs):
    """sum coeffs[i] * rows[i] by schoolbook sums, zeros dropped."""
    out = {}
    for row, c in zip(rows, coeffs):
        for col, x in row.items():
            out[col] = _schoolbook_sum(out.get(col, ZERO), _schoolbook(c, x))
    return {col: x for col, x in out.items() if not x.is_zero()}


def _expected(coeffs):
    return {i: c for i, c in enumerate(coeffs) if not c.is_zero()}


_units = st.builds(LaurentPoly.q, st.integers(-3, 3), st.sampled_from((1, -1)))
_sparse = st.just(ZERO) | st.just(ZERO) | _units | laurents


@st.composite
def _unimodular_blocks(draw):
    """(rows, defective): the rows of L·U, U's columns permuted.

    L is lower triangular and U upper triangular, both with unit diagonals
    +-q^k (negative ones included) and sparse entries off them; U may have
    up to two columns more than rows.  If defective, one row is multiplied
    by a non-unit, so no unit-pivot build of the rows can succeed.
    """
    n = draw(st.integers(1, 6))
    ncols = n + draw(st.integers(0, 2))
    perm = draw(st.permutations(range(ncols)))
    upper = []
    for i in range(n):
        row = {perm[i]: draw(_units)}
        for j in range(i + 1, ncols):
            row[perm[j]] = draw(_sparse)
        upper.append(row)
    rows = [_combine(upper[:i + 1],
                     [draw(_sparse) for _ in range(i)] + [draw(_units)])
            for i in range(n)]
    defect = draw(st.none() | st.tuples(
        st.integers(0, n - 1),
        st.sampled_from((2 * ONE, -3 * ONE, ONE + LaurentPoly.q(1)))))
    if defect is not None:
        i, f = defect
        rows[i] = _combine([rows[i]], [f])
    return rows, defect is not None


@given(_unimodular_blocks(),
       st.lists(st.lists(laurents, min_size=6, max_size=6),
                min_size=1, max_size=3),
       st.lists(st.tuples(st.integers(0, 7), laurents), max_size=2))
@settings(max_examples=200, deadline=None)
def test_unit_lu_matches_the_gauss_jordan_oracle(block, coeff_lists, noise):
    rows, defective = block
    lu, gj = UnitSolver(), GaussJordanUnitSolver()
    for row in rows:
        raised = []
        for solver in (lu, gj):
            try:
                solver.insert(row)
                raised.append(False)
            except AssertionError:
                raised.append(True)
        assert raised[0] == raised[1]
        if raised[0]:
            break
    else:
        # a complete build certifies a unimodular block
        assert not defective
    built = len(gj.rows)
    assert len(lu.rows) == built
    for coeffs in coeff_lists:
        coeffs = coeffs[:built]
        v = _combine(rows, coeffs)
        assert lu.solve(v) == gj.solve(v) == _expected(coeffs)
        w = dict(v)
        for col, c in noise:
            w[col] = _schoolbook_sum(w.get(col, ZERO), c)
        assert lu.solve(w) == gj.solve(w)
        w[8] = ONE      # no row has column 8
        assert lu.solve(w) is None and gj.solve(w) is None


def _block_rows(n, alpha, beta):
    """The straightening solver of a block and its bideterminant rows."""
    index, solver = qm._StraightenCache().solver(n, alpha, beta)
    return solver, [qm.bideterminant(t, t2).terms for t, t2 in index]


def _compositions(m, n):
    return [c for c in itertools.product(range(m + 1), repeat=n)
            if sum(c) == m]


@pytest.mark.parametrize("n", [2, 3])
def test_unit_lu_matches_the_oracle_on_straightening_blocks(n):
    rng = random.Random(n)
    for m in range(5):
        for alpha, beta in itertools.product(_compositions(m, n), repeat=2):
            solver, rows = _block_rows(n, alpha, beta)
            oracle = GaussJordanUnitSolver()
            for row in rows:
                oracle.insert(row)
            for i, row in enumerate(rows):
                assert solver.solve(row) == oracle.solve(row) == {i: ONE}
            for _ in range(3):
                coeffs = [LaurentPoly({rng.randint(-2, 2): rng.randint(-3, 3)
                                       for _ in range(rng.randint(0, 2))})
                          for _ in rows]
                v = _combine(rows, coeffs)
                assert solver.solve(v) == oracle.solve(v) == _expected(coeffs)


def test_unit_lu_does_less_kernel_work_than_the_oracle(monkeypatch):
    """Items through linalg.accumulate on the 21-row (2,2,2)/(2,2,2) block.

    A count, not a timing: the LU build and the solve of every row both
    pass fewer items than the Gauss-Jordan oracle, and neither insert nor
    solve writes into its argument.
    """
    _, rows = _block_rows(3, (2, 2, 2), (2, 2, 2))
    assert len(rows) == 21
    items = [0]
    kernel = linalg.accumulate

    def counting(acc, it, coeff=None):
        it = list(it)
        items[0] += len(it)
        return kernel(acc, it, coeff)

    monkeypatch.setattr(linalg, "accumulate", counting)

    def work(solver):
        counts = []
        for call in (solver.insert, solver.solve):
            items[0] = 0
            for row in rows:
                before = list(row.items())
                terms = [dict(x.terms) for x in row.values()]
                call(row)
                assert list(row.items()) == before
                assert [x.terms for x in row.values()] == terms
            counts.append(items[0])
        return counts

    lu_build, lu_solve = work(UnitSolver())
    gj_build, gj_solve = work(GaussJordanUnitSolver())
    assert 0 < lu_build < gj_build
    assert 0 < lu_solve < gj_solve
