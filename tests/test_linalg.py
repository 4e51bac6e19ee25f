"""Exact linear algebra engines, cross-checked against sympy ranks."""

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from qschur import laurent, linalg
from qschur.laurent import LaurentPoly, ONE, ZERO
from qschur.linalg import (Echelon, RationalFn, SparseSum, SpanSolver,
                           UnitSolver, accumulate, mat_nullspace)
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
    sym = sympy.Matrix([[to_sympy(v) for v in row] for row in rows])
    assert _rank(rows) == sym.rank()


@given(st.lists(st.lists(laurents, min_size=4, max_size=4),
                min_size=3, max_size=3))
@settings(max_examples=20, deadline=None)
def test_rank_transpose_invariant(rows):
    assert _rank(rows) == _rank(list(zip(*rows)))


def reduce_over_all_pivots(ech, v):
    """The residual of the former Echelon.reduce loop, which visits every
    pivot in order."""
    v = {k: val for k, val in v.items() if not val.is_zero()}
    for c in ech.pivots:
        coeff = v.get(c)
        if coeff is None:
            continue
        row = ech.pivots[c]
        v = accumulate({k: val * row[c] for k, val in v.items()},
                       row.items(), -coeff)
        if not v:
            break
    return linalg._strip_content(v) if v else v


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


class FullScanEchelon:
    """The former Echelon.insert, which back-reduces by visiting every
    pivot row, over reduce_over_all_pivots."""

    def __init__(self):
        self.pivots = {}

    def insert(self, v):
        res = reduce_over_all_pivots(self, v)
        if not res:
            return False
        pc = min(res, key=lambda c: (res[c].num_terms(), c))
        p = res[pc]
        for c0, row in self.pivots.items():
            coeff = row.get(pc)
            if coeff is None:
                continue
            self.pivots[c0] = linalg._strip_content(accumulate(
                {k: val * p for k, val in row.items()}, res.items(), -coeff))
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
