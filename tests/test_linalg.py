"""Exact linear algebra engines, cross-checked against sympy ranks."""

import itertools

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from qschur import linalg
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


def test_echelon_reduce_is_linear_and_canonical():
    ech = Echelon()
    q = LaurentPoly.q(1)
    ech.insert({0: q, 1: ONE})
    ech.insert({1: q + ONE, 2: ONE})
    v1 = {0: ONE, 2: q}
    v2 = {1: q, 2: ONE}
    r1 = ech.coords(v1)
    r2 = ech.coords(v2)
    both = ech.coords({0: ONE, 1: q, 2: q + ONE})
    keys = set(r1) | set(r2) | set(both)
    for k in keys:
        a = r1.get(k, RationalFn.zero()) + r2.get(k, RationalFn.zero())
        assert a == both.get(k, RationalFn.zero())


def reduce_over_all_pivots(ech, v):
    """The former Echelon.reduce loop, which visits every pivot in order."""
    v = {k: val for k, val in v.items() if not val.is_zero()}
    scale = RationalFn.one()
    for c in ech._order:
        coeff = v.get(c)
        if coeff is None:
            continue
        row = ech.pivots[c]
        p = row[c]
        v = accumulate({k: val * p for k, val in v.items()},
                       row.items(), -coeff)
        scale = scale / RationalFn(p)
        if not v:
            break
    if v:
        v, g = linalg._strip_content(v)
        if g > 1:
            scale = scale * g
    return v, scale


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
        res, scale = ech.reduce(v)
        old_res, old_scale = reduce_over_all_pivots(ech, v)
        assert res == old_res
        assert (scale.num, scale.den) == (old_scale.num, old_scale.den)


@given(st.lists(st.dictionaries(st.integers(0, 6), laurents, max_size=4),
                max_size=5),
       st.lists(st.dictionaries(st.integers(0, 6), laurents, max_size=5),
                min_size=1, max_size=4))
@settings(max_examples=60, deadline=None)
def test_echelon_residual_matches_reduce(rows, vecs):
    ech = Echelon()
    for row in rows:
        ech.insert(row)
    for v in vecs + rows:
        assert ech.residual(v) == ech.reduce(v)[0]
        assert ech.contains(v) == (not ech.reduce(v)[0])


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
