"""Tableau combinatorics and the rational/ordinary correspondence."""

import itertools
from math import comb

import pytest

from qschur.tableaux import (RationalTableau, Tableau,
                             enumerate_standard, enumerate_standard_rational,
                             first_counts, is_standard, is_standard_rational,
                             multi_indices, ordinary_to_rational, partitions,
                             rational_to_ordinary, weight)


def brute_standard(shape, n):
    out = []
    for entries in itertools.product(range(1, n + 1), repeat=sum(shape)):
        rows, pos = [], 0
        for width in shape:
            rows.append(entries[pos:pos + width])
            pos += width
        t = Tableau(rows)
        if is_standard(t):
            out.append(t)
    return out


def test_partitions_order_and_count():
    ps = list(partitions(4))
    assert ps[0] == (4,) and ps[-1] == (1, 1, 1, 1)
    assert len(ps) == 5
    assert list(partitions(4, 2)) == [(2, 2), (2, 1, 1), (1, 1, 1, 1)]
    assert all(type(p) is tuple for p in partitions(4, 2))


def test_tableau_shape_is_the_tuple_of_its_row_lengths():
    t = Tableau([[1, 2], [2]])
    assert type(t.shape) is tuple and t.shape == (2, 1)
    assert t.to_json() == {"shape": [2, 1], "rows": [[1, 2], [2]]}
    assert Tableau(()).shape == ()


@pytest.mark.parametrize("rows", [((1, 2), ()), ((),), ((1,), (1, 2))])
def test_tableau_rows_must_form_a_partition(rows):
    with pytest.raises(ValueError):
        Tableau(rows)


@pytest.mark.parametrize("shape", [(1, 2), (-1,), (2, -1)])
def test_enumerate_standard_rejects_a_shape_that_is_no_partition(shape):
    with pytest.raises(ValueError):
        enumerate_standard(shape, 3)


def test_enumerate_standard_drops_zero_parts():
    got = enumerate_standard((2, 0), 3)
    assert got == enumerate_standard((2,), 3) and len(got) == 3
    assert all(t.shape == (2,) for t in got)


def test_enumerate_standard_matches_brute_force():
    for n in (2, 3):
        for m in (1, 2, 3):
            for lam in partitions(m, n):
                got = enumerate_standard(lam, n)
                assert got == sorted(set(brute_standard(lam, n)),
                                     key=lambda t: t.rows)
                assert len(got) == len(set(got))


def test_standard_bitableaux_count_matches_binomial():
    # sum over shapes of (number of standard fillings)^2 = C(n^2+m-1, m)
    for n in (2, 3):
        for m in range(1, 5):
            total = sum(len(enumerate_standard(lam, n)) ** 2
                        for lam in partitions(m, n))
            assert total == comb(n * n + m - 1, m)


def test_rational_enumeration_small_counts():
    assert len(enumerate_standard_rational(2, 1, 1)) == 4
    # k descends and the correspondence is injective
    ks = [k for k, _ in enumerate_standard_rational(2, 2, 2)]
    assert ks == sorted(ks, reverse=True)


def test_rational_roundtrip_exhaustive():
    for n in (2, 3):
        for r in range(3):
            for s in range(3):
                for _, rt in enumerate_standard_rational(n, r, s):
                    t = rational_to_ordinary(rt, n, s)
                    assert is_standard(t)
                    assert sum(t.shape[:s]) >= (n - 1) * s
                    assert ordinary_to_rational(t, n, s) == rt


def test_worked_large_anchor():
    rt = RationalTableau(Tableau(((1, 3), (2,))), Tableau(((3, 4), (3, 5))))
    assert is_standard_rational(rt, 5)
    t = rational_to_ordinary(rt, 5, 5)
    assert t.rows == ((1, 2, 3, 4, 5), (1, 2, 3, 4, 5), (1, 2, 3, 4, 5),
                      (1, 2, 4), (1, 2, 5), (1, 3), (2,))
    assert weight(t.entries(), 5) == (6, 6, 4, 4, 4)
    assert ordinary_to_rational(t, 5, 5) == rt


def test_first_counts_condition():
    bad = RationalTableau(Tableau(((1,),)), Tableau(((1,),)))
    assert first_counts(bad, 1) == 2
    assert not is_standard_rational(bad, 2)


def test_rejects_nonstandard_rational_input():
    bad = RationalTableau(Tableau(((1,),)), Tableau(((1,),)))
    with pytest.raises(ValueError):
        rational_to_ordinary(bad, 2, 1)


def test_multi_indices_and_weight():
    idx = multi_indices(2, 3)
    assert len(idx) == 8 and idx[0] == (1, 1, 1)
    assert weight((1, 2, 2), 3) == (1, 2, 0)
