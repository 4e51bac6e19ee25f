"""Integral straightening against the fraction-field solve it replaced.

Ordinary straightening solves each content block with ``UnitSolver`` over
Z[q,q^-1].  The oracle here is the former route: a ``SpanSolver`` over
``RationalFn`` built from the same standard bideterminants.
"""

import random

import pytest

from qschur import qmatrix as qm
from qschur.laurent import LaurentPoly
from qschur.linalg import RationalFn, SpanSolver


def content_blocks(n, m):
    """(alpha, beta) -> the normal words of degree m with that content."""
    blocks = {}
    for word in qm.monomial_basis(n, m):
        blocks.setdefault(qm.word_content(word, n), []).append(word)
    return blocks


def fraction_field_solve(n, alpha, beta, terms):
    """The block's expansion by the former SpanSolver-over-RationalFn path."""
    index, _ = qm._STRAIGHTEN.solver(n, alpha, beta)
    solver = SpanSolver()
    for t, t2 in index:
        assert solver.insert({w: RationalFn(c) for w, c in
                              qm.bideterminant(t, t2).terms.items()})
    combo = solver.solve({w: RationalFn(c) for w, c in terms.items()})
    assert combo is not None
    return {index[pos]: c for pos, c in combo.items() if not c.is_zero()}


def random_laurent(rng):
    return LaurentPoly({rng.randint(-2, 2): rng.randint(-3, 3)
                        for _ in range(rng.randint(0, 2))})


@pytest.mark.parametrize("n, m", [(2, 1), (2, 2), (2, 3), (2, 4),
                                  (3, 1), (3, 2), (3, 3)])
def test_straighten_matches_fraction_field_oracle(n, m):
    rng = random.Random(1000 * n + m)
    for (alpha, beta), words in sorted(content_blocks(n, m).items()):
        terms = {w: random_laurent(rng) for w in words}
        terms = {w: c for w, c in terms.items() if not c.is_zero()}
        elem = qm.AlgebraElem(terms, normalized=True)
        got = qm.straighten(elem, n)
        assert got == fraction_field_solve(n, alpha, beta, terms)
        rebuilt = qm.AlgebraElem.zero()
        for (t, t2), c in got.items():
            assert isinstance(c, LaurentPoly)
            rebuilt = rebuilt + qm.bideterminant(t, t2).scale(c)
        assert rebuilt == elem


@pytest.mark.parametrize("n, m_max", [(2, 8), (3, 5)])
def test_every_block_is_square_and_unimodular(n, m_max):
    cache = qm._StraightenCache()   # a private cache: nothing is kept
    for m in range(m_max + 1):
        for (alpha, beta), words in content_blocks(n, m).items():
            # raises AssertionError if some pivot is not a unit
            index, _ = cache.solver(n, alpha, beta)
            assert len(index) == len(words), (alpha, beta)
