"""The quantum matrix algebra: rewriting, minors, straightening."""

import itertools
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qschur import cli
from qschur import qmatrix as qm
from qschur.laurent import LaurentPoly, ONE, neg_q_power
from qschur.linalg import Echelon, accumulate
from qschur.mixed import MixedElem
from qschur.qmatrix import (PLAIN, STARRED, AlgebraElem, bideterminant,
                            laplace_expand, monomial_basis, multiply,
                            quantum_det, quantum_minor_left,
                            quantum_minor_right, standard_bitableaux,
                            straighten, word_content)
from qschur.tableaux import Tableau, inversions

Q = LaurentPoly.q(1)
QINV = LaurentPoly.q(-1)


def gen(i, j):
    return AlgebraElem.generator(i, j)


def test_defining_relations_plain():
    # with (i,j) < (k,l) row-major: same row or column pairs q-commute,
    # anti-diagonal pairs commute, and diagonal pairs straighten with the
    # (q - q^{-1}) commutator term.
    n = 3
    for i, j in itertools.product(range(1, n + 1), repeat=2):
        for k, l in itertools.product(range(1, n + 1), repeat=2):
            if (i, j) >= (k, l):
                continue
            a, b = gen(i, j), gen(k, l)
            ab, ba = multiply(a, b), multiply(b, a)
            if i == k or j == l:
                assert ba == ab.scale(QINV)
            elif j > l:
                assert ab == ba
            else:
                extra = multiply(gen(i, l), gen(k, j))
                assert ba == ab - extra.scale(Q - QINV)


def test_normal_form_idempotent():
    n = 2
    letters = [(i, j) for i in range(1, n + 1) for j in range(1, n + 1)]
    for word in itertools.product(letters, repeat=3):
        elem = AlgebraElem({tuple(word): ONE})
        again = AlgebraElem(dict(elem.terms))
        assert elem == again
        assert all(list(w) == sorted(w) for w in elem.terms)


def test_minor_anchor_2x2():
    minor = quantum_minor_right([1, 2], [1, 2])
    expected = multiply(gen(1, 1), gen(2, 2)) - \
        multiply(gen(1, 2), gen(2, 1)).scale(Q)
    assert minor == expected
    assert minor == quantum_det(2)


def test_minor_repeated_indices_vanish():
    assert quantum_minor_right([1, 1], [1, 2]).is_zero()
    assert quantum_minor_left([1, 2], [2, 2]).is_zero()


def test_minor_row_column_swap_signs():
    # right minors: unsorted column list picks up (-q)^inversions
    base = quantum_minor_right([1, 2], [1, 2])
    swapped = quantum_minor_right([1, 2], [2, 1])
    assert swapped == base.scale(neg_q_power(1))


# every index list of length at most 3 over 1..3, unsorted and repeated too
INDEX_LISTS = [seq for length in range(4)
               for seq in itertools.product(range(1, 4), repeat=length)]
MINOR_CALLS = [(minor, rows, cols, qexp)
               for minor in (quantum_minor_right, quantum_minor_left)
               for rows in INDEX_LISTS for cols in INDEX_LISTS
               if len(rows) == len(cols) for qexp in (1, -1)]


def snapshot(elem):
    return {w: dict(c.terms) for w, c in elem.terms.items()}


def test_unsorted_and_repeated_indices_give_the_uncached_minor():
    # a row swap gives -q^-1 and a column swap -q for right minors, the
    # mirror for left ones (q -> q^-1 when qexp = -1); a repeat gives 0
    for minor, rows, cols, qexp in MINOR_CALLS:
        left = minor is quantum_minor_left
        got = minor(list(rows), list(cols), qexp=qexp)
        assert got is minor(rows, cols, qexp=qexp)
        assert got == qm._quantum_minor.__wrapped__(list(rows), list(cols),
                                                    qexp, left)
        if len(set(rows)) < len(rows) or len(set(cols)) < len(cols):
            assert got.is_zero()
            continue
        row_exp = qexp if left else -qexp
        a, b = inversions(list(rows)), inversions(list(cols))
        sign = LaurentPoly.q(row_exp * (a - b), (-1) ** (a + b))
        assert got == minor(sorted(rows), sorted(cols),
                            qexp=qexp).scale(sign)


def test_the_suites_leave_every_cached_minor_unchanged():
    before = {}
    for minor, rows, cols, qexp in MINOR_CALLS:
        m = minor(rows, cols, qexp=qexp)
        before[minor, rows, cols, qexp] = (m, snapshot(m))
    cached = qm._quantum_minor.cache_info().currsize
    for suite in ("laplace", "jacobi", "detk", "straightening-lemmas",
                  "phi-iota"):
        assert all(case["ok"] for case in cli.SUITES[suite]())
    # the suites met no minor outside the snapshot
    assert qm._quantum_minor.cache_info().currsize == cached
    for (minor, rows, cols, qexp), (m, terms) in before.items():
        assert minor(rows, cols, qexp=qexp) is m
        assert snapshot(m) == terms


def test_det_is_central():
    for n in (2, 3):
        det = quantum_det(n)
        for i in range(1, n + 1):
            for j in range(1, n + 1):
                assert multiply(det, gen(i, j)) == multiply(gen(i, j), det)


def test_laplace_both_forms():
    for n in (2, 3):
        idx = list(range(1, n + 1))
        for k in range(1, n + 1):
            for rows in itertools.combinations(idx, k):
                for cols in itertools.combinations(idx, k):
                    for l in range(1, k + 1):
                        for form, minor in ((1, quantum_minor_left),
                                            (2, quantum_minor_right)):
                            total = AlgebraElem.zero()
                            for coeff, (r1, c1), (r2, c2) in laplace_expand(
                                    list(rows), list(cols), l, form):
                                total = total + multiply(
                                    minor(r1, c1), minor(r2, c2)).scale(coeff)
                            assert total == minor(list(rows), list(cols))


def test_bideterminant_row_order_convention():
    t = Tableau(((1, 2), (2,)))
    t2 = Tableau(((1, 2), (1,)))
    manual = multiply(quantum_minor_right([2], [1]),
                      quantum_minor_right([1, 2], [1, 2]))
    assert bideterminant(t, t2) == manual


def test_straighten_fixes_standard_bideterminants():
    for n in (2, 3):
        for m in (1, 2, 3):
            for t, t2 in standard_bitableaux(n, m):
                expansion = straighten(bideterminant(t, t2), n)
                assert expansion == {(t, t2): ONE}


def test_straighten_is_linear_and_spans():
    n, m = 2, 2
    total = AlgebraElem.zero()
    for word in monomial_basis(n, m):
        total = total + AlgebraElem({word: ONE})
    expansion = straighten(total, n)
    rebuilt = AlgebraElem.zero()
    for (t, t2), c in expansion.items():
        assert isinstance(c, LaurentPoly)
        rebuilt = rebuilt + bideterminant(t, t2).scale(c)
    assert rebuilt == total


def test_standard_basis_rank_equals_count():
    for n in (2, 3):
        for m in (1, 2, 3):
            ech = Echelon()
            count = 0
            for t, t2 in standard_bitableaux(n, m):
                assert ech.insert(dict(bideterminant(t, t2).terms))
                count += 1
            assert ech.rank == count


def test_word_content():
    assert word_content(((1, 2), (2, 2)), 2) == ((1, 1), (0, 2))


def test_starred_rewriter_is_q_inverse_twist():
    # products in the starred algebra match plain products with q -> 1/q
    n = 2
    letters = [(i, j) for i in range(1, n + 1) for j in range(1, n + 1)]
    for a, b in itertools.product(letters, repeat=2):
        plain = multiply(AlgebraElem({(a,): ONE}),
                         AlgebraElem({(b,): ONE}))
        starred = multiply(AlgebraElem({(a,): ONE}, rewriter=STARRED),
                           AlgebraElem({(b,): ONE}, rewriter=STARRED),
                           rewriter=STARRED)
        flipped = {w: LaurentPoly({-e: c for e, c in coeff.terms.items()})
                   for w, coeff in plain.terms.items()}
        assert starred.terms == flipped


def read_element(obj, path):
    """obj written to path and read back by the CLI's element reader."""
    path.write_text(json.dumps(obj))
    args = cli.build_parser().parse_args(
        ["straighten", "ord", "--n", "2", "--input", str(path)])
    return cli._read_element(args)


def test_json_roundtrip(tmp_path):
    elem = multiply(gen(2, 1), gen(1, 2))
    assert read_element(elem.to_json(), tmp_path / "elem.json") == elem


def test_from_json_sums_repeated_words(tmp_path):
    term = {"word": [[1, 2]], "coeff": {"0": "1"}}
    elem = read_element([term, term], tmp_path / "elem.json")
    assert elem.terms == {((1, 2),): LaurentPoly.from_int(2)}


def _former_normal_word(rewriter, word, memo):
    """The whole-word recursion that normal_word replaced, kept as an
    oracle: swap the first descent, recurse on each resulting word, and
    memoize every word met (one stack frame per inversion)."""
    hit = memo.get(word)
    if hit is not None:
        return hit
    p = next((t for t in range(len(word) - 1) if word[t] > word[t + 1]), -1)
    if p < 0:
        memo[word] = {word: ONE}
        return memo[word]
    (i, j), (k, l) = word[p], word[p + 1]
    swapped = word[:p] + ((k, l), (i, j)) + word[p + 2:]
    if i == k or j == l:
        terms = [(rewriter.swap_coeff, swapped)]
    elif j < l:
        terms = [(ONE, swapped)]
    else:
        extra = word[:p] + ((k, j), (i, l)) + word[p + 2:]
        terms = [(ONE, swapped), (rewriter.extra_coeff, extra)]
    result = {}
    for coeff, w in terms:
        accumulate(result, _former_normal_word(rewriter, w, memo).items(),
                   coeff)
    memo[word] = result
    return result


_FORMER_MEMOS = {PLAIN: {}, STARRED: {}}


@st.composite
def _words(draw):
    n = draw(st.sampled_from((2, 3, 4)))
    letter = st.tuples(st.integers(1, n), st.integers(1, n))
    return tuple(draw(st.lists(letter, max_size=8)))


@given(_words(), st.sampled_from((PLAIN, STARRED)))
@settings(max_examples=300, deadline=None)
def test_insertion_matches_the_whole_word_recursion(word, rewriter):
    want = _former_normal_word(rewriter, word, _FORMER_MEMOS[rewriter])
    fresh = qm.Rewriter(1 if rewriter is PLAIN else -1)
    assert fresh.normal_word(word) == want
    assert rewriter.normal_word(word) == want


# 1,600 inversions: far past Python's recursion limit for a rewriter that
# recursed once per inversion
DEEP = ((2, 1),) * 40 + ((1, 2),) * 40
DEEP_NORMAL = ((1, 2),) * 40 + ((2, 1),) * 40


@pytest.mark.parametrize("terms, normal", [
    (lambda: PLAIN.normal_word(DEEP), DEEP_NORMAL),
    (lambda: STARRED.normal_word(DEEP), DEEP_NORMAL),
    (lambda: AlgebraElem({DEEP: ONE}).terms, DEEP_NORMAL),
    (lambda: MixedElem({(DEEP, DEEP): ONE}).terms, (DEEP_NORMAL, DEEP_NORMAL)),
], ids=["plain", "starred", "algebra-elem", "mixed-elem"])
def test_a_deep_word_normalizes(terms, normal):
    assert terms() == {normal: ONE}


def test_the_word_memo_holds_only_the_words_asked_for():
    rewriter = qm.Rewriter(1)
    word = ((3, 3), (2, 1), (3, 1), (1, 2), (2, 3), (1, 1), (3, 2), (2, 2))
    nf = rewriter.normal_word(word)
    assert list(rewriter.cache) == [word]
    assert rewriter.cache[word] is nf
    assert rewriter.inserts
    for u, x in rewriter.inserts:
        assert list(u) == sorted(u) and x < u[-1]


def _memo_snapshot():
    return {(rw, name, key): (nf, {w: dict(c.terms) for w, c in nf.items()})
            for rw in (PLAIN, STARRED)
            for name in ("cache", "inserts")
            for key, nf in getattr(rw, name).items()}


def test_the_suites_leave_every_memoized_normal_form_unchanged():
    for n in (2, 3):
        for a, b in standard_bitableaux(n, 3):
            bideterminant(a, b)
            bideterminant(a, b, qexp=-1)
    before = _memo_snapshot()
    assert len(before) > 1000
    for suite in ("pbw", "hecke-relations", "jacobi", "phi-iota"):
        assert all(case["ok"] for case in cli.SUITES[suite]())
    for (rw, name, key), (nf, terms) in before.items():
        assert getattr(rw, name)[key] is nf
        assert {w: dict(c.terms) for w, c in nf.items()} == terms
