"""The mixed coefficient algebra on plain and starred quantum matrices.

An element is a sparse sum of pairs (plain word, starred word) with
Laurent coefficients; the plain half is kept in the plain normal form and
the starred half in the q -> q^-1 twisted normal form (the two halves
commute).  The bidegree-(r, s) component, taken modulo the span Y of the
sandwiched cross relations

    (9)   sum_k x_ik x*_jk                      (i != j)
    (10)  sum_k q^(2k) x_ki x*_kj               (i != j)
    (11)  sum_k q^(2k-2i) x_ki x*_ki - sum_k x_jk x*_jk

is the mixed coefficient algebra of bidegree (r, s).  This module builds
that quotient, the elements dfrak^(k), rational bideterminants, the
embedding iota into the plain algebra of degree r + (n-1)s with its
one-sided inverse phi, and rational straightening, which goes via iota.
"""

from __future__ import annotations

import functools
import itertools

from .laurent import LaurentPoly, ONE, neg_q_power
from .linalg import Echelon, SparseSum, accumulate
from .qmatrix import (AlgebraElem, PLAIN, STARRED, bideterminant,
                      monomial_basis, multiply, quantum_det,
                      quantum_minor_right, straighten)
from .tableaux import enumerate_standard_rational, ordinary_to_rational


class MixedElem(SparseSum):
    """A sum of (plain word, starred word) pairs with Laurent coefficients."""

    __slots__ = ()

    def __init__(self, terms=None, normalized=False):
        terms = terms or {}
        if not normalized:
            out = {}
            for (pw, sw), coeff in terms.items():
                if coeff.is_zero():
                    continue
                starred = STARRED.normal_word(sw).items()
                for pw2, pc in PLAIN.normal_word(pw).items():
                    accumulate(out, (((pw2, sw2), pc * sc)
                                     for sw2, sc in starred), coeff)
            terms = out
        self.terms = terms

    @staticmethod
    def one():
        return MixedElem({((), ()): ONE}, normalized=True)

    @staticmethod
    def plain_gen(i, j):
        return MixedElem({(((i, j),), ()): ONE}, normalized=True)

    @staticmethod
    def starred_gen(i, j):
        return MixedElem({((), ((i, j),)): ONE}, normalized=True)

    @staticmethod
    def from_plain(a):
        """Embed a plain AlgebraElem (normal form assumed)."""
        return MixedElem({(w, ()): c for w, c in a.terms.items()},
                         normalized=True)

    @staticmethod
    def from_starred(a):
        """Embed a starred-normal AlgebraElem."""
        return MixedElem({((), w): c for w, c in a.terms.items()},
                         normalized=True)

    def __repr__(self):
        if not self.terms:
            return "0"
        bits = []
        for (pw, sw) in sorted(self.terms):
            mono = "*".join([f"x{i}{j}" for i, j in pw] +
                            [f"x{i}{j}s" for i, j in sw]) or "1"
            bits.append(f"({self.terms[(pw, sw)]!r})*{mono}")
        return " + ".join(bits)

    def to_json(self):
        return [{"plain": [list(x) for x in pw],
                 "starred": [list(x) for x in sw],
                 "coeff": c.to_json()}
                for (pw, sw), c in sorted(self.terms.items())]


def mixed_multiply(a, b):
    """Product: plain halves concatenate, starred halves concatenate."""
    t = {}
    for (p1, s1), c1 in a.terms.items():
        accumulate(t, (((p1 + p2, s1 + s2), c2)
                       for (p2, s2), c2 in b.terms.items()), c1)
    return MixedElem(t)


def cross_relation_cores(n):
    """The relation cores (9), (10), (11) as bidegree-(1,1) elements."""
    cores = []
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            if i == j:
                continue
            cores.append(MixedElem(
                {(((i, k),), ((j, k),)): ONE for k in range(1, n + 1)}))
            cores.append(MixedElem(
                {(((k, i),), ((k, j),)): LaurentPoly.q(2 * k)
                 for k in range(1, n + 1)}))
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            cores.append(MixedElem(accumulate({}, (
                term for k in range(1, n + 1) for term in (
                    ((((k, i),), ((k, i),)), LaurentPoly.q(2 * k - 2 * i)),
                    ((((j, k),), ((j, k),)), LaurentPoly.from_int(-1)))))))
    return [c for c in cores if not c.is_zero()]


def _sandwiches(cores, n, r, s):
    """h1 * core * h3 over the plain words h1 of degree r-1, the starred
    words h3 of degree s-1 and the cores, nested in that order.

    Each is built as one element and normalized once: the fixed prefix h1
    and suffix h3 keep the core's keys distinct."""
    for pw in monomial_basis(n, r - 1):
        for sw in monomial_basis(n, s - 1):
            for core in cores:
                yield MixedElem({(pw + p, q + sw): c
                                 for (p, q), c in core.terms.items()})


def cross_relation_generators(n, r, s):
    """All sandwiched relation elements h1 * core * h3 of bidegree (r, s)."""
    if r < 1 or s < 1:
        return []
    return [g for g in _sandwiches(cross_relation_cores(n), n, r, s)
            if not g.is_zero()]


class MixedQuotient:
    """The bidegree-(r, s) component modulo the relation span Y.

    One Echelon holds Y; rank and zero tests use residual().
    generators counts the nonzero sandwiched relations the build inserted.
    """

    def __init__(self, n, r, s):
        self.words = [(pw, sw) for pw in monomial_basis(n, r)
                      for sw in monomial_basis(n, s)]
        self.echelon = Echelon()
        self.generators = 0
        for g in cross_relation_generators(n, r, s):
            self.generators += 1
            self.echelon.insert(g.terms)

    def dimension(self):
        return len(self.words) - self.echelon.rank

    def residual(self, a):
        """The Echelon residual of a modulo Y (Laurent entries).

        It is a nonzero scalar times the canonical coset representative of
        a, so ranks of residuals, and membership in their span, agree with
        those of the cosets.  Where every pivot it meets is a unit (every
        pivot of Y is one for n in {2, 3}, r, s <= 2 and at (3,3,2)), the
        scalar is 1: a is neither scaled nor divided by its content."""
        return self.echelon.reduce(a.terms)

    def is_coset_zero(self, a):
        return not self.residual(a)


@functools.cache
def quotient(n, r, s):
    return MixedQuotient(n, r, s)


def det_frak(k, n):
    """dfrak^(1) = sum_l x_1l x*_1l; dfrak^(k) = sum_l x_1l dfrak^(k-1) x*_1l."""
    if k < 0:
        raise ValueError("k must be nonnegative")
    result = MixedElem.one()
    for _ in range(k):
        result = MixedElem(accumulate({}, (
            ((((1, l),) + pw, sw + ((1, l),)), c)
            for (pw, sw), c in result.terms.items()
            for l in range(1, n + 1))))
    return result


def check_detk(n):
    """The relation cores around dfrak^(1) in bidegree (2, 2).

    Each core of cross_relation_cores, with dfrak^(1) put between the
    plain and the starred letter of every term, vanishes in the quotient:
    for i != j, sum_l x_il dfrak^(1) x*_jl and sum_l q^(2l) x_li dfrak^(1)
    x*_lj, and for all i, j, the diagonal sandwich sum_l q^(2l-2i) x_li
    dfrak^(1) x*_li minus sum_l x_jl dfrak^(1) x*_jl.
    """
    d = det_frak(1, n)
    quot = quotient(n, 2, 2)
    return all(quot.is_coset_zero(MixedElem(accumulate({}, (
        (((lp,) + pw, sw + (ls,)), a * c)
        for ((lp,), (ls,)), a in core.terms.items()
        for (pw, sw), c in d.terms.items()))))
        for core in cross_relation_cores(n))


def rational_right_factor(k, right, right2, n):
    """dfrak^(k) (right|right2)*, the right factor of the rational
    bideterminants whose right halves are (right, right2)."""
    # the starred bideterminant: forward row order, q -> q^-1 minors
    starred = MixedElem.from_starred(bideterminant(right, right2, qexp=-1))
    return mixed_multiply(det_frak(k, n), starred)


def rational_bideterminant(rt, rt2, k, n, right=None):
    """(left|left') dfrak^(k) (right|right')* for same-shape rational pairs.

    Built as the plain bideterminant (left|left') times the right factor
    rational_right_factor(k, right, right', n), the factorization the
    phi-iota suite checks through; a caller that holds that factor already
    passes it as right.  Not cached: the rational basis builds each
    element once per point and each right factor once per (k, R, R'), and
    the phi-iota suite builds only the right factors.
    """
    if rt.shapes() != rt2.shapes():
        raise ValueError("rational bitableau halves must have equal shapes")
    if right is None:
        right = rational_right_factor(k, rt.right, rt2.right, n)
    left = MixedElem.from_plain(bideterminant(rt.left, rt2.left))
    return mixed_multiply(left, right)


# -- the embedding iota --------------------------------------------------

def iota_starred_letter(i, j, n):
    """iota(x*_ij) = (-q)^(j-i) (1..i^..n | 1..j^..n)."""
    rows = [t for t in range(1, n + 1) if t != i]
    cols = [t for t in range(1, n + 1) if t != j]
    return quantum_minor_right(rows, cols).scale(neg_q_power(j - i))


@functools.cache
def iota_starred_word(sw, n):
    """iota of a starred word: the product of its letters' images.

    The result is cached and shared: do not modify it.
    """
    img = AlgebraElem.one()
    for i, j in sw:
        img = multiply(img, iota_starred_letter(i, j, n))
    return img


@functools.cache
def iota_respects_starred_relations(n):
    """Whether iota of the starred letters respects the starred quadratic
    relations: for every two-letter word w, iota_starred_word(w) equals the
    sum of c * iota_starred_word(w') over STARRED.normal_word(w).

    The rewrite rules are quadratic and a two-letter normal form is one
    rewrite step, so then iota_starred_word is an algebra map on the
    starred algebra, and iota(h1 * core * h3) = h1 * iota(core) *
    iota_starred_word(h3): iota kills Y once it kills the relation cores.
    """
    letters = [(i, j) for i in range(1, n + 1) for j in range(1, n + 1)]
    for w in itertools.product(letters, repeat=2):
        rhs = {}
        for w2, c in STARRED.normal_word(w).items():
            accumulate(rhs, iota_starred_word(w2, n).terms.items(), c)
        if iota_starred_word(w, n).terms != rhs:
            return False
    return True


def iota(a, n):
    """Substitute each starred letter by its signed complementary minor:
    sum c (pw * iota_starred_word(sw)) over the terms, normalized once."""
    out = {}
    for (pw, sw), c in a.terms.items():
        accumulate(out, ((pw + w, v) for w, v in
                         iota_starred_word(sw, n).terms.items()), c)
    return AlgebraElem(out)


def jacobi_check(rows, cols, n):
    """Check the minor-complement identity for iota on a starred minor.

    Returns (exponent, complementary rows, complementary cols) and raises
    if iota((rows|cols)*) differs from
    (-q)^(sum(cols)-sum(rows)) det^(l-1) (rows'|cols').
    """
    rows, cols = list(rows), list(cols)
    if any(a >= b for seq in (rows, cols) for a, b in zip(seq, seq[1:])):
        raise ValueError("indices must be strictly increasing")
    l = len(rows)
    exp = sum(cols) - sum(rows)
    crows = [t for t in range(1, n + 1) if t not in set(rows)]
    ccols = [t for t in range(1, n + 1) if t not in set(cols)]
    lhs = iota(MixedElem.from_starred(
        quantum_minor_right(rows, cols, qexp=-1)), n)
    comp = quantum_minor_right(crows, ccols)
    if l == 0:
        # det^(-1) times the full minor collapses to 1
        ok = lhs == AlgebraElem.one() and comp == quantum_det(n)
    else:
        rhs = comp.scale(neg_q_power(exp))
        det = quantum_det(n)
        for _ in range(l - 1):
            rhs = multiply(det, rhs)
        ok = lhs == rhs
    if not ok:
        raise AssertionError(f"ratio identity fails for {rows}|{cols}")
    return exp, crows, ccols


# -- the rational straightening basis ------------------------------------

def standard_rational_bitableaux(n, r, s):
    """(k, rt, rt2) for all same-shape standard rational pairs, k
    descending (the order of enumerate_standard_rational)."""
    by_shape = {}
    for k, rt in enumerate_standard_rational(n, r, s):
        by_shape.setdefault((k, rt.shapes()), []).append(rt)
    return [(k, rt, rt2) for (k, _), tabs in by_shape.items()
            for rt in tabs for rt2 in tabs]


class _RationalBasis:
    """The standard rational bideterminants, checked independent mod Y.

    An independent check of the basis theorem that does not use iota: the
    quotient residuals of the bideterminants have full Echelon rank.
    index lists the (k, rt, rt2).  Each right factor is built once per
    (k, R, R') and shared by the bideterminants it ends.
    """

    def __init__(self, n, r, s):
        quot = quotient(n, r, s)
        self.index = []
        ech = Echelon()
        rights = {}
        for k, rt, rt2 in standard_rational_bitableaux(n, r, s):
            key = k, rt.right, rt2.right
            if key not in rights:
                rights[key] = rational_right_factor(*key, n)
            res = quot.residual(
                rational_bideterminant(rt, rt2, k, n, rights[key]))
            if not ech.insert(res):
                raise AssertionError(
                    "standard rational bideterminants must be independent")
            self.index.append((k, rt, rt2))


def rational_basis(n, r, s):
    return _RationalBasis(n, r, s)


# -- c exponents, phi and rational straightening -------------------------

def c_exponent(rt, rt2):
    """The c with iota(b) = (-q)^c (t|t'): sum(rt2.right) - sum(rt.right).

    b is the rational bideterminant of (rt, rt2) and (t, t') their images
    under the tableau correspondence.  iota is multiplicative on starred
    words (iota_respects_starred_relations); iota((R|C)*) = (-q)^(sum C -
    sum R) det^(|R|-1) (R'|C') (jacobi_check); iota(dfrak^(k)) = det^k and
    det is central; and the complements of the right half's rows come, in
    the starred bideterminant's forward order, as rows s, ..., 1 of t, the
    reversed order in which bideterminant multiplies.  c depends on the
    right halves alone, and the phi-iota suite certifies the identity once
    per right factor m = rational_right_factor(k, R, R', n): it compares
    the normal forms of iota(m) and (-q)^c (t_R|t_R'), with t_R the image
    of the rational tableau (empty, R).
    """
    return sum(rt2.right.entries()) - sum(rt.right.entries())


# _to_rational meets the same few tableaux in every expansion
_ordinary_to_rational = functools.cache(ordinary_to_rational)


def _to_rational(expansion, n, r, s):
    """Map a standard bideterminant expansion to rational bitableau pairs.

    (t|t') of shape lam with sum(lam[:s]) >= (n-1)s goes to the (k, rt, rt2)
    whose iota image is (-q)^c (t|t'), c = c_exponent(rt, rt2), with its
    coefficient times (-q)^(-c); other shapes are dropped.
    """
    out = {}
    for (t, t2), coeff in expansion.items():
        if sum(t.shape[:s]) < (n - 1) * s:
            continue
        rt = _ordinary_to_rational(t, n, s)
        rt2 = _ordinary_to_rational(t2, n, s)
        k = r - rt.left.size()
        out[(k, rt, rt2)] = coeff * neg_q_power(-c_exponent(rt, rt2))
    return out


def phi(a, n, r, s):
    """The one-sided inverse of iota, as a Laurent representative.

    Straightens a homogeneous element of degree r+(n-1)s and returns the
    sum of the rational bideterminants of the terms that _to_rational
    keeps, a MixedElem of bidegree (r, s): phi(iota(a)) - a lies in Y,
    and phi(iota(b)) = b for a standard rational bideterminant b.
    """
    if not a.is_zero() and a.degree() != r + (n - 1) * s:
        raise ValueError("degree must be r + (n-1)s")
    rep = {}
    terms = _to_rational(straighten(a, n), n, r, s)
    for (k, rt, rt2), coeff in terms.items():
        accumulate(rep, rational_bideterminant(rt, rt2, k, n).terms.items(),
                   coeff)
    return MixedElem(rep, normalized=True)


def rational_straighten(a, n, r, s):
    """Expand a bidegree-(r, s) coset over the standard rational basis.

    Straightens iota(a) and maps it back with _to_rational.  Returns a dict
    (k, rt, rt2) -> LaurentPoly: each straightening block is certified
    unimodular and (-q)^(-c) is a unit, so no fraction arises.
    A dropped shape or a term of another bidegree raises AssertionError.
    """
    if any(len(pw) != r or len(sw) != s for pw, sw in a.terms):
        raise AssertionError("coset outside the rational basis span")
    expansion = straighten(iota(a, n), n)
    out = _to_rational(expansion, n, r, s)
    if len(out) != len(expansion):
        raise AssertionError("coset outside the rational basis span")
    return out


# -- straightening-lemma checkers -----------------------------------------

class DetIdealChecker:
    """Congruence tester modulo Y and the sandwiched dfrak^(1) span."""

    def __init__(self, n, r, s):
        self.quot = quotient(n, r, s)
        self.ech = Echelon()
        for g in _sandwiches([det_frak(1, n)], n, r, s):
            self.ech.insert(self.quot.residual(g))

    def congruent_zero(self, a):
        return self.ech.contains(self.quot.residual(a))


@functools.cache
def det_ideal_checker(n, r, s):
    return DetIdealChecker(n, r, s)


def minor_pair(r_vec, cols, s_vec, cols_star):
    """(r_vec | cols)_r * (s_vec | cols_star)*_r as a mixed element."""
    left = quantum_minor_right(r_vec, cols)
    right = quantum_minor_right(s_vec, cols_star, qexp=-1)
    return mixed_multiply(MixedElem.from_plain(left),
                          MixedElem.from_starred(right))


def check_straightening_shift(n, r_vec, s_vec, j, k):
    """First straightening congruence.

    sum over j < j_1 < ... < j_k of (r|j_k..j_1)(s|j_1..j_k)* is congruent
    to (-1)^k q^(k(k-1)) times the same sum over j_1 < ... < j_k <= j,
    modulo the sandwiched dfrak^(1) span.
    """
    eps = LaurentPoly.q(k * (k - 1), (-1) ** k)
    diff = {}
    for jt in itertools.combinations(range(j + 1, n + 1), k):
        accumulate(diff, minor_pair(r_vec, jt[::-1], s_vec, jt).terms.items())
    for jt in itertools.combinations(range(1, j + 1), k):
        accumulate(diff, minor_pair(r_vec, jt[::-1], s_vec, jt).terms.items(),
                   -eps)
    return det_ideal_checker(n, k, k).congruent_zero(
        MixedElem(diff, normalized=True))


def violating_instance_data(n, r_prime, s_prime):
    """Derive (I, L1, L2, C, D, k) from a violating one-row bitableau.

    r_prime and s_prime are strictly increasing tuples whose maximal entry
    i is the minimal index violating the standardness count condition.
    """
    set_r, set_s = set(r_prime), set(s_prime)
    i = max(set_r | set_s)
    common = sorted(set_r & set_s)
    if i not in set_r & set_s:
        raise ValueError("maximal entry must appear on both sides")

    def first(t):
        return sum(1 for x in r_prime if x <= t) + \
            sum(1 for x in s_prime if x <= t)

    if first(i) <= i or any(first(t) > t for t in range(1, i)):
        raise ValueError("maximal entry must be the minimal violation")
    k = len(common)
    L1 = sorted(set_r - set_s)
    L2 = sorted(set_s - set_r)
    D = sorted(set(common) | set(range(i, n + 1)))
    C = sorted(set(range(1, n + 1)) - set(D) - set(L1) - set(L2))
    return i, common, L1, L2, C, D, k


def check_straightening_vanishing(n, r_prime, s_prime, r_vec, s_vec):
    """Second straightening congruence: the weighted sum vanishes.

    The index data is derived from the violating one-row pair (r_prime,
    s_prime); r_vec and s_vec are arbitrary row multi-indices of matching
    lengths.
    """
    _, common, L1, L2, C, D, k = violating_instance_data(n, r_prime, s_prime)
    if len(r_vec) != len(r_prime) or len(s_vec) != len(s_prime):
        raise ValueError("row multi-index lengths must match")
    total = {}
    for jt in itertools.combinations(D, k):
        m = sum(1 for jl in jt for c in C if jl < c)
        term = minor_pair(r_vec, (*L1, *jt[::-1]), s_vec, (*jt, *L2))
        accumulate(total, term.terms.items(), LaurentPoly.q(2 * m))
    return det_ideal_checker(n, len(r_vec), len(s_vec)).congruent_zero(
        MixedElem(total, normalized=True))
