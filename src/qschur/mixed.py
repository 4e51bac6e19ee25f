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
from .linalg import (Echelon, RationalFn, SparseSum, accumulate,
                     clear_denominators)
from .qmatrix import (AlgebraElem, PLAIN, STARRED, bideterminant,
                      monomial_basis, multiply, quantum_det,
                      quantum_minor_right, straighten)
from .tableaux import (enumerate_standard_rational, ordinary_to_rational,
                       rational_to_ordinary)


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

    @staticmethod
    def from_json(obj):
        terms = accumulate({}, (((tuple(tuple(x) for x in item["plain"]),
                                  tuple(tuple(x) for x in item["starred"])),
                                 LaurentPoly.from_json(item["coeff"]))
                                for item in obj))
        return MixedElem(terms)


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
            terms = {}
            for k in range(1, n + 1):
                key = (((k, i),), ((k, i),))
                terms[key] = terms.get(key, LaurentPoly.zero()) \
                    + LaurentPoly.q(2 * k - 2 * i)
                key = (((j, k),), ((j, k),))
                terms[key] = terms.get(key, LaurentPoly.zero()) \
                    + LaurentPoly.from_int(-1)
            cores.append(MixedElem(terms))
    return [c for c in cores if not c.is_zero()]


def cross_relation_generators(n, r, s):
    """All sandwiched relation elements h1 * core * h3 of bidegree (r, s)."""
    if r < 1 or s < 1:
        return []
    cores = cross_relation_cores(n)
    out = []
    for pw in monomial_basis(n, r - 1):
        h1 = MixedElem({(pw, ()): ONE}, normalized=True)
        for sw in monomial_basis(n, s - 1):
            h3 = MixedElem({((), sw): ONE}, normalized=True)
            for core in cores:
                g = mixed_multiply(mixed_multiply(h1, core), h3)
                if not g.is_zero():
                    out.append(g)
    return out


def _grade(word, n):
    """(row, column) content difference between the halves; Y-invariant."""
    row = [0] * n
    col = [0] * n
    pw, sw = word
    for i, j in pw:
        row[i - 1] += 1
        col[j - 1] += 1
    for i, j in sw:
        row[i - 1] -= 1
        col[j - 1] -= 1
    return tuple(row), tuple(col)


class MixedQuotient:
    """The bidegree-(r, s) component modulo the relation span Y.

    The relation span decomposes along the content-difference grading, so
    it is echelonized blockwise; coordinates of a coset are the canonical
    residual of any representative.
    """

    def __init__(self, n, r, s):
        self.n, self.r, self.s = n, r, s
        self.words = [(pw, sw) for pw in monomial_basis(n, r)
                      for sw in monomial_basis(n, s)]
        self.blocks = {}
        for g in cross_relation_generators(n, r, s):
            grades = {_grade(w, n) for w in g.terms}
            if len(grades) != 1:
                raise AssertionError("relation generator is not graded")
            ech = self.blocks.setdefault(grades.pop(), Echelon())
            ech.insert(dict(g.terms))

    def dimension(self):
        return len(self.words) - sum(e.rank for e in self.blocks.values())

    def coords(self, a):
        """Canonical coset coordinates: dict word -> RationalFn."""
        parts = {}
        for w, c in a.terms.items():
            parts.setdefault(_grade(w, self.n), {})[w] = c
        out = {}
        for grade, vec in parts.items():
            # a grade without relations reduces against an empty echelon
            out.update((self.blocks.get(grade) or Echelon()).coords(vec))
        return out

    def is_coset_zero(self, a):
        return not self.coords(a)


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


def check_detk(n, k):
    """The three sandwich congruences around dfrak^(k) in bidegree (k+1, k+1).

    For all i != j the sandwiches sum_l x_il dfrak^(k) x*_jl and
    sum_l q^(2l) x_li dfrak^(k) x*_lj vanish in the quotient, and for all
    i, j the diagonal sandwiches sum_l q^(2l-2i) x_li dfrak^(k) x*_li and
    sum_l x_jl dfrak^(k) x*_jl are congruent to each other.
    """
    d = det_frak(k, n)
    quot = quotient(n, k + 1, k + 1)

    def sandwich_pair(row_side, i, j, weight_exp):
        # index i on the plain letter, j on the starred one
        terms = {}
        for (pw, sw), c in d.terms.items():
            for l in range(1, n + 1):
                lp = (i, l) if row_side else (l, i)
                ls = (j, l) if row_side else (l, j)
                accumulate(terms, [(((lp,) + pw, sw + (ls,)),
                                    LaurentPoly.q(weight_exp(l)))], c)
        return terms

    for i in range(1, n + 1):
        for j in range(1, n + 1):
            if i == j:
                continue
            if not quot.is_coset_zero(MixedElem(
                    sandwich_pair(True, i, j, lambda l: 0))):
                return False
            if not quot.is_coset_zero(MixedElem(
                    sandwich_pair(False, i, j, lambda l: 2 * l))):
                return False
    diag = [MixedElem(sandwich_pair(False, i, i, lambda l, i=i: 2 * l - 2 * i))
            for i in range(1, n + 1)]
    diag += [MixedElem(sandwich_pair(True, j, j, lambda l: 0))
             for j in range(1, n + 1)]
    return all(quot.is_coset_zero(diag[0] - other) for other in diag[1:])


def starred_bideterminant(t, t2):
    """The starred bideterminant (forward row order, q -> q^-1 minors)."""
    return MixedElem.from_starred(bideterminant(t, t2, qexp=-1))


@functools.cache
def rational_bideterminant(rt, rt2, k, n):
    """(left|left') dfrak^(k) (right|right')* for same-shape rational pairs.

    The result is cached and shared (phi, c_exponent and the rational
    basis each meet the same elements): do not modify it.
    """
    if rt.shapes() != rt2.shapes():
        raise ValueError("rational bitableau halves must have equal shapes")
    left = MixedElem.from_plain(bideterminant(rt.left, rt2.left))
    right = starred_bideterminant(rt.right, rt2.right)
    return mixed_multiply(mixed_multiply(left, det_frak(k, n)), right)


# -- the embedding iota --------------------------------------------------

@functools.cache
def iota_starred_letter(i, j, n):
    """iota(x*_ij) = (-q)^(j-i) (1..i^..n | 1..j^..n)."""
    rows = [t for t in range(1, n + 1) if t != i]
    cols = [t for t in range(1, n + 1) if t != j]
    return quantum_minor_right(rows, cols).scale(neg_q_power(j - i))


def iota(a, n):
    """Substitute each starred letter by its signed complementary minor."""
    out = AlgebraElem.zero()
    cache = {}
    for (pw, sw), c in a.terms.items():
        img = cache.get(sw)
        if img is None:
            img = AlgebraElem.one()
            for i, j in sw:
                img = multiply(img, iota_starred_letter(i, j, n))
            cache[sw] = img
        out = out + multiply(AlgebraElem({pw: ONE}, normalized=True),
                             img).scale(c)
    return out


def jacobi_check(rows, cols, n):
    """Check the minor-complement identity for iota on a starred minor.

    Returns (exponent, complementary rows, complementary cols) and raises
    if iota((rows|cols)*) differs from
    (-q)^(sum(cols)-sum(rows)) det^(l-1) (rows'|cols').
    """
    rows, cols = list(rows), list(cols)
    if sorted(rows) != rows or sorted(cols) != cols:
        raise ValueError("indices must be strictly increasing")
    if len(set(rows)) != len(rows) or len(set(cols)) != len(cols):
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
    """(k, rt, rt2) for all same-shape standard rational pairs."""
    by_shape = {}
    for k, rt in enumerate_standard_rational(n, r, s):
        by_shape.setdefault((k, rt.shapes()), []).append(rt)
    out = []
    for k in range(min(r, s), -1, -1):
        for (kk, shapes), tabs in by_shape.items():
            if kk != k:
                continue
            for rt in tabs:
                for rt2 in tabs:
                    out.append((k, rt, rt2))
    return out


class _RationalBasis:
    """The standard rational bideterminants, checked independent mod Y.

    An independent check of the basis theorem that does not use iota: the
    coset coordinates of the bideterminants, cleared of denominators, have
    full fraction-free Echelon rank.  index lists the (k, rt, rt2).
    """

    def __init__(self, n, r, s):
        quot = quotient(n, r, s)
        self.index = []
        ech = Echelon()
        for k, rt, rt2 in standard_rational_bitableaux(n, r, s):
            vec = quot.coords(rational_bideterminant(rt, rt2, k, n))
            if not ech.insert(clear_denominators(vec)):
                raise AssertionError(
                    "standard rational bideterminants must be independent")
            self.index.append((k, rt, rt2))


@functools.cache
def rational_basis(n, r, s):
    return _RationalBasis(n, r, s)


# -- c exponents, phi and rational straightening -------------------------

@functools.cache
def c_exponent(rt, rt2, k, n, r, s):
    """The exponent c with iota(rational bidet) = (-q)^c (t|t').

    Straightens the image, asserts it is a single standard bideterminant
    whose halves are the images of rt and rt2 under the tableau
    correspondence, and returns c.
    """
    img = iota(rational_bideterminant(rt, rt2, k, n), n)
    expansion = straighten(img, n)
    if len(expansion) != 1:
        raise AssertionError("iota image is not a single bideterminant")
    ((t, t2), coeff), = expansion.items()
    if t != rational_to_ordinary(rt, n, s) or \
            t2 != rational_to_ordinary(rt2, n, s):
        raise AssertionError("iota image tableaux do not match")
    if not coeff.is_unit():
        raise AssertionError(f"iota image coefficient not a unit: {coeff!r}")
    sign, c = coeff.unit_decompose()
    if sign != (-1) ** (c % 2):
        raise AssertionError("iota image coefficient is not a power of -q")
    return c


# _to_rational meets the same few tableaux in every expansion
_ordinary_to_rational = functools.cache(ordinary_to_rational)


def _to_rational(expansion, n, r, s):
    """Map a standard bideterminant expansion to rational bitableau pairs.

    (t|t') of shape lam with sum(lam[:s]) >= (n-1)s goes to the (k, rt, rt2)
    whose iota image is (-q)^c (t|t'), its coefficient times (-q)^(-c);
    other shapes are dropped.
    """
    out = {}
    for (t, t2), coeff in expansion.items():
        if sum(t.shape.parts[:s]) < (n - 1) * s:
            continue
        rt = _ordinary_to_rational(t, n, s)
        rt2 = _ordinary_to_rational(t2, n, s)
        k = r - rt.left.size()
        c = c_exponent(rt, rt2, k, n, r, s)
        out[(k, rt, rt2)] = coeff * neg_q_power(-c)
    return out


def phi(a, n, r, s):
    """The one-sided inverse of iota, as canonical coset coordinates.

    Straightens a homogeneous element of degree r+(n-1)s and sends each
    term that _to_rational keeps to its rational bideterminant's coset.
    """
    if not a.is_zero() and a.degree() != r + (n - 1) * s:
        raise ValueError("degree must be r + (n-1)s")
    quot = quotient(n, r, s)
    out = {}
    terms = _to_rational(straighten(a, n), n, r, s)
    for (k, rt, rt2), coeff in terms.items():
        # coset coordinates are RationalFn, which a LaurentPoly cannot scale
        accumulate(out, quot.coords(rational_bideterminant(
            rt, rt2, k, n)).items(), RationalFn(coeff))
    return out


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
        core = det_frak(1, n)
        for pw in monomial_basis(n, r - 1):
            h1 = MixedElem({(pw, ()): ONE}, normalized=True)
            for sw in monomial_basis(n, s - 1):
                h3 = MixedElem({((), sw): ONE}, normalized=True)
                g = mixed_multiply(mixed_multiply(h1, core), h3)
                row = clear_denominators(self.quot.coords(g))
                if row:
                    self.ech.insert(row)

    def congruent_zero(self, a):
        return self.ech.contains(clear_denominators(self.quot.coords(a)))


@functools.cache
def det_ideal_checker(n, r, s):
    return DetIdealChecker(n, r, s)


def minor_pair(r_vec, s_vec, j_tuple):
    """(r_vec | reversed j)_r * (s_vec | j)*_r as a mixed element."""
    left = quantum_minor_right(list(r_vec), list(reversed(j_tuple)))
    right = quantum_minor_right(list(s_vec), list(j_tuple), qexp=-1)
    return mixed_multiply(MixedElem.from_plain(left),
                          MixedElem.from_starred(right))


def check_straightening_shift(n, r_vec, s_vec, j, k):
    """First straightening congruence.

    sum over j < j_1 < ... < j_k of (r|j_k..j_1)(s|j_1..j_k)* is congruent
    to (-1)^k q^(k(k-1)) times the same sum over j_1 < ... < j_k <= j,
    modulo the sandwiched dfrak^(1) span.
    """
    lhs = MixedElem.zero()
    for jt in itertools.combinations(range(j + 1, n + 1), k):
        lhs = lhs + minor_pair(r_vec, s_vec, jt)
    rhs = MixedElem.zero()
    for jt in itertools.combinations(range(1, j + 1), k):
        rhs = rhs + minor_pair(r_vec, s_vec, jt)
    eps = LaurentPoly.q(k * (k - 1), (-1) ** k)
    diff = lhs - rhs.scale(eps)
    return det_ideal_checker(n, k, k).congruent_zero(diff)


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
    total = MixedElem.zero()
    for jt in itertools.combinations(D, k):
        m = sum(1 for jl in jt for c in C if jl < c)
        cols_left = tuple(L1) + tuple(reversed(jt))
        cols_right = tuple(jt) + tuple(L2)
        left = quantum_minor_right(list(r_vec), list(cols_left))
        right = quantum_minor_right(list(s_vec), list(cols_right), qexp=-1)
        term = mixed_multiply(MixedElem.from_plain(left),
                              MixedElem.from_starred(right))
        total = total + term.scale(LaurentPoly.q(2 * m))
    return det_ideal_checker(n, len(r_vec), len(s_vec)).congruent_zero(total)
