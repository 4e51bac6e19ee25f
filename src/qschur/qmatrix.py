"""The quantum matrix algebra of n x n quantum matrices.

Elements are sparse sums of words in the generators x_ij with Laurent
coefficients.  Words are kept in a normal form: letters (i, j) sorted
nondecreasing in row-major lexicographic order, reached by the oriented
rewrite rules

    x_ij x_il -> q^-1 x_il x_ij              (same row,    j > l)
    x_ij x_kj -> q^-1 x_kj x_ij              (same column, i > k)
    x_ij x_kl -> x_kl x_ij                   (i > k, j < l)
    x_ij x_kl -> x_kl x_ij - (q - q^-1) x_kj x_il   (i > k, j > l)

The system is confluent (its sorted words are a PBW basis), so any order
of reduction reaches the same normal form.  A word is normalized by
insertion: its sorted prefix, then one letter at a time into each normal
word so far.  No rule makes a letter above the larger one it rewrites, so
for u = head y with y > x, NF(u x) = c NF(head x) y, plus the extra term's
NF(NF(head x_kj) x_il) when i > k, j > l; the pairs (u, x) are memoized.

The twisted variant with q replaced by q^-1 throughout (used for the
starred generators of the mixed algebra) is obtained by flipping a single
parameter.
"""

from __future__ import annotations

import functools
import itertools

from .laurent import LaurentPoly, ONE, neg_q_power
from .linalg import SparseSum, UnitSolver, accumulate
from .tableaux import enumerate_standard, partitions, inversions, weight


class Rewriter:
    """Rewrites words of (i, j) letters to sorted normal form.

    qexp = +1 gives the plain algebra, qexp = -1 the q -> q^-1 twist.
    """

    def __init__(self, qexp=1):
        self.swap_coeff = LaurentPoly.q(-qexp)          # q^-1 (or q)
        self.extra_coeff = -(LaurentPoly.q(qexp) - LaurentPoly.q(-qexp))
        self.cache = {}     # word asked for -> its normal form
        self.inserts = {}   # (normal word u, letter x < u[-1]) -> NF(u x)

    def normal_word(self, word):
        """Normal form of a single word as a dict normal-word -> coeff.

        The result is cached and shared: do not modify it.
        """
        hit = self.cache.get(word)
        if hit is not None:
            return hit
        p = 1
        while p < len(word) and word[p - 1] <= word[p]:
            p += 1
        result = {word[:p]: ONE}
        for x in word[p:]:
            out = {}
            for u, c in result.items():
                accumulate(out, self._insert(u, x).items(), c)
            result = out
        self.cache[word] = result
        return result

    def _insert(self, u, x):
        """Normal form of u x for a normal word u and a letter x."""
        if not u or u[-1] <= x:
            return {u + (x,): ONE}
        hit = self.inserts.get((u, x))
        if hit is not None:
            return hit
        head, y = u[:-1], u[-1]
        (i, j), (k, l) = y, x
        # y x -> c x y (+ extra (k, j)(i, l)); no rule makes a letter above
        # the larger one it rewrites, so every word of NF(head x) is <= y
        c = self.swap_coeff if i == k or j == l else ONE
        result = accumulate({}, ((w + (y,), v) for w, v
                                 in self._insert(head, x).items()), c)
        if i > k and j > l:
            for w, v in self._insert(head, (k, j)).items():
                accumulate(result, self._insert(w, (i, l)).items(),
                           v * self.extra_coeff)
        self.inserts[u, x] = result
        return result

    def normal_form(self, terms):
        """Normal form of a word -> coeff dict."""
        result = {}
        for word, coeff in terms.items():
            if not coeff.is_zero():
                accumulate(result, self.normal_word(word).items(), coeff)
        return result


PLAIN = Rewriter(1)
STARRED = Rewriter(-1)


class AlgebraElem(SparseSum):
    """An element of the quantum matrix algebra in normal-form coordinates."""

    __slots__ = ()

    def __init__(self, terms=None, rewriter=PLAIN, normalized=False):
        terms = terms or {}
        if not normalized:
            terms = rewriter.normal_form(terms)
        self.terms = terms

    @staticmethod
    def one():
        return AlgebraElem({(): ONE}, normalized=True)

    @staticmethod
    def generator(i, j):
        return AlgebraElem({((i, j),): ONE}, normalized=True)

    def degree(self):
        """Degree if homogeneous, else raise."""
        degs = {len(w) for w in self.terms}
        if len(degs) > 1:
            raise ValueError("inhomogeneous element")
        return degs.pop() if degs else 0

    def __repr__(self):
        if not self.terms:
            return "0"
        bits = []
        for w in sorted(self.terms):
            mono = "*".join(f"x{i}{j}" for i, j in w) or "1"
            bits.append(f"({self.terms[w]!r})*{mono}")
        return " + ".join(bits)

    def to_json(self):
        return [{"word": [list(letter) for letter in w],
                 "coeff": c.to_json()}
                for w, c in sorted(self.terms.items())]


def multiply(a, b, rewriter=PLAIN):
    """Product in the algebra (concatenate words, then normalize)."""
    t = {}
    for w1, c1 in a.terms.items():
        accumulate(t, ((w1 + w2, c2) for w2, c2 in b.terms.items()), c1)
    return AlgebraElem(t, rewriter=rewriter)


def _sort_with_sign(seq, exp):
    """(sorted tuple, (-q^exp)^inversions) of an index list, or None.

    None signals a repeated index, which makes the minor vanish.
    """
    if len(set(seq)) != len(seq):
        return None
    inv = inversions(list(seq))
    return tuple(sorted(seq)), LaurentPoly.q(exp * inv, (-1) ** inv)


@functools.cache
def _quantum_minor(rows, cols, qexp, left):
    """The shared body of the right and left quantum minors, cached on the
    index tuples as given: the result is shared, so do not modify it."""
    if len(rows) != len(cols):
        raise ValueError("row and column lists must have equal length")
    rewriter = PLAIN if qexp == 1 else STARRED
    row_exp = qexp if left else -qexp
    sr = _sort_with_sign(rows, row_exp)
    sc = _sort_with_sign(cols, -row_exp)
    if sr is None or sc is None:
        return AlgebraElem.zero()
    (rows, sign_r), (cols, sign_c) = sr, sc
    sign = sign_r * sign_c
    terms = {}
    # the indices are distinct, so every permutation gives its own word
    for w in itertools.permutations(range(len(rows))):
        inv = inversions(list(w))
        if left:
            word = tuple(zip(rows, (cols[t] for t in w)))
        else:
            word = tuple(zip((rows[t] for t in w), cols))
        terms[word] = sign * LaurentPoly.q(qexp * inv, -1 if inv % 2 else 1)
    return AlgebraElem(terms, rewriter=rewriter)


def quantum_minor_right(rows, cols, qexp=1):
    """The right quantum minor with the given row and column indices.

    For increasing indices this is sum_w (-q)^{l(w)} x_{i_w(1) j_1} ...;
    a row swap contributes -q^-1 and a column swap -q (with q -> q^-1 when
    qexp = -1).  Repeated indices give zero.  The result is cached and
    shared: do not modify it.
    """
    return _quantum_minor(tuple(rows), tuple(cols), qexp, False)


def quantum_minor_left(rows, cols, qexp=1):
    """The left quantum minor: sum_w (-q)^{l(w)} x_{i_1 j_w(1)} ...

    Sign rules are mirrored: a row swap contributes -q, a column swap -q^-1.
    The result is cached and shared: do not modify it.
    """
    return _quantum_minor(tuple(rows), tuple(cols), qexp, True)


def quantum_det(n):
    """The quantum determinant (1..n | 1..n); central."""
    idx = list(range(1, n + 1))
    return quantum_minor_right(idx, idx)


def bideterminant(t, t2, qexp=1):
    """Product of right row minors, taken in reversed row order.

    The twisted (qexp = -1) variant multiplies in forward row order, which
    is the convention for the starred half of the mixed algebra.  A
    one-row result is the cached minor itself: do not modify it.
    """
    if t.shape != t2.shape:
        raise ValueError("bitableau halves must have equal shape")
    rewriter = PLAIN if qexp == 1 else STARRED
    rows = list(zip(t.rows, t2.rows))
    if qexp == 1:
        rows.reverse()
    minors = [quantum_minor_right(row, row2, qexp=qexp) for row, row2 in rows]
    if not minors:
        return AlgebraElem.one()
    result = minors[0]
    for minor in minors[1:]:
        result = multiply(result, minor, rewriter=rewriter)
    return result


def laplace_expand(rows, cols, l, form):
    """Signed shuffle expansion of a minor split at position l.

    form 1 splits the rows and shuffles the columns (left minors); form 2
    splits the columns and shuffles the rows (right minors).  Returns a
    list of (coeff, (rows1, cols1), (rows2, cols2)).
    """
    k = len(rows)
    if len(cols) != k or not 0 < l < k + 1:
        raise ValueError("bad split")
    shuffled = cols if form == 1 else rows
    fixed = rows if form == 1 else cols
    if list(shuffled) != sorted(shuffled):
        raise ValueError("shuffled index list must be strictly increasing")
    out = []
    for pick in itertools.combinations(range(k), l):
        rest = [t for t in range(k) if t not in pick]
        order = list(pick) + rest
        coeff = neg_q_power(inversions(order))
        first = [shuffled[t] for t in pick]
        second = [shuffled[t] for t in rest]
        if form == 1:
            out.append((coeff, (list(fixed[:l]), first),
                        (list(fixed[l:]), second)))
        else:
            out.append((coeff, (first, list(fixed[:l])),
                        (second, list(fixed[l:]))))
    return out


def monomial_basis(n, m):
    """All normal words of degree m: multisets of letters, sorted."""
    letters = [(i, j) for i in range(1, n + 1) for j in range(1, n + 1)]
    return list(itertools.combinations_with_replacement(letters, m))


def word_content(word, n):
    """(row content, column content) of a word."""
    a = [0] * n
    b = [0] * n
    for i, j in word:
        a[i - 1] += 1
        b[j - 1] += 1
    return tuple(a), tuple(b)


def standard_bitableaux(n, m):
    """All pairs of standard tableaux of a common shape of size m."""
    out = []
    for lam in partitions(m, n):
        tabs = enumerate_standard(lam, n)
        for t in tabs:
            for t2 in tabs:
                out.append((t, t2))
    return out


@functools.cache
def _standard_by_content(lam, n):
    """The standard tableaux of shape lam, grouped by content."""
    groups = {}
    for t in enumerate_standard(lam, n):
        groups.setdefault(weight(t.entries(), n), []).append(t)
    return groups


class _StraightenCache:
    """Per-(n, content-pair) unit-pivot solvers for the standard basis.

    Each block is square and unimodular over Z[q,q^-1]; building its
    solver without an AssertionError certifies that.
    """

    def __init__(self):
        self.solvers = {}

    def solver(self, n, alpha, beta):
        key = (n, alpha, beta)
        hit = self.solvers.get(key)
        if hit is not None:
            return hit
        index = []
        solver = UnitSolver()
        for lam in partitions(sum(alpha), n):
            groups = _standard_by_content(lam, n)
            for t in groups.get(alpha, ()):
                for t2 in groups.get(beta, ()):
                    solver.insert(bideterminant(t, t2).terms)
                    index.append((t, t2))
        result = (index, solver)
        self.solvers[key] = result
        return result


_STRAIGHTEN = _StraightenCache()


def straighten(a, n):
    """Expand a homogeneous element over the standard bideterminant basis.

    Returns a dict (t, t2) -> LaurentPoly: every block is unimodular over
    Z[q,q^-1].  The expansion exists and is unique; failure to solve
    signals a bug.
    """
    a.degree()  # raises on inhomogeneous input
    blocks = {}
    for w, c in a.terms.items():
        blocks.setdefault(word_content(w, n), {})[w] = c
    out = {}
    for (alpha, beta), vec in blocks.items():
        index, solver = _STRAIGHTEN.solver(n, alpha, beta)
        combo = solver.solve(vec)
        if combo is None:
            raise AssertionError("element outside the standard-basis span")
        # blocks have disjoint standard pairs, so nothing adds up here
        out.update((index[pos], coeff) for pos, coeff in combo.items())
    return out
