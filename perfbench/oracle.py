"""Independent oracle for the benchmark's checks.

Nothing here imports qschur.  The dimensions come from classical formulas
and the expansions are checked by specialising q = 1 and evaluating on
integer matrices with exact fractions:

* the mixed tensor space V^r (x) V*^s of gl_n decomposes into the rational
  irreducibles L[lam, mu] with lam |- r-k, mu |- s-k, k <= min(r, s) and
  len(lam) + len(mu) <= n; its centraliser algebra, the image of U(gl_n),
  the standard rational bitableaux and the coefficient quotient all have
  dimension sum (dim L[lam, mu])^2, with dim L from the Weyl formula;
* the ordinary Schur algebra S(n, m) has dimension C(n^2 + m - 1, m);
* at q = 1 the quantum matrix algebra is the polynomial ring in the x_ij,
  a quantum minor is the ordinary minor, and the starred generators of the
  mixed algebra become the entries of X^-T (the cross relations say
  X X*^T = 1), so x*_ij -> (X^-1)_ji; iota sends x*_ij to the signed
  complementary minor, which at q = 1 is the cofactor det(X) (X^-1)_ji.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, prod


# -- dimensions ----------------------------------------------------------

def partitions(m, max_len):
    """Partitions of m with at most max_len parts, as tuples."""
    def gen(rest, largest, slots):
        if rest == 0:
            yield ()
            return
        if slots == 0:
            return
        for first in range(min(rest, largest), 0, -1):
            for tail in gen(rest - first, first, slots - 1):
                yield (first,) + tail
    return list(gen(m, m, max_len))


def weyl_dim(weight):
    """Dimension of the gl_n irreducible with a nonincreasing weight."""
    n = len(weight)
    num = den = 1
    for i in range(n):
        for j in range(i + 1, n):
            num *= weight[i] - weight[j] + j - i
            den *= j - i
    return num // den


def rational_irreducibles(n, r, s):
    """(k, lam, mu) for every L[lam, mu] occurring in V^r (x) V*^s."""
    out = []
    for k in range(min(r, s) + 1):
        for lam in partitions(r - k, n):
            for mu in partitions(s - k, n - len(lam)):
                out.append((k, lam, mu))
    return out


def rational_dim(n, lam, mu):
    """dim L[lam, mu]: highest weight (lam, 0, ..., 0, -reversed(mu))."""
    zeros = (0,) * (n - len(lam) - len(mu))
    return weyl_dim(lam + zeros + tuple(-x for x in reversed(mu)))


def rational_tableaux_count(n, r, s):
    """Number of standard rational tableaux of degree (r, s)."""
    return sum(rational_dim(n, lam, mu)
               for _, lam, mu in rational_irreducibles(n, r, s))


def mixed_space_dim(n, r, s):
    """The common value of the four dimensions of the paper's theorem."""
    return sum(rational_dim(n, lam, mu) ** 2
               for _, lam, mu in rational_irreducibles(n, r, s))


def schur_algebra_dim(n, m):
    """dim S(n, m) = dim of the degree-m part of the coordinate ring."""
    return comb(n * n + m - 1, m)


# -- exact matrices --------------------------------------------------------

def det(rows):
    """Determinant of a square matrix of Fractions (the empty one is 1)."""
    a = [list(map(Fraction, row)) for row in rows]
    n = len(a)
    sign = 1
    for c in range(n):
        piv = next((t for t in range(c, n) if a[t][c] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != c:
            a[c], a[piv] = a[piv], a[c]
            sign = -sign
        for t in range(c + 1, n):
            f = a[t][c] / a[c][c]
            if f:
                for u in range(c, n):
                    a[t][u] -= f * a[c][u]
    return sign * prod((a[c][c] for c in range(n)), start=Fraction(1))


def inverse(rows):
    """Inverse of an invertible square matrix, by Gauss-Jordan."""
    n = len(rows)
    a = [list(map(Fraction, row)) + [Fraction(int(i == j)) for j in range(n)]
         for i, row in enumerate(rows)]
    for c in range(n):
        piv = next(t for t in range(c, n) if a[t][c] != 0)
        a[c], a[piv] = a[piv], a[c]
        p = a[c][c]
        a[c] = [v / p for v in a[c]]
        for t in range(n):
            if t != c and a[t][c]:
                f = a[t][c]
                a[t] = [v - f * w for v, w in zip(a[t], a[c])]
    return [row[n:] for row in a]


def random_invertible(rng, n):
    """A random invertible n x n matrix with nonzero entries in -7..7.

    Nonzero entries keep small minors from vanishing by accident, which
    would hide a wrong coefficient from the q = 1 check.
    """
    entries = [v for v in range(-7, 8) if v]
    while True:
        x = [[rng.choice(entries) for _ in range(n)] for _ in range(n)]
        if det(x) != 0:
            return x


class Point:
    """A matrix X with the q = 1 images of the plain and starred generators."""

    def __init__(self, x):
        self.x = [list(map(Fraction, row)) for row in x]
        inv = inverse(self.x)
        n = len(x)
        self.xstar = [[inv[j][i] for j in range(n)] for i in range(n)]
        self.det = det(self.x)


def minor(mat, rows, cols):
    """Ordinary minor with 1-based row and column indices."""
    return det([[mat[i - 1][j - 1] for j in cols] for i in rows])


def bideterminant(mat, left_rows, right_rows):
    """(t | t') at q = 1: the product of the row-pair minors."""
    return prod((minor(mat, a, b) for a, b in zip(left_rows, right_rows)),
                start=Fraction(1))


def laurent_at_one(coeff):
    """A Laurent polynomial in the CLI's JSON form, evaluated at q = 1."""
    return sum(int(c) for c in coeff.values())


def word_value(mat, word):
    return prod((mat[i - 1][j - 1] for i, j in word), start=Fraction(1))


def plain_value(elem, pt):
    """An ordinary element [{"word", "coeff"}] at X."""
    return sum((laurent_at_one(t["coeff"]) * word_value(pt.x, t["word"])
                for t in elem), Fraction(0))


def mixed_value(elem, pt):
    """A mixed element [{"plain", "starred", "coeff"}] at (X, X^-T)."""
    return sum((laurent_at_one(t["coeff"]) * word_value(pt.x, t["plain"])
                * word_value(pt.xstar, t["starred"]) for t in elem),
               Fraction(0))


def ordinary_expansion_value(terms, pt):
    """sum of coeff(1) (t | t') over straighten/iota output terms."""
    return sum((laurent_at_one(t["coeff"])
                * bideterminant(pt.x, t["left"]["rows"], t["right"]["rows"])
                for t in terms), Fraction(0))


def rational_expansion_value(terms, pt):
    """sum of coeff(1) (rt | rt') over rational straightening terms.

    The rational bideterminant is (left | left') dfrak^(k) (right | right')*;
    dfrak^(k) is 1 at q = 1 and the starred half is a minor of X^-T.
    """
    total = Fraction(0)
    for t in terms:
        lt, rt = t["left"], t["right"]
        total += (laurent_at_one(t["coeff"])
                  * bideterminant(pt.x, lt["left"]["rows"],
                                  rt["left"]["rows"])
                  * bideterminant(pt.xstar, lt["right"]["rows"],
                                  rt["right"]["rows"]))
    return total


# -- tableau and coefficient properties ------------------------------------

def is_laurent_json(coeff):
    """A nonzero element of Z[q, q^-1]: int exponent -> nonzero int."""
    if not isinstance(coeff, dict) or not coeff:
        return False
    try:
        for exp, c in coeff.items():
            int(exp)
            if int(c) == 0:
                return False
    except (TypeError, ValueError):
        return False
    return True


def is_standard(tab, n):
    """Rows strictly increasing, columns weakly increasing, entries in 1..n."""
    rows = tab["rows"]
    shape = tab["shape"]
    if [len(r) for r in rows] != list(shape) or \
            any(a < b for a, b in zip(shape, shape[1:])) or 0 in shape:
        return False
    if any(not 1 <= x <= n for row in rows for x in row):
        return False
    if any(a >= b for row in rows for a, b in zip(row, row[1:])):
        return False
    return all(lo >= up for upper, lower in zip(rows, rows[1:])
               for up, lo in zip(upper, lower))


def is_standard_rational(rtab, n):
    """Both halves standard, and for each i at most i entries <= i in the
    two first rows together."""
    left, right = rtab["left"], rtab["right"]
    if not (is_standard(left, n) and is_standard(right, n)):
        return False
    firsts = [x for half in (left, right) for x in
              (half["rows"][0] if half["rows"] else [])]
    return all(sum(1 for x in firsts if x <= i) <= i
               for i in range(1, n + 1))


def ordinary_term_ok(term, n, degree):
    """A same-shape standard pair of the given size with a Laurent coeff."""
    left, right = term["left"], term["right"]
    return (is_laurent_json(term["coeff"]) and left["shape"] == right["shape"]
            and sum(left["shape"]) == degree
            and is_standard(left, n) and is_standard(right, n))


def rational_term_ok(term, n, r, s):
    """A same-shape standard rational pair of degree (r, s)."""
    k, lt, rt = term["k"], term["left"], term["right"]
    return (is_laurent_json(term["coeff"]) and 0 <= k <= min(r, s)
            and lt["left"]["shape"] == rt["left"]["shape"]
            and lt["right"]["shape"] == rt["right"]["shape"]
            and sum(lt["left"]["shape"]) == r - k
            and sum(lt["right"]["shape"]) == s - k
            and is_standard_rational(lt, n) and is_standard_rational(rt, n))


def distinct_terms(terms):
    """No basis element may appear twice in one expansion."""
    keys = [repr((t.get("k"), t["left"], t["right"])) for t in terms]
    return len(set(keys)) == len(keys)

