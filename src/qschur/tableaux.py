"""Partitions, (rational) tableaux and multi-indices.

Conventions used throughout the package:

* A shape is a plain tuple of positive, weakly decreasing parts.  A
  tableau is built from its rows alone, and its shape is their lengths.
* A tableau is *standard* when every row strictly increases left to right
  and every column is nondecreasing downward.
* A rational tableau is a pair (left, right) of tableaux with shapes
  (rho, sigma) satisfying rho_1 + sigma_1 <= n; it is *standard* when both
  halves are standard and first_counts(., i) <= i for all i = 1..n.
* Enumeration orders are deterministic: shapes in reverse-lexicographic
  (descending) order, tableau entries row-major lexicographic ascending.
"""

from __future__ import annotations

import itertools


def _partition(parts):
    """parts as a tuple; ValueError unless positive and weakly decreasing."""
    parts = tuple(parts)
    if any(p <= 0 for p in parts) or \
            any(a < b for a, b in zip(parts, parts[1:])):
        raise ValueError("a shape has positive, weakly decreasing parts")
    return parts


def partitions(m, max_part=None):
    """Partitions of m with parts <= max_part: tuples, lex-descending."""
    if max_part is None:
        max_part = m
    if m == 0:
        yield ()
        return
    for first in range(min(m, max_part), 0, -1):
        for rest in partitions(m - first, first):
            yield (first,) + rest


class Tableau:
    """A filling of a Young diagram with entries in 1..n, built from its
    rows; its shape, the tuple of row lengths, must be a partition."""

    __slots__ = ("shape", "rows", "_hash")

    def __init__(self, rows):
        self.rows = tuple(tuple(int(x) for x in row) for row in rows)
        self.shape = _partition(len(row) for row in self.rows)
        self._hash = hash(self.rows)

    def size(self):
        return sum(self.shape)

    def entries(self):
        return [x for row in self.rows for x in row]

    def __eq__(self, other):
        if not isinstance(other, Tableau):
            return NotImplemented
        return self.rows == other.rows

    def __hash__(self):
        return self._hash

    def __lt__(self, other):
        if not isinstance(other, Tableau):
            return NotImplemented
        return self.rows < other.rows

    def __repr__(self):
        return "Tableau[" + "|".join("".join(map(str, r)) for r in self.rows) + "]"

    def to_json(self):
        return {"shape": list(self.shape),
                "rows": [list(r) for r in self.rows]}


def is_standard(t):
    """Rows strictly increasing, columns nondecreasing downward."""
    for row in t.rows:
        if any(row[i] >= row[i + 1] for i in range(len(row) - 1)):
            return False
    for r in range(len(t.rows) - 1):
        upper, lower = t.rows[r], t.rows[r + 1]
        if any(lower[c] < upper[c] for c in range(len(lower))):
            return False
    return True


def enumerate_standard(shape, n):
    """All standard fillings of shape with entries in 1..n, entry-lex order.

    Zero parts of shape are dropped; a negative or increasing part raises
    ValueError.
    """
    shape = _partition(int(p) for p in shape if p)
    if shape and shape[0] > n:
        return []
    out = []
    rows_so_far = []

    def fill(r):
        if r == len(shape):
            out.append(Tableau(rows_so_far))
            return
        width = shape[r]
        floor = rows_so_far[r - 1] if r else (1,) * width
        for row in itertools.combinations(range(1, n + 1), width):
            if all(row[c] >= floor[c] for c in range(width)):
                rows_so_far.append(row)
                fill(r + 1)
                rows_so_far.pop()

    fill(0)
    return out


class RationalTableau:
    """A pair of tableaux (left, right) of shapes (rho, sigma)."""

    __slots__ = ("left", "right")

    def __init__(self, left, right):
        self.left = left
        self.right = right

    def shapes(self):
        return self.left.shape, self.right.shape

    def __eq__(self, other):
        if not isinstance(other, RationalTableau):
            return NotImplemented
        return self.left == other.left and self.right == other.right

    def __hash__(self):
        return hash((self.left, self.right))

    def __repr__(self):
        return f"RationalTableau({self.left!r}, {self.right!r})"

    def to_json(self):
        return {"left": self.left.to_json(), "right": self.right.to_json()}


def first_counts(rt, i):
    """Entries <= i in the first rows of both halves, counted together."""
    total = 0
    if rt.left.rows:
        total += sum(1 for x in rt.left.rows[0] if x <= i)
    if rt.right.rows:
        total += sum(1 for x in rt.right.rows[0] if x <= i)
    return total


def is_standard_rational(rt, n):
    if not (is_standard(rt.left) and is_standard(rt.right)):
        return False
    return all(first_counts(rt, i) <= i for i in range(1, n + 1))


def enumerate_standard_rational(n, r, s):
    """All standard rational tableaux for the mixed degree (r, s).

    Returns (k, RationalTableau) pairs with the left shape a partition of
    r-k and the right shape of s-k; k descends from min(r, s) to 0, shape
    pairs are lex-descending and entries row-major lexicographic.
    """
    out = []
    for k in range(min(r, s), -1, -1):
        for rho in partitions(r - k, n):
            for sigma in partitions(s - k, n):
                if rho and sigma and rho[0] + sigma[0] > n:
                    continue
                for left in enumerate_standard(rho, n):
                    for right in enumerate_standard(sigma, n):
                        rt = RationalTableau(left, right)
                        if is_standard_rational(rt, n):
                            out.append((k, rt))
    return out


def rational_to_ordinary(rt, n, s):
    """The standard tableau encoding a standard rational tableau.

    Row i (for i <= s) is the complement in {1..n} of row s+1-i of the
    right half (missing rows count as empty); rows below the s-th are the
    rows of the left half.  The resulting shape lam satisfies
    sum(lam[:s]) >= (n-1)*s.
    """
    if not is_standard_rational(rt, n):
        raise ValueError("input must be a standard rational tableau")
    rows = []
    right_rows = rt.right.rows
    for i in range(1, s + 1):
        j = s - i  # 0-based index of right row s+1-i
        occupied = set(right_rows[j]) if j < len(right_rows) else set()
        rows.append(tuple(x for x in range(1, n + 1) if x not in occupied))
    rows.extend(rt.left.rows)
    # a full right-half row has an empty complement; such rows are trailing
    return Tableau(row for row in rows if row)


def ordinary_to_rational(t, n, s):
    """Inverse of rational_to_ordinary."""
    if sum(t.shape[:s]) < (n - 1) * s:
        raise ValueError("shape does not satisfy the rational condition")
    right_rows = []
    for j in range(s, 0, -1):  # right row j from tableau row s+1-j
        row = t.rows[s - j] if s - j < len(t.rows) else ()
        comp = tuple(x for x in range(1, n + 1) if x not in set(row))
        right_rows.append(comp)
    # right rows were built top-down (j = s..1 gives rows s..1); reorder
    right_rows.reverse()
    while right_rows and not right_rows[-1]:
        right_rows.pop()
    return RationalTableau(Tableau(t.rows[s:]), Tableau(right_rows))


# -- multi-indices ------------------------------------------------------

def multi_indices(n, m):
    """All m-tuples over 1..n, lexicographic."""
    return list(itertools.product(range(1, n + 1), repeat=m))


def weight(idx, n):
    """Multiplicity vector of a multi-index."""
    w = [0] * n
    for x in idx:
        w[x - 1] += 1
    return tuple(w)


def inversions(seq):
    """Inversion count of an integer sequence."""
    return sum(1 for a in range(len(seq)) for b in range(a + 1, len(seq))
               if seq[a] > seq[b])
