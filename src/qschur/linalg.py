"""Sparse exact linear algebra over Z[q,q^-1] and its fraction field.

Three engines are provided:

* :class:`Echelon` -- incremental fraction-free row reduction with
  Laurent-polynomial rows, used for ranks, nullities and canonical coset
  coordinates (no polynomial division ever happens during elimination).
  Its coset scale is a :class:`RationalFn`; that scale, met in
  ``mixed.MixedQuotient.coords``, ``mixed.phi`` and
  ``mixed.DetIdealChecker``, is the fraction field's only job in the
  package besides ``SpanSolver``.
* :class:`UnitSolver` -- reduced row echelon form over Z[q,q^-1] itself
  with combination tracking, for spanning sets whose transition matrix is
  unimodular: every pivot is a unit +-q^k, so no fraction ever appears.
  It is the engine of ordinary straightening, hence of rational
  straightening through iota, and of ``tensor.pi_restrict``.
* :class:`SpanSolver` -- reduced row echelon form over the fraction field
  with combination tracking.  It serves only :func:`mat_nullspace`, the
  nullspace basis over the fraction field.

Vectors are dicts from a sortable column key to a nonzero entry.  Every
sparse sum in the package is built with :func:`accumulate` (add a scaled
sequence of entries into a dict, dropping the entries that cancel), and
the element classes of the algebras and of tensor space share the
arithmetic of :class:`SparseSum`.
"""

from __future__ import annotations

from math import gcd

from .laurent import LaurentPoly, exact_div, laurent_divmod


def accumulate(acc, items, coeff=None):
    """Add coeff * v into acc[k] for each (k, v) of items; drop zeros.

    coeff None means 1.  acc is modified in place and returned.
    """
    get = acc.get
    for k, v in items:
        if coeff is not None:
            v = coeff * v
        t = get(k)
        if t is not None:
            v = t + v
        if v.is_zero():
            acc.pop(k, None)
        else:
            acc[k] = v
    return acc


class SparseSum:
    """A sparse sum: ``terms`` maps a key to a nonzero coefficient.

    Results are made by ``_make``, which wraps a dict that is already in
    normal form; subclasses with a normalizing constructor keep it for
    raw input.
    """

    __slots__ = ("terms",)

    @classmethod
    def _make(cls, terms):
        r = cls.__new__(cls)
        r.terms = terms
        return r

    @classmethod
    def zero(cls):
        return cls._make({})

    def is_zero(self):
        return not self.terms

    def __add__(self, other):
        return self._make(accumulate(dict(self.terms), other.terms.items()))

    def __neg__(self):
        return self._make({k: -v for k, v in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def scale(self, coeff):
        if isinstance(coeff, int):
            coeff = LaurentPoly.from_int(coeff)
        if coeff.is_zero():
            return self._make({})
        return self._make({k: coeff * v for k, v in self.terms.items()})

    def __eq__(self, other):
        if not isinstance(other, type(self)):
            return NotImplemented
        return self.terms == other.terms


class RationalFn:
    """A fraction num/den of Laurent polynomials, den != 0.

    Normalization: exact divisions are folded away when possible; otherwise
    the joint integer content and the q-power of the denominator are
    stripped and the sign is fixed by a positive leading denominator
    coefficient, so that equal fractions built along different routes still
    compare equal via cross multiplication.
    """

    __slots__ = ("num", "den")

    def __init__(self, num, den=None):
        if isinstance(num, int):
            num = LaurentPoly.from_int(num)
        if den is None:
            den = LaurentPoly.one()
        elif isinstance(den, int):
            den = LaurentPoly.from_int(den)
        if den.is_zero():
            raise ZeroDivisionError("zero denominator")
        if num.is_zero():
            self.num = LaurentPoly.zero()
            self.den = LaurentPoly.one()
            return
        if den.is_unit():
            s, k = den.unit_decompose()
            num = num.shift(-k)
            if s < 0:
                num = -num
            den = LaurentPoly.one()
        elif not den.is_one():
            try:
                quo, rem = laurent_divmod(num, den)
            except ValueError:
                quo, rem = None, None
            if rem is not None and rem.is_zero():
                num = quo
                den = LaurentPoly.one()
        if not den.is_one():
            g = gcd(num.content(), den.content())
            if g > 1:
                num = num.int_div(g)
                den = den.int_div(g)
            k = den.min_exp()
            if k:
                den = den.shift(-k)
                num = num.shift(-k)
            if den.terms[den.max_exp()] < 0:
                num, den = -num, -den
        self.num = num
        self.den = den

    @staticmethod
    def zero():
        return RationalFn(LaurentPoly.zero())

    @staticmethod
    def one():
        return RationalFn(LaurentPoly.one())

    def is_zero(self):
        return self.num.is_zero()

    def __add__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if self.den == other.den:
            return RationalFn(self.num + other.num, self.den)
        return RationalFn(self.num * other.den + other.num * self.den,
                          self.den * other.den)

    __radd__ = __add__

    def __neg__(self):
        r = RationalFn.__new__(RationalFn)
        r.num = -self.num
        r.den = self.den
        return r

    def __sub__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return RationalFn(self.num * other.num, self.den * other.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if other.num.is_zero():
            raise ZeroDivisionError("division by zero")
        return RationalFn(self.num * other.den, self.den * other.num)

    def inverse(self):
        return RationalFn(self.den, self.num)

    def __eq__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self.num * other.den == other.num * self.den

    def __hash__(self):
        # a Laurent value always has den == 1 and a canonical num; other
        # fractions are not canonical, so they share one hash
        return hash(self.num) if self.den.is_one() else hash(RationalFn)

    def __repr__(self):
        if self.den.is_one():
            return repr(self.num)
        return f"({self.num!r})/({self.den!r})"


def _coerce(x):
    if isinstance(x, RationalFn):
        return x
    if isinstance(x, LaurentPoly):
        return RationalFn(x)
    if isinstance(x, int):
        return RationalFn(LaurentPoly.from_int(x))
    return NotImplemented


def _strip_content(v):
    """Divide a Laurent row dict by its joint integer content; return (row, g)."""
    g = 0
    for p in v.values():
        g = gcd(g, p.content())
        if g == 1:
            return v, 1
    if g <= 1:
        return v, max(g, 1)
    return {c: p.int_div(g) for c, p in v.items()}, g


class Echelon:
    """Fraction-free reduced row echelon form over Z[q,q^-1].

    Rows are sparse dicts column-key -> LaurentPoly.  Maintained fully
    reduced: no row has an entry in another row's pivot column, so a single
    forward pass reduces any vector.  Reduction is linear and, once the
    echelon is frozen, canonical.
    """

    def __init__(self):
        self.pivots = {}   # pivot column -> row dict
        self._order = []   # pivot columns in insertion order

    @property
    def rank(self):
        return len(self.pivots)

    def _eliminate(self, v):
        """Clear the pivot columns from v and strip the content.

        Returns (residual, the pivot entries v was multiplied by, the
        integer content divided out).  v is not modified.
        """
        v = {k: val for k, val in v.items() if not val.is_zero()}
        factors = []
        # rows have no entries in other pivot columns, so clearing one
        # pivot leaves the others in v nonzero and the order is immaterial
        for c in [c for c in v if c in self.pivots]:
            row = self.pivots[c]
            p = row[c]
            v = accumulate({k: val * p for k, val in v.items()},
                           row.items(), -v[c])
            factors.append(p)
        g = 1
        if v:
            v, g = _strip_content(v)
        return v, factors, g

    def residual(self, v):
        """The residual of reduce(v), without building its scale."""
        return self._eliminate(v)[0]

    def reduce(self, v, scale=None):
        """Reduce v against the echelon.

        Returns (residual, scale) with the exact residual of v modulo the
        row span equal to scale * residual; residual has Laurent entries and
        scale is a RationalFn.  v is not modified.
        """
        v, factors, g = self._eliminate(v)
        if scale is None:
            scale = RationalFn.one()
        for p in factors:
            scale = scale / RationalFn(p)
        if g > 1:
            scale = scale * g
        return v, scale

    def insert(self, v):
        """Add v to the span; returns True if it enlarged the span."""
        res = self.residual(v)
        if not res:
            return False
        # pivot with the fewest terms to limit expression swell
        pc = min(res, key=lambda c: (res[c].num_terms(), c))
        # back-reduce existing rows so the echelon stays fully reduced
        p = res[pc]
        for c0 in self._order:
            row = self.pivots[c0]
            coeff = row.get(pc)
            if coeff is None:
                continue
            new = accumulate({k: val * p for k, val in row.items()},
                             res.items(), -coeff)
            new, _ = _strip_content(new)
            self.pivots[c0] = new
        self.pivots[pc] = res
        self._order.append(pc)
        return True

    def contains(self, v):
        return not self.residual(v)

    def coords(self, v):
        """Canonical coordinates of v modulo the row span (RationalFn dict)."""
        res, scale = self.reduce(v)
        return {c: scale * RationalFn(p) for c, p in res.items()}


def _reduce_tracked(rows, v, combo):
    """Clear the pivot columns of rows from v, tracking the combination.

    rows holds (pivot column, row, combo) with row[pivot] == 1; v and
    combo are modified in place and returned.
    """
    for pc, row, rcombo in rows:
        coeff = v.get(pc)
        if coeff is None:
            continue
        accumulate(v, row.items(), -coeff)
        accumulate(combo, rcombo.items(), -coeff)
    return v, combo


def _append_pivot_row(rows, pc, v, combo):
    """Clear column pc from rows with the new row v (v[pc] == 1), append it.

    Back-substitution keeps the rows in reduced row echelon form.
    """
    for _, row0, combo0 in rows:
        coeff = row0.get(pc)
        if coeff is not None:
            accumulate(row0, v.items(), -coeff)
            accumulate(combo0, combo.items(), -coeff)
    rows.append((pc, v, combo))


class UnitSolver:
    """RREF over Z[q,q^-1] with unit pivots and combination tracking.

    Rows are dicts column -> LaurentPoly, inserted in order.  Each reduced
    row is pivoted on its lowest column whose entry is a unit +-q^k and
    normalized by that unit's inverse, so every entry stays a Laurent
    polynomial.  A reduced row with no unit entry (a zero row included)
    raises AssertionError.  A build without that error certifies that the
    rows are independent with a transition matrix invertible over
    Z[q,q^-1], so every solution of solve() is Laurent.  The converse does
    not hold: the rows (2, 3), (1, 1) have determinant -1, yet the first
    has no unit entry.
    """

    def __init__(self):
        self.rows = []      # (pivot col, row dict, combo dict)

    def insert(self, v):
        """Insert the next spanning row."""
        v, combo = _reduce_tracked(self.rows, dict(v),
                                   {len(self.rows): LaurentPoly.one()})
        units = [c for c, x in v.items() if x.is_unit()]
        if not units:
            raise AssertionError("no unit pivot: the rows are not "
                                 "certified unimodular over Z[q,q^-1]")
        pc = min(units)
        sign, k = v[pc].unit_decompose()
        inv = LaurentPoly.q(-k, sign)
        _append_pivot_row(self.rows, pc, {c: x * inv for c, x in v.items()},
                          {i: x * inv for i, x in combo.items()})

    def solve(self, v):
        """Laurent coefficients expressing v over the inserted rows, or None.

        The returned dict maps insertion index -> nonzero LaurentPoly.
        """
        v = {c: x for c, x in v.items() if not x.is_zero()}
        res, combo = _reduce_tracked(self.rows, v, {})
        if res:
            return None
        return {i: -x for i, x in combo.items()}


class SpanSolver:
    """RREF over the fraction field with combination tracking.

    Built from an ordered list of spanning rows; solve() expresses a vector
    as a linear combination of the original rows (coefficients are unique
    when the rows are independent).
    """

    def __init__(self, rows=None):
        self.rows = []      # list of (pivot col, rowdict RationalFn, combo dict)
        self.n_inserted = 0
        for r in rows or []:
            self.insert(r)

    @property
    def rank(self):
        return len(self.rows)

    def _reduce(self, v, combo):
        v = {c: _coerce(x) for c, x in v.items() if not _coerce(x).is_zero()}
        return _reduce_tracked(self.rows, v, combo)

    def insert(self, v):
        """Insert the next spanning row; returns True if independent."""
        idx = self.n_inserted
        self.n_inserted += 1
        combo = {idx: RationalFn.one()}
        v, combo = self._reduce(v, combo)
        if not v:
            return False
        pc = min(v)
        pval = v[pc]
        _append_pivot_row(self.rows, pc,
                          {k: val / pval for k, val in v.items()},
                          {k: val / pval for k, val in combo.items()})
        return True

    def solve(self, v):
        """Coefficients expressing v over the inserted rows, or None.

        The returned dict maps insertion index -> RationalFn; combo entries
        of dependent (skipped) rows never appear.
        """
        res, combo = self._reduce(dict(v), {})
        if res:
            return None
        return {k: -val for k, val in combo.items()}


def clear_denominators(row):
    """Scale a RationalFn dict by the product of its denominators.

    Returns a dict of LaurentPoly values; zero entries are dropped.
    """
    den = LaurentPoly.one()
    for v in row.values():
        if not v.den.is_one():
            den = den * v.den
    return {k: v.num * (den if v.den.is_one() else exact_div(den, v.den))
            for k, v in row.items() if not v.is_zero()}


def mat_nullspace(rows, ncols):
    """A basis of the right nullspace over the fraction field.

    rows are dicts column -> entry with columns in range(ncols); each basis
    vector is a list of ncols RationalFn.
    """
    # RREF of the rows, over the fraction field
    solver = SpanSolver(rows)
    pivot_cols = sorted(pc for pc, _, _ in solver.rows)
    pivot_set = set(pivot_cols)
    rowmap = {pc: row for pc, row, _ in solver.rows}
    basis = []
    for c in range(ncols):
        if c in pivot_set:
            continue
        vec = [RationalFn.zero()] * ncols
        vec[c] = RationalFn.one()
        for pc in pivot_cols:
            coeff = rowmap[pc].get(c)
            if coeff is not None:
                vec[pc] = -coeff
        basis.append(vec)
    return basis
