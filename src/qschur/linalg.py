"""Sparse exact linear algebra over Z[q,q^-1] and its fraction field.

Three engines are provided:

* :class:`Echelon` -- incremental row reduction with Laurent-polynomial
  rows, used for ranks, nullities and coset zero tests (no polynomial
  division ever happens during elimination).  A row with a unit entry
  +-q^k is pivoted on it and stored divided by it, so its pivot entry is
  the shared ``ONE`` and clearing it costs one multiply-add; a row with
  none keeps the fraction-free step, which scales the vector by the pivot
  entry and then divides out the integer content.  Its one reduction,
  :meth:`Echelon.reduce`, returns a Laurent residual.  An insert
  back-reduces only the rows that hold its pivot column, found through a
  column index, so a span that splits into blocks over disjoint columns
  needs no split by the caller.
* :class:`UnitSolver` -- LU with unit pivots over Z[q,q^-1] itself,
  B = L·R, for spanning sets whose transition matrix is unimodular: every
  pivot is a unit +-q^k, so no fraction ever appears.  An insert
  forward-reduces the new row alone and never touches an earlier one; a
  solve is a forward pass over R and a back-substitution over L.  The
  certificate is that of reduced row echelon form with combination
  tracking: the same pivots, the same "no unit pivot" error on the same
  rows, the same solutions.  It is the engine of ordinary straightening,
  hence of rational straightening through iota.  Its unit-pivot step,
  :func:`_unit_pivot`, is the one Echelon takes.
* :class:`SpanSolver` -- reduced row echelon form over the fraction field
  with combination tracking, the one tracked elimination of the package.
  It serves only :func:`mat_nullspace`, the nullspace basis over the
  fraction field, and the tests' oracles; these two are the only users of
  :class:`RationalFn`, and no computation of the package calls them.

Vectors are dicts from a sortable column key to a nonzero entry.  Every
sparse sum and every whole-row scaling of Laurent values in the package is
built with :func:`accumulate`, the Laurent multiply-add kernel of
:mod:`qschur.laurent` re-exported here: it adds coeff * v into a dict for
each (key, v), dropping the entries that cancel.  A coefficient 1 (or
None) stores v itself, a monomial +-c*q^e shifts and scales v, and a
general polynomial multiplies v straight into the sum.  SpanSolver's rows
of fractions are summed by their own loop, :func:`_add_scaled`, so the
kernel never sees a RationalFn.  Laurent values are immutable and shared
between rows, so no engine writes into an entry's terms.  The element
classes of the algebras and of tensor space share the arithmetic of
:class:`SparseSum`.
"""

from __future__ import annotations

from math import gcd

from .laurent import ONE, LaurentPoly, accumulate, laurent_divmod


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
        return self._make(accumulate({}, self.terms.items(), coeff))

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


def _add_scaled(acc, items, coeff):
    """accumulate over the fraction field, for SpanSolver: coeff and the
    values are RationalFn."""
    for k, v in items:
        v = coeff * v
        t = acc.get(k)
        if t is not None:
            v = t + v
        if v.is_zero():
            acc.pop(k, None)
        else:
            acc[k] = v
    return acc


def _strip_content(v):
    """Divide a Laurent row dict by its joint integer content."""
    g = 0
    for p in v.values():
        g = gcd(g, p.content())
        if g == 1:
            return v
    return {c: p.int_div(g) for c, p in v.items()} if g > 1 else v


def _divided_by_unit(v, pc):
    """(u^-1, v / u) for the unit u = v[pc] = +-q^k; the entry of v / u at
    pc is the shared ``ONE``."""
    sign, k = v[pc].unit_decompose()
    inv = LaurentPoly.q(-k, sign)
    row = accumulate({}, v.items(), inv)
    row[pc] = ONE
    return inv, row


def _unit_pivot(v):
    """(pc, u^-1, v / u) for the lowest column pc of v whose entry u is a
    unit +-q^k (see _divided_by_unit), or None if v has no unit entry."""
    units = [c for c, x in v.items() if x.is_unit()]
    if not units:
        return None
    pc = min(units)
    return (pc, *_divided_by_unit(v, pc))


class Echelon:
    """Reduced row echelon form over Z[q,q^-1], monic where it can be.

    Rows are sparse dicts column-key -> LaurentPoly.  Maintained fully
    reduced: no row has an entry in another row's pivot column, so a single
    forward pass reduces any vector.  A new row is pivoted on a unit entry
    +-q^k when it has one and stored divided by it, so its pivot entry is
    ``ONE`` and clearing its column from a vector is one multiply-add.  A
    row with no unit entry, even after its integer content is divided out,
    keeps the fraction-free step: it is pivoted on an entry with the fewest
    terms, and a vector is scaled by that entry before the subtraction.
    Either way the residual of v is a nonzero scalar multiple of its
    canonical coset representative, so it is empty exactly when v lies in
    the span.  A column index lets an insert touch only the rows that hold
    its new pivot column, so rows over disjoint columns (a block-diagonal
    span) cost nothing to one another.
    """

    def __init__(self):
        self.pivots = {}   # pivot column -> row dict, in insertion order
        self._holders = {}  # non-pivot column -> pivot columns of its rows

    @property
    def rank(self):
        return len(self.pivots)

    def reduce(self, v):
        """The residual of v modulo the row span.

        Clears the pivot columns from v, subtracting v[c] times a row with
        pivot entry ``ONE`` and scaling v first by any other pivot entry;
        the joint integer content is divided out only if v was scaled.  The
        entries are Laurent.  v is not modified.
        """
        v = {k: val for k, val in v.items() if not val.is_zero()}
        scaled = False
        # rows have no entries in other pivot columns, so clearing one
        # pivot leaves the others in v nonzero and the order is immaterial
        for c in [c for c in v if c in self.pivots]:
            row = self.pivots[c]
            p = row[c]
            if p is ONE:
                accumulate(v, row.items(), -v[c])
            else:
                v = accumulate(accumulate({}, v.items(), p),
                               row.items(), -v[c])
                scaled = True
        return _strip_content(v) if scaled else v

    def insert(self, v):
        """Add v to the span; returns True if it enlarged the span."""
        res = self.reduce(v)
        if not res:
            return False
        pivot = _unit_pivot(res)
        if pivot is None:
            res = _strip_content(res)
            pivot = _unit_pivot(res)
        if pivot is None:
            # pivot with the fewest terms to limit expression swell
            pc = min(res, key=lambda c: (res[c].num_terms(), c))
        else:
            pc, _, res = pivot
        # back-reduce the rows holding pc so the echelon stays fully
        # reduced; each is rebuilt from itself and res alone, so the order
        # is immaterial.  A row keeps its columns outside res (times p != 0),
        # so only the columns of res can enter or leave it.
        p = res[pc]
        cols = [c for c in res if c != pc]
        holders = self._holders
        for c0 in holders.pop(pc, ()):
            row = self.pivots[c0]
            if p is ONE:
                new = accumulate(dict(row), res.items(), -row[pc])
            else:
                new = _strip_content(accumulate(
                    accumulate({}, row.items(), p), res.items(), -row[pc]))
                if new[c0].is_unit():
                    # the division left a unit pivot: make the row monic
                    new = _divided_by_unit(new, c0)[1]
            for c in cols:
                if c in new:
                    holders.setdefault(c, set()).add(c0)
                elif c in row:
                    holders[c].discard(c0)
            self.pivots[c0] = new
        for c in cols:
            holders.setdefault(c, set()).add(pc)
        self.pivots[pc] = res
        return True

    def contains(self, v):
        return not self.reduce(v)


class UnitSolver:
    """LU with unit pivots over Z[q,q^-1]: the inserted rows B = L·R.

    Rows are dicts column -> LaurentPoly, inserted in order.  A new row is
    forward-reduced, in insertion order, against the stored rows of R, each
    of which has a 1 in its pivot column; the multipliers are kept as its
    row of L.  The reduced row is pivoted on its lowest column whose entry
    is a unit u = +-q^k and stored as u^-1 times itself, with u^-1 on the
    diagonal of L, so every entry stays a Laurent polynomial and no earlier
    row is ever touched.  A reduced row with no unit entry (a zero row
    included) raises AssertionError.  A build without that error certifies
    that the rows are independent with a transition matrix invertible over
    Z[q,q^-1], so every solution of solve() is Laurent.  The converse does
    not hold: the rows (2, 3), (1, 1) have determinant -1, yet the first
    has no unit entry.

    The reduced row is the unique vector of B_i + span(earlier rows) that
    vanishes on the earlier pivots, so it is the residual that reduced row
    echelon form with combination tracking would pivot on: the pivots, the
    AssertionError and every solution are the same.
    """

    def __init__(self):
        self.rows = []      # (pivot col, row of R with row[pivot col] == 1)
        self._lower = []    # (u^-1, {earlier index: multiplier}): rows of L

    def _forward(self, v):
        """Clear the pivot columns from v in place; return the multipliers."""
        mults = {}
        for i, (pc, row) in enumerate(self.rows):
            coeff = v.get(pc)
            if coeff is not None:
                mults[i] = coeff
                accumulate(v, row.items(), -coeff)
        return mults

    def insert(self, v):
        """Insert the next spanning row."""
        v = {c: x for c, x in v.items() if not x.is_zero()}
        mults = self._forward(v)
        pivot = _unit_pivot(v)
        if pivot is None:
            raise AssertionError("no unit pivot: the rows are not "
                                 "certified unimodular over Z[q,q^-1]")
        pc, inv, row = pivot
        self.rows.append((pc, row))
        self._lower.append((inv, mults))

    def solve(self, v):
        """Laurent coefficients expressing v over the inserted rows, or None.

        The returned dict maps insertion index -> nonzero LaurentPoly.  The
        forward pass writes v = y·R; back-substitution over L, from the last
        row down, solves x·L = y.
        """
        v = {c: x for c, x in v.items() if not x.is_zero()}
        y = self._forward(v)
        if v:
            return None
        x = {}
        for i in range(len(self.rows) - 1, -1, -1):
            yi = y.pop(i, None)
            if yi is None:
                continue
            inv, mults = self._lower[i]
            x[i] = xi = yi * inv
            accumulate(y, mults.items(), -xi)
        return x


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
        """Clear the pivot columns from v, tracking the combination."""
        v = {c: _coerce(x) for c, x in v.items() if not _coerce(x).is_zero()}
        for pc, row, rcombo in self.rows:
            coeff = v.get(pc)
            if coeff is not None:
                _add_scaled(v, row.items(), -coeff)
                _add_scaled(combo, rcombo.items(), -coeff)
        return v, combo

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
        v = {k: val / pval for k, val in v.items()}
        combo = {k: val / pval for k, val in combo.items()}
        # back-substitution keeps the rows in reduced row echelon form
        for _, row0, combo0 in self.rows:
            coeff = row0.get(pc)
            if coeff is not None:
                _add_scaled(row0, v.items(), -coeff)
                _add_scaled(combo0, combo.items(), -coeff)
        self.rows.append((pc, v, combo))
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
