"""Exact arithmetic in Z[q, q^-1]: Laurent polynomials, quantum integers.

Every coefficient the package computes with lives in the ring Z[q, q^-1].
The fraction field appears only in the tests' oracle, in
:mod:`qschur.linalg`, which has its own arithmetic.  Laurent polynomials
are kept in canonical sparse form: a dict from integer exponent to nonzero
integer coefficient.  Only this module builds that dict.

Laurent values are immutable and shared: no operation writes into the
``terms`` of an existing value, so a sum or a product may hold the very
value it was given.  Each unit +-q^e that the package builds is one shared
object, taken from a table keyed by (e, +-1): :meth:`LaurentPoly.q`,
:func:`neg_q_power`, the negation of a unit, ``ONE``, ``Q`` and ``QINV``,
and every result of :func:`accumulate` that is a unit.  The test for a unit
is made only where a monomial is built, so a result of several terms pays
nothing, and the table holds one entry per exponent and sign in use.
Sharing saves memory only: equality stays that of the terms.

:func:`accumulate` is the one sparse multiply-add kernel of the package:
it adds coeff * v into a dict of Laurent values for each (key, v) and drops
the entries that cancel, with no temporary for the product or the sum.  A
coefficient 1 stores v itself in a new entry, a monomial coefficient shifts
and scales v into one new dict, and a general one multiplies straight into
the sum.  ``+``, ``-`` and ``*`` on LaurentPoly are accumulate calls on one
key, a product with its monomial factor, if any, as the coefficient.  There
is no power operator; a power of a unit +-q^e is written as one monomial.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd


class LaurentPoly:
    """A Laurent polynomial with arbitrary-precision integer coefficients."""

    __slots__ = ("terms", "_hash")

    def __init__(self, terms=None):
        if terms:
            self.terms = {e: c for e, c in terms.items() if c}
        else:
            self.terms = {}
        self._hash = None

    # -- constructors -------------------------------------------------

    @staticmethod
    def zero():
        return LaurentPoly()

    @staticmethod
    def one():
        return _unit(0, 1)

    @staticmethod
    def from_int(c):
        return LaurentPoly({0: c})

    @staticmethod
    def q(exp=1, coeff=1):
        """The monomial coeff * q^exp; a unit is the table's object."""
        if coeff == 1 or coeff == -1:
            return _unit(exp, coeff)
        return LaurentPoly({exp: coeff})

    # -- predicates ----------------------------------------------------

    def is_zero(self):
        return not self.terms

    def is_one(self):
        return self.terms == {0: 1}

    def is_unit(self):
        """True iff this is +-q^k, a unit of Z[q,q^-1]."""
        if len(self.terms) != 1:
            return False
        ((_, c),) = self.terms.items()
        return c in (1, -1)

    # -- ring operations -----------------------------------------------

    def __add__(self, other):
        other = _operand(other)
        if other is NotImplemented:
            return NotImplemented
        return accumulate({0: self}, ((0, other),)).get(0, ZERO)

    __radd__ = __add__

    def __neg__(self):
        t = self.terms
        if len(t) == 1:
            ((e, c),) = t.items()
            return LaurentPoly.q(e, -c)
        return _make({e: -c for e, c in t.items()})

    def __sub__(self, other):
        if not isinstance(other, (int, LaurentPoly)):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        b = _operand(other)
        if b is NotImplemented:
            return NotImplemented
        # a monomial factor is the kernel's coefficient: it shifts and
        # scales the other factor
        a, b = (b, self) if len(b.terms) == 1 else (self, b)
        return accumulate({}, ((0, b),), a).get(0, ZERO)

    __rmul__ = __mul__

    # -- comparison ----------------------------------------------------

    def __eq__(self, other):
        other = _operand(other)
        if other is NotImplemented:
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        if self._hash is None:
            t = self.terms
            # a constant hashes like the int it equals
            self._hash = (hash(t.get(0, 0)) if t.keys() <= {0}
                          else hash(frozenset(t.items())))
        return self._hash

    # -- inspection ----------------------------------------------------

    def min_exp(self):
        return min(self.terms) if self.terms else 0

    def max_exp(self):
        return max(self.terms) if self.terms else 0

    def num_terms(self):
        return len(self.terms)

    def content(self):
        """The gcd of the integer coefficients (0 for the zero polynomial)."""
        g = 0
        for c in self.terms.values():
            g = gcd(g, abs(c))
        return g

    def shift(self, k):
        """Multiply by q^k."""
        return _make({e + k: c for e, c in self.terms.items()})

    def int_div(self, g):
        """Divide every coefficient by the integer g (must be exact)."""
        t = {}
        for e, c in self.terms.items():
            d, m = divmod(c, g)
            if m:
                raise ValueError("inexact integer division")
            t[e] = d
        return _make(t)

    def unit_decompose(self):
        """For a unit +-q^k, return (sign, k)."""
        ((e, c),) = self.terms.items()
        if c not in (1, -1):
            raise ValueError("not a unit of Z[q,q^-1]")
        return c, e

    # -- evaluation ----------------------------------------------------

    def subs(self, value):
        """Evaluate at a nonzero rational value of q."""
        value = Fraction(value)
        total = Fraction(0)
        for e, c in self.terms.items():
            total += c * value ** e
        return total

    def eval_mod(self, q0, p):
        """Evaluate at q = q0 modulo the prime p (q0 invertible mod p)."""
        q0inv = pow(q0, -1, p)
        total = 0
        for e, c in self.terms.items():
            base = q0 if e >= 0 else q0inv
            total = (total + c * pow(base, abs(e), p)) % p
        return total

    # -- display / serialization ----------------------------------------

    def __repr__(self):
        if not self.terms:
            return "0"
        bits = []
        for e in sorted(self.terms, reverse=True):
            c = self.terms[e]
            if e == 0:
                bits.append(f"{c:+d}")
            else:
                mag = "" if abs(c) == 1 else str(abs(c)) + "*"
                sgn = "+" if c > 0 else "-"
                pw = "q" if e == 1 else f"q^{e}"
                bits.append(f"{sgn}{mag}{pw}")
        s = "".join(bits)
        return s[1:] if s.startswith("+") else s

    def to_json(self):
        return {str(e): str(c) for e, c in sorted(self.terms.items())}

    @staticmethod
    def from_json(obj):
        """The inverse of to_json, and the one parser of a coefficient read
        from JSON (see _ints); coefficients are checked before exponents.
        Keys that read as one integer ("0", "00", " 0") are summed."""
        coeffs = _ints(obj.values(), "coefficients")
        terms = {}
        for e, c in zip(_ints(obj, "exponents"), coeffs):
            terms[e] = terms.get(e, 0) + c
        return LaurentPoly(terms)


def _ints(xs, what):
    """xs as ints: each an int (not a bool) or a string that int() reads,
    else ValueError "<what> must be integers"."""
    if _INT_TYPES.issuperset(map(type, xs)):
        try:
            return list(map(int, xs))
        except ValueError:
            pass
    raise ValueError(f"{what} must be integers")


_INT_TYPES = frozenset((int, str))


_new = object.__new__


def _make(terms):
    """Wrap a dict that is already in normal form (no zero coefficient)."""
    r = _new(LaurentPoly)
    r.terms = terms
    r._hash = None
    return r


# the shared units +-q^e: (e, +-1) -> LaurentPoly
_UNITS = {}


def _unit(e, c):
    """The shared LaurentPoly c*q^e for c = +-1."""
    u = _UNITS.get((e, c))
    if u is None:
        u = _UNITS[(e, c)] = _make({e: c})
    return u


def _operand(x):
    """x as a LaurentPoly if it is one or an int, else NotImplemented."""
    if isinstance(x, LaurentPoly):
        return x
    return LaurentPoly.from_int(x) if isinstance(x, int) else NotImplemented


def accumulate(acc, items, coeff=None):
    """Add coeff * v into acc[k] for each (k, v) of items; drop zeros.

    coeff None means 1.  acc is modified in place and returned; no
    Laurent value, in acc or in items, is.  The values are Laurent, and so
    is coeff unless it is None.  Three cases of coeff:

    * 1: a new key stores v itself;
    * a monomial c*q^e: a new key gets v shifted and scaled in one dict (a
      product of nonzero integers is nonzero, so nothing is dropped); a
      one-term result +-q^k is the shared unit;
    * any other, and any key already in acc: coeff * v is multiplied
      straight into one new dict, a copy of the old entry's terms if there
      is one; an entry whose sum is zero is deleted, and one whose sum is
      +-q^k is the shared unit.
    """
    get = acc.get
    ct = {0: 1} if coeff is None else coeff.terms
    mono = len(ct) == 1
    if mono:
        ((e0, c0),) = ct.items()
        unit = e0 == 0 and c0 == 1
    for k, v in items:
        vt = v.terms
        t = get(k)
        if t is None and mono:
            if unit:
                if vt:
                    acc[k] = v
            elif len(vt) == 1:
                # a dict literal: a comprehension is a call of its own
                ((e, c),) = vt.items()
                e += e0
                c *= c0
                acc[k] = (_UNITS.get((e, c)) or _unit(e, c)
                          if c == 1 or c == -1 else _make({e: c}))
            elif vt:
                acc[k] = _make({e + e0: c * c0 for e, c in vt.items()})
            continue
        s = {} if t is None else dict(t.terms)
        for e1, c1 in ct.items():
            for e2, c2 in vt.items():
                e = e1 + e2
                c = s.get(e, 0) + c1 * c2
                if c:
                    s[e] = c
                else:
                    del s[e]
        if len(s) == 1:
            ((e, c),) = s.items()
            acc[k] = (_UNITS.get((e, c)) or _unit(e, c)
                      if c == 1 or c == -1 else _make(s))
        elif s:
            acc[k] = _make(s)
        elif t is not None:
            del acc[k]
    return acc


ZERO = LaurentPoly.zero()
ONE = LaurentPoly.one()
Q = LaurentPoly.q(1)
QINV = LaurentPoly.q(-1)


def neg_q_power(k):
    """(-q)^k for any integer k, the shared unit."""
    return _unit(k, -1 if k % 2 else 1)


def neg_q_log(a):
    """The c with a = (-q)^c, or None if a is no power of -q."""
    c = a.min_exp()
    return c if a == neg_q_power(c) else None


def laurent_divmod(a, b):
    """Exact-oriented division in Z[q,q^-1]: a = quo*b + rem.

    Works over Q internally; raises if the quotient has non-integer
    coefficients (callers only divide when exactness is guaranteed).
    """
    if b.is_zero():
        raise ZeroDivisionError("division by zero polynomial")
    if a.is_zero():
        return LaurentPoly.zero(), LaurentPoly.zero()
    # shift both to ordinary polynomials in q
    sa, sb = a.min_exp(), b.min_exp()
    da = {e - sa: Fraction(c) for e, c in a.terms.items()}
    db = {e - sb: Fraction(c) for e, c in b.terms.items()}
    deg_b = max(db)
    lead_b = db[deg_b]
    quo = {}
    rem = dict(da)
    while rem and max(rem) >= deg_b:
        deg_r = max(rem)
        f = rem[deg_r] / lead_b
        quo[deg_r - deg_b] = f
        for e, c in db.items():
            k = e + deg_r - deg_b
            v = rem.get(k, 0) - f * c
            if v:
                rem[k] = v
            else:
                rem.pop(k, None)
    qshift = sa - sb
    for e, c in quo.items():
        if c.denominator != 1:
            raise ValueError("quotient not in Z[q,q^-1]")
    for e, c in rem.items():
        if c.denominator != 1:
            raise ValueError("remainder not in Z[q,q^-1]")
    qp = LaurentPoly({e + qshift: int(c) for e, c in quo.items() if c})
    rp = LaurentPoly({e + sa: int(c) for e, c in rem.items() if c})
    return qp, rp


def exact_div(a, b):
    quo, rem = laurent_divmod(a, b)
    if not rem.is_zero():
        raise ValueError("inexact division")
    return quo


def quantum_integer(l):
    """The balanced quantum integer [l]_q = sum_{i=0}^{l-1} q^(2i-l+1)."""
    if l < 0:
        raise ValueError("quantum_integer needs l >= 0")
    return LaurentPoly({2 * i - l + 1: 1 for i in range(l)})


def quantum_integer_signed(x):
    """[x]_q extended to negative x by [-x]_q = -[x]_q."""
    if x >= 0:
        return quantum_integer(x)
    return -quantum_integer(-x)


def quantum_factorial(l):
    r = LaurentPoly.one()
    for i in range(1, l + 1):
        r = r * quantum_integer(i)
    return r


def quantum_binomial(top, t):
    """Balanced Gaussian binomial: prod_{s=1}^t [top-s+1]_q / [s]_q.

    top may be any integer; the result is always in Z[q,q^-1].
    """
    if t < 0:
        raise ValueError("quantum_binomial needs t >= 0")
    num = LaurentPoly.one()
    for s in range(1, t + 1):
        num = num * quantum_integer_signed(top - s + 1)
        if num.is_zero():
            return num
    return exact_div(num, quantum_factorial(t))
