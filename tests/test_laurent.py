"""Laurent-ring arithmetic, with sympy as an independent oracle."""

from fractions import Fraction
from math import comb

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from qschur import laurent
from qschur.laurent import (LaurentPoly, ONE, Q, QINV, ZERO, accumulate,
                            exact_div, laurent_divmod, neg_q_log, neg_q_power,
                            quantum_binomial,
                            quantum_factorial, quantum_integer,
                            quantum_integer_signed)
from qschur.linalg import RationalFn

_q = sympy.Symbol("q")


def to_sympy(p):
    return sympy.Add(*[c * _q ** e for e, c in p.terms.items()])


laurents = st.dictionaries(st.integers(-4, 4), st.integers(-9, 9),
                           max_size=5).map(LaurentPoly)


def test_basic_arithmetic():
    a = LaurentPoly({1: 2, -1: 3})
    b = LaurentPoly({0: 1, 2: -1})
    assert a + b - b == a
    assert (a * b).subs(2) == a.subs(2) * b.subs(2)
    assert a * ZERO == ZERO
    assert a * ONE == a
    assert LaurentPoly.q(3, -2).shift(-3) == LaurentPoly.from_int(-2)


@pytest.mark.parametrize("k", [-3, -2])
def test_negative_power_of_minus_q_has_int_coefficients(k):
    u = neg_q_power(k)
    assert u.terms == {k: (-1) ** abs(k)}
    assert all(type(c) is int for c in u.terms.values())
    assert u.to_json() == {str(k): str((-1) ** abs(k))}
    assert LaurentPoly.from_json(u.to_json()) == u
    assert u.content() == 1


def test_neg_q_power():
    assert neg_q_power(0) == ONE
    assert neg_q_power(3) == LaurentPoly.q(3, -1)
    assert neg_q_power(-2) == LaurentPoly.q(-2)
    for k in range(-4, 5):
        assert neg_q_power(k) == LaurentPoly.q(k, (-1) ** (k % 2))


def test_quantum_integer_against_sympy():
    for l in range(0, 7):
        expected = sympy.simplify((_q ** l - _q ** -l) / (_q - 1 / _q)) \
            if l else sympy.Integer(0)
        assert sympy.simplify(to_sympy(quantum_integer(l)) - expected) == 0


def test_quantum_integer_signed():
    assert quantum_integer_signed(-3) == -quantum_integer(3)


def test_quantum_binomial_specializes_to_binomial():
    for top in range(0, 7):
        for t in range(0, 7):
            assert quantum_binomial(top, t).subs(1) == comb(top, t) \
                if t <= top else quantum_binomial(top, t).is_zero()


def test_quantum_binomial_negative_top():
    # [(-a) choose t] at q=1 equals the usual generalized binomial
    for top in range(-4, 0):
        for t in range(0, 4):
            lhs = quantum_binomial(top, t).subs(1)
            rhs = Fraction(1)
            for i in range(t):
                rhs *= Fraction(top - i, i + 1)
            assert lhs == rhs


def test_quantum_binomial_bar_invariant():
    # balanced convention: invariant under q -> 1/q
    for top in range(0, 6):
        for t in range(0, 6):
            p = quantum_binomial(top, t)
            flipped = LaurentPoly({-e: c for e, c in p.terms.items()})
            assert p == flipped


def test_quantum_factorial_pascal():
    for l in range(1, 6):
        assert quantum_factorial(l) == \
            quantum_factorial(l - 1) * quantum_integer(l)


@given(laurents, laurents, laurents)
@settings(max_examples=60, deadline=None)
def test_ring_laws(a, b, c):
    assert (a + b) * c == a * c + b * c
    assert a * b == b * a
    assert a * (b * c) == (a * b) * c
    assert a - a == ZERO


@given(laurents, laurents)
@settings(max_examples=60, deadline=None)
def test_divmod_recovers_factor(a, b):
    if b.is_zero():
        return
    prod = a * b
    quo, rem = laurent_divmod(prod, b)
    assert rem.is_zero() and quo == a
    assert exact_div(prod, b) == a


@given(laurents, laurents)
@settings(max_examples=40, deadline=None)
def test_divmod_identity(a, b):
    if b.is_zero():
        return
    try:
        quo, rem = laurent_divmod(a, b)
    except ValueError:
        return
    assert quo * b + rem == a


@given(laurents, st.integers(1, 20))
@settings(max_examples=60, deadline=None)
def test_eval_mod_matches_subs(a, q0):
    p = 67108859
    val = a.subs(q0)
    expected = val.numerator * pow(val.denominator, -1, p) % p
    assert a.eval_mod(q0, p) == expected


def test_json_roundtrip():
    a = LaurentPoly({-3: 5, 0: -1, 7: 2})
    assert LaurentPoly.from_json(a.to_json()) == a


@pytest.mark.parametrize("key", ["00", " 0", "+0", "-0"])
def test_from_json_sums_exponent_keys_that_read_as_one_integer(key):
    assert LaurentPoly.from_json({"0": "1", key: "2"}).terms == {0: 3}
    assert LaurentPoly.from_json({"0": "1", key: "-1"}).is_zero()
    assert LaurentPoly.from_json({"1": "4", "01": "1", "-1": "2"}).terms == \
        {1: 5, -1: 2}


@pytest.mark.parametrize("coeff", [2.5, True, None, [1], "1.5"])
def test_from_json_refuses_a_coefficient_that_is_not_an_integer(coeff):
    with pytest.raises(ValueError, match="^coefficients must be integers$"):
        LaurentPoly.from_json({"0": coeff})


@pytest.mark.parametrize("key", [2.5, True, None, "1.5", ""])
def test_from_json_refuses_an_exponent_that_is_not_an_integer(key):
    with pytest.raises(ValueError, match="^exponents must be integers$"):
        LaurentPoly.from_json({key: "1"})


def test_from_json_checks_coefficients_before_exponents():
    with pytest.raises(ValueError, match="^coefficients"):
        LaurentPoly.from_json({"x": "1", "0": 2.5})


def test_from_json_reads_ints_and_integer_strings():
    assert LaurentPoly.from_json({"-1": 3, 2: " -4"}).terms == {-1: 3, 2: -4}


# -- the shared units +-q^e ------------------------------------------------

signs = st.sampled_from([1, -1])
units = st.builds(LaurentPoly.q, st.integers(-4, 4), signs)


def table_is_sound():
    """Every table entry is the unit its key names, and nothing else is in
    the table."""
    return all(u.terms == {e: c} and c in (1, -1)
               for (e, c), u in laurent._UNITS.items())


def test_unit_constructors_give_the_tables_object():
    table = laurent._UNITS
    assert ONE is table[(0, 1)] and Q is table[(1, 1)]
    assert QINV is table[(-1, 1)] and LaurentPoly.one() is ONE
    for e in range(-4, 5):
        for c in (1, -1):
            u = LaurentPoly.q(e, c)
            assert u is table[(e, c)] and u.terms == {e: c}
            assert LaurentPoly.q(e, c) is u
            assert -u is table[(e, -c)]
        assert neg_q_power(e) is table[(e, (-1) ** (e % 2))]
    assert table_is_sound()


@given(st.integers(-6, 6), signs, st.integers(-6, 6), signs)
@settings(max_examples=60, deadline=None)
def test_a_product_of_units_is_the_tables_object(e1, c1, e2, c2):
    u, v = LaurentPoly.q(e1, c1), LaurentPoly.q(e2, c2)
    assert u * v is v * u is laurent._UNITS[(e1 + e2, c1 * c2)]


def test_one_term_unit_results_of_accumulate_are_the_tables_object():
    table = laurent._UNITS
    acc = accumulate({}, [("a", LaurentPoly.q(2, -1)), ("b", Q),
                          ("c", Q + ONE)], QINV)
    assert acc["a"] is table[(1, -1)] and acc["b"] is ONE
    assert acc["c"].terms == {0: 1, -1: 1}
    acc = accumulate({}, [("a", LaurentPoly.q(2, -1))], LaurentPoly.q(-5, -1))
    assert acc["a"] is table[(-3, 1)]


def test_a_non_unit_monomial_never_enters_the_table():
    m = LaurentPoly.q(3, 2)
    made = [m, -m, m * Q, Q * m, m * m, LaurentPoly.q(3, -2),
            LaurentPoly.q(0, 10 ** 30), accumulate({}, [(0, QINV)], m)[0],
            accumulate({}, [(0, m)], QINV)[0], accumulate({}, [(0, m)])[0]]
    assert made[2].terms == {4: 2} and made[7].terms == {2: 2}
    ids = {id(u) for u in laurent._UNITS.values()}
    assert not any(id(x) in ids for x in made)
    assert table_is_sound()


@given(laurents | units, laurents | units, laurents | units)
@settings(max_examples=60, deadline=None)
def test_ring_laws_with_shared_units(a, b, c):
    assert (a + b) * c == a * c + b * c
    assert a * b == b * a
    assert a * (b * c) == (a * b) * c
    assert a - a == ZERO and -(-a) == a
    assert table_is_sound()


def test_neg_q_log_decodes_powers_of_minus_q_only():
    for c in range(-3, 4):
        assert neg_q_log(neg_q_power(c)) == c
        assert neg_q_log(-neg_q_power(c)) is None
    for a in (LaurentPoly.zero(), LaurentPoly.q(1, 2), LaurentPoly.q(2) + ONE):
        assert neg_q_log(a) is None


def test_operators_defer_to_other_types():
    # +, - and * return NotImplemented on an operand that is neither a
    # LaurentPoly nor an int, so Python tries the other operand's method
    q = LaurentPoly.q(1)
    r = RationalFn(ONE, q + 1)
    assert q * r == r * q
    assert q + r == r + q
    assert q - r == -(r - q)
    with pytest.raises(TypeError):
        q * 2.5
    with pytest.raises(TypeError):
        q + None


@pytest.mark.parametrize("c", [0, 1, -2, 3, 10 ** 30])
def test_a_constant_hashes_like_its_int(c):
    a = LaurentPoly.from_int(c)
    assert a == c and hash(a) == hash(c)
    assert len({a, c}) == 1
