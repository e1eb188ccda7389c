"""CSV decimals: decimal_str against Decimal division."""

import sys
from decimal import ROUND_DOWN, ROUND_HALF_UP, localcontext
from fractions import Fraction

from hypothesis import given, settings, strategies as st

from e6painleve.serialize import decimal_str

from oracles import decimal_str_oracle

_digits = st.integers(1, 30)
_general = st.builds(Fraction, st.integers(-10 ** 40, 10 ** 40), st.integers(1, 10 ** 40))
#: Exact decimals: denominators 2^a 5^b, with trailing zeros on either side.
_terminating = st.builds(
    lambda n, a, b, z: Fraction(n * 10 ** z, 2 ** a * 5 ** b),
    st.integers(-10 ** 25, 10 ** 25), st.integers(0, 80), st.integers(0, 80), st.integers(0, 30),
)
#: Numerators or denominators past 4300 decimal digits (7^5100 has 4310).
_huge = st.builds(lambda a, e: a * 7 ** e + 1, st.integers(1, 2 ** 64), st.integers(5100, 6500))
_lopsided = st.one_of(
    st.builds(Fraction, _huge, st.integers(1, 10 ** 30)),
    st.builds(Fraction, st.integers(-10 ** 30, 10 ** 30), _huge),
    st.builds(lambda n, d: Fraction(-n, d), _huge, _huge),
)


@st.composite
def _tie(draw):
    """(x, digits) with x halfway between two digits-digit decimals, or a
    little more or less than halfway, far below the guard digits."""
    digits = draw(_digits)
    k = draw(st.integers(10 ** (digits - 1), 10 ** digits - 1))
    shift = draw(st.integers(-40, 40))
    x = (10 * k + 5 + Fraction(draw(st.sampled_from([0, 1, -1])), 7 * 10 ** 12)) * Fraction(10) ** shift
    return (-x if draw(st.booleans()) else x), digits


_cases = st.one_of(st.tuples(st.one_of(_general, _terminating, _lopsided), _digits), _tie())


@settings(max_examples=600, deadline=None, derandomize=True)
@given(_cases)
def test_decimal_str_equals_decimal_division(case):
    x, digits = case
    assert decimal_str(x, digits) == decimal_str_oracle(x, digits)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(_cases, st.sampled_from([ROUND_DOWN, ROUND_HALF_UP]))
def test_decimal_str_rounds_as_the_context_does(case, rounding):
    x, digits = case
    with localcontext() as ctx:
        ctx.rounding = rounding
        assert decimal_str(x, digits) == decimal_str_oracle(x, digits)


def test_decimal_str_past_the_string_conversion_limit():
    # Numerators and denominators of 30,000 bits, under the default limit of
    # 4300 digits for int-to-string conversion.
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    try:
        big = 3 ** 19000
        for x in (Fraction(big, 7), Fraction(7, big), Fraction(-big - 1, big), Fraction(big * 5 + 2, 2 ** 30000)):
            assert decimal_str(x) == decimal_str_oracle(x)
    finally:
        sys.set_int_max_str_digits(limit)


def test_decimal_str_examples():
    assert decimal_str(Fraction(0)) == "0"
    assert decimal_str(Fraction(1, 3)) == "0.33333333333333333333"
    assert decimal_str(Fraction(-171, 70)) == "-2.4428571428571428571"
    assert decimal_str(Fraction(25, 10), 1) == "2"
    assert decimal_str(Fraction(10 ** 25)) == "1.0000000000000000000E+25"
    assert decimal_str(Fraction(1, 2 ** 20)) == "9.5367431640625E-7"
