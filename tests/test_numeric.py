from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from makespan import Mode, UsageError, parse_scalar, scalar_to_str
from makespan.numeric import exact_ints

rationals = st.fractions(
    min_value=Fraction(-1000), max_value=Fraction(1000), max_denominator=1000)


# Rational-mode values are Fractions and float-mode values are floats, so the
# schedulers' plain +, -, *, / are exact in the one and IEEE in the other.

def R(text):
    return parse_scalar(text, Mode.RATIONAL)


def test_add_exact_rational():
    assert R("1/3") + R("1/6") == Fraction(1, 2)


def test_add_identity():
    assert R("7/11") + R("0") == R("7/11")


def test_add_float_ieee():
    # float mode keeps IEEE semantics: 0.1 + 0.2 is the nearest double to 0.3
    assert parse_scalar("0.1", Mode.F64) + parse_scalar("0.2", Mode.F64) == 0.30000000000000004


def test_div_exact():
    assert R("10") / R("4") == Fraction(5, 2)


def test_div_identity():
    assert R("-9/7") / R("1") == Fraction(-9, 7)


def test_div_epsilon_example():
    assert (R("10") + R("0.1")) / R("10") == Fraction(101, 100)


def test_div_by_zero():
    for mode in Mode:
        with pytest.raises(UsageError):
            parse_scalar("1/0", mode)


def test_parse_decimal_exact():
    assert parse_scalar("2.5", Mode.RATIONAL) == Fraction(5, 2)
    assert parse_scalar("0.1", Mode.RATIONAL) == Fraction(1, 10)
    assert parse_scalar("10.001", Mode.RATIONAL) == Fraction(10001, 1000)
    assert parse_scalar("3/7", Mode.RATIONAL) == Fraction(3, 7)


def test_parse_float_mode():
    assert parse_scalar("2.5", Mode.F64) == 2.5
    assert isinstance(parse_scalar("1", Mode.F64), float)


def test_parse_errors():
    with pytest.raises(UsageError):
        parse_scalar("abc", Mode.RATIONAL)
    with pytest.raises(UsageError):
        parse_scalar("", Mode.F64)


def test_to_str_round_trip():
    for x in [Fraction(5, 2), Fraction(-3), Fraction(7)]:
        assert Fraction(scalar_to_str(x)) == x
    assert float(scalar_to_str(0.30000000000000004)) == 0.30000000000000004


@given(a=st.integers(-10**6, 10**6), b=st.integers(1, 10**4),
       c=st.integers(-10**6, 10**6), d=st.integers(1, 10**4))
def test_rational_add_matches_integer_arithmetic(a, b, c, d):
    # independent cross-multiplied oracle for exactness
    got = R(f"{a}/{b}") + R(f"{c}/{d}")
    assert got == Fraction(a * d + c * b, b * d)


@given(a=st.integers(-10**6, 10**6), b=st.integers(1, 10**4),
       c=st.integers(-10**6, 10**6), d=st.integers(1, 10**4))
def test_rational_mul_matches_integer_arithmetic(a, b, c, d):
    assert R(f"{a}/{b}") * R(f"{c}/{d}") == Fraction(a * c, b * d)


@given(x=rationals, y=rationals, z=rationals)
def test_ordering_transitive_antisymmetric(x, y, z):
    if x < y and y < z:
        assert x < z
    assert not (x < y and y < x)
    assert (x <= y and y <= x) == (x == y)


@given(x=rationals, y=rationals)
def test_sub_div_consistency(x, y):
    x, y = R(scalar_to_str(x)), R(scalar_to_str(y))
    assert x - y == x + (-y)
    if y != 0:
        assert x / y * y == x


def test_parse_float_mode_rejects_non_finite():
    for text in ("inf", "-inf", "nan", "1e400", "1e300/1e-300"):
        with pytest.raises(UsageError):
            parse_scalar(text, Mode.F64)


def test_exact_ints_scale_to_the_least_common_denominator():
    ints, den = exact_ints([Fraction(1, 6), None, Fraction(3, 4), Fraction(2)])
    assert (ints, den) == ([2, None, 9, 24], 12)
    ints, den = exact_ints([0.5, 0.375, None])
    assert (ints, den) == ([4, 3, None], 8)
    ints, den = exact_ints([Fraction(3, 2), Fraction(5, 4), Fraction(7)], invert=True)
    assert (ints, den) == ([70, 84, 15], 105)  # 2/3, 4/5 and 1/7 over 105


def test_exact_ints_leave_none_alone_past_float_range():
    # a denominator beyond float range must not meet math.inf
    ints, den = exact_ints([1e-300, None, 1.0])
    assert den > 2 ** 1024 and ints[1] is None
    assert Fraction(ints[0], den) == Fraction(1e-300) and ints[2] == den
