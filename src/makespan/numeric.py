"""Scalar abstraction: every quantity runs either as a 64-bit float or an exact rational.

A run picks one mode and sticks with it; instances never mix modes. Rational
mode is backed by :class:`fractions.Fraction` (arbitrary-precision integers,
always in lowest terms), so sequences of +, -, *, / reproduce exact real
arithmetic. Float mode is plain IEEE-754 round-to-nearest.
"""

from __future__ import annotations

import enum
import math
from fractions import Fraction
from typing import Union

from .errors import UsageError

Scalar = Union[float, Fraction]


class Mode(enum.Enum):
    F64 = "f64"
    RATIONAL = "rational"

    @classmethod
    def from_name(cls, name: str) -> "Mode":
        for mode in cls:
            if mode.value == name:
                return mode
        raise UsageError(f"unknown numeric mode {name!r} (expected 'f64' or 'rational')")


def parse_scalar(text: str, mode: Mode) -> Scalar:
    """Parse a decimal string (or 'p/q') into a Scalar of the given mode.

    Rational mode converts decimals exactly: "2.5" becomes 5/2 with no
    intermediate binary rounding. Float mode is the usual nearest float, and
    rejects values that round to inf or nan ("inf", "1e400").
    """
    text = text.strip()
    if not text:
        raise UsageError("empty number")
    try:
        if mode is Mode.RATIONAL:
            return Fraction(text)
        if "/" in text:
            num, den = text.split("/", 1)
            value = float(num) / float(den)
        else:
            value = float(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise UsageError(f"bad number {text!r}: {exc}") from exc
    if not math.isfinite(value):
        raise UsageError(f"bad number {text!r}: not finite in f64")
    return value


def exact_ints(values, invert: bool = False) -> tuple:
    """(integers, den): positive Fractions or floats, or with ``invert``
    their reciprocals, scaled exactly to integers over their least common
    denominator den; None (no battery) stays None. A float is a dyadic
    rational, so float values scale exactly too."""
    pairs = [None if v is None else v.as_integer_ratio() for v in values]
    if invert:
        pairs = [(q, p) for p, q in pairs]
    den = math.lcm(*[p[1] for p in pairs if p is not None])
    return [None if p is None else p[0] * (den // p[1]) for p in pairs], den


def scalar_to_str(x: Scalar) -> str:
    """Lossless text form: 'p/q' (or 'p') for rationals, shortest repr for floats."""
    # floats first: isinstance(a float, Fraction) runs the slow ABC check
    if isinstance(x, float) or not isinstance(x, Fraction):
        return repr(x)
    return str(x)
