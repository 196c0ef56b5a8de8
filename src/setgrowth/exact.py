"""Exact rational arithmetic helpers shared across modules.

Every inequality in this package is checked on integers or Fractions; floats
appear only in display strings and in the quaternion metric.
"""

from __future__ import annotations

import math
import sys
from fractions import Fraction

# Proof constants like K^9 for a chained K can run to thousands of digits;
# report files carry them verbatim, so lift the conversion guard well past
# anything the pipelines produce.
if hasattr(sys, "set_int_max_str_digits"):
    sys.set_int_max_str_digits(max(sys.get_int_max_str_digits(), 120_000))


def frac(value) -> Fraction:
    """Coerce ints, 'p/q' strings, floats, and Fractions to Fraction."""
    if isinstance(value, Fraction):
        return value
    return Fraction(value)


def ceil_isqrt(n: int) -> int:
    """Smallest integer s with s*s >= n, for n >= 0."""
    if n <= 0:
        return 0
    s = math.isqrt(n)
    return s if s * s == n else s + 1


def ceil_sqrt_frac(q: Fraction) -> Fraction:
    """Smallest fraction with denominator q.denominator whose square is >= q.

    Used to infer a rational K from a measured ratio so that K**2 >= q holds
    exactly (never by float luck).
    """
    q = frac(q)
    if q <= 0:
        return Fraction(0)
    return Fraction(ceil_isqrt(q.numerator * q.denominator), q.denominator)


def _log_big(n: int) -> float:
    # math.log overflows float conversion for very large ints
    if n.bit_length() <= 512:
        return math.log(n)
    shift = n.bit_length() - 53
    return math.log(n >> shift) + shift * math.log(2.0)


_DISPLAY_DIGIT_CAP = 40


def _sci(value) -> str:
    # scientific notation safe for magnitudes far beyond float range
    if value == 0:
        return "0"
    sign = "-" if value < 0 else ""
    q = abs(Fraction(value))
    log10 = (_log_big(q.numerator) - _log_big(q.denominator)) / math.log(10.0)
    exp10 = math.floor(log10)
    mantissa = 10.0 ** (log10 - exp10)
    return f"{sign}{format(mantissa, '.11g')}e{exp10:+d}"


def fmt_number(value) -> str:
    """Deterministic rendering: ints verbatim, Fractions as p/q, floats .12g.

    Exact values whose decimal form would exceed the display cap render as a
    '~'-prefixed float; comparisons never go through this path.
    """
    if isinstance(value, bool):
        return str(value)
    if isinstance(value, int):
        # bit_length guard keeps huge values off the str() path entirely
        if value.bit_length() > 140:
            return "~" + _sci(value)
        text = str(value)
        if len(text) > _DISPLAY_DIGIT_CAP:
            return "~" + _sci(value)
        return text
    if isinstance(value, Fraction):
        if value.denominator == 1:
            return fmt_number(value.numerator)
        if max(value.numerator.bit_length(),
               value.denominator.bit_length()) > 140:
            return "~" + _sci(value)
        text = f"{value.numerator}/{value.denominator}"
        if len(text) > _DISPLAY_DIGIT_CAP:
            return "~" + _sci(value)
        return text
    if isinstance(value, float):
        return format(value, ".12g")
    return str(value)
