"""Exact rational arithmetic helpers shared across modules, and the one
renderer of a row's sides, for report cells and ledger lines alike.

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


def render_value(v) -> str:
    """Deterministic cell rendering: integers and Fractions verbatim,
    floats at 12 significant digits, booleans lowercase, None empty."""
    if type(v) is int:
        return str(v)
    if v is None:
        return ""
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, (int, Fraction)):
        return str(v)
    if isinstance(v, float):
        return "%.12g" % v
    return str(v)
