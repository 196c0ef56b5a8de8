"""Exact rational arithmetic helpers shared across modules, and the one
renderer of a row's sides, for report cells and ledger lines alike.

Every inequality in this package is checked on integers or Fractions; floats
appear only in display strings and in the quaternion metric.
"""

from __future__ import annotations

import functools
import math
import sys
from fractions import Fraction

# Proof constants like K^9 for a chained K can run to thousands of digits;
# report files carry them verbatim, so lift the conversion guard well past
# anything the pipelines produce.
if hasattr(sys, "set_int_max_str_digits"):
    sys.set_int_max_str_digits(max(sys.get_int_max_str_digits(), 120_000))
_max_str_digits = getattr(sys, "get_int_max_str_digits", lambda: 0)


def frac(value, what: str = "frac", name: str = "value") -> Fraction:
    """Coerce ints, 'p/q' strings, floats, and Fractions to Fraction; text
    that does not parse names its owner, as groups._int_arg does."""
    if isinstance(value, Fraction):
        return value
    try:
        return Fraction(value)
    except ZeroDivisionError:       # text from outside, such as '1/0'
        raise ValueError(f"zero denominator in {value!r}") from None
    except ValueError:
        raise ValueError(f"{what} expects a rational {name}, got {value!r}") from None


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


# CPython's int -> str is quadratic in the digits; above _LEAF_DIGITS it is
# cheaper to split by powers of ten into blocks of _LEAF_DIGITS digits.
_LEAF_DIGITS = 1000
_LEAF_BOUND = 10**_LEAF_DIGITS
_POW5 = {_LEAF_DIGITS: 5**_LEAF_DIGITS}     # h -> 5**h, h = 1000 * 2^j


def _leaves(n: int, width: int, out: list[str]) -> None:
    """Append the digits of 0 <= n < 10**width, zero-padded to width."""
    if width == _LEAF_DIGITS:
        out.append(str(n).zfill(width))
        return
    half = width // 2
    # divmod(n, 10**half) as a shift and a divmod by the smaller 5**half
    high, rest = divmod(n >> half, _POW5[half])
    _leaves(high, half, out)
    _leaves(rest << half | n & ((1 << half) - 1), half, out)


def _digit_bound(n: int) -> int:
    """An upper bound on the digits of |n|, from its bits."""
    return int(n.bit_length() * 0.30103) + 1


def _int_text(n: int) -> str:
    """str(n) byte for byte, ValueError past the digit limit included."""
    if -_LEAF_BOUND < n < _LEAF_BOUND:
        return str(n)
    if 0 < _max_str_digits() < _digit_bound(n):
        return str(n)               # str() itself refuses past the limit
    return _block_text(n)


# Rows sort by (module, operation), and neighbouring rows share their big
# numerators and denominators, so a few recent texts are kept.  The memo is
# keyed on the int, whose hash is cheap, never on a Fraction, whose hash
# takes a modular inverse; the digit limit is checked before it is read.
_MEMO_SIZE = 8


@functools.lru_cache(maxsize=_MEMO_SIZE)
def _block_text(n: int) -> str:
    """str(n) for |n| >= _LEAF_BOUND, by blocks."""
    digits = _digit_bound(n)
    width = _LEAF_DIGITS
    while width < digits:
        if width not in _POW5:
            _POW5[width] = _POW5[width // 2] ** 2
        width *= 2
    out: list[str] = []
    _leaves(abs(n), width, out)
    text = "".join(out).lstrip("0")
    return "-" + text if n < 0 else text


def render_value(v) -> str:
    """Deterministic cell rendering: integers and Fractions verbatim,
    floats at 12 significant digits, booleans lowercase, None empty."""
    kind = type(v)
    if kind is int:
        return _int_text(v)
    if kind is Fraction:
        if v.denominator == 1:
            return _int_text(v.numerator)
        return f"{_int_text(v.numerator)}/{_int_text(v.denominator)}"
    if v is None:
        return ""
    if kind is bool:
        return "true" if v else "false"
    if isinstance(v, float):
        return "%.12g" % v
    return str(v)
