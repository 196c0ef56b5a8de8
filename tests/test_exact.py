"""Exact-arithmetic helpers: rational coercion, integer square roots, and
the one value renderer behind report cells and ledger lines."""

from fractions import Fraction

from hypothesis import given, strategies as st

from setgrowth.exact import (
    ceil_isqrt,
    ceil_sqrt_frac,
    frac,
    render_value,
)
from setgrowth.structure import ConstantLedger


def test_frac_accepts_common_inputs():
    assert frac(3) == Fraction(3)
    assert frac("7/4") == Fraction(7, 4)
    assert frac(Fraction(2, 5)) == Fraction(2, 5)


def test_frac_coerces_floats_exactly():
    assert frac(0.5) == Fraction(1, 2)
    assert frac(0.1) == Fraction(0.1)  # binary value, kept exact


@given(st.integers(min_value=0, max_value=10**12))
def test_ceil_isqrt_is_the_ceiling(n):
    r = ceil_isqrt(n)
    assert r * r >= n
    assert r == 0 or (r - 1) * (r - 1) < n


def test_ceil_isqrt_exact_squares():
    for k in (0, 1, 2, 17, 400):
        assert ceil_isqrt(k * k) == k


@given(st.fractions(min_value=Fraction(0), max_value=Fraction(10**6)))
def test_ceil_sqrt_frac_upper_bounds_the_root(q):
    r = ceil_sqrt_frac(q)
    assert r * r >= q


def test_ledger_line_renders_sides_like_the_report_cells():
    big = 3**127  # 202 bits
    led = ConstantLedger("unit")
    led.compare("huge-bound", 5, "<=", big)
    led.compare("huge-fraction", Fraction(big, 7), ">=", Fraction(1, 3))
    led.info("flag", True)
    led.claim("verdict", True, lhs=False, rhs=big)
    for row in led.rows:
        line = row.line()
        for side in (row.lhs, row.rhs):
            assert render_value(side) in line, (side, line)
    assert str(big) in led.rows[0].line()
    assert led.rows[2].line() == "[info] flag: true"
