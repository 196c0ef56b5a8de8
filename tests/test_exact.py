"""Exact-arithmetic helpers: rational coercion, integer square roots, and
the fixed-width number formatter."""

from fractions import Fraction

from hypothesis import given, strategies as st

from setgrowth.exact import (
    ceil_isqrt,
    ceil_sqrt_frac,
    fmt_number,
    frac,
)


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


def test_fmt_number_small_values_verbatim():
    assert fmt_number(12) == "12"
    assert fmt_number(Fraction(7, 3)) == "7/3"
    assert fmt_number(0.125) == "0.125"
    assert fmt_number(Fraction(4, 2)) == "2"


def test_fmt_number_huge_values_become_scientific():
    text = fmt_number(3**1000)
    assert text.startswith("~")
    assert "e" in text
    assert len(text) < 40


def test_fmt_number_huge_fraction():
    text = fmt_number(Fraction(3**1000, 7))
    assert text.startswith("~")
