"""Exact-arithmetic helpers: rational coercion, integer square roots, and
the one value renderer behind report cells and ledger lines."""

import random
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from setgrowth import exact
from setgrowth.cli import main
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


@pytest.mark.parametrize("command", [
    ["bsg", "run", "--group", "cyclic(12)", "--set", "subgroup(2)"],
    ["heisen", "run", "--group",
     "heisenberg(z=Zp^2,p=3;w=Zp^1,p=3;pairing=symplectic)",
     "--set", "ball_in_word_metric(1;1,3)"],
])
def test_frac_refuses_a_zero_denominator(command, capsys):
    with pytest.raises(ValueError, match="zero denominator in '1/0'"):
        frac("1/0")
    assert main(command + ["--k", "1/0"]) == 1
    assert capsys.readouterr().err.splitlines() == ["zero denominator in '1/0'"]


@pytest.mark.parametrize("command", [
    ["bsg", "run", "--group", "cyclic(12)", "--set", "subgroup(2)"],
    ["heisen", "run", "--group",
     "heisenberg(z=Zp^2,p=3;w=Zp^1,p=3;pairing=symplectic)",
     "--set", "ball_in_word_metric(1;1,3)"],
])
@pytest.mark.parametrize("k", ["x", "1/x"])
def test_a_rational_flag_that_does_not_parse_names_the_flag(command, k, capsys):
    assert main(command + ["--k", k]) == 1
    assert capsys.readouterr().err.splitlines() == [
        f"--k expects a rational K, got {k!r}"]
    with pytest.raises(ValueError, match="^frac expects a rational value, got 'x'$"):
        frac("x")


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


# the block edges of the divide-and-conquer renderer, 1,000 * 2^j digits
BLOCK_EDGES = [1000 * 2**j for j in range(6)]


def _magnitude(digits: int, seed: int) -> int:
    return random.Random(seed).randrange(10 ** (digits - 1), 10**digits)


big_ints = st.builds(
    lambda magnitude, negative: -magnitude if negative else magnitude,
    st.one_of(
        st.builds(_magnitude, st.integers(1, 30_000), st.integers(0, 2**32)),
        st.builds(_magnitude, st.integers(990, 1010), st.integers(0, 2**32)),
        st.builds(lambda k, step: 10**k + step, st.sampled_from(BLOCK_EDGES),
                  st.sampled_from([-1, 0, 1])),
    ),
    st.booleans(),
)


@settings(max_examples=60, deadline=None)
@given(big_ints, big_ints.filter(bool))
def test_render_value_matches_str_across_the_block_edges(n, d):
    assert render_value(n) == str(n)
    assert render_value(Fraction(n, d)) == str(Fraction(n, d))


def test_render_value_refuses_what_str_refuses():
    limit = sys.get_int_max_str_digits()
    assert render_value(10**limit - 1) == "9" * limit
    for side in (10**limit, -(10**limit), Fraction(1, 10**limit), 10 ** (2 * limit)):
        with pytest.raises(ValueError) as expected:
            str(side)
        with pytest.raises(ValueError) as raised:
            render_value(side)
        assert str(raised.value) == str(expected.value)


def test_render_value_repeats_big_ints_from_the_memo_as_str():
    big = 7**5000   # 4,226 digits
    hits = exact._block_text.cache_info().hits
    for side in (big, -big, big, -big, big + 1, Fraction(-big, big + 2)):
        assert render_value(side) == str(side)
    assert exact._block_text.cache_info().hits >= hits + 3


def test_a_rendered_side_still_refuses_under_a_lowered_limit():
    side = 10**5000 + 1
    assert render_value(side) == str(side)
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    try:
        for value in (side, Fraction(1, side)):
            with pytest.raises(ValueError, match="4300"):
                render_value(value)
    finally:
        sys.set_int_max_str_digits(limit)


def test_ledger_line_renders_sides_like_the_report_cells():
    big = 3**127  # 202 bits
    huge = 7**5000  # 4,226 digits, rendered by blocks
    led = ConstantLedger("unit")
    led.compare("huge-bound", 5, "<=", big)
    led.compare("huge-fraction", Fraction(big, 7), ">=", Fraction(1, 3))
    led.info("flag", True)
    led.claim("verdict", True, lhs=False, rhs=big)
    led.compare("block-bound", Fraction(-huge, 3), "<=", huge)
    for row in led.rows:
        line = row.line()
        for side in (row.lhs, row.rhs):
            assert render_value(side) in line, (side, line)
    assert str(big) in led.rows[0].line()
    assert led.rows[4].line().startswith(f"[hard] block-bound: -{huge}/3 <= {huge} ")
    assert led.rows[2].line() == "[info] flag: true"
