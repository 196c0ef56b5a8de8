"""Covering lemma, approximate-group witnesses, symmetric cores, and the
small-doubling classification pipeline.

Frozen values come from interval arithmetic done by hand: in cyclic
groups every set here is a union of intervals, so product sizes and
greedy cover traces can be read off directly.
"""

import itertools
import operator
import random
import re
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from setgrowth import setops, structure
from setgrowth.constants import (
    CLASSIFY_A_COVER_CONST,
    CLASSIFY_A_COVER_EXP,
    CLASSIFY_B_COVER_CONST,
    CLASSIFY_B_COVER_EXP,
    CLASSIFY_H_CONST,
    CLASSIFY_H_EXP,
    CLASSIFY_S_TRIPLING_CONST,
    CLASSIFY_S_TRIPLING_EXP,
    chain_exponent,
    cover_poly_value,
    positive_power_exponent,
    word_exponent,
)
from setgrowth.groups import BLOCK_PAIRS, TABLE_CAP, SL2Group, construct_group
from setgrowth.setops import (
    MSet,
    inverse_set,
    power_set,
    product_set,
    symmetrize,
    translate_left,
    translate_right,
)
from setgrowth.structure import (
    ConstantLedger,
    LedgerError,
    approx_group_from_tripling,
    classify_small_doubling,
    local_tripling_check,
    _check_covering_pair,
    ruzsa_cover,
    symmetric_core,
    tripling_chain,
)
from setgrowth.families import (
    SetFamilySpec,
    generate_set,
    measured_difference_ratio,
    measured_tripling,
)

G12 = construct_group("cyclic(12)")
G100 = construct_group("cyclic(100)")
D8 = construct_group("dihedral(8)")


def small_sets(group, max_size=6):
    ids = st.integers(min_value=0, max_value=group.order - 1)
    return st.frozensets(ids, min_size=1, max_size=max_size).map(
        lambda s: MSet.from_ids(group, s))


# ----------------------------------------------------------------- ledger

def test_ledger_collects_and_checks():
    led = ConstantLedger("demo")
    assert led.compare("ok-row", 3, "<=", 4)
    led.claim("claim-row", True)
    led.info("measured", Fraction(7, 2))
    assert led.hard_ok
    led.check()  # must not raise
    assert [r.name for r in led.rows] == ["ok-row", "claim-row", "measured"]


def test_ledger_failure_raises_with_rows():
    led = ConstantLedger("demo")
    led.compare("bad-row", 5, "<=", 4)
    assert not led.hard_ok
    with pytest.raises(LedgerError) as exc:
        led.check()
    assert any(row.name == "bad-row" for row in exc.value.failures)


def test_ledger_merge_prefixes_names():
    inner = ConstantLedger("inner")
    inner.compare("row", 1, "<=", 2)
    inner.compare("soft-row", Fraction(1, 2), "<", 2, kind="soft",
                  formula="f")
    inner.claim("claim", False, lhs=3, rhs=4)
    inner.info("size", 7, note="ids")
    outer = ConstantLedger("outer")
    outer.merge(inner, prefix="sub.")
    assert outer.rows[0].name == "sub.row"
    # every other field is kept, and each row is still a LedgerRow
    assert outer.rows == [r._replace(name="sub." + r.name) for r in inner.rows]
    assert all(type(r) is structure.LedgerRow for r in outer.rows)


RELS = {"<=": operator.le, ">=": operator.ge, "<": operator.lt,
        ">": operator.gt, "==": operator.eq}
# sides with more than 30,000 bits, next to their neighbours
HUGE = [3**20_000, 3**20_000 + 1, -(3**20_000), Fraction(3**20_000, 7),
        Fraction(-(3**20_000) - 1, 3**19_999)]
EXACT_SIDES = st.one_of(
    st.integers(-5, 5), st.integers(), st.fractions(),
    st.fractions(max_denominator=4), st.sampled_from(HUGE))


@settings(max_examples=300, deadline=None)
@given(EXACT_SIDES, EXACT_SIDES, st.sampled_from(sorted(RELS)))
def test_compare_on_exact_sides_agrees_with_the_operator(lhs, rhs, rel):
    assert ConstantLedger("t").compare("row", lhs, rel, rhs) is RELS[rel](lhs, rhs)


@pytest.mark.parametrize("lhs, rhs", [
    (0, 0), (0, Fraction(0)), (-3, Fraction(-6, 2)), (Fraction(-1, 3), 0),
    (Fraction(2, 3), Fraction(4, 6)), (Fraction(2, 3), Fraction(5, 7)),
    (HUGE[0], HUGE[1]), (HUGE[3], HUGE[3] + Fraction(1, 7**9)),
    (HUGE[2], HUGE[4]), (HUGE[0], HUGE[0])])
@pytest.mark.parametrize("rel", sorted(RELS))
def test_compare_at_zero_negative_equal_and_huge_sides(lhs, rhs, rel):
    for a, b in ((lhs, rhs), (rhs, lhs)):
        led = ConstantLedger("t")
        assert led.compare("row", a, rel, b) is RELS[rel](a, b)
        assert led.rows[0].holds is RELS[rel](a, b)


@pytest.mark.parametrize("lhs, rhs", [
    (0.1 + 0.2, 0.3), (Fraction(1, 3), 1 / 3), (1 / 3, Fraction(1, 3)),
    (2**53 + 1, float(2**53)), (True, 1), (False, Fraction(0)),
    (np.int64(3), Fraction(7, 2)), (Fraction(7, 2), np.int64(4))])
@pytest.mark.parametrize("rel", sorted(RELS))
def test_compare_on_other_sides_takes_the_operator(lhs, rhs, rel):
    assert ConstantLedger("t").compare("row", lhs, rel, rhs) == RELS[rel](lhs, rhs)


@pytest.mark.parametrize("m", range(1, 7))
def test_pattern_rows_list_every_word_in_the_chain_order(m):
    # the order tripling_chain read its rows in: words sorted with + before -
    words = sorted(itertools.product((1, -1), repeat=m),
                   key=lambda w: [0 if s == 1 else 1 for s in w])
    rows = structure._pattern_rows(m)
    assert [word for word, *_ in rows] == words
    for word, name, e, formula in rows:
        assert e == word_exponent(word)
        assert name == "pattern:" + "".join("+" if s == 1 else "-" for s in word)
        assert formula == f"K^{e}|A|"
    assert structure._pattern_rows(m) is rows


def test_require_records_a_true_premise_as_compare_does():
    led, ref = ConstantLedger("demo"), ConstantLedger("demo")
    assert led.require("premise", 3, "<=", 4, formula="|A| <= 4") is None
    ref.compare("premise", 3, "<=", 4, formula="|A| <= 4")
    assert led.rows == ref.rows


@pytest.mark.parametrize("kind", ["hard", "soft"])
def test_require_refuses_a_false_premise_with_its_row(kind):
    led, ref = ConstantLedger("demo"), ConstantLedger("demo")
    ref.compare("premise", 5, "<=", 4, kind=kind, formula="|A| <= 4")
    with pytest.raises(LedgerError) as exc:
        led.require("premise", 5, "<=", 4, kind=kind, formula="|A| <= 4")
    assert led.rows == ref.rows
    assert exc.value.failures == ref.rows
    assert str(exc.value) == f"demo: {ref.rows[0].line()}"
    assert str(exc.value) == f"demo: [{kind}] premise: 5 <= 4 FAIL (|A| <= 4)"


def _refused(call, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()


C1000 = construct_group("cyclic(1000)")
TRIPLING_4 = MSet.from_ids(G100, [0, 1, 10, 30])    # |A^3| = 19


@pytest.mark.parametrize("call, message", [
    (lambda: approx_group_from_tripling(TRIPLING_4, Fraction(17, 4)),
     "approx_group_from_tripling: [hard] tripling-hypothesis: 19 <= 17 FAIL "
     "(|A^3| <= K|A|)"),
    (lambda: tripling_chain(TRIPLING_4, Fraction(17, 4)),
     "tripling_chain: [hard] tripling-hypothesis: 19 <= 17 FAIL (|A^3| <= K|A|)"),
    (lambda: symmetric_core(MSet.from_ids(construct_group("cyclic(8)"),
                                          [0, 1, 2, 3]), 1),
     "symmetric_core: [hard] doubling-hypothesis: 7 <= 4 FAIL (|A·A^-1| <= K|A|)"),
    (lambda: classify_small_doubling(MSet.from_ids(C1000, range(10)),
                                     MSet.from_ids(C1000, range(10)), 1),
     "classify_small_doubling: [hard] doubling-hypothesis: 361 <= 100 FAIL "
     "(|A·B|^2 <= K^2|A||B|)"),
    (lambda: local_tripling_check(symmetrize(MSet.from_ids(G100, [1, 2])),
                                  Fraction(1, 100)),
     "local_tripling_check: [soft] local-product-hypothesis: 9 <= 1/20 FAIL "
     "(sup_a |A·a·A| <= K|A|)"),
], ids=["approx_group_from_tripling", "tripling_chain", "symmetric_core",
        "classify_small_doubling", "local_tripling_check"])
def test_a_false_premise_is_refused_with_its_row(call, message, refused_premise):
    refused_premise(call, message)


def test_local_tripling_refuses_a_false_square_premise(monkeypatch, refused_premise):
    # while the local-product row measures |A·A·a| = |A^2| (ROADMAP item 1)
    # the square premise cannot fail first; with A·a read as {1} the sup
    # is |A| = 5 and |A^2| = 9 > (3/2)|A|
    monkeypatch.setattr(structure, "translate_right",
                        lambda a, x: MSet.from_ids(a.group, [0]))
    refused_premise(
        lambda: local_tripling_check(symmetrize(MSet.from_ids(G100, [1, 2])),
                                     Fraction(3, 2)),
        "local_tripling_check: [soft] square-hypothesis: 9 <= 15/2 FAIL "
        "(|A^2| <= K|A|)")


@pytest.mark.parametrize("call", [
    lambda a, b: ruzsa_cover(a, b),
    lambda a, b: classify_small_doubling(a, b, 2),
], ids=["ruzsa_cover", "classify_small_doubling"])
def test_sets_from_two_groups_are_refused(call):
    a, b = MSet.from_ids(G12, [0, 1]), MSet.from_ids(G100, [0, 1])
    _refused(lambda: call(a, b),
             "sets live in different groups: cyclic(12) vs cyclic(100)")


# ---------------------------------------------------------------- covering

def test_cover_worked_example():
    a = MSet.from_ids(G12, [0, 1, 2, 3])
    b = MSet.from_ids(G12, range(8))
    x = ruzsa_cover(a, b, "left")
    assert x.ids() == (0, 4)
    assert x.size * a.size <= product_set(a, b).size


def test_cover_left_containment():
    a = MSet.from_ids(G12, [0, 1, 2, 3])
    b = MSet.from_ids(G12, range(8))
    x = ruzsa_cover(a, b, "left")
    hull = product_set(product_set(inverse_set(a), a), x)
    assert b <= hull


@settings(max_examples=60)
@given(small_sets(D8), small_sets(D8))
def test_cover_invariants_both_sides(a, b):
    for side in ("left", "right"):
        x = ruzsa_cover(a, b, side)
        assert x <= b
        if side == "left":
            assert x.size * a.size <= product_set(a, b).size
            hull = product_set(product_set(inverse_set(a), a), x)
        else:
            assert x.size * a.size <= product_set(b, a).size
            hull = product_set(x, product_set(a, inverse_set(a)))
        assert b <= hull


# ---------------------------------------------------- approximate groups

def test_subgroup_is_a_one_approximate_group():
    h = MSet.from_ids(G12, [0, 4, 8])
    x = MSet.from_ids(G12, [0])
    wit = _check_covering_pair(h, x, 1, power_set(h, 2))
    assert wit.verified
    assert [name for name, _ in wit.checks] == [
        "h-symmetric", "h-contains-identity", "x-symmetric", "x-inside-h2",
        "x-small", "h2-in-xh", "h2-in-hx"]


def test_witness_reports_violations():
    h = MSet.from_ids(G12, [0, 1, 11])
    x = MSet.from_ids(G12, [0])
    wit = _check_covering_pair(h, x, 1, power_set(h, 2))
    assert not wit.verified
    assert ("h2-in-xh", False) in wit.checks


def test_from_tripling_worked_example():
    a = MSet.from_ids(G100, [99, 0, 1])
    wit, led = approx_group_from_tripling(a, Fraction(7, 3))
    assert wit.h.ids() == (0, 1, 2, 3, 97, 98, 99)
    assert wit.x.ids() == (0, 3, 6, 94, 97)
    assert wit.x.size == 5
    assert wit.verified
    assert led.hard_ok
    assert a <= wit.h


def test_from_tripling_rejects_bad_hypothesis():
    a = MSet.from_ids(G100, [0, 1, 10, 30])
    k = measured_tripling(a) - Fraction(1, 2)
    with pytest.raises(LedgerError):
        approx_group_from_tripling(a, k)


def test_witness_power_rows_present():
    a = MSet.from_ids(G100, [99, 0, 1])
    _, led = approx_group_from_tripling(a, Fraction(7, 3))
    names = [r.name for r in led.rows]
    assert "power-n=3" in names and "power-n=4" in names
    assert led.hard_ok


@settings(max_examples=40, deadline=None)
@given(small_sets(D8, 4))
def test_from_tripling_always_verifies_at_measured_k(a):
    wit, led = approx_group_from_tripling(a, measured_tripling(a))
    assert wit.verified
    assert led.hard_ok


def test_tripling_chain_rows():
    a = MSet.from_ids(G100, [99, 0, 1])
    led = tripling_chain(a, measured_tripling(a), n=6)
    assert led.hard_ok
    word_rows = [r for r in led.rows if r.kind == "hard"]
    # all signed words of length 1..6 plus aggregate rows
    assert len(word_rows) >= 2 + 4 + 8 + 16 + 32 + 64


# --------------------------------------------------------- symmetric core

def test_symmetric_core_worked_example():
    g = construct_group("cyclic(8)")
    a = MSet.from_ids(g, [0, 1, 2, 3])
    core, led = symmetric_core(a, Fraction(7, 4))
    assert core.s.ids() == (0, 1, 2, 6, 7)
    assert led.hard_ok
    assert core.s.is_symmetric()
    assert core.s.contains_identity()


def test_symmetric_core_rejects_bad_hypothesis():
    g = construct_group("cyclic(8)")
    a = MSet.from_ids(g, [0, 1, 2, 3])
    with pytest.raises(LedgerError):
        symmetric_core(a, Fraction(1))


@settings(max_examples=40, deadline=None)
@given(small_sets(D8, 5))
def test_symmetric_core_at_measured_k(a):
    core, led = symmetric_core(a, measured_difference_ratio(a))
    assert led.hard_ok
    assert 2 * measured_difference_ratio(a) * core.s.size >= a.size


# ---------------------------------------------------------- classification

def test_classify_worked_example():
    g = construct_group("cyclic(1000)")
    a = MSet.from_ids(g, range(10))
    wit, x_out, led = classify_small_doubling(a, a, Fraction(19, 10))
    assert wit.h.size == 49
    assert x_out.size == 9
    assert wit.verified
    assert led.hard_ok
    # A is covered by X * H and B by H * X
    cover_a = product_set(x_out, wit.h)
    assert a <= cover_a


def test_classify_rejects_bad_hypothesis():
    g = construct_group("cyclic(1000)")
    a = MSet.from_ids(g, range(10))
    with pytest.raises(LedgerError):
        classify_small_doubling(a, a, Fraction(1))


# -------------------------------------------------------- local tripling

def test_local_tripling_happy_path():
    a = symmetrize(MSet.from_ids(G100, [1, 2]))
    sup = max(
        product_set(product_set(a, MSet.from_ids(G100, [t])), a).size
        for t in a.ids())
    k = Fraction(max(sup, power_set(a, 2).size), a.size)
    led = local_tripling_check(a, k)
    assert led.hard_ok
    names = [r.name for r in led.rows]
    assert any("conclusion" in n or "tripling" in n for n in names)


def test_local_tripling_rejects_below_measured():
    a = symmetrize(MSet.from_ids(G100, [1, 2]))
    with pytest.raises(LedgerError):
        local_tripling_check(a, Fraction(1, 100))


def _local_product_instance():
    """symmetric(4) with subgroup_plus_point(1): |A| = 3, |A^2| = 5 and
    sup over a in A of |A·a·A| = 6, so K = 5/3 covers |A^2| but not the
    local products."""
    a = generate_set(SetFamilySpec.parse("symmetric(4)", "subgroup_plus_point(1)"))
    sup = max(product_set(product_set(a, MSet.from_ids(a.group, [t])), a).size
              for t in a.ids())
    return a, sup


def test_local_product_instance_sizes():
    a, sup = _local_product_instance()
    assert (a.size, power_set(a, 2).size, sup) == (3, 5, 6)


@pytest.mark.xfail(strict=True, reason="local_tripling_check measures "
                   "|A·A·a| instead of |A·a·A|, so it accepts K = 5/3 here")
def test_local_tripling_rejects_k_below_the_local_product_sup():
    a, _ = _local_product_instance()
    with pytest.raises((ValueError, LedgerError)):
        local_tripling_check(a, Fraction(5, 3))


# ------------------------------------------- reference loops (array path)
# The per-element and per-word loops the structure routines ran before they
# moved to blocked mul_outer scans, one product memo for the tripling chain
# and one power chain of H0.  Each rewritten routine must return the same
# sets and the same ledger rows, in the same order, as these.

H27_SPEC = "heisenberg(z=Zp^2,p=3;w=Zp^1,p=3;pairing=symplectic)"
DIFF_GROUPS = ["cyclic(12)", "dihedral(8)", "symmetric(4)", "sl2(5)", H27_SPEC,
               "symmetric(7)"]  # order 5040: above TABLE_CAP, no table
GROUPS = {spec: construct_group(spec) for spec in DIFF_GROUPS}
S7 = GROUPS["symmetric(7)"]


def ref_ruzsa_cover(a, b, side):
    chosen, used = [], set()
    for x in b.ids():
        t = set((translate_right(a, x) if side == "left" else translate_left(x, a)).ids())
        if not used & t:
            chosen.append(x)
            used |= t
    return MSet.from_ids(a.group, chosen)


def ref_symmetric_core(a, k):
    led = ConstantLedger("symmetric_core")
    a_inv = inverse_set(a)
    led.compare("doubling-hypothesis", product_set(a, a_inv).size, "<=",
                k * a.size, formula="|A·A^-1| <= K|A|")
    p, q = k.numerator, k.denominator
    s = MSet.from_ids(a.group, [
        x for x in product_set(a_inv, a).ids()
        if 2 * p * (a & translate_right(a, x)).size > q * a.size])
    led.claim("core-identity", s.contains_identity(), formula="1 in S")
    led.claim("core-symmetric", s.is_symmetric(), formula="S = S^-1")
    led.claim("core-support", s <= product_set(a_inv, a), formula="S subset A^-1·A")
    led.compare("core-size", 2 * p * s.size, ">=", q * a.size,
                formula="2K|S| >= |A|, cleared")
    left = a
    for n in (1, 2, 3):
        left = product_set(left, s)
        led.compare(f"growth-n={n}", product_set(left, a_inv).size, "<=",
                    2**n * k ** (2 * n + 1) * a.size,
                    formula=f"2^{n} K^{2 * n + 1}|A|")
    return s, led


def ref_tripling_chain(a, k, n):
    led = ConstantLedger("tripling_chain")
    led.compare("tripling-hypothesis", power_set(a, 3).size, "<=", k * a.size,
                formula="|A^3| <= K|A|")
    a_inv = inverse_set(a)
    level = {(1,): a, (-1,): a_inv}
    overall_max = 0
    for length in range(1, n + 1):
        length_max = 0
        for word in sorted(level, key=lambda w: [0 if s == 1 else 1 for s in w]):
            text = "".join("+" if s == 1 else "-" for s in word)
            led.compare(f"pattern:{text}", level[word].size, "<=",
                        k ** word_exponent(word) * a.size,
                        formula=f"K^{word_exponent(word)}|A|")
            length_max = max(length_max, level[word].size)
        led.compare(f"length-{length}-max", length_max, "<=",
                    k ** chain_exponent(length) * a.size,
                    formula=f"K^c({length})|A|, c({length})={chain_exponent(length)}")
        overall_max = max(overall_max, length_max)
        if length < n:
            level = {word + (sign,): product_set(cur, a if sign == 1 else a_inv)
                     for word, cur in level.items() for sign in (1, -1)}
    led.compare("chain-max", overall_max, "<=", k ** chain_exponent(n) * a.size,
                formula=f"K^c({n})|A|, c({n})={chain_exponent(n)}")
    return led


def ref_approx_group_from_tripling(a, k):
    led = ConstantLedger("approx_group_from_tripling")
    a3 = power_set(a, 3)
    led.compare("tripling-hypothesis", a3.size, "<=", k * a.size,
                formula="|A^3| <= K|A|")
    h0 = symmetrize(a)
    h, h2 = power_set(h0, 3), power_set(h0, 6)
    h7 = product_set(h2, h0)
    for name, size in (("a", a), ("h0", h0), ("h", h), ("h2", h2)):
        led.info(f"size-{name}", size.size)
    if h0 == a:
        h7_bound, h7_formula = (k ** positive_power_exponent(7) * a.size,
                                "K^9|A|, symmetric input")
    else:
        h7_bound, h7_formula = cover_poly_value(k) * a.size, "P7(K)|A|"
    led.compare("h0-seventh-power", h7.size, "<=", h7_bound, formula=h7_formula)
    y = ref_ruzsa_cover(h0, h2, "left")
    led.compare("cover-count", y.size * h0.size, "<=", h7.size,
                formula="|Y||H0| <= |H0·H0^6|")
    y_bound = h7_bound / h0.size
    led.compare("cover-size", y.size, "<=", y_bound,
                formula="|Y| <= bound(|H0^7|)/|H0|")
    x = y.union(inverse_set(y))
    led.compare("x-size", x.size, "<=", 2 * y_bound, formula="|X| <= 2|Y|-bound")
    led.info("size-x", x.size)
    wit = _check_covering_pair(h, x, Fraction(x.size), power_set(h, 2))
    for name, ok in wit.checks:
        led.claim(f"witness-{name}", ok)
    led.claim("a-in-h", a <= h, lhs=a.size, rhs=h.size, formula="A subset H")
    hn, xpow = product_set(h, h), x
    for n in (3, 4):
        hn = product_set(hn, h)
        xpow = product_set(xpow, x)
        cover = product_set(xpow, h)
        led.claim(f"power-n={n}", hn <= cover, lhs=hn.size, rhs=cover.size,
                  formula=f"H^{n} subset X^{n - 1}·H")
    led.compare("tripling-from-witness", a3.size, "<=", x.size ** 2 * h.size,
                formula="|A^3| <= |X|^2|H|")
    return wit, led


def ref_classify_small_doubling(a, b, k):
    """The classify pipeline that formed S², S³ three times and repeated its
    growth products, on the reference core, powers and witness."""
    led = ConstantLedger("classify_small_doubling")
    ab = product_set(a, b)
    led.compare("doubling-hypothesis", ab.size**2, "<=", k**2 * a.size * b.size,
                formula="|A·B|^2 <= K^2|A||B|")
    led.compare("k-at-least-one", Fraction(1), "<=", k, formula="K >= 1")
    led.compare("a-self-doubling", product_set(a, inverse_set(a)).size, "<=",
                k**2 * a.size, formula="|A·A^-1| <= K^2|A|")
    s, core_led = ref_symmetric_core(a, k**2)
    led.merge(core_led, "core.")
    h = power_set(s, 3)
    h_bound = CLASSIFY_H_CONST * k**CLASSIFY_H_EXP
    s_bound = CLASSIFY_S_TRIPLING_CONST * k**CLASSIFY_S_TRIPLING_EXP
    led.compare("h-size", h.size, "<=", h_bound * a.size,
                formula=f"{CLASSIFY_H_CONST} K^{CLASSIFY_H_EXP}|A|")
    led.compare("s-tripling", h.size, "<=", s_bound * s.size,
                formula=f"{CLASSIFY_S_TRIPLING_CONST} K^{CLASSIFY_S_TRIPLING_EXP}|S|")
    wit, wit_led = ref_approx_group_from_tripling(s, s_bound)
    led.merge(wit_led, "witness.")
    led.claim("witness-h-match", wit.h == h, lhs=wit.h.size, rhs=h.size,
              formula="(S u {1} u S^-1)^3 = S^3")
    ah = product_set(a, h)
    led.compare("a-h-product", ah.size, "<=", h_bound * a.size,
                formula=f"{CLASSIFY_H_CONST} K^{CLASSIFY_H_EXP}|A|")
    z0 = ref_ruzsa_cover(h, a, "right")
    led.compare("a-cover-count", z0.size * h.size, "<=", ah.size,
                formula="|Z0||H| <= |A·H|")
    led.compare("a-cover-size", z0.size, "<=",
                CLASSIFY_A_COVER_CONST * k**CLASSIFY_A_COVER_EXP,
                formula=f"{CLASSIFY_A_COVER_CONST} K^{CLASSIFY_A_COVER_EXP}")
    b_inv = inverse_set(b)
    b_inv_h = product_set(b_inv, h)
    w0 = ref_ruzsa_cover(h, b_inv, "right")
    led.compare("b-cover-count", w0.size * h.size, "<=", b_inv_h.size,
                formula="|W0||H| <= |B^-1·H|")
    led.compare("b-cover-size", w0.size, "<=",
                CLASSIFY_B_COVER_CONST * k**CLASSIFY_B_COVER_EXP,
                formula=f"{CLASSIFY_B_COVER_CONST} K^{CLASSIFY_B_COVER_EXP}")
    x_final = product_set(z0, wit.x).union(
        inverse_set(product_set(w0, wit.x)))
    xh, hx = product_set(x_final, h), product_set(h, x_final)
    led.claim("a-contained", a <= xh, lhs=a.size, rhs=xh.size,
              formula="A subset X·H")
    led.claim("b-contained", b <= hx, lhs=b.size, rhs=hx.size,
              formula="B subset H·X")
    led.compare("x-final-size", x_final.size, "<=",
                2 * CLASSIFY_B_COVER_CONST * k**CLASSIFY_B_COVER_EXP * wit.x.size,
                formula=f"32 K^{CLASSIFY_B_COVER_EXP}|X_wit|")
    led.info("x-final-measured", x_final.size)
    return wit, x_final, led


def assert_same_classify(a, b, k):
    wit, x_final, led = classify_small_doubling(a, b, k)
    ref_wit, ref_x, ref = ref_classify_small_doubling(a, b, k)
    assert (wit.h, wit.x, wit.checks) == (ref_wit.h, ref_wit.x, ref_wit.checks)
    assert x_final == ref_x
    assert_same_rows(led, ref)
    assert led.hard_ok


def assert_same_rows(led, ref):
    assert led.rows == ref.rows
    assert led.lines() == ref.lines()


def diff_sets(spec, max_size):
    return small_sets(GROUPS[spec], max_size)


def distinct_quotients(g, ids):
    """The greedy subset A of ids whose quotients a^-1·a' (a != a') are all
    distinct: |A^-1·A| = |A|^2 - |A| + 1, the most any A has."""
    kept = []
    for x in ids:
        trial = MSet.from_ids(g, kept + [x])
        n = trial.size
        if n > len(kept) and product_set(inverse_set(trial), trial).size == n * n - n + 1:
            kept.append(x)
    return MSet.from_ids(g, kept)


@pytest.mark.parametrize("spec", DIFF_GROUPS)
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_ruzsa_cover_matches_reference_loop(spec, data):
    # three regimes of A: small; dense, |A| > |G|/2, where A^-1·A = G by
    # pigeonhole and the first root blocks every other; and sparse with
    # distinct quotients, where |A^-1·A| is largest and many roots are taken
    g = GROUPS[spec]
    regime = data.draw(st.sampled_from(["small", "dense", "sparse"]))
    if regime == "dense":
        holes = data.draw(st.frozensets(st.integers(0, g.order - 1),
                                        max_size=min(40, (g.order - 1) // 2)))
        a = MSet.from_ids(g, set(range(g.order)) - holes)
        assert 2 * a.size > g.order
    elif regime == "sparse":
        a = distinct_quotients(g, data.draw(st.lists(
            st.integers(0, g.order - 1), min_size=1, max_size=8)))
    else:
        a = data.draw(diff_sets(spec, 12))
    b = data.draw(diff_sets(spec, 40))
    for side in ("left", "right"):
        assert ruzsa_cover(a, b, side) == ref_ruzsa_cover(a, b, side)


def test_dense_cover_forms_at_most_the_group_order_in_products(monkeypatch):
    # |A| = 700 > 660 = |G|/2 in sl2(11): A^-1·A and A·A^-1 are G with no
    # product formed, and the first root's translate of G blocks the rest
    g = construct_group("sl2(11)")
    rng = random.Random(11)
    a = MSet.from_ids(g, rng.sample(range(g.order), 700))
    b = MSet.from_ids(g, rng.sample(range(g.order), 700))
    pairs = g.mul_pairs
    for side in ("left", "right"):
        formed = []

        def counted(x, y):
            formed.append(np.broadcast(x, y).size)
            return pairs(x, y)

        monkeypatch.setattr(g, "mul_pairs", counted)
        x = ruzsa_cover(a, b, side)
        monkeypatch.undo()
        assert x.ids() == (b.ids()[0],)
        assert sum(formed) <= g.order


@pytest.mark.parametrize("spec", DIFF_GROUPS)
@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_symmetric_core_matches_reference_loop(spec, data):
    a = data.draw(diff_sets(spec, 8))
    k = measured_difference_ratio(a) * data.draw(
        st.sampled_from([1, Fraction(5, 4), 2]))
    core, led = symmetric_core(a, k)
    s, ref = ref_symmetric_core(a, k)
    assert core.s == s
    assert_same_rows(led, ref)


@pytest.mark.parametrize("spec", DIFF_GROUPS)
@settings(max_examples=10, deadline=None)
@given(data=st.data())
def test_symmetric_core_matches_reference_loop_past_int64(spec, data):
    # K's numerator is above 2^63: the core's threshold is the Python int
    # floor(q|A|/2p), so no int64 product of p is formed.  Neither
    # multiplier's numerator has a prime factor below 11, so none cancels
    # with the ratio's denominator |A| <= 8
    a = data.draw(diff_sets(spec, 8))
    k = measured_difference_ratio(a) * data.draw(st.sampled_from(
        [Fraction(2**64 + 1, 2**64), Fraction(3 * 2**63 + 5, 2**63)]))
    assert k.numerator > 2**63
    core, led = symmetric_core(a, k)
    s, ref = ref_symmetric_core(a, k)
    assert core.s == s
    assert_same_rows(led, ref)


@pytest.mark.parametrize("spec", ["symmetric(3)", "dihedral(4)"])
def test_symmetric_core_matches_reference_loop_on_every_subset(spec):
    # all 63 nonempty subsets of symmetric(3) and all 255 of dihedral(4),
    # each at its measured K = |A·A^-1|/|A|
    g = construct_group(spec)
    for r in range(1, g.order + 1):
        for ids in itertools.combinations(range(g.order), r):
            a = MSet.from_ids(g, ids)
            k = measured_difference_ratio(a)
            core, led = symmetric_core(a, k)
            s, ref = ref_symmetric_core(a, k)
            assert core.s == s
            assert_same_rows(led, ref)


@pytest.mark.parametrize("spec", DIFF_GROUPS)
@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_tripling_chain_matches_reference_loop(spec, data):
    a = data.draw(diff_sets(spec, 5))
    n = data.draw(st.integers(min_value=1, max_value=6))
    k = measured_tripling(a)
    assert_same_rows(tripling_chain(a, k, n), ref_tripling_chain(a, k, n))


@pytest.mark.parametrize("spec", DIFF_GROUPS)
@settings(max_examples=10, deadline=None)
@given(data=st.data())
def test_approx_group_from_tripling_matches_reference(spec, data):
    # two ids keep symmetric(7)'s covering sets, and X^3·H, small
    a = data.draw(diff_sets(spec, 2 if spec == "symmetric(7)" else 4))
    k = measured_tripling(a)
    wit, led = approx_group_from_tripling(a, k)
    ref_wit, ref = ref_approx_group_from_tripling(a, k)
    assert (wit.h, wit.x, wit.checks) == (ref_wit.h, ref_wit.x, ref_wit.checks)
    assert_same_rows(led, ref)


@pytest.mark.parametrize("spec", DIFF_GROUPS)
@settings(max_examples=10, deadline=None)
@given(data=st.data())
def test_classify_small_doubling_matches_reference(spec, data):
    # two ids keep symmetric(7)'s X^3·H small, as for the tripling witness
    size = 2 if spec == "symmetric(7)" else 4
    a = data.draw(diff_sets(spec, size))
    b = data.draw(st.just(a) | diff_sets(spec, size))
    # |A·B|^2 <= K^2|A||B| holds at K = |A·B| / min(|A|, |B|)
    k = Fraction(product_set(a, b).size, min(a.size, b.size))
    assert_same_classify(a, b, k)


def test_classify_leaves_sl2_11_without_a_table():
    # the 40 seeded ids of the sl2-classify benchmark input: classify forms
    # about 84,000 products, far below the 1,742,400 cells of the table
    g = SL2Group(11)
    a = MSet.from_ids(g, random.Random("1729:sl2-classify").sample(
        range(g.order), 40))
    _, _, led = classify_small_doubling(
        a, a, Fraction(product_set(a, a).size, a.size))
    assert led.hard_ok
    assert g._table is None


def test_classify_on_sl2_13_memory_is_below_the_table():
    # 60 seeded ids of sl2(13): its uint16 table alone is 2184^2 * 2 bytes
    # = 9.5 MB, while classify, inferring K included, forms about 234,000
    # products in blocks
    g = SL2Group(13)
    a = MSet.from_ids(g, random.Random(1729).sample(range(g.order), 60))
    tracemalloc.start()
    try:
        k = Fraction(product_set(a, a).size, a.size)
        _, _, led = classify_small_doubling(a, a, k)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert led.hard_ok
    assert peak < 4_000_000


def test_classify_forms_each_operand_pair_once(monkeypatch):
    """On 40 seeded ids of sl2(11), with B = A and K = |A·A|/|A|, no product
    is formed twice and none has the whole group as an operand.  Sets in
    different roles can still coincide on other inputs (Z0 = W0 when B = A,
    or a final X equal to the witness X), and only a memo of products would
    merge those; the pipeline keeps none."""
    g = construct_group("sl2(11)")
    a = MSet.from_ids(g, random.Random(1729).sample(range(g.order), 40))
    k = Fraction(product_set(a, a).size, a.size)
    formed = []
    real = setops._product_mask

    def counted(group, xs, ys):
        xs, ys = np.asarray(xs), np.asarray(ys)
        formed.append((xs.tobytes(), ys.tobytes(), len(xs), len(ys)))
        return real(group, xs, ys)

    monkeypatch.setattr(setops, "_product_mask", counted)
    _, _, led = classify_small_doubling(a, a, k)
    monkeypatch.undo()
    assert led.hard_ok
    pairs = [(x, y) for x, y, _, _ in formed]
    assert len(pairs) == len(set(pairs))
    assert all(nx < g.order and ny < g.order for _, _, nx, ny in formed)
    assert_same_classify(a, a, k)


def test_tripling_chain_forms_one_product_per_distinct_set_and_sign(monkeypatch):
    # A = {0, 1} in cyclic(100): a word with p signs + and m signs - gives
    # the interval [-m, p], so level L holds L + 1 distinct sets and the
    # chain to length 6 forms 2(2 + 3 + 4 + 5 + 6) = 40 products, not 124
    calls = []

    def counted(x, y):
        calls.append((x, id(y)))
        return product_set(x, y)

    monkeypatch.setattr(structure, "product_set", counted)
    a = MSet.from_ids(G100, [0, 1])
    led = tripling_chain(a, measured_tripling(a), n=6)
    assert led.hard_ok
    assert len(calls) == len(set(calls)) == 40


def test_tripling_chain_takes_the_hypothesis_cube_from_its_chain(monkeypatch):
    # the hypothesis |A^3| reads A·A and A²·A from the chain's own (set,
    # sign) products, so the 40 chain products are all the chain forms
    real = setops._product_mask
    calls = []

    def counted(group, xs, ys):
        calls.append(1)
        return real(group, xs, ys)

    a = MSet.from_ids(G100, [0, 1])
    k = measured_tripling(a)
    monkeypatch.setattr(setops, "_product_mask", counted)
    led = tripling_chain(a, k, n=6)
    assert led.hard_ok
    assert len(calls) == 40


def test_classify_runs_the_public_core_and_witness_steps_once(monkeypatch):
    a = MSet.from_ids(G100, range(10))
    calls = {"symmetric_core": [], "approx_group_from_tripling": []}
    for name, seen in calls.items():
        step = getattr(structure, name)

        def counted(*args, _step=step, _seen=seen, **kwargs):
            result = _step(*args, **kwargs)
            _seen.append(result)
            return result

        monkeypatch.setattr(structure, name, counted)
    wit, _, led = classify_small_doubling(a, a, Fraction(19, 10))
    assert led.hard_ok
    assert [len(seen) for seen in calls.values()] == [1, 1]
    (core, _), = calls["symmetric_core"]
    assert core.difference == product_set(a, inverse_set(a))
    assert calls["approx_group_from_tripling"][0][0] is wit
    rows = {r.name: r for r in led.rows}
    assert rows["a-self-doubling"].lhs == core.difference.size


def test_cover_spanning_several_blocks_matches_reference_loop():
    rng = random.Random(7)
    a = MSet.from_ids(S7, rng.sample(range(S7.order), 150))
    b = MSet.from_ids(S7, rng.sample(range(S7.order), 200))
    assert S7.order > TABLE_CAP and a.size * b.size > BLOCK_PAIRS
    for side in ("left", "right"):
        x = ruzsa_cover(a, b, side)
        assert x == ref_ruzsa_cover(a, b, side)
        assert x.size > 1


def test_core_candidate_on_the_threshold_is_excluded():
    # cyclic(8), A = {0,1,2,3}, K = 2: x = 3 and x = 5 have |A ∩ A·x| = 1,
    # so 2K|A ∩ A·x| = 4 = |A| exactly and the strict test leaves them out
    g = construct_group("cyclic(8)")
    a = MSet.from_ids(g, [0, 1, 2, 3])
    k = Fraction(2)
    for x in (3, 5):
        assert 2 * k * (a & translate_right(a, x)).size == a.size
    core, led = symmetric_core(a, k)
    s, ref = ref_symmetric_core(a, k)
    assert core.s.ids() == s.ids() == (0, 1, 2, 6, 7)
    assert_same_rows(led, ref)


def test_power_chain_not_stable_before_the_twelfth_power():
    # H0 = {-1, 0, 1} in cyclic(100): |H0^n| = 2n + 1 up to n = 12
    a = MSet.from_ids(G100, [99, 0, 1])
    h0 = symmetrize(a)
    assert power_set(h0, 12).size == 25 > power_set(h0, 11).size
    k = measured_tripling(a)
    wit, led = approx_group_from_tripling(a, k)
    ref_wit, ref = ref_approx_group_from_tripling(a, k)
    assert (wit.h, wit.x, wit.checks) == (ref_wit.h, ref_wit.x, ref_wit.checks)
    assert_same_rows(led, ref)
    rows = {r.name: r for r in led.rows}
    assert (rows["power-n=3"].lhs, rows["power-n=4"].lhs) == (19, 25)


def test_cover_and_core_memory_is_one_block():
    # 2,100 ids of symmetric(7): the translates of A by all 2,100 roots of
    # the cover, or by all 5,040 core candidates, would be 35 or 85 MB of
    # intp ids at once; one block is 16,384 products.  The core S is G
    # here, so each growth row's product_set is G with no product formed.
    a = MSet.from_ids(S7, random.Random(3).sample(range(S7.order), 2100))
    b = MSet.from_ids(S7, random.Random(4).sample(range(S7.order), 2100))
    k = measured_difference_ratio(a)
    ruzsa_cover(a, b, "left")
    tracemalloc.start()
    try:
        ruzsa_cover(a, b, "left")
        ruzsa_cover(a, b, "right")
        symmetric_core(a, k)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4_000_000
