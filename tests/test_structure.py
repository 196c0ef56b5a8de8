"""Covering lemma, approximate-group witnesses, symmetric cores, and the
small-doubling classification pipeline.

Frozen values come from interval arithmetic done by hand: in cyclic
groups every set here is a union of intervals, so product sizes and
greedy cover traces can be read off directly.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from setgrowth.groups import construct_group
from setgrowth.setops import MSet, inverse_set, power_set, product_set, symmetrize
from setgrowth.structure import (
    ConstantLedger,
    LedgerError,
    approx_group_from_tripling,
    classify_small_doubling,
    local_tripling_check,
    ruzsa_cover,
    symmetric_core,
    tripling_chain,
    verify_approx_group,
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
    outer = ConstantLedger("outer")
    outer.merge(inner, prefix="sub.")
    assert outer.rows[0].name == "sub.row"


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
    wit = verify_approx_group(h, x, 1)
    assert wit.verified
    assert wit.violations == ()


def test_witness_reports_violations():
    h = MSet.from_ids(G12, [0, 1, 11])
    x = MSet.from_ids(G12, [0])
    wit = verify_approx_group(h, x, 1)
    assert not wit.verified
    assert any("h2-in-xh" in v for v in wit.violations)


def test_from_tripling_worked_example():
    a = MSet.from_ids(G100, [99, 0, 1])
    wit, led = approx_group_from_tripling(a, Fraction(7, 3))
    assert wit.h.ids() == (0, 1, 2, 3, 97, 98, 99)
    assert wit.x.ids() == (0, 3, 6, 94, 97)
    assert wit.k == 5
    assert wit.verified
    assert led.hard_ok
    assert a <= wit.h


def test_from_tripling_rejects_bad_hypothesis():
    a = MSet.from_ids(G100, [0, 1, 10, 30])
    k = measured_tripling(a) - Fraction(1, 2)
    with pytest.raises(ValueError):
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
    with pytest.raises(ValueError):
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
    with pytest.raises(ValueError):
        classify_small_doubling(a, a, Fraction(1))


# -------------------------------------------------------- local tripling

def test_local_tripling_happy_path():
    a = symmetrize(MSet.from_ids(G100, [1, 2]))
    sup = max(
        product_set(product_set(a, MSet.singleton(G100, t)), a).size
        for t in a.ids())
    k = Fraction(max(sup, power_set(a, 2).size), a.size)
    led = local_tripling_check(a, k)
    assert led.hard_ok
    names = [r.name for r in led.rows]
    assert any("conclusion" in n or "tripling" in n for n in names)


def test_local_tripling_rejects_below_measured():
    a = symmetrize(MSet.from_ids(G100, [1, 2]))
    with pytest.raises((ValueError, LedgerError)):
        local_tripling_check(a, Fraction(1, 100))


def _local_product_instance():
    """symmetric(4) with subgroup_plus_point(1): |A| = 3, |A^2| = 5 and
    sup over a in A of |A·a·A| = 6, so K = 5/3 covers |A^2| but not the
    local products."""
    a = generate_set(SetFamilySpec.parse("symmetric(4)", "subgroup_plus_point(1)"))
    sup = max(product_set(product_set(a, MSet.singleton(a.group, t)), a).size
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
