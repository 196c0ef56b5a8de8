"""Weak and full extraction pipelines plus the four-way energy walk.

The cyclic(16) worked instance is the anchor: E(A,B) = 44 was counted by
brute force over all 256 quadruples, and every downstream cardinality
below was read off an enumeration of the level sets done independently
of the pipeline code.
"""

import dataclasses
import random
import re
import tracemalloc
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from setgrowth import cli, setops
from setgrowth.constants import (
    BSG_AUDIT_CONST_SQ,
    BSG_AUDIT_EXP_SQ,
    BSG_HEADLINE_EXP_SQ,
)
from setgrowth.exact import ceil_isqrt, ceil_sqrt_frac
from setgrowth.groups import (
    TABLE_CAP,
    _product_blocks,
    construct_group,
)
from setgrowth.setops import (
    MSet,
    convolution,
    energy,
    intersection_size,
    member_mask,
    product_set,
    subgroup_closure,
    translate_left,
    translate_right,
)
from setgrowth.bsg import (
    BsgExtract,
    WeakBsgResult,
    _step_iii_iv,
    bsg_extract,
    energy_equivalences,
    weak_bsg,
)
from setgrowth.structure import (
    ConstantLedger,
    LedgerError,
    classify_small_doubling,
    verify_approx_group,
)

G16 = construct_group("cyclic(16)")
G12 = construct_group("cyclic(12)")
A16 = MSet.from_ids(G16, [0, 1, 2, 3])


def inferred_k(a, b):
    """Smallest safe rational K with E(A,B) >= (|A||B|)^{3/2} / K."""
    e = energy(a, b)
    nm = a.size * b.size
    return Fraction(ceil_isqrt(nm**3), e)


def random_sets(group, max_size=8):
    ids = st.integers(min_value=0, max_value=group.order - 1)
    return st.frozensets(ids, min_size=2, max_size=max_size).map(
        lambda s: MSet.from_ids(group, s))


# ------------------------------------------------------------- weak form

def test_weak_on_a_subgroup():
    h = MSet.from_ids(G12, [0, 2, 4, 6, 8, 10])
    res = weak_bsg(h, h, h, 1, eps=Fraction(1, 2), kprime_sq=1)
    assert res.a_prime.size == 6
    assert res.d.size == 6
    assert res.chosen_b == 0
    assert res.omega_count == 0
    assert res.ledger.hard_ok


def test_weak_quotients_land_in_d():
    h = MSet.from_ids(G12, [0, 2, 4, 6, 8, 10])
    res = weak_bsg(h, h, h, 1, eps=Fraction(1, 2), kprime_sq=1)
    g = h.group
    for x in res.a_prime.ids():
        for y in res.a_prime.ids():
            assert g.mul(x, g.inv(y)) in res.d


def test_weak_worked_instance_cyclic16():
    c = product_set(A16, A16)
    assert c.size == 7
    kprime_sq = Fraction(c.size**2, A16.size**2)
    res = weak_bsg(A16, A16, c, 1, eps=Fraction(1, 4), kprime_sq=kprime_sq)
    assert res.ledger.hard_ok
    assert res.a_prime <= A16
    assert 2 * res.a_prime.size**2 >= A16.size**2  # sqrt(2)K bound at K=1


def test_weak_rejects_bad_product_mass():
    # C misses most products, so the counting hypothesis fails
    c = MSet.from_ids(G16, [0])
    with pytest.raises((ValueError, LedgerError)):
        weak_bsg(A16, A16, c, 1, eps=Fraction(1, 2), kprime_sq=1)


@settings(max_examples=40, deadline=None)
@given(random_sets(G16, 6), random_sets(G16, 6))
def test_weak_passes_with_measured_parameters(a, b):
    c = product_set(a, b)
    kprime_sq = Fraction(c.size**2, a.size * b.size)
    res = weak_bsg(a, b, c, 1, eps=Fraction(1, 2), kprime_sq=kprime_sq)
    assert res.ledger.hard_ok
    assert res.a_prime <= a
    # conclusion constants, re-checked outside the ledger
    assert 2 * res.a_prime.size**2 >= a.size**2
    assert Fraction(1, 2) * res.d.size <= 2 * kprime_sq * a.size


# ------------------------------------------------------------- full form

def test_extract_worked_instance():
    k = inferred_k(A16, A16)
    assert k == Fraction(16, 11)
    ex = bsg_extract(A16, A16, k)
    assert ex.c.size == 5
    assert ex.l == 1
    assert ex.a_prime.size == 4
    assert ex.a_second.size == 4
    assert ex.a_third.size == 4
    assert ex.b_third.size == 4
    assert ex.d.size == 7
    assert product_set(ex.a_third, ex.b_third).size == 7
    assert ex.ledger.hard_ok


def test_extract_trace_lines():
    ex = bsg_extract(A16, A16, inferred_k(A16, A16))
    lines = ex.trace_lines()
    assert lines[0] == "|C| = 5"
    assert lines[-1] == "|A'''·B'''| = 7"


def test_extract_size_conclusions():
    k = inferred_k(A16, A16)
    ex = bsg_extract(A16, A16, k)
    # |A'''| >= |A| / 8 sqrt(2) K, squared form; |B'''| >= |B| / 8K
    assert 128 * k**2 * ex.a_third.size**2 >= A16.size**2
    assert 8 * k * ex.b_third.size >= A16.size


def test_extract_rejects_low_energy():
    spread = MSet.from_ids(G16, [0, 3, 7, 12])
    with pytest.raises(ValueError):
        bsg_extract(spread, spread, Fraction(1))


@settings(max_examples=25, deadline=None)
@given(random_sets(G16, 8), random_sets(G16, 8))
def test_extract_always_passes_at_inferred_k(a, b):
    ex = bsg_extract(a, b, inferred_k(a, b))
    assert ex.ledger.hard_ok
    assert ex.a_third <= a
    assert ex.b_third <= b


# -------------------------------------------------------- energy walk

def test_equivalence_walk_from_energy():
    k = inferred_k(A16, A16)
    wit = energy_equivalences("i", A16, A16, k)
    assert wit.ledger.hard_ok
    assert set(wit.produced) == {"ii", "iii", "iv"}


def test_equivalence_walk_from_pair_set():
    pairs = [(x, y) for x in A16.ids() for y in A16.ids()]
    wit = energy_equivalences("ii", A16, A16, Fraction(4), pairs=pairs)
    assert wit.ledger.hard_ok


def test_equivalence_rejects_unknown_clause():
    with pytest.raises(ValueError):
        energy_equivalences("v", A16, A16, 1)


def _walk_instances():
    g = construct_group("dihedral(12)")
    return [(A16, A16),
            (MSet.from_ids(g, [0, 1, 2, 4, 6, 8, 10, 12, 20]),
             MSet.from_ids(g, [0, 2, 4, 6, 8, 10, 17]))]


@pytest.mark.parametrize("a, b", _walk_instances(), ids=["cyclic16", "dihedral12"])
def test_equivalence_walk_from_the_produced_clause_iii(a, b):
    state = energy_equivalences("i", a, b, inferred_k(a, b)).produced["iii"]
    wit = energy_equivalences("iii", a, b, state["k"], a_prime=state["a_prime"],
                              b_prime=state["b_prime"])
    assert wit.ledger.hard_ok
    assert set(wit.produced) == {"iv", "ii", "i"}
    assert wit.produced["iv"]["witness"].verified


@pytest.mark.parametrize("a, b", _walk_instances(), ids=["cyclic16", "dihedral12"])
def test_equivalence_walk_from_the_produced_clause_iv(a, b):
    state = energy_equivalences("i", a, b, inferred_k(a, b)).produced["iv"]
    wit = energy_equivalences("iv", a, b, state["k"], witness=state["witness"],
                              x_id=state["x"], y_id=state["y"])
    assert wit.ledger.hard_ok
    assert set(wit.produced) == {"ii", "i", "iii"}
    names = {row.name for row in wit.ledger.rows}
    assert {"input-iv.a-intersection", "input-iv.b-intersection"} <= names


# the caller's ids go straight into the translates xH and Hy, which refuse
# an id outside the group rather than wrap -1 around to 15
@pytest.mark.parametrize("x_id, y_id, bad", [(-1, 0, -1), (0, 16, 16)])
def test_clause_iv_refuses_an_id_outside_the_group(x_id, y_id, bad):
    state = energy_equivalences("i", A16, A16, inferred_k(A16, A16)).produced["iv"]
    with pytest.raises(ValueError,
                       match=re.escape(f"id {bad} outside group of order 16")):
        energy_equivalences("iv", A16, A16, state["k"], witness=state["witness"],
                            x_id=x_id, y_id=y_id)


def test_equivalence_rejects_a_clause_iii_subset_outside_a():
    outside = MSet.from_ids(G16, [0, 1, 2, 3, 9])
    with pytest.raises(ValueError, match="inside A and B"):
        energy_equivalences("iii", A16, A16, 2, a_prime=outside, b_prime=A16)


SPREAD16 = MSet.from_ids(G16, [0, 3, 7, 12])       # E(A,A) = 36
WHOLE16 = MSet.from_ids(G16, range(16))


@pytest.mark.parametrize("call, message", [
    (lambda: weak_bsg(A16, A16, WHOLE16, 1, kprime_sq=1),
     "weak_bsg: [hard] c-hypothesis: 256 <= 16 FAIL (|C|^2 <= K'^2|A||B|)"),
    (lambda: weak_bsg(A16, A16, MSet.from_ids(G16, [0]), 1, kprime_sq=1),
     "weak_bsg: [hard] density-hypothesis: 1 >= 16 FAIL (N·K >= |A||B|)"),
    (lambda: bsg_extract(SPREAD16, SPREAD16, 1),
     "bsg_extract: [hard] energy-hypothesis: 1296 >= 4096 FAIL "
     "(E^2 K^2 >= (|A||B|)^3, cleared)"),
    (lambda: energy_equivalences("i", SPREAD16, SPREAD16, 1),
     "energy_equivalences: [hard] input-i.energy-bound: 1296 >= 4096 FAIL "
     "(E^2K^2 >= (|A||B|)^3)"),
    (lambda: energy_equivalences("ii", A16, A16, 1, pairs=[(0, 0)]),
     "energy_equivalences: [hard] input-ii.pair-density: 1 >= 16 FAIL "
     "(|E|K >= |A||B|)"),
    (lambda: energy_equivalences("iii", A16, A16, 1, b_prime=A16,
                                 a_prime=MSet.from_ids(G16, [0])),
     "energy_equivalences: [hard] input-iii.a-prime-dense: 1 >= 4 FAIL "
     "(K|A'| >= |A|)"),
    # H = G with X = {1} is a valid covering pair, but |H| is too large
    (lambda: energy_equivalences(
        "iv", A16, A16, 1, x_id=0, y_id=0,
        witness=verify_approx_group(WHOLE16, MSet.from_ids(G16, [0]), 1)),
     "energy_equivalences: [hard] input-iv.h-size-upper: 256 <= 16 FAIL "
     "(|H|^2 <= K^2|A||B|)"),
], ids=["weak-c", "weak-density", "bsg_extract", "clause-i", "clause-ii",
        "clause-iii", "clause-iv"])
def test_a_false_premise_is_refused_with_its_row(call, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()


@pytest.mark.parametrize("call", [
    lambda a, b: weak_bsg(a, b, a, 1, kprime_sq=1),
    lambda a, b: weak_bsg(a, a, b, 1, kprime_sq=1),
    lambda a, b: bsg_extract(a, b, 1),
    lambda a, b: energy_equivalences("i", a, b, 1),
], ids=["weak-b", "weak-c", "bsg_extract", "energy_equivalences"])
def test_sets_from_two_groups_are_refused(call):
    message = "sets live in different groups: cyclic(16) vs cyclic(12)"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call(A16, MSet.from_ids(G12, [0, 1]))


@settings(max_examples=15, deadline=None)
@given(random_sets(G16, 6))
def test_equivalence_cycle_on_random_sets(a):
    wit = energy_equivalences("i", a, a, inferred_k(a, a))
    assert wit.ledger.hard_ok
    assert wit.input_clause == "i"


def ref_clause_iv_choice(a_p, b_p):
    """The step from clause iii to iv one translate at a time, as it ran
    before it read the convolution: for each t of X in id order, form tH
    and Ht and count A' ∩ tH and B' ∩ Ht; the first best t is kept.
    Returns ((|A' ∩ xH|, x), (|B' ∩ Hy|, y), |X|, whether a best ties)."""
    prod = product_set(a_p, b_p)
    k = ceil_sqrt_frac(Fraction(prod.size**2, a_p.size * b_p.size))
    wit, x_cov, _ = classify_small_doubling(a_p, b_p, k)
    h = wit.h

    def first_best(count):
        scores = [(count(t), t) for t in x_cov.ids()]
        best = max(scores, key=lambda p: p[0])
        return best, sum(c == best[0] for c, _ in scores) > 1

    x, x_tie = first_best(lambda t: intersection_size(a_p, translate_left(t, h)))
    y, y_tie = first_best(lambda t: intersection_size(b_p, translate_right(h, t)))
    return x, y, x_cov.size, x_tie or y_tie


@pytest.mark.parametrize("spec", ["cyclic(12)", "dihedral(8)", "symmetric(4)"])
def test_clause_iv_choice_matches_the_translate_loop(spec):
    # six seeded pairs per group; the first best t wins a tie, and every
    # group has one
    g = construct_group(spec)
    ties = []
    for seed in range(6):
        rng = random.Random(seed)
        a, b = (MSet.from_ids(g, rng.sample(range(g.order), rng.randint(2, 8)))
                for _ in range(2))
        ledger = ConstantLedger("walk")
        state = _step_iii_iv(g, a, b, {"a_prime": a, "b_prime": b,
                                       "product": product_set(a, b)}, ledger)
        (xv, x), (yv, y), n, tie = ref_clause_iv_choice(a, b)
        rows = {row.name: row for row in ledger.rows}
        assert (state["x"], state["y"]) == (x, y)
        assert rows["step-iii-iv.x-pigeonhole"].lhs == xv * n
        assert rows["step-iii-iv.y-pigeonhole"].lhs == yv * n
        ties.append(tie)
    assert any(ties)


# ------------------------------------------- scalar reference pipelines
#
# The weak extraction and the Markov refinement one pair at a time, on the
# scalar coordinate laws mul/inv: the loops the array path replaced.
# Every field, set and ledger row of the array path must match them.

def scalar_weak_bsg(a, b, c, k, eps, kprime_sq):
    g = a.group
    k, eps, kp_sq = Fraction(k), Fraction(eps), Fraction(kprime_sq)
    mul = g.mul
    ledger = ConstantLedger("weak_bsg")
    if not ledger.compare("c-hypothesis", c.size**2, "<=",
                          kp_sq * a.size * b.size,
                          formula="|C|^2 <= K'^2|A||B|"):
        raise ValueError("size hypothesis fails")
    b_list, a_list = list(b.ids()), list(a.ids())
    masks = {x: sum(1 << j for j, y in enumerate(b_list) if mul(x, y) in c)
             for x in a_list}
    n_pairs = sum(m.bit_count() for m in masks.values())
    if not ledger.compare("density-hypothesis", n_pairs * k, ">=",
                          a.size * b.size, formula="N·K >= |A||B|"):
        raise ValueError("density hypothesis fails")
    omega_threshold = eps * b.size / (2 * k**2)
    good_pairs = {x: set() for x in a_list}
    col_counts = [0] * len(b_list)
    omega_cols = [0] * len(b_list)
    for x in a_list:
        mx = masks[x]
        for j in range(len(b_list)):
            if mx >> j & 1:
                col_counts[j] += 1
        for y in a_list:
            overlap = mx & masks[y]
            if overlap.bit_count() > omega_threshold:
                good_pairs[x].add(y)
            else:
                while overlap:
                    low = overlap & -overlap
                    omega_cols[low.bit_length() - 1] += 1
                    overlap ^= low
    best_j = best_value = None
    for j in range(len(b_list)):
        value = Fraction(col_counts[j] ** 2) - Fraction(omega_cols[j], 1) / eps
        if best_value is None or value > best_value:
            best_value, best_j = value, j
    ledger.compare("pigeonhole-value", best_value, ">=",
                   Fraction(a.size**2) / (2 * k**2),
                   formula="F(b*) >= |A|^2/2K^2")
    a_prime_ids = [x for x in a_list if masks[x] >> best_j & 1]
    a_prime = MSet.from_ids(g, a_prime_ids)
    ledger.compare("dense-subset", 2 * k**2 * a_prime.size**2, ">=",
                   Fraction(a.size**2), formula="2K^2|A'|^2 >= |A|^2")
    omega_count = 0
    d_ids = set()
    for x in a_prime_ids:
        for y in a_prime_ids:
            if y in good_pairs[x]:
                d_ids.add(mul(x, g.inv(y)))
            else:
                omega_count += 1
    assert omega_count == omega_cols[best_j]
    ledger.compare("omega-small", omega_count, "<=", eps * a_prime.size**2,
                   formula="|Ω ∩ A'^2| <= ε|A'|^2")
    d = MSet.from_ids(g, d_ids)
    ledger.compare("quotient-size", eps * d.size, "<=",
                   2 * k**2 * kp_sq * a.size, formula="ε|D| <= 2(KK')^2|A|")
    covered = sum(1 for x in a_prime_ids for y in a_prime_ids
                  if mul(x, g.inv(y)) in d)
    ledger.compare("quotient-density", covered, ">=",
                   (1 - eps) * a_prime.size**2,
                   formula="#{a(a')^-1 in D} >= (1-ε)|A'|^2")
    return WeakBsgResult(a_prime, d, b_list[best_j], omega_count,
                         omega_threshold, k, kp_sq, eps, ledger)


def scalar_extract_sets(a, b, k):
    """(C, A', A'', A''', B''', D) of the full extraction, by brute force."""
    g = a.group
    k = Fraction(k)
    p, q = k.numerator, k.denominator
    mul = g.mul
    nm = a.size * b.size
    counts = Counter(mul(x, y) for x in a.ids() for y in b.ids())
    c = MSet.from_ids(g, [x for x, n in counts.items()
                          if 4 * p**2 * n**2 > q**2 * nm])
    a_prime = MSet.from_ids(g, [
        x for x in a.ids()
        if 4 * p * sum(mul(x, y) in c for y in b.ids()) > q * b.size])
    l = Fraction(a.size, a_prime.size)
    weak = scalar_weak_bsg(a_prime, b, c, 4 * k / l, Fraction(1) / (32 * k),
                           4 * k**2 * l)
    a_second, d = weak.a_prime, weak.d
    inv = {y: g.inv(y) for y in a_second.ids()}
    bad_counts = {x: sum(1 for y in a_second.ids() if mul(x, inv[y]) not in d)
                  for x in a_second.ids()}
    a_third = MSet.from_ids(g, [x for x in a_second.ids()
                                if 16 * p * bad_counts[x] <= q * a_second.size])
    b_third = MSet.from_ids(g, [
        y for y in b.ids()
        if 8 * p * sum(mul(x, y) in c for x in a_second.ids())
        > q * a_second.size])
    return c, a_prime, a_second, a_third, b_third, d, weak


def assert_same_rows(got, want):
    assert got.rows == want.rows
    assert got.lines() == want.lines()
    assert [(type(r.lhs), type(r.rhs)) for r in got.rows] == \
        [(type(r.lhs), type(r.rhs)) for r in want.rows]


def assert_same_weak(got, want):
    for field in dataclasses.fields(WeakBsgResult):
        if field.name != "ledger":
            assert getattr(got, field.name) == getattr(want, field.name), field
    assert type(got.chosen_b) is int and type(got.omega_count) is int
    assert_same_rows(got.ledger, want.ledger)


ORACLE_GROUPS = {spec: construct_group(spec) for spec in
                 ("cyclic(16)", "symmetric(4)", "sl2(5)", "symmetric(7)")}


def oracle_instance(draw, spec):
    """Sets A, B of a group and a C that holds all of A·B, all but a few
    products, or a random share of them."""
    g = ORACLE_GROUPS[spec]
    a, b = (draw(random_sets(g, 24)) for _ in range(2))
    products = sorted(product_set(a, b).ids())
    share = draw(st.sampled_from(["all", "most", "some"]))
    if share == "all":
        kept = products
    elif share == "most":
        dropped = draw(st.sets(st.sampled_from(products),
                               max_size=min(3, len(products) - 1)))
        kept = [x for x in products if x not in dropped]
    else:
        kept = draw(st.lists(st.sampled_from(products), min_size=1,
                             max_size=len(products)))
    return a, b, MSet.from_ids(g, kept)


@pytest.mark.parametrize("spec", sorted(ORACLE_GROUPS))
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_weak_matches_the_scalar_reference(spec, data):
    a, b, c = oracle_instance(data.draw, spec)
    hits = sum(a.group.mul(x, y) in c for x in a.ids() for y in b.ids())
    k = Fraction(a.size * b.size, hits) * data.draw(
        st.sampled_from([1, Fraction(5, 4), 2]))
    eps = data.draw(st.sampled_from([Fraction(1, 2), Fraction(1, 5),
                                     Fraction(3, 4), Fraction(9, 10),
                                     Fraction(1, 64)]))
    kprime_sq = Fraction(c.size**2, a.size * b.size)
    assert_same_weak(weak_bsg(a, b, c, k, eps=eps, kprime_sq=kprime_sq),
                     scalar_weak_bsg(a, b, c, k, eps, kprime_sq))


@pytest.mark.parametrize("spec", sorted(ORACLE_GROUPS))
@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_extract_matches_the_scalar_reference(spec, data):
    g = ORACLE_GROUPS[spec]
    a, b = (data.draw(random_sets(g, 24)) for _ in range(2))
    # the inferred K, or a larger integer one, so thresholds land on counts
    k = max(inferred_k(a, b), Fraction(data.draw(st.integers(0, 3))))
    ex = bsg_extract(a, b, k)
    c, a_prime, a_second, a_third, b_third, d, weak = \
        scalar_extract_sets(a, b, k)
    assert (ex.c, ex.a_prime, ex.a_second, ex.a_third, ex.b_third, ex.d) == \
        (c, a_prime, a_second, a_third, b_third, d)
    assert_same_weak(ex.weak, weak)
    # the Markov and B''' rows, recounted from the reference sets
    rows = {r.name: r for r in ex.ledger.rows}
    bad = sum(g.mul(x, g.inv(y)) not in d
              for x in a_second.ids() for y in a_second.ids())
    assert rows["bad-pairs-total"].lhs == bad
    assert rows["a-third-half"].lhs == 2 * a_third.size
    assert rows["b-third-size"].lhs == 8 * k.numerator * b_third.size


def test_extract_memory_above_the_table_cap():
    # 840 ids of symmetric(7), above TABLE_CAP: only the boolean matrices
    # and one block of products may be live, a few MB
    g = ORACLE_GROUPS["symmetric(7)"]
    assert g.order > TABLE_CAP
    a = MSet.from_ids(g, random.Random(840).sample(range(g.order), 840))
    k = inferred_k(a, a)
    tracemalloc.start()
    try:
        ex = bsg_extract(a, a, k)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert ex.ledger.hard_ok
    assert peak < 16_000_000


@pytest.mark.parametrize("spec", sorted(ORACLE_GROUPS))
def test_weak_matches_the_reference_at_the_threshold(spec):
    # C a random half of A·B and K = |A||B|/N: overlaps spread around the
    # floored Ω threshold, so some pairs sit exactly on it
    g = ORACLE_GROUPS[spec]
    rng = random.Random(spec)
    ties = 0
    for _ in range(6):
        a, b = (MSet.from_ids(g, rng.sample(range(g.order), min(g.order, 30)))
                for _ in range(2))
        products = list(product_set(a, b).ids())
        c = MSet.from_ids(g, rng.sample(products, (len(products) + 1) // 2))
        rows = [[g.mul(x, y) in c for y in b.ids()] for x in a.ids()]
        k = Fraction(a.size * b.size, sum(map(sum, rows)))
        for eps in (Fraction(1, 2), Fraction(9, 10)):
            floor = int(eps * b.size / (2 * k**2))
            ties += sum(sum(u and v for u, v in zip(r, s)) == floor
                        for r in rows for s in rows)
            kprime_sq = Fraction(c.size**2, a.size * b.size)
            assert_same_weak(weak_bsg(a, b, c, k, eps=eps, kprime_sq=kprime_sq),
                             scalar_weak_bsg(a, b, c, k, eps, kprime_sq))
    assert ties > 0


@pytest.mark.parametrize("spec", sorted(ORACLE_GROUPS))
def test_extract_matches_the_reference_over_k(spec):
    # a cyclic subgroup plus a few ids, at K, 3K/2 and 2K for the inferred
    # K: refinement counts land on the floored thresholds
    g = ORACLE_GROUPS[spec]
    rng = random.Random(spec)
    for _ in range(12):
        core = subgroup_closure(g, [rng.randrange(g.order)])
        a, b = (core.union(MSet.from_ids(g, rng.sample(range(g.order), 3)))
                for _ in range(2))
        for k in (inferred_k(a, b) * m for m in (1, Fraction(3, 2), 2)):
            ex = bsg_extract(a, b, k)
            c, a_prime, a_second, a_third, b_third, d, weak = \
                scalar_extract_sets(a, b, k)
            assert (ex.c, ex.a_prime, ex.a_second, ex.a_third, ex.b_third,
                    ex.d) == (c, a_prime, a_second, a_third, b_third, d)
            assert_same_weak(ex.weak, weak)


# ------------------------------------------- the pipeline before P was shared
#
# bsg_extract as it was before it formed A·B once: the convolution, each
# refinement and A'''·B''' form their own products, and the Markov
# refinement forms A''·A''^-1 again after the weak extraction did.

def ref_hits(g, xs, ys, mask):
    return np.concatenate(
        [mask[block] for _, block in _product_blocks(g, xs, ys)])


def ref_bsg_extract(a, b, k):
    g = a.group
    k = Fraction(k)
    p, q = k.numerator, k.denominator
    ledger = ConstantLedger("bsg_extract")
    profile = convolution(a, b)
    e_val = sum(cnt * cnt for cnt in profile.counts.values())
    nm = a.size * b.size
    if not ledger.compare("energy-hypothesis", e_val**2 * p**2, ">=",
                          q**2 * nm**3,
                          formula="E^2 K^2 >= (|A||B|)^3, cleared"):
        raise ValueError("energy hypothesis fails")
    c = MSet.from_ids(g, [x for x, cnt in profile.counts.items()
                          if 4 * p**2 * cnt**2 > q**2 * nm])
    ledger.compare("level-set-size", c.size**2, "<=", 4 * k**2 * nm,
                   formula="|C|^2 <= 4K^2|A||B|")
    n_c = sum(cnt for x, cnt in profile.counts.items() if x in c)
    ledger.compare("level-set-mass", 2 * p * n_c, ">=", q * nm,
                   formula="2K·N_C >= |A||B|")
    a_ids, b_ids, c_mask = a.id_array(), b.id_array(), member_mask(c)
    row_hits = np.count_nonzero(ref_hits(g, a_ids, b_ids, c_mask), axis=1)
    a_prime = MSet.from_ids(
        g, a_ids[row_hits > q * b.size // (4 * p)].tolist())
    ledger.compare("a-prime-size", 4 * p * a_prime.size, ">=", q * a.size,
                   formula="4K|A'| >= |A|")
    l = Fraction(a.size, a_prime.size)
    ledger.compare("l-range-low", l, ">=", 1, formula="1 <= L")
    ledger.compare("l-range-high", l, "<=", 4 * k, formula="L <= 4K")
    eps = Fraction(1) / (32 * k)
    weak = weak_bsg(a_prime, b, c, 4 * k / l, eps=eps, kprime_sq=4 * k**2 * l)
    ledger.merge(weak.ledger, "weak.")
    a_second, d = weak.a_prime, weak.d
    ledger.compare("a-second-size", 32 * k**2 * a_second.size**2, ">=",
                   Fraction(a.size**2), formula="|A''| >= |A|/4√2K, squared")
    ledger.compare("quotient-size", d.size, "<=", 4096 * k**5 * a.size / l**2,
                   formula="|D| <= 4096 K^5 |A|/L^2")
    a_second_ids = a_second.id_array()
    bad_counts = len(a_second_ids) - np.count_nonzero(ref_hits(
        g, a_second_ids, g.inv_array(a_second_ids), member_mask(d)), axis=1)
    ledger.compare("bad-pairs-total", int(bad_counts.sum()), "<=",
                   eps * a_second.size**2, formula="Σ bad <= |A''|^2/32K")
    a_third = MSet.from_ids(g, a_second_ids[
        bad_counts <= q * a_second.size // (16 * p)].tolist())
    ledger.compare("a-third-half", 2 * a_third.size, ">=", a_second.size,
                   formula="|A'''| >= |A''|/2")
    ledger.compare("a-third-size", 128 * k**2 * a_third.size**2, ">=",
                   Fraction(a.size**2), formula="|A'''| >= |A|/8√2K, squared")
    col_hits = np.count_nonzero(
        ref_hits(g, a_second_ids, b_ids, c_mask), axis=0)
    b_third = MSet.from_ids(
        g, b_ids[col_hits > q * a_second.size // (8 * p)].tolist())
    ledger.compare("b-third-size", 8 * p * b_third.size, ">=", q * b.size,
                   formula="8K|B'''| >= |B|")
    product = product_set(a_third, b_third)
    ledger.compare("product-injection", 16 * p * c.size * d.size, ">=",
                   q * product.size * a_second.size,
                   formula="|A'''·B'''||A''| <= 16K|C||D|")
    ledger.compare("product-audited", product.size**2, "<=",
                   BSG_AUDIT_CONST_SQ * k**BSG_AUDIT_EXP_SQ * nm,
                   formula=f"|A'''·B'''|^2 <= 2^39 K^{BSG_AUDIT_EXP_SQ}|A||B|")
    ledger.compare("product-headline", product.size**2, "<=",
                   BSG_AUDIT_CONST_SQ * k**BSG_HEADLINE_EXP_SQ * nm,
                   formula=f"|A'''·B'''|^2 <= 2^39 K^{BSG_HEADLINE_EXP_SQ}|A||B|")
    ledger.check()
    return BsgExtract(c, a_prime, a_second, a_third, b_third, product, l, d,
                      weak, k, eps, ledger)


def assert_same_extract(got, want):
    for field in dataclasses.fields(BsgExtract):
        if field.name not in ("weak", "ledger"):
            assert getattr(got, field.name) == getattr(want, field.name), field
    assert_same_weak(got.weak, want.weak)
    assert_same_rows(got.ledger, want.ledger)
    assert got.trace_lines() == want.trace_lines()


def s7_ids(seed, size=420):
    g = ORACLE_GROUPS["symmetric(7)"]
    return MSet.from_ids(g, random.Random(seed).sample(range(g.order), size))


@pytest.mark.parametrize("spec", sorted(ORACLE_GROUPS))
@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_extract_matches_the_unshared_pipeline(spec, data):
    g = ORACLE_GROUPS[spec]
    a = data.draw(random_sets(g, 40))
    b = data.draw(st.just(a) | random_sets(g, 40))
    k = max(inferred_k(a, b), Fraction(data.draw(st.integers(0, 3))))
    assert_same_extract(bsg_extract(a, b, k), ref_bsg_extract(a, b, k))


@pytest.mark.parametrize("seed", [1729, 7])
def test_extract_matches_the_unshared_pipeline_on_420_ids(seed):
    a = s7_ids(seed)
    b = s7_ids(seed + 1)
    for x, y in ((a, a), (a, b)):
        k = inferred_k(x, y)
        assert_same_extract(bsg_extract(x, y, k), ref_bsg_extract(x, y, k))


def test_extract_forms_each_product_once(monkeypatch):
    # 420 ids of symmetric(7), above TABLE_CAP: A·A and A''·A''^-1 are
    # each formed once, and nothing else is
    a = s7_ids(1729)
    g = a.group
    k = inferred_k(a, a)
    formed = Counter()
    real = g.mul_outer

    def counted(xs, ys):
        formed[tuple(np.asarray(ys).tolist())] += len(xs) * len(ys)
        return real(xs, ys)

    monkeypatch.setattr(g, "mul_outer", counted)
    ex = bsg_extract(a, a, k)
    monkeypatch.undo()
    second = ex.a_second.id_array()
    assert formed == {tuple(a.ids()): a.size**2,
                      tuple(g.inv_array(second).tolist()): ex.a_second.size**2}
    assert ex.a_second.size == 420 and sum(formed.values()) == 2 * 420**2


def test_clause_i_walk_forms_the_third_product_once(monkeypatch):
    # A = <rho^2> plus three points and B = <rho^2> plus one, in
    # dihedral(12): the walk refines them to |A'''| = 7 and |B'''| = 6, a
    # pair no other step multiplies.  A'''·B''' is a sub-matrix of
    # bsg_extract's A·B, and classify_small_doubling forms it once for its
    # own doubling hypothesis; the step to clause iv reads it from the walk.
    g = construct_group("dihedral(12)")
    a = MSet.from_ids(g, [0, 1, 2, 4, 6, 8, 10, 12, 20])
    b = MSet.from_ids(g, [0, 2, 4, 6, 8, 10, 17])
    formed = Counter()
    real = g.mul_outer

    def counted(xs, ys):
        key = tuple(np.asarray(xs).tolist()), tuple(np.asarray(ys).tolist())
        formed[key] += 1
        return real(xs, ys)

    monkeypatch.setattr(g, "mul_outer", counted)
    wit = energy_equivalences("i", a, b, inferred_k(a, b))
    monkeypatch.undo()
    a3, b3 = wit.produced["iii"]["a_prime"], wit.produced["iii"]["b_prime"]
    assert (a3.size, b3.size) == (7, 6)
    assert formed[a3.ids(), b3.ids()] == 1


def test_extract_memory_on_420_ids():
    # P = A·A as uint16 (2 bytes a pair), the A x A and A'' x A'' boolean
    # matrices, the quotient matrix and one block of products; the
    # unshared pipeline peaked at 2.6 MB here, in the (..., n) intp image
    # arrays of the old symmetric law
    a = s7_ids(1729)
    k = inferred_k(a, a)
    tracemalloc.start()
    try:
        ex = bsg_extract(a, a, k)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert ex.ledger.hard_ok
    assert peak < 2_400_000


def test_cli_bsg_run_counts_the_energy_once(monkeypatch, capsys):
    # energy and convolution both count through setops._set_counts
    calls = []
    real = setops._set_counts

    def counted(a, b):
        calls.append((a, b))
        return real(a, b)

    monkeypatch.setattr(setops, "_set_counts", counted)
    assert cli.main(["bsg", "run", "--group", "symmetric(4)",
                     "--set", "random_dense(density=1/2;seed=5)"]) == 0
    monkeypatch.undo()
    assert len(calls) == 1
    a, _ = calls[0]
    first = capsys.readouterr().out.splitlines()[0]
    assert first == (f"inferred K = {inferred_k(a, a)} "
                     f"from E(A,B) = {energy(a, a)}")
