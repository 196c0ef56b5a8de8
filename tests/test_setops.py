"""Set arithmetic on the stored boolean masks, convolution, energy, and
Ruzsa distance.

The energy and distance oracles here are frozen from independent
enumeration: the cyclic(5) profile was counted by hand over all nine
pairs, and the quadruple counts come from the brute-force counter,
which itself enumerates (a, b, a') directly.
"""

import functools
import itertools
import random
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from setgrowth.groups import BLOCK_PAIRS, CyclicGroup, FiniteGroup, construct_group
from setgrowth.setops import (
    MSet,
    convolution,
    energy,
    energy_quadruple_count,
    inverse_set,
    member_mask,
    power_set,
    product_set,
    random_ids,
    symmetrize,
    translate_left,
    translate_right,
)

G5 = construct_group("cyclic(5)")
G7 = construct_group("cyclic(7)")
G100 = construct_group("cyclic(100)")
D6 = construct_group("dihedral(6)")
SL5 = construct_group("sl2(5)")


def difference_size(a, b):
    """|A·B⁻¹|, formed by the library: d(A,B) = log |A·B⁻¹| / sqrt(|A||B|)."""
    return product_set(a, inverse_set(b)).size


def signed_product(a, signs):
    """A^{s1} * A^{s2} * ... for signs si in {+1, -1}, left to right."""
    factors = {1: a, -1: inverse_set(a)}
    return functools.reduce(product_set, (factors[s] for s in signs))


def small_sets(group, max_size=8):
    ids = st.integers(min_value=0, max_value=group.order - 1)
    return st.frozensets(ids, min_size=1, max_size=max_size).map(
        lambda s: MSet.from_ids(group, s))


def test_mset_rejects_empty():
    with pytest.raises(ValueError, match="nonempty"):
        MSet(G5, np.zeros(5, dtype=bool))


@pytest.mark.parametrize("shape", [(4,), (6,), (5, 1), ()])
def test_mset_rejects_a_mask_of_another_shape(shape):
    with pytest.raises(ValueError, match="group's ids"):
        MSet(G5, np.ones(shape, dtype=bool))


def test_a_set_owns_its_read_only_mask():
    mask = np.array([1, 0, 1, 0, 0], dtype=bool)
    a = MSet.from_mask(G5, mask)
    mask[:] = True
    assert a.ids() == (0, 2) and a.size == 2
    stored = member_mask(a)
    assert stored is member_mask(a)
    with pytest.raises(ValueError, match="read-only"):
        stored[1] = True
    with pytest.raises(ValueError, match="read-only"):
        stored |= True
    assert a.ids() == (0, 2) and a == MSet.from_ids(G5, [0, 2])


# sl2(5) has order 120: a negative id must not wrap around to a valid one,
# and one past the end must not reach the table
@pytest.mark.parametrize("x", [-1, -120, 120, 121, 10**30, -10**30, 2**63])
def test_translates_refuse_an_id_outside_the_group(x):
    a = MSet.from_ids(SL5, [0, 1, 2])
    outside = re.escape(f"id {x} outside group of order 120")
    with pytest.raises(ValueError, match=outside):
        translate_left(x, a)
    with pytest.raises(ValueError, match=outside):
        translate_right(a, x)


def test_membership_is_false_for_every_int_outside_the_group():
    a = MSet.from_ids(G5, range(5))
    outside = [-1, -5, -6, 5, 6, 10**30, -10**30, np.int64(-1), np.uint8(5)]
    assert [x in a for x in outside] == [False] * len(outside)
    assert all(x in a for x in range(5))


def test_mset_rejects_out_of_range():
    with pytest.raises(ValueError):
        MSet.from_ids(G5, [5])


@pytest.mark.parametrize("ids, bad", [
    ([1, -1, 7], -1),
    ([0, 5], 5),
    ((x for x in [2, 9, -4]), 9),
    (np.array([3, 11], dtype=np.uint16), 11),
    (range(-2, 3), -2),
    ([10**30], 10**30),
    ([3, -10**30, 7], -10**30),
    ([6, 2**63], 6),
])
def test_from_ids_names_the_first_id_outside(ids, bad):
    with pytest.raises(ValueError,
                       match=re.escape(f"id {bad} outside group of order 5")):
        MSet.from_ids(G5, ids)


@pytest.mark.parametrize("ids", [
    [4, 0, 4, 2], (x for x in (2, 0, 4)), {0, 2, 4}, range(0, 5, 2),
    np.array([4, 2, 0], dtype=np.uint16),
])
def test_from_ids_takes_any_iterable_with_repeats(ids):
    assert MSet.from_ids(G5, ids).ids() == (0, 2, 4)


def test_from_mask_and_intersection():
    a = MSet.from_ids(G7, [0, 1, 3])
    b = MSet.from_mask(G7, np.array([1, 1, 0, 0, 0, 0, 1], dtype=bool))
    assert b.ids() == (0, 1, 6)
    assert (a & b).ids() == (0, 1)
    apart = MSet.from_ids(G7, [2])
    with pytest.raises(ValueError, match="nonempty"):
        a & apart


@pytest.mark.parametrize("seed, density", [
    (1, Fraction(1, 2)), (7, 0.22), (3, Fraction(1, 100))])
def test_random_ids_is_one_draw_per_id_in_id_order(seed, density):
    rng = random.Random(seed)
    expect = [x for x in range(100) if rng.random() < float(density)]
    drawn = random.Random(seed)
    assert random_ids(G100, drawn, density).tolist() == expect
    assert drawn.random() == rng.random()   # exactly one draw per id


def test_mset_basic_protocol():
    a = MSet.from_ids(G5, [0, 3, 1])
    assert a.size == 3
    assert len(a) == 3
    assert a.ids() == (0, 1, 3)
    assert 3 in a and 2 not in a
    assert list(a) == [0, 1, 3]


def test_equality_requires_same_group_instance():
    other = CyclicGroup(5)
    assert MSet.from_ids(G5, [1]) != MSet.from_ids(other, [1])
    assert MSet.from_ids(G5, [1]) == MSet.from_ids(G5, [1])


# 63 nonempty subsets of symmetric(3) and 255 of dihedral(4): 3,969 and
# 65,025 ordered pairs
@pytest.mark.parametrize("spec", ["symmetric(3)", "dihedral(4)"])
def test_set_algebra_matches_frozensets_on_every_pair_of_subsets(spec):
    g = construct_group(spec)
    n = g.order
    mul = [[g.mul(x, y) for y in range(n)] for x in range(n)]
    refs = [frozenset(c) for r in range(1, n + 1)
            for c in itertools.combinations(range(n), r)]
    sets = [MSet.from_ids(g, s) for s in refs]
    by_ref = dict(zip(refs, sets))
    for s, a in by_ref.items():
        assert a.ids() == tuple(sorted(s)) and len(a) == len(s)
        assert [x in a for x in range(n)] == [x in s for x in range(n)]
        assert inverse_set(a) == by_ref[frozenset(g.inv(x) for x in s)]
    for s, a in by_ref.items():
        for t, b in by_ref.items():
            prod = product_set(a, b)
            assert frozenset(prod.ids()) == {mul[x][y] for x in s for y in t}
            union, same = a.union(b), by_ref[s | t]
            assert union == same and hash(union) == hash(same)
            common = s & t
            if common:
                assert frozenset((a & b).ids()) == common
            else:
                with pytest.raises(ValueError, match="nonempty"):
                    a & b
            assert (a <= b) == (s <= t)
            assert (a == b) == (s == t)


def test_product_set_example():
    a = MSet.from_ids(G5, [0, 1])
    b = MSet.from_ids(G5, [0, 2])
    assert product_set(a, b).ids() == (0, 1, 2, 3)


def _counted_products(monkeypatch, g):
    """A list that gains, per mul_pairs call of g, the number of products
    it forms; mul_outer forms its products in one mul_pairs call."""
    formed = []
    pairs = g.mul_pairs

    def counted(x, y):
        formed.append(np.broadcast(x, y).size)
        return pairs(x, y)

    monkeypatch.setattr(g, "mul_pairs", counted)
    return formed


def test_product_set_forms_no_product_past_the_pigeonhole_bound(monkeypatch):
    # |A| + |B| = 13 + 4 > 16 = |G| with neither operand G: for each g the
    # sets A and g·B^-1 meet, so A·B = G
    g = construct_group("dihedral(8)")
    a = MSet.from_ids(g, range(13))
    b = MSet.from_ids(g, [3, 7, 11, 15])
    formed = _counted_products(monkeypatch, g)
    assert product_set(a, b).size == product_set(b, a).size == g.order
    assert formed == []


def test_product_set_stops_forming_blocks_once_the_mask_is_g(monkeypatch):
    # cyclic(4096), A = {0} u [2048, 4095), B = [0, 2048): |A| + |B| = |G|,
    # so the pigeonhole test is off, and the 2,048 rows of A x B take 256
    # blocks of 8 rows.  Rows 0 and 2048 already cover G, so the first
    # block fills the mask and no other is formed.
    g = construct_group("cyclic(4096)")
    a = MSet.from_ids(g, [0, *range(2048, 4095)])
    b = MSet.from_ids(g, range(2048))
    assert a.size + b.size == g.order
    formed = _counted_products(monkeypatch, g)
    assert product_set(a, b).size == g.order
    assert sum(formed) == BLOCK_PAIRS < a.size * b.size // 200


def test_product_set_at_the_pigeonhole_bound_forms_its_products(monkeypatch):
    # |A| + |B| = |G| is not enough: the index-2 subgroup of cyclic(8)
    # squares to itself
    g = construct_group("cyclic(8)")
    a = MSet.from_ids(g, [0, 2, 4, 6])
    formed = _counted_products(monkeypatch, g)
    assert product_set(a, a) == a
    assert sum(formed) == 16


def test_inverse_set_example():
    a = MSet.from_ids(G7, [1, 2])
    assert inverse_set(a).ids() == (5, 6)


def test_iterated_product_interval():
    a = MSet.from_ids(G100, [99, 0, 1])
    out = signed_product(a, [1, 1, 1])
    assert out.size == 7
    assert out.ids() == (0, 1, 2, 3, 97, 98, 99)


def test_iterated_product_with_inverse_signs():
    a = MSet.from_ids(G7, [0, 1])
    # A * A^-1 = {-1, 0, 1}
    assert signed_product(a, [1, -1]).ids() == (0, 1, 6)
    # a 40-factor signed word, factor by factor
    b = MSet.from_ids(D6, [1, 6])
    word = [1, -1, -1, 1, 1] * 8
    expected = b
    for s in word[1:]:
        expected = product_set(expected, b if s == 1 else inverse_set(b))
    assert len(word) == 40
    assert signed_product(b, word) == expected


def test_power_set_matches_repeated_product():
    a = MSet.from_ids(D6, [0, 1, 5])
    assert power_set(a, 3) == product_set(product_set(a, a), a)
    # A^3 is already the rotation subgroup, so n = 7 is past stabilization.
    for n in (7, 40):
        expected = a
        for _ in range(n - 1):
            expected = product_set(expected, a)
        assert power_set(a, n) == expected


@pytest.fixture
def products(monkeypatch):
    """The count of products FiniteGroup.mul_pairs forms from here on."""
    formed = [0]
    mul_pairs = FiniteGroup.mul_pairs

    def counted(self, x, y):
        formed[0] += np.broadcast(x, y).size
        return mul_pairs(self, x, y)

    monkeypatch.setattr(FiniteGroup, "mul_pairs", counted)
    return lambda: formed[0]


def test_a_repeat_power_forms_no_product(products):
    a = MSet.from_ids(SL5, [1, 7, 30])
    top = power_set(a, 6)
    before = products()
    assert power_set(a, 6) is top
    assert [power_set(a, m) for m in range(1, 7)][0] is a
    assert products() == before


@pytest.mark.parametrize("spec, x", [("cyclic(12)", 1), ("cyclic(12)", 8),
                                     ("dihedral(6)", 7), ("sl2(5)", 9)])
def test_a_point_power_reads_its_period(products, refusal, spec, x):
    # {x}^n = {x^n}: the chain holds the ord(x) distinct powers, forms one
    # product each, and reads n = 10^12 off the period; a chain walked to
    # n would outlast the alarm
    g = construct_group(spec)
    powers = [0, x]                 # x^0, x^1, ..., x^ord(x) = 1
    while powers[-1] != 0:
        powers.append(g.mul(powers[-1], x))
    order = len(powers) - 1
    a = MSet.from_ids(g, [x])
    assert refusal(5, power_set, a, 10**12) is None
    for n in (10**12, 10**12 + 1, 3, order, order + 1):
        assert power_set(a, n).ids() == (powers[n % order],)
    assert products() <= order
    assert len(a._powers) == order - 1 and all(p is not a for p in a._powers)


def test_a_cycling_chain_forms_at_most_its_distinct_powers(products):
    # two reflections of dihedral(6): the sizes grow from 2 to 6 at A^5,
    # then the powers alternate between the reflections and the rotations,
    # so A^7 = A^5 and the chain forms the products of A^2..A^7 only
    a = MSet.from_ids(D6, [6, 7])
    naive = [a]
    while len(naive) < 40:
        naive.append(product_set(naive[-1], a))
    distinct = len(set(naive))
    before = products()
    b = MSet.from_ids(D6, [6, 7])
    assert [power_set(b, n) for n in range(1, 41)] == naive
    assert len(b._powers) + 1 == distinct
    bound = sum(p.size * a.size for p in naive[:distinct])
    assert products() - before <= bound


def test_a_subgroup_is_its_own_power():
    h = MSet.from_ids(D6, [0, 2, 4])
    assert power_set(h, 10**9) is h and h._powers == []


def whole_group(g):
    return MSet.from_mask(g, np.ones(g.order, dtype=bool))


def scalar_product(a, b):
    g = a.group
    return {g.mul(x, y) for x in a.ids() for y in b.ids()}


# sl2(5) reads its table; symmetric(7) (order 5040) has none
@pytest.mark.parametrize("spec", ["sl2(5)", "symmetric(7)"])
def test_products_with_the_whole_group_match_the_scalar_law(spec):
    g = construct_group(spec)
    whole = whole_group(g)
    for size in (1, 3):
        b = MSet.from_ids(g, random.Random(size).sample(range(g.order), size))
        for left, right in ((whole, b), (b, whole)):
            out = product_set(left, right)
            assert out == whole
            assert set(out.ids()) == scalar_product(left, right)
    assert product_set(whole, whole) == whole


# seeds whose symmetrized sets generate G: A^6 = G in sl2(5), A^5 = G in
# symmetric(7), so the last two powers of each chain are G·A
@pytest.mark.parametrize("spec, size, seed, top", [("sl2(5)", 2, 11, 8),
                                                   ("symmetric(7)", 6, 12, 7)])
def test_power_chain_through_the_whole_group_matches_the_scalar_law(
        spec, size, seed, top):
    g = construct_group(spec)
    a = symmetrize(MSet.from_ids(
        g, random.Random(seed).sample(range(g.order), size)))
    powers = [power_set(a, n) for n in range(1, top + 1)]
    expected = set(a.ids())
    for n, power in enumerate(powers, start=1):
        assert set(power.ids()) == expected, n
        expected = scalar_product(MSet.from_ids(g, expected), a)
    assert powers[-4] != powers[-3] == powers[-1] == whole_group(g)


def test_convolution_profile():
    a = MSet.from_ids(G5, [0, 1, 2])
    counts = convolution(a, a)
    assert counts.dtype == np.int64
    assert counts.tolist() == [1, 2, 3, 2, 1]


def test_energy_frozen_value():
    a = MSet.from_ids(G5, [0, 1, 2])
    assert energy(a, a) == 19
    assert energy_quadruple_count(a, a) == 19


def scalar_quadruple_count(a, b):
    """The quadruple count by the triple loop over (a, b, a'), one scalar
    product at a time."""
    g = a.group
    total = 0
    for x in a.ids():
        for y in b.ids():
            z = g.mul(x, y)
            for x2 in a.ids():
                if g.mul(g.inv(x2), z) in b:
                    total += 1
    return total


@pytest.mark.parametrize("spec", ["cyclic(16)", "dihedral(6)", "sl2(5)",
                                  "symmetric(7)"])
@settings(max_examples=10, deadline=None)
@given(st.data())
def test_energy_quadruple_count_matches_the_triple_loop(spec, data):
    g = construct_group(spec)
    a, b = data.draw(small_sets(g, 10)), data.draw(small_sets(g, 10))
    assert energy_quadruple_count(a, b) == scalar_quadruple_count(a, b)


def test_ruzsa_distance_example():
    a = MSet.from_ids(G7, [0, 1])
    # d(A,A) = log(3/2): |A·A⁻¹| = 3 over sqrt(|A||A|) = 2
    assert difference_size(a, a) == 3


def test_symmetrize_properties():
    a = MSet.from_ids(G7, [1, 2])
    s = symmetrize(a)
    assert s.contains_identity()
    assert s.is_symmetric()
    assert a <= s


def test_translate_left_is_coset():
    a = MSet.from_ids(G7, [0, 1, 3])
    assert translate_left(2, a).ids() == (2, 3, 5)


@given(small_sets(D6), small_sets(D6))
def test_product_size_dominates_factors(a, b):
    p = product_set(a, b)
    assert p.size >= max(a.size, b.size)
    assert p.size <= a.size * b.size


@given(small_sets(D6))
def test_inverse_is_an_involution(a):
    assert inverse_set(inverse_set(a)) == a


@given(small_sets(D6), small_sets(D6))
def test_product_inverse_antihomomorphism(a, b):
    assert inverse_set(product_set(a, b)) == product_set(
        inverse_set(b), inverse_set(a))


@settings(max_examples=60)
@given(small_sets(D6, 6), small_sets(D6, 6))
def test_energy_bounds_and_brute_agreement(a, b):
    e, nm = energy(a, b), a.size * b.size
    assert e**2 <= nm**3                            # E <= (|A||B|)^{3/2}
    assert e * product_set(a, b).size >= nm**2      # E >= (|A||B|)^2 / |A·B|
    assert e == energy_quadruple_count(a, b)


@given(small_sets(D6), small_sets(D6))
def test_energy_flip_identity(a, b):
    del b
    assert energy(a, inverse_set(a)) == energy(inverse_set(a), a)


@given(small_sets(D6))
def test_distance_nonnegative(a):
    assert difference_size(a, a) ** 2 >= a.size * a.size


@settings(max_examples=60)
@given(small_sets(D6, 6), small_sets(D6, 6), small_sets(D6, 6))
def test_triangle_inequality(a, b, c):
    # d(A,C) <= d(A,B) + d(B,C), cleared: |A C^-1||B| <= |A B^-1||B C^-1|
    assert difference_size(a, c) * b.size <= \
        difference_size(a, b) * difference_size(b, c)


def test_triangle_cleared_form_at_the_boundary():
    # |A C^-1||B| <= |A B^-1||B C^-1| holds with equality on cosets of one
    # subgroup: A = 3+H, B = H, C = 7+H with H = {0, 50} give 2·2 = 2·2
    h = MSet.from_ids(G100, [0, 50])
    a, c = translate_left(3, h), translate_left(7, h)
    assert difference_size(a, c) * h.size == \
        difference_size(a, h) * difference_size(h, c) == 4


@given(small_sets(G100, 5), st.integers(min_value=0, max_value=99))
def test_left_invariance_of_distance(a, x):
    shifted = translate_left(x, a)
    assert difference_size(a, a) == difference_size(shifted, a)


def test_cross_group_product_rejected():
    a = MSet.from_ids(G5, [0])
    b = MSet.from_ids(G7, [0])
    with pytest.raises(ValueError):
        product_set(a, b)
    # the group check comes before the whole-group identity G·B = G
    for left, right in ((whole_group(G5), b), (b, whole_group(G5))):
        with pytest.raises(ValueError, match="different groups"):
            product_set(left, right)
