"""Bitset set arithmetic, convolution, energy, and Ruzsa distance.

The energy and distance oracles here are frozen from independent
enumeration: the cyclic(5) profile was counted by hand over all nine
pairs, and the quadruple counts come from the brute-force counter,
which itself enumerates (a, b, a') directly.
"""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from setgrowth.groups import construct_group
from setgrowth.setops import (
    MSet,
    RuzsaDistanceValue,
    ascending_powers,
    convolution,
    energy,
    energy_quadruple_count,
    inverse_set,
    iterated_product,
    partial_product,
    power_set,
    product_set,
    ruzsa_distance,
    ruzsa_triangle_cleared,
    ruzsa_triangle_holds,
    symmetrize,
    translate_left,
)

G5 = construct_group("cyclic(5)")
G7 = construct_group("cyclic(7)")
G100 = construct_group("cyclic(100)")
D6 = construct_group("dihedral(6)")


def small_sets(group, max_size=8):
    ids = st.integers(min_value=0, max_value=group.order - 1)
    return st.frozensets(ids, min_size=1, max_size=max_size).map(
        lambda s: MSet.from_ids(group, s))


def test_mset_rejects_empty():
    with pytest.raises(ValueError):
        MSet(G5, 0)


def test_mset_rejects_out_of_range():
    with pytest.raises(ValueError):
        MSet.from_ids(G5, [5])


def test_mset_basic_protocol():
    a = MSet.from_ids(G5, [0, 3, 1])
    assert a.size == 3
    assert len(a) == 3
    assert a.ids() == (0, 1, 3)
    assert 3 in a and 2 not in a
    assert list(a) == [0, 1, 3]


def test_equality_requires_same_group_instance():
    other = construct_group("cyclic(5)")
    assert MSet.from_ids(G5, [1]) != MSet.from_ids(other, [1])
    assert MSet.from_ids(G5, [1]) == MSet.from_ids(G5, [1])


def test_product_set_example():
    a = MSet.from_ids(G5, [0, 1])
    b = MSet.from_ids(G5, [0, 2])
    assert product_set(a, b).ids() == (0, 1, 2, 3)


def test_inverse_set_example():
    a = MSet.from_ids(G7, [1, 2])
    assert inverse_set(a).ids() == (5, 6)


def test_iterated_product_interval():
    a = MSet.from_ids(G100, [99, 0, 1])
    out = iterated_product(a, [1, 1, 1])
    assert out.size == 7
    assert out.ids() == (0, 1, 2, 3, 97, 98, 99)


def test_iterated_product_with_inverse_signs():
    a = MSet.from_ids(G7, [0, 1])
    # A * A^-1 = {-1, 0, 1}
    assert iterated_product(a, [1, -1]).ids() == (0, 1, 6)
    # a 40-factor signed word, factor by factor
    b = MSet.from_ids(D6, [1, 6])
    word = [1, -1, -1, 1, 1] * 8
    expected = b
    for s in word[1:]:
        expected = product_set(expected, b if s == 1 else inverse_set(b))
    assert len(word) == 40
    assert iterated_product(b, word) == expected


def test_power_set_matches_repeated_product():
    a = MSet.from_ids(D6, [0, 1, 5])
    assert power_set(a, 3) == product_set(product_set(a, a), a)
    # A^3 is already the rotation subgroup, so n = 7 is past stabilization.
    for n in (7, 40):
        expected = a
        for _ in range(n - 1):
            expected = product_set(expected, a)
        assert power_set(a, n) == expected


def whole_group(g):
    return MSet(g, (1 << g.order) - 1)


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
    powers = list(ascending_powers(a, top))
    expected = set(a.ids())
    for n, power in enumerate(powers, start=1):
        assert set(power.ids()) == expected, n
        expected = scalar_product(MSet.from_ids(g, expected), a)
    assert powers[-4] != powers[-3] == powers[-1] == whole_group(g)


def test_convolution_profile():
    a = MSet.from_ids(G5, [0, 1, 2])
    prof = convolution(a, a)
    assert sorted(prof.counts.items()) == [(0, 1), (1, 2), (2, 3), (3, 2), (4, 1)]


def test_energy_frozen_value():
    a = MSet.from_ids(G5, [0, 1, 2])
    e = energy(a, a)
    assert e.value == 19
    assert energy_quadruple_count(a, a) == 19


def test_partial_product_diagonal():
    a = MSet.from_ids(G5, [0, 1, 2])
    pairs = [(x, x) for x in a.ids()]
    assert partial_product(a, a, pairs).ids() == (0, 2, 4)


@settings(max_examples=30, deadline=None)
@given(small_sets(D6), small_sets(D6), st.data())
def test_partial_product_matches_scalar_reference(a, b, data):
    pairs = data.draw(st.lists(st.tuples(st.sampled_from(a.ids()),
                                         st.sampled_from(b.ids())),
                               min_size=1, max_size=20))
    expect = {D6.mul(x, y) for x, y in pairs}
    assert set(partial_product(a, b, pairs).ids()) == expect


def test_partial_product_rejects_the_first_outside_pair():
    a = MSet.from_ids(G5, [0, 1])
    with pytest.raises(ValueError, match=r"pair \(1,4\) is not inside"):
        partial_product(a, a, [(0, 1), (1, 4), (7, 0)])
    with pytest.raises(ValueError, match=r"pair \(-1,0\) is not inside"):
        partial_product(a, a, [(-1, 0)])
    with pytest.raises(ValueError, match="nonempty"):
        partial_product(a, a, [])


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
    d = ruzsa_distance(a, a)
    assert d.numerator == 3
    assert d.denominator_sq == 4


def test_symmetrize_properties():
    a = MSet.from_ids(G7, [1, 2])
    s = symmetrize(a)
    assert s.contains_identity()
    assert s.is_symmetric()
    assert a <= s


def test_translate_left_is_coset():
    a = MSet.from_ids(G7, [0, 1, 3])
    bits = translate_left(2, a)
    assert MSet(G7, bits).ids() == (2, 3, 5)


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
    e = energy(a, b)
    assert e.upper_bound_holds()
    assert e.lower_bound_holds()
    assert e.value == energy_quadruple_count(a, b)


@given(small_sets(D6), small_sets(D6))
def test_energy_flip_identity(a, b):
    del b
    assert energy(a, inverse_set(a)).value == energy(inverse_set(a), a).value


@given(small_sets(D6))
def test_distance_nonnegative(a):
    assert ruzsa_distance(a, a).is_nonnegative()


@settings(max_examples=60)
@given(small_sets(D6, 6), small_sets(D6, 6), small_sets(D6, 6))
def test_triangle_inequality(a, b, c):
    assert ruzsa_triangle_holds(a, b, c)


def test_triangle_cleared_form_at_the_boundary():
    # d(A,C) <= d(A,B) + d(B,C) as |A C^-1||B| <= |A B^-1||B C^-1|, with
    # |A| = |B| = |C| = 2 and |A B^-1| = |B C^-1| = 2
    d_ab = d_bc = RuzsaDistanceValue(2, 2, 2)
    assert ruzsa_triangle_cleared(d_ab, d_bc, RuzsaDistanceValue(2, 2, 2))
    assert not ruzsa_triangle_cleared(d_ab, d_bc, RuzsaDistanceValue(3, 2, 2))


@given(small_sets(G100, 5), st.integers(min_value=0, max_value=99))
def test_left_invariance_of_distance(a, x):
    shifted = MSet(G100, translate_left(x, a))
    d0 = ruzsa_distance(a, a)
    d1 = ruzsa_distance(shifted, a)
    assert d0.numerator == d1.numerator


def test_cross_group_product_rejected():
    a = MSet.from_ids(G5, [0])
    b = MSet.from_ids(G7, [0])
    with pytest.raises(ValueError):
        product_set(a, b)
    # the group check comes before the whole-group identity G·B = G
    for left, right in ((whole_group(G5), b), (b, whole_group(G5))):
        with pytest.raises(ValueError, match="different groups"):
            product_set(left, right)
