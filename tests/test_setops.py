"""Bitset set arithmetic, convolution, energy, and Ruzsa distance.

The energy and distance oracles here are frozen from independent
enumeration: the cyclic(5) profile was counted by hand over all nine
pairs, and the quadruple counts come from the brute-force counter,
which itself enumerates (a, b, a') directly.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from setgrowth.groups import construct_group
from setgrowth.setops import (
    MSet,
    convolution,
    energy,
    energy_quadruple_count,
    inverse_set,
    iterated_product,
    partial_product,
    power_set,
    product_set,
    ruzsa_distance,
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


def test_power_set_matches_repeated_product():
    a = MSet.from_ids(D6, [0, 1, 5])
    assert power_set(a, 3) == product_set(product_set(a, a), a)
    # A^3 is already the rotation subgroup, so n = 7 is past stabilization;
    # n = 40 is beyond the factor cap of iterated_product.
    for n in (7, 40):
        expected = a
        for _ in range(n - 1):
            expected = product_set(expected, a)
        assert power_set(a, n) == expected


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


def test_ruzsa_distance_example():
    a = MSet.from_ids(G7, [0, 1])
    d = ruzsa_distance(a, a)
    assert d.numerator == 3
    assert d.ratio_sq == Fraction(9, 4)


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
