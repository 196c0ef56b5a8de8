"""Group construction, the spec grammar, closures, and quotients."""

import itertools
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from setgrowth.groups import (
    BLOCK_PAIRS,
    ORDER_CAP,
    NotNormalError,
    QuotientGroup,
    _first,
    _grid,
    _row_blocks,
    construct_group,
    verify_group_axioms,
)
from setgrowth.setops import MSet, product_set, quotient_map, subgroup_closure


@pytest.mark.parametrize("n_rows, n_cols", [
    (5, BLOCK_PAIRS),            # one row is exactly one block
    (5, BLOCK_PAIRS + 1),        # one row is more than a block
    (3, 4 * BLOCK_PAIRS),
    (100, 300),                  # 54 rows a block, a ragged last block
    (2 * BLOCK_PAIRS + 7, 1),    # ragged last block of single cells
    (7, 3),                      # all rows in one block
    (0, 5),
])
def test_row_blocks_tile_the_rows_in_order(n_rows, n_cols):
    blocks = list(_row_blocks(n_rows, n_cols))
    assert [i for b in blocks for i in range(n_rows)[b]] == list(range(n_rows))
    sizes = [len(range(n_rows)[b]) for b in blocks]
    assert all(size > 0 for size in sizes)
    if n_cols > BLOCK_PAIRS:
        assert sizes == [1] * n_rows
    else:
        assert all(size * n_cols <= BLOCK_PAIRS for size in sizes)
        # every block but the last is as large as BLOCK_PAIRS allows
        assert all((size + 1) * n_cols > BLOCK_PAIRS for size in sizes[:-1])


@pytest.mark.parametrize("bounds", [(7,), (5, 7), (4, 5, 6), (200, 300)])
def test_grid_blocks_list_the_product_in_order(bounds):
    blocks = list(_grid(bounds))
    assert all(len(block) == len(bounds) for block in blocks)
    assert all(0 < len(block[0]) <= BLOCK_PAIRS for block in blocks)
    assert all(c.dtype == np.intp for block in blocks for c in block)
    tuples = [t for block in blocks for t in zip(*map(np.ndarray.tolist, block))]
    assert tuples == list(itertools.product(*map(range, bounds)))


@pytest.mark.parametrize("bounds", [(0,), (3, 0, 4), (5, 0)])
def test_grid_of_a_zero_bound_is_empty(bounds):
    assert list(_grid(bounds)) == []


def test_first_names_the_earliest_hit_or_none():
    assert _first(_grid((4, 5, 6)), lambda x, y, z: (x + y) * z > 20) == (1, 4, 5)
    assert _first(_grid((4, 5, 6)), lambda x, y, z: (x + y) * z > 35) is None
    # the first hit of the first block that has one, across blocks
    assert _first(_grid((300, 300)), lambda x, y: (x > 200) & (y == 7)) == (201, 7)
    assert _first(_grid((300, 300)), lambda x, y: x < 0) is None


def test_trivial_group():
    g = construct_group("cyclic(1)")
    assert g.order == 1
    assert g.mul(0, 0) == 0


def test_cyclic_addition():
    g = construct_group("cyclic(5)")
    assert g.mul(1, 1) == 2
    assert g.inv(2) == 3
    assert g.mul(4, 3) == 2


def test_symmetric_order():
    assert construct_group("symmetric(4)").order == 24
    assert construct_group("symmetric(3)").order == 6


def test_sl2_order():
    # |SL2(F_p)| = p(p-1)(p+1)
    assert construct_group("sl2(3)").order == 24
    assert construct_group("sl2(5)").order == 120


def test_dihedral_order():
    assert construct_group("dihedral(15)").order == 30


def test_direct_product_order():
    g = construct_group("direct_product(cyclic(4),cyclic(9))")
    assert g.order == 36


def test_heisenberg_order():
    g = construct_group("heisenberg(z=Zp^2,p=3;w=Zp^1,p=3;pairing=symplectic)")
    assert g.order == 27


def test_one_group_per_spec():
    g = construct_group("sl2(5)")
    assert construct_group("sl2(5)") is g
    a = MSet.from_ids(g, [1, 2, 3])
    b = MSet.from_ids(construct_group("sl2(5)"), [0, 4])
    assert product_set(a, b).ids() == tuple(sorted(
        {g.mul(x, y) for x in a.ids() for y in b.ids()}))


@pytest.mark.parametrize("spec, variant", [
    ("heisenberg(z=Zp^2,p=3;w=Zp^1,p=3;pairing=symplectic)",
     " heisenberg( z=Zp^2,p=3 ; w=Zp^1,p=3 ; pairing=symplectic ) "),
    ("direct_product(cyclic(4),cyclic(9))", "direct_product( cyclic(4) , cyclic( 9 ))"),
    ("cyclic(12)", "cyclic( 12 )"),
])
def test_specs_that_parse_alike_share_one_group(spec, variant):
    assert construct_group(variant) is construct_group(spec)


def test_bad_specs_raise():
    for text in ("cyclic(0)", "symmetric(9)", "sl2(4)", "sl2(37)", "nonsense(3)"):
        with pytest.raises(ValueError):
            construct_group(text)
    with pytest.raises(ValueError, match="^cyclic expects an integer argument, got 'x'$"):
        construct_group("cyclic(x)")


HUGE = 10**30
HUGE_PRIME = HUGE + 57      # the least prime above 10^30


def _field(rng: random.Random) -> int:
    """An integer field of a group spec: small, near ORDER_CAP, a power of
    ten up to 10^30, or any int of up to 31 digits."""
    kind = rng.randrange(4)
    if kind == 0:
        return rng.randint(-2, 40)
    if kind == 1:
        return rng.randint(41, 2 * ORDER_CAP)
    if kind == 2:
        return 10 ** rng.randint(2, 30)
    return rng.randint(-HUGE, HUGE)


def _random_spec(rng: random.Random, depth: int = 0) -> str:
    """A spec of the grammar in docs/formats.md, direct products nested at
    most two deep."""
    families = ["cyclic", "dihedral", "symmetric", "sl2", "heisenberg"]
    family = rng.choice(families + ["direct_product"] * (depth < 2))
    if family == "direct_product":
        return "direct_product({})".format(",".join(
            _random_spec(rng, depth + 1) for _ in range(rng.randint(1, 3))))
    if family == "heisenberg":
        zk, zp, wk, wp = (abs(_field(rng)) for _ in range(4))
        kind = rng.choice(["symplectic", "zero"])
        return f"heisenberg(z=Zp^{zk},p={zp};w=Zp^{wk},p={wp};pairing={kind})"
    return f"{family}({_field(rng)})"


BOUNDED_SPECS = [
    f"symmetric({HUGE})", f"sl2({HUGE})", f"cyclic({HUGE})", f"dihedral({HUGE})",
    f"sl2({HUGE_PRIME})", "symmetric(1000000000000)",
    f"direct_product(cyclic(2),direct_product(symmetric({HUGE}),sl2(3)))",
    f"heisenberg(z=Zp^{HUGE},p=2;w=Zp^1,p=3;pairing=zero)",
    f"heisenberg(z=Zp^2,p={HUGE_PRIME};w=Zp^1,p=1;pairing=zero)",
    f"heisenberg(z=Zp^1,p={HUGE_PRIME};w=Zp^1,p={HUGE_PRIME};pairing=zero)",
    f"heisenberg(z=Zp^2,p=3;w=Zp^{HUGE},p={HUGE};pairing=symplectic)",
    "symmetric(9)", "sl2(37)", "symmetric(8)", "sl2(31)",
    "heisenberg(z=Zp^2,p=7;w=Zp^1,p=7;pairing=symplectic)",
] + [_random_spec(random.Random(1729 + i)) for i in range(300)]


def test_every_spec_builds_or_is_refused_in_bounded_time(refusal):
    # each integer field reaches 10^30; a family that enumerates, or
    # factors a modulus, before it states its order would outlast the alarm
    refused = 0
    for spec in BOUNDED_SPECS:
        message = refusal(10, construct_group, spec)
        if message is not None:
            refused += 1
            assert "\n" not in message, spec
    assert 0 < refused < len(BOUNDED_SPECS)
    for spec in BOUNDED_SPECS[:6] + ["symmetric(9)", "sl2(37)"]:
        assert refusal(10, construct_group, spec).endswith(f"exceeds cap {ORDER_CAP}")
    assert refusal(10, construct_group, "symmetric(9)") == (
        f"group order 9! of symmetric(9) exceeds cap {ORDER_CAP}")
    assert refusal(10, construct_group, "sl2(37)") == (
        f"group order 50616 of sl2(37) exceeds cap {ORDER_CAP}")


@pytest.mark.parametrize("spec, shown", [
    ("direct_product(symmetric(8),cyclic(2))", "80640"),
    ("direct_product(cyclic(2),direct_product(sl2(31),cyclic(1)))", "59520"),
    ("direct_product(heisenberg(z=Zp^2,p=7;w=Zp^1,p=7;pairing=zero),"
     "dihedral(100))", "68600"),
])
def test_a_direct_product_over_the_cap_is_refused_with_no_factor_built(
        spec, shown, monkeypatch):
    # each factor parses under the cap; the product's order is stated from
    # theirs, so no factor is built, not even one that would be accepted
    from setgrowth import groups

    built = []
    monkeypatch.setattr(groups, "_interned", lambda key: built.append(key))
    with pytest.raises(ValueError) as refused:
        construct_group(spec)
    assert str(refused.value) == (
        f"group order {shown} of {spec} exceeds cap {ORDER_CAP}")
    assert built == []
    assert groups._parse_group("direct_product(sl2(31),cyclic(1))") == (
        "direct_product", (("sl2", 31), ("cyclic", 1)))


@pytest.mark.parametrize("spec", [
    "cyclic(12)",
    "dihedral(6)",
    "symmetric(4)",
    "sl2(3)",
    "direct_product(cyclic(3),cyclic(4))",
    "heisenberg(z=Zp^2,p=3;w=Zp^1,p=3;pairing=symplectic)",
])
def test_axioms_hold(spec):
    g = construct_group(spec)
    stats = verify_group_axioms(g, seed=0)
    assert stats["elements"] == g.order
    assert stats["triples"] > 0


@given(st.integers(min_value=2, max_value=40), st.data())
def test_cyclic_group_laws(n, data):
    g = construct_group(f"cyclic({n})")
    x = data.draw(st.integers(min_value=0, max_value=n - 1))
    y = data.draw(st.integers(min_value=0, max_value=n - 1))
    assert g.mul(x, g.inv(x)) == 0
    assert g.mul(0, x) == x
    assert g.inv(g.inv(y)) == y


@settings(max_examples=30)
@given(st.data())
def test_symmetric_group_associativity(data):
    g = construct_group("symmetric(4)")
    ids = st.integers(min_value=0, max_value=g.order - 1)
    x, y, z = data.draw(ids), data.draw(ids), data.draw(ids)
    assert g.mul(g.mul(x, y), z) == g.mul(x, g.mul(y, z))


def test_closure_of_even_residues():
    g = construct_group("cyclic(8)")
    assert subgroup_closure(g, [2]) == MSet.from_ids(g, [0, 2, 4, 6])


def test_closure_of_identity():
    g = construct_group("cyclic(8)")
    assert subgroup_closure(g, [0]) == MSet.from_ids(g, [0])


def test_quotient_of_cyclic_six():
    g = construct_group("cyclic(6)")
    q = quotient_map(g, [3])
    assert isinstance(q, QuotientGroup) and q.parent is g
    assert q.order == 3
    # H is the kernel: the ids where pi is 0
    assert np.flatnonzero(q.pi == 0).tolist() == [0, 3]
    # pi is a homomorphism on every pair
    for x in range(6):
        for y in range(6):
            assert q.pi[g.mul(x, y)] == q.mul(q.pi[x], q.pi[y])


def test_quotient_rejects_non_normal():
    g = construct_group("symmetric(4)")
    # every order-2 cyclic subgroup of S4 fails normality
    candidates = [x for x in range(1, g.order) if g.mul(x, x) == 0]
    assert candidates
    with pytest.raises(NotNormalError):
        quotient_map(g, [candidates[0]])


def test_klein_four_is_normal_in_s4():
    g = construct_group("symmetric(4)")
    involutions = [x for x in range(1, g.order) if g.mul(x, x) == 0]
    found = None
    for i, x in enumerate(involutions):
        for y in involutions[i + 1:]:
            members = subgroup_closure(g, [x, y])
            if len(members) != 4:
                continue
            try:
                found = quotient_map(g, [x, y])
            except NotNormalError:
                continue
            break
        if found:
            break
    assert found is not None
    assert found.order == 6
    assert np.count_nonzero(found.pi == 0) == 4


def test_row_cache_matches_direct_multiplication():
    g = construct_group("cyclic(30)")
    row = g.row(7)
    assert row is not None
    for y in range(30):
        assert row[y] == g.mul(7, y)
