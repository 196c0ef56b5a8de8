"""Group construction, the spec grammar, closures, and quotients."""

import pytest
from hypothesis import given, settings, strategies as st

from setgrowth.groups import (
    BLOCK_PAIRS,
    NotNormalError,
    _row_blocks,
    construct_group,
    quotient_map,
    subgroup_closure,
    verify_group_axioms,
)


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


def test_bad_specs_raise():
    for text in ("cyclic(0)", "symmetric(8)", "sl2(4)", "sl2(17)", "nonsense(3)"):
        with pytest.raises(ValueError):
            construct_group(text)


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
    assert subgroup_closure(g, [2]) == frozenset({0, 2, 4, 6})


def test_closure_of_identity():
    g = construct_group("cyclic(8)")
    assert subgroup_closure(g, [0]) == frozenset({0})


def test_quotient_of_cyclic_six():
    g = construct_group("cyclic(6)")
    view = quotient_map(g, [3])
    assert view.quotient.order == 3
    assert view.members == frozenset({0, 3})
    # pi is a homomorphism on a sample of pairs
    q = view.quotient
    for x in range(6):
        for y in range(6):
            assert view.pi[g.mul(x, y)] == q.mul(view.pi[x], view.pi[y])


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
    assert found.quotient.order == 6
    assert len(found.members) == 4


def test_row_cache_matches_direct_multiplication():
    g = construct_group("cyclic(30)")
    row = g.row(7)
    assert row is not None
    for y in range(30):
        assert row[y] == g.mul(7, y)
