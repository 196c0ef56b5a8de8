"""Exhaustive small-group oracle for the Ruzsa rows, covers, powers, the
tripling pipelines, local products and the pool-table kernel.

A subset of a group of order n <= 8 is an n-bit mask.  The product of two
subsets is the OR of right translates, each read off the scalar law
``g.mul``, so the oracle table uses no group table, vectorized law or
library set operation.  The Ruzsa checks run on every nonempty subset of
their groups, the cover checks on every ordered pair or a stated stride.
"""

import random
import tracemalloc
from collections import Counter

import numpy as np
import pytest

from setgrowth import groups, suites
from setgrowth.groups import BLOCK_PAIRS, construct_group
from setgrowth.setops import (MSet, _pair_counts, energy, energy_quadruple_count,
                              inverse_set, power_set, product_set)
from setgrowth.families import measured_tripling
from setgrowth.structure import (approx_group_from_tripling, ruzsa_cover,
                                 tripling_chain)


def _subset_products(g):
    """(table, inv): table[m, k] is the mask of A·B for A, B the subsets
    with masks m and k (row and column 0 are the empty set), and inv[m]
    the mask of A⁻¹."""
    n = g.order
    masks = np.arange(1 << n, dtype=np.int64)
    right = np.zeros((1 << n, n), dtype=np.int64)      # [m, x]: mask of A·x
    inv = np.zeros(1 << n, dtype=np.int64)
    for a in range(n):
        bit = (masks >> a) & 1
        inv |= bit << g.inv(a)
        for x in range(n):
            right[:, x] |= bit << g.mul(a, x)
    table = np.zeros((1 << n, 1 << n), dtype=np.int64)
    for k in range(1, 1 << n):                          # A·B = A·B' ∪ A·b
        low = k & -k
        table[:, k] = table[:, k ^ low] | right[:, low.bit_length() - 1]
    return table, inv


def _bitmask(s: MSet) -> int:
    return sum(1 << x for x in s.ids())


def _subsets(g):
    return [MSet.from_ids(g, [x for x in range(g.order) if m >> x & 1])
            for m in range(1, 1 << g.order)]


# 63 nonempty subsets of an order-6 group, 255 of an order-8 one: every
# ordered pair of the first checked against |A·B⁻¹| from product_set and
# inverse_set, every 37th of
# the second; nonnegativity and the triangle, on every pair and triple, in
# cleared-integer form over the table's rows
@pytest.mark.parametrize("spec, stride", [
    ("symmetric(3)", 1), ("dihedral(3)", 1), ("dihedral(4)", 37), ("cyclic(8)", 37)])
def test_ruzsa_rows_hold_on_every_subset_triple(spec, stride):
    g = construct_group(spec)
    table, inv = _subset_products(g)
    sizes = np.bitwise_count(np.arange(1, 1 << g.order))
    diff = np.bitwise_count(table[1:, inv[1:]]).astype(np.int64)  # |A·B⁻¹|
    sets = _subsets(g)
    for i in range(0, len(sets) ** 2, stride):
        a, b = divmod(i, len(sets))
        got = product_set(sets[a], inverse_set(sets[b])).size
        assert (got, sets[a].size, sets[b].size) == (diff[a, b], sizes[a], sizes[b])
    assert (diff == diff.T).all()                       # d(A,B) = d(B,A)
    assert (diff**2 >= sizes[:, None] * sizes[None, :]).all()   # |A·C⁻¹|² >= |A||C|
    for b, size in enumerate(sizes):        # |A·C⁻¹||B| <= |A·B⁻¹||B·C⁻¹|
        assert (diff * size <= diff[:, b, None] * diff[None, b, :]).all(), \
            (spec, b + 1)


def _greedy(table, a, b, side):
    """The mask of the ids of b, in ascending order, whose translate of a
    (a·y on the left, y·a on the right) misses the ones taken before."""
    taken = union = 0
    for y in range(b.bit_length()):
        if b >> y & 1:
            t = table[a][1 << y] if side == "left" else table[1 << y][a]
            if not t & union:
                taken, union = taken | 1 << y, union | t
    return taken


# every ordered pair of an order-6 group, every 7th of the 255² of an
# order-8 one
@pytest.mark.parametrize("spec", [
    "symmetric(3)", "dihedral(3)", "dihedral(4)", "cyclic(8)"])
def test_ruzsa_cover_on_every_ordered_pair(spec):
    g = construct_group(spec)
    stride = 1 if g.order < 8 else 7
    table, inv = _subset_products(g)
    table, inv = table.tolist(), inv.tolist()
    sets = _subsets(g)
    for i in range(0, len(sets) ** 2, stride):
        ka, kb = divmod(i, len(sets))
        set_a, set_b = sets[ka], sets[kb]
        a, b = ka + 1, kb + 1               # their masks
        size_a = a.bit_count()
        for side in ("left", "right"):
            x = _bitmask(ruzsa_cover(set_a, set_b, side))
            assert x == _greedy(table, a, b, side), (spec, a, b, side)
            if side == "left":      # b ⊆ a⁻¹·a·X, |X||a| <= |a·b|
                covered = table[table[inv[a]][a]][x]
                translates, product = table[a][x], table[a][b]
            else:                   # b ⊆ X·a·a⁻¹, |X||a| <= |b·a|
                covered = table[x][table[a][inv[a]]]
                translates, product = table[x][a], table[b][a]
            assert x & ~b == 0 and b & ~covered == 0
            # the translates of a by X are disjoint
            assert translates.bit_count() == x.bit_count() * size_a
            assert x.bit_count() * size_a <= product.bit_count()


# ------------------------------------------------------- the pool-table kernel

def _kernel_rows(g, pairs):
    """The count rows of one _pair_counts sweep, with its blocks."""
    blocks = list(_pair_counts(g, pairs))
    assert [i for rows, _ in blocks for i in range(len(pairs))[rows]] == \
        list(range(len(pairs)))
    return [row for _, counts in blocks for row in counts], blocks


@pytest.mark.parametrize("spec", ["symmetric(3)", "dihedral(3)"])
def test_pair_counts_on_every_ordered_pair_of_subsets(spec):
    # 63² pairs in one call: |A·B| from the kernel, product_set and the
    # scalar-law subset table; E(A,B) from the kernel, energy and
    # the brute-force quadruple count
    g = construct_group(spec)
    table, _ = _subset_products(g)
    sets = _subsets(g)
    pairs = [(a, b) for a in sets for b in sets]
    rows, _ = _kernel_rows(g, [(a.id_array(), b.id_array()) for a, b in pairs])
    for (a, b), row in zip(pairs, rows):
        size, value = int(np.count_nonzero(row)), int(row @ row)
        assert size == product_set(a, b).size == \
            int(table[_bitmask(a), _bitmask(b)]).bit_count()
        assert value == energy(a, b) == energy_quadruple_count(a, b)
        assert row.sum() == a.size * b.size


@pytest.mark.parametrize("block_pairs", [1, 7, 40, 250, 1 << 14])
def test_pair_counts_on_a_ragged_list_across_block_bounds(block_pairs, monkeypatch):
    # repeated pairs of 1 to 10 ids; below 100 BLOCK_PAIRS a pair's products
    # straddle the row blocks of _product_blocks, from 200 on (2·100 padded
    # cells) several pairs share a padded block; each row is the Counter of
    # scalar products
    monkeypatch.setattr(groups, "BLOCK_PAIRS", block_pairs)
    g = construct_group("dihedral(5)")
    rng = random.Random(f"ragged:{block_pairs}")
    sets = [rng.sample(range(g.order), k) for k in (1, 2, 3, 5, 8, 10)]
    pairs = [(rng.choice(sets), rng.choice(sets)) for _ in range(30)]
    pairs += pairs[:5] + [([0], [7]), (list(range(10)), list(range(10)))]
    arrays = [(np.array(x), np.array(y)) for x, y in pairs]
    rows, blocks = _kernel_rows(g, arrays)
    for (xs, ys), row in zip(pairs, rows):
        want = Counter(g.mul(x, y) for x in xs for y in ys)
        assert dict(zip(*map(list, (np.flatnonzero(row), row[row > 0])))) == want
    cells = max(g.order, max(len(x) for x, _ in pairs) * max(len(y) for _, y in pairs))
    for rows_, counts in blocks:
        k = rows_.stop - rows_.start
        assert k == 1 or k * cells <= block_pairs
    assert (len(blocks) < len(pairs)) == (block_pairs >= 2 * cells)


def test_pair_counts_memory_is_one_block_in_a_large_group():
    # 144 pairs of up to 30 ids in cyclic(49999), above BLOCK_PAIRS: a table
    # of all count rows would be 57 MB; the sweep holds one block, a count
    # row of 400 kB with its bincount, and its products at a time (1.2 MB
    # peak traced with numpy 2)
    g = construct_group("cyclic(49999)")
    rng = random.Random("pool:49999")
    sets = [np.array(rng.sample(range(g.order), rng.randrange(1, 31)))
            for _ in range(12)]
    pairs = [(a, b) for a in sets for b in sets]
    tracemalloc.start()
    try:
        sizes = [int(np.count_nonzero(c)) for _, counts in _pair_counts(g, pairs)
                 for c in counts]
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert sizes == [len(set((x + y) % g.order for x in a.tolist() for y in b.tolist()))
                     for a, b in pairs]
    assert peak < 3 * 8 * g.order + 16 * BLOCK_PAIRS


# every nonempty subset: its powers A^n for n <= 6 against the table's, and
# the tripling pipelines at the measured K = |A^3|/|A|, whose hard rows
# must all pass and whose |A^3| must be the table's
@pytest.mark.parametrize("spec", ["symmetric(3)", "dihedral(3)", "dihedral(4)",
                                  "cyclic(8)"])
def test_powers_and_tripling_pipelines_on_every_subset(spec):
    g = construct_group(spec)
    table, _ = _subset_products(g)
    for m, a in enumerate(_subsets(g), start=1):
        power = m
        for n in range(1, 7):
            assert _bitmask(power_set(a, n)) == power, (spec, m, n)
            if n == 3:
                cube = power
            power = int(table[power, m])
        k = measured_tripling(a)
        assert k * a.size == cube.bit_count()
        wit, ledger = approx_group_from_tripling(a, k)
        assert wit.verified and ledger.hard_ok, (spec, m)
        assert ledger.rows[0].lhs == cube.bit_count()   # tripling-hypothesis
        assert tripling_chain(a, k).hard_ok, (spec, m)


# ---------------------------------------------------- local products and pairs

# every nonempty subset: the suites' sup over a in A of |A·a·A| against the
# table's, and the subsets where that sup exceeds |A²|, on which a local
# tripling check that forms A·A·a in place of A·a·A reads too small a K
@pytest.mark.parametrize("spec, above_square", [
    ("symmetric(3)", 6), ("dihedral(3)", 6), ("dihedral(4)", 32), ("cyclic(8)", 0)])
def test_local_product_sup_on_every_subset(spec, above_square):
    g = construct_group(spec)
    table, _ = _subset_products(g)
    table = table.tolist()
    gaps = 0
    for m, a in enumerate(_subsets(g), start=1):
        want = max(table[table[m][1 << x]][m].bit_count() for x in a.ids())
        assert suites._local_product_sup(a) == want, (spec, m)
        gaps += want > table[m][m].bit_count()
    assert gaps == above_square


# cyclic(12) has 4,095 nonempty subsets, too many for the subset table (a
# 2^12 x 2^12 one would take 134 MB): every 1,021st ordered pair of them,
# 16,425 pairs, in one sweep, each row against the Counter of its scalar
# products for |A·B| and E(A,B)
def test_pair_counts_on_a_prime_stride_of_cyclic_12():
    g = construct_group("cyclic(12)")
    count = (1 << g.order) - 1
    pairs = [[[x for x in range(g.order) if (m + 1) >> x & 1]
              for m in divmod(i, count)] for i in range(0, count**2, 1021)]
    assert len(pairs) == 16425
    rows, _ = _kernel_rows(g, [(np.array(a), np.array(b)) for a, b in pairs])
    for (a, b), row in zip(pairs, rows):
        want = Counter(g.mul(x, y) for x in a for y in b)
        assert (int(np.count_nonzero(row)), int(row @ row)) == \
            (len(want), sum(c * c for c in want.values())), (a, b)
