"""The vectorized group law against the scalar oracles.

Every family's ``mul_outer``/``inv_array`` (the coordinate law, or table
gathers once a group at or below TABLE_CAP has built its table) must
agree with its scalar coordinate law ``mul``/``inv``, and the set
operations, closures and quotients built on the kernel must agree with
brute-force references written here on the scalar law, on both sides of
the cap.  A composite family's scalar law reads its factors' scalar laws,
never their tables, so a kernel planted wrong in a factor shows up as a
disagreement.  The bad-law tests plant one wrong product or inverse and
check that the whole-array sweeps name the same first counterexample as a
scalar sweep in element order.
"""

import itertools
import random
import tracemalloc
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from setgrowth import cli, groups, heisenberg as hb
from setgrowth.groups import (
    ASSOC_SAMPLES,
    BLOCK_PAIRS,
    EXHAUSTIVE_ASSOC_CAP,
    ORDER_CAP,
    TABLE_CAP,
    CyclicGroup,
    DihedralGroup,
    DirectProductGroup,
    FiniteGroup,
    NotNormalError,
    QuotientGroup,
    SL2Group,
    SymmetricGroup,
    _cayley_levels,
    _light_generators,
    construct_group,
    verify_group_axioms,
)
from setgrowth.bsg import bsg_extract
from setgrowth.exact import ceil_isqrt
from setgrowth.setops import (
    MSet,
    convolution,
    energy,
    inverse_set,
    member_mask,
    product_set,
    quotient_map,
    subgroup_closure,
    translate_left,
    translate_right,
)
from setgrowth.structure import ConstantLedger, ruzsa_cover

SPECS = [
    "cyclic(1)",
    "cyclic(37)",
    "dihedral(1)",
    "dihedral(9)",
    "symmetric(3)",
    "symmetric(4)",
    "symmetric(5)",
    "symmetric(6)",
    "symmetric(7)",
    "sl2(3)",
    "sl2(5)",
    "sl2(7)",
    "direct_product(cyclic(4),direct_product(dihedral(3),symmetric(3)))",
    "direct_product(cyclic(100),cyclic(100))",
    "heisenberg(z=Zp^2,p=3;w=Zp^2,p=3;pairing=symplectic)",
    "heisenberg(z=Zp^1,p=5;w=Zp^2,p=3;pairing=zero)",
]

_GROUPS: dict[str, FiniteGroup] = {}


def group(spec: str) -> FiniteGroup:
    if spec not in _GROUPS:
        _GROUPS[spec] = construct_group(spec)
    return _GROUPS[spec]


def quotients() -> list[FiniteGroup]:
    heis = group("heisenberg(z=Zp^2,p=3;w=Zp^2,p=3;pairing=symplectic)")
    return [quotient_map(group("dihedral(9)"), [3]), heis.vertical]


def id_lists(g: FiniteGroup, max_size=12):
    return st.lists(st.integers(min_value=0, max_value=g.order - 1),
                    min_size=1, max_size=max_size)


def assert_law_matches_oracle(g, xs, ys):
    expect = [[g.mul(x, y) for y in ys] for x in xs]
    inverses = [g.inv(x) for x in xs]
    assert all(type(v) is int for v in itertools.chain(inverses, *expect))
    assert g.mul_outer(xs, ys).tolist() == expect
    law = g._mul_law(np.array(xs)[:, None], np.array(ys)[None, :])
    assert law.tolist() == expect
    assert g.inv_array(xs).tolist() == inverses
    assert g._inv_law(np.array(xs)).tolist() == inverses


# ------------------------------------------------------------ the law

@pytest.mark.parametrize("spec", SPECS)
@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_mul_outer_matches_raw_oracle(spec, data):
    g = group(spec)
    xs, ys = data.draw(id_lists(g)), data.draw(id_lists(g))
    assert_law_matches_oracle(g, xs, ys)


@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_quotient_mul_outer_matches_raw_oracle(data):
    for q in quotients():
        xs, ys = data.draw(id_lists(q)), data.draw(id_lists(q))
        assert_law_matches_oracle(q, xs, ys)


@pytest.mark.parametrize("spec", [
    "dihedral(9)", "sl2(5)", "symmetric(4)",
    # above one block of the law: the table is filled over several blocks
    "sl2(7)", "dihedral(100)",
    "heisenberg(z=Zp^2,p=7;w=Zp^1,p=7;pairing=symplectic)",
    "direct_product(sl2(5),cyclic(3))",
])
def test_table_is_the_whole_law(spec):
    g = group(spec)
    ids = list(range(g.order))
    assert g.table().tolist() == [[g.mul(x, y) for y in ids] for x in ids]
    assert g.inv_array(ids).tolist() == [g.inv(x) for x in ids]


def test_quotient_table_is_the_whole_law():
    # rho^100 is central in dihedral(200); the quotient has order 200, and
    # its law reads the parent's table
    q = quotient_map(group("dihedral(200)"), [100])
    assert q.order == 200 > BLOCK_PAIRS // q.order
    ids = list(range(q.order))
    assert q.table().tolist() == [[q.mul(x, y) for y in ids] for x in ids]


@pytest.mark.parametrize("spec", ["sl2(11)", "symmetric(6)"])
def test_large_table_is_the_vectorized_law(spec):
    # the scalar tables are too slow here; the vectorized law is itself
    # tested against the scalar law above
    g = group(spec)
    ids = np.arange(g.order)
    table = g.table()
    for lo in range(0, g.order, 64):
        rows = ids[lo:lo + 64]
        assert (table[rows] == g._mul_law(rows[:, None], ids)).all()


def test_table_build_runs_the_law_on_one_block(monkeypatch):
    # sl2(11): the build forms each of the 1320^2 = 1,742,400 cells once,
    # by law calls of at most one block each
    g = SL2Group(11)
    products = []
    real = g._mul_law

    def counted(x, y):
        products.append(np.broadcast(x, y).size)
        return real(x, y)

    monkeypatch.setattr(g, "_mul_law", counted)
    g.table()
    assert sum(products) == g.order ** 2
    assert max(products) <= BLOCK_PAIRS


def test_table_build_memory_is_the_table():
    # sl2(13): the uint16 table is 2184^2 * 2 bytes = 9.1 MiB; the build adds
    # one block of the law at a time
    g = SL2Group(13)
    tracemalloc.start()
    try:
        table = g.table()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1.1 * table.nbytes


def test_sl2_int32_law_matches_the_scalar_law():
    g = group("sl2(13)")
    assert all(col.dtype == np.int32 for col in g._entries)
    xs, ys = np.random.default_rng(13).integers(0, g.order, size=(2, 20_000))
    expect = [g.mul(x, y) for x, y in zip(xs.tolist(), ys.tolist())]
    assert g._mul_law(xs, ys).tolist() == expect
    assert g.mul_pairs(xs, ys).tolist() == expect      # the table
    ids = np.arange(g.order)
    assert g._inv_law(ids).tolist() == [g.inv(x) for x in range(g.order)]
    # p = 31 is the largest p that ORDER_CAP admits: its largest entry sum
    # a*e + b*g and its largest base-p code, computed in int32, equal their
    # exact values
    with pytest.raises(ValueError, match="exceeds cap"):
        SL2Group(37)
    top = np.full(1, 30, dtype=np.int32)
    assert int((top * top + top * top)[0]) == 2 * 30**2
    assert int(group("sl2(31)")._code(top, top, top, top)[0]) == 31**4 - 1


@pytest.mark.parametrize("spec, order", [
    ("symmetric(8)", 40_320), ("sl2(17)", 4_896), ("sl2(31)", 29_760)])
def test_law_up_to_the_order_cap_matches_the_scalar_law(spec, order):
    # above TABLE_CAP, so mul_pairs runs the law; seeded pairs and ids
    g = group(spec)
    assert g.order == order > TABLE_CAP
    xs, ys = np.random.default_rng(order).integers(0, order, size=(2, 20_000))
    expect = [g.mul(x, y) for x, y in zip(xs.tolist(), ys.tolist())]
    assert g._mul_law(xs, ys).tolist() == expect
    assert g.mul_pairs(xs, ys).tolist() == expect
    assert g.mul_outer(xs[:40], ys[:50]).tolist() == [
        [g.mul(x, y) for y in ys[:50].tolist()] for x in xs[:40].tolist()]
    assert g.inv_array(xs).tolist() == [g.inv(x) for x in xs.tolist()]


@pytest.mark.parametrize("n", range(1, 8))
@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_symmetric_law_matches_the_scalar_law(n, data):
    # the law itself, not the table that caches it for n <= 6, in the
    # three shapes the kernel calls it in; symmetric(1) has no digits
    g = group(f"symmetric({n})")
    xs = np.array(data.draw(id_lists(g, 20)), dtype=np.intp)
    ys = np.array(data.draw(id_lists(g, 20)), dtype=np.intp)
    m = min(len(xs), len(ys))
    outer = g._mul_law(xs[:, None], ys)
    assert outer.shape == (len(xs), len(ys))
    assert outer.tolist() == [[g.mul(x, y) for y in ys.tolist()]
                              for x in xs.tolist()]
    pairs = g._mul_law(xs[:m], ys[:m])
    assert pairs.shape == (m,)
    assert pairs.tolist() == [g.mul(x, y) for x, y in
                              zip(xs[:m].tolist(), ys[:m].tolist())]
    # a conjugation block: row i of xs*ys, then times xs[i]^-1 on the right
    inverses = g._inv_law(xs)
    assert inverses.tolist() == [g.inv(x) for x in xs.tolist()]
    conj = g._mul_law(outer.astype(np.intp), inverses.astype(np.intp)[:, None])
    assert conj.tolist() == [[g.mul(g.mul(x, y), g.inv(x)) for y in ys.tolist()]
                             for x in xs.tolist()]


def test_symmetric_law_forms_no_array_of_images():
    # one (..., n) intp array of images would take 8n = 56 bytes a product
    g = group("symmetric(7)")
    xs, ys = np.arange(0, 3900, 100)[:, None], np.arange(0, 4620, 11)
    tracemalloc.start()
    try:
        out = g._mul_law(xs, ys)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert out.shape == (39, 420)
    assert peak < 8 * g.n * out.size


# ------------------------------------------------------------ planted kernels

class PlantedCyclic(CyclicGroup):
    """cyclic(n) whose vectorized law is wrong at the one pair (a, b);
    its scalar law is the true one."""

    def __init__(self, n, a, b, c):
        super().__init__(n)
        self.cell = (a, b, c)

    def _mul_law(self, x, y):
        a, b, c = self.cell
        return np.where((x == a) & (y == b), c, super()._mul_law(x, y))


def kernel_disagreements(g):
    """The pairs (x, y) where mul_outer differs from the scalar law."""
    ids = list(range(g.order))
    scalar = np.array([[g.mul(x, y) for y in ids] for x in ids])
    rows, cols = np.nonzero(g.mul_outer(ids, ids) != scalar)
    return set(zip(rows.tolist(), cols.tolist()))


def test_direct_product_scalar_law_ignores_a_planted_factor_kernel():
    bad = PlantedCyclic(5, 2, 4, 0)         # 2 + 4 is 1 mod 5
    g = DirectProductGroup([CyclicGroup(3), bad])
    assert kernel_disagreements(g) == {
        (u * 5 + 2, v * 5 + 4) for u in range(3) for v in range(3)}


def test_quotient_scalar_law_ignores_a_planted_parent_kernel():
    # cyclic(6) / {0, 3}: pi is x mod 3; the kernel sends 1 + 2 to 4, not 3
    parent = PlantedCyclic(6, 1, 2, 4)
    q = QuotientGroup(parent, np.arange(3), np.arange(6) % 3)
    assert kernel_disagreements(q) == {(1, 2)}
    assert all(type(q.mul(x, y)) is int and type(q.inv(x)) is int
               for x in range(3) for y in range(3))


# ------------------------------------------------------------ closures

def scalar_closure(g, seed):
    """The subgroup generated by seed, one scalar product at a time."""
    gens = set(seed) | {g.inv(x) for x in seed}
    members, frontier = {0}, [0]
    while frontier:
        x = frontier.pop()
        for h in gens:
            y = g.mul(x, h)
            if y not in members:
                members.add(y)
                frontier.append(y)
    return frozenset(members)


@pytest.mark.parametrize("spec", SPECS)
@settings(max_examples=8, deadline=None)
@given(data=st.data())
def test_subgroup_closure_matches_scalar_reference(spec, data):
    g = group(spec)
    seed = data.draw(id_lists(g, 3))
    assert frozenset(subgroup_closure(g, seed).ids()) == scalar_closure(g, seed)


def scalar_levels(g, gens):
    """The breadth-first levels from the identity in the right Cayley graph
    of gens, one scalar product at a time, each level sorted."""
    seen, level, levels = {0}, [0], []
    while level:
        levels.append(sorted(level))
        fresh = []
        for x in level:
            for s in gens:
                y = g.mul(x, s)
                if y not in seen:
                    seen.add(y)
                    fresh.append(y)
        level = fresh
    return levels


@pytest.mark.parametrize("spec", [
    "cyclic(37)", "dihedral(9)", "sl2(5)",
    "direct_product(cyclic(4),direct_product(dihedral(3),symmetric(3)))"])
@pytest.mark.parametrize("block_pairs", [3, BLOCK_PAIRS])
@settings(max_examples=8, deadline=None)
@given(data=st.data())
def test_cayley_levels_match_a_scalar_bfs(spec, block_pairs, data):
    # at 3 products per block a level of more than one id spans blocks
    g = group(spec)
    gens = sorted(set(data.draw(id_lists(g, 3))))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(groups, "BLOCK_PAIRS", block_pairs)
        levels = [level.tolist() for level in _cayley_levels(g, np.array(gens))]
    assert levels == scalar_levels(g, gens)


# ------------------------------------------------------------ quotients

def scalar_first_escape(g, members):
    """The first (x, h, x*h*x^-1) outside H, h ascending then x ascending."""
    for h in sorted(members):
        for x in range(g.order):
            c = g.mul(g.mul(x, h), g.inv(x))
            if c not in members:
                return (x, h, c)
    return None


def scalar_cosets(g, members):
    """reps (smallest id of each coset xH, increasing) and pi."""
    reps, pi = [], [None] * g.order
    for x in range(g.order):
        if pi[x] is None:
            for h in members:
                pi[g.mul(x, h)] = len(reps)
            reps.append(x)
    return reps, pi


def three_cycles(g):
    """Ids of the 3-cycles (0 1 k) of symmetric(n), which generate A_n."""
    out = []
    for k in range(2, g.n):
        p = list(range(g.n))
        p[0], p[1], p[k] = 1, k, 0
        out.append(g.index[tuple(p)])
    return out


def is_even(perm):
    return sum(a > b for a, b in itertools.combinations(perm, 2)) % 2 == 0


H_VERTICAL = "heisenberg(z=Zp^2,p=3;w=Zp^2,p=3;pairing=symplectic)"
NORMAL_CASES = [
    ("cyclic(12)", [4]),
    ("dihedral(9)", [3]),
    ("symmetric(4)", [7, 16]),      # the Klein four-group
    ("sl2(5)", None),               # the centre {I, -I}
    # 2C4 x rotations x S3
    ("direct_product(cyclic(4),direct_product(dihedral(3),symmetric(3)))",
     [72, 6, 1, 2]),
    (H_VERTICAL, [1, 3]),
]


def normal_case_gens(g, gens):
    if gens is not None:
        return gens
    return [g.index[tuple((-e) % g.p for e in g.mats[0])]]


@pytest.mark.parametrize("spec, gens", NORMAL_CASES)
def test_quotient_map_matches_scalar_reference(spec, gens):
    g = group(spec)
    gens = normal_case_gens(g, gens)
    members = scalar_closure(g, gens)
    assert scalar_first_escape(g, members) is None
    q = quotient_map(g, gens)
    reps, pi = scalar_cosets(g, members)
    assert frozenset(np.flatnonzero(q.pi == 0).tolist()) == members
    assert q.reps.dtype == q.pi.dtype == np.intp
    assert q.reps.tolist() == reps and q.pi.tolist() == pi
    assert q.order * len(members) == g.order


@pytest.mark.parametrize("n", [6, 7])
def test_alternating_group_quotient(n):
    # A_n is normal of index 2; its members are the even permutations
    g = group(f"symmetric({n})")
    q = quotient_map(g, three_cycles(g))
    parity = [0 if is_even(p) else 1 for p in g.perms]
    assert np.flatnonzero(q.pi == 0).tolist() == \
        [i for i, e in enumerate(parity) if e == 0]
    assert q.reps.tolist() == [0, parity.index(1)]
    assert q.pi.tolist() == parity


NON_NORMAL_CASES = [
    ("symmetric(4)", [1]),
    ("symmetric(4)", [2, 6]),
    ("dihedral(9)", [9]),
    ("sl2(5)", [1]),
    ("symmetric(7)", [1]),
    ("symmetric(7)", [5, 30]),
    (H_VERTICAL, [9]),
]


@pytest.mark.parametrize("spec, gens", NON_NORMAL_CASES)
def test_not_normal_names_the_first_escape(spec, gens):
    g = group(spec)
    expect = scalar_first_escape(g, scalar_closure(g, gens))
    assert expect is not None
    with pytest.raises(NotNormalError) as err:
        quotient_map(g, gens)
    x, h, conj = expect
    assert str(err.value) == (f"subgroup is not normal: conjugate of member "
                              f"{h} by {x} is {conj}, a non-member")


def test_table_only_at_or_below_the_cap():
    assert group("sl2(7)").table() is not None
    big = group("symmetric(7)")
    assert big.order > TABLE_CAP
    assert big.table() is None and big.row(0) is None


# ------------------------------------------------------------ table rent

def test_table_is_built_by_the_call_that_reaches_order_squared(monkeypatch):
    # cyclic(60): the table holds 3,600 cells, so the law answers 3,599
    # products and the call that asks for the 3,600th builds the table
    g = CyclicGroup(60)
    law = g._mul_law
    products = count_law_products(monkeypatch, g)
    for size in (1000, 1000, 1000, 599):
        xs = np.arange(size) % g.order
        ys = xs[::-1]
        assert g.mul_pairs(xs, ys).tolist() == [
            g.mul(int(x), int(y)) for x, y in zip(xs, ys)]
    assert g._table is None and sum(products) == 3599
    assert g.mul_pairs(7, 59).tolist() == 6
    assert g._table is not None
    ids = np.arange(g.order)
    assert np.array_equal(g._table, law(ids[:, None], ids))
    built = sum(products)
    g.mul_outer(ids, ids)
    assert sum(products) == built


def fresh_groups():
    """New instances, so each has no table yet: orders whose order² is
    above the products one draw of the differential test asks for."""
    return [CyclicGroup(97), DihedralGroup(30), SL2Group(5),
            SymmetricGroup(4),
            DirectProductGroup([CyclicGroup(3), SL2Group(5)]),
            quotient_map(DihedralGroup(20), [10])]


@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_set_operations_agree_before_and_after_the_table(data):
    for g in fresh_groups():
        a = mset(g, data.draw(id_lists(g)))
        b = mset(g, data.draw(id_lists(g)))
        x = data.draw(st.integers(min_value=0, max_value=g.order - 1))

        def results():
            return (product_set(a, b), translate_left(x, a),
                    translate_right(a, x), inverse_set(a),
                    convolution(a, b).tolist())

        by_law = results()
        assert g._table is None
        g.table()
        assert results() == by_law


# ------------------------------------------------------------ block boundaries

def boundary_groups():
    """One group of each kind, symmetric(7) above TABLE_CAP."""
    return [group(spec) for spec in (
        "cyclic(37)", "dihedral(9)", "symmetric(4)", "sl2(5)",
        "direct_product(cyclic(4),direct_product(dihedral(3),symmetric(3)))",
        "symmetric(7)")] + [quotient_map(group("dihedral(20)"), [10])]


# |A|·|B| at, below and above the patched block sizes 1, 7 and 64; 130 x 130
# is above the default BLOCK_PAIRS
BOUNDARY_SIZES = [(1, 1), (1, 7), (7, 1), (2, 4), (8, 8), (5, 13), (9, 8),
                  (130, 130)]


def blocked_results(g, a, b):
    """Every consumer of the product blocks on A and B: the product set,
    the convolution, the energy, both covers, the closure of A and the
    bsg extraction at the K its energy gives."""
    nm = a.size * b.size
    ex = bsg_extract(a, b, Fraction(ceil_isqrt(nm**3), energy(a, b)))
    return (product_set(a, b), convolution(a, b).tolist(), energy(a, b),
            ruzsa_cover(a, b, "left"), ruzsa_cover(a, b, "right"),
            subgroup_closure(g, a.ids()),
            (ex.c, ex.a_prime, ex.a_second, ex.a_third, ex.b_third, ex.d,
             ex.product, ex.ledger.lines()))


@pytest.mark.parametrize("block_pairs", [1, 7, 64, BLOCK_PAIRS])
def test_results_do_not_depend_on_the_block_size(block_pairs, monkeypatch):
    for g in boundary_groups():
        rng = random.Random(g.name)
        for na, nb in BOUNDARY_SIZES:
            if 2 * max(na, nb) > g.order:
                continue
            a = mset(g, rng.sample(range(g.order), na))
            b = mset(g, rng.sample(range(g.order), nb))
            expect = blocked_results(g, a, b)
            # fresh sets, so no result is read back from the first pass
            a, b = mset(g, a.ids()), mset(g, b.ids())
            monkeypatch.setattr(groups, "BLOCK_PAIRS", block_pairs)
            assert blocked_results(g, a, b) == expect
            monkeypatch.undo()


def test_one_block_is_one_product_call(monkeypatch):
    # operands that fit one block take one mul_outer call over all of xs
    # and no row-block generator; one product more takes the row blocks
    g = group("symmetric(7)")
    calls, tilings = [], []
    real, real_rows = g.mul_outer, groups._row_blocks
    monkeypatch.setattr(g, "mul_outer", lambda xs, ys: calls.append(
        (len(xs), len(ys))) or real(xs, ys))
    monkeypatch.setattr(groups, "_row_blocks", lambda *shape: tilings.append(
        shape) or real_rows(*shape))
    monkeypatch.setattr(groups, "BLOCK_PAIRS", 64)
    xs = np.arange(8)
    for ys, expect, tiled in ((np.arange(8), [(8, 8)], []),
                              (np.arange(9), [(7, 9), (1, 9)], [(8, 9)])):
        calls.clear()
        tilings.clear()
        blocks = list(groups._product_blocks(g, xs, ys))
        assert calls == expect and tilings == tiled
        assert blocks[0][0] == slice(0, expect[0][0])
        assert np.array_equal(np.concatenate([b for _, b in blocks]),
                              real(xs, ys))


# ------------------------------------------------------------ inverse cache

@pytest.mark.parametrize("spec", ["cyclic(37)", "sl2(5)", "symmetric(7)"])
@settings(max_examples=10, deadline=None)
@given(data=st.data())
def test_inverse_set_is_formed_once_per_set(spec, data):
    g = group(spec)
    a = mset(g, data.draw(id_lists(g)))
    calls = []
    real = g.inv_array
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(g, "inv_array", lambda x: calls.append(1) or real(x))
        inv = inverse_set(a)
        assert inverse_set(a) is inv and len(calls) == 1
    assert frozenset(inv.ids()) == frozenset(g.inv(x) for x in a.ids())
    mask = member_mask(inv)
    assert not mask.flags.writeable
    with pytest.raises(ValueError):
        mask[0] = not mask[0]
    assert inverse_set(mset(g, a.ids())) == inv


# ------------------------------------------------------------ set operations

SET_GROUPS = ["sl2(5)", "symmetric(7)"]


def mset(g, ids):
    return MSet.from_ids(g, ids)


def brute_products(g, xs, ys):
    return {g.mul(x, y) for x in xs for y in ys}


@pytest.mark.parametrize("spec", SET_GROUPS)
@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_set_operations_match_brute_force(spec, data):
    g = group(spec)
    a = mset(g, data.draw(id_lists(g, 30)))
    b = mset(g, data.draw(id_lists(g, 30)))
    x = data.draw(st.integers(min_value=0, max_value=g.order - 1))
    assert set(product_set(a, b).ids()) == brute_products(g, a.ids(), b.ids())
    counts = Counter(g.mul(u, v) for u in a.ids() for v in b.ids())
    assert convolution(a, b).tolist() == [counts[y] for y in range(g.order)]
    assert translate_left(x, a) == mset(g, brute_products(g, [x], a.ids()))
    assert translate_right(a, x) == mset(g, brute_products(g, a.ids(), [x]))
    assert set(inverse_set(a).ids()) == {g.inv(u) for u in a.ids()}


@pytest.mark.parametrize("spec", SET_GROUPS)
def test_scalar_results_are_python_ints(spec):
    g = group(spec)
    a = mset(g, range(1, g.order, 7))
    values = [g.mul(3, 5), g.inv(3)] + list(a.ids())
    values.append(energy(a, a))
    if g.row(0) is not None:
        values.append(g.row(3)[5])
    assert all(type(v) is int for v in values)
    assert convolution(a, a).dtype == np.int64


# ------------------------------------------------------------ caps and memory

def test_order_cap_runs_set_arithmetic_without_a_table():
    g = CyclicGroup(ORDER_CAP)
    rng = random.Random(0)
    a = mset(g, rng.sample(range(g.order), 100))
    b = mset(g, rng.sample(range(g.order), 100))
    assert set(product_set(a, b).ids()) == brute_products(g, a.ids(), b.ids())
    assert convolution(a, b).sum() == 100 * 100
    assert translate_left(7, a) == mset(g, [(7 + u) % g.order for u in a.ids()])
    assert g._table is None


def test_order_above_the_cap_is_refused():
    with pytest.raises(ValueError, match="exceeds cap"):
        CyclicGroup(ORDER_CAP + 1)
    with pytest.raises(ValueError, match="exceeds cap"):
        construct_group(f"cyclic({ORDER_CAP + 1})")


def test_set_arithmetic_memory_is_not_quadratic():
    # 2000 x 2000 products: one uint16 array of them would take 8 MB
    g = CyclicGroup(ORDER_CAP)
    a = mset(g, range(0, 4000, 2))
    tracemalloc.start()
    try:
        product_set(a, a)
        convolution(a, a)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2_000_000


# ------------------------------------------------------------ planted bad laws

class TableGroup(FiniteGroup):
    """A law read from explicit arrays, so single entries can be broken."""

    def __init__(self, table, inverse):
        super().__init__(len(table), "planted")
        self.law = np.array(table, dtype=np.intp)
        self.inverse = np.array(inverse, dtype=np.intp)

    def _mul_law(self, x, y):
        return self.law[x, y]

    def _inv_law(self, x):
        return self.inverse[x]

    def mul(self, a, b):
        return int(self.law[a, b])

    def inv(self, a):
        return int(self.inverse[a])


def scalar_axiom_error(g, seed=0):
    """The axiom sweep one element (or triple) at a time, in element order."""
    for x in g.elements():
        if g.mul(0, x) != x or g.mul(x, 0) != x:
            return f"id 0 is not an identity at element {x}"
        if g.mul(x, g.inv(x)) != 0:
            return f"inv fails at element {x}"
        if g.inv(g.inv(x)) != x:
            return f"inv is not an involution at element {x}"
    n = g.order
    if n <= EXHAUSTIVE_ASSOC_CAP:
        triples = itertools.product(range(n), repeat=3)
    else:
        rng = random.Random(seed)
        triples = ((rng.randrange(n), rng.randrange(n), rng.randrange(n))
                   for _ in range(ASSOC_SAMPLES))
    for x, y, z in triples:
        if g.mul(g.mul(x, y), z) != g.mul(x, g.mul(y, z)):
            return f"associativity fails at ({x},{y},{z})"
    return None


def planted(spec, cells=(), inverses=()):
    base = construct_group(spec)
    table = base.table().astype(np.intp)
    inverse = base.inv_array(range(base.order))
    for a, b, c in cells:
        table[a, b] = c
    for a, c in inverses:
        inverse[a] = c
    return TableGroup(table, inverse)


def axiom_error(g):
    try:
        verify_group_axioms(g)
    except ValueError as exc:
        return str(exc)
    return None


@settings(max_examples=40, deadline=None)
@given(st.lists(st.tuples(*[st.integers(0, 11)] * 3), max_size=2),
       st.lists(st.tuples(*[st.integers(0, 11)] * 2), max_size=1))
def test_axiom_sweep_names_the_first_counterexample(cells, inverses):
    g = planted("dihedral(6)", cells, inverses)
    assert axiom_error(g) == scalar_axiom_error(g)


@pytest.mark.parametrize("cells", [
    [(95, 7, 3)],
    [(199, 120, 120), (90, 91, 0)],
])
def test_exhaustive_sweep_reads_the_law_above_one_block(cells):
    # dihedral(100) has order 200, so its law table spans several blocks;
    # the sweep names the scalar sweep's first counterexample whether it
    # builds that table itself or reads the one the group already has
    g = planted("dihedral(100)", cells)
    assert g.order <= EXHAUSTIVE_ASSOC_CAP
    assert g.order ** 2 > BLOCK_PAIRS
    message = axiom_error(g)
    assert message is not None and message == scalar_axiom_error(g)
    tabled = planted("dihedral(100)", cells)
    assert all(tabled.table()[a, b] == c for a, b, c in cells)
    assert axiom_error(tabled) == message


def test_sampled_associativity_names_the_first_counterexample():
    # a*1 = a+2 for every a but the inverse of 1: identity and inverses
    # hold, associativity fails on a few triples in a thousand
    g = planted("cyclic(600)", [(a, 1, a + 2) for a in range(1, 598)])
    assert g.order > EXHAUSTIVE_ASSOC_CAP
    message = axiom_error(g)
    assert message is not None and message.startswith("associativity fails")
    assert message == scalar_axiom_error(g)


# ------------------------------------------------------------ Light's test

NINE_C2 = "direct_product(" + ",".join(["cyclic(2)"] * 9) + ")"


def heisenberg_spec(p):
    return f"heisenberg(z=Zp^2,p={p};w=Zp^1,p={p};pairing=symplectic)"


def count_law_products(monkeypatch, owner):
    """Patch owner._mul_law (a class or an instance) to count products."""
    products = []
    real = owner._mul_law

    def counted(*args):
        x, y = args[-2:]
        products.append(np.broadcast(x, y).size)
        return real(*args)

    monkeypatch.setattr(owner, "_mul_law", counted)
    return products


def test_heisenberg_build_runs_the_law_once(monkeypatch):
    # the axiom sweep's n^2 law table plus the 3n products of its identity
    # and inverse checks; the law sweeps gather from the adopted table
    monkeypatch.setattr(groups, "_GROUPS", {})
    products = count_law_products(monkeypatch, hb.HeisenbergGroup)
    g = construct_group(heisenberg_spec(7))
    n = g.order
    assert n == 343
    assert 0 < sum(products) <= n * n + 3 * n
    assert g.construction_ledger.rows[-1].name == "axiom-sweep-triples"


def test_heisenberg_build_tables_before_the_commutator_sweep(monkeypatch):
    # order 1331, above the exhaustive axiom cap: only the exhaustive
    # commutator sweep (3 products per ordered pair) asks for the table,
    # before it starts.  The law forms the table's n^2 cells once, plus
    # what the earlier sweeps ask of it: 4 products per sampled
    # associativity triple, 3n for identity and inverses in the axiom
    # sweep, n for the inverse law and 2 per (vertical, element) pair
    products = count_law_products(monkeypatch, hb.HeisenbergGroup)
    g = hb.build_heisenberg(hb.parse_pairing_spec(
        "z=Zp^2,p=11;w=Zp^1,p=11;pairing=symplectic"))
    n = g.order
    assert n == 1331 > EXHAUSTIVE_ASSOC_CAP
    assert g._table is not None
    earlier = 4 * ASSOC_SAMPLES + 4 * n + 2 * g.w_order * n
    assert sum(products) <= n * n + earlier


def test_group_info_reuses_the_heisenberg_build_sweep(monkeypatch, capsys):
    # the build's exhaustive sweep is the one `group info` reports
    monkeypatch.setattr(groups, "_GROUPS", {})
    products = count_law_products(monkeypatch, hb.HeisenbergGroup)
    assert cli.main(["group", "info", heisenberg_spec(7)]) == 0
    n = 343
    assert 0 < sum(products) <= n * n + 3 * n
    assert ("axioms:   ok (exhaustive, 343 elements, 40353607 associativity "
            "triples)") in capsys.readouterr().out.splitlines()


def test_exhaustive_sweep_runs_the_law_once(monkeypatch):
    g = DihedralGroup(100)
    products = count_law_products(monkeypatch, g)
    assert verify_group_axioms(g)["mode"] == "exhaustive"
    assert sum(products) <= g.order ** 2 + 3 * g.order


@pytest.mark.parametrize("spec", [
    "cyclic(512)", "dihedral(6)", "symmetric(5)", "sl2(7)", NINE_C2,
])
def test_passing_sweep_adopts_its_law_table(spec, monkeypatch):
    monkeypatch.setattr(groups, "_GROUPS", {})
    g = construct_group(spec)
    assert g._table is None
    stats = verify_group_axioms(g)
    assert stats == {"elements": g.order, "triples": g.order ** 3,
                     "mode": "exhaustive"}
    assert g._table is not None
    monkeypatch.setattr(groups, "_GROUPS", {})
    assert np.array_equal(g._table, construct_group(spec).table())


@pytest.mark.parametrize("p", [3, 5, 7])
def test_heisenberg_build_adopts_its_law_table(monkeypatch, p):
    monkeypatch.setattr(groups, "_GROUPS", {})
    g = construct_group(heisenberg_spec(p))
    assert g._table is not None
    assert np.array_equal(g._table, hb.HeisenbergGroup(g.spec).table())


def test_sweep_keeps_an_existing_table():
    g = construct_group("sl2(5)")
    table = g.table()
    verify_group_axioms(g)
    assert g._table is table


@pytest.mark.parametrize("spec, cells", [
    ("dihedral(100)", [(95, 7, 3)]),
    ("dihedral(100)", [(199, 120, 120), (90, 91, 0)]),
    # a*1 = a+2 but for the inverse of 1: only associativity fails
    ("cyclic(300)", [(a, 1, a + 2) for a in range(1, 298)]),
])
def test_failing_sweep_adopts_no_table(spec, cells):
    g = planted(spec, cells)
    message = axiom_error(g)
    assert message is not None and message == scalar_axiom_error(g)
    assert g._table is None


def test_long_cayley_diameter_takes_few_generators():
    # the right Cayley graph of cyclic(512) on {1} has diameter 511: one
    # generator reaches every id, in rounds that double the reached set
    g = CyclicGroup(512)
    assert verify_group_axioms(g)["mode"] == "exhaustive"
    assert len(_light_generators(g._table)) <= 2


def test_light_generators_reach_every_id():
    g = construct_group(NINE_C2)
    gens = _light_generators(g.table())
    assert gens == [1 << i for i in range(9)]
    assert subgroup_closure(g, gens).size == g.order


H_SPEC = hb.parse_pairing_spec("z=Zp^2,p=3;w=Zp^1,p=3;pairing=symplectic")


class PlantedHeisenberg(hb.HeisenbergGroup):
    """The order-27 Heisenberg group with one product replaced."""

    def __init__(self, a, b, c):
        super().__init__(H_SPEC)
        self.cell = (a, b, c)

    def _mul_law(self, x, y):
        a, b, c = self.cell
        return np.where((x == a) & (y == b), c, super()._mul_law(x, y))

    def mul(self, x, y):
        a, b, c = self.cell
        return c if (x, y) == (a, b) else super().mul(x, y)


def law_cases(exhaustive, seed, count, bounds):
    """Every tuple of the ranges in product order, or count seeded draws of
    one randrange per bound, one draw at a time."""
    if exhaustive:
        return itertools.product(*map(range, bounds))
    rng = random.Random(seed)
    return ([rng.randrange(b) for b in bounds] for _ in range(count))


def scalar_law_error(g):
    """The Heisenberg law sweeps one id or pair at a time, in iteration
    order, or in the order of the seeded draws above the caps; the inverse
    law over every id at every order."""
    wo, n, seed = g.w_order, g.order, groups.DEFAULT_SEED
    exhaustive = n <= hb.EXHAUSTIVE_ORDER_CAP
    for a in range(n):
        z, w = divmod(a, wo)
        expect = g.z_additive.inv(z) * wo + g.w_additive.inv(w)
        if g.inv(a) != expect or g.mul(a, g.inv(a)) != 0:
            return f"inverse law (z,w) -> (-z,-w) fails at id {a}"
    for h, x in law_cases(exhaustive, seed + 3, hb.SAMPLE_COUNT, (wo, n)):
        if g.mul(h, x) != g.mul(x, h):
            return f"vertical element {h} fails to commute with element {x}"
    for a, b in law_cases(n * n <= hb.EXHAUSTIVE_PAIR_CAP, seed + 4,
                          hb.SAMPLE_COUNT * 5, (n, n)):
        comm = g.mul(g.mul(g.mul(a, b), g.inv(a)), g.inv(b))
        p = g.pair(a // wo, b // wo)
        if comm != g.w_additive.mul(p, p):
            return (f"commutator of ids ({a}, {b}) is {comm}, "
                    "not twice the pairing value")
    return None


@settings(max_examples=40, deadline=None)
@given(*[st.integers(0, 26)] * 3)
def test_heisenberg_sweeps_name_the_first_counterexample(a, b, c):
    g = PlantedHeisenberg(a, b, c)
    try:
        hb._validate_group_law(g, ConstantLedger("planted"))
        message = None
    except ValueError as exc:
        message = str(exc)
    assert message == scalar_law_error(g)


# above EXHAUSTIVE_ORDER_CAP ids and EXHAUSTIVE_PAIR_CAP pairs: every law
# sweep samples
SAMPLED_LAW = hb.parse_pairing_spec("z=Zp^1,p=10007;w=Zp^1,p=2;pairing=zero")


class PlantedSampledLaw(hb.HeisenbergGroup):
    """The order-20,014 group whose product x*y is x wherever bad(x, y)
    holds and whose inverse x^-1 is x wherever bad_inv(x) holds; both
    predicates work on ints and on id arrays alike."""

    def __init__(self, bad=lambda x, y: False, bad_inv=lambda x: False):
        super().__init__(SAMPLED_LAW)
        self.bad, self.bad_inv = bad, bad_inv

    def _mul_law(self, x, y):
        return np.where(self.bad(x, y), x, super()._mul_law(x, y))

    def _inv_law(self, x):
        return np.where(self.bad_inv(x), x, super()._inv_law(x))

    def mul(self, x, y):
        return x if self.bad(x, y) else super().mul(x, y)

    def inv(self, x):
        return x if self.bad_inv(x) else super().inv(x)


@pytest.mark.parametrize("planted, kind", [
    # the inverse-law sweep covers every id at every order, so it names the
    # first planted one, id 5
    (dict(bad_inv=lambda x: x % 97 == 5), "inverse law"),
    # h*x for the vertical id 1 differs from x*1 := x
    (dict(bad=lambda x, y: (x % 89 == 3) & (y == 1)), "vertical element"),
    # neither a vertical id nor a pair (a, a^-1), whose ids sum to 20014 or
    # 20016
    (dict(bad=lambda x, y: (x >= 2) & (y >= 2) & ((x + y) % 500 == 17)),
     "commutator"),
])
def test_sampled_law_sweeps_name_the_first_counterexample(planted, kind):
    g = PlantedSampledLaw(**planted)
    assert g.order > hb.EXHAUSTIVE_ORDER_CAP
    assert g.order ** 2 > hb.EXHAUSTIVE_PAIR_CAP
    with pytest.raises(ValueError) as exc:
        hb._validate_group_law(g, ConstantLedger("planted"))
    assert str(exc.value).startswith(kind)
    assert str(exc.value) == scalar_law_error(g)
    if kind == "inverse law":
        assert str(exc.value).endswith("fails at id 5")


def test_sampled_law_sweeps_pass_on_the_true_law():
    g = PlantedSampledLaw()
    ledger = ConstantLedger("true-law")
    hb._validate_group_law(g, ledger)
    assert scalar_law_error(g) is None
    assert [r.note for r in ledger.rows[:3]] == [
        "all elements", "2000 sampled pairs", "10000 sampled pairs"]
    assert ledger.rows[3].name == "additive-encoding-aligned"
    assert ledger.hard_ok


def test_heisenberg_sweeps_pass_on_the_true_law():
    g = hb.HeisenbergGroup(H_SPEC)
    ledger = ConstantLedger("true-law")
    hb._validate_group_law(g, ledger)
    assert [r.name for r in ledger.rows] == [
        "inverse-law", "vertical-central", "commutator-identity",
        "additive-encoding-aligned"]


# ------------------------------------------------------------ planted pairings

class PlantedPairing(hb.HeisenbergGroup):
    """A Heisenberg carrier whose pairing takes the W id `value` wherever
    bad(z1, z2) holds; bad works on ints and on id arrays alike."""

    def __init__(self, spec, bad, value):
        super().__init__(hb.parse_pairing_spec(spec))
        self.bad, self.value = bad, value

    def pair(self, z1, z2):
        return self.value if self.bad(z1, z2) else super().pair(z1, z2)

    def pair_array(self, z1, z2):
        return np.where(self.bad(z1, z2), self.value,
                        super().pair_array(z1, z2))


def scalar_pairing_error(g):
    """The pairing sweeps one pair (or triple) at a time through g.pair."""
    zo, wadd, winv = g.z_order, g.w_additive.mul, g.w_additive.inv
    if zo <= hb.EXHAUSTIVE_ORDER_CAP:
        for x in range(zo):
            if g.pair(x, x) != 0:
                return f"pairing is not alternating: {{z,z}} != 0 at z id {x}"
            for y in range(x + 1, zo):
                if g.pair(x, y) != winv(g.pair(y, x)):
                    return ("pairing is not antisymmetric: "
                            f"{{x,y}} != -{{y,x}} at z ids ({x}, {y})")
    else:
        rng = random.Random(groups.DEFAULT_SEED)
        for _ in range(hb.SAMPLE_COUNT):
            x, y = rng.randrange(zo), rng.randrange(zo)
            if g.pair(x, x) != 0 or g.pair(x, y) != winv(g.pair(y, x)):
                return f"pairing antisymmetry fails at sampled z ids ({x}, {y})"
    zmul = g.z_additive.mul
    if zo ** 3 <= 8000:
        triples = itertools.product(range(zo), repeat=3)
    else:
        rng = random.Random(groups.DEFAULT_SEED + 1)
        triples = ((rng.randrange(zo), rng.randrange(zo), rng.randrange(zo))
                   for _ in range(hb.SAMPLE_COUNT))
    for x, y, z in triples:
        if g.pair(zmul(x, y), z) != wadd(g.pair(x, z), g.pair(y, z)):
            return f"pairing is not additive on the left at z ids ({x}, {y}, {z})"
        if g.pair(x, zmul(y, z)) != wadd(g.pair(x, y), g.pair(x, z)):
            return f"pairing is not additive on the right at z ids ({x}, {y}, {z})"
    return None


def pairing_error(g):
    try:
        hb._validate_pairing(g, ConstantLedger("planted"))
    except ValueError as exc:
        return str(exc)
    return None


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 8), st.integers(0, 8), st.integers(0, 2))
def test_pairing_sweep_names_the_first_counterexample(a, b, c):
    # one planted value in the order-27 group: exhaustive pairs and triples
    g = PlantedPairing("z=Zp^2,p=3;w=Zp^1,p=3;pairing=symplectic",
                       lambda x, y: (x == a) & (y == b), c)
    assert pairing_error(g) == scalar_pairing_error(g)


# z ids above EXHAUSTIVE_ORDER_CAP (and z^3 above 8000): both sweeps sample
SAMPLED_PAIRING = "z=Zp^1,p=10007;w=Zp^1,p=2;pairing=zero"


@pytest.mark.parametrize("bad, kind", [
    (lambda x, y: x % 97 == 5, "antisymmetry"),
    (lambda x, y: (x != y) & ((x + y) % 3 == 0), "additive"),
    (lambda x, y: (x != y) & ((x + y) % 5000 == 17), "additive"),
])
def test_sampled_pairing_sweep_names_the_first_counterexample(bad, kind):
    g = PlantedPairing(SAMPLED_PAIRING, bad, 1)
    assert g.z_order > hb.EXHAUSTIVE_ORDER_CAP
    message = pairing_error(g)
    assert message is not None and kind in message
    assert message == scalar_pairing_error(g)


def test_pairing_sweep_passes_on_true_pairings():
    for spec in ("z=Zp^2,p=3;w=Zp^1,p=3;pairing=symplectic",
                 "z=Zp^4,p=3;w=Zp^1,p=3;pairing=symplectic",
                 SAMPLED_PAIRING):
        g = hb.HeisenbergGroup(hb.parse_pairing_spec(spec))
        ledger = ConstantLedger("true-pairing")
        hb._validate_pairing(g, ledger)
        assert scalar_pairing_error(g) is None
        assert [r.name for r in ledger.rows] == [
            "pairing-antisymmetric", "pairing-bi-additive"]
