"""Heisenberg groups: construction, splitting, abelianization, and the
exact subgroup oracles.

The splitting oracles were read off by hand: in the order-27 group the
Z-section {(z, 0)} squares onto a 25-element set whose vertical slice is
the identity alone, and the genuine subgroups split with B = A cap H
on the nose.
"""

import itertools
import random
import re
from collections import defaultdict
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from setgrowth import heisenberg as hb
from setgrowth import setops

from setgrowth.groups import (BLOCK_PAIRS, DEFAULT_SEED, QuotientGroup,
                              construct_group)
from setgrowth.setops import (MSet, inverse_set, power_set, product_set,
                              quotient_map, subgroup_closure, symmetrize)
from setgrowth.structure import ConstantLedger, LedgerError
from setgrowth.heisenberg import (
    CANDIDATE_COVER_EXP,
    CANDIDATE_KS_EXP,
    HeisenbergGroup,
    PAIRING_KINDS,
    build_heisenberg,
    exact_split_oracle,
    heisen_inverse,
    hull_tripling_bound,
    parse_pairing_spec,
    split_approximate,
    verify_inverse_converse,
)
from setgrowth.constants import SPLIT_COUNT_EXP, SPLIT_NEST_EXP
from setgrowth.families import SetFamilySpec, generate_set, measured_tripling

H27 = construct_group("heisenberg(z=Zp^2,p=3;w=Zp^1,p=3;pairing=symplectic)")


# ------------------------------------------------------------ construction

def test_parse_round_trip():
    spec = parse_pairing_spec("z=Zp^2,p=3;w=Zp^1,p=3;pairing=symplectic")
    assert (spec.z_rank, spec.z_prime) == (2, 3)
    assert (spec.w_rank, spec.w_prime) == (1, 3)
    assert spec.kind == "symplectic"


def test_parse_rejects_malformed():
    for text in (
        "z=Zp^2,p=3;w=Zp^1,p=3",                      # missing pairing
        "z=Zp^2,p=3;w=Zp^1,p=3;pairing=twisted",      # unknown kind
        "z=Zp^1,p=5;w=Zp^1,p=5;pairing=symplectic",   # odd symplectic rank
        "z=Zp^2,p=3;w=Zp^1,p=5;pairing=symplectic",   # prime mismatch
        "z=Zp^2,p=4;w=Zp^1,p=4;pairing=zero",         # not a prime
    ):
        with pytest.raises(ValueError):
            parse_pairing_spec(text)


@pytest.mark.parametrize("text, message", [
    ("z=Zp^2,p=3;w=Zp^1,p=3", "pairing is missing its pairing field"),
    ("pairing=zero;z=Zp^2,p=3", "pairing is missing its w field"),
    ("z=Zp^2,p=3;w=Zp^1,p=3;pairing=zero;colour=red",
     "unknown pairing field 'colour'"),
    ("z=Zp^2,p=3;w=Zp^1,p=3;z=Zp^2,p=3;pairing=zero", "duplicate pairing field 'z'"),
    ("z=Zp^2,p=3;w;pairing=zero", "pairing expects key=value fields, got 'w'"),
])
def test_parse_names_a_missing_unknown_or_repeated_field(text, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        parse_pairing_spec(text)
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        construct_group(f"heisenberg({text})")


@pytest.mark.parametrize("text, position", [
    (";z=Zp^2,p=3;w=Zp^1,p=3;pairing=symplectic", 1),
    ("z=Zp^2,p=3;;w=Zp^1,p=3;pairing=symplectic", 2),
    ("z=Zp^2,p=3;w=Zp^1,p=3;pairing=symplectic;", 4),
])
def test_parse_refuses_an_empty_field_by_position(text, position):
    with pytest.raises(ValueError, match=f"^pairing field {position} is empty$"):
        parse_pairing_spec(text)


def _pairing_field(rng: random.Random, small) -> int:
    """An integer field of a pairing spec: one of `small` four times in
    five, else a power of ten up to 10^30 or any int of up to 31 digits."""
    kind = rng.randrange(10)
    if kind < 8:
        return rng.choice(small)
    return 10 ** rng.randint(1, 30) if kind == 8 else rng.randint(0, 10**30)


def _random_pairing(rng: random.Random) -> str:
    """A pairing spec text: its three fields in any order, and one time in
    two a field dropped, repeated, emptied, unknown or malformed."""
    def group(key):
        rank, prime = _pairing_field(rng, (1, 2, 3)), _pairing_field(rng, (2, 3, 4, 5, 7))
        return f"{key}=Zp^{rank},p={prime}"

    kind = rng.choice(PAIRING_KINDS * 3 + ("", "twisted"))
    fields = [group("z"), group("w"), f"pairing={kind}"]
    rng.shuffle(fields)
    at, mutation = rng.randrange(len(fields) + 1), rng.randrange(10)
    if mutation == 0:
        fields.pop(at % len(fields))
    elif mutation == 1:
        fields.insert(at, rng.choice(fields))
    elif mutation == 2:
        fields.insert(at, "colour=red")
    elif mutation == 3:
        fields.insert(at, " ")
    elif mutation == 4:
        fields[at % len(fields)] = rng.choice(
            ["z", "w=", "pairing zero", "z=Zp^-1,p=3", "w=Zp^1,p=3,", "z=Zp^2;p=3"])
    return ";".join(fields)


def _parse_and_build(text: str):
    parse_pairing_spec(text)
    construct_group(f"heisenberg({text})")


def test_every_pairing_spec_builds_or_is_refused_in_bounded_time(refusal):
    # each integer field reaches 10^30; a spec whose work followed a rank
    # or a modulus instead of the order cap would outlast the alarm, and
    # any error but a one-line ValueError fails here
    rng = random.Random(1729)
    outcomes = {}
    for _ in range(300):
        text = _random_pairing(rng)
        outcomes[text] = refusal(10, _parse_and_build, text)
    refused = [m for m in outcomes.values() if m is not None]
    assert 0 < len(refused) < len(outcomes)
    assert all("\n" not in m for m in refused)


def test_build_p3():
    assert H27.order == 27
    assert H27.z_order == 9
    assert H27.w_order == 3
    assert H27.construction_ledger is not None
    assert H27.construction_ledger.hard_ok


def test_build_is_cached():
    again = construct_group("heisenberg(z=Zp^2,p=3;w=Zp^1,p=3;pairing=symplectic)")
    assert again is H27


def test_encode_decode():
    for a in range(H27.order):
        assert H27.encode(*divmod(a, H27.w_order)) == a
    z, w = divmod(H27.encode(5, 2), H27.w_order)
    assert H27._zcoords[z] == (1, 2)
    assert w == 2


def test_pairing_is_antisymmetric():
    p = H27.spec.w_prime
    for z1 in range(H27.z_order):
        for z2 in range(H27.z_order):
            lhs = H27.pair(z1, z2)
            rhs = H27.pair(z2, z1)
            assert (lhs + rhs) % (p ** H27.spec.w_rank) == 0 or \
                H27.w_additive.mul(lhs, rhs) == 0


def test_commutator_of_axis_generators_is_central():
    # x = e1 horizontal, y = e2 horizontal; [x, y] lands in the center
    x = H27.encode(3, 0)
    y = H27.encode(1, 0)
    g = H27
    comm = g.mul(g.mul(x, y), g.inv(g.mul(y, x)))
    z, w = divmod(comm, g.w_order)
    assert z == 0
    assert w != 0  # the symplectic form does not vanish here


def test_zero_pairing_is_abelian():
    g = construct_group("heisenberg(z=Zp^1,p=3;w=Zp^1,p=3;pairing=zero)")
    for a in range(g.order):
        for b in range(g.order):
            assert g.mul(a, b) == g.mul(b, a)


def test_vertical_view():
    v = H27.vertical
    assert isinstance(v, QuotientGroup) and v.parent is H27
    # the vertical subgroup is the kernel, the ids where pi is 0
    assert np.flatnonzero(v.pi == 0).tolist() == [0, 1, 2]
    assert v.order == 9
    g = H27
    # the arange-built projection is the one quotient_map derives from cosets
    ref = quotient_map(g, [1])
    assert v.pi.dtype == v.reps.dtype == np.intp
    assert np.array_equal(v.pi, ref.pi) and np.array_equal(v.reps, ref.reps)
    # central: every vertical element commutes with everything
    for w in range(1, 3):
        for a in range(g.order):
            assert g.mul(w, a) == g.mul(a, w)


def test_iota_moves_ids_to_the_additive_group():
    a = MSet.from_ids(H27, [0, 5, 7])
    out = H27.iota(a)
    assert out.ids() == (0, 5, 7)
    assert out.group is H27.additive_group()
    add = H27.additive_group()
    assert all(add.mul(x, y) == add.mul(y, x)
               for x in range(add.order) for y in range(add.order))


# ---------------------------------------------------------------- splitting

def test_split_z_section_oracle():
    a = MSet.from_ids(H27, range(0, 27, 3))
    assert power_set(a, 2).size == 25
    assert power_set(a, 3).size == 27
    sw = split_approximate(a, H27.vertical, Fraction(3))
    assert sw.c.size == 9
    assert (sw.b1.size, sw.b2.size, sw.b3.size) == (1, 3, 3)
    assert "section-exceptions" not in [r.name for r in sw.ledger.rows]
    assert sw.ledger.hard_ok


def test_split_requires_symmetric_input():
    a = MSet.from_ids(H27, [0, 4])
    with pytest.raises(ValueError):
        split_approximate(a, H27.vertical, Fraction(27))


Z_SECTION = MSet.from_ids(H27, range(0, 27, 3))       # |A^3| = 27 = 3|A|


@pytest.mark.parametrize("call, title", [
    (lambda: split_approximate(Z_SECTION, H27.vertical, Fraction(2)),
     "split_approximate"),
    (lambda: heisen_inverse(Z_SECTION, Fraction(2)), "heisen_inverse"),
], ids=["split_approximate", "heisen_inverse"])
def test_a_false_tripling_premise_is_refused_with_its_row(call, title):
    message = f"{title}: [hard] tripling-hypothesis: 27 <= 18 FAIL (|A^3| <= K|A|)"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()


def test_split_count_and_nest_rows():
    a = MSet.from_ids(H27, range(0, 27, 3))
    sw = split_approximate(a, H27.vertical, Fraction(3))
    k = Fraction(3)
    assert sw.b3.size <= k ** SPLIT_NEST_EXP * sw.b1.size
    assert sw.b1.size * sw.c.size <= k ** SPLIT_COUNT_EXP * a.size


def test_split_on_cyclic_normal_view():
    g = construct_group("cyclic(12)")
    q = quotient_map(g, [4])
    a = MSet.from_ids(g, [0, 2, 4, 6, 8, 10])
    sw = split_approximate(a, q, measured_tripling(a))
    assert sw.ledger.hard_ok
    assert sw.b1 == a & MSet.from_ids(g, [0, 4, 8])


# ------------------------------------------------------------ exact oracle

def test_exact_split_cyclic12():
    g = construct_group("cyclic(12)")
    q = quotient_map(g, [4])
    a = MSet.from_ids(g, [0, 2, 4, 6, 8, 10])
    es = exact_split_oracle(a, q)
    assert es.passed
    assert es.b.ids() == (0, 4, 8)
    c = hb._projection(q, a)
    assert c.size == 2
    assert a.size == es.b.size * c.size


def test_exact_split_rejects_non_subgroup():
    g = construct_group("cyclic(12)")
    q = quotient_map(g, [4])
    with pytest.raises(ValueError):
        exact_split_oracle(MSet.from_ids(g, [0, 1]), q)


def test_exact_and_approximate_agree_on_subgroups():
    sub = subgroup_closure(H27, [H27.encode(3, 0), H27.encode(0, 1)])
    assert sub.size == 9
    es = exact_split_oracle(sub, H27.vertical)
    sw = split_approximate(sub, H27.vertical, Fraction(1))
    assert es.passed and sw.ledger.hard_ok
    expected = sub & MSet.from_ids(H27, range(3))
    assert es.b == expected
    assert sw.b1 == expected and sw.b2 == expected and sw.b3 == expected


# ------------------------------------------------------------ abelianizing

def test_hull_tripling_bound_values():
    assert hull_tripling_bound(1) == 15
    assert hull_tripling_bound(Fraction(8, 3)) == Fraction(2545, 27)


def test_candidate_exponents():
    assert CANDIDATE_KS_EXP == 5 + SPLIT_NEST_EXP + SPLIT_COUNT_EXP == 167
    assert CANDIDATE_COVER_EXP == 187


def test_inverse_on_a_vertical_plus_line():
    g = construct_group("heisenberg(z=Zp^2,p=5;w=Zp^1,p=5;pairing=symplectic)")
    ids = [0, g.encode(5, 0), g.encode(20, 0), g.encode(1, 0),
           g.encode(4, 0), g.encode(6, 0)]
    a = MSet.from_ids(g, ids)
    k = measured_tripling(a)
    assert k == Fraction(44, 3)
    wit = heisen_inverse(a, k)
    assert wit.a_tilde.size == 125
    assert {r.name: r for r in wit.ledger.rows}["abelian.size-x"].lhs == 5
    assert wit.ledger.hard_ok
    # iota(A) is inside the abelian witness
    assert g.iota(a) <= wit.a_tilde


def test_inverse_converse_rows():
    g = construct_group("heisenberg(z=Zp^2,p=5;w=Zp^1,p=5;pairing=symplectic)")
    a = MSet.from_ids(g, [0, g.encode(5, 0), g.encode(20, 0), g.encode(0, 1),
                          g.encode(0, 4)])
    wit = heisen_inverse(a, measured_tripling(a))
    led = verify_inverse_converse(wit, a)
    assert led.hard_ok
    names = [r.name for r in led.rows]
    assert any("triple" in n or "absorbed" in n for n in names)


def test_inverse_and_converse_at_p23():
    # order 23^3 = 12,167: above every exhaustive cap of the law sweeps, and
    # within ORDER_CAP, the one bound of the split; the radius-2 ball on ids
    # 1 and 23 with K inferred as |A^3|/|A|
    spec = "heisenberg(z=Zp^2,p=23;w=Zp^1,p=23;pairing=symplectic)"
    a = generate_set(SetFamilySpec.parse(spec, "ball_in_word_metric(2;1,23)"))
    g = a.group
    assert g.order == 12_167 > hb.EXHAUSTIVE_ORDER_CAP
    wit = heisen_inverse(a, measured_tripling(a))
    converse = verify_inverse_converse(wit, a)
    rows = g.construction_ledger.rows + wit.ledger.rows + converse.rows
    assert sum(r.kind == "hard" for r in rows) > 0
    assert [r.name for r in rows if r.failed] == []
    assert g.iota(a) <= wit.a_tilde


def test_inverse_rejects_two_torsion():
    g = construct_group("heisenberg(z=Zp^1,p=2;w=Zp^1,p=2;pairing=zero)")
    a = MSet.from_ids(g, [0, 1])
    with pytest.raises(ValueError, match=r"order-two element \(id 1\)"):
        heisen_inverse(a, Fraction(4))
    g = construct_group("heisenberg(z=Zp^1,p=3;w=Zp^2,p=2;pairing=zero)")
    with pytest.raises(ValueError, match=r"order-two element \(id 1\)"):
        heisen_inverse(MSet.from_ids(g, [0, 4]), Fraction(4))


def test_inverse_vertical_sets_match_scalar_references():
    # B~ = (B3 - B3) n 2W and B' = {b : 2b in 3B~}, one W id at a time
    g = construct_group("heisenberg(z=Zp^2,p=5;w=Zp^1,p=5;pairing=symplectic)")
    a = MSet.from_ids(g, [0, g.encode(5, 0), g.encode(20, 0), g.encode(0, 1),
                          g.encode(0, 4)])
    wit = heisen_inverse(a, measured_tripling(a))
    wg = g.w_additive
    b3 = [w for w in range(g.w_order) if w in wit.split.b3]
    diff = {wg.mul(x, wg.inv(y)) for x in b3 for y in b3}
    even = {wg.mul(w, w) for w in range(g.w_order)}
    assert set(wit.b_tilde.ids()) == diff & even
    three = set(power_set(wit.b_tilde, 3).ids())
    assert set(wit.b_prime.ids()) == {
        w for w in range(g.w_order) if wg.mul(w, w) in three}


@pytest.mark.parametrize("spec", [
    "heisenberg(z=Zp^2,p=3;w=Zp^1,p=3;pairing=symplectic)",
    "heisenberg(z=Zp^2,p=5;w=Zp^2,p=5;pairing=symplectic)",
    # 169 Z ids: more than one row block of pairs
    "heisenberg(z=Zp^2,p=13;w=Zp^1,p=13;pairing=symplectic)",
])
@settings(max_examples=10, deadline=None)
@given(data=st.data())
def test_dilate_and_pairing_image_match_scalar_references(spec, data):
    g = construct_group(spec)
    ag = g.additive_group()
    ids = data.draw(st.lists(st.integers(0, g.order - 1), min_size=1,
                             max_size=30))
    a = MSet.from_ids(ag, ids)
    assert set(hb._dilate(a).ids()) == {ag.mul(x, x) for x in a.ids()}
    zs = sorted(data.draw(st.sets(st.integers(0, g.z_order - 1), min_size=1,
                                  max_size=g.z_order)))
    image = hb._pairing_image(g, zs)
    assert set(np.flatnonzero(image).tolist()) == {
        g.pair(z1, z2) for z1 in zs for z2 in zs}


def test_pairing_image_over_many_row_blocks():
    g = construct_group("heisenberg(z=Zp^2,p=13;w=Zp^1,p=13;pairing=symplectic)")
    # more pairs than one row block holds
    zs = [z for z in range(g.z_order) if z % 13 != 5]
    assert len(zs) * len(zs) > BLOCK_PAIRS
    image = hb._pairing_image(g, zs)
    assert set(np.flatnonzero(image).tolist()) == {
        g.pair(z1, z2) for z1 in zs for z2 in zs}
    # {1, 13} is met only across the first and the last row block
    image = hb._pairing_image(g, [1] + [0] * 200 + [13])
    assert set(np.flatnonzero(image).tolist()) == {0, g.pair(1, 13), g.pair(13, 1)}


def test_inverse_rejects_non_heisenberg():
    g = construct_group("cyclic(12)")
    with pytest.raises(TypeError):
        heisen_inverse(MSet.from_ids(g, [0, 1]), Fraction(12))


# ---------------------------------------------------------------- sandwich

def verify_subgroup_sandwich(a: MSet) -> ConstantLedger:
    """For a genuine subgroup A of a Heisenberg group, build the additive
    set Atilde = iota(A) + <{C,C}> with C the horizontal shadow of A, and
    verify that Atilde is an additive subgroup absorbing its own pairing
    hull, that iota(A) sits inside it, and that its dilate {2x} falls back
    inside iota(A)."""
    g = a.group
    if not isinstance(g, HeisenbergGroup):
        raise TypeError("the sandwich check expects a Heisenberg group subset")
    failure = setops.subgroup_failure(a)
    if failure:
        raise ValueError(failure)
    ag = g.additive_group()
    shadow = sorted({x // g.w_order for x in a.ids()})
    gen = np.flatnonzero(hb._pairing_image(g, shadow))
    hull_ids = subgroup_closure(g.w_additive, [0, *gen.tolist()])
    hull = MSet.from_ids(ag, hull_ids.id_array())  # vertical ids embed as-is
    iota_a = g.iota(a)
    tilde = product_set(iota_a, hull)

    ledger = ConstantLedger("subgroup-sandwich")
    ledger.claim("pairing-hull-absorbed", product_set(tilde, hull) == tilde,
                 formula="Atilde + <{C,C}> = Atilde")
    closed = product_set(tilde, tilde) == tilde and inverse_set(tilde) == tilde
    ledger.claim("candidate-additive-subgroup", closed,
                 lhs=tilde.size, formula="Atilde is an additive subgroup")
    ledger.claim("upper-inclusion", iota_a <= tilde,
                 lhs=a.size, rhs=tilde.size,
                 formula="iota(A) inside Atilde")
    ledger.claim("lower-inclusion", hb._dilate(tilde) <= iota_a,
                 lhs=tilde.size, rhs=a.size,
                 formula="2.Atilde inside iota(A)")
    ledger.check()
    return ledger


def test_sandwich_on_an_order_nine_subgroup():
    sub = subgroup_closure(H27, [H27.encode(3, 0), H27.encode(0, 1)])
    led = verify_subgroup_sandwich(sub)
    assert led.hard_ok


def test_sandwich_on_the_vertical():
    sub = MSet.from_ids(H27, range(3))
    led = verify_subgroup_sandwich(sub)
    assert led.hard_ok


def test_sandwich_rejects_non_heisenberg():
    g = construct_group("cyclic(9)")
    with pytest.raises(TypeError):
        verify_subgroup_sandwich(MSet.from_ids(g, [0, 3, 6]))


def test_sandwich_rejects_non_subgroup():
    with pytest.raises(ValueError):
        verify_subgroup_sandwich(MSet.from_ids(H27, [0, 4]))


# ------------------------------------------- array checks against scans

def scalar_section(g, q, a, a3, c, c3):
    """The section one element at a time: fibers as lists in id order,
    self-inverse classes first, every other x paired with x^-1."""
    fibers_a, fibers_a3 = defaultdict(list), defaultdict(list)
    for x in a.ids():
        fibers_a[q.pi[x]].append(x)
    for x in a3.ids():
        fibers_a3[q.pi[x]].append(x)
    phi, exceptions = {}, []
    for x in c3.ids():
        if x in phi:
            continue
        fiber = fibers_a[x] if x in c else fibers_a3[x]
        if x == 0:
            phi[0] = 0
            continue
        xi = q.inv(x)
        if xi == x:
            fixed = [t for t in fiber if g.inv(t) == t]
            if not fixed:
                exceptions.append(x)
            phi[x] = fixed[0] if fixed else fiber[0]
        else:
            phi[x] = fiber[0]
            phi[xi] = g.inv(fiber[0])
    return phi, exceptions


SECTION_VIEWS = [
    ("dihedral(6)", [2]), ("dihedral(6)", [3]), ("cyclic(12)", [4]),
    ("cyclic(12)", [6]), ("symmetric(4)", [7, 16]),
    ("heisenberg(z=Zp^2,p=3;w=Zp^1,p=3;pairing=symplectic)", [1]),
]


@pytest.mark.parametrize("spec, gens", SECTION_VIEWS)
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_section_matches_the_scalar_construction(spec, gens, data):
    g = construct_group(spec)
    q = quotient_map(g, gens)
    ids = data.draw(st.sets(st.integers(0, g.order - 1), min_size=1,
                            max_size=8))
    a = symmetrize(MSet.from_ids(g, ids))
    a3 = power_set(a, 3)
    c = hb._projection(q, a)
    c3 = power_set(c, 3)
    phi, exceptions = hb._section(g, q, a, a3, c, c3)
    want_phi, want_exceptions = scalar_section(g, q, a, a3, c, c3)
    assert c.ids() == tuple(sorted({q.pi[x] for x in a.ids()}))
    assert {x: v for x, v in enumerate(phi.tolist()) if v >= 0} == want_phi
    assert exceptions == want_exceptions


def scalar_triple_defects(g, q, phi, triples, *masks):
    """First triple, in sweep order, whose defect each mask misses."""
    found = [None] * len(masks)
    for x, y, z in triples:
        w = q.mul(q.mul(x, y), z)
        lhs = g.mul(g.mul(phi[x], phi[y]), phi[z])
        defect = g.mul(g.inv(phi[w]), lhs)
        for i, mask in enumerate(masks):
            if found[i] is None and not mask[defect]:
                found[i] = (x, y, z)
    return found


def scalar_triples(cids, exhaustive):
    if exhaustive:
        return itertools.product(cids, repeat=3)
    rng = random.Random(DEFAULT_SEED)
    return [(rng.choice(cids), rng.choice(cids), rng.choice(cids))
            for _ in range(hb.TRIPLE_SAMPLE_COUNT)]


@pytest.mark.parametrize("spec, gens", SECTION_VIEWS)
@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_triple_defects_match_the_scalar_sweep_on_any_view(spec, gens, data):
    # a section of a random symmetric set against random masks inside H,
    # also where H is not central and the defect's side matters
    g = construct_group(spec)
    q = quotient_map(g, gens)
    ids = data.draw(st.sets(st.integers(0, g.order - 1), min_size=1,
                            max_size=8))
    a = symmetrize(MSet.from_ids(g, ids))
    c = hb._projection(q, a)
    phi, _ = hb._section(g, q, a, power_set(a, 3), c, power_set(c, 3))
    kernel = np.flatnonzero(q.pi == 0).tolist()
    members = st.sets(st.sampled_from(kernel), min_size=1)
    masks = [setops.member_mask(MSet.from_ids(g, data.draw(members)))
             for _ in range(2)]
    got = hb._first_triple_defects(
        g, q, phi, hb._split_triples(c.id_array(), True), *masks)
    assert got == scalar_triple_defects(
        g, q, phi.tolist(), scalar_triples(c.ids(), True), *masks)


# z ids 81 > TRIPLE_EXHAUSTIVE_CAP: the triple check samples
H243 = construct_group("heisenberg(z=Zp^4,p=3;w=Zp^1,p=3;pairing=symplectic)")


@pytest.mark.parametrize("g, a", [
    (H27, MSet.from_ids(H27, range(0, 27, 3))),
    (H243, MSet.from_ids(H243, range(0, 243, 3))),
])
def test_triple_check_matches_the_scalar_sweep(g, a):
    sw = split_approximate(a, g.vertical, measured_tripling(a))
    q, cids = g.vertical, list(sw.c.ids())
    exhaustive = len(cids) <= hb.TRIPLE_EXHAUSTIVE_CAP
    assert exhaustive == (g is H27)
    rows = {r.name: r for r in sw.ledger.rows}
    note = rows["triple-defect-in-b3"].note
    assert note == (f"exhaustive over |C|^3 = {len(cids) ** 3} triples"
                    if exhaustive else
                    f"{hb.TRIPLE_SAMPLE_COUNT} sampled triples")
    # the true masks, and planted ones that miss most defects: the first
    # missed triple must be the scalar sweep's, in the same draw order
    masks = [setops.member_mask(sw.b3),
             setops.member_mask(MSet.from_ids(g, [0])),
             setops.member_mask(MSet.from_ids(g, [0, 1]))]
    got = hb._first_triple_defects(
        g, q, sw.phi, hb._split_triples(np.array(cids), exhaustive), *masks)
    want = scalar_triple_defects(g, q, sw.phi.tolist(),
                                 scalar_triples(cids, exhaustive), *masks)
    assert got == want
    assert got[0] is None and rows["triple-defect-in-b3"].holds
    assert got[1] is not None and got[2] is not None


def scalar_subgroup_error(a):
    """The subgroup test as a row-major scan over the scalar oracles."""
    g = a.group
    for x in a.ids():
        if g.inv(x) not in a:
            return f"not a subgroup: inverse of member {x} is missing"
        for y in a.ids():
            if g.mul(x, y) not in a:
                return f"not a subgroup: product of members {x} and {y} escapes"
    if 0 not in a:
        return "not a subgroup: identity is missing"
    return None


# direct_product(cyclic(4),cyclic(100)) numbers (i, j) as 100i + j, so the
# subgroup {0} x C100 is ids 0..99 and each coset is a run of 100 ids
C4C100 = construct_group("direct_product(cyclic(4),cyclic(100))")


@pytest.mark.parametrize("ids, message", [
    # a subgroup and one coset: the first failing row is id 100, in the
    # third block of rows
    (range(0, 200), "inverse of member 100 is missing"),
    # two cosets, inverse-closed, whose product escapes at row 100
    ([*range(0, 200), *range(300, 400)], "product of members 100 and 100"),
    # the subgroup {0} x 2C100 without its identity
    (range(2, 100, 2), "product of members 2 and 98 escapes"),
    (range(0, 400), None),
])
def test_require_subgroup_names_the_scan_failure(ids, message):
    a = MSet.from_ids(C4C100, ids)
    got = setops.subgroup_failure(a)
    assert got == scalar_subgroup_error(a)
    assert (got is None) if message is None else (message in got)


def test_subgroup_failure_forms_no_product_on_the_whole_group(monkeypatch):
    def refuse(*args):
        raise AssertionError("a product was formed")

    monkeypatch.setattr(C4C100, "mul_pairs", refuse)
    monkeypatch.setattr(C4C100, "inv_array", refuse)
    assert setops.subgroup_failure(MSet.from_ids(C4C100, range(400))) is None


@pytest.mark.parametrize("spec", ["heisenberg(z=Zp^2,p=3;w=Zp^1,p=3;pairing=symplectic)",
                                  "dihedral(6)", "symmetric(7)"])
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_require_subgroup_matches_the_scan_on_random_sets(spec, data):
    g = construct_group(spec)
    if data.draw(st.booleans()):
        gens = data.draw(st.lists(st.integers(0, g.order - 1), min_size=1,
                                  max_size=2))
        ids = set(subgroup_closure(g, gens))
        if len(ids) > 200:
            ids = set(gens) | {0}
        ids ^= data.draw(st.sets(st.integers(0, g.order - 1), max_size=2))
    else:
        ids = data.draw(st.sets(st.integers(0, g.order - 1), max_size=12))
    if ids:
        a = MSet.from_ids(g, ids)
        assert setops.subgroup_failure(a) == scalar_subgroup_error(a)
