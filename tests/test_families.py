"""Set-family grammar and generators."""

import random
import re
from fractions import Fraction

import pytest

from setgrowth.cli import main
from setgrowth.families import (
    FAMILY_FIELDS,
    SetFamilySpec,
    generate_set,
    measured_difference_ratio,
    measured_tripling,
)
from setgrowth.groups import construct_group, subgroup_closure
from setgrowth.setops import MSet, inverse_set, power_set, product_set

G12 = construct_group("cyclic(12)")
S4 = construct_group("symmetric(4)")
D9 = construct_group("dihedral(9)")
S7 = construct_group("symmetric(7)")
SPECS = {id(G12): "cyclic(12)", id(S4): "symmetric(4)", id(D9): "dihedral(9)",
         id(S7): "symmetric(7)"}
# the stabilizer of 0 in symmetric(7): ids 0..719, its own normalizer, so
# the first point outside it that moves it is id 720, many row blocks into
# the conjugation sweep
S7_STABILIZER = "%d,%d" % (S7.index[(0, 2, 1, 3, 4, 5, 6)],
                           S7.index[(0, 2, 3, 4, 5, 6, 1)])


def gen(group, text, seed=None):
    spec = SetFamilySpec.parse(SPECS[id(group)], text)
    return generate_set(spec, seed=seed)


def test_subgroup_family():
    a = gen(G12, "subgroup(4)")
    assert a.ids() == (0, 4, 8)


def test_coset_family():
    a = gen(G12, "coset(4;1)")
    assert a.ids() == (1, 5, 9)


def test_geometric_progression_comma_and_semicolon():
    assert gen(G12, "geometric_progression(3,4)").ids() == (0, 3, 6, 9)
    assert gen(G12, "geometric_progression(3;4)").ids() == (0, 3, 6, 9)


def test_progression_of_length_one_is_identity():
    assert gen(G12, "geometric_progression(5,1)").ids() == (0,)


@pytest.mark.parametrize("text", [
    "ball_in_word_metric(1000000000000;1)",
    "geometric_progression(1,1000000000000)",
])
def test_a_huge_field_costs_at_most_the_group_order(text, refusal):
    # the ball's breadth-first levels and the progression's orbit both
    # stop within 12 steps; walking 10^12 of them would outlast the alarm
    assert refusal(5, gen, G12, text) is None
    assert gen(G12, text).ids() == tuple(range(12))


HUGE = 10**30


def _field(rng: random.Random, order: int) -> int:
    """An integer field of a family text: an id of the group, small, a
    power of ten up to 10^30, or any int of up to 31 digits."""
    kind = rng.randrange(4)
    if kind == 0:
        return rng.randrange(order)
    if kind == 1:
        return rng.randint(-2, 40)
    if kind == 2:
        return 10 ** rng.randint(2, 30)
    return rng.randint(-HUGE, HUGE)


def _random_family(rng: random.Random, order: int) -> str:
    """A text of every family of docs/formats.md, its fields drawn by
    _field: ids, counts, lengths, radii, densities and seeds alike."""
    def ids() -> str:
        return ",".join(str(_field(rng, order)) for _ in range(rng.randint(1, 3)))

    family = rng.choice(sorted(FAMILY_FIELDS))
    if family == "random_dense":
        density = rng.choice([f"{_field(rng, order)}/{_field(rng, order)}",
                              f"1/{_field(rng, order)}", str(_field(rng, order))])
        return f"random_dense(density={density};seed={_field(rng, order)})"
    fields = {
        "subgroup": [ids()],
        "coset": [ids(), str(_field(rng, order))],
        "geometric_progression": [f"{_field(rng, order)},{_field(rng, order)}"],
        "subgroup_plus_point": [ids()] + [str(_field(rng, order))] * rng.randint(0, 1),
        "union_of_cosets": [ids(), str(_field(rng, order))],
        "ball_in_word_metric": [str(_field(rng, order))] + [ids()] * rng.randint(0, 1),
    }[family]
    return f"{family}({';'.join(fields)})"


@pytest.mark.parametrize("group", [G12, S4], ids=["cyclic(12)", "symmetric(4)"])
def test_every_family_builds_or_is_refused_in_bounded_time(group, refusal):
    # each integer field reaches 10^30; a family whose work followed a
    # count, length or radius instead of the group order would outlast
    # the alarm, and any error but a one-line ValueError fails here
    rng = random.Random(f"1729:{SPECS[id(group)]}")
    texts = [_random_family(rng, group.order) for _ in range(400)]
    outcomes = {text: refusal(5, gen, group, text) for text in texts}
    refused = [m for m in outcomes.values() if m is not None]
    assert 0 < len(refused) < len(texts)
    assert all("\n" not in m for m in refused)
    built = {text.partition("(")[0] for text, m in outcomes.items() if m is None}
    # no point of an abelian group moves a subgroup
    abelian = {"subgroup_plus_point"} if group is G12 else set()
    assert built == set(FAMILY_FIELDS) - abelian


def test_union_of_cosets_partitions():
    a = gen(G12, "union_of_cosets(4;2)")
    assert a.size == 6
    assert 0 in a


def test_ball_in_word_metric():
    a = gen(G12, "ball_in_word_metric(2;1)")
    assert a.ids() == (0, 1, 2, 10, 11)
    assert gen(G12, "ball_in_word_metric(0;1)").ids() == (0,)


def test_random_dense_is_deterministic():
    a = gen(G12, "random_dense(density=1/2;seed=9)")
    b = gen(G12, "random_dense(density=1/2;seed=9)")
    assert a == b
    c = gen(G12, "random_dense(density=1/2;seed=10)")
    assert a.size >= 1 and c.size >= 1


def test_random_dense_seed_override():
    spec = SetFamilySpec.parse("cyclic(12)", "random_dense(density=1/2;seed=9)")
    assert generate_set(spec, seed=9) == gen(G12, "random_dense(density=1/2;seed=9)")


def test_random_dense_requires_seed():
    with pytest.raises(ValueError):
        gen(G12, "random_dense(density=1/2)")


def test_random_dense_density_range():
    with pytest.raises(ValueError):
        gen(G12, "random_dense(density=3/2;seed=1)")
    with pytest.raises(ValueError, match="zero denominator in '1/0'"):
        gen(G12, "random_dense(density=1/0;seed=1)")
    with pytest.raises(ValueError,
                       match="^random_dense expects a rational density, got 'x'$"):
        gen(G12, "random_dense(density=x;seed=1)")


def test_subgroup_plus_point_grows_cubes():
    # the two-element subgroup generated by a transposition, plus a point
    # that conjugates it elsewhere
    invol = next(x for x in range(1, S4.order) if S4.mul(x, x) == 0)
    a = gen(S4, f"subgroup_plus_point({invol})")
    assert a.size == 3
    assert power_set(a, 3).size > power_set(a, 2).size


def test_subgroup_plus_point_impossible_in_abelian_groups():
    with pytest.raises(ValueError):
        gen(G12, "subgroup_plus_point(4)")


def scalar_cosets(g, gens, count):
    """The first count left cosets xH in id order, one product at a time."""
    h = sorted(subgroup_closure(g, gens))
    ids, taken = set(), 0
    for x in g.elements():
        if taken == count:
            break
        if x not in ids:
            ids.update(g.mul(x, m) for m in h)
            taken += 1
    return ids


def scalar_cosets_of(g, gens, x):
    """The coset xH, one product at a time."""
    return {g.mul(x, m) for m in subgroup_closure(g, gens)}


def scalar_first_non_normalizer(g, gens):
    h = subgroup_closure(g, gens)
    return next((x for x in g.elements() if x not in h
                 and any(g.mul(g.mul(x, m), g.inv(x)) not in h for m in h)),
                None)


@pytest.mark.parametrize("group, gens", [
    (G12, "4"), (S4, "1"), (S4, "2,6"), (S4, "7,16"),
    (D9, "9"), (D9, "3"), (D9, "0"), (S7, S7_STABILIZER)])
def test_coset_families_match_scalar_references(group, gens):
    ids = [int(x) for x in gens.split(",")]
    for x in (0, 1, group.order - 1):
        expect = scalar_cosets_of(group, ids, x)
        assert set(gen(group, f"coset({gens};{x})").ids()) == expect
    for count in (1, 2, 3, group.order):
        assert set(gen(group, f"union_of_cosets({gens};{count})").ids()) == \
            scalar_cosets(group, ids, count)
    x = scalar_first_non_normalizer(group, ids)
    if x is None:
        with pytest.raises(ValueError, match="normalizes"):
            gen(group, f"subgroup_plus_point({gens})")
    else:
        expect = sorted(subgroup_closure(group, ids) | {x})
        assert gen(group, f"subgroup_plus_point({gens})").ids() == tuple(expect)


@pytest.mark.parametrize("text, field", [
    ("random_dense(seed=3)", "density"),
    ("random_dense(density=1/2)", "seed"),
    ("ball_in_word_metric()", "radius"),
    ("subgroup_plus_point()", "gens"),
    ("geometric_progression()", "base"),
])
def test_missing_fields_are_named(text, field, capsys):
    with pytest.raises(ValueError, match=f"missing its {field} field"):
        gen(S4, text)
    assert main(["set", "gen", "symmetric(4)", text]) == 1
    assert main(["bsg", "run", "--group", "symmetric(4)", "--set", text]) == 1
    err = capsys.readouterr().err
    assert err.splitlines() == [f"{text.split('(')[0]} is missing its "
                                f"{field} field"] * 2


@pytest.mark.parametrize("text, bad", [
    ("coset(2;999)", 999),
    ("coset(2;-1)", -1),            # a numpy index would wrap it to id 5
    ("subgroup(99)", 99),
    ("union_of_cosets(99;2)", 99),
    ("subgroup_plus_point(2;99)", 99),
    ("geometric_progression(99,3)", 99),
    ("geometric_progression(-1;3)", -1),
    ("ball_in_word_metric(1;2,-3)", -3),
])
def test_ids_outside_the_group_are_rejected(text, bad, capsys):
    message = (f"{text.split('(')[0]}: id {bad} is outside symmetric(3) "
               "(ids 0..5)")
    with pytest.raises(ValueError, match=re.escape(message)):
        generate_set(SetFamilySpec.parse("symmetric(3)", text))
    assert main(["set", "gen", "symmetric(3)", text]) == 1
    assert capsys.readouterr().err.splitlines() == [message]


@pytest.mark.parametrize("text, message", [
    ("random_dense(density=1/2;seed=3;seed=4)", "duplicate random_dense field 'seed'"),
    ("random_dense(density=1/2;seed=3;color=red)", "unknown random_dense field 'color'"),
    ("subgroup(2;7)", "surplus subgroup field '7'"),
    ("ball_in_word_metric(1;1;5)", "surplus ball_in_word_metric field '5'"),
    ("coset(2;1;3)", "surplus coset field '3'"),
    ("geometric_progression(1;2;3)", "surplus geometric_progression field '3'"),
    ("subgroup_plus_point(1;3;4)", "surplus subgroup_plus_point field '4'"),
    ("union_of_cosets(1;2;3)", "surplus union_of_cosets field '3'"),
])
def test_duplicate_unknown_and_surplus_fields_are_named(text, message, capsys):
    with pytest.raises(ValueError, match=re.escape(message)):
        generate_set(SetFamilySpec.parse("symmetric(4)", text))
    assert main(["set", "gen", "symmetric(4)", text]) == 1
    assert capsys.readouterr().err.splitlines() == [message]


@pytest.mark.parametrize("text, message", [
    ("coset(1;x)", "coset expects an integer point, got 'x'"),
    ("subgroup_plus_point(1;1.5)", "subgroup_plus_point expects an integer point, got '1.5'"),
    ("union_of_cosets(1;two)", "union_of_cosets expects an integer count, got 'two'"),
    ("geometric_progression(b;3)", "geometric_progression expects an integer base, got 'b'"),
    ("geometric_progression(1;1e3)",
     "geometric_progression expects an integer length, got '1e3'"),
    ("ball_in_word_metric(r)", "ball_in_word_metric expects an integer radius, got 'r'"),
    ("random_dense(density=1/2;seed=0x1)", "random_dense expects an integer seed, got '0x1'"),
])
def test_an_integer_field_that_does_not_parse_is_named(text, message, capsys):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        generate_set(SetFamilySpec.parse("symmetric(4)", text))
    assert main(["set", "gen", "symmetric(4)", text]) == 1
    assert capsys.readouterr().err.splitlines() == [message]


# an empty field is refused where it stands: skipping it would read 5 as
# the generators of subgroup_plus_point(;5) and 2 as the radius of
# ball_in_word_metric(;2)
@pytest.mark.parametrize("text, message", [
    ("subgroup_plus_point(;5)", "subgroup_plus_point field 1 is empty"),
    ("ball_in_word_metric(;2)", "ball_in_word_metric field 1 is empty"),
    ("subgroup(;2)", "subgroup field 1 is empty"),
    ("subgroup(2;)", "subgroup field 2 is empty"),
    ("coset(2;;1)", "coset field 2 is empty"),
    ("random_dense(density=1/2; ;seed=3)", "random_dense field 2 is empty"),
])
def test_empty_fields_are_refused_by_position(text, message, capsys):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        SetFamilySpec.parse("symmetric(3)", text)
    assert main(["set", "gen", "symmetric(3)", text]) == 1
    assert capsys.readouterr().err.splitlines() == [message]


# an empty comma entry is refused where it stands as well: skipping it
# would read subgroup(1,,2) as subgroup(1,2) and direct_product(C2,,C3) as
# direct_product(C2,C3)
@pytest.mark.parametrize("group, text, message", [
    ("direct_product(cyclic(2),,cyclic(3))", "subgroup(1,,2)",
     "direct_product entry 2 is empty"),
    ("direct_product(cyclic(2),cyclic(3),)", "subgroup(1)",
     "direct_product entry 3 is empty"),
    ("symmetric(3)", "subgroup(1,,2)", "subgroup entry 2 is empty"),
    ("symmetric(3)", "subgroup(1,)", "subgroup entry 2 is empty"),
    ("symmetric(3)", "coset(,1;2)", "coset entry 1 is empty"),
    ("cyclic(12)", "geometric_progression(2,)",
     "geometric_progression entry 2 is empty"),
])
def test_empty_comma_entries_are_refused_by_position(group, text, message,
                                                     capsys):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        generate_set(SetFamilySpec.parse(group, text))
    assert main(["set", "gen", group, text]) == 1
    assert capsys.readouterr().err.splitlines() == [message]


def test_symmetric_rejects_a_negative_degree(capsys):
    assert main(["group", "info", "symmetric(-2)"]) == 1
    assert capsys.readouterr().err.splitlines() == [
        "symmetric(n) needs n >= 0, got -2"]


def test_parse_rejects_unknown_family():
    with pytest.raises(ValueError):
        SetFamilySpec.parse("cyclic(12)", "mystery(3)")


def test_measured_ratios():
    a = MSet.from_ids(G12, [0, 1])
    assert measured_tripling(a) == Fraction(power_set(a, 3).size, 2)
    assert measured_difference_ratio(a) == Fraction(
        product_set(a, inverse_set(a)).size, 2)


def test_generated_sets_are_nonempty_and_inside():
    for text in ("subgroup(2)", "coset(2;1)", "geometric_progression(5,3)",
                 "union_of_cosets(3;2)", "ball_in_word_metric(1;1)",
                 "random_dense(density=1/3;seed=4)"):
        a = gen(G12, text)
        assert 1 <= a.size <= G12.order
