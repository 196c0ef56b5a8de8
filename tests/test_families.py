"""Set-family grammar and generators."""

import re
import signal
from fractions import Fraction

import pytest

from setgrowth.cli import main
from setgrowth.families import (
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
def test_a_huge_field_costs_at_most_the_group_order(text):
    # the ball's power chain and the progression's orbit both stop within
    # 12 steps; walking 10^12 of them would outlast the alarm
    def expire(signum, frame):
        raise TimeoutError(text)

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(5)
    try:
        a = gen(G12, text)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    assert a.ids() == tuple(range(12))


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
