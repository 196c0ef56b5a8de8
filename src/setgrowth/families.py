"""Deterministic set-family generators.

A SetFamilySpec names one construction inside one group; generate_set
realizes it as an MSet.  Every family is a pure function of (group,
arguments), and the one randomized family carries its seed in the spec, so
identical specs always produce identical sets (see docs/formats.md for the
text grammar).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .exact import frac
from .groups import (FiniteGroup, _cayley_levels, _first_non_normalizer,
                     _int_arg, _named_fields, _required, _split_call,
                     _split_fields, construct_group)
from .setops import (MSet, inverse_set, power_set, product_set, random_ids,
                     subgroup_closure, symmetrize, translate_left)

# Each family's fields: positional, except random_dense's key=value ones.
FAMILY_FIELDS = {
    "subgroup": ("gens",),
    "coset": ("gens", "point"),
    "geometric_progression": ("base", "length"),
    "subgroup_plus_point": ("gens", "point"),
    "union_of_cosets": ("gens", "count"),
    "random_dense": ("density", "seed"),
    "ball_in_word_metric": ("radius", "gens"),
}
FAMILY_NAMES = tuple(FAMILY_FIELDS)


@dataclass(frozen=True)
class SetFamilySpec:
    """One named set construction: family name, group spec text, and the
    family's raw argument fields."""

    group: str
    family: str
    args: tuple[str, ...]

    def __post_init__(self):
        if self.family not in FAMILY_NAMES:
            raise ValueError(
                f"unknown family {self.family!r}; expected one of {FAMILY_NAMES}")

    @classmethod
    def parse(cls, group: str, text: str) -> "SetFamilySpec":
        head, body = _split_call(text.strip())
        args = tuple(_split_fields(body, head, ";"))
        return cls(group=group.strip(), family=head, args=args)


def _ints_arg(field: str, what: str) -> list[int]:
    parts = _split_fields(field, what, ",")
    try:
        return [int(part) for part in parts]
    except ValueError:
        raise ValueError(f"{what} expects comma-separated ids, got {field!r}")


def _id(g: FiniteGroup, x: int, what: str) -> int:
    """x, once checked to be an id of g: family fields come from outside
    the program, and a numpy index would wrap a negative id silently."""
    if not 0 <= x < g.order:
        raise ValueError(
            f"{what}: id {x} is outside {g.name} (ids 0..{g.order - 1})")
    return x


def _ids_arg(g: FiniteGroup, field: str, what: str) -> list[int]:
    return [_id(g, x, what) for x in _ints_arg(field, what)]


def generate_set(spec: SetFamilySpec, seed: int | None = None) -> MSet:
    """Realize a family spec inside its group, construct_group's one
    instance for the spec; `seed` overrides the seed field of random_dense.
    """
    g = construct_group(spec.group)
    family, args = spec.family, spec.args
    most = len(FAMILY_FIELDS[family])
    if family != "random_dense" and len(args) > most:
        raise ValueError(f"surplus {family} field {args[most]!r}")

    if family == "subgroup":
        gens = _ids_arg(g, args[0], family) if args else [0]
        return subgroup_closure(g, gens)

    if family == "coset":
        if len(args) != 2:
            raise ValueError("coset expects gens;point")
        base = subgroup_closure(g, _ids_arg(g, args[0], family))
        return translate_left(_id(g, _int_arg(args[1], family, "point"), family), base)

    if family == "geometric_progression":
        if len(args) == 1:
            fields = _ints_arg(args[0], family)
        else:
            fields = [_int_arg(_required(args, i, family, name), family, name)
                      for i, name in enumerate(("base", "length"))]
        if len(fields) != 2:
            raise ValueError("geometric_progression expects base,length")
        base, length = _id(g, fields[0], family), fields[1]
        if length < 1:
            raise ValueError("progression length must be positive")
        # the orbit of 0 returns to 0 after the order of base, at most |G|
        ids, cur = [], 0
        for _ in range(length):
            ids.append(cur)
            cur = g.mul(cur, base)
            if cur == 0:
                break
        return MSet.from_ids(g, ids)

    if family == "subgroup_plus_point":
        gens = _ids_arg(g, _required(args, 0, family, "gens"), family)
        sub = subgroup_closure(g, gens)
        if len(args) > 1:
            x = _id(g, _int_arg(args[1], family, "point"), family)
            if _first_non_normalizer(g, [x], sub.id_array()) is None:
                raise ValueError(
                    f"point {x} normalizes the subgroup; the family needs an "
                    "outside point with H^x != H")
        else:
            # members of H normalize it, so the first hit lies outside H
            x = _first_non_normalizer(g, g.elements(), sub.id_array())
            if x is None:
                raise ValueError(
                    "every element normalizes the subgroup "
                    f"{list(sub.ids())} in {g.name}; no valid point exists")
        return sub.union(MSet.from_ids(g, [x]))

    if family == "union_of_cosets":
        if len(args) != 2:
            raise ValueError("union_of_cosets expects gens;count")
        base = subgroup_closure(g, _ids_arg(g, args[0], family))
        count = _int_arg(args[1], family, "count")
        if count < 1:
            raise ValueError("coset count must be positive")
        a, wanted = base, count - 1     # base is the coset of id 0
        for x in g.elements():
            if not wanted:
                break
            if x not in a:
                a, wanted = a.union(translate_left(x, base)), wanted - 1
        return a

    if family == "random_dense":
        fields = _named_fields(args, family, FAMILY_FIELDS[family])
        density = frac(_required(fields, "density", family, "density"), family, "density")
        if not 0 < density <= 1:
            raise ValueError(f"density must lie in (0,1], got {density}")
        if seed is None:
            seed = _int_arg(_required(fields, "seed", family, "seed"), family, "seed")
        ids = random_ids(g, random.Random(seed), density)
        return MSet.from_ids(g, ids if len(ids) else [0])

    if family == "ball_in_word_metric":
        radius = _int_arg(_required(args, 0, family, "radius"), family, "radius")
        if radius < 0:
            raise ValueError("radius must be nonnegative")
        gens = _ids_arg(g, args[1], family) if len(args) > 1 else [1]
        if any(not 0 < x < g.order for x in gens):
            raise ValueError("generators must be non-identity ids")
        # (S u S^-1 u {1})^radius is its breadth-first levels 0..radius, not
        # a power chain, which would keep one mask of the group per level
        step = symmetrize(MSet.from_ids(g, gens)).id_array()
        levels = zip(range(radius + 1), _cayley_levels(g, step))
        return MSet.from_ids(g, np.concatenate([level for _, level in levels]))

    raise AssertionError(f"unhandled family {family}")


def measured_tripling(a: MSet) -> Fraction:
    """The exact tripling constant |A^3|/|A|, the canonical inferred K."""
    return Fraction(power_set(a, 3).size, a.size)


def measured_difference_ratio(a: MSet) -> Fraction:
    """|A A^-1|/|A|, the inferred K for difference-set hypotheses."""
    return Fraction(product_set(a, inverse_set(a)).size, a.size)
