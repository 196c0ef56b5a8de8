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

from .exact import frac
from .groups import (FiniteGroup, _first_non_normalizer, _split_call, _split_top_level,
                     construct_group, subgroup_closure)
from .setops import MSet, inverse_set, power_set, product_set, symmetrize, translate_left

FAMILY_NAMES = (
    "subgroup",
    "coset",
    "geometric_progression",
    "subgroup_plus_point",
    "union_of_cosets",
    "random_dense",
    "ball_in_word_metric",
)


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

    def text(self) -> str:
        return f"{self.family}({';'.join(self.args)})"

    @classmethod
    def parse(cls, group: str, text: str) -> "SetFamilySpec":
        head, body = _split_call(text.strip())
        args = tuple(_split_top_level(body, ";"))
        return cls(group=group.strip(), family=head, args=args)


def _ids_arg(field: str, what: str) -> list[int]:
    try:
        return [int(part) for part in _split_top_level(field, ",")]
    except ValueError:
        raise ValueError(f"{what} expects comma-separated ids, got {field!r}")


def _named_fields(args, what: str) -> dict[str, str]:
    out = {}
    for field in args:
        key, eq, value = field.partition("=")
        if not eq:
            raise ValueError(f"{what} expects key=value fields, got {field!r}")
        out[key.strip()] = value.strip()
    return out


def _closure_set(g: FiniteGroup, gens: list[int]) -> MSet:
    return MSet.from_ids(g, sorted(subgroup_closure(g, gens or [0])))


def generate_set(spec: SetFamilySpec, group: FiniteGroup | None = None,
                 seed: int | None = None) -> MSet:
    """Realize a family spec inside its group.

    `group` short-circuits the group construction when the caller already
    holds the instance; `seed` overrides the seed field of random_dense.
    """
    g = group if group is not None else construct_group(spec.group)
    family, args = spec.family, spec.args

    if family == "subgroup":
        gens = _ids_arg(args[0], family) if args else [0]
        return _closure_set(g, gens)

    if family == "coset":
        if len(args) != 2:
            raise ValueError("coset expects gens;point")
        base = _closure_set(g, _ids_arg(args[0], family))
        return MSet(g, translate_left(int(args[1]), base))

    if family == "geometric_progression":
        if len(args) == 1:
            fields = _ids_arg(args[0], family)
        else:
            fields = [int(args[0]), int(args[1])]
        if len(fields) != 2:
            raise ValueError("geometric_progression expects base,length")
        base, length = fields
        if length < 1:
            raise ValueError("progression length must be positive")
        ids, cur = set(), 0
        for _ in range(length):
            ids.add(cur)
            cur = g.mul(cur, base)
        return MSet.from_ids(g, sorted(ids))

    if family == "subgroup_plus_point":
        gens = _ids_arg(args[0], family)
        sub = subgroup_closure(g, gens)
        if len(args) > 1:
            x = int(args[1])
            if _first_non_normalizer(g, [x], sub) is None:
                raise ValueError(
                    f"point {x} normalizes the subgroup; the family needs an "
                    "outside point with H^x != H")
        else:
            # members of H normalize it, so the first hit lies outside H
            x = _first_non_normalizer(g, g.elements(), sub)
            if x is None:
                raise ValueError(
                    "every element normalizes the subgroup "
                    f"{sorted(sub)} in {g.name}; no valid point exists")
        return MSet.from_ids(g, sorted(sub | {x}))

    if family == "union_of_cosets":
        if len(args) != 2:
            raise ValueError("union_of_cosets expects gens;count")
        base = _closure_set(g, _ids_arg(args[0], family))
        count = int(args[1])
        if count < 1:
            raise ValueError("coset count must be positive")
        bits = 0
        for _ in range(count):
            x = (~bits & (bits + 1)).bit_length() - 1   # first id not covered
            if x >= g.order:
                break
            bits |= translate_left(x, base)
        return MSet(g, bits)

    if family == "random_dense":
        fields = _named_fields(args, family)
        density = frac(fields["density"])
        if not 0 < density <= 1:
            raise ValueError(f"density must lie in (0,1], got {density}")
        if seed is None:
            if "seed" not in fields:
                raise ValueError("random_dense requires a seed field")
            seed = int(fields["seed"])
        rng = random.Random(seed)
        threshold = float(density)
        bits = 0
        for x in g.elements():
            if rng.random() < threshold:
                bits |= 1 << x
        if not bits:
            bits = 1
        return MSet(g, bits)

    if family == "ball_in_word_metric":
        radius = int(args[0])
        if radius < 0:
            raise ValueError("radius must be nonnegative")
        gens = _ids_arg(args[1], family) if len(args) > 1 else [1]
        if any(not 0 < x < g.order for x in gens):
            raise ValueError("generators must be non-identity ids")
        step = symmetrize(MSet.from_ids(g, sorted(set(gens))))
        if radius == 0:
            return MSet.from_ids(g, [0])
        return power_set(step, radius)

    raise AssertionError(f"unhandled family {family}")


def measured_tripling(a: MSet) -> Fraction:
    """The exact tripling constant |A^3|/|A|, the canonical inferred K."""
    return Fraction(power_set(a, 3).size, a.size)


def measured_difference_ratio(a: MSet) -> Fraction:
    """|A A^-1|/|A|, the inferred K for difference-set hypotheses."""
    return Fraction(product_set(a, inverse_set(a)).size, a.size)
