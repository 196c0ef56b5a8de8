"""Set arithmetic over a finite group: products, convolutions, energy,
Ruzsa distance.

This module alone knows the set format: an MSet owns one read-only boolean
mask over the group's ids.  The constructor marks the array it is given
read-only, from_mask copies, member_mask returns the stored array, and the
hash reads the mask bytes.  Other modules read sets through ids, id_array,
member_mask, size and membership and build them with the named
constructors (tests/test_set_format.py checks this).  Products, translates,
inverses and convolutions have one path: the group's vectorized law
``mul_outer`` (a table gather at or below TABLE_CAP, coordinate arithmetic
above it) over the row blocks of ``groups._product_blocks``, scattered into
a mask or a ``bincount``.  No call holds more than one block of products,
so memory stays linear in the group order whatever the set sizes.
``product_set`` forms nothing when an operand is the whole group G, since
G·B = A·G = G for nonempty sets; once a power chain reaches G, every
further power is free.  All derived values are exact integers or Fractions.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .groups import (FiniteGroup, _first, _grid, _ids_mask, _product_blocks,
                     _row_blocks)


class MSet:
    """Nonempty subset of a FiniteGroup: a read-only boolean mask over ids
    that the set owns.  Only this module calls the constructor."""

    __slots__ = ("group", "_mask", "size", "_idtuple", "_idarray")

    def __init__(self, group: FiniteGroup, mask: np.ndarray):
        if mask.shape != (group.order,):
            raise ValueError("mask does not cover exactly the group's ids")
        self.size = int(np.count_nonzero(mask))
        if not self.size:
            raise ValueError("multiplicative sets are nonempty")
        mask.flags.writeable = False
        self.group = group
        self._mask = mask
        self._idtuple: tuple[int, ...] | None = None
        self._idarray: np.ndarray | None = None

    @classmethod
    def from_ids(cls, group: FiniteGroup, ids) -> "MSet":
        """The set of the ids of any iterable or id array, repeats allowed."""
        return cls(group, _ids_mask(group, _checked_ids(group, ids)))

    @classmethod
    def from_mask(cls, group: FiniteGroup, mask: np.ndarray) -> "MSet":
        """The set where a copy of a boolean mask over the ids is True."""
        return cls(group, np.array(mask, dtype=bool))

    @classmethod
    def identity_only(cls, group: FiniteGroup) -> "MSet":
        return cls(group, _ids_mask(group, [0]))

    def ids(self) -> tuple[int, ...]:
        if self._idtuple is None:
            self._idtuple = tuple(self.id_array().tolist())
        return self._idtuple

    def id_array(self) -> np.ndarray:
        """The ids in increasing order as an intp array."""
        if self._idarray is None:
            self._idarray = np.flatnonzero(self._mask)
        return self._idarray

    def __contains__(self, x: int) -> bool:
        return 0 <= x < self.group.order and bool(self._mask[x])

    def __len__(self) -> int:
        return self.size

    def __iter__(self):
        return iter(self.ids())

    def __eq__(self, other):
        return (
            isinstance(other, MSet)
            and self.group is other.group
            and self._mask.tobytes() == other._mask.tobytes()
        )

    def __hash__(self):
        return hash((id(self.group), self._mask.tobytes()))

    def __le__(self, other: "MSet") -> bool:
        _require_same_group(self, other)
        return np.count_nonzero(self._mask & other._mask) == self.size

    def union(self, other: "MSet") -> "MSet":
        _require_same_group(self, other)
        return MSet(self.group, self._mask | other._mask)

    def __and__(self, other: "MSet") -> "MSet":
        """A n B; an empty one raises, as every empty MSet does."""
        _require_same_group(self, other)
        return MSet(self.group, self._mask & other._mask)

    def is_symmetric(self) -> bool:
        return self == inverse_set(self)

    def contains_identity(self) -> bool:
        return 0 in self

    def __repr__(self):
        ids = self.ids()
        shown = ",".join(map(str, ids[:8]))
        if len(ids) > 8:
            shown += ",..."
        return f"MSet[{self.size}]{{{shown}}} in {self.group.name}"


def intersection_size(a: MSet, b: MSet) -> int:
    """|A n B|, zero when A and B are disjoint."""
    _require_same_group(a, b)
    return int(np.count_nonzero(a._mask & b._mask))


def random_ids(g: FiniteGroup, rng, density) -> np.ndarray:
    """The ascending ids of g whose rng.random() draw, one per id in id
    order, falls below the density; empty when none does."""
    draws = np.array([rng.random() for _ in g.elements()])
    return np.flatnonzero(draws < float(density))


def member_mask(a: MSet) -> np.ndarray:
    """The read-only boolean mask over the group's ids that A stores."""
    return a._mask


def _checked_ids(g: FiniteGroup, ids) -> np.ndarray:
    """ids as an intp array; the first id outside 0..order-1 raises."""
    if not isinstance(ids, np.ndarray):
        ids = list(ids)
    try:
        ids = np.asarray(ids, dtype=np.intp)
    except OverflowError:       # an id beyond the intp range
        x = next(x for x in ids if not 0 <= x < g.order)
        raise ValueError(f"id {x} outside group of order {g.order}") from None
    outside = ids.view(np.uintp) >= g.order   # negative ids wrap high
    if outside.any():
        raise ValueError(
            f"id {ids[np.argmax(outside)]} outside group of order {g.order}")
    return ids


def _require_same_group(a: MSet, b: MSet):
    if a.group is not b.group:
        raise ValueError(
            f"sets live in different groups: {a.group.name} vs {b.group.name}"
        )


def symmetrize(a: MSet) -> MSet:
    """A u {1} u A^-1, the canonical symmetric-with-identity hull."""
    return a.union(inverse_set(a)).union(MSet.identity_only(a.group))


# ---------------------------------------------------------------------------
# Products

def _product_mask(g: FiniteGroup, xs, ys) -> np.ndarray:
    """Boolean mask over ids of {x*y : x in xs, y in ys}, for id arrays."""
    mask = np.zeros(g.order, dtype=bool)
    for _, block in _product_blocks(g, xs, ys):
        mask[block] = True
    return mask


def translate_left(x: int, a: MSet) -> MSet:
    """x*A."""
    g = a.group
    return MSet(g, _product_mask(g, _checked_ids(g, [x]), a.id_array()))


def translate_right(a: MSet, x: int) -> MSet:
    """A*x."""
    g = a.group
    return MSet(g, _product_mask(g, a.id_array(), _checked_ids(g, [x])))


def product_set(a: MSet, b: MSet) -> MSet:
    """A*B = {x*y : x in A, y in B}.  When either operand is the whole
    group G the product is G with no product formed: G·B = A·G = G for
    nonempty A and B."""
    _require_same_group(a, b)
    g = a.group
    if a.size == g.order or b.size == g.order:
        return MSet(g, np.ones(g.order, dtype=bool))
    return MSet(g, _product_mask(g, a.id_array(), b.id_array()))


def inverse_set(a: MSet) -> MSet:
    g = a.group
    return MSet(g, _ids_mask(g, g.inv_array(a.id_array())))


def subgroup_failure(a: MSet) -> str | None:
    """Why A is not a subgroup, from the first failure of the row-major
    scan: for each member x in id order, its inverse, then the products
    x*y for y in id order; the identity last.  None for a subgroup, and
    for the whole group with no product formed."""
    if a.size == a.group.order:
        return None
    g, ids, mask = a.group, a.id_array(), a._mask
    found = _first(_grid((a.size, a.size)), lambda i, j: (
        ~mask[g.inv_array(ids[i])] | ~mask[g.mul_pairs(ids[i], ids[j])]))
    if found:
        x, y = (int(ids[i]) for i in found)
        if not mask[g.inv_array(x)]:
            return f"not a subgroup: inverse of member {x} is missing"
        return f"not a subgroup: product of members {x} and {y} escapes"
    if not mask[0]:
        return "not a subgroup: identity is missing"
    return None


def ascending_powers(a: MSet, top: int):
    """Yield A, A^2, ..., A^top by repeated right products.  Once
    A^{n+1} = A^n the chain has stabilized, so every later power is that
    same set and no further product is formed."""
    cur = a
    yield cur
    for n in range(2, top + 1):
        nxt = product_set(cur, a)
        if nxt == cur:
            for _ in range(n, top + 1):
                yield cur
            return
        cur = nxt
        yield cur


def power_set(a: MSet, n: int) -> MSet:
    """A^n for n >= 1, the last set of ascending_powers(a, n)."""
    if n < 1:
        raise ValueError("the exponent must be at least 1")
    for cur in ascending_powers(a, n):
        pass
    return cur


def partial_product(a: MSet, b: MSet, pairs) -> MSet:
    """{x*y : (x,y) in E} for a nonempty pair relation E inside A x B."""
    _require_same_group(a, b)
    g = a.group
    xs, ys = np.array(list(pairs), dtype=np.intp).reshape(-1, 2).T
    if not len(xs):
        raise ValueError("pair relation must be nonempty")
    n = g.order
    inside = (np.minimum(xs, ys) >= 0) & (np.maximum(xs, ys) < n)
    inside &= member_mask(a)[xs % n] & member_mask(b)[ys % n]
    if not inside.all():
        i = int(np.argmin(inside))
        raise ValueError(f"pair ({xs[i]},{ys[i]}) is not inside A x B")
    mask = np.zeros(g.order, dtype=bool)
    for rows in _row_blocks(len(xs), 1):
        mask[g.mul_pairs(xs[rows], ys[rows])] = True
    return MSet(g, mask)


# ---------------------------------------------------------------------------
# Convolution and energy

@dataclass
class ConvolutionProfile:
    """Counts 1_A * 1_B(x) = #{(a,b) in A x B : a*b = x}, nonzero entries."""

    group: FiniteGroup
    counts: dict[int, int]
    a_size: int
    b_size: int

    def energy_value(self) -> int:
        return sum(c * c for c in self.counts.values())


def convolution(a: MSet, b: MSet) -> ConvolutionProfile:
    _require_same_group(a, b)
    g = a.group
    blocks = _product_blocks(g, a.id_array(), b.id_array())
    return _convolution_profile(
        g, (block for _, block in blocks), a.size, b.size)


def _convolution_profile(g: FiniteGroup, blocks, a_size: int,
                         b_size: int) -> ConvolutionProfile:
    """The profile of A x B from blocks that hold each product of A x B
    once, counted by one ``bincount`` per block."""
    counts = np.zeros(g.order, dtype=np.int64)
    for block in blocks:
        counts += np.bincount(block.ravel(), minlength=g.order)
    support = np.flatnonzero(counts)
    return ConvolutionProfile(
        g, dict(zip(support.tolist(), counts[support].tolist())),
        a_size, b_size)


@dataclass
class EnergyValue:
    """Multiplicative energy: quadruples (a,b,a',b') with a*b = a'*b'."""

    value: int
    a_size: int
    b_size: int
    product_size: int

    def upper_bound_holds(self) -> bool:
        # E <= (|A||B|)^{3/2}, compared as E^2 <= (|A||B|)^3
        n = self.a_size * self.b_size
        return self.value**2 <= n**3

    def lower_bound_holds(self) -> bool:
        # E >= |A|^2 |B|^2 / |A*B|
        return self.value * self.product_size >= (self.a_size * self.b_size) ** 2


def energy(a: MSet, b: MSet) -> EnergyValue:
    prof = convolution(a, b)
    return EnergyValue(prof.energy_value(), a.size, b.size, len(prof.counts))


def energy_quadruple_count(a: MSet, b: MSet) -> int:
    """Independent oracle: count quadruples by direct enumeration over
    (a, b, a') with the forced b' = a'^-1 a b tested for membership, one
    row a*B at a time against mul_outer(A^-1, row) and a mask of B."""
    _require_same_group(a, b)
    g = a.group
    a_inv = g.inv_array(a.id_array())
    b_mask = member_mask(b)
    total = 0
    for _, rows in _product_blocks(g, a.id_array(), b.id_array()):
        for row in rows:
            for _, block in _product_blocks(g, a_inv, row):
                total += int(np.count_nonzero(b_mask[block]))
    return total


# ---------------------------------------------------------------------------
# Ruzsa distance

@dataclass
class RuzsaDistanceValue:
    """d(A,B) = log |A*B^-1| / sqrt(|A||B|), kept in exact parts.

    numerator       |A * B^-1|
    denominator_sq  |A| * |B|  (the square of the denominator)
    """

    numerator: int
    a_size: int
    b_size: int

    @property
    def denominator_sq(self) -> int:
        return self.a_size * self.b_size

    def is_nonnegative(self) -> bool:
        # |A*B^-1| >= max(|A|,|B|) >= sqrt(|A||B|)
        return self.numerator**2 >= self.denominator_sq


def ruzsa_distance(a: MSet, b: MSet) -> RuzsaDistanceValue:
    num = product_set(a, inverse_set(b)).size
    return RuzsaDistanceValue(num, a.size, b.size)


def ruzsa_triangle_cleared(d_ab: RuzsaDistanceValue, d_bc: RuzsaDistanceValue,
                           d_ac: RuzsaDistanceValue) -> bool:
    """d(A,C) <= d(A,B) + d(B,C) from the three distances, in cleared-integer
    form: |A*C^-1| * |B| <= |A*B^-1| * |B*C^-1|."""
    return d_ac.numerator * d_ab.b_size <= d_ab.numerator * d_bc.numerator
