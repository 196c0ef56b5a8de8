"""Set arithmetic over a finite group: products, convolutions, energy,
Ruzsa distance.

Sets are bitsets over element ids (Python ints), so unions and membership
are single operations and cardinality is a popcount.  Products, translates,
inverses and convolutions have one path: the group's vectorized law
``mul_outer`` (a table gather at or below TABLE_CAP, coordinate arithmetic
above it) over the row blocks of ``groups._product_blocks``, scattered into
a boolean mask packed back into the bitset, or into a ``bincount``.  No
call holds more than one block of products, so memory stays linear in the
group order whatever the set sizes.  ``product_set`` forms nothing when an
operand is the whole group G, since G·B = A·G = G for nonempty sets; once a
power chain reaches G, every further power is free.  All derived values
(energy, distances) are exact integers or Fractions.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .groups import FiniteGroup, _ids_mask, _product_blocks, _row_blocks


class MSet:
    """Nonempty subset of a FiniteGroup stored as a bitset over ids."""

    __slots__ = ("group", "bits", "size", "_idtuple", "_idarray")

    def __init__(self, group: FiniteGroup, bits: int):
        if bits <= 0:
            raise ValueError("multiplicative sets are nonempty")
        if bits >> group.order:
            raise ValueError("bitset contains ids outside the group")
        self.group = group
        self.bits = bits
        self.size = bits.bit_count()
        self._idtuple: tuple[int, ...] | None = None
        self._idarray: np.ndarray | None = None

    @classmethod
    def from_ids(cls, group: FiniteGroup, ids) -> "MSet":
        bits = 0
        for x in ids:
            if not 0 <= x < group.order:
                raise ValueError(f"id {x} outside group of order {group.order}")
            bits |= 1 << x
        return cls(group, bits)

    @classmethod
    def identity_only(cls, group: FiniteGroup) -> "MSet":
        return cls(group, 1)

    def ids(self) -> tuple[int, ...]:
        if self._idtuple is None:
            out = []
            bits = self.bits
            while bits:
                low = bits & -bits
                out.append(low.bit_length() - 1)
                bits ^= low
            self._idtuple = tuple(out)
        return self._idtuple

    def id_array(self) -> np.ndarray:
        """The ids in increasing order as an intp array."""
        if self._idarray is None:
            self._idarray = np.flatnonzero(member_mask(self))
        return self._idarray

    def __contains__(self, x: int) -> bool:
        return bool((self.bits >> x) & 1)

    def __len__(self) -> int:
        return self.size

    def __iter__(self):
        return iter(self.ids())

    def __eq__(self, other):
        return (
            isinstance(other, MSet)
            and self.group is other.group
            and self.bits == other.bits
        )

    def __hash__(self):
        return hash((id(self.group), self.bits))

    def __le__(self, other: "MSet") -> bool:
        _require_same_group(self, other)
        return self.bits & ~other.bits == 0

    def union(self, other: "MSet") -> "MSet":
        _require_same_group(self, other)
        return MSet(self.group, self.bits | other.bits)

    def intersect_bits(self, bits: int) -> "MSet | None":
        out = self.bits & bits
        return MSet(self.group, out) if out else None

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


def member_mask(a: MSet) -> np.ndarray:
    """The boolean mask over all ids of the group that is True on A."""
    raw = a.bits.to_bytes((a.group.order + 7) // 8, "little")
    return np.unpackbits(np.frombuffer(raw, dtype=np.uint8),
                         bitorder="little", count=a.group.order).view(bool)


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

def _mask_bits(mask: np.ndarray) -> int:
    """The bitset of a boolean mask over ids."""
    return int.from_bytes(
        np.packbits(mask, bitorder="little").tobytes(), "little")


def _product_bits(g: FiniteGroup, xs, ys) -> int:
    """Bitset of {x*y : x in xs, y in ys}."""
    mask = np.zeros(g.order, dtype=bool)
    for _, block in _product_blocks(g, np.asarray(xs), np.asarray(ys)):
        mask[block] = True
    return _mask_bits(mask)


def translate_left(x: int, a: MSet) -> int:
    """Bitset of x*A."""
    return _product_bits(a.group, [x], a.id_array())


def translate_right(a: MSet, x: int) -> int:
    """Bitset of A*x."""
    return _product_bits(a.group, a.id_array(), [x])


def product_set(a: MSet, b: MSet) -> MSet:
    """A*B = {x*y : x in A, y in B}.  When either operand is the whole
    group G the product is G with no product formed: G·B = A·G = G for
    nonempty A and B."""
    _require_same_group(a, b)
    g = a.group
    if a.size == g.order or b.size == g.order:
        return MSet(g, (1 << g.order) - 1)
    return MSet(g, _product_bits(g, a.id_array(), b.id_array()))


def inverse_set(a: MSet) -> MSet:
    g = a.group
    return MSet(g, _mask_bits(_ids_mask(g, g.inv_array(a.id_array()))))


def iterated_product(a: MSet, signs) -> MSet:
    """A^{s1} * A^{s2} * ... for signs si in {+1, -1}, any number of
    factors: each partial product is a subset of the group."""
    signs = list(signs)
    if not signs:
        raise ValueError("signs must be nonempty")
    if any(s not in (1, -1) for s in signs):
        raise ValueError("signs must be +1 or -1")
    ainv = None
    out = None
    for s in signs:
        if s == -1 and ainv is None:
            ainv = inverse_set(a)
        factor = a if s == 1 else ainv
        out = factor if out is None else product_set(out, factor)
    return out


def ascending_powers(a: MSet, top: int):
    """Yield A, A^2, ..., A^top by repeated right products.  Once
    A^{n+1} = A^n the chain has stabilized, so every later power is that
    same set and no further product is formed."""
    cur = a
    yield cur
    for n in range(2, top + 1):
        nxt = product_set(cur, a)
        if nxt.bits == cur.bits:
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
    return MSet(g, _mask_bits(mask))


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


def ruzsa_triangle_holds(a: MSet, b: MSet, c: MSet) -> bool:
    """d(A,C) <= d(A,B) + d(B,C)."""
    return ruzsa_triangle_cleared(
        ruzsa_distance(a, b), ruzsa_distance(b, c), ruzsa_distance(a, c))


def ruzsa_triangle_cleared(d_ab: RuzsaDistanceValue, d_bc: RuzsaDistanceValue,
                           d_ac: RuzsaDistanceValue) -> bool:
    """d(A,C) <= d(A,B) + d(B,C) from the three distances, in cleared-integer
    form: |A*C^-1| * |B| <= |A*B^-1| * |B*C^-1|."""
    return d_ac.numerator * d_ab.b_size <= d_ab.numerator * d_bc.numerator
