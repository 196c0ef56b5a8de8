"""Set arithmetic over a finite group: products, convolutions, energy,
Ruzsa distance.

Sets are bitsets over element ids (Python ints), so unions and membership
are single operations and cardinality is a popcount.  All derived values
(energy, distances) are exact integers or Fractions.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .groups import FiniteGroup

MAX_ITERATED_SIGNS = 30


class MSet:
    """Nonempty subset of a FiniteGroup stored as a bitset over ids."""

    __slots__ = ("group", "bits", "size", "_idtuple")

    def __init__(self, group: FiniteGroup, bits: int):
        if bits <= 0:
            raise ValueError("multiplicative sets are nonempty")
        if bits >> group.order:
            raise ValueError("bitset contains ids outside the group")
        self.group = group
        self.bits = bits
        self.size = bits.bit_count()
        self._idtuple: tuple[int, ...] | None = None

    @classmethod
    def from_ids(cls, group: FiniteGroup, ids) -> "MSet":
        bits = 0
        for x in ids:
            if not 0 <= x < group.order:
                raise ValueError(f"id {x} outside group of order {group.order}")
            bits |= 1 << x
        return cls(group, bits)

    @classmethod
    def singleton(cls, group: FiniteGroup, x: int) -> "MSet":
        return cls.from_ids(group, [x])

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

def translate_left(x: int, a: MSet) -> int:
    """Bitset of x*A."""
    g = a.group
    row = g.row(x)
    bits = 0
    if row is not None:
        for y in a.ids():
            bits |= 1 << row[y]
    else:
        mul = g.mul
        for y in a.ids():
            bits |= 1 << mul(x, y)
    return bits


def translate_right(a: MSet, x: int) -> int:
    """Bitset of A*x."""
    g = a.group
    mul = g.mul
    bits = 0
    for y in a.ids():
        bits |= 1 << mul(y, x)
    return bits


def product_set(a: MSet, b: MSet) -> MSet:
    """A*B = {x*y : x in A, y in B}."""
    _require_same_group(a, b)
    g = a.group
    bits = 0
    b_ids = b.ids()
    if g.row(0) is not None:
        for x in a.ids():
            row = g.row(x)
            acc = 0
            for y in b_ids:
                acc |= 1 << row[y]
            bits |= acc
    else:
        mul = g.mul
        for x in a.ids():
            for y in b_ids:
                bits |= 1 << mul(x, y)
    return MSet(g, bits)


def inverse_set(a: MSet) -> MSet:
    g = a.group
    inv = g.inv
    bits = 0
    for x in a.ids():
        bits |= 1 << inv(x)
    return MSet(g, bits)


def iterated_product(a: MSet, signs) -> MSet:
    """A^{s1} * A^{s2} * ... for signs si in {+1, -1}; up to 30 factors."""
    signs = list(signs)
    if not signs:
        raise ValueError("signs must be nonempty")
    if len(signs) > MAX_ITERATED_SIGNS:
        raise ValueError(f"at most {MAX_ITERATED_SIGNS} factors supported")
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
    bits = 0
    count = 0
    for x, y in pairs:
        if x not in a or y not in b:
            raise ValueError(f"pair ({x},{y}) is not inside A x B")
        bits |= 1 << g.mul(x, y)
        count += 1
    if count == 0:
        raise ValueError("pair relation must be nonempty")
    return MSet(g, bits)


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
    counts: dict[int, int] = {}
    b_ids = b.ids()
    if g.row(0) is not None:
        for x in a.ids():
            row = g.row(x)
            for y in b_ids:
                z = row[y]
                counts[z] = counts.get(z, 0) + 1
    else:
        mul = g.mul
        for x in a.ids():
            for y in b_ids:
                z = mul(x, y)
                counts[z] = counts.get(z, 0) + 1
    return ConvolutionProfile(g, counts, a.size, b.size)


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
    (a, b, a') with the forced b' = a'^-1 a b tested for membership."""
    _require_same_group(a, b)
    g = a.group
    total = 0
    a_ids = a.ids()
    b_ids = b.ids()
    inv = g.inv
    mul = g.mul
    for x in a_ids:
        for y in b_ids:
            z = mul(x, y)
            for x2 in a_ids:
                if mul(inv(x2), z) in b:
                    total += 1
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

    @property
    def ratio_sq(self) -> Fraction:
        """exp(2 d(A,B)) as an exact Fraction."""
        return Fraction(self.numerator**2, self.denominator_sq)

    def is_nonnegative(self) -> bool:
        # |A*B^-1| >= max(|A|,|B|) >= sqrt(|A||B|)
        return self.numerator**2 >= self.denominator_sq


def ruzsa_distance(a: MSet, b: MSet) -> RuzsaDistanceValue:
    num = product_set(a, inverse_set(b)).size
    return RuzsaDistanceValue(num, a.size, b.size)


def ruzsa_triangle_holds(a: MSet, b: MSet, c: MSet) -> bool:
    """d(A,C) <= d(A,B) + d(B,C) in cleared-integer form:
    |A*C^-1| * |B| <= |A*B^-1| * |B*C^-1|."""
    ac = product_set(a, inverse_set(c)).size
    ab = product_set(a, inverse_set(b)).size
    bc = product_set(b, inverse_set(c)).size
    return ac * b.size <= ab * bc
