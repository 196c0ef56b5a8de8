"""Set arithmetic over a finite group: products, powers, convolutions,
energy, subgroup closure and quotient maps.

This module alone knows the set format: an MSet owns one read-only boolean
mask over the group's ids.  The constructor marks the array it is given
read-only, from_mask copies, member_mask returns the stored array, and the
hash reads the mask bytes.  Other modules read sets through ids, id_array,
member_mask, size and membership and build them with the named
constructors (tests/test_set_format.py checks this).  Products, translates
and convolutions have one path: the group's ``mul_outer`` (the coordinate
law, or a gather from the table once the group has built one) over the row
blocks of ``groups._product_blocks``, scattered into a mask or a
``bincount``.  Operands whose products fit one block, most of them, take
one ``mul_outer`` call and one scatter.  No call holds more than one block
of products, so memory stays linear in the group order whatever the set
sizes.  Besides ``convolution``, the count array of ``_set_counts`` has
three readers: ``energy``, the core of ``structure.symmetric_core``
(|A ∩ A·x| at every x) and the translate choice of ``bsg._step_iii_iv``
(|A′ ∩ tH| and |B′ ∩ Ht| at every t).  ``_pair_counts``, the pool-table
kernel, forms the count rows of a whole list of operand pairs in one
blocked sweep, one ``mul_pairs`` per block of pairs; its three readers are
the ruzsa-axioms, energy-identities and covering suites, which form each
distinct pair their draws need once.  Its blocks hold at most BLOCK_PAIRS
products and count cells, or one pair with one count row, so its memory
stays within one block whatever the list's length.  A set keeps its
inverse and its power chain A², A³, ... (never itself) once formed, so
``inverse_set`` gathers ``inv_array`` at most once per set and
``power_set``, the one routine that forms powers, forms each distinct
power at most once per set, whatever the exponent asked.  A subgroup is
an MSet (``subgroup_closure``); ``quotient_map`` returns G/H alone, a
``groups.QuotientGroup`` whose kernel, the ids where pi is 0, is H.
``product_set`` forms nothing when |A| + |B| > |G|: then A meets g·B⁻¹ for
every g, so A·B = G (the pigeonhole bound, tight in cyclic(8) at
A = B = {0,2,4,6}).  Otherwise a product stops forming row blocks once its
mask is G.  Once a power A^n of a power chain passes
|G| - |A|, every further power is G and free.  All derived values are exact
integers or Fractions.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass

import numpy as np

from .groups import (FiniteGroup, QuotientGroup, _cayley_levels, _first,
                     _first_non_normalizer, _grid, _ids_mask, _product_blocks,
                     _raise_first_escape, _row_blocks)


class MSet:
    """Nonempty subset of a FiniteGroup: a read-only boolean mask over ids
    that the set owns.  Only this module calls the constructor."""

    __slots__ = ("group", "_mask", "size", "_idtuple", "_idarray", "_inverse",
                 "_powers", "_loop")

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
        self._inverse: MSet | None = None
        self._powers: list[MSet] | None = None   # A², A³, ... (power_set)
        self._loop: int | None = None   # m of the chain's repeat A^m, once met

    @classmethod
    def from_ids(cls, group: FiniteGroup, ids) -> "MSet":
        """The set of the ids of any iterable or id array, repeats allowed."""
        return cls(group, _ids_mask(group, _checked_ids(group, ids)))

    @classmethod
    def from_mask(cls, group: FiniteGroup, mask: np.ndarray) -> "MSet":
        """The set where a copy of a boolean mask over the ids is True."""
        return cls(group, np.array(mask, dtype=bool))

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
    """A u {1} u A^-1, the canonical symmetric-with-identity hull: A itself
    when A is its own hull, so the two share one inverse and power chain."""
    hull = a.union(inverse_set(a)).union(MSet.from_ids(a.group, [0]))
    return a if hull.size == a.size else hull


# ---------------------------------------------------------------------------
# Products

def _product_mask(g: FiniteGroup, xs, ys) -> np.ndarray:
    """Boolean mask over ids of {x*y : x in xs, y in ys}, for id arrays.
    It stops once the mask is G; the test runs only before a further row
    block, so the one-block path skips it."""
    mask = np.zeros(g.order, dtype=bool)
    for rows, block in _product_blocks(g, xs, ys):
        mask[block] = True
        if rows.stop < len(xs) and mask.all():
            break
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
    """A*B = {x*y : x in A, y in B}.  When |A| + |B| > |G| the product is G
    with no product formed: for each g the sets A and g·B⁻¹ then meet, so
    g lies in A·B.  That includes an operand equal to G."""
    _require_same_group(a, b)
    g = a.group
    if a.size + b.size > g.order:
        return MSet(g, np.ones(g.order, dtype=bool))
    return MSet(g, _product_mask(g, a.id_array(), b.id_array()))


def inverse_set(a: MSet) -> MSet:
    """A⁻¹, formed once per set: A keeps it, so a repeat call on A returns
    the same read-only set.  A⁻¹ is not told that A is its inverse; that
    link would make every inverted set part of a reference cycle."""
    if a._inverse is None:
        g = a.group
        a._inverse = MSet(g, _ids_mask(g, g.inv_array(a.id_array())))
    return a._inverse


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


def subgroup_closure(g: FiniteGroup, seed) -> MSet:
    """Smallest subgroup of g containing the seed ids."""
    seed = np.asarray(list(seed), dtype=np.intp)
    if not len(seed):
        raise ValueError("seed must be nonempty")
    gens = np.concatenate([seed, g.inv_array(seed)])
    return MSet(g, _ids_mask(g, np.concatenate(list(_cayley_levels(g, gens)))))


def quotient_map(g: FiniteGroup, generators_of_H) -> QuotientGroup:
    """Quotient by the subgroup H generated by the given ids.

    The representative of x is the smallest id of its coset xH, the minimum
    of the row x*H of one blocked mul_outer; the quotient ids number the
    representatives in increasing order, and pi maps each id to the number
    of its coset.  The identity's coset H has representative 0, so pi[0] =
    0 and H is the kernel.  H is normal when rHr^-1 lies in H for every
    representative r, since x = rh' gives xhx^-1 = r(h'hh'^-1)r^-1.  If it
    is not, a NotNormalError names the first escaping conjugate with h
    ascending, then x ascending."""
    hs = subgroup_closure(g, generators_of_H).id_array()
    ids = np.arange(g.order)
    rep_of = np.concatenate(
        [block.min(axis=1) for _, block in _product_blocks(g, ids, hs)])
    reps = np.flatnonzero(rep_of == ids)
    if _first_non_normalizer(g, reps, hs) is not None:
        _raise_first_escape(g, hs)
    return QuotientGroup(g, reps, np.searchsorted(reps, rep_of))


def power_set(a: MSet, n: int) -> MSet:
    """A^n for n >= 1, read off the chain A², A³, ... of right products that
    A keeps (never A itself: that would be a reference cycle), so a power
    already held costs no product.  Sizes never shrink along the chain; once
    |A^(m+1)| = |A^m|, its subset A^m·x is A^(m+1) for x in A, so A^(m+j) =
    A·A^(m+j-1) = A^m·x^j: the chain runs round an orbit of right translation
    by x, whose first repeat is A^m.  It stops there and reads later powers
    off the period, so it forms one product and keeps one set (a mask of |G|
    bytes and the ids it read) per distinct power: |G| - |A| + 1 + ord(x) at
    most, whatever n is."""
    if n < 1:
        raise ValueError("the exponent must be at least 1")
    chain = a._powers = [] if a._powers is None else a._powers

    def power(m: int) -> MSet:
        return a if m == 1 else chain[m - 2]

    while a._loop is None and len(chain) + 1 < n:
        last = power(len(chain) + 1)
        nxt = product_set(last, a)
        if nxt.size == last.size:
            start = 1 + bisect_left(range(1, len(chain) + 2), last.size,
                                    key=lambda m: power(m).size)
            if nxt == power(start):
                a._loop = start
                break
        chain.append(nxt)
    top = len(chain) + 1
    if n > top:
        n = a._loop + (n - a._loop) % (top + 1 - a._loop)
    return power(n)


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


def convolution(a: MSet, b: MSet) -> ConvolutionProfile:
    counts = _set_counts(a, b)
    support = np.flatnonzero(counts)
    return ConvolutionProfile(
        a.group, dict(zip(support.tolist(), counts[support].tolist())),
        a.size, b.size)


def _set_counts(a: MSet, b: MSet) -> np.ndarray:
    """The int64 array over ids of 1_A * 1_B."""
    _require_same_group(a, b)
    g = a.group
    blocks = _product_blocks(g, a.id_array(), b.id_array())
    return _product_counts(g, (block for _, block in blocks))


def _product_counts(g: FiniteGroup, blocks) -> np.ndarray:
    """The int64 array over ids of 1_A * 1_B from blocks that hold each
    product of A x B once, counted by one ``bincount`` per block."""
    counts = np.zeros(g.order, dtype=np.int64)
    for block in blocks:
        counts += np.bincount(block.ravel(), minlength=g.order)
    return counts


def _pair_counts(g: FiniteGroup, pairs):
    """The pairs (rows, counts) over the _row_blocks of a list of operand
    pairs (xs, ys) of id arrays: counts[r] is the int64 row over ids of
    1_X * 1_Y for the pair rows.start + r.  A block of several pairs pads
    their ids to its longest operands, takes the valid cells of one
    broadcast, forms them by one ``mul_pairs`` and counts them by one
    ``bincount`` at r·order + product; a block of one pair takes the
    ``_product_blocks`` of ``_set_counts``.  A block holds at most
    BLOCK_PAIRS padded products and count cells, or one pair."""
    n = g.order
    lens = np.array([(len(xs), len(ys)) for xs, ys in pairs],
                    dtype=np.intp).reshape(-1, 2)
    cells = max(n, int(lens.max(0, initial=0).prod()))
    for rows in _row_blocks(len(pairs), cells):
        k, (la, lb) = rows.stop - rows.start, lens[rows].max(0)
        if k == 1:
            blocks = _product_blocks(g, *pairs[rows.start])
            yield rows, _product_counts(g, (b for _, b in blocks))[None]
            continue
        xs, ys = np.zeros((k, la), dtype=np.intp), np.zeros((k, lb), dtype=np.intp)
        for r, (x, y) in enumerate(pairs[rows]):
            xs[r, :len(x)], ys[r, :len(y)] = x, y
        r, i, j = np.nonzero((np.arange(la) < lens[rows, :1])[:, :, None]
                             & (np.arange(lb) < lens[rows, 1:])[:, None, :])
        block = g.mul_pairs(xs[r, i], ys[r, j])
        yield rows, np.bincount(r * n + block, minlength=k * n).reshape(k, n)


def energy(a: MSet, b: MSet) -> int:
    """E(A, B) = sum of (1_A * 1_B)², the multiplicative energy: the
    quadruples (a,b,a',b') with a*b = a'*b'."""
    counts = _set_counts(a, b)
    # each count is at most min(|A|,|B|) and they sum to |A||B|, so
    # E <= |A||B|·min(|A|,|B|) <= ORDER_CAP^3 < 2^63: no int64 overflow
    return int(counts @ counts)


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

