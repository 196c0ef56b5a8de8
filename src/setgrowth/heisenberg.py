"""Heisenberg groups built from antisymmetric pairings, the splitting of a
small-tripling set along a normal subgroup, and the abelianized inverse
theorem for the two-step nilpotent case.

The carrier of a Heisenberg group is Z x W for two elementary abelian
groups, with multiplication twisted by a pairing {.,.}: Z x Z -> W.  The
same carrier untwisted is the additive group Z x W, and both use identical
mixed-radix element ids, and the vertical slice {0} x W has the ids of W,
so sets cross between these groups id for id (``MSet.from_ids``); a
containment across them is stated on the image under the comparison map
iota, as its row's formula reads.  Every quantitative conclusion lands in a
ConstantLedger row with exact integer or Fraction endpoints; covering-set
sizes are measured and then compared against polynomial bounds in the
tripling parameter; docs/constants.md derives each but candidate-fiber-bound,
on which candidate-size-bound rests.
"""

from __future__ import annotations

import itertools
import random
import re
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .constants import (
    SPLIT_COUNT_EXP,
    SPLIT_NEST_EXP,
    positive_power_exponent,
    word_exponent,
)
from .exact import frac
from .groups import (
    CyclicGroup,
    DEFAULT_SEED,
    DirectProductGroup,
    FiniteGroup,
    QuotientGroup,
    _first,
    _first_non_normalizer,
    _grid,
    _is_prime,
    _named_fields,
    _product_blocks,
    _require_order,
    _required,
    _row_blocks,
    _sampled,
    _split_fields,
    verify_group_axioms,
)
from .setops import (
    MSet,
    inverse_set,
    member_mask,
    power_set,
    product_set,
    subgroup_failure,
    symmetrize,
)
from .structure import (
    ApproxGroupWitness,
    ConstantLedger,
    approx_group_from_tripling,
)

EXHAUSTIVE_ORDER_CAP = 10_000      # centrality and pairing sweeps sample above
EXHAUSTIVE_PAIR_CAP = 2_000_000    # commutator sweep switches to sampling here
TRIPLE_EXHAUSTIVE_CAP = 64         # |C| above which the triple check samples
SAMPLE_COUNT = 2_000
TRIPLE_SAMPLE_COUNT = 20_000

# The three nested cores are cubes of even-power slices A^(2n) with
# n = 1, 4, 13.  The slice at level n has tripling exponent
# positive_power_exponent(6n + 1) in the tripling parameter of A.
CORE_LEVELS = (1, 4, 13)


# ---------------------------------------------------------------------------
# Pairing specs (see docs/formats.md for the text grammar)

_FIELD_RE = re.compile(r"^Zp\^(\d+),p=(\d+)$")

PAIRING_KINDS = ("symplectic", "zero")


@dataclass(frozen=True)
class PairingSpec:
    """An antisymmetric bilinear pairing (Z/p)^k x (Z/p)^k -> (Z/q)^m,
    described by its values on the standard generators."""

    z_rank: int
    z_prime: int
    w_rank: int
    w_prime: int
    kind: str

    def __post_init__(self):
        if self.z_rank < 1 or self.w_rank < 1:
            raise ValueError("pairing spec needs positive ranks")
        # the order p^k q^m is stated, and a modulus below 2 refused, before
        # any modulus is factored
        moduli, ranks = (self.z_prime, self.w_prime), (self.z_rank, self.w_rank)
        if min(moduli) >= 2:
            _require_order((p for p, k in zip(moduli, ranks) for _ in range(k)),
                           f"heisenberg({self.text()})",
                           f"{self.z_prime}^{self.z_rank}*{self.w_prime}^{self.w_rank}")
        for p in sorted(moduli):
            if not _is_prime(p):
                raise ValueError(f"pairing spec needs prime moduli, got {p}")
        if self.kind not in PAIRING_KINDS:
            raise ValueError(
                f"unknown pairing kind {self.kind!r}; expected one of {PAIRING_KINDS}")
        if self.kind == "symplectic":
            if self.z_rank % 2:
                raise ValueError(
                    f"symplectic pairing needs an even horizontal rank, got {self.z_rank}")
            if self.z_prime != self.w_prime:
                raise ValueError(
                    "symplectic pairing needs matching moduli: bi-additivity "
                    f"forces {self.z_prime}*{{e1,e2}} = {{0,e2}} = 0, impossible "
                    f"for a value of order {self.w_prime}")

    def text(self) -> str:
        return (f"z=Zp^{self.z_rank},p={self.z_prime};"
                f"w=Zp^{self.w_rank},p={self.w_prime};pairing={self.kind}")

    def nonzero_entries(self) -> tuple[tuple[int, int, int], ...]:
        """Sparse generator matrix: triples (i, j, sign) meaning
        {e_i, e_j} = sign * f_1, with f_1 the first generator of W."""
        if self.kind == "zero":
            return ()
        out = []
        for t in range(0, self.z_rank, 2):
            out.append((t, t + 1, 1))
            out.append((t + 1, t, -1))
        return tuple(out)


def parse_pairing_spec(text: str) -> PairingSpec:
    """Parse the argument text of heisenberg(...): the three ;-separated
    fields z=Zp^k,p=P, w=Zp^m,p=Q and pairing=symplectic|zero, each given
    once, in any order."""
    keys = ("z", "w", "pairing")
    fields = _named_fields(_split_fields(text, "pairing", ";"), "pairing", keys)
    *groups, kind = (_required(fields, key, "pairing", key) for key in keys)
    ranks = []
    for key, value in zip(keys, groups):
        m = _FIELD_RE.match(value)
        if m is None:
            raise ValueError(
                f"malformed {key} group {value!r}; expected Zp^<rank>,p=<prime>")
        ranks += (int(m.group(1)), int(m.group(2)))
    return PairingSpec(*ranks, kind=kind)


# ---------------------------------------------------------------------------
# The group

def _component_group(prime: int, rank: int) -> FiniteGroup:
    if rank == 1:
        return CyclicGroup(prime)
    return DirectProductGroup([CyclicGroup(prime) for _ in range(rank)])


def _digits(x, p: int, rank: int) -> list:
    """The rank base-p digits of x, most significant first."""
    return [x // p ** (rank - 1 - i) % p for i in range(rank)]


class HeisenbergGroup(FiniteGroup):
    """Carrier Z x W with law (z,w)(z',w') = (z+z', w+w'+{z,z'}).

    Element id of (z,w) is z*|W| + w, matching the mixed-radix numbering of
    the untwisted additive product group, so iota (the comparison bijection
    onto the additive group) is the identity on ids.  The vertical subgroup
    {0} x W occupies ids 0..|W|-1 and is central.
    """

    def __init__(self, spec: PairingSpec):
        self.spec = spec
        self.z_order = spec.z_prime ** spec.z_rank
        self.w_order = spec.w_prime ** spec.w_rank
        super().__init__(self.z_order * self.w_order, f"heisenberg({spec.text()})")
        self.z_additive = _component_group(spec.z_prime, spec.z_rank)
        self.w_additive = _component_group(spec.w_prime, spec.w_rank)
        self._entries = spec.nonzero_entries()
        # one column of Z coordinates per generator, indexed by Z id, most
        # significant first, and the coordinate tuple of each Z id
        self._zcols = _digits(np.arange(self.z_order), spec.z_prime, spec.z_rank)
        self._zcoords = list(zip(*(col.tolist() for col in self._zcols)))
        self._additive: DirectProductGroup | None = None
        self._vertical: QuotientGroup | None = None
        self.construction_ledger: ConstantLedger | None = None

    # -- coordinates --------------------------------------------------------
    def encode(self, z: int, w: int) -> int:
        return z * self.w_order + w

    # -- the pairing --------------------------------------------------------
    def pair(self, z1: int, z2: int) -> int:
        """{z1, z2} as a W id."""
        if not self._entries:
            return 0
        c1, c2 = self._zcoords[z1], self._zcoords[z2]
        q = self.spec.w_prime
        s = 0
        for i, j, sign in self._entries:
            s += sign * c1[i] * c2[j]
        s %= q
        if s == 0:
            return 0
        # the value sits on the first W generator, most significant digit
        return s * q ** (self.spec.w_rank - 1)

    def pair_array(self, z1, z2) -> np.ndarray:
        """{z1, z2} as W ids, elementwise over broadcastable Z id arrays."""
        q, cols = self.spec.w_prime, self._zcols
        s = np.zeros(np.broadcast_shapes(np.shape(z1), np.shape(z2)),
                     dtype=np.intp)
        for i, j, sign in self._entries:
            s += sign * cols[i].take(z1) * cols[j].take(z2)
        return s % q * q ** (self.spec.w_rank - 1)

    # -- group law ----------------------------------------------------------
    def _mul_law(self, x, y):
        wo, wg = self.w_order, self.w_additive
        z1, w1 = np.divmod(x, wo)
        z2, w2 = np.divmod(y, wo)
        z = self.z_additive.mul_pairs(z1, z2).astype(np.intp)
        w = wg.mul_pairs(wg.mul_pairs(w1, w2), self.pair_array(z1, z2))
        return z * wo + w

    def _inv_law(self, x):
        wo = self.w_order
        z, w = np.divmod(x, wo)
        return (self.z_additive.inv_array(z).astype(np.intp) * wo
                + self.w_additive.inv_array(w))

    def mul(self, a: int, b: int) -> int:
        wo = self.w_order
        z1, w1 = divmod(a, wo)
        z2, w2 = divmod(b, wo)
        z = self.z_additive.mul(z1, z2)
        w = self.w_additive.mul(self.w_additive.mul(w1, w2), self.pair(z1, z2))
        return z * wo + w

    def inv(self, a: int) -> int:
        wo = self.w_order
        z, w = divmod(a, wo)
        return self.z_additive.inv(z) * wo + self.w_additive.inv(w)

    # -- untwisted views ----------------------------------------------------
    def additive_group(self) -> DirectProductGroup:
        """The additive group on the same carrier with the same ids."""
        if self._additive is None:
            factors = [CyclicGroup(self.spec.z_prime) for _ in range(self.spec.z_rank)]
            factors += [CyclicGroup(self.spec.w_prime) for _ in range(self.spec.w_rank)]
            self._additive = DirectProductGroup(factors)
        return self._additive

    def iota(self, mset: MSet) -> MSet:
        """Carry a subset of the group to the additive group, id for id."""
        if mset.group is not self:
            raise ValueError("iota expects a subset of this Heisenberg group")
        return MSet.from_ids(self.additive_group(), mset.id_array())

    @property
    def vertical(self) -> QuotientGroup:
        """The quotient onto Z by the central subgroup {0} x W, the ids
        below |W|: pi is id // |W|, so quotient ids coincide with Z ids."""
        if self._vertical is None:
            wo = self.w_order
            self._vertical = QuotientGroup(self, np.arange(self.z_order) * wo,
                                           np.arange(self.order) // wo)
        return self._vertical


def build_heisenberg(spec: PairingSpec) -> HeisenbergGroup:
    """Validate the pairing, build the group, and sweep its law invariants.

    The inverse-law and numbering sweeps are exhaustive at every order;
    the others below EXHAUSTIVE_ORDER_CAP (the commutator sweep below
    EXHAUSTIVE_PAIR_CAP ordered pairs), with seeded samples above.
    Violations raise with an explicit counterexample.  The group axioms are
    swept before the law invariants: an exhaustive axiom sweep leaves its
    law table as the group's table, which the law sweeps then gather from;
    above the axiom cap the exhaustive commutator sweep has the table
    filled from the law before it starts.  Each call builds a new
    instance; construct_group keeps one per spec.
    """
    g = HeisenbergGroup(spec)
    ledger = ConstantLedger("heisenberg-construction")
    _validate_pairing(g, ledger)
    axioms = verify_group_axioms(g, seed=DEFAULT_SEED)
    _validate_group_law(g, ledger)
    ledger.info("axiom-sweep-triples", axioms["triples"],
                note=f"{axioms['mode']} associativity check")
    ledger.check()
    g.construction_ledger = ledger
    return g


def _validate_pairing(g: HeisenbergGroup, ledger: ConstantLedger) -> None:
    """Alternation, antisymmetry and bi-additivity of the pairing, each
    swept as whole arrays through pair_array.  A failure names the first
    counterexample of the scan, from groups._first: pairs row-major in the
    _grid of Z x Z, the diagonal {x, x} of each row before its pairs (x, y),
    y > x; triples in the _grid of Z^3, up to 8000 of them; samples as
    _sampled draws them."""
    pair, zo = g.pair_array, g.z_order
    wadd, winv = g.w_additive.mul_pairs, g.w_additive.inv_array

    def antisymmetry_fails(x, y):
        return pair(x, y) != winv(pair(y, x))

    if zo <= EXHAUSTIVE_ORDER_CAP:
        found = _first(
            _grid((zo, zo)),
            lambda x, y: (((x == y) & (pair(x, x) != 0))
                          | ((y > x) & antisymmetry_fails(x, y))))
        if found and found[0] == found[1]:
            raise ValueError(
                f"pairing is not alternating: {{z,z}} != 0 at z id {found[0]}")
        if found:
            raise ValueError(
                "pairing is not antisymmetric: "
                f"{{x,y}} != -{{y,x}} at z ids {found}")
        note = f"exhaustive over {zo}^2 pairs"
    else:
        found = _first(
            _sampled(random.Random(DEFAULT_SEED), SAMPLE_COUNT, (zo, zo)),
            lambda x, y: (pair(x, x) != 0) | antisymmetry_fails(x, y))
        if found:
            raise ValueError(
                f"pairing antisymmetry fails at sampled z ids {found}")
        note = f"{SAMPLE_COUNT} sampled pairs"
    ledger.claim("pairing-antisymmetric", True, note=note)

    if zo ** 3 <= 8000:
        triples = _grid((zo, zo, zo))
        note = "exhaustive triples"
    else:
        triples = _sampled(random.Random(DEFAULT_SEED + 1), SAMPLE_COUNT,
                           (zo, zo, zo))
        note = f"{SAMPLE_COUNT} sampled triples"
    zmul = g.z_additive.mul_pairs

    def left_fails(x, y, z):
        return pair(zmul(x, y), z) != wadd(pair(x, z), pair(y, z))

    found = _first(triples, lambda x, y, z: left_fails(x, y, z)
                   | (pair(x, zmul(y, z)) != wadd(pair(x, y), pair(x, z))))
    if found:
        side = "left" if left_fails(*found) else "right"
        raise ValueError(f"pairing is not additive on the {side} "
                         f"at z ids {found}")
    ledger.claim("pairing-bi-additive", True, note=note)


def _validate_group_law(g: HeisenbergGroup, ledger: ConstantLedger) -> None:
    """Inverse law, central vertical subgroup, commutator identity and the
    additive numbering, each swept as whole arrays.  The inverse-law and
    numbering sweeps cost O(order), so they cover every id at every order.
    The exhaustive commutator sweep forms 3 products per ordered pair, more
    than the table's order² cells, so it builds the table first.  A failure
    names the first counterexample of groups._first in the order of the
    sweep: the _grid of ids or pairs, or the draws of _sampled."""
    order, wo = g.order, g.w_order

    def inverse_fails(a):
        z, w = np.divmod(a, wo)
        expect = (g.z_additive.inv_array(z).astype(np.intp) * wo
                  + g.w_additive.inv_array(w))
        inv = g.inv_array(a)
        return (inv != expect) | (g.mul_pairs(a, inv) != 0)

    found = _first(_grid((order,)), inverse_fails)
    if found:
        raise ValueError(f"inverse law (z,w) -> (-z,-w) fails at id {found[0]}")
    ledger.claim("inverse-law", True, note="all elements")

    # centrality of the vertical subgroup
    if order <= EXHAUSTIVE_ORDER_CAP:
        pairs = _grid((wo, order))
        note = "all (vertical, element) pairs"
    else:
        pairs = _sampled(random.Random(DEFAULT_SEED + 3), SAMPLE_COUNT,
                         (wo, order))
        note = f"{SAMPLE_COUNT} sampled pairs"
    found = _first(
        pairs, lambda h, x: g.mul_pairs(h, x) != g.mul_pairs(x, h))
    if found:
        h, x = found
        raise ValueError(
            f"vertical element {h} fails to commute with element {x}")
    ledger.claim("vertical-central", True, note=note)

    # commutator identity: [a, b] = (0, 2{z_a, z_b})
    if order * order <= EXHAUSTIVE_PAIR_CAP:
        g.table()
        pairs = _grid((order, order))
        note = "all ordered pairs"
    else:
        pairs = _sampled(random.Random(DEFAULT_SEED + 4), SAMPLE_COUNT * 5,
                         (order, order))
        note = f"{SAMPLE_COUNT * 5} sampled pairs"
    wadd = g.w_additive.mul_pairs

    def commutator_differs(a, b):
        ab = g.mul_pairs(a, b)
        comm = g.mul_pairs(g.mul_pairs(ab, g.inv_array(a)), g.inv_array(b))
        p = g.pair_array(a // wo, b // wo)
        return comm != wadd(p, p)

    found = _first(pairs, commutator_differs)
    if found:
        a, b = found
        comm = g.mul(g.mul(g.mul(a, b), g.inv(a)), g.inv(b))
        raise ValueError(
            f"commutator of ids ({a}, {b}) is {comm}, not twice the pairing value")
    ledger.claim("commutator-identity", True, note=note)

    # the additive group numbers the same carrier by the same ids: its
    # mixed-radix id of the coordinates of (z, w) is z|W| + w for every id
    ids = np.arange(order)
    z, w = np.divmod(ids, wo)
    coords = [col[z] for col in g._zcols] + _digits(w, g.spec.w_prime,
                                                     g.spec.w_rank)
    ledger.claim("additive-encoding-aligned",
                 np.array_equal(g.additive_group().encode(coords), ids),
                 formula="id of (z,w) = z|W| + w in both groups")


# ---------------------------------------------------------------------------
# Splitting a small-tripling set along a normal subgroup

@dataclass
class SplitWitness:
    """Nested cores B1, B2, B3 inside H, the quotient image C, and a
    symmetrized section phi defined on C^3."""

    c: MSet
    b1: MSet
    b2: MSet
    b3: MSet
    phi: np.ndarray     # quotient id -> parent id on C^3, -1 elsewhere
    b_witnesses: tuple[ApproxGroupWitness, ...]
    ledger: ConstantLedger


def _projection(q: QuotientGroup, a: MSet) -> MSet:
    """pi(A) as a subset of the quotient."""
    return MSet.from_ids(q, q.pi[a.id_array()])


def _fiber_minima(q: QuotientGroup, ids: np.ndarray):
    """Per quotient id, the smallest of the ids in its fiber; -1 where none
    lies there."""
    out = np.full(q.order, len(q.pi), dtype=np.intp)
    np.minimum.at(out, q.pi[ids], ids)
    out[out == len(q.pi)] = -1
    return out


def _section(g, q: QuotientGroup, a: MSet, a3: MSet, c: MSet, c3: MSet):
    """The symmetrized section on C^3 and its logged exceptions.

    x takes the smallest id of its fiber (in A for x in C, in A^3 beyond);
    a self-inverse x takes the smallest self-inverse id there, or is an
    exception when there is none.  Each other x is paired with x^-1 in id
    order: the smaller of the two takes its fiber minimum, the larger the
    inverse of that.  Returns phi as an intp array over quotient ids (-1
    off C^3) and the exceptions as ascending Python ints.
    """
    def minima(ids):
        return (_fiber_minima(q, ids),
                _fiber_minima(q, ids[g.inv_array(ids) == ids]))

    in_c = member_mask(c)
    first, fixed = (np.where(in_c, from_a, from_a3) for from_a, from_a3
                    in zip(minima(a.id_array()), minima(a3.id_array())))
    xs = c3.id_array()
    xi = q.inv_array(xs)
    phi = np.full(q.order, -1, dtype=np.intp)
    lead = xs[xs < xi]
    phi[lead] = first[lead]
    phi[q.inv_array(lead)] = g.inv_array(first[lead])
    selfinv = xs[(xs == xi) & (xs != 0)]
    missing = fixed[selfinv] < 0
    phi[selfinv] = np.where(missing, first[selfinv], fixed[selfinv])
    phi[0] = 0
    return phi, selfinv[missing].tolist()


def _split_triples(cids: np.ndarray, exhaustive: bool):
    """Triples (x, y, z) of C as id arrays, in the blocks of groups: the
    _grid of all |C|^3 triples of positions in C, in itertools.product
    order, or the TRIPLE_SAMPLE_COUNT triples that _sampled draws from
    random.Random(DEFAULT_SEED), in draw order."""
    n = len(cids)
    if exhaustive:
        blocks = _grid((n, n, n))
    else:
        blocks = _sampled(random.Random(DEFAULT_SEED), TRIPLE_SAMPLE_COUNT,
                          (n, n, n))
    for block in blocks:
        yield tuple(cids[i] for i in block)


def _first_triple_defects(g, q, phi: np.ndarray, triples, *masks):
    """For each boolean mask over g, the first triple (x, y, z), in the
    order of the blocks, whose defect phi(xyz)^-1 phi(x)phi(y)phi(z) it
    misses; None where every defect lies in it."""
    found = [None] * len(masks)
    for x, y, z in triples:
        w = q.mul_pairs(q.mul_pairs(x, y), z)
        lhs = g.mul_pairs(g.mul_pairs(phi[x], phi[y]), phi[z])
        defect = g.mul_pairs(g.inv_array(phi[w]), lhs)
        for i, mask in enumerate(masks):
            missed = ~mask[defect]
            if found[i] is None and missed.any():
                t = int(np.argmax(missed))
                found[i] = (int(x[t]), int(y[t]), int(z[t]))
        if None not in found:
            break
    return found


def split_approximate(a: MSet, q: QuotientGroup, k) -> SplitWitness:
    """Split a symmetric small-tripling set along the normal subgroup H,
    given as the quotient q = G/H, whose kernel (the ids where q.pi is 0)
    is H.

    Builds C as the quotient image of A, the cores B_i as cubes of the
    even-power slices A^2, A^8, A^26 intersected with H, and a section
    phi on C^3 using smallest-id coset representatives (drawn from A on C,
    from A^3 beyond), symmetrized by pairing x with x^-1 in id order.
    Every displayed containment and counting bound is recorded as an exact
    ledger row and checked before the witness is returned.

    phi is an intp array over quotient ids (-1 off C^3).  The checks are
    array calls tested against boolean membership masks: phi(x)B_i inside
    B_{i+1}phi(x) as the conjugates phi(x)B_i phi(x)^-1 inside B_{i+1}
    (phi(x)^-1 B_i phi(x) for the right side), and the triple defects
    phi(xyz)^-1 phi(x)phi(y)phi(z) against masks of B3 and A^6 n H.  The
    triples come from _split_triples: the groups._grid of C^3, in
    itertools.product order, up to TRIPLE_EXHAUSTIVE_CAP, else the seeded
    groups._sampled draws in draw order.  Membership is decided exactly on
    ids, so every row is the one the per-element scan gives.  Only
    groups.ORDER_CAP bounds the group: the power chain stops at its first repeat.
    """
    g = a.group
    if q.parent is not g:
        raise ValueError("the quotient belongs to a different group")
    k = frac(k)
    if k < 1:
        raise ValueError("the tripling parameter must be at least 1")
    if not a.is_symmetric() or not a.contains_identity():
        raise ValueError(
            "splitting needs a symmetric set containing the identity; "
            "apply symmetrize() first")
    a3 = power_set(a, 3)
    ledger = ConstantLedger("split_approximate")
    ledger.require("tripling-hypothesis", a3.size, "<=", k * a.size,
                   formula="|A^3| <= K|A|")

    h_set = MSet.from_mask(g, q.pi == 0)
    c = _projection(q, a)
    ledger.info("size-a", a.size)
    ledger.info("size-c", c.size)

    # counting along fibers of the projection
    a2h = power_set(a, 2) & h_set
    ledger.compare("fiber-count", a.size, "<=", c.size * a2h.size,
                   formula="|A| <= |C||A^2 n H|")
    for n in (1, 2, 3):
        slice_n = power_set(a, 2 * n) & h_set
        ledger.compare(f"fiber-lower-n={n}",
                       power_set(a, 2 * n + 1).size, ">=", c.size * slice_n.size,
                       formula=f"|A^{2 * n + 1}| >= |C||A^{2 * n} n H|")

    # the nested cores and their covering witnesses
    cores: list[MSet] = []
    witnesses: list[ApproxGroupWitness] = []
    for i, n in enumerate(CORE_LEVELS, start=1):
        slice_n = power_set(a, 2 * n) & h_set
        k_i = k ** positive_power_exponent(6 * n + 1)
        wit, wled = approx_group_from_tripling(slice_n, k_i)
        ledger.merge(wled, f"b{i}.")
        core = wit.h
        ledger.claim(f"b{i}-inside-slice",
                     core <= power_set(a, 6 * n) & h_set,
                     lhs=core.size,
                     formula=f"(A^{2 * n} n H)^3 inside A^{6 * n} n H")
        cores.append(core)
        witnesses.append(wit)
    b1, b2, b3 = cores
    ledger.claim("core-nesting", b1 <= b2 and b2 <= b3,
                 formula="B1 inside B2 inside B3")
    ledger.info("size-b1", b1.size)
    ledger.info("size-b2", b2.size)
    ledger.info("size-b3", b3.size)
    ledger.compare("core-scale-gap", b3.size, "<=",
                   k ** SPLIT_NEST_EXP * b1.size,
                   formula=f"|B3| <= K^{SPLIT_NEST_EXP}|B1|")
    ledger.info("core-scale-ratio", Fraction(b3.size, b1.size),
                note="measured |B3|/|B1|")
    ledger.compare("section-size-bound", b1.size * c.size, "<=",
                   k ** SPLIT_COUNT_EXP * a.size,
                   formula=f"|B1||C| <= K^{SPLIT_COUNT_EXP}|A|")
    ledger.info("section-size-ratio", Fraction(b1.size * c.size, a.size),
                note="measured |B1||C|/|A|")

    # the section phi on C^3
    c3 = power_set(c, 3)
    phi, exceptions = _section(g, q, a, a3, c, c3)
    cids, c3_ids = c.id_array(), c3.id_array()
    sec = phi[cids]     # phi on C
    ginv, qinv = g.inv_array, q.inv_array
    a_mask, a3_mask = member_mask(a), member_mask(a3)
    ledger.claim("section-at-identity", phi[0] == 0)
    ledger.claim("section-projects-back",
                 np.array_equal(q.pi[phi[c3_ids]], c3_ids),
                 formula="pi(phi(x)) = x on C^3")
    ledger.claim("section-values-in-base",
                 a_mask[sec].all(),
                 formula="phi(x) in A for x in C")
    ledger.claim("section-values-in-cube",
                 a3_mask[phi[c3_ids]].all(),
                 formula="phi(x) in A^3 for x in C^3")
    keep = np.ones(q.order, dtype=bool)
    keep[exceptions] = False
    odd = c3_ids[keep[c3_ids]]
    ledger.claim("section-odd",
                 np.array_equal(phi[qinv(odd)], ginv(phi[odd])),
                 formula="phi(x^-1) = phi(x)^-1 off the logged exceptions")
    if exceptions:
        ledger.info("section-exceptions", len(exceptions),
                    note=f"self-inverse quotient ids with no symmetric "
                         f"representative: {exceptions[:8]}")

    # conjugation shifts each core into the next: phi(x)B_i inside
    # B_{i+1}phi(x) exactly when phi(x)B_i phi(x)^-1 lies in B_{i+1}, and
    # B_i phi(x) inside phi(x)B_{i+1} when phi(x)^-1 B_i phi(x) does
    sec_inv = ginv(sec)
    for i, (small, big) in enumerate(((b1, b2), (b2, b3)), start=1):
        ids, big_mask = small.id_array(), member_mask(big)
        left = g.mul_pairs(g.mul_outer(sec, ids), sec_inv[:, None])
        right = g.mul_pairs(g.mul_outer(sec_inv, ids), sec[:, None])
        ledger.claim(f"shift-absorb-left-i={i}", big_mask[left].all(),
                     formula=f"phi(x)B{i} inside B{i + 1}phi(x), all x in C")
        ledger.claim(f"shift-absorb-right-i={i}", big_mask[right].all(),
                     formula=f"B{i}phi(x) inside phi(x)B{i + 1}, all x in C")
    ledger.claim("fiber-cover", a <= product_set(MSet.from_ids(g, sec), b1),
                 lhs=a.size, formula="A inside the union of phi(x)B1 over C")

    # the quotiented homomorphism defect lands in B3
    a6h = power_set(a, 6) & h_set
    exhaustive = c.size <= TRIPLE_EXHAUSTIVE_CAP
    if exhaustive:
        note = f"exhaustive over |C|^3 = {c.size ** 3} triples"
    else:
        note = f"{TRIPLE_SAMPLE_COUNT} sampled triples"
    in_b3, in_slice = _first_triple_defects(
        g, q, phi, _split_triples(cids, exhaustive),
        member_mask(b3), member_mask(a6h))
    ledger.claim("triple-defect-in-b3", in_b3 is None,
                 formula="phi(x)phi(y)phi(z) in phi(xyz)B3", note=note)
    ledger.claim("triple-defect-in-slice", in_slice is None,
                 formula="the defect lies in A^6 n H", note=note)

    ledger.check()
    return SplitWitness(c=c, b1=b1, b2=b2, b3=b3, phi=phi,
                        b_witnesses=tuple(witnesses), ledger=ledger)


# ---------------------------------------------------------------------------
# The abelianized inverse witness

@dataclass
class AbelianApproxWitness:
    """An additive approximate group on the untwisted carrier that contains
    the comparison image of A and absorbs the pairing of its shadow."""

    heisen: HeisenbergGroup
    a_tilde: MSet
    b_prime: MSet
    b_tilde: MSet
    split: SplitWitness
    ledger: ConstantLedger


def hull_tripling_bound(k) -> Fraction:
    """Tripling parameter of A u {1} u A^-1 given |A^3| <= K|A|: one plus
    the sum of K^E(w) over the fourteen signed words of length at most 3."""
    k = frac(k)
    total = Fraction(1)
    for length in (1, 2, 3):
        for word in itertools.product((1, -1), repeat=length):
            total += k ** word_exponent(word)
    return total


def _dilate(a: MSet) -> MSet:
    """{2x : x in A} inside an additive group (the dilate, not the sumset)."""
    g, ids = a.group, a.id_array()
    return MSet.from_ids(g, g.mul_pairs(ids, ids))


def _pairing_image(g: HeisenbergGroup, zs) -> np.ndarray:
    """The boolean mask over W ids of {{z1, z2} : z1, z2 in zs}, from row
    blocks of pair_array."""
    zs = np.asarray(zs, dtype=np.intp)
    image = np.zeros(g.w_order, dtype=bool)
    for rows in _row_blocks(len(zs), len(zs)):
        image[g.pair_array(zs[rows, None], zs)] = True
    return image


# Exponents of the hull tripling parameter in the candidate size chain:
#   |Atilde| <= |C^3||30B' + 4B3|
#            <= (Ks^5|C|) (|X3|^187 |B3|)
#            <= Ks^5 |X3|^187 Ks^153 |B1||C|
#            <= Ks^167 |X3|^187 |A_hull|
# docs/constants.md derives every link but the first, candidate-fiber-bound,
# which it lists as underived; the chain rests on it
CANDIDATE_KS_EXP = 5 + SPLIT_NEST_EXP + SPLIT_COUNT_EXP  # 167
CANDIDATE_COVER_EXP = 187


def heisen_inverse(a: MSet, k) -> AbelianApproxWitness:
    """Abelianize a small-tripling subset of a Heisenberg group.

    Splits the symmetric hull of A along the vertical subgroup, extracts
    the vertical part f of the section, thickens the section fibers by the
    halved-difference core B' and the base core B1, and cubes the result
    into an additive approximate group containing iota(A) and closed under
    the pairing of its horizontal shadow.  Needs a vertical group with no
    element of order two, since the construction divides by two.
    """
    g = a.group
    if not isinstance(g, HeisenbergGroup):
        raise TypeError("heisen_inverse expects a subset of a Heisenberg group")
    k = frac(k)
    if k < 1:
        raise ValueError("the tripling parameter must be at least 1")
    wg = g.w_additive
    wids = np.arange(g.w_order)
    doubled = wg.mul_pairs(wids, wids)      # w -> 2w on every vertical id
    torsion = np.flatnonzero(doubled == 0)[1:]
    if len(torsion):
        raise ValueError(
            f"the vertical group has an order-two element (id {torsion[0]}); "
            "the abelianized witness needs none")
    ledger = ConstantLedger("heisen_inverse")
    ledger.claim("no-vertical-2-torsion", True,
                 note=f"all {g.w_order} vertical ids checked")
    ledger.require("tripling-hypothesis", power_set(a, 3).size, "<=", k * a.size,
                   formula="|A^3| <= K|A|")

    hull = symmetrize(a)
    ks = hull_tripling_bound(k)
    ledger.info("hull-size", hull.size, note="|A u 1 u A^-1|")
    ledger.info("hull-tripling-bound", ks, note="Ks, tripling parameter of the hull")

    split = split_approximate(hull, g.vertical, ks)
    ledger.merge(split.ledger, "split.")
    c = split.c

    # W-side sets share ids with the vertical slice of the carrier
    b1w = MSet.from_ids(wg, split.b1.id_array())
    b3w = MSet.from_ids(wg, split.b3.id_array())
    diff = product_set(b3w, inverse_set(b3w))
    b_tilde = diff & MSet.from_ids(wg, doubled)
    ledger.info("size-b-tilde", b_tilde.size, note="|(B3 - B3) n 2W|")

    three_bt = power_set(b_tilde, 3)
    b_prime = MSet.from_mask(wg, member_mask(three_bt)[doubled])
    ledger.info("size-b-prime", b_prime.size, note="|{b : 2b in 3(B3 - B3) n 2W}|")

    pair_values = np.flatnonzero(_pairing_image(g, c.id_array()))
    pair_core_ok = bool(member_mask(b_prime)[pair_values].all())
    pair_diff_ok = bool(member_mask(diff)[doubled[pair_values]].all())
    ledger.claim("pair-doubling-in-difference", pair_diff_ok,
                 formula="2{z1,z2} in B3 - B3 for z1, z2 in C")
    ledger.claim("pairing-values-in-core", pair_core_ok,
                 formula="{C,C} inside B'")

    c3 = power_set(c, 3)
    ledger.compare("shadow-cube-bound", c3.size, "<=",
                   ks ** positive_power_exponent(5) * c.size,
                   formula="|C^3| <= Ks^5|C|")

    # fiber thickening: A' = {(z, f(z) + 9B' + B1) : z in C}, with f the
    # vertical part of the section; the fibers are the rows of one outer
    # product of W, |C| x |9B' + B1| <= |Z||W| ids
    shift = product_set(power_set(b_prime, 9), b1w)
    ag = g.additive_group()
    wo = g.w_order
    cids = c.id_array()
    fibers = wg.mul_outer(split.phi[cids] % wo, shift.id_array())
    a_prime = MSet.from_ids(ag, (fibers + cids[:, None] * wo).ravel())
    ledger.claim("hull-in-thickening", g.iota(hull) <= a_prime,
                 lhs=hull.size, rhs=a_prime.size,
                 formula="the hull sits inside the thickened section")
    ledger.claim("thickening-symmetric", inverse_set(a_prime) == a_prime)

    x3_size = split.b_witnesses[2].x.size
    k_p = ks ** CANDIDATE_KS_EXP * x3_size ** CANDIDATE_COVER_EXP
    tilde_wit, tled = approx_group_from_tripling(a_prime, k_p)
    ledger.merge(tled, "abelian.")
    a_tilde = tilde_wit.h
    ledger.claim("candidate-formula",
                 a_tilde == power_set(symmetrize(a_prime), 3),
                 formula="Atilde = 3(iota(A') u {0} u -iota(A'))")
    ledger.claim("candidate-verified", tilde_wit.verified)

    # size chain for the candidate (measured covering size of B3's witness)
    combo = product_set(power_set(b_prime, 30), power_set(b3w, 4))
    twice = _dilate(combo)
    ledger.compare("dilate-count-preserved", twice.size, "==", combo.size,
                   formula="doubling is injective without 2-torsion")
    long_sum = power_set(b3w, 188)
    ledger.claim("dilated-sum-absorbed", twice <= long_sum,
                 lhs=twice.size, rhs=long_sum.size,
                 formula="2(30B' + 4B3) inside 188B3")
    ledger.compare("long-sum-cover-bound", long_sum.size, "<=",
                   x3_size ** (CANDIDATE_COVER_EXP) * b3w.size,
                   formula="|188B3| <= |X3|^187|B3|")
    ledger.compare("candidate-fiber-bound", a_tilde.size, "<=",
                   c3.size * combo.size,
                   formula="|Atilde| <= |C^3||30B' + 4B3|")
    ledger.compare("candidate-size-bound", a_tilde.size, "<=",
                   ks ** CANDIDATE_KS_EXP * x3_size ** CANDIDATE_COVER_EXP
                   * hull.size,
                   formula=f"|Atilde| <= Ks^{CANDIDATE_KS_EXP}"
                           f"|X3|^{CANDIDATE_COVER_EXP}|hull|")
    ledger.compare("hull-overhead", hull.size, "<=", 2 * a.size + 1,
                   formula="|hull| <= 2|A| + 1")
    ledger.info("candidate-ratio", Fraction(a_tilde.size, a.size),
                note="measured |Atilde|/|A|")
    ledger.info("candidate-bound-exponent",
                CANDIDATE_KS_EXP + 9 * SPLIT_NEST_EXP * CANDIDATE_COVER_EXP,
                note="worst-case exponent of Ks when |X3| is replaced by its "
                     "derived bound 2Ks^1377")

    # closure of the candidate under the pairing of its shadow
    shadow = _projection(g.vertical, a_tilde).id_array()
    include_ok = bool(
        member_mask(a_tilde)[np.flatnonzero(_pairing_image(g, shadow))].all())
    ledger.claim("pairing-closure", include_ok,
                 formula="{pi(Atilde), pi(Atilde)} inside Atilde",
                 note=f"exhaustive over {len(shadow)}^2 shadow pairs")
    ledger.claim("base-in-candidate", g.iota(a) <= a_tilde,
                 lhs=a.size, rhs=a_tilde.size,
                 formula="iota(A) inside Atilde")

    ledger.check()
    return AbelianApproxWitness(
        heisen=g, a_tilde=a_tilde, b_prime=b_prime, b_tilde=b_tilde,
        split=split, ledger=ledger,
    )


def verify_inverse_converse(witness: AbelianApproxWitness, a: MSet) -> ConstantLedger:
    """Check the converse containment iota(A^3) inside the 6-fold sumset of
    the candidate, and report the measured cardinalities.

    The 6-fold sumset bound |A^3| <= |6 Atilde| is asserted as the set
    containment; no claim is made about 6|Atilde| itself, since a 6-fold
    sumset can exceed six times the base size.
    """
    g = witness.heisen
    if a.group is not g:
        raise ValueError("the set lives in a different group than the witness")
    ledger = ConstantLedger("inverse-converse")
    a3 = power_set(a, 3)
    six_fold = power_set(witness.a_tilde, 6)
    ledger.claim("triple-product-absorbed", g.iota(a3) <= six_fold,
                 lhs=a3.size, rhs=six_fold.size,
                 formula="iota(A^3) inside the 6-fold sum of the candidate")
    ledger.info("size-a3", a3.size)
    ledger.info("size-six-fold", six_fold.size)
    ledger.info("converse-ratio", Fraction(a3.size, witness.a_tilde.size),
                note="measured |A^3|/|Atilde|")
    ledger.check()
    return ledger


# ---------------------------------------------------------------------------
# Exact splitting for genuine subgroups

@dataclass
class ExactSplit:
    """The exact splitting of a genuine subgroup: B = A n H, with the ledger
    that checks the smallest-id section on C = pi(A)."""

    b: MSet
    ledger: ConstantLedger

    @property
    def passed(self) -> bool:
        return self.ledger.hard_ok


def exact_split_oracle(a: MSet, q: QuotientGroup) -> ExactSplit:
    """Split a genuine subgroup A along H, the kernel of the quotient
    q = G/H, and verify the exact splitting laws: phi(x)B = Bphi(x), the
    quotiented homomorphism property, the fiber decomposition of A, and
    |A| = |C||B|.  A set that is not a subgroup raises with
    setops.subgroup_failure's reason."""
    g = a.group
    if q.parent is not g:
        raise ValueError("the quotient belongs to a different group")
    failure = subgroup_failure(a)
    if failure:
        raise ValueError(failure)
    b = a & MSet.from_mask(g, q.pi == 0)
    c = _projection(q, a)
    phi = _fiber_minima(q, a.id_array())
    cids, b_mask = c.id_array(), member_mask(b)
    sec = phi[cids]

    ledger = ConstantLedger("exact-split")
    # for a finite B, phi(x)B = Bphi(x) exactly when phi(x)Bphi(x)^-1 lies in B
    ledger.claim("fiber-shift-match",
                 _first_non_normalizer(g, sec, b.id_array()) is None,
                 formula="phi(x)B = Bphi(x) for all x in C")
    hom_ok = all(
        b_mask[g.mul_pairs(g.inv_array(block),
                           phi[q.mul_outer(cids[rows], cids)])].all()
        for rows, block in _product_blocks(g, sec, sec))
    ledger.claim("quotient-homomorphism", hom_ok,
                 formula="phi(xy) in phi(x)phi(y)B for all x, y in C")
    ledger.claim("fiber-decomposition",
                 product_set(MSet.from_ids(g, sec), b) == a,
                 lhs=a.size, formula="A equals the union of phi(x)B over C")
    ledger.compare("order-product", a.size, "==", c.size * b.size,
                   formula="|A| = |C||B|")
    return ExactSplit(b=b, ledger=ledger)
