"""Finite group families addressed by dense element ids.

Every group exposes ids 0..order-1 with id 0 the identity, a multiplication
oracle and an inversion oracle.  Multiplication rows are cached per left
factor for orders up to ROW_CACHE_CAP, which amounts to a lazily built dense
table; larger groups fall back to coordinate arithmetic per call.

Canonical numberings (reproducible bit for bit):
  cyclic(n)          id = residue, addition mod n
  dihedral(n)        id = r + n*s for rho^r sigma^s, 0 <= r < n, s in {0,1}
  symmetric(n)       permutations of 0..n-1 in lexicographic order (identity
                     is lexicographically first); mul(p,q) applies q then p
  sl2(p)             identity matrix first, then remaining det-1 matrices in
                     lexicographic order of (a,b,c,d)
  direct_product     mixed-radix, leftmost factor most significant
"""

from __future__ import annotations

import itertools
import random
from array import array
from dataclasses import dataclass

ORDER_CAP = 50_000
ROW_CACHE_CAP = 4096
EXHAUSTIVE_ASSOC_CAP = 512
ASSOC_SAMPLES = 100_000


class FiniteGroup:
    """Base class; subclasses implement _mul_raw and _inv_raw on ids."""

    def __init__(self, order: int, name: str):
        if order < 1:
            raise ValueError("group order must be positive")
        if order > ORDER_CAP:
            raise ValueError(f"group order {order} exceeds cap {ORDER_CAP}")
        self.order = order
        self.name = name
        self._rows: dict[int, array] = {}
        self._inv: array | None = None

    # -- subclass surface ---------------------------------------------------
    def _mul_raw(self, a: int, b: int) -> int:
        raise NotImplementedError

    def _inv_raw(self, a: int) -> int:
        raise NotImplementedError

    # -- public oracles -----------------------------------------------------
    def mul(self, a: int, b: int) -> int:
        row = self._rows.get(a)
        if row is not None:
            return row[b]
        if self.order <= ROW_CACHE_CAP:
            return self.row(a)[b]
        return self._mul_raw(a, b)

    def inv(self, a: int) -> int:
        tab = self.inv_table()
        if tab is not None:
            return tab[a]
        return self._inv_raw(a)

    def row(self, a: int) -> array | None:
        """Cached multiplication row {b -> a*b}; None above the cache cap."""
        if self.order > ROW_CACHE_CAP:
            return None
        row = self._rows.get(a)
        if row is None:
            mul = self._mul_raw
            typecode = "H" if self.order <= 65535 else "I"
            row = array(typecode, (mul(a, b) for b in range(self.order)))
            self._rows[a] = row
        return row

    def inv_table(self) -> array | None:
        if self.order > ROW_CACHE_CAP:
            return None
        if self._inv is None:
            typecode = "H" if self.order <= 65535 else "I"
            self._inv = array(
                typecode, (self._inv_raw(a) for a in range(self.order))
            )
        return self._inv

    def elements(self) -> range:
        return range(self.order)

    def conjugate(self, g: int, h: int) -> int:
        return self.mul(self.mul(g, h), self.inv(g))

    def __repr__(self):
        return f"<{self.name}: order {self.order}>"


class CyclicGroup(FiniteGroup):
    def __init__(self, n: int):
        super().__init__(n, f"cyclic({n})")
        self.n = n

    def _mul_raw(self, a, b):
        return (a + b) % self.n

    def _inv_raw(self, a):
        return (-a) % self.n


class DihedralGroup(FiniteGroup):
    """Symmetries of the regular n-gon, order 2n, n >= 1."""

    def __init__(self, n: int):
        super().__init__(2 * n, f"dihedral({n})")
        self.n = n

    def _mul_raw(self, a, b):
        n = self.n
        r1, s1 = a % n, a // n
        r2, s2 = b % n, b // n
        r = (r1 - r2) % n if s1 else (r1 + r2) % n
        return r + n * ((s1 + s2) % 2)

    def _inv_raw(self, a):
        n = self.n
        r, s = a % n, a // n
        return a if s else ((-r) % n)


class SymmetricGroup(FiniteGroup):
    def __init__(self, n: int):
        if n > 7:
            raise ValueError("symmetric(n) supported only for n <= 7")
        perms = list(itertools.permutations(range(n)))
        super().__init__(len(perms), f"symmetric({n})")
        self.n = n
        self.perms = perms
        self.index = {p: i for i, p in enumerate(perms)}

    def _mul_raw(self, a, b):
        p, q = self.perms[a], self.perms[b]
        return self.index[tuple(p[q[i]] for i in range(self.n))]

    def _inv_raw(self, a):
        p = self.perms[a]
        out = [0] * self.n
        for i, v in enumerate(p):
            out[v] = i
        return self.index[tuple(out)]


class SL2Group(FiniteGroup):
    """SL_2 over Z/pZ for prime p <= 13; order p(p^2-1)."""

    def __init__(self, p: int):
        if p > 13:
            raise ValueError("sl2(p) supported only for p <= 13")
        if not _is_prime(p):
            raise ValueError(f"sl2 needs a prime modulus, got {p}")
        ident = (1, 0, 0, 1)
        mats = [ident]
        for m in itertools.product(range(p), repeat=4):
            if m != ident and (m[0] * m[3] - m[1] * m[2]) % p == 1:
                mats.append(m)
        super().__init__(len(mats), f"sl2({p})")
        self.p = p
        self.mats = mats
        self.index = {m: i for i, m in enumerate(mats)}

    def _mul_raw(self, x, y):
        p = self.p
        a, b, c, d = self.mats[x]
        e, f, g, h = self.mats[y]
        return self.index[
            ((a * e + b * g) % p, (a * f + b * h) % p,
             (c * e + d * g) % p, (c * f + d * h) % p)
        ]

    def _inv_raw(self, x):
        p = self.p
        a, b, c, d = self.mats[x]
        return self.index[(d, (-b) % p, (-c) % p, a)]


class DirectProductGroup(FiniteGroup):
    def __init__(self, factors: list[FiniteGroup]):
        if not factors:
            raise ValueError("direct_product needs at least one factor")
        order = 1
        for f in factors:
            order *= f.order
        name = "direct_product(" + ",".join(f.name for f in factors) + ")"
        super().__init__(order, name)
        self.factors = factors

    def decode(self, a: int) -> tuple:
        coords = []
        for f in reversed(self.factors):
            a, c = divmod(a, f.order)
            coords.append(c)
        return tuple(reversed(coords))

    def encode(self, coords) -> int:
        a = 0
        for f, c in zip(self.factors, coords):
            a = a * f.order + c
        return a

    def _mul_raw(self, a, b):
        ca, cb = self.decode(a), self.decode(b)
        return self.encode(
            f.mul(x, y) for f, x, y in zip(self.factors, ca, cb)
        )

    def _inv_raw(self, a):
        return self.encode(
            f.inv(x) for f, x in zip(self.factors, self.decode(a))
        )


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    for d in range(2, int(n**0.5) + 1):
        if n % d == 0:
            return False
    return True


# ---------------------------------------------------------------------------
# GroupSpec text grammar (see docs/formats.md)

@dataclass(frozen=True)
class GroupSpec:
    text: str

    def __str__(self):
        return self.text


def construct_group(spec) -> FiniteGroup:
    """Build the group named by a GroupSpec or its text form.

    Grammar: cyclic(n) | dihedral(n) | symmetric(n) | sl2(p)
           | direct_product(spec,spec,...)
           | heisenberg(z=Zp^k,p=P;w=Zp^m,p=P;pairing=symplectic|zero)
    """
    text = spec.text if isinstance(spec, GroupSpec) else str(spec)
    text = text.strip()
    head, args = _split_call(text)
    if head == "cyclic":
        return CyclicGroup(_int_arg(args, head))
    if head == "dihedral":
        return DihedralGroup(_int_arg(args, head))
    if head == "symmetric":
        return SymmetricGroup(_int_arg(args, head))
    if head == "sl2":
        return SL2Group(_int_arg(args, head))
    if head == "direct_product":
        return DirectProductGroup(
            [construct_group(part) for part in _split_top_level(args, ",")]
        )
    if head == "heisenberg":
        from . import heisenberg

        return heisenberg.build_heisenberg(heisenberg.parse_pairing_spec(args))
    raise ValueError(f"unknown group family {head!r} in {text!r}")


def _split_call(text: str) -> tuple[str, str]:
    i = text.find("(")
    if i < 0 or not text.endswith(")"):
        raise ValueError(f"malformed group spec {text!r}")
    return text[:i].strip(), text[i + 1:-1]


def _int_arg(args: str, head: str) -> int:
    try:
        return int(args.strip())
    except ValueError:
        raise ValueError(f"{head} expects one integer argument, got {args!r}")


def _split_top_level(text: str, sep: str) -> list[str]:
    parts, depth, cur = [], 0, []
    for ch in text:
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        if ch == sep and depth == 0:
            parts.append("".join(cur).strip())
            cur = []
        else:
            cur.append(ch)
    if cur:
        parts.append("".join(cur).strip())
    return [p for p in parts if p]


# ---------------------------------------------------------------------------
# Subgroups, quotients

def subgroup_closure(g: FiniteGroup, seed) -> frozenset[int]:
    """Smallest subgroup of g containing the seed ids."""
    seed = list(seed)
    if not seed:
        raise ValueError("seed must be nonempty")
    gens = set(seed)
    gens.update(g.inv(x) for x in seed)
    members = {0}
    frontier = [0]
    while frontier:
        x = frontier.pop()
        for h in gens:
            y = g.mul(x, h)
            if y not in members:
                members.add(y)
                frontier.append(y)
    return frozenset(members)


class QuotientGroup(FiniteGroup):
    def __init__(self, parent: FiniteGroup, reps: list[int], pi: array):
        super().__init__(len(reps), f"{parent.name}/N[{len(reps)}]")
        self.parent = parent
        self.reps = reps
        self.pi = pi

    def _mul_raw(self, a, b):
        return self.pi[self.parent.mul(self.reps[a], self.reps[b])]

    def _inv_raw(self, a):
        return self.pi[self.parent.inv(self.reps[a])]


@dataclass
class NormalSubgroupView:
    """A verified normal subgroup with its quotient and projection."""

    parent: FiniteGroup
    members: frozenset[int]
    quotient: FiniteGroup
    pi: array           # parent id -> quotient id
    reps: list[int]     # quotient id -> smallest parent id in the coset

    @property
    def member_bits(self) -> int:
        bits = 0
        for x in self.members:
            bits |= 1 << x
        return bits


class NotNormalError(ValueError):
    def __init__(self, g: int, h: int, conj: int):
        super().__init__(
            f"subgroup is not normal: conjugate of member {h} by {g} "
            f"is {conj}, a non-member"
        )
        self.counterexample = (g, h, conj)


def quotient_map(g: FiniteGroup, generators_of_H) -> NormalSubgroupView:
    """Quotient by the normal closure check of <generators>; errors with a
    conjugation counterexample if the generated subgroup is not normal."""
    members = subgroup_closure(g, generators_of_H)
    for h in members:
        for x in g.elements():
            c = g.conjugate(x, h)
            if c not in members:
                raise NotNormalError(x, h, c)
    typecode = "H" if g.order <= 65535 else "I"
    pi = array(typecode, [0] * g.order)
    seen = bytearray(g.order)
    reps: list[int] = []
    member_list = sorted(members)
    for x in g.elements():
        if seen[x]:
            continue
        qid = len(reps)
        reps.append(x)
        for h in member_list:
            y = g.mul(x, h)
            seen[y] = 1
            pi[y] = qid
    quotient = QuotientGroup(g, reps, pi)
    return NormalSubgroupView(g, members, quotient, pi, reps)


# ---------------------------------------------------------------------------
# Axiom verification

def verify_group_axioms(g: FiniteGroup, seed: int = 0) -> dict:
    """Identity/inverse on all elements; associativity exhaustively for
    order <= 512, on ASSOC_SAMPLES random triples above.  Raises ValueError
    with a counterexample on failure; returns check counts on success."""
    for x in g.elements():
        if g.mul(0, x) != x or g.mul(x, 0) != x:
            raise ValueError(f"id 0 is not an identity at element {x}")
        if g.mul(x, g.inv(x)) != 0:
            raise ValueError(f"inv fails at element {x}")
        if g.inv(g.inv(x)) != x:
            raise ValueError(f"inv is not an involution at element {x}")
    n = g.order
    if n <= EXHAUSTIVE_ASSOC_CAP:
        import numpy as np

        table = np.empty((n, n), dtype=np.int64)
        for a in g.elements():
            row = g.row(a)
            dtype = np.uint16 if row.typecode == "H" else np.uint32
            table[a] = np.frombuffer(row, dtype=dtype).astype(np.int64)
        for x in g.elements():
            left = table[table[x]]        # [y,z] -> (x*y)*z
            right = table[x][table]       # [y,z] -> x*(y*z)
            if not np.array_equal(left, right):
                y, z = map(int, np.argwhere(left != right)[0])
                raise ValueError(
                    f"associativity fails at ({x},{y},{z})"
                )
        return {"elements": n, "triples": n**3, "mode": "exhaustive"}
    rng = random.Random(seed)
    for _ in range(ASSOC_SAMPLES):
        x, y, z = (rng.randrange(n) for _ in range(3))
        if g.mul(g.mul(x, y), z) != g.mul(x, g.mul(y, z)):
            raise ValueError(f"associativity fails at ({x},{y},{z})")
    return {"elements": n, "triples": ASSOC_SAMPLES, "mode": "sampled"}
