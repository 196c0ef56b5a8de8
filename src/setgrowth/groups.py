"""Finite group families addressed by dense element ids.

Every group exposes ids 0..order-1 with id 0 the identity.  Each family
defines its law once, vectorized: ``_mul_law(x, y)`` multiplies two
broadcastable numpy id arrays elementwise and ``_inv_law(x)`` inverts one,
both by the family's coordinate arithmetic.  Everything else reads that law:

  * at or below TABLE_CAP the group builds one dense uint16 multiplication
    table from the law on first use, in row blocks of at most BLOCK_PAIRS
    products; ``mul_outer``, ``mul_pairs`` and the scalar ``mul`` read it;
  * above TABLE_CAP no table exists and the vectorized calls run the law
    on coordinates, while the scalar ``mul`` calls ``_mul_raw``;
  * inverses of every id sit in one array built from ``_inv_law``.

``_mul_raw``/``_inv_raw`` are the per-element coordinate formulas: the
brute-force oracle the vectorized law is tested against, and the scalar
multiplication above the cap.  The scalar ``mul``, ``inv`` and ``row(a)[b]``
return Python ints.

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

import numpy as np

ORDER_CAP = 50_000      # every id fits a uint16
TABLE_CAP = 4096        # dense multiplication table at or below this order
BLOCK_PAIRS = 1 << 14   # products per vectorized call in table builds and sweeps
EXHAUSTIVE_ASSOC_CAP = 512
ASSOC_SAMPLES = 100_000


class FiniteGroup:
    """Base class; subclasses implement the vectorized law (_mul_law,
    _inv_law) and the scalar oracles (_mul_raw, _inv_raw)."""

    def __init__(self, order: int, name: str):
        if order < 1:
            raise ValueError("group order must be positive")
        if order > ORDER_CAP:
            raise ValueError(f"group order {order} exceeds cap {ORDER_CAP}")
        self.order = order
        self.name = name
        self._table: np.ndarray | None = None
        self._cells: memoryview | None = None     # 2-D view of _table
        self._inverse: np.ndarray | None = None
        self._inv_cells: memoryview | None = None

    # -- subclass surface ---------------------------------------------------
    def _mul_law(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """x*y elementwise over broadcastable intp id arrays."""
        raise NotImplementedError

    def _inv_law(self, x: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def _mul_raw(self, a: int, b: int) -> int:
        raise NotImplementedError

    def _inv_raw(self, a: int) -> int:
        raise NotImplementedError

    # -- table and inverses -------------------------------------------------
    def table(self) -> np.ndarray | None:
        """The dense uint16 table [a, b] -> a*b, built from the law on first
        use in row blocks of at most BLOCK_PAIRS products; None above
        TABLE_CAP."""
        if self._table is None and self.order <= TABLE_CAP:
            n = self.order
            table = np.empty((n, n), dtype=np.uint16)
            ys = np.arange(n)
            step = max(1, BLOCK_PAIRS // n)
            for r in range(0, n, step):
                xs = np.arange(r, min(r + step, n))
                table[r:r + step] = self._mul_law(xs[:, None], ys)
            self._table = table
            self._cells = memoryview(table)
        return self._table

    def _inverses(self) -> np.ndarray:
        """The uint16 array x -> x^-1 over all ids, from the law."""
        if self._inverse is None:
            inverse = self._inv_law(np.arange(self.order)).astype(np.uint16)
            self._inverse = inverse
            self._inv_cells = memoryview(inverse)
        return self._inverse

    # -- vectorized products ------------------------------------------------
    def mul_pairs(self, x, y) -> np.ndarray:
        """x*y elementwise over broadcastable id arrays: a table gather at
        or below TABLE_CAP, the coordinate law above it."""
        table = self.table()
        if table is not None:
            # a flat take is faster than the 2-D fancy index table[x, y]
            flat = np.multiply(x, self.order, dtype=np.intp) + y
            return table.ravel().take(flat)
        return self._mul_law(np.asarray(x, dtype=np.intp),
                             np.asarray(y, dtype=np.intp))

    def mul_outer(self, xs, ys) -> np.ndarray:
        """The len(xs) x len(ys) id array [i, j] -> xs[i]*ys[j]."""
        return self.mul_pairs(np.asarray(xs)[:, None], ys)

    def inv_array(self, x) -> np.ndarray:
        """x^-1 elementwise over an id array."""
        return self._inverses()[x]

    # -- scalar products (Python ints) --------------------------------------
    def mul(self, a: int, b: int) -> int:
        cells = self._cells
        if cells is not None:
            return cells[a, b]
        if self.order > TABLE_CAP:
            return self._mul_raw(a, b)
        self.table()
        return self._cells[a, b]

    def inv(self, a: int) -> int:
        cells = self._inv_cells
        if cells is None:
            self._inverses()
            cells = self._inv_cells
        return cells[a]

    def row(self, a: int) -> memoryview | None:
        """Table row {b -> a*b} as a memoryview of Python ints; None above
        TABLE_CAP."""
        table = self.table()
        return None if table is None else memoryview(table[a])

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

    def _mul_law(self, x, y):
        return (x + y) % self.n

    def _inv_law(self, x):
        return (-x) % self.n

    def _mul_raw(self, a, b):
        return (a + b) % self.n

    def _inv_raw(self, a):
        return (-a) % self.n


class DihedralGroup(FiniteGroup):
    """Symmetries of the regular n-gon, order 2n, n >= 1."""

    def __init__(self, n: int):
        super().__init__(2 * n, f"dihedral({n})")
        self.n = n

    def _mul_law(self, x, y):
        n = self.n
        r1, s1 = x % n, x // n
        r2, s2 = y % n, y // n
        r = np.where(s1 == 1, r1 - r2, r1 + r2) % n
        return r + n * ((s1 + s2) % 2)

    def _inv_law(self, x):
        return np.where(x >= self.n, x, (-x) % self.n)

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
        self._images = np.array(perms, dtype=np.intp).reshape(len(perms), n)
        # A permutation is fixed by its first n-1 images; their base-n value
        # indexes the lookup array that ranks it.
        self._digits = max(n - 1, 0)
        self._radix = n ** np.arange(self._digits - 1, -1, -1)
        self._rank = np.zeros(n ** self._digits, dtype=np.uint16)
        self._rank[self._images[:, :self._digits] @ self._radix] = np.arange(
            len(perms))

    def _mul_law(self, x, y):
        n, digits = self.n, self._digits
        # image i of p*q is p[q[i]], read from the flattened image array
        composed = self._images.ravel()[
            x[..., None] * n + self._images[y][..., :digits]]
        return self._rank[composed @ self._radix]

    def _inv_law(self, x):
        inverse = np.argsort(self._images[x], axis=-1)[..., :self._digits]
        return self._rank[inverse @ self._radix]

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
        # entry columns a, b, c, d, and the id of each base-p code of a matrix
        self._entries = tuple(np.array(mats, dtype=np.intp).T)
        self._ids = np.zeros(p**4, dtype=np.uint16)
        self._ids[self._code(*self._entries)] = np.arange(len(mats))

    def _code(self, a, b, c, d):
        p = self.p
        return ((a * p + b) * p + c) * p + d

    def _mul_law(self, x, y):
        p = self.p
        a, b, c, d = (col[x] for col in self._entries)
        e, f, g, h = (col[y] for col in self._entries)
        return self._ids[self._code(
            (a * e + b * g) % p, (a * f + b * h) % p,
            (c * e + d * g) % p, (c * f + d * h) % p)]

    def _inv_law(self, x):
        p = self.p
        a, b, c, d = (col[x] for col in self._entries)
        return self._ids[self._code(d, (-b) % p, (-c) % p, a)]

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

    def decode(self, a):
        """Factor coordinates of an id, or of each id of an array."""
        coords = []
        for f in reversed(self.factors):
            a, c = divmod(a, f.order)
            coords.append(c)
        return tuple(reversed(coords))

    def encode(self, coords):
        a = 0
        for f, c in zip(self.factors, coords):
            a = a * f.order + c
        return a

    def _mul_law(self, x, y):
        return self.encode(
            f.mul_pairs(cx, cy).astype(np.intp)
            for f, cx, cy in zip(self.factors, self.decode(x), self.decode(y)))

    def _inv_law(self, x):
        return self.encode(
            f.inv_array(c).astype(np.intp)
            for f, c in zip(self.factors, self.decode(x)))

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
        self._reps = np.asarray(reps, dtype=np.intp)
        self._pi = np.asarray(pi)

    def _mul_law(self, x, y):
        return self._pi[self.parent.mul_pairs(self._reps[x], self._reps[y])]

    def _inv_law(self, x):
        return self._pi[self.parent.inv_array(self._reps[x])]

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
    order <= 512, on ASSOC_SAMPLES random triples above.  Each law is
    checked as whole arrays: table reads at or below TABLE_CAP, the
    coordinate law above.  Raises ValueError with the first counterexample
    in element (or sample) order; returns check counts on success."""
    n = g.order
    ids = np.arange(n)
    inv = g.inv_array(ids)
    checks = (
        ((g.mul_pairs(0, ids) != ids) | (g.mul_pairs(ids, 0) != ids),
         "id 0 is not an identity at element {}"),
        (g.mul_pairs(ids, inv) != 0, "inv fails at element {}"),
        (g.inv_array(inv) != ids, "inv is not an involution at element {}"),
    )
    bad = np.logical_or.reduce([mask for mask, _ in checks])
    if bad.any():
        x = int(np.argmax(bad))
        raise ValueError(next(msg for mask, msg in checks if mask[x]).format(x))
    if n <= EXHAUSTIVE_ASSOC_CAP:
        table = g.table()           # EXHAUSTIVE_ASSOC_CAP <= TABLE_CAP
        yz = table.astype(np.intp)  # [y,z] -> y*z
        for x in range(n):
            bad = table[table[x]] != table[x][yz]   # (x*y)*z vs x*(y*z)
            if bad.any():
                y, z = np.unravel_index(np.argmax(bad), bad.shape)
                raise ValueError(f"associativity fails at ({x},{y},{z})")
        return {"elements": n, "triples": n**3, "mode": "exhaustive"}
    rng = random.Random(seed)
    for lo in range(0, ASSOC_SAMPLES, BLOCK_PAIRS):
        count = min(BLOCK_PAIRS, ASSOC_SAMPLES - lo)
        x, y, z = np.array(
            [rng.randrange(n) for _ in range(3 * count)]).reshape(count, 3).T
        bad = (g.mul_pairs(g.mul_pairs(x, y), z)
               != g.mul_pairs(x, g.mul_pairs(y, z)))
        if bad.any():
            i = int(np.argmax(bad))
            raise ValueError(f"associativity fails at ({x[i]},{y[i]},{z[i]})")
    return {"elements": n, "triples": ASSOC_SAMPLES, "mode": "sampled"}
