"""Finite group families addressed by dense element ids.

Every group exposes ids 0..order-1 with id 0 the identity.  Each family
states its law twice, over the same coordinate arithmetic:

  * the scalar law ``mul(a, b)``/``inv(a)`` on Python-int ids, returning
    Python ints.  It is the one per-element formula of the family and the
    oracle the vectorized law is tested against; the composite families
    (direct products, quotients, Heisenberg groups) call the scalar law of
    their factors or parent, so no oracle ever reads a table;
  * the vectorized law ``_mul_law(x, y)``/``_inv_law(x)`` on broadcastable
    numpy id arrays.  Every set operation, sweep and closure goes through
    it, via ``mul_pairs`` (elementwise), ``mul_outer`` (outer product) and
    ``inv_array``, in blocks of at most BLOCK_PAIRS products.

This module alone sets how work is blocked and sampled: every blocked sweep
in the package takes its rows from ``_row_blocks`` (or the ``(rows,
block)`` pairs of ``_product_blocks``), and every seeded sample its draws
from ``_sampled``.  Operands whose products fit one block, as those of most
small sets do, get their one pair from a single ``mul_outer`` call with no
row-block generator; larger ones are tiled by ``_row_blocks``, so no call
holds more than one block of products either way.  A search for the first
counterexample enumerates its cases with ``_grid`` (every tuple of a box,
in ``itertools.product`` order) or ``_sampled`` (seeded draws, in draw
order), whose blocks have the same shape, and names the first case that
fails with ``_first``.

At or below TABLE_CAP the group may cache the vectorized law as one dense
uint16 table, which ``_law_table`` fills from the law one row block at a
time, so the table is the law by construction.  Until it has one,
``mul_pairs`` runs the law and counts the products asked of it; the call
that brings that count to order², the cells of the table, builds the
table, and that call and every later one gather from it.  This is ski
rental: the law forms fewer than order² products before the table and
order² more in the build, and a group whose sets stay small never builds
one.  Above the cap no table exists and ``mul_pairs`` runs the law on
coordinates.  Inverses of every id sit in one array built from
``_inv_law``.  Two callers that need more products than the table holds
take it at once: a passing exhaustive axiom sweep adopts its own law
table if the group has none yet, and the exhaustive Heisenberg commutator
sweep calls ``table()`` before it starts.

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
import math
import random

import numpy as np

ORDER_CAP = 50_000      # every id fits a uint16
TABLE_CAP = 4096        # dense multiplication table at or below this order
BLOCK_PAIRS = 1 << 14   # products per vectorized call in table builds and sweeps
EXHAUSTIVE_ASSOC_CAP = 512
ASSOC_SAMPLES = 100_000


class FiniteGroup:
    """Base class.  A family implements its scalar law (mul, inv) and its
    vectorized law (_mul_law, _inv_law); the table, when there is one, is
    only a cache of the vectorized law."""

    def __init__(self, order: int, name: str):
        if order < 1:
            raise ValueError("group order must be positive")
        _require_order((order,), name, order)
        self.order = order
        self.name = name
        self._table: np.ndarray | None = None
        # products asked of the law by mul_pairs while there is no table
        self._law_products = 0
        self._inverse: np.ndarray | None = None
        # the counts of a passing exhaustive axiom sweep, which proves the
        # law once and for all
        self._axioms: dict | None = None

    # -- subclass surface ---------------------------------------------------
    def mul(self, a: int, b: int) -> int:
        """a*b for two ids, by the family's coordinate formula."""
        raise NotImplementedError

    def inv(self, a: int) -> int:
        raise NotImplementedError

    def _mul_law(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """x*y elementwise over broadcastable intp id arrays."""
        raise NotImplementedError

    def _inv_law(self, x: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    # -- table and inverses -------------------------------------------------
    def table(self) -> np.ndarray | None:
        """The dense uint16 table [a, b] -> a*b of the vectorized law,
        built by _law_table on the first call; None above TABLE_CAP.
        mul_pairs calls it once the law has been asked for order²
        products."""
        if self._table is None and self.order <= TABLE_CAP:
            self._table = _law_table(self)
        return self._table

    def _inverses(self) -> np.ndarray:
        """The uint16 array x -> x^-1 over all ids, from the law."""
        if self._inverse is None:
            self._inverse = self._inv_law(
                np.arange(self.order)).astype(np.uint16)
        return self._inverse

    # -- vectorized products ------------------------------------------------
    def mul_pairs(self, x, y) -> np.ndarray:
        """x*y elementwise over broadcastable id arrays: the law until the
        products asked of it reach order², then a table gather, the call
        that reaches it building the table; always the law above
        TABLE_CAP."""
        table = self._table
        if table is None:
            if self.order > TABLE_CAP:
                return self._law_pairs(x, y)
            self._law_products += np.broadcast(x, y).size
            if self._law_products < self.order ** 2:
                return self._law_pairs(x, y)
            table = self.table()
        # a flat take is faster than the 2-D fancy index table[x, y]
        return table.ravel().take(np.multiply(x, self.order, dtype=np.intp) + y)

    def _law_pairs(self, x, y) -> np.ndarray:
        """x*y elementwise over broadcastable id arrays, by the law."""
        return self._mul_law(np.asarray(x, dtype=np.intp),
                             np.asarray(y, dtype=np.intp))

    def mul_outer(self, xs, ys) -> np.ndarray:
        """The len(xs) x len(ys) id array [i, j] -> xs[i]*ys[j]."""
        return self.mul_pairs(np.asarray(xs)[:, None], ys)

    def inv_array(self, x) -> np.ndarray:
        """x^-1 elementwise over an id array."""
        return self._inverses()[x]

    def row(self, a: int) -> memoryview | None:
        """Table row {b -> a*b} as a uint16 memoryview; None above
        TABLE_CAP.  Only perfbench/tracer.py calls it, to count table-row
        reads; the library never does."""
        table = self.table()
        return None if table is None else memoryview(table[a])

    def elements(self) -> range:
        return range(self.order)

    def __repr__(self):
        return f"<{self.name}: order {self.order}>"


class CyclicGroup(FiniteGroup):
    @staticmethod
    def require_order(n: int) -> None:
        return _require_order((n,), f"cyclic({n})", n)

    def __init__(self, n: int):
        super().__init__(n, f"cyclic({n})")
        self.n = n

    def _mul_law(self, x, y):
        return (x + y) % self.n

    def _inv_law(self, x):
        return (-x) % self.n

    def mul(self, a, b):
        return (a + b) % self.n

    def inv(self, a):
        return (-a) % self.n


class DihedralGroup(FiniteGroup):
    """Symmetries of the regular n-gon, order 2n, n >= 1."""

    @staticmethod
    def require_order(n: int) -> None:
        return _require_order((2, n), f"dihedral({n})", 2 * n)

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

    def mul(self, a, b):
        n = self.n
        r1, s1 = a % n, a // n
        r2, s2 = b % n, b // n
        r = (r1 - r2) % n if s1 else (r1 + r2) % n
        return r + n * ((s1 + s2) % 2)

    def inv(self, a):
        n = self.n
        r, s = a % n, a // n
        return a if s else ((-r) % n)


class SymmetricGroup(FiniteGroup):
    """Permutations of 0..n-1, for n >= 0 with n! <= ORDER_CAP, so n <= 8.

    A permutation is fixed by its first n-1 images, its digits; their
    base-n value, its code (below 8^7 = 2,097,152 for n = 8), indexes the
    lookup array that ranks it.  The vectorized law keeps the images as
    int32: one column per image position, and all images row by row in one
    flat array.  Image i of p*q is p[q[i]], so each digit of the product
    is one gather from the flat images at p's row plus q[i], folded into
    the code by Horner's rule; no (..., n) array of images is formed.
    """

    @staticmethod
    def require_order(n: int) -> None:
        return _require_order(range(2, n + 1), f"symmetric({n})", f"{n}!")

    def __init__(self, n: int):
        if n < 0:
            raise ValueError(f"symmetric(n) needs n >= 0, got {n}")
        self.require_order(n)
        perms = list(itertools.permutations(range(n)))
        super().__init__(len(perms), f"symmetric({n})")
        self.n = n
        self.perms = perms
        self.index = {p: i for i, p in enumerate(perms)}
        images = np.array(perms, dtype=np.int32).reshape(len(perms), n)
        self._flat = images.ravel()
        self._columns = tuple(np.ascontiguousarray(images.T))
        self._digits = max(n - 1, 0)
        # weight of image position j in the code; the last image is no digit
        self._weight = np.zeros(n, dtype=np.int32)
        self._weight[:self._digits] = n ** np.arange(self._digits - 1, -1, -1)
        self._rank = np.zeros(n ** self._digits, dtype=np.uint16)
        self._rank[images @ self._weight] = np.arange(len(perms))

    def _mul_law(self, x, y):
        n = self.n
        rows = np.multiply(x, n, dtype=np.intp)
        code = np.zeros(np.broadcast_shapes(np.shape(x), np.shape(y)),
                        dtype=np.int32)
        for col in self._columns[:self._digits]:
            code *= n
            code += self._flat.take(rows + col.take(y))
        return self._rank.take(code)

    def _inv_law(self, x):
        # p^-1 sends p[i] to i: digit p[i] of the inverse's code is i
        code = np.zeros(np.shape(x), dtype=np.int32)
        for i, col in enumerate(self._columns):
            code += i * self._weight.take(col.take(x))
        return self._rank.take(code)

    def mul(self, a, b):
        p, q = self.perms[a], self.perms[b]
        return self.index[tuple(p[q[i]] for i in range(self.n))]

    def inv(self, a):
        p = self.perms[a]
        out = [0] * self.n
        for i, v in enumerate(p):
            out[v] = i
        return self.index[tuple(out)]


class SL2Group(FiniteGroup):
    """SL_2 over Z/pZ, p prime, of order p(p^2-1) <= ORDER_CAP: p <= 31.

    The vectorized law runs on int32 entry columns: for p <= 31 every
    intermediate a*e + b*g is below 2p^2 and every base-p code of a
    matrix is below p^4 = 923,521, far inside int32.
    """

    @staticmethod
    def require_order(p: int) -> None:
        return _require_order((p, p * p - 1), f"sl2({p})", p * (p * p - 1))

    def __init__(self, p: int):
        self.require_order(p)
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
        self._entries = tuple(np.array(mats, dtype=np.int32).T)
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

    def mul(self, x, y):
        p = self.p
        a, b, c, d = self.mats[x]
        e, f, g, h = self.mats[y]
        return self.index[
            ((a * e + b * g) % p, (a * f + b * h) % p,
             (c * e + d * g) % p, (c * f + d * h) % p)
        ]

    def inv(self, x):
        p = self.p
        a, b, c, d = self.mats[x]
        return self.index[(d, (-b) % p, (-c) % p, a)]


class DirectProductGroup(FiniteGroup):
    def __init__(self, factors: list[FiniteGroup]):
        if not factors:
            raise ValueError("direct_product needs at least one factor")
        name = "direct_product(" + ",".join(f.name for f in factors) + ")"
        super().__init__(math.prod(f.order for f in factors), name)
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

    def mul(self, a, b):
        ca, cb = self.decode(a), self.decode(b)
        return self.encode(
            f.mul(x, y) for f, x, y in zip(self.factors, ca, cb)
        )

    def inv(self, a):
        return self.encode(
            f.inv(x) for f, x in zip(self.factors, self.decode(a))
        )


def _require_order(factors, name: str, shown) -> int:
    """The order of the group `name`, the product of `factors`, which reads
    `shown`; refused as soon as a partial product passes ORDER_CAP, so each
    family states its order before it enumerates anything."""
    order = 1
    for f in factors:
        order *= f
        if order > ORDER_CAP:
            raise ValueError(f"group order {shown} of {name} exceeds cap {ORDER_CAP}")
    return order


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    for d in range(2, int(n**0.5) + 1):
        if n % d == 0:
            return False
    return True


# ---------------------------------------------------------------------------
# Group spec text grammar (see docs/formats.md)

def construct_group(text: str) -> FiniteGroup:
    """The group named by a spec text, one instance per spec within a
    process: specs that parse alike (spacing aside) share it, so sets built
    from either multiply together and its table is built once.

    Grammar: cyclic(n) | dihedral(n) | symmetric(n) | sl2(p)
           | direct_product(spec,spec,...)
           | heisenberg(z=Zp^k,p=P;w=Zp^m,p=P;pairing=symplectic|zero)
    """
    return _interned(_parse_group(text))


_GROUPS: dict[tuple, FiniteGroup] = {}     # parsed spec -> its instance

_INT_FAMILIES = {"cyclic": CyclicGroup, "dihedral": DihedralGroup,
                 "symmetric": SymmetricGroup, "sl2": SL2Group}


def _parse_group(text: str) -> tuple:
    """The hashable parsed form (family, argument) of a spec text."""
    return _parse_stated(text)[0]


def _parse_stated(text: str) -> tuple[tuple, int]:
    """The parsed form of a spec text and the group's order, stated from
    the spec, a direct product's from its factors', with nothing built."""
    text = text.strip()
    head, args = _split_call(text)
    if head in _INT_FAMILIES:
        n = _int_arg(args, head)
        return (head, n), _INT_FAMILIES[head].require_order(n)
    if head == "direct_product":
        parts = [_parse_stated(part) for part in _split_fields(args, head, ",")]
        order = math.prod(order for _, order in parts)
        return (head, tuple(key for key, _ in parts)), _require_order(
            (order,), text, order)
    if head == "heisenberg":
        from . import heisenberg

        spec = heisenberg.parse_pairing_spec(args)
        order = spec.z_prime ** spec.z_rank * spec.w_prime ** spec.w_rank
        return (head, spec), order
    raise ValueError(f"unknown group family {head!r} in {text!r}")


def _interned(key: tuple) -> FiniteGroup:
    g = _GROUPS.get(key)
    if g is None:
        head, arg = key
        if head == "direct_product":
            g = DirectProductGroup([_interned(part) for part in arg])
        elif head == "heisenberg":
            from . import heisenberg

            g = heisenberg.build_heisenberg(arg)
        else:
            g = _INT_FAMILIES[head](arg)
        _GROUPS[key] = g
    return g


def _split_call(text: str) -> tuple[str, str]:
    i = text.find("(")
    if i < 0 or not text.endswith(")"):
        raise ValueError(f"malformed group spec {text!r}")
    return text[:i].strip(), text[i + 1:-1]


def _split_fields(body: str, what: str, sep: str) -> list[str]:
    """The stripped top-level parts of `body` between the seps, outside
    parentheses: the ;-separated fields of a family body or pairing spec,
    or the entries of a list, of the thing named by `what`.  An empty body
    has no parts; an empty part is refused by its position, so it cannot
    shift the parts after it."""
    if not body.strip():
        return []
    parts, depth, cur = [], 0, []
    for ch in body:
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        if ch == sep and depth == 0:
            parts.append("".join(cur).strip())
            cur = []
        else:
            cur.append(ch)
    parts.append("".join(cur).strip())
    if "" in parts:
        noun = "field" if sep == ";" else "entry"
        raise ValueError(f"{what} {noun} {parts.index('') + 1} is empty")
    return parts


def _named_fields(fields, what: str, keys) -> dict[str, str]:
    """The key=value fields of `what` by key: each key one of `keys`, and
    given once."""
    out = {}
    for field in fields:
        key, eq, value = field.partition("=")
        key = key.strip()
        if not eq:
            raise ValueError(f"{what} expects key=value fields, got {field!r}")
        if key not in keys:
            raise ValueError(f"unknown {what} field {key!r}")
        if key in out:
            raise ValueError(f"duplicate {what} field {key!r}")
        out[key] = value.strip()
    return out


def _required(fields, key, what: str, name: str) -> str:
    """The field at `key` (a position among split fields, or a key among
    named ones), or a ValueError that names the missing field."""
    try:
        return fields[key]
    except (IndexError, KeyError):
        raise ValueError(f"{what} is missing its {name} field") from None


def _int_arg(text: str, what: str, name: str = "argument") -> int:
    """The integer of one field, or a ValueError that names its owner."""
    try:
        return int(text.strip())
    except ValueError:
        raise ValueError(f"{what} expects an integer {name}, got {text!r}") from None


# ---------------------------------------------------------------------------
# Blocked sweeps, quotients, normality.  A quotient G/H keeps pi[0] = 0, so
# H is its kernel, the ids where pi is 0; setops builds subgroups and
# quotient maps as sets.

def _row_blocks(n_rows: int, n_cols: int):
    """Slices tiling range(n_rows) in order, each of at most BLOCK_PAIRS
    cells of a row-major n_rows x n_cols sweep (one row when n_cols alone
    is more)."""
    step = max(1, BLOCK_PAIRS // n_cols)
    for lo in range(0, n_rows, step):
        yield slice(lo, min(lo + step, n_rows))


def _law_table(g: FiniteGroup) -> np.ndarray:
    """The dense uint16 table [a, b] -> a*b of g's vectorized law, filled
    over the _row_blocks of the order x order sweep."""
    n = g.order
    ids = np.arange(n)
    table = np.empty((n, n), dtype=np.uint16)
    for rows in _row_blocks(n, n):
        table[rows] = g._mul_law(ids[rows, None], ids)
    return table


def _product_blocks(g: FiniteGroup, xs: np.ndarray, ys: np.ndarray):
    """The pairs (rows, g.mul_outer(xs[rows], ys)) over the _row_blocks of
    xs x ys.  Operands whose |xs|·|ys| products fit one block get that one
    pair at once, formed by the same mul_outer but with no generator; most
    products of small sets take this path."""
    if len(xs) * len(ys) <= BLOCK_PAIRS:
        return ((slice(0, len(xs)), g.mul_outer(xs, ys)),)
    return ((rows, g.mul_outer(xs[rows], ys))
            for rows in _row_blocks(len(xs), len(ys)))


DEFAULT_SEED = 1729     # of every seeded draw whose caller names no seed


def _sampled(rng: random.Random, count: int, bounds):
    """count seeded draws, each one rng.randrange(b) per bound b in order,
    as one intp id array per bound, in blocks of at most BLOCK_PAIRS
    draws."""
    for rows in _row_blocks(count, 1):
        n = rows.stop - rows.start
        draws = [rng.randrange(b) for _ in range(n) for b in bounds]
        yield tuple(np.array(draws, dtype=np.intp).reshape(n, len(bounds)).T)


def _grid(bounds):
    """Every tuple of range(b) per bound b, in itertools.product order, as
    one intp array per bound, in blocks of at most BLOCK_PAIRS tuples."""
    for rows in _row_blocks(math.prod(bounds), 1):
        yield np.unravel_index(np.arange(rows.start, rows.stop), bounds)


def _first(blocks, bad) -> tuple[int, ...] | None:
    """The first tuple of the _grid or _sampled blocks, in block order, at
    which the boolean array bad(*block) holds, as ints; None if none."""
    for block in blocks:
        hit = bad(*block)
        if hit.any():
            i = int(np.argmax(hit))
            return tuple(int(c[i]) for c in block)
    return None


def _ids_mask(g: FiniteGroup, ids) -> np.ndarray:
    """The boolean mask over all ids of g that is True on ids."""
    mask = np.zeros(g.order, dtype=bool)
    mask[np.asarray(ids, dtype=np.intp)] = True
    return mask


def _cayley_levels(g: FiniteGroup, gens: np.ndarray):
    """Breadth-first levels from the identity in the right Cayley graph of
    gens: ascending id arrays of the elements first reached by words of
    length 0, 1, 2, ..., each level one blocked mul_outer(level, gens).  A
    level is read off its own products, the distinct ids of each block not
    seen before, so no level costs an array the size of the group."""
    seen = _ids_mask(g, [0])
    level = np.zeros(1, dtype=np.intp)
    while len(level):
        yield level
        parts = []
        for _, block in _product_blocks(g, level, gens):
            fresh = np.sort(block[~seen[block]])
            distinct = np.ones(len(fresh), dtype=bool)
            np.not_equal(fresh[1:], fresh[:-1], out=distinct[1:])
            fresh = fresh[distinct]
            seen[fresh] = True
            parts.append(fresh)
        level = parts[0] if len(parts) == 1 else np.sort(np.concatenate(parts))


class QuotientGroup(FiniteGroup):
    """G/H from the intp arrays reps (quotient id -> a parent id in the
    coset) and pi (parent id -> quotient id), with pi[0] = 0: the coset of
    the identity is quotient id 0, so H is the kernel, the ids where pi is
    0, and the quotient is all a caller needs of H."""

    def __init__(self, parent: FiniteGroup, reps: np.ndarray, pi: np.ndarray):
        super().__init__(len(reps), f"{parent.name}/N[{len(reps)}]")
        self.parent = parent
        self.reps = reps
        self.pi = pi

    def _mul_law(self, x, y):
        return self.pi[self.parent.mul_pairs(self.reps[x], self.reps[y])]

    def _inv_law(self, x):
        return self.pi[self.parent.inv_array(self.reps[x])]

    def mul(self, a, b):
        x, y = self.reps[[a, b]].tolist()
        return int(self.pi[self.parent.mul(x, y)])

    def inv(self, a):
        return int(self.pi[self.parent.inv(int(self.reps[a]))])


class NotNormalError(ValueError):
    """A subgroup with a conjugate of a member outside it."""


def _conjugates(g: FiniteGroup, x, h) -> np.ndarray:
    """x*h*x^-1 elementwise over broadcastable id arrays."""
    return g.mul_pairs(g.mul_pairs(x, h), g.inv_array(x))


def _first_non_normalizer(g: FiniteGroup, candidates, hs) -> int | None:
    """The first candidate x with xHx^-1 != H, by one sweep of the
    conjugates of H, given by its ascending id array hs; None if every
    candidate normalizes H."""
    xs = np.asarray(candidates, dtype=np.intp)
    mask = _ids_mask(g, hs)
    found = _first(_grid((len(xs), len(hs))),
                   lambda i, j: ~mask[_conjugates(g, xs[i], hs[j])])
    return None if found is None else int(xs[found[0]])


def _raise_first_escape(g: FiniteGroup, hs: np.ndarray):
    """Raise NotNormalError on the first conjugate x*h*x^-1 outside H, given
    by its ascending id array hs, with h ascending, then x ascending, from
    one sweep over all x."""
    mask = _ids_mask(g, hs)
    j, x = _first(_grid((len(hs), g.order)),
                  lambda j, x: ~mask[_conjugates(g, x, hs[j])])
    h = int(hs[j])
    raise NotNormalError(
        f"subgroup is not normal: conjugate of member {h} by {x} "
        f"is {int(_conjugates(g, x, h))}, a non-member")


# ---------------------------------------------------------------------------
# Axiom verification

def _light_generators(table: np.ndarray) -> list[int] | None:
    """Generators of all ids under the law table, each put to Light's test
    L[L[:, s]] == L[:, L[s]] as it is picked; None at the first that fails.
    The next generator is the smallest id not yet reached.  The reached
    set starts as {0} and grows to R u R*R, read from the table, until it
    stops.  Good ids multiply associatively, so each round doubles the
    word length reached, and each generator s at least doubles the reached
    set (R*s lies outside R and x -> x*s is one to one)."""
    reached = np.zeros(len(table), dtype=bool)
    reached[0] = True
    gens = []
    while not reached.all():
        s = int(np.argmin(reached))
        if not np.array_equal(table[table[:, s]], table[:, table[s]]):
            return None
        gens.append(s)
        reached[s] = True
        grown = True
        while grown:
            r = np.flatnonzero(reached)
            reached[table[np.ix_(r, r)]] = True
            grown = np.count_nonzero(reached) > len(r)
    return gens


def verify_group_axioms(g: FiniteGroup, seed: int = 0) -> dict:
    """Identity/inverse on all elements; associativity exhaustively for
    order <= EXHAUSTIVE_ASSOC_CAP, on ASSOC_SAMPLES random triples above.
    Each check reads the law as whole arrays.  Raises ValueError with the
    first counterexample in element (or sample) order; returns check
    counts on success.

    The exhaustive branch reads the n x n law table L, the group's table
    if it has one and _law_table(g) otherwise, and proves all n^3 triples
    by Light's test: call s good when (x*s)*z = x*(s*z) for all x, z, that
    is L[L[:, s]] == L[:, L[s]].  If s and t are good, so is s*t:
        (x*(s*t))*z = ((x*s)*t)*z     s good
                    = (x*s)*(t*z)     t good
                    = x*(s*(t*z))     s good
                    = x*((s*t)*z)     t good.
    The identity is good, so when every id of _light_generators(L) is good
    every id is, which is associativity.  Only when one is not does the
    sweep scan x by x to name the first failing triple.  After a passing
    sweep L is the group's table if it has none yet, and later calls
    return that sweep's counts without sweeping again."""
    if g._axioms is not None:
        return dict(g._axioms)
    n = g.order
    ids = np.arange(n)
    inv = g.inv_array(ids)
    checks = (
        ((g._law_pairs(0, ids) != ids) | (g._law_pairs(ids, 0) != ids),
         "id 0 is not an identity at element {}"),
        (g._law_pairs(ids, inv) != 0, "inv fails at element {}"),
        (g.inv_array(inv) != ids, "inv is not an involution at element {}"),
    )
    bad = np.logical_or.reduce([mask for mask, _ in checks])
    if bad.any():
        x = int(np.argmax(bad))
        raise ValueError(next(msg for mask, msg in checks if mask[x]).format(x))
    if n <= EXHAUSTIVE_ASSOC_CAP:
        table = g._table if g._table is not None else _law_table(g)
        if _light_generators(table) is None:
            found = _first(_grid((n, n, n)), lambda x, y, z:
                           table[table[x, y], z] != table[x, table[y, z]])
            raise ValueError("associativity fails at ({},{},{})".format(*found))
        if g._table is None and n <= TABLE_CAP:
            g._table = table
        g._axioms = {"elements": n, "triples": n**3, "mode": "exhaustive"}
        return dict(g._axioms)
    law = g._law_pairs
    found = _first(_sampled(random.Random(seed), ASSOC_SAMPLES, (n, n, n)),
                   lambda x, y, z: law(law(x, y), z) != law(x, law(y, z)))
    if found:
        raise ValueError("associativity fails at ({},{},{})".format(*found))
    return {"elements": n, "triples": ASSOC_SAMPLES, "mode": "sampled"}
