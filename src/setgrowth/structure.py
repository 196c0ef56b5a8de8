"""Covering lemma, approximate-group witnesses, and the small-doubling
classification pipeline.

All set arithmetic is on the array path: covers and cores scan translates
in ``mul_outer`` calls over the row blocks that ``groups._row_blocks`` sets.
``tripling_chain`` forms one product per distinct (set, sign), exact because
a product depends only on its two operand sets (MSets hash by their ids);
``approx_group_from_tripling`` takes all powers of H0 from one chain, and
``classify_small_doubling`` reads A·A⁻¹ and H off the results of the core
and witness steps.

Every quantitative conclusion is recorded as a ledger row holding the exact
integers (or rationals) on both sides of the inequality, so a suite run can
re-check each bound with no floating-point slack.  Hard rows are theorem
conclusions: a failing hard row means the implementation is wrong, and
``ConstantLedger.check`` raises.  Every premise goes through
``ConstantLedger.require``: its row keeps the kind it is recorded with (hard,
or soft for the two local-product premises), and a false premise raises
ValueError with the ledger title and that row.  Info rows carry sizes and
ratios for the report.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from typing import NamedTuple

import numpy as np

from .constants import (
    CLASSIFY_A_COVER_CONST,
    CLASSIFY_A_COVER_EXP,
    CLASSIFY_B_COVER_CONST,
    CLASSIFY_B_COVER_EXP,
    CLASSIFY_CORE_DOUBLING_EXP,
    CLASSIFY_H_CONST,
    CLASSIFY_H_EXP,
    CLASSIFY_S_TRIPLING_CONST,
    CLASSIFY_S_TRIPLING_EXP,
    LOCAL_TRIPLING_CONST,
    LOCAL_TRIPLING_EXP,
    chain_exponent,
    cover_poly_value,
    positive_power_exponent,
    word_exponent,
)
from .exact import frac, render_value
from .groups import _row_blocks
from .setops import (
    MSet,
    _require_same_group,
    ascending_powers,
    inverse_set,
    member_mask,
    power_set,
    product_set,
    symmetrize,
    translate_right,
)

_RELS = {
    "<=": lambda a, b: a <= b,
    ">=": lambda a, b: a >= b,
    "<": lambda a, b: a < b,
    ">": lambda a, b: a > b,
    "==": lambda a, b: a == b,
}


class LedgerRow(NamedTuple):
    """One exact check with its sides as computed; rel == "" marks a claim
    (a verdict, sides optional) or an info row (holds is None)."""

    name: str
    kind: str  # "hard" | "soft" | "info"
    lhs: object
    rel: str
    rhs: object
    holds: bool | None
    formula: str = ""
    note: str = ""

    @property
    def failed(self) -> bool:
        """The one pass/fail rule: a hard or soft row whose check is false."""
        return self.kind != "info" and self.holds is False

    def line(self) -> str:
        if self.holds is None:
            return f"[info] {self.name}: {render_value(self.lhs)} {self.note}".rstrip()
        verdict = "ok" if self.holds else "FAIL"
        if not self.rel:
            text = f"[{self.kind}] {self.name}: {verdict}"
            if self.lhs is not None:
                text += f" [{render_value(self.lhs)} vs {render_value(self.rhs)}]"
        else:
            text = (
                f"[{self.kind}] {self.name}: {render_value(self.lhs)} {self.rel} "
                f"{render_value(self.rhs)} {verdict}"
            )
        if self.formula:
            text += f" ({self.formula})"
        return text


class LedgerError(RuntimeError):
    """A hard ledger row failed; carries the failing rows."""

    def __init__(self, title: str, failures: list[LedgerRow]):
        self.failures = failures
        detail = "; ".join(row.line() for row in failures[:4])
        super().__init__(f"{title}: {len(failures)} hard row(s) failed: {detail}")


class ConstantLedger:
    """Ordered list of exact inequality rows for one operation run."""

    def __init__(self, title: str):
        self.title = title
        self.rows: list[LedgerRow] = []

    def compare(self, name, lhs, rel, rhs, kind="hard", formula="", note="") -> bool:
        holds = _RELS[rel](lhs, rhs)
        self.rows.append(LedgerRow(name, kind, lhs, rel, rhs, holds, formula, note))
        return holds

    def require(self, name, lhs, rel, rhs, kind="hard", formula="") -> None:
        """Record a premise as compare does; a false one raises ValueError
        with the ledger title and the row."""
        if not self.compare(name, lhs, rel, rhs, kind, formula):
            raise ValueError(f"{self.title}: {self.rows[-1].line()}")

    def claim(self, name, holds, kind="hard", lhs=None, rhs=None, formula="", note="") -> bool:
        self.rows.append(
            LedgerRow(name, kind, lhs, "", rhs, bool(holds), formula, note))
        return bool(holds)

    def info(self, name, value, note="") -> None:
        self.rows.append(LedgerRow(name, "info", value, "", None, None, "", note))

    def merge(self, other: "ConstantLedger", prefix: str) -> None:
        self.rows.extend(row._replace(name=prefix + row.name)
                         for row in other.rows)

    def failures(self) -> list[LedgerRow]:
        return [r for r in self.rows if r.kind == "hard" and r.failed]

    @property
    def hard_ok(self) -> bool:
        return not self.failures()

    def check(self) -> "ConstantLedger":
        bad = self.failures()
        if bad:
            raise LedgerError(self.title, bad)
        return self

    def lines(self) -> list[str]:
        return [f"# {self.title}"] + [row.line() for row in self.rows]


def _translate_rows(a: MSet, xs: np.ndarray, side: str):
    """Yield (block, rows) over the _row_blocks of xs x A: row j holds
    A·block[j] for side="left" and block[j]·A for side="right"."""
    g, ids = a.group, a.id_array()
    for rows in _row_blocks(len(xs), a.size):
        block = xs[rows]
        yield block, (g.mul_outer(ids, block).T if side == "left"
                      else g.mul_outer(block, ids))


def ruzsa_cover(a: MSet, b: MSet, side: str = "left") -> MSet:
    """Greedy maximal family of disjoint translates of `a` rooted in `b`.

    side="left": translates a·x for x in b, scanned in ascending id order.
    The returned X ⊆ b satisfies b ⊆ a⁻¹·a·X and |X|·|a| ≤ |a·b|.
    side="right" mirrors: translates x·a, b ⊆ X·a·a⁻¹, |X|·|a| ≤ |b·a|.
    """
    _require_same_group(a, b)
    if side not in ("left", "right"):
        raise ValueError(f"side must be 'left' or 'right', got {side!r}")
    chosen: list[int] = []
    used = np.zeros(a.group.order, dtype=bool)
    for block, rows in _translate_rows(a, b.id_array(), side):
        for x, row in zip(block.tolist(), rows):
            if not used[row].any():
                chosen.append(x)
                used[row] = True
    return MSet.from_ids(a.group, chosen)


class ApproxGroupWitness(NamedTuple):
    """A pair (H, X) with the covering constant K and per-clause results."""

    h: MSet
    x: MSet
    k: Fraction
    checks: tuple[tuple[str, bool], ...]
    violations: tuple[str, ...]

    @property
    def verified(self) -> bool:
        return all(ok for _, ok in self.checks)


def verify_approx_group(h: MSet, x: MSet, k) -> ApproxGroupWitness:
    """Exact check of the covering-pair clauses; violations are results."""
    return _check_covering_pair(h, x, k, product_set(h, h))


def _check_covering_pair(h: MSet, x: MSet, k, h2: MSet) -> ApproxGroupWitness:
    """verify_approx_group with H·H already formed as h2."""
    k = frac(k)
    _require_same_group(h, x)
    checks: list[tuple[str, bool]] = []
    violations: list[str] = []

    def clause(name: str, ok: bool, detail: str) -> None:
        checks.append((name, ok))
        if not ok:
            violations.append(f"{name}: {detail}")

    clause("h-symmetric", h.is_symmetric(), "H != H^-1")
    clause("h-contains-identity", h.contains_identity(), "identity not in H")
    clause("x-symmetric", x.is_symmetric(), "X != X^-1")
    missing = [i for i in x.ids() if i not in h2]
    clause("x-inside-h2", not missing,
           f"element {missing[0] if missing else '?'} of X outside H·H")
    clause("x-small", x.size <= k, f"|X| = {x.size} > K = {k}")
    xh = product_set(x, h)
    missing = [i for i in h2.ids() if i not in xh]
    clause("h2-in-xh", not missing,
           f"product element {missing[0] if missing else '?'} outside X·H")
    hx = product_set(h, x)
    missing = [i for i in h2.ids() if i not in hx]
    clause("h2-in-hx", not missing,
           f"product element {missing[0] if missing else '?'} outside H·X")
    return ApproxGroupWitness(h, x, k, tuple(checks), tuple(violations))


def _witness_power_rows(wit: ApproxGroupWitness, ledger: ConstantLedger,
                        h0_pows: dict[int, MSet]) -> None:
    """H^n = H0^(3n) ⊆ X^(n-1)·H for n = 3, 4, asserted by direct computation.
    X² and X³ come from the power chain of X."""
    h, x = wit.h, wit.x
    xpows = dict(enumerate(ascending_powers(x, 3), start=1))
    for n in (3, 4):
        hn = h0_pows[3 * n]
        cover = product_set(xpows[n - 1], h)
        ledger.claim(f"power-n={n}", hn <= cover,
                     lhs=hn.size, rhs=cover.size,
                     formula=f"H^{n} subset X^{n - 1}·H")


def approx_group_from_tripling(a: MSet, k) -> tuple[ApproxGroupWitness, ConstantLedger]:
    """Build the covering pair (H, X) with H = (A ∪ {1} ∪ A⁻¹)³ from the
    tripling hypothesis |A³| ≤ K|A|.  Every power of H0 = A ∪ {1} ∪ A⁻¹
    comes from one chain, which also gives A³ when H0 = A."""
    k = frac(k)
    ledger = ConstantLedger("approx_group_from_tripling")
    h0 = symmetrize(a)
    pows = dict(enumerate(ascending_powers(h0, 12), start=1))
    symmetric_input = h0 == a
    a3 = pows[3] if symmetric_input else power_set(a, 3)
    ledger.require("tripling-hypothesis", a3.size, "<=", k * a.size,
                   formula="|A^3| <= K|A|")
    h, h2, h7 = pows[3], pows[6], pows[7]
    ledger.info("size-a", a.size)
    ledger.info("size-h0", h0.size)
    ledger.info("size-h", h.size)
    ledger.info("size-h2", h2.size)

    if symmetric_input:
        h7_bound = k ** positive_power_exponent(7) * a.size
        h7_formula = "K^9|A|, symmetric input"
    else:
        h7_bound = cover_poly_value(k) * a.size
        h7_formula = "P7(K)|A|"
    ledger.compare("h0-seventh-power", h7.size, "<=", h7_bound, formula=h7_formula)

    y = ruzsa_cover(h0, h2, side="left")
    ledger.compare("cover-count", y.size * h0.size, "<=", h7.size,
                   formula="|Y||H0| <= |H0·H0^6|")
    y_bound = h7_bound / h0.size
    ledger.compare("cover-size", y.size, "<=", y_bound,
                   formula="|Y| <= bound(|H0^7|)/|H0|")
    x = y.union(inverse_set(y))
    ledger.compare("x-size", x.size, "<=", 2 * y_bound, formula="|X| <= 2|Y|-bound")
    ledger.info("size-x", x.size)

    wit = _check_covering_pair(h, x, Fraction(x.size), h2)
    for name, ok in wit.checks:
        ledger.claim(f"witness-{name}", ok)
    ledger.claim("a-in-h", a <= h, lhs=a.size, rhs=h.size, formula="A subset H")
    _witness_power_rows(wit, ledger, pows)
    ledger.compare("tripling-from-witness", a3.size, "<=", x.size ** 2 * h.size,
                   formula="|A^3| <= |X|^2|H|")
    ledger.check()
    return wit, ledger


_SIGN_CHAR = {1: "+", -1: "-"}


def tripling_chain(a: MSet, k, n: int = 6) -> ConstantLedger:
    """Verify |A^(ε1)···A^(εm)| ≤ K^E(w)|A| for every sign pattern of
    length m ≤ n, plus the per-length and overall chain exponents."""
    k = frac(k)
    if not 1 <= n <= 6:
        raise ValueError("chain length must be between 1 and 6")
    ledger = ConstantLedger("tripling_chain")
    factor = {1: a, -1: inverse_set(a)}
    times = cache(lambda s, sign: product_set(s, factor[sign]))
    a3 = times(times(a, 1), 1)
    ledger.require("tripling-hypothesis", a3.size, "<=", k * a.size,
                   formula="|A^3| <= K|A|")
    level: dict[tuple, MSet] = {(1,): factor[1], (-1,): factor[-1]}
    bound = cache(lambda e: k ** e * a.size)
    overall_max = 0
    for length in range(1, n + 1):
        length_max = 0
        for word in sorted(level, key=lambda w: [0 if s == 1 else 1 for s in w]):
            current = level[word]
            text = "".join(_SIGN_CHAR[s] for s in word)
            e = word_exponent(word)
            ledger.compare(f"pattern:{text}", current.size, "<=", bound(e),
                           formula=f"K^{e}|A|")
            length_max = max(length_max, current.size)
        ledger.compare(f"length-{length}-max", length_max, "<=",
                       bound(chain_exponent(length)),
                       formula=f"K^c({length})|A|, c({length})={chain_exponent(length)}")
        overall_max = max(overall_max, length_max)
        if length < n:
            level = {
                word + (sign,): times(current, sign)
                for word, current in level.items()
                for sign in (1, -1)
            }
    ledger.compare("chain-max", overall_max, "<=",
                   bound(chain_exponent(n)),
                   formula=f"K^c({n})|A|, c({n})={chain_exponent(n)}")
    return ledger.check()


class SymmetricCore(NamedTuple):
    """High-overlap translate set S of a small-doubling set A, with the
    difference set A·A⁻¹ that its hypothesis measures."""

    s: MSet
    difference: MSet


def symmetric_core(a: MSet, k, n_max: int = 3) -> tuple[SymmetricCore, ConstantLedger]:
    """S := {x : 2K|A ∩ A·x| > |A|} under the hypothesis |A·A⁻¹| ≤ K|A|."""
    k = frac(k)
    ledger = ConstantLedger("symmetric_core")
    a_inv = inverse_set(a)
    aa_inv = product_set(a, a_inv)
    ledger.require("doubling-hypothesis", aa_inv.size, "<=", k * a.size,
                   formula="|A·A^-1| <= K|A|")
    p, q = k.numerator, k.denominator
    candidates = product_set(a_inv, a)
    a_mask = member_mask(a)
    members = [x for block, rows in _translate_rows(a, candidates.id_array(), "left")
               for x, overlap in zip(block.tolist(), a_mask[rows].sum(axis=1).tolist())
               if 2 * p * overlap > q * a.size]
    s = MSet.from_ids(a.group, members)

    ledger.claim("core-identity", s.contains_identity(), formula="1 in S")
    ledger.claim("core-symmetric", s.is_symmetric(), formula="S = S^-1")
    ledger.claim("core-support", s <= candidates, formula="S subset A^-1·A")
    ledger.compare("core-size", 2 * p * s.size, ">=", q * a.size,
                   formula="2K|S| >= |A|, cleared")
    left = a
    for n in range(1, n_max + 1):
        left = product_set(left, s)
        grown = product_set(left, a_inv)
        ledger.compare(f"growth-n={n}", grown.size, "<=",
                       2**n * k ** (2 * n + 1) * a.size,
                       formula=f"2^{n} K^{2 * n + 1}|A|")
    return SymmetricCore(s, aa_inv), ledger.check()


def classify_small_doubling(a: MSet, b: MSet, k) -> tuple[ApproxGroupWitness, MSet, ConstantLedger]:
    """From |A·B|² ≤ K²|A||B|, produce (H, X) with A ⊆ X·H and B ⊆ H·X.

    The pipeline follows the constructive proof: symmetric core S of A at
    parameter K², the covering pair on H := S³, then one cover of A and one
    of B⁻¹ by translates of H, glued through the witness covering set.
    """
    k = frac(k)
    ledger = ConstantLedger("classify_small_doubling")
    ab = product_set(a, b)
    ledger.require("doubling-hypothesis", ab.size**2, "<=",
                   k**2 * a.size * b.size, formula="|A·B|^2 <= K^2|A||B|")
    ledger.compare("k-at-least-one", Fraction(1), "<=", k, formula="K >= 1")

    core_k = k**CLASSIFY_CORE_DOUBLING_EXP
    s_k = CLASSIFY_S_TRIPLING_CONST * k**CLASSIFY_S_TRIPLING_EXP
    core, core_ledger = symmetric_core(a, core_k)
    s = core.s
    wit, wit_ledger = approx_group_from_tripling(s, s_k)
    h = wit.h
    ledger.compare("a-self-doubling", core.difference.size, "<=", core_k * a.size,
                   formula=f"|A·A^-1| <= K^{CLASSIFY_CORE_DOUBLING_EXP}|A|")
    ledger.merge(core_ledger, "core.")
    ledger.compare("h-size", h.size, "<=",
                   CLASSIFY_H_CONST * k**CLASSIFY_H_EXP * a.size,
                   formula=f"{CLASSIFY_H_CONST} K^{CLASSIFY_H_EXP}|A|")
    ledger.compare("s-tripling", h.size, "<=", s_k * s.size,
                   formula=f"{CLASSIFY_S_TRIPLING_CONST} K^{CLASSIFY_S_TRIPLING_EXP}|S|")
    ledger.merge(wit_ledger, "witness.")
    # the witness's H is (S u {1} u S^-1)^3, which is S^3 exactly when S is
    # its own symmetric hull
    ledger.claim("witness-h-match", symmetrize(s) == s, lhs=h.size, rhs=h.size,
                 formula="(S u {1} u S^-1)^3 = S^3")

    ah = product_set(a, h)
    ledger.compare("a-h-product", ah.size, "<=",
                   CLASSIFY_H_CONST * k**CLASSIFY_H_EXP * a.size,
                   formula=f"{CLASSIFY_H_CONST} K^{CLASSIFY_H_EXP}|A|")
    z0 = ruzsa_cover(h, a, side="right")
    ledger.compare("a-cover-count", z0.size * h.size, "<=", ah.size,
                   formula="|Z0||H| <= |A·H|")
    ledger.compare("a-cover-size", z0.size, "<=",
                   CLASSIFY_A_COVER_CONST * k**CLASSIFY_A_COVER_EXP,
                   formula=f"{CLASSIFY_A_COVER_CONST} K^{CLASSIFY_A_COVER_EXP}")

    b_inv = inverse_set(b)
    b_inv_h = product_set(b_inv, h)
    w0 = ruzsa_cover(h, b_inv, side="right")
    ledger.compare("b-cover-count", w0.size * h.size, "<=", b_inv_h.size,
                   formula="|W0||H| <= |B^-1·H|")
    ledger.compare("b-cover-size", w0.size, "<=",
                   CLASSIFY_B_COVER_CONST * k**CLASSIFY_B_COVER_EXP,
                   formula=f"{CLASSIFY_B_COVER_CONST} K^{CLASSIFY_B_COVER_EXP}")

    z = product_set(z0, wit.x)
    w = product_set(w0, wit.x)
    x_final = z.union(inverse_set(w))
    xh = product_set(x_final, h)
    hx = product_set(h, x_final)
    ledger.claim("a-contained", a <= xh, lhs=a.size, rhs=xh.size,
                 formula="A subset X·H")
    ledger.claim("b-contained", b <= hx, lhs=b.size, rhs=hx.size,
                 formula="B subset H·X")
    ledger.compare("x-final-size", x_final.size, "<=",
                   2 * CLASSIFY_B_COVER_CONST * k**CLASSIFY_B_COVER_EXP * wit.x.size,
                   formula=f"32 K^{CLASSIFY_B_COVER_EXP}|X_wit|")
    ledger.info("x-final-measured", x_final.size)
    ledger.check()
    return wit, x_final, ledger


def local_tripling_check(a: MSet, k) -> ConstantLedger:
    """From sup over a of |A·a·A| ≤ K|A| and |A²| ≤ K|A|, certify the
    explicit tripling bound |A³| ≤ C·K^c·|A|."""
    k = frac(k)
    ledger = ConstantLedger("local_tripling_check")
    sup_size = 0
    for mid in a.ids():
        sup_size = max(sup_size, product_set(a, translate_right(a, mid)).size)
    ledger.require("local-product-hypothesis", sup_size, "<=", k * a.size,
                   kind="soft", formula="sup_a |A·a·A| <= K|A|")
    a2 = product_set(a, a)
    ledger.require("square-hypothesis", a2.size, "<=", k * a.size,
                   kind="soft", formula="|A^2| <= K|A|")

    _, _, classify_ledger = classify_small_doubling(a, a, k)
    ledger.merge(classify_ledger, "classify.")

    a3 = power_set(a, 3)
    ledger.compare("local-tripling", a3.size, "<=",
                   LOCAL_TRIPLING_CONST * k**LOCAL_TRIPLING_EXP * a.size,
                   formula=f"{LOCAL_TRIPLING_CONST} K^{LOCAL_TRIPLING_EXP}|A|")
    ledger.info("tripling-ratio", Fraction(a3.size, a.size))
    return ledger.check()
