"""Energy extraction pipelines: the weak and full set-pair refinements and
the four-way equivalence between large energy, structured pair sets, small
partial products, and covering-pair structure.

All thresholds are strict rational comparisons with denominators cleared;
square roots never materialize (every bound involving one is asserted in
squared form).  The full extraction's final bound is asserted twice: once
with the audited exponent from multiplying the proof's displayed constants
(squared exponent 16), and once with the headline exponent (squared 14) that
the original display states; docs/constants.md derives both and explains the
gap.

The refinements are whole-array kernel calls: uint16 product matrices
filled from ``groups._product_blocks``, read through boolean masks of C or
D into hit matrices whose row and column sums are the refinement counts,
and overlaps that are popcounts of packed rows.  The full extraction forms
each product once: A·B as one matrix P, read for the convolution, for the
hit matrix of every refinement and for A'''·B''', and A''·A''^-1 in the
weak extraction, whose quotient matrix the Markov refinement reads again.
Every count is an exact integer, compared with a rational threshold t as
n > floor(t), which for an integer n is exactly n > t.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from .constants import (
    BSG_AUDIT_CONST_SQ,
    BSG_AUDIT_EXP_SQ,
    BSG_HEADLINE_EXP_SQ,
)
from .exact import ceil_sqrt_frac, frac
from .groups import _product_blocks, _row_blocks
from .setops import (
    MSet,
    _product_counts,
    _require_same_group,
    energy,
    intersection_size,
    member_mask,
    partial_product,
    product_set,
    translate_left,
    translate_right,
)
from .structure import (
    ApproxGroupWitness,
    ConstantLedger,
    classify_small_doubling,
    verify_approx_group,
)


def _product_matrix(g, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """The uint16 matrix [i, j] -> xs[i]*ys[j], filled in the row blocks of
    _product_blocks."""
    out = np.empty((len(xs), len(ys)), dtype=np.uint16)
    for rows, block in _product_blocks(g, xs, ys):
        out[rows] = block
    return out


def _packed(bits: np.ndarray) -> np.ndarray:
    """The rows of a boolean matrix as bitsets in uint64 words."""
    padded = np.pad(bits, ((0, 0), (0, -bits.shape[1] % 64)))
    packed = np.packbits(padded, axis=1, bitorder="little")
    return np.ascontiguousarray(packed).view(np.uint64)


def _and_counts(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """The int64 matrix [i, j] -> popcount(p[i] & q[j]) of packed rows."""
    out = np.zeros((len(p), len(q)), dtype=np.int64)
    for w in range(p.shape[1]):
        out += np.bitwise_count(p[:, w, None] & q[None, :, w])
    return out


def _good_pairs(hit: np.ndarray, threshold: Fraction):
    """The boolean matrix of row pairs (x, y) whose overlap
    #{j : hit[x, j] and hit[y, j]} exceeds the threshold, and as Python ints
    omega_cols[j] = Σ_x hit[x,j]·(Ω·hit)[x,j] over its complement Ω.  Only
    one row block of counts, from _row_blocks, is live at a time."""
    floor = threshold.numerator // threshold.denominator
    n_rows, n_cols = hit.shape
    row_bits, col_bits = _packed(hit), _packed(hit.T)
    good = np.empty((n_rows, n_rows), dtype=bool)
    omega_cols = np.zeros(n_cols, dtype=np.int64)
    for rows in _row_blocks(n_rows, max(n_rows, n_cols)):
        block = good[rows]
        np.greater(_and_counts(row_bits[rows], row_bits), floor, out=block)
        omega = _packed(np.logical_not(block))
        omega_cols += (_and_counts(omega, col_bits) * hit[rows]).sum(axis=0)
    return good, omega_cols.tolist()


def _nonempty_set(g, ids, stage: str) -> MSet:
    if not len(ids):
        raise RuntimeError(
            f"pipeline stage {stage!r} produced an empty set; "
            "this cannot happen when the hypotheses hold")
    return MSet.from_ids(g, ids)


@dataclass(frozen=True)
class WeakBsgResult:
    """Output of the weak extraction: a dense subset and a popular-quotient
    set, with the pair statistics that certify the three conclusions."""

    a_prime: MSet
    d: MSet
    chosen_b: int
    omega_count: int          # |(A' x A') ∩ Ω|
    omega_threshold: Fraction  # pair (a,a') enters Ω iff overlap count <= this
    k: Fraction
    kprime_sq: Fraction
    eps: Fraction
    ledger: ConstantLedger


def weak_bsg(a: MSet, b: MSet, c: MSet, k, eps=Fraction(1, 2), *,
             kprime_sq) -> WeakBsgResult:
    """Weak extraction: from many products of A x B landing in a small C,
    find A' ⊆ A and D with almost all quotients of A' x A' inside D.

    The second size parameter K' enters the conclusions only through its
    square, so callers pass `kprime_sq` = K'^2, which stays rational when K'
    would not.
    """
    _require_same_group(a, b)
    _require_same_group(a, c)
    k = frac(k)
    eps = frac(eps)
    if not 0 < eps < 1:
        raise ValueError(f"eps must lie in (0,1), got {eps}")
    return _weak_bsg(a, b, c, k, frac(kprime_sq), eps)[0]


def _weak_bsg(a: MSet, b: MSet, c: MSet, k: Fraction, kp_sq: Fraction,
              eps: Fraction, hit: np.ndarray | None = None):
    """weak_bsg on checked parameters.  `hit` is the boolean matrix
    [i, j] -> a_i*b_j in C when the caller holds it; it is formed here
    otherwise.  Returns the result, the rows of A' within A, and the uint16
    quotient matrix [i, j] -> a'_i*a'_j^-1 over A' x A'."""
    g = a.group
    ledger = ConstantLedger("weak_bsg")
    ledger.require("c-hypothesis", c.size**2, "<=", kp_sq * a.size * b.size,
                   formula="|C|^2 <= K'^2|A||B|")
    a_ids, b_ids = a.id_array(), b.id_array()
    if hit is None:
        hit = member_mask(c)[_product_matrix(g, a_ids, b_ids)]
    n_pairs = int(np.count_nonzero(hit))
    ledger.require("density-hypothesis", n_pairs * k, ">=",
                   a.size * b.size, formula="N·K >= |A||B|")

    # Ω membership: overlap count <= (ε/2K²)|B|, strict complement is "good".
    omega_threshold = eps * b.size / (2 * k**2)
    good, omega_cols = _good_pairs(hit, omega_threshold)
    col_counts = np.count_nonzero(hit, axis=0).tolist()

    # Pigeonhole integrand F(b) = |A_b|^2 - |Ω ∩ A_b^2|/ε, maximized; the
    # first maximum of F·numer(ε) = numer(ε)|A_b|^2 - denom(ε)|Ω ∩ A_b^2|.
    scaled = [eps.numerator * n * n - eps.denominator * w
              for n, w in zip(col_counts, omega_cols)]
    best_j = max(range(len(scaled)), key=scaled.__getitem__)
    best_value = Fraction(col_counts[best_j] ** 2) - omega_cols[best_j] / eps
    chosen_b = int(b_ids[best_j])
    ledger.compare("pigeonhole-value", best_value, ">=",
                   Fraction(a.size**2) / (2 * k**2),
                   formula="F(b*) >= |A|^2/2K^2")

    rows = np.flatnonzero(hit[:, best_j])
    a_prime = _nonempty_set(g, a_ids[rows], "A'")
    ledger.compare("dense-subset", 2 * k**2 * a_prime.size**2, ">=",
                   Fraction(a.size**2), formula="2K^2|A'|^2 >= |A|^2")

    good = good[np.ix_(rows, rows)]
    omega_count = good.size - int(np.count_nonzero(good))
    if omega_count != omega_cols[best_j]:
        raise RuntimeError(
            f"|Ω ∩ A'^2| recount gives {omega_count}, but the column tally "
            f"for b* gives {omega_cols[best_j]}")
    ledger.compare("omega-small", omega_count, "<=", eps * a_prime.size**2,
                   formula="|Ω ∩ A'^2| <= ε|A'|^2")
    ids = a_prime.id_array()
    quotients = _product_matrix(g, ids, g.inv_array(ids))
    d_mask = np.zeros(g.order, dtype=bool)
    d_mask[quotients[good]] = True
    d = _nonempty_set(g, np.flatnonzero(d_mask), "D")
    ledger.compare("quotient-size", eps * d.size, "<=",
                   2 * k**2 * kp_sq * a.size,
                   formula="ε|D| <= 2(KK')^2|A|")
    covered = int(np.count_nonzero(d_mask[quotients]))
    ledger.compare("quotient-density", covered, ">=",
                   (1 - eps) * a_prime.size**2,
                   formula="#{a(a')^-1 in D} >= (1-ε)|A'|^2")
    ledger.check()
    return (WeakBsgResult(a_prime, d, chosen_b, omega_count, omega_threshold,
                          k, kp_sq, eps, ledger), rows, quotients)


@dataclass(frozen=True)
class BsgExtract:
    """Full extraction output: the level set, three nested refinements of A,
    the refinement of B, their product set, and the certified product
    bound."""

    c: MSet
    a_prime: MSet
    a_second: MSet
    a_third: MSet
    b_third: MSet
    product: MSet             # A'''·B'''
    l: Fraction
    d: MSet
    weak: WeakBsgResult
    k: Fraction
    eps: Fraction
    ledger: ConstantLedger

    def trace_lines(self) -> list[str]:
        return [
            f"|C| = {self.c.size}",
            f"|A'| = {self.a_prime.size} (L = {self.l})",
            f"|A''| = {self.a_second.size}",
            f"|A'''| = {self.a_third.size}",
            f"|B'''| = {self.b_third.size}",
            f"|D| = {self.d.size}",
            f"|A'''·B'''| = {self.product.size}",
        ]


def bsg_extract(a: MSet, b: MSet, k) -> BsgExtract:
    """Full extraction: from E(A,B) ≥ (|A||B|)^{3/2}/K produce A''' ⊆ A and
    B''' ⊆ B, both of proportional size, whose product set is small.

    Every refinement of A and B is a set of rows or columns of A x B, so the
    product matrix P = A·B is formed once and read three ways: by the
    convolution, by the hit matrix [i, j] -> P[i, j] in C whose row slices
    serve every refinement, and as the sub-matrix A'''·B'''.  The weak
    extraction hands back its quotient matrix A''·A''^-1 for the Markov
    refinement, so each quotient is formed once too.  P is a uint16 id per
    pair, live for the whole extraction: 22.6 MB at |A| = |B| = 3,360, a
    twelfth of symmetric(8).
    """
    _require_same_group(a, b)
    g = a.group
    k = frac(k)
    p, q = k.numerator, k.denominator
    ledger = ConstantLedger("bsg_extract")

    a_ids, b_ids = a.id_array(), b.id_array()
    products = _product_matrix(g, a_ids, b_ids)
    counts = _product_counts(
        g, (products[rows] for rows in _row_blocks(len(a_ids), len(b_ids))))
    # each count is at most min(|A|,|B|) and they sum to |A||B|, so
    # E <= |A||B|·min(|A|,|B|) <= ORDER_CAP^3 < 2^63: no int64 overflow
    e_val = int(counts @ counts)
    nm = a.size * b.size
    ledger.require("energy-hypothesis", e_val**2 * p**2, ">=", q**2 * nm**3,
                   formula="E^2 K^2 >= (|A||B|)^3, cleared")

    # Level set of the convolution at height sqrt(|A||B|)/2K: for integer
    # counts, 4p²·cnt² > q²|A||B| iff cnt > isqrt(q²|A||B| // 4p²).
    level = counts > math.isqrt(q**2 * nm // (4 * p**2))
    c = _nonempty_set(g, np.flatnonzero(level), "C")
    ledger.compare("level-set-size", c.size**2, "<=", 4 * k**2 * nm,
                   formula="|C|^2 <= 4K^2|A||B|")
    n_c = int(counts[level].sum())
    ledger.compare("level-set-mass", 2 * p * n_c, ">=", q * nm,
                   formula="2K·N_C >= |A||B|")

    hit = member_mask(c)[products]
    prime_rows = np.flatnonzero(
        np.count_nonzero(hit, axis=1) > q * b.size // (4 * p))
    a_prime = _nonempty_set(g, a_ids[prime_rows], "A'")
    ledger.compare("a-prime-size", 4 * p * a_prime.size, ">=", q * a.size,
                   formula="4K|A'| >= |A|")
    l = Fraction(a.size, a_prime.size)
    ledger.compare("l-range-low", l, ">=", 1, formula="1 <= L")
    ledger.compare("l-range-high", l, "<=", 4 * k, formula="L <= 4K")

    eps = Fraction(1) / (32 * k)
    weak, rows, quotients = _weak_bsg(a_prime, b, c, 4 * k / l,
                                      4 * k**2 * l, eps, hit[prime_rows])
    ledger.merge(weak.ledger, "weak.")
    a_second = weak.a_prime
    second_rows = prime_rows[rows]
    d = weak.d
    ledger.compare("a-second-size", 32 * k**2 * a_second.size**2, ">=",
                   Fraction(a.size**2), formula="|A''| >= |A|/4√2K, squared")
    ledger.compare("quotient-size", d.size, "<=", 4096 * k**5 * a.size / l**2,
                   formula="|D| <= 4096 K^5 |A|/L^2")

    # Markov refinement: keep a whose bad-quotient count is small.
    bad_counts = len(second_rows) - np.count_nonzero(
        member_mask(d)[quotients], axis=1)
    total_bad = int(bad_counts.sum())
    ledger.compare("bad-pairs-total", total_bad, "<=",
                   eps * a_second.size**2, formula="Σ bad <= |A''|^2/32K")
    third_rows = second_rows[bad_counts <= q * a_second.size // (16 * p)]
    a_third = _nonempty_set(g, a_ids[third_rows], "A'''")
    ledger.compare("a-third-half", 2 * a_third.size, ">=", a_second.size,
                   formula="|A'''| >= |A''|/2")
    ledger.compare("a-third-size", 128 * k**2 * a_third.size**2, ">=",
                   Fraction(a.size**2), formula="|A'''| >= |A|/8√2K, squared")

    col_hits = np.count_nonzero(hit[second_rows], axis=0)
    third_cols = np.flatnonzero(col_hits > q * a_second.size // (8 * p))
    b_third = _nonempty_set(g, b_ids[third_cols], "B'''")
    ledger.compare("b-third-size", 8 * p * b_third.size, ">=", q * b.size,
                   formula="8K|B'''| >= |B|")

    product_mask = np.zeros(g.order, dtype=bool)
    product_mask[products[np.ix_(third_rows, third_cols)]] = True
    product = MSet.from_mask(g, product_mask)
    ledger.compare("product-injection",
                   16 * p * c.size * d.size, ">=",
                   q * product.size * a_second.size,
                   formula="|A'''·B'''||A''| <= 16K|C||D|")
    ledger.compare("product-audited", product.size**2, "<=",
                   BSG_AUDIT_CONST_SQ * k**BSG_AUDIT_EXP_SQ * nm,
                   formula=f"|A'''·B'''|^2 <= 2^39 K^{BSG_AUDIT_EXP_SQ}|A||B|")
    ledger.compare("product-headline", product.size**2, "<=",
                   BSG_AUDIT_CONST_SQ * k**BSG_HEADLINE_EXP_SQ * nm,
                   formula=f"|A'''·B'''|^2 <= 2^39 K^{BSG_HEADLINE_EXP_SQ}|A||B|")
    ledger.check()
    return BsgExtract(c, a_prime, a_second, a_third, b_third, product, l, d,
                      weak, k, eps, ledger)


_CLAUSES = ("i", "iii", "iv", "ii")  # proof cycle order


class EnergyEquivalenceWitness(NamedTuple):
    """One full walk around the equivalence cycle, starting from the clause
    whose witness the caller supplied."""

    input_clause: str
    produced: dict
    ledger: ConstantLedger


def energy_equivalences(clause: str, a: MSet, b: MSet, k, *,
                        pairs=None, a_prime=None, b_prime=None,
                        witness: ApproxGroupWitness | None = None,
                        x_id: int | None = None,
                        y_id: int | None = None) -> EnergyEquivalenceWitness:
    """Validate the given clause's witness and walk the cycle
    (i)→(iii)→(iv)→(ii)→(i), constructing each next witness explicitly.

    clause "i" needs only (a, b, k); "ii" needs `pairs` (the pair set, as
    (a_id, b_id) tuples); "iii" needs `a_prime`, `b_prime`; "iv" needs
    `witness` plus `x_id`, `y_id`.
    """
    if clause not in _CLAUSES:
        raise ValueError(f"clause must be one of {_CLAUSES}, got {clause!r}")
    _require_same_group(a, b)
    g = a.group
    k = frac(k)
    ledger = ConstantLedger("energy_equivalences")
    produced: dict = {}

    state = _validate_clause(clause, a, b, k, ledger, pairs=pairs,
                             a_prime=a_prime, b_prime=b_prime,
                             witness=witness, x_id=x_id, y_id=y_id)
    start = _CLAUSES.index(clause)
    for i in range(start, start + 3):
        state = _STEPS[_CLAUSES[i % 4]](g, a, b, state, ledger)
        produced[_CLAUSES[(i + 1) % 4]] = state
    ledger.check()
    return EnergyEquivalenceWitness(clause, produced, ledger)


def _validate_clause(clause, a, b, k, ledger, *, pairs, a_prime, b_prime,
                     witness, x_id, y_id):
    nm = a.size * b.size
    pre = f"input-{clause}."
    if clause == "i":
        e_val = energy(a, b).value
        ledger.require(pre + "energy-bound", e_val**2 * k**2, ">=",
                       Fraction(nm**3), formula="E^2K^2 >= (|A||B|)^3")
        state = {"k": k, "energy": e_val}
    elif clause == "ii":
        if pairs is None:
            raise ValueError("clause ii needs pairs")
        pair_list = sorted(set((int(x), int(y)) for x, y in pairs))
        if not pair_list:
            raise ValueError("clause ii pair set is empty")
        image = partial_product(a, b, pair_list)
        ledger.require(pre + "pair-density", len(pair_list) * k, ">=",
                       Fraction(nm), formula="|E|K >= |A||B|")
        ledger.require(pre + "image-size", image.size**2, "<=", k**2 * nm,
                       formula="|im E|^2 <= K^2|A||B|")
        state = {"k": k, "pairs": tuple(pair_list), "image": image}
    elif clause == "iii":
        if a_prime is None or b_prime is None:
            raise ValueError("clause iii needs a_prime and b_prime")
        if not (a_prime <= a and b_prime <= b):
            raise ValueError("clause iii subsets must lie inside A and B")
        prod = product_set(a_prime, b_prime)
        ledger.require(pre + "a-prime-dense", k * a_prime.size, ">=",
                       Fraction(a.size), formula="K|A'| >= |A|")
        ledger.require(pre + "b-prime-dense", k * b_prime.size, ">=",
                       Fraction(b.size), formula="K|B'| >= |B|")
        ledger.require(pre + "product-small", prod.size**2, "<=", k**2 * nm,
                       formula="|A'·B'|^2 <= K^2|A||B|")
        state = {"k": k, "a_prime": a_prime, "b_prime": b_prime,
                 "product": prod}
    else:  # iv
        if witness is None or x_id is None or y_id is None:
            raise ValueError("clause iv needs witness, x_id, y_id")
        check = verify_approx_group(witness.h, witness.x, witness.k)
        if not check.verified:
            raise ValueError(
                f"clause iv witness fails verification: {check.violations}")
        h = witness.h
        a_part = intersection_size(a, translate_left(x_id, h))
        b_part = intersection_size(b, translate_right(h, y_id))
        ledger.require(pre + "h-size-upper", h.size**2, "<=", k**2 * nm,
                       formula="|H|^2 <= K^2|A||B|")
        ledger.require(pre + "h-size-lower", k**2 * h.size**2, ">=",
                       Fraction(nm), formula="K^2|H|^2 >= |A||B|")
        ledger.require(pre + "a-intersection", k * a_part, ">=",
                       Fraction(a.size), formula="K|A ∩ xH| >= |A|")
        ledger.require(pre + "b-intersection", k * b_part, ">=",
                       Fraction(b.size), formula="K|B ∩ Hy| >= |B|")
        state = {"k": k, "witness": witness, "x": x_id, "y": y_id}
    return state


def _step_i_iii(g, a, b, state, ledger):
    extract = bsg_extract(a, b, state["k"])
    ledger.merge(extract.ledger, "step-i-iii.")
    a_p, b_p, prod = extract.a_third, extract.b_third, extract.product
    ledger.compare("step-i-iii.product-lower", prod.size**2, ">=",
                   a_p.size * b_p.size, formula="|A'·B'|^2 >= |A'||B'|")
    k_next = ceil_sqrt_frac(
        max(Fraction(prod.size**2, a_p.size * b_p.size),
            Fraction(a.size, a_p.size), Fraction(b.size, b_p.size),
            Fraction(1)))
    ledger.info("step-i-iii.next-k", k_next, "measured clause-iii constant")
    return {"k": k_next, "a_prime": a_p, "b_prime": b_p, "product": prod}


def _step_iii_iv(g, a, b, state, ledger):
    a_p, b_p, prod = state["a_prime"], state["b_prime"], state["product"]
    k_cls = ceil_sqrt_frac(Fraction(prod.size**2, a_p.size * b_p.size))
    wit, x_cov, cls_ledger = classify_small_doubling(a_p, b_p, k_cls)
    ledger.merge(cls_ledger, "step-iii-iv.")
    h = wit.h

    def first_best(count):
        return max(((count(t), t) for t in x_cov.ids()), key=lambda p: p[0])

    best_xv, best_x = first_best(
        lambda t: intersection_size(a_p, translate_left(t, h)))
    best_yv, best_y = first_best(
        lambda t: intersection_size(b_p, translate_right(h, t)))
    ledger.compare("step-iii-iv.x-pigeonhole", best_xv * x_cov.size, ">=",
                   a_p.size, formula="|A' ∩ xH||X| >= |A'|")
    ledger.compare("step-iii-iv.y-pigeonhole", best_yv * x_cov.size, ">=",
                   b_p.size, formula="|B' ∩ Hy||X| >= |B'|")
    k_next = _clause_iv_constant(a, b, wit.h, best_xv, best_yv)
    ledger.info("step-iii-iv.next-k", k_next, "measured clause-iv constant")
    return {"k": k_next, "witness": wit, "x": best_x, "y": best_y}


def _clause_iv_constant(a, b, h, a_count, b_count) -> Fraction:
    nm = a.size * b.size
    candidates = [Fraction(1)]
    if a_count:
        candidates.append(Fraction(a.size, a_count))
    if b_count:
        candidates.append(Fraction(b.size, b_count))
    candidates.append(ceil_sqrt_frac(Fraction(h.size**2, nm)))
    candidates.append(ceil_sqrt_frac(Fraction(nm, h.size**2)))
    return max(candidates)


def _step_iv_ii(g, a, b, state, ledger):
    wit, x_id, y_id = state["witness"], state["x"], state["y"]
    h = wit.h
    a_part = a & translate_left(x_id, h)
    b_part = b & translate_right(h, y_id)
    pair_list = tuple(sorted(
        (xa, yb) for xa in a_part.ids() for yb in b_part.ids()))
    image = product_set(a_part, b_part)
    h2 = product_set(h, h)
    shifted = translate_right(translate_left(x_id, h2), y_id)
    ledger.claim("step-iv-ii.image-in-xh2y", image <= shifted,
                 lhs=image.size, rhs=h2.size, formula="im E subset x·H^2·y")
    ledger.compare("step-iv-ii.image-size", image.size, "<=", h2.size,
                   formula="|im E| <= |H^2|")
    ledger.compare("step-iv-ii.h2-by-witness", h2.size, "<=",
                   wit.x.size * h.size, formula="|H^2| <= |X||H|")
    k_next = max(
        Fraction(a.size * b.size, len(pair_list)),
        ceil_sqrt_frac(Fraction(image.size**2, a.size * b.size)),
        Fraction(1))
    ledger.info("step-iv-ii.next-k", k_next, "measured clause-ii constant")
    return {"k": k_next, "pairs": pair_list, "image": image}


def _step_ii_i(g, a, b, state, ledger):
    pair_list = state["pairs"]
    image = state["image"]
    e_val = energy(a, b).value
    ledger.compare("step-ii-i.cauchy-schwarz", e_val * image.size, ">=",
                   len(pair_list) ** 2, formula="E(A,B)|C| >= |E|^2")
    k_next = ceil_sqrt_frac(
        max(Fraction(a.size**3 * b.size**3, e_val**2), Fraction(1)))
    ledger.info("step-ii-i.next-k", k_next, "measured clause-i constant")
    return {"k": k_next, "energy": e_val}


_STEPS = {  # each clause's step to the next one in _CLAUSES
    "i": _step_i_iii,
    "iii": _step_iii_iv,
    "iv": _step_iv_ii,
    "ii": _step_ii_i,
}
