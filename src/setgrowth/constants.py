"""Growth-exponent tables derived from the tripling hypothesis.

Given |A^3| <= K |A|, every signed word w in the letters A (+1) and A^{-1}
(-1) satisfies |A^w| <= K**E(w) |A| for an exponent E(w) derived from three
sound rules (docs/constants.md gives the one-line proofs):

  base      E(+) = E(-) = 0;  E(+++) = E(---) = 1 (the hypothesis)
  extend    E(w) <= E(w . b) and E(w) <= E(b . w) for either sign b
            (appending a factor never shrinks the product set)
  splice    E(u . v) <= E(u . (-b)) + E(b . v) for either sign b
            (the Ruzsa triangle inequality with middle set A^b)
  mirror    E(w) = E(reverse-negate w)  (inversion is a bijection)

The word table and the aggregate tables below are frozen copies of the
fixpoint of these rules, which scripts/derive_constants.py runs and prints
again; tests/test_constants.py checks each copy against that fixpoint.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import product

DERIVED_MAX_LEN = 8


# Frozen copies of the dynamic programme (verified by tests).

# E(w) for every signed word w of length 1..8: entry n-1 holds one hex digit
# per word of length n, the words in itertools.product((1, -1), repeat=n)
# order.
_WORD_EXPONENT_HEX = (
    "00",
    "1221",
    "12322321",
    "3432345445432343",
    "56543454565456766765456545434565",
    "7876567656545676787656767876789889876787676567876765456567656787",
    "9a9878987876789878765676787678989a987898787678989a9878989a989aba"
        "aba989a9898789a989876787898789a9898767876765678789876787898789a9",
    "bcba9aba9a989aba9a9878989a989aba9a987898787678989a9878989a989aba"
        "bcba9aba9a989aba9a9878989a989ababcba9aba9a989ababcba9ababcbabcdc"
        "cdcbabcbaba9abcbaba989a9aba9abcbaba989a9898789a9aba989a9aba9abcb"
        "aba989a9898789a989876787898789a9aba989a9898789a9aba989a9aba9abcb",
)
_WORD_EXPONENTS = {
    word: int(digit, 16)
    for length, digits in enumerate(_WORD_EXPONENT_HEX, 1)
    for word, digit in zip(product((1, -1), repeat=length), digits)
}

# c(n): the largest exponent over all signed words of length <= n.
TRIPLING_CHAIN_EXPONENTS = {1: 0, 2: 2, 3: 3, 4: 5, 5: 7, 6: 9}

# E(+^n): exponent for the plain n-fold product A^n.
POSITIVE_POWER_EXPONENTS = {
    1: 0, 2: 1, 3: 1, 4: 3, 5: 5, 6: 7, 7: 9, 8: 11,
    9: 13, 10: 15, 11: 17, 12: 19, 13: 21,
}

# Histogram {exponent: word count} over all signed words of length <= 7,
# plus the empty word at exponent 0.  P7(K) = sum count * K**exponent is the
# covering-set bound in approx_group_from_tripling.
COVER_POLY_HISTOGRAM_7 = {
    0: 3, 1: 4, 2: 8, 3: 10, 4: 16, 5: 26, 6: 40, 7: 52, 8: 50, 9: 32, 10: 12, 11: 2,
}


def word_exponent(word) -> int:
    """Sound exponent bound for any signed word (exact DP value for length
    <= 8, splice recursion on the tail beyond)."""
    word = tuple(word)
    if any(s not in (1, -1) for s in word):
        raise ValueError("word letters must be +1 or -1")
    return _word_exponent_cached(word)


@lru_cache(maxsize=None)
def _word_exponent_cached(word: tuple) -> int:
    if len(word) <= DERIVED_MAX_LEN:
        return _WORD_EXPONENTS[word]
    u, v = word[:-7], word[-7:]
    best = None
    for b in (1, -1):
        cand = _word_exponent_cached(u + (-b,)) + _WORD_EXPONENTS[(b,) + v]
        if best is None or cand < best:
            best = cand
    return best


def positive_power_exponent(n: int) -> int:
    """Exponent for |A^n| <= K**e |A|; table value for n <= 13, the linear
    bound 2n-5 beyond (sound by the run recursion, see docs/constants.md)."""
    if n < 1:
        raise ValueError("n must be positive")
    if n in POSITIVE_POWER_EXPONENTS:
        return POSITIVE_POWER_EXPONENTS[n]
    return 2 * n - 5


def cover_poly_value(k: Fraction) -> Fraction:
    """P7(K): upper bound for the covering-set size |X| <= 2 P7(K) produced
    by approx_group_from_tripling under |A^3| <= K |A|."""
    k = Fraction(k)
    return sum(
        (count * k**exp for exp, count in sorted(COVER_POLY_HISTOGRAM_7.items())),
        Fraction(0),
    )


def chain_exponent(n: int) -> int:
    if n in TRIPLING_CHAIN_EXPONENTS:
        return TRIPLING_CHAIN_EXPONENTS[n]
    raise ValueError(f"chain table covers lengths 1..6, got {n}")


# Explicit theorem constants referenced across modules.  docs/constants.md
# derives each one but LOCAL_TRIPLING_CONST, LOCAL_TRIPLING_EXP and
# BSG_HEADLINE_EXP_SQ, which it lists among its bounds with no derivation.

# |A*B|^2 <= K^2 |A||B|  =>  the classification pipeline constants:
CLASSIFY_CORE_DOUBLING_EXP = 2          # |A A^-1| <= K^2 |A|
CLASSIFY_H_CONST = 8                    # |H| <= 8 K^14 |A| with H = S^3
CLASSIFY_H_EXP = 14
CLASSIFY_S_TRIPLING_CONST = 16          # |S^3| <= 16 K^16 |S|
CLASSIFY_S_TRIPLING_EXP = 16
CLASSIFY_A_COVER_CONST = 16             # |Z0| <= 16 K^16
CLASSIFY_A_COVER_EXP = 16
CLASSIFY_B_COVER_CONST = 16             # |W0| <= 16 K^18
CLASSIFY_B_COVER_EXP = 18

# Local tripling (two-sided smallness of A a A and A^2):
LOCAL_TRIPLING_CONST = 3 * 2**46        # |A^3| <= 3*2^46 K^199 |A|
LOCAL_TRIPLING_EXP = 199

# Full BSG audit: |A'''*B'''| <= 2^19 sqrt(2) K^8 sqrt(|A||B|), asserted in
# the squared form |A'''*B'''|^2 <= 2^39 K^16 |A||B|.  The headline form
# with exponent 14 keeps the same squared constant 2^39.
BSG_AUDIT_CONST_SQ = 2**39
BSG_AUDIT_EXP_SQ = 16
BSG_HEADLINE_EXP_SQ = 14

# Splitting lemma: |B1||C| <= K^e |A| and |B3| <= K^e' |B1|.
SPLIT_COUNT_EXP = positive_power_exponent(7)     # 9
SPLIT_NEST_EXP = positive_power_exponent(79)  # 153
