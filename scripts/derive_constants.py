#!/usr/bin/env python
"""Regenerate the frozen exponent tables in setgrowth.constants.

Runs the word-exponent fixpoint from scratch and prints every table the
library freezes: the word table as the literal committed in constants.py,
then the aggregates, so the literals can be compared (tests do the same
comparison automatically).
"""

from __future__ import annotations

import argparse
from collections import Counter
from itertools import product

# Hex digits per source line of the word-table literal.
LINE_DIGITS = 64


def word_table_literal(exps: dict[tuple, int]) -> str:
    """The `_WORD_EXPONENT_HEX = (...)` assignment for the words of length
    1..max: one string per length n, one hex digit per word in
    product((1, -1), repeat=n) order, wrapped at LINE_DIGITS digits with
    continuation lines indented."""
    if max(exps.values()) > 15:
        raise ValueError("an exponent above 15 does not fit one hex digit")
    lines = ["_WORD_EXPONENT_HEX = ("]
    for n in range(1, max(map(len, exps)) + 1):
        digits = "".join(f"{exps[w]:x}" for w in product((1, -1), repeat=n))
        chunks = [digits[i:i + LINE_DIGITS]
                  for i in range(0, len(digits), LINE_DIGITS)]
        for i, chunk in enumerate(chunks):
            indent = "    " if i == 0 else "        "
            comma = "," if i == len(chunks) - 1 else ""
            lines.append(f'{indent}"{chunk}"{comma}')
    lines.append(")")
    return "\n".join(lines)


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--max-len", type=int, default=8)
    args = ap.parse_args()

    from setgrowth.constants import DERIVED_MAX_LEN, derive_word_exponents

    exps = derive_word_exponents(args.max_len)

    print(f"# word table frozen in setgrowth.constants (length <= {DERIVED_MAX_LEN})")
    print(word_table_literal(exps if args.max_len == DERIVED_MAX_LEN
                             else derive_word_exponents(DERIVED_MAX_LEN)))
    print(f"# word exponents up to length {args.max_len}")
    chain = {}
    for n in range(1, args.max_len + 1):
        vals = [e for w, e in exps.items() if len(w) <= n]
        chain[n] = max(vals)
    print(f"chain maxima c(n): {chain}")

    pos = {}
    for n in range(1, args.max_len + 1):
        pos[n] = exps[(1,) * n]
    print(f"positive powers E(+^n): {pos}")

    hist = Counter({0: 1})  # empty word
    for w, e in exps.items():
        if len(w) <= 7:
            hist[e] += 1
    print(f"cover histogram (len <= 7 plus empty): {dict(sorted(hist.items()))}")
    total = sum(hist.values())
    print(f"word count (should be 2 + 2^2 + ... + 2^7 + 1 = 255): {total}")

    print("# spot values")
    for w in [(1, -1), (1, 1, -1), (1, -1, 1), (1, 1, 1, 1), (-1, 1, 1, 1),
              (1, 1, 1, 1, 1), (1, -1, -1, 1)]:
        print(f"E{w} = {exps[w]}")


if __name__ == "__main__":
    main()
