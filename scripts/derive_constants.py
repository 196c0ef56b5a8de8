#!/usr/bin/env python
"""Regenerate the frozen exponent tables in setgrowth.constants.

Holds the word-exponent fixpoint, runs it from scratch and prints every
table the library freezes: the word table as the literal committed in
constants.py, then the aggregates, so the literals can be compared
(tests/test_constants.py loads this file and does the same comparison).
"""

from __future__ import annotations

import argparse
from collections import Counter
from itertools import product

# Hex digits per source line of the word-table literal.
LINE_DIGITS = 64


def derive_word_exponents(max_len: int) -> dict[tuple, int]:
    """Fixpoint of the derivation rules of setgrowth.constants (base,
    extend, splice, mirror) over words of length <= max_len."""
    words = []
    for length in range(1, max_len + 1):
        words.extend(product((1, -1), repeat=length))
    inf = float("inf")
    e: dict[tuple, float] = {w: inf for w in words}
    e[(1,)] = e[(-1,)] = 0
    if max_len >= 3:
        e[(1, 1, 1)] = e[(-1, -1, -1)] = 1
    changed = True
    while changed:
        changed = False
        for w in words:
            best = e[w]
            mirror = tuple(-s for s in reversed(w))
            if e[mirror] < best:
                best = e[mirror]
            if len(w) < max_len:
                for b in (1, -1):
                    ext = e.get(w + (b,), inf)
                    if ext < best:
                        best = ext
                    ext = e.get((b,) + w, inf)
                    if ext < best:
                        best = ext
            for i in range(1, len(w)):
                u, v = w[:i], w[i:]
                for b in (1, -1):
                    cand = e.get(u + (-b,), inf) + e.get((b,) + v, inf)
                    if cand < best:
                        best = cand
            if best < e[w]:
                e[w] = best
                changed = True
    bad = [w for w, val in e.items() if val == inf]
    if bad:
        raise RuntimeError(f"exponent underived for words {bad[:4]}")
    return {w: int(val) for w, val in e.items()}


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

    from setgrowth.constants import DERIVED_MAX_LEN

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
