#!/usr/bin/env python
"""Check every vectorized product and inverse of whole runs against the
scalar law.

Usage: PYTHONPATH=src python scripts/scalar_shadow.py

While the runs below execute, ``FiniteGroup.mul_pairs`` and
``FiniteGroup.inv_array`` are wrapped: the wrapper returns the library's
own result and checks each of its entries against the family's scalar
``mul``/``inv``, which never reads a table or a vectorized law.  The runs:

  suite     ``run_suite(default_config())``, the default ``suite run``;
  classify  ``classify_small_doubling`` on 60 seeded random ids of sl2(31);
  heisen    the ``heisen run --infer-k`` step at p = 31 (order 29,791): the
            group build with its law sweeps, ``heisen_inverse`` and
            ``verify_inverse_converse`` on the radius-2 ball on ids 1, 31.

Every call is checked.  Prints one JSON line per run, with its calls,
products and inverses checked, mismatches, wall time and the error that
stopped it (a wrong law can fail a hard row before the run ends), and exits 1
when any entry differs from the scalar law or a run raised, else 0.  This is
a slow oracle, not a Tier-1 test.
"""

from __future__ import annotations

import json
import random
import sys
import time
from fractions import Fraction

import numpy as np

from setgrowth import groups
from setgrowth.families import SetFamilySpec, generate_set, measured_tripling
from setgrowth.groups import FiniteGroup, construct_group
from setgrowth.setops import MSet, product_set

HEISEN_SPEC = "heisenberg(z=Zp^2,p=31;w=Zp^1,p=31;pairing=symplectic)"
HEISEN_SET = "ball_in_word_metric(2;1,31)"
CLASSIFY_SPEC, CLASSIFY_SIZE = "sl2(31)", 60


class Shadow:
    """Counters and the wrappers that fill them."""

    def __init__(self):
        self.reset()

    def reset(self):
        self.calls = self.products = self.inverses = 0
        self.mismatches = 0
        self.examples: list[str] = []     # the first ten mismatches

    def _miss(self, text: str):
        self.mismatches += 1
        if len(self.examples) < 10:
            self.examples.append(text)

    def wrap(self, mul_pairs, inv_array):
        shadow = self

        def checked_mul_pairs(g, x, y):
            out = mul_pairs(g, x, y)
            shadow.calls += 1
            xs, ys, got = (np.broadcast_to(v, np.shape(out)).ravel().tolist()
                           for v in (x, y, out))
            shadow.products += len(got)
            for a, b, c in zip(xs, ys, got):
                if g.mul(a, b) != c:
                    shadow._miss(f"{g.name}: mul({a}, {b}) = {g.mul(a, b)}, "
                                 f"mul_pairs gave {c}")
            return out

        def checked_inv_array(g, x):
            out = inv_array(g, x)
            shadow.calls += 1
            xs = np.ravel(x).tolist()
            got = np.ravel(out).tolist()
            shadow.inverses += len(got)
            for a, c in zip(xs, got):
                if g.inv(a) != c:
                    shadow._miss(f"{g.name}: inv({a}) = {g.inv(a)}, "
                                 f"inv_array gave {c}")
            return out

        return checked_mul_pairs, checked_inv_array


def run_default_suite():
    from setgrowth.suites import default_config, run_suite

    run_suite(default_config())


def run_classify():
    from setgrowth.structure import classify_small_doubling

    g = construct_group(CLASSIFY_SPEC)
    rng = random.Random(f"1729:{CLASSIFY_SPEC}")
    a = MSet.from_ids(g, rng.sample(range(g.order), CLASSIFY_SIZE))
    classify_small_doubling(a, a, Fraction(product_set(a, a).size, a.size))


def run_heisen():
    from setgrowth.heisenberg import heisen_inverse, verify_inverse_converse

    a = generate_set(SetFamilySpec.parse(HEISEN_SPEC, HEISEN_SET))
    witness = heisen_inverse(a, measured_tripling(a))
    verify_inverse_converse(witness, a)


RUNS = {"suite": run_default_suite, "classify": run_classify,
        "heisen": run_heisen}


def main() -> int:
    shadow = Shadow()
    originals = FiniteGroup.mul_pairs, FiniteGroup.inv_array
    FiniteGroup.mul_pairs, FiniteGroup.inv_array = shadow.wrap(*originals)
    failed = False
    try:
        for name, run in RUNS.items():
            # fresh groups per run, so each run builds its own tables
            groups._GROUPS.clear()
            shadow.reset()
            start = time.perf_counter()
            try:
                run()
                error = None
            except Exception as exc:     # reported, then counted as a failure
                error = f"{type(exc).__name__}: {exc}"
            wall = time.perf_counter() - start
            print(json.dumps({
                "run": name, "calls": shadow.calls, "products": shadow.products,
                "inverses": shadow.inverses, "mismatches": shadow.mismatches,
                "wall_s": round(wall, 2), "error": error}))
            for text in shadow.examples:
                print(text, file=sys.stderr)
            failed |= shadow.mismatches > 0 or error is not None
    finally:
        FiniteGroup.mul_pairs, FiniteGroup.inv_array = originals
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
