#!/usr/bin/env python
"""Check every vectorized product and inverse of whole runs against the
scalar law, and a seeded stride of product sets and pool-table count rows
against frozenset and Counter arithmetic.

Usage: PYTHONPATH=src python scripts/scalar_shadow.py

While the runs below execute, ``FiniteGroup.mul_pairs`` and
``FiniteGroup.inv_array`` are wrapped: the wrapper returns the library's
own result and checks each of its entries against the family's scalar
``mul``/``inv``, which never reads a table or a vectorized law.
``setops.product_set`` is wrapped too, in every module that imported it:
one call in ``SET_STRIDE``, from an offset seeded by the run's name, is
recomputed as the frozenset {mul(x, y) : x in A, y in B} of scalar
products, unless |A|·|B| is over ``SET_PAIR_CAP``, which counts the call
as skipped.  ``setops._pair_counts``, the pool-table kernel of the
ruzsa-axioms, energy-identities and covering suites, is wrapped the same
way: one count row in ``SET_STRIDE``, over all the rows the kernel yields
in the run, is recomputed as the Counter of scalar products x·y over its
operand pair, or skipped past ``SET_PAIR_CAP``.  The runs:

  suite     ``run_suite(default_config())``, the default ``suite run``;
  classify  ``classify_small_doubling`` on 60 seeded random ids of sl2(31);
  heisen    the ``heisen run --infer-k`` step at p = 31 (order 29,791): the
            group build with its law sweeps, ``heisen_inverse`` and
            ``verify_inverse_converse`` on the radius-2 ball on ids 1, 31;
  entropy   ``metric_profile_check`` on the word carrier of sl2(31) (order
            29,760) with generators 1 and 2, which generate it: its nets
            are cover scans with the metric ball on the right, on a
            non-abelian group.

Every ``mul_pairs`` and ``inv_array`` call is checked.  Prints one JSON
line per run, with its calls, products and inverses checked, product sets
called, checked and skipped, pool-table rows yielded, checked and skipped,
mismatches, wall time and the error that stopped it (a wrong law can fail a
hard row before the run ends), and exits 1 when any entry, product set or
count row differs from the scalar law or a run raised, else 0.  This is a
slow oracle, not a Tier-1 test.
"""

from __future__ import annotations

import json
import random
import sys
import time
from collections import Counter
from fractions import Fraction

import numpy as np

# the suites load every module that imports product_set before it is wrapped
import setgrowth.suites  # noqa: F401
from setgrowth import groups, setops
from setgrowth.families import SetFamilySpec, generate_set, measured_tripling
from setgrowth.groups import FiniteGroup, construct_group
from setgrowth.setops import MSet, _pair_counts, product_set

HEISEN_SPEC = "heisenberg(z=Zp^2,p=31;w=Zp^1,p=31;pairing=symplectic)"
HEISEN_SET = "ball_in_word_metric(2;1,31)"
CLASSIFY_SPEC, CLASSIFY_SIZE = "sl2(31)", 60
WORD_SPEC, WORD_GENS = "sl2(31)", (1, 2)
SET_STRIDE = 8              # one product_set call (or count row) in this many
                            # is recomputed
SET_PAIR_CAP = 1 << 19      # scalar products one recomputed call may take
SEED = 1729


class Shadow:
    """Counters and the wrappers that fill them."""

    def __init__(self):
        self.reset()

    def reset(self, run: str = ""):
        self.calls = self.products = self.inverses = 0
        self.set_calls = self.sets_checked = self.sets_skipped = 0
        self.pair_rows = self.rows_checked = self.rows_skipped = 0
        self.set_offset = random.Random(f"{SEED}:{run}").randrange(SET_STRIDE)
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

    def wrap_product_set(self, product_set):
        shadow = self

        def checked_product_set(a, b):
            out = product_set(a, b)
            shadow.set_calls += 1
            if shadow.set_calls % SET_STRIDE != shadow.set_offset:
                return out
            if a.size * b.size > SET_PAIR_CAP:
                shadow.sets_skipped += 1
                return out
            shadow.sets_checked += 1
            g = a.group
            want = frozenset(g.mul(x, y) for x in a.ids() for y in b.ids())
            if frozenset(out.ids()) != want:
                shadow._miss(f"{g.name}: product_set of |A| = {a.size}, "
                             f"|B| = {b.size} has {out.size} ids, "
                             f"the scalar products {len(want)}")
            return out

        return checked_product_set

    def wrap_pair_counts(self, pair_counts):
        shadow = self

        def checked_pair_counts(g, pairs):
            for rows, counts in pair_counts(g, pairs):
                for (xs, ys), row in zip(pairs[rows], counts):
                    shadow.pair_rows += 1
                    if shadow.pair_rows % SET_STRIDE != shadow.set_offset:
                        continue
                    if len(xs) * len(ys) > SET_PAIR_CAP:
                        shadow.rows_skipped += 1
                        continue
                    shadow.rows_checked += 1
                    want = Counter(g.mul(x, y) for x in np.ravel(xs).tolist()
                                   for y in np.ravel(ys).tolist())
                    support = np.flatnonzero(row)
                    if dict(zip(support.tolist(), row[support].tolist())) != want:
                        shadow._miss(f"{g.name}: count row of |X| = {len(xs)}, "
                                     f"|Y| = {len(ys)} has {len(support)} "
                                     f"products, the scalar law {len(want)}")
                yield rows, counts

        return checked_pair_counts


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


def run_entropy():
    from setgrowth.entropy import WordMetricGroup, metric_profile_check

    metric_profile_check(WordMetricGroup(construct_group(WORD_SPEC), WORD_GENS))


RUNS = {"suite": run_default_suite, "classify": run_classify,
        "heisen": run_heisen, "entropy": run_entropy}


def _importers(name: str):
    """The setgrowth modules that hold setops' function `name`."""
    return [m for key, m in sys.modules.items()
            if key.startswith("setgrowth")
            and getattr(m, name, None) is getattr(setops, name)]


def main() -> int:
    shadow = Shadow()
    originals = FiniteGroup.mul_pairs, FiniteGroup.inv_array
    importers = _importers("product_set")
    kernel_importers = _importers("_pair_counts")
    FiniteGroup.mul_pairs, FiniteGroup.inv_array = shadow.wrap(*originals)
    for module in importers:
        module.product_set = shadow.wrap_product_set(product_set)
    for module in kernel_importers:
        module._pair_counts = shadow.wrap_pair_counts(_pair_counts)
    failed = False
    try:
        for name, run in RUNS.items():
            # fresh groups per run, so each run builds its own tables
            groups._GROUPS.clear()
            shadow.reset(name)
            start = time.perf_counter()
            try:
                run()
                error = None
            except Exception as exc:     # reported, then counted as a failure
                error = f"{type(exc).__name__}: {exc}"
            wall = time.perf_counter() - start
            print(json.dumps({
                "run": name, "calls": shadow.calls, "products": shadow.products,
                "inverses": shadow.inverses, "product_sets": shadow.set_calls,
                "sets_checked": shadow.sets_checked,
                "sets_skipped": shadow.sets_skipped,
                "pair_rows": shadow.pair_rows,
                "rows_checked": shadow.rows_checked,
                "rows_skipped": shadow.rows_skipped,
                "mismatches": shadow.mismatches,
                "wall_s": round(wall, 2), "error": error}))
            for text in shadow.examples:
                print(text, file=sys.stderr)
            failed |= shadow.mismatches > 0 or error is not None
    finally:
        FiniteGroup.mul_pairs, FiniteGroup.inv_array = originals
        for module in importers:
            module.product_set = product_set
        for module in kernel_importers:
            module._pair_counts = _pair_counts
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
