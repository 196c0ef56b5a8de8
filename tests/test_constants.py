"""Exponent tables: fixpoint audit, frozen aggregates, and an empirical
soundness check of the word bounds on measured sets.

The derivation rules are theorems (one-line proofs in docs/constants.md);
what the tests guard is that the shipped tables are an actual fixpoint of
those rules, that the frozen aggregates match the dynamic programme, and
that the claimed inequalities hold on concrete sets with measured K.
"""

import functools
import importlib.util
import os
import random
import subprocess
import sys
from fractions import Fraction
from itertools import product as iproduct
from pathlib import Path

from setgrowth import constants
from setgrowth.constants import (
    COVER_POLY_HISTOGRAM_7,
    POSITIVE_POWER_EXPONENTS,
    TRIPLING_CHAIN_EXPONENTS,
    chain_exponent,
    cover_poly_value,
    positive_power_exponent,
    word_exponent,
)
from setgrowth.groups import construct_group
from setgrowth.setops import MSet, inverse_set, power_set, product_set
from setgrowth.families import measured_tripling

_SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "derive_constants.py"
_spec = importlib.util.spec_from_file_location("derive_constants", _SCRIPT)
derive_constants = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(derive_constants)
derive_word_exponents = derive_constants.derive_word_exponents


def all_words(max_len):
    for length in range(1, max_len + 1):
        yield from iproduct((1, -1), repeat=length)


def test_base_cases():
    assert word_exponent((1,)) == 0
    assert word_exponent((-1,)) == 0
    assert word_exponent((1, 1, 1)) == 1
    assert word_exponent((-1, -1, -1)) == 1


def test_table_is_a_fixpoint_of_the_rules():
    e = derive_word_exponents(7)
    for w in all_words(7):
        val = e[w]
        mirror = tuple(-s for s in reversed(w))
        assert e[mirror] == val
        if len(w) < 7:
            for b in (1, -1):
                assert val <= e[w + (b,)]
                assert val <= e[(b,) + w]
        for i in range(1, len(w)):
            for b in (1, -1):
                assert val <= e[w[:i] + (-b,)] + e[(b,) + w[i:]]


def test_frozen_word_table_is_the_fixpoint():
    assert constants._WORD_EXPONENTS == derive_word_exponents(8)


def test_derive_script_prints_the_committed_word_table():
    source = Path(constants.__file__).read_text(encoding="utf-8")
    start = source.index("_WORD_EXPONENT_HEX = (")
    literal = source[start:source.index("\n)\n", start) + 2]
    package_parent = str(Path(constants.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (package_parent, os.environ.get("PYTHONPATH")))))
    done = subprocess.run([sys.executable, str(_SCRIPT)], env=env,
                          capture_output=True, text=True, check=True)
    table = {}
    exec(literal, table)
    assert [len(r) for r in table["_WORD_EXPONENT_HEX"]] == [2**n for n in range(1, 9)]
    assert literal in done.stdout


def test_chain_exponents_are_the_rowwise_maxima():
    e = derive_word_exponents(6)
    for n in range(1, 7):
        expected = max(v for w, v in e.items() if len(w) <= n)
        assert TRIPLING_CHAIN_EXPONENTS[n] == expected
        assert chain_exponent(n) == expected


def test_chain_exponent_values():
    assert [chain_exponent(n) for n in range(1, 7)] == [0, 2, 3, 5, 7, 9]


def test_positive_power_table_matches_dp():
    e = derive_word_exponents(8)
    for n in range(1, 9):
        assert positive_power_exponent(n) == e[(1,) * n]


def test_positive_power_specific_values():
    assert positive_power_exponent(5) == 5
    assert positive_power_exponent(7) == 9
    assert positive_power_exponent(25) == 45
    assert positive_power_exponent(79) == 153


def test_positive_power_tail_is_linear():
    for n in range(14, 30):
        assert positive_power_exponent(n) == 2 * n - 5


def test_histogram_matches_dp():
    e = derive_word_exponents(7)
    hist = {0: 1}  # the empty word
    for w in all_words(7):
        hist[e[w]] = hist.get(e[w], 0) + 1
    assert hist == COVER_POLY_HISTOGRAM_7


def test_cover_poly_values():
    assert cover_poly_value(Fraction(1)) == 255
    assert cover_poly_value(Fraction(2)) == 55995
    # monotone in K
    assert cover_poly_value(Fraction(3, 2)) < cover_poly_value(Fraction(2))


def test_word_exponent_beyond_table():
    # the splice tail stays consistent with the direct positive-power rule
    assert word_exponent((1,) * 25) == 45
    assert word_exponent((1,) * 79) == 153
    # mirror symmetry survives the recursion
    w = (1, -1, 1, 1, -1, 1, 1, 1, -1)
    m = tuple(-s for s in reversed(w))
    assert word_exponent(w) == word_exponent(m)


def test_word_bounds_hold_on_measured_sets():
    """|A^w| <= K^E(w) |A| with K the measured tripling constant."""
    rng = random.Random("constants-soundness")
    groups = [construct_group(s) for s in
              ("cyclic(48)", "dihedral(10)", "symmetric(4)")]
    words = [w for w in all_words(4)]
    checked = 0
    for g in groups:
        for _ in range(6):
            size = rng.randint(2, 5)
            a = MSet.from_ids(g, rng.sample(range(g.order), size))
            k = measured_tripling(a)
            factors = {1: a, -1: inverse_set(a)}
            for w in words:
                lhs = functools.reduce(product_set, map(factors.get, w)).size
                assert lhs <= k ** word_exponent(w) * a.size
                checked += 1
    assert checked >= 500


def test_power_bounds_hold_on_measured_sets():
    g = construct_group("cyclic(200)")
    a = MSet.from_ids(g, [0, 1, 199])
    k = measured_tripling(a)
    for n in range(1, 10):
        assert power_set(a, n).size <= k ** positive_power_exponent(n) * a.size
