"""The four benchmark workloads: seeded inputs and the report each checks.

Each workload is a pair of functions.  ``setup(seed)`` builds the groups
and input sets from the workload seed alone; ``verify(inputs, span,
checkpoint)`` runs the checks and returns the merged ``Report`` whose CSV
digest the benchmark compares.  A verification made of separate parts
runs each under ``span(name)`` and calls ``checkpoint()`` between them.
Both run inside a fresh worker process, so the group row caches and
``heisenberg._BUILD_CACHE`` start cold.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Callable

from setgrowth import heisenberg as hb
from setgrowth.bsg import bsg_extract
from setgrowth.families import measured_tripling
from setgrowth.groups import construct_group
from setgrowth.setops import MSet, power_set, product_set, symmetrize
from setgrowth.structure import classify_small_doubling
from setgrowth.suites import (
    SUITE_NAMES,
    Report,
    SuiteConfig,
    _energy_k,
    default_config,
    run_named_suite,
)

HEISENBERG_P7 = "heisenberg(z=Zp^2,p=7;w=Zp^1,p=7;pairing=symplectic)"
SL2_SPEC = "sl2(11)"
SL2_SET_SIZE = 40
BSG_SPEC = "symmetric(7)"
BSG_DENSITY = 12  # one id in twelve


@dataclass(frozen=True)
class Workload:
    setup: Callable[[int], object]
    verify: Callable[..., Report]


# -- suite-default: what `setgrowth suite run` does -------------------------

def _suite_setup(seed: int) -> SuiteConfig:
    config = default_config()
    return SuiteConfig(tuple(replace(j, seed=seed) for j in config.jobs),
                       out=config.out)


def _suite_verify(config: SuiteConfig, span, checkpoint) -> Report:
    """``run_suite(config)``, one ``run_named_suite`` per suite.

    The merged rows digest exactly like the ``run_suite`` report; the split
    gives each suite its own span and checkpoint.
    """
    seed = config.jobs[0].seed
    merged = Report(title="suite-all")
    for i, name in enumerate(SUITE_NAMES):
        if i:
            checkpoint()
        with span(f"suites.{name}"):
            merged.rows.extend(run_named_suite(name, seed=seed).rows)
    return merged


# -- heisenberg-p7: table build and law sweeps, then the inverse step ------

def _heisenberg_setup(seed: int) -> MSet:
    """The radius-2 ball on two generators of heisenberg(p=7).

    The generators are the images of the two standard ones under a seeded
    automorphism (z, w) -> (Mz, det(M) w + l(z)), with M invertible and l
    linear, so every seed gives a copy of the suite's ``pair-ball-2``
    (|A| = 17) with the same sizes and the same amount of work.
    """
    g = construct_group(HEISENBERG_P7)
    p = g.spec.z_prime
    rng = random.Random(f"{seed}:heisenberg-p7")
    while True:
        m = [rng.randrange(p) for _ in range(4)]
        if (m[0] * m[3] - m[1] * m[2]) % p:
            break
    cols = ((m[0], m[2]), (m[1], m[3]))
    gens = [g.encode(c0 * p + c1, rng.randrange(p)) for c0, c1 in cols]
    return power_set(symmetrize(MSet.from_ids(g, gens)), 2)


def _heisenberg_verify(a: MSet, span, checkpoint) -> Report:
    k = measured_tripling(a)
    witness = hb.heisen_inverse(a, k)
    converse = hb.verify_inverse_converse(witness, a)
    report = Report(title="heisenberg-p7")
    report.merge_ledger("heisenberg", "heisen_inverse", witness.ledger)
    report.merge_ledger("heisenberg", "converse", converse)
    return report


# -- sl2-classify: product loops on the cached-row path ---------------------

def _sl2_setup(seed: int) -> MSet:
    g = construct_group(SL2_SPEC)
    rng = random.Random(f"{seed}:sl2-classify")
    return MSet.from_ids(g, rng.sample(range(g.order), SL2_SET_SIZE))


def _sl2_verify(a: MSet, span, checkpoint) -> Report:
    k = Fraction(product_set(a, a).size, a.size)
    _, _, ledger = classify_small_doubling(a, a, k)
    report = Report(title="sl2-classify")
    report.merge_ledger("structure", "classify_small_doubling", ledger)
    return report


# -- bsg-large: above ROW_CACHE_CAP, so every product is a raw multiply -----

def _bsg_setup(seed: int) -> MSet:
    """A seeded random subset of density exactly 1/12 (420 of 5040 ids).

    ``random_dense`` draws each id independently, so its size, and with
    it the work, would vary with the seed; a fixed size keeps every seed
    comparable.
    """
    g = construct_group(BSG_SPEC)
    rng = random.Random(f"{seed}:bsg-large")
    return MSet.from_ids(g, rng.sample(range(g.order), g.order // BSG_DENSITY))


def _bsg_verify(a: MSet, span, checkpoint) -> Report:
    extract = bsg_extract(a, a, _energy_k(a, a))
    report = Report(title="bsg-large")
    report.merge_ledger("bsg", "bsg_extract", extract.ledger)
    return report


WORKLOADS = {
    "suite-default": Workload(_suite_setup, _suite_verify),
    "heisenberg-p7": Workload(_heisenberg_setup, _heisenberg_verify),
    "sl2-classify": Workload(_sl2_setup, _sl2_verify),
    "bsg-large": Workload(_bsg_setup, _bsg_verify),
}
