"""Metric carriers, nets, separated sets, approximate energy, and the
entropy growth checks.

Circle oracles are hand-checkable: on a uniform n-point grid the greedy
net at radius eps keeps every ceil(2 eps n)-th point, and arc-union
measures reduce to interval bookkeeping in Fractions.
"""

import random
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from setgrowth.entropy import (
    MetricCloud,
    QuaternionGroup,
    TorusGroup,
    WordMetricGroup,
    _greedy_separated,
    approx_energy,
    arc_union_measure,
    build_entropy_report,
    covering_number,
    entropy_tripling_check,
    metric_profile_check,
    separated_set,
)
from setgrowth import cli, entropy
from setgrowth.groups import construct_group
from setgrowth.setops import MSet, energy
from setgrowth.structure import ConstantLedger

T1 = TorusGroup(1)


def grid_cloud(n):
    return MetricCloud(T1, T1.grid(n))


# --------------------------------------------------------------- carriers

def test_torus_point_normalization():
    assert T1.point(Fraction(7, 5)) == (Fraction(2, 5),)
    assert T1.inv((Fraction(1, 4),)) == (Fraction(3, 4),)
    assert T1.mul((Fraction(3, 4),), (Fraction(1, 2),)) == (Fraction(1, 4),)


def test_torus_distance_wraps():
    assert T1.distance_value((Fraction(9, 10),), (Fraction(1, 10),)) == Fraction(1, 5)
    t2 = TorusGroup(2)
    p = t2.point(Fraction(9, 10), 0)
    q = t2.point(Fraction(1, 10), 0)
    assert t2.distance_sq(p, q) == Fraction(1, 25)


def test_torus_rejects_bad_dimension():
    with pytest.raises(ValueError):
        TorusGroup(4)


def test_quaternion_norm_is_multiplicative():
    g = QuaternionGroup()
    p = g.point(1.0, 2.0, 0.5, -1.0)
    q = g.point(0.3, -1.0, 2.0, 0.7)
    r = g.mul(p, q)
    assert sum(c * c for c in r) == pytest.approx(1.0, abs=1e-12)
    assert g.distance_value(p, p) == 0.0


def test_word_metric_distances():
    g = construct_group("cyclic(60)")
    wg = WordMetricGroup(g, [1, 7])
    assert wg.distance_value(0, 7) == 1
    assert wg.distance_value(0, 8) == 2
    assert wg.distance_value(0, 2) == 2
    assert wg.diameter() == 6


def scalar_word_distances(g, generators):
    """Word lengths from the identity by the scalar breadth-first search."""
    gens = {s for s in generators if s} | {g.inv(s) for s in generators if s}
    dist = [-1] * g.order
    dist[0] = 0
    frontier = [0]
    while frontier:
        nxt = []
        for x in frontier:
            for s in gens:
                y = g.mul(x, s)
                if dist[y] < 0:
                    dist[y] = dist[x] + 1
                    nxt.append(y)
        frontier = nxt
    return tuple(dist)


@pytest.mark.parametrize("spec, gens", [
    ("cyclic(60)", [1, 7]),
    ("cyclic(60)", [0, 59]),
    ("dihedral(9)", [1, 9]),
    ("symmetric(4)", [1, 9]),
    ("sl2(5)", [1, 2, 3]),
    ("direct_product(cyclic(4),symmetric(3))", [1, 2, 6]),
])
def test_word_metric_matches_scalar_search(spec, gens):
    g = construct_group(spec)
    wg = WordMetricGroup(g, gens)
    dist = scalar_word_distances(g, gens)
    assert wg.dist_from_identity == dist
    assert all(type(d) is int for d in wg.dist_from_identity)
    radii = range(max(dist) + 3)
    assert [wg._ball_size(r) for r in radii] == [
        sum(d < r for d in dist) for r in radii]
    assert wg.generators == tuple(sorted(
        {s for s in gens if s} | {g.inv(s) for s in gens if s}))


def test_word_metric_needs_generators():
    g = construct_group("cyclic(60)")
    with pytest.raises(ValueError):
        WordMetricGroup(g, [0])


# ---------------------------------------------------------------- clouds

def test_cloud_dedupes_and_sorts():
    pts = [(Fraction(1, 2),), (Fraction(0),), (Fraction(1, 2),)]
    cloud = MetricCloud(T1, pts)
    assert cloud.points == ((Fraction(0),), (Fraction(1, 2),))


# --------------------------------------------------------- nets and seps

def test_grid_net_counts():
    cloud = grid_cloud(100)
    assert covering_number(cloud, Fraction(1, 20)).count == 20
    assert covering_number(cloud, Fraction(1, 40)).count == 33
    assert len(separated_set(cloud, Fraction(1, 10))) == 10


def test_net_centers_cover():
    cloud = grid_cloud(30)
    res = covering_number(cloud, Fraction(1, 10))
    for p in cloud:
        assert any(T1.within(c, p, Fraction(1, 10)) for c in res.centers)


def test_separated_set_is_separated():
    cloud = grid_cloud(30)
    pts = separated_set(cloud, Fraction(1, 10))
    for i, p in enumerate(pts):
        for q in pts[i + 1:]:
            assert not T1.closer_than(p, q, Fraction(1, 10))


# ----------------------------------------------- close_mask against closer_than

def scalar_scan(group, points, eps):
    """The reference first-uncovered scan, one closer_than per pair."""
    chosen = []
    for p in points:
        if all(not group.closer_than(p, c, eps) for c in chosen):
            chosen.append(p)
    return chosen


def assert_kernel_matches_oracle(group, points, eps):
    """close_mask row by row, and the greedy scan, against closer_than."""
    rows, radius = group.metric_array(points, eps)
    for p, row in zip(points, rows):
        mask = group.close_mask(row, rows, radius)
        assert mask.tolist() == [group.closer_than(p, q, eps) for q in points]
    assert _greedy_separated(group, points, eps) == scalar_scan(group, points, eps)
    return rows


TORUS_EPS = [Fraction(1, 10), Fraction(2, 7), Fraction(1, 2), 1]


@pytest.mark.parametrize("dim, resolution", [(1, 40), (2, 8), (3, 4)])
def test_close_mask_on_torus_grids(dim, resolution):
    g = TorusGroup(dim)
    points = g.grid(resolution)
    for eps in TORUS_EPS:
        rows = assert_kernel_matches_oracle(g, points, eps)
        assert rows.dtype == np.int64


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_close_mask_on_mixed_denominators(dim):
    rng = random.Random(dim)
    g = TorusGroup(dim)
    dens = [2, 3, 5, 7, 12, 97, 128, 1000]
    points = [
        g.point(*(Fraction(rng.randrange(d), d) for d in rng.choices(dens, k=dim)))
        for _ in range(40)
    ]
    for eps in [Fraction(1, 13), Fraction(3, 10), Fraction(5, 11)]:
        assert_kernel_matches_oracle(g, points, eps)


def test_close_mask_is_strict_at_exactly_eps():
    g = TorusGroup(2)
    origin = g.point(0, 0)
    far = g.point(Fraction(-3, 10), Fraction(2, 5))  # a 3-4-5 triangle across the wrap
    assert g.distance_sq(origin, far) == Fraction(1, 4)
    rows, radius = g.metric_array([origin, far], Fraction(1, 2))
    assert not g.close_mask(rows[0], rows[1], radius)
    assert _greedy_separated(g, [origin, far], Fraction(1, 2)) == [origin, far]
    rows, radius = g.metric_array([origin, far], Fraction(501, 1000))
    assert g.close_mask(rows[0], rows[1], radius)
    assert _greedy_separated(g, [origin, far], Fraction(501, 1000)) == [origin]


def test_close_mask_python_int_branch():
    # denominators near 2**40 put dim * D**2 far above 2**62
    rng = random.Random(40)
    g = TorusGroup(3)
    dens = [2**40 - 87, 2**40 - 167, 2**40 + 15, 10**12 + 39]
    points = [
        g.point(*(Fraction(rng.randrange(d), d) for d in rng.choices(dens, k=3)))
        for _ in range(30)
    ]
    for eps in [Fraction(1, 5), Fraction(2**39, 2**40 - 87)]:
        rows = assert_kernel_matches_oracle(g, points, eps)
        assert rows.dtype == object


@pytest.mark.parametrize("count", [10, 180])
def test_close_mask_on_quaternion_clouds(count):
    g = QuaternionGroup()
    points = g.haar_points(count, seed=count)
    for eps in [0.15, 0.3, 0.6, 1.2]:
        assert_kernel_matches_oracle(g, points, eps)


def test_close_mask_on_word_metric():
    g = WordMetricGroup(construct_group("cyclic(60)"), [1, 7])
    points = list(range(60))
    for eps in [1, Fraction(3, 2), 2, Fraction(5, 2), 6, 7]:
        assert_kernel_matches_oracle(g, points, eps)


def test_entropy_report_sandwich():
    report = build_entropy_report(grid_cloud(64), [Fraction(1, 8), Fraction(1, 16)])
    assert report.ledger.hard_ok
    names = [r.name for r in report.ledger.rows]
    assert "sandwich-low-0" in names and "sandwich-high-0" in names


# --------------------------------------------------------------- energy

def test_approx_energy_matches_discrete():
    g5 = construct_group("cyclic(5)")
    a = MSet.from_ids(g5, [0, 1, 2])
    cloud = MetricCloud(T1, [(Fraction(i, 5),) for i in range(3)])
    assert approx_energy(cloud, cloud, Fraction(1, 20)) == energy(a, a).value == 19


def test_approx_energy_grows_with_radius():
    cloud = MetricCloud(T1, [(Fraction(i, 5),) for i in range(3)])
    low = approx_energy(cloud, cloud, Fraction(1, 20))
    high = approx_energy(cloud, cloud, Fraction(1, 4))
    assert high >= low


def reference_approx_energy(a, b, eps):
    """The two-pass reference: list every near-collision quadruple, then
    scan the list, stopping each sum-metric distance once its partial sum
    reaches eps.  Returns (net count, quadruple count)."""
    g = a.group
    e = g.as_eps(eps)
    pairs = [(x, y, g.mul(x, y)) for x in a.points for y in b.points]
    quads = []
    for xa, xb, pa in pairs:
        for ya, yb, pb in pairs:
            if g.within(pa, pb, e):
                quads.append((xa, xb, ya, yb))
    chosen = []
    for quad in quads:
        covered = False
        for center in chosen:
            total = 0
            inside = True
            for u, v in zip(quad, center):
                total = total + g.distance_value(u, v)
                if not total < e:
                    inside = False
                    break
            if inside:
                covered = True
                break
        if not covered:
            chosen.append(quad)
    return len(chosen), len(quads)


T2 = TorusGroup(2)
C30_WORD = WordMetricGroup(construct_group("cyclic(30)"), [1, 7])
QUAT = QuaternionGroup()

ENERGY_CASES = {
    "torus1-grid": (MetricCloud(T1, T1.grid(3)),
                    [Fraction(1, 100), Fraction(1, 3), Fraction(1, 2)]),
    "torus1-mixed": (MetricCloud(T1, [(Fraction(k, 7),) for k in (0, 1, 3)]
                                 + [(Fraction(1, 2),), (Fraction(2, 5),)]),
                     [Fraction(1, 50), Fraction(1, 3)]),
    "torus2-grid": (MetricCloud(T2, T2.grid(2)), [Fraction(1, 10), 1]),
    "torus2-points": (MetricCloud(T2, [T2.point(0, 0), T2.point(Fraction(1, 3), 0),
                                       T2.point(Fraction(1, 4), Fraction(3, 4))]),
                      [Fraction(1, 20), Fraction(2, 5), Fraction(4, 5)]),
    "word-cyclic30": (MetricCloud(C30_WORD, [0, 1, 2, 7, 15]),
                      [1, Fraction(3, 2), 2, Fraction(7, 2)]),
    "quaternion-haar": (MetricCloud(QUAT, QUAT.haar_points(4, seed=5)),
                        [0.05, 0.5, 1.0, 2.5]),
}


@pytest.mark.parametrize("case", sorted(ENERGY_CASES))
def test_approx_energy_matches_the_reference_loop(case):
    cloud, radii = ENERGY_CASES[case]
    merged = set()
    for eps in radii:
        net, quads = reference_approx_energy(cloud, cloud, eps)
        assert approx_energy(cloud, cloud, eps) == net
        merged.add(net < quads)
    # every case has a radius where some quadruples share a net point
    # and one where each near-collision quadruple is its own net point
    assert merged == {True, False}


# ----------------------------------------------------------- arc measure

def test_arc_measure_single_point():
    assert arc_union_measure([(Fraction(0),)], Fraction(1, 10)) == Fraction(1, 5)


def test_arc_measure_disjoint_arcs():
    pts = [(Fraction(0),), (Fraction(1, 2),)]
    assert arc_union_measure(pts, Fraction(1, 10)) == Fraction(2, 5)


def test_arc_measure_overlap_and_wraparound():
    pts = [(Fraction(0),), (Fraction(3, 100),)]
    assert arc_union_measure(pts, Fraction(1, 50)) == Fraction(7, 100)
    wrap = [(Fraction(0),), (Fraction(99, 100),)]
    assert arc_union_measure(wrap, Fraction(1, 50)) == Fraction(1, 20)


def test_arc_measure_ten_point_run():
    pts = [(Fraction(i, 100),) for i in range(10)]
    assert arc_union_measure(pts, Fraction(1, 100)) == Fraction(11, 100)
    assert arc_union_measure(pts, Fraction(1, 20)) == Fraction(19, 100)


# ------------------------------------------------------------- profiles

def test_torus_profile_hard_rows():
    rep = metric_profile_check(T1, seed=7)
    assert rep.hard_ok


def test_word_profile_hard_rows():
    g = construct_group("cyclic(60)")
    rep = metric_profile_check(WordMetricGroup(g, [1, 7]), seed=7)
    assert rep.hard_ok


def test_quaternion_profile_hard_rows():
    # the 5 percent doubling band is calibrated for the default sample
    # depth, so this one runs the full Monte-Carlo
    rep = metric_profile_check(QuaternionGroup(), seed=1729)
    assert rep.hard_ok


# ------------------------------------------------- Monte-Carlo ball counts

def _one_batch_fractions(radii, seed):
    """QuaternionGroup.ball_fractions drawn as one MC_SAMPLES x 4 batch, as
    it was before the sample was blocked: the oracle of the blocked draw."""
    n = entropy.MC_SAMPLES
    rng = np.random.default_rng(seed)
    raw = rng.normal(size=(n, 4))
    norms = np.linalg.norm(raw, axis=1)
    unit = raw / norms[:, None]
    unit[:, 0] -= 1.0
    dist = np.linalg.norm(unit, axis=1)
    return [float(np.count_nonzero(dist < r)) / n for r in radii]


def test_ball_fractions_pinned_at_the_default_seed():
    assert entropy.MC_SAMPLES == 10**6
    fractions = QuaternionGroup().ball_fractions((0.2, 0.4), 1729)
    assert fractions == [1784 / 10**6, 13382 / 10**6]


@pytest.mark.parametrize("seed", [0, 1, 7, 1729, 2**40 + 3])
def test_blocked_ball_fractions_match_one_batch(seed, monkeypatch):
    # 50,001 = 12 * 4096 + 849: twelve full blocks and a ragged last one
    monkeypatch.setattr(entropy, "MC_SAMPLES", 50_001)
    radii = (0.05, 0.2, 0.4, 1.0, 1.9, 2.0)
    got = QuaternionGroup().ball_fractions(radii, seed)
    assert got == _one_batch_fractions(radii, seed)
    assert got[-1] == 1.0      # every chordal distance is below 2


def test_ball_fractions_memory_is_one_block():
    # one MC_SAMPLES x 4 float64 batch alone is 32 MB, and the one-batch
    # draw peaked at 114 MB; a 4096-point block is 128 KB
    tracemalloc.start()
    try:
        QuaternionGroup().ball_fractions((0.2, 0.4), 1729)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20


CLI_CARRIERS = ["torus1", "torus2", "torus3", "quaternion", "word:cyclic(30):1,7"]


@pytest.mark.parametrize("carrier", CLI_CARRIERS)
def test_every_cli_carrier_profile_hard_rows(carrier):
    assert metric_profile_check(cli._entropy_carrier(carrier)).hard_ok


@pytest.mark.parametrize("carrier", CLI_CARRIERS)
def test_every_cli_carrier_sweeps(carrier, capsys):
    assert cli.main(["entropy", "sweep", "--carrier", carrier]) == 0
    assert "[hard]" in capsys.readouterr().out


@pytest.mark.parametrize("carrier, message", [
    ("word:cyclic(30)", "word carrier 'word:cyclic(30)' is missing a part of "
                        "word:<group>:<gens>"),
    ("word:cyclic(30):", "word carrier 'word:cyclic(30):' is missing a part of "
                         "word:<group>:<gens>"),
    ("word::1,7", "word carrier 'word::1,7' is missing a part of "
                  "word:<group>:<gens>"),
    ("word:cyclic(30):1,a", "word carrier expects comma-separated ids, got '1,a'"),
    ("word:cyclic(30):1,,7", "word carrier entry 2 is empty"),
])
def test_a_bad_word_carrier_is_named(carrier, message, capsys):
    assert cli.main(["entropy", "sweep", "--carrier", carrier]) == 2
    assert capsys.readouterr().err.splitlines() == [message]


def test_tripling_check_on_an_arc():
    cloud = MetricCloud(T1, [(Fraction(i, 100),) for i in range(10)])
    rep = entropy_tripling_check(cloud, Fraction(1, 100))
    assert rep.hard_ok
    assert rep.net_base > 0
    assert rep.net_cubed >= rep.net_base
    assert rep.measured_tripling == Fraction(rep.net_cubed, rep.net_base)


def test_tripling_check_caps_blowup():
    # 2100^2 raw pairwise products exceed the guard
    cloud = MetricCloud(T1, T1.grid(2100))
    with pytest.raises(ValueError):
        entropy_tripling_check(cloud, Fraction(1, 10000))


class PlantedTriangle:
    """Ten points at distance 1 from one another, but for d(0, 1) = 3:
    only the triangle d(0, 1) <= d(0, k) + d(k, 1) through a third point k
    fails, and k > 1 for every such k."""

    def distance_value(self, x, y):
        return 0 if x == y else 3 if {x, y} == {0, 1} else 1


def test_metric_triangle_checks_every_ordered_triple():
    carrier, led = PlantedTriangle(), ConstantLedger("planted")
    entropy._metric_axiom_rows(carrier, MetricCloud(carrier, range(10)), led, 0)
    holds = {row.name: row.holds for row in led.rows}
    assert holds == {"metric-symmetry": True, "metric-triangle": False,
                     "metric-identity": True}
