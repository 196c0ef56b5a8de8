"""Metric carriers, nets, separated sets, approximate energy, and the
entropy growth checks.

Circle oracles are hand-checkable: on a uniform n-point grid the greedy
net at radius eps keeps every ceil(2 eps n)-th point, and arc-union
measures reduce to interval bookkeeping in Fractions.
"""

import itertools
import math
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
    _entropy_rows,
    approx_energy,
    arc_union_measure,
    covering_number,
    entropy_tripling_check,
    metric_profile_check,
    separated_set,
)
from setgrowth import cli, entropy
from setgrowth.groups import ORDER_CAP, construct_group
from setgrowth.setops import MSet, energy, product_set, translate_left
from setgrowth.structure import ConstantLedger

T1 = TorusGroup(1)


def grid_id(g, *coords):
    """The id of the torus point with these coordinates, each reduced into
    [0, 1) and on g's grid: the leftmost axis is most significant."""
    n, x = g.scale, 0
    for c in coords:
        k = Fraction(c) * n % n
        assert k.denominator == 1, (c, n)
        x = x * n + int(k)
    return x


def grid_cloud(n):
    return MetricCloud(TorusGroup(1, n), range(n))


# --------------------------------------------------------------- carriers

def test_torus_point_normalization():
    t = TorusGroup(1, 20)
    assert grid_id(t, Fraction(7, 5)) == grid_id(t, Fraction(2, 5)) == 8
    assert t.inv(grid_id(t, Fraction(1, 4))) == grid_id(t, Fraction(3, 4))
    assert t.mul(grid_id(t, Fraction(3, 4)), grid_id(t, Fraction(1, 2))) == (
        grid_id(t, Fraction(1, 4)))
    # the product of ids is the coordinatewise sum of the points, and id
    # order is their lexicographic order
    t3 = TorusGroup(3, 4)
    points = list(itertools.product([Fraction(k, 4) for k in range(4)], repeat=3))
    assert [grid_id(t3, *p) for p in points] == list(range(64))
    for p, q in itertools.product(points[::7], points[::5]):
        s = [a + b for a, b in zip(p, q)]
        assert t3.mul(grid_id(t3, *p), grid_id(t3, *q)) == grid_id(t3, *s)


def test_torus_distance_wraps():
    t1 = TorusGroup(1, 10)
    assert t1.distance_value(9, 1) == Fraction(1, 5)
    t2 = TorusGroup(2, 10)
    p = grid_id(t2, Fraction(9, 10), 0)
    q = grid_id(t2, Fraction(1, 10), 0)
    assert t2.norm[t2.mul(t2.inv(p), q)] == 4      # (1/5)^2 on the scale 10
    assert t2.distance_value(p, q) == math.sqrt(Fraction(1, 25))


def test_torus_rejects_bad_dimension():
    with pytest.raises(ValueError):
        TorusGroup(4)
    with pytest.raises(ValueError, match="resolution must be at least 1"):
        TorusGroup(2, 0)


def test_torus_norm_is_the_squared_quotient_distance():
    for dim, n in [(1, 7), (2, 6), (3, 4)]:
        t = TorusGroup(dim, n)
        points = list(itertools.product(range(n), repeat=dim))
        assert [grid_id(t, *(Fraction(c, n) for c in p)) for p in points] == (
            list(range(n ** dim)))
        assert t.norm.tolist() == [
            sum(min(c, n - c) ** 2 for c in p) for p in points]


def unit_quaternion(w, x, y, z):
    """The unit quaternion in the direction of (w, x, y, z)."""
    norm = math.sqrt(w * w + x * x + y * y + z * z)
    return (w / norm, x / norm, y / norm, z / norm)


def test_quaternion_norm_is_multiplicative():
    g = QuaternionGroup()
    p = unit_quaternion(1.0, 2.0, 0.5, -1.0)
    q = unit_quaternion(0.3, -1.0, 2.0, 0.7)
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
    cloud = MetricCloud(T1, [60, 0, 60])
    assert cloud.points == (0, 60)


# --------------------------------------------------------- nets and seps

def test_grid_net_counts():
    cloud = grid_cloud(100)
    assert covering_number(cloud, Fraction(1, 20)).count == 20
    assert covering_number(cloud, Fraction(1, 40)).count == 33
    assert len(separated_set(cloud, Fraction(1, 10))) == 10


def test_net_centers_cover():
    cloud = grid_cloud(30)
    centers = cloud.group.net(cloud.points, cloud.group.as_eps(Fraction(1, 10)))
    assert covering_number(cloud, Fraction(1, 10)).count == len(centers)
    for p in cloud:
        assert any(cloud.group.within(c, p, Fraction(1, 10)) for c in centers)


def test_separated_set_is_separated():
    cloud = grid_cloud(30)
    pts = separated_set(cloud, Fraction(1, 10))
    for i, p in enumerate(pts):
        for q in pts[i + 1:]:
            assert not cloud.group.closer_than(p, q, Fraction(1, 10))


# ------------------------------------------- the net scan against closer_than

def scalar_scan(group, points, eps):
    """The reference first-uncovered scan, one closer_than per pair."""
    chosen = []
    for p in points:
        if all(not group.closer_than(p, c, eps) for c in chosen):
            chosen.append(p)
    return chosen


def close_row(group, p, points, eps):
    """Which of the points the scan takes as strictly within eps of p: on
    the id carriers those in the ball about p, p*B_eps; on the quaternions
    those that the two-point scan (p, q) drops."""
    if isinstance(group, QuaternionGroup):
        return [len(group.net([p, q], eps)) == 1 for q in points]
    near = translate_left(p, group.ball(eps))
    return [q in near for q in points]


def assert_scan_matches_oracle(group, points, eps, pairs=False):
    """The carrier's net against scalar_scan; with pairs, also every
    pair's closeness decision against closer_than."""
    got = list(group.net(points, eps))
    want = scalar_scan(group, points, eps)
    # the id carriers return their centers in id order
    assert got == (want if isinstance(group, QuaternionGroup) else sorted(want))
    if pairs:
        for p in points:
            assert close_row(group, p, points, eps) == [
                group.closer_than(p, q, eps) for q in points], (p, eps)


TORUS_EPS = [Fraction(1, 10), Fraction(2, 7), Fraction(1, 2), 1]


@pytest.mark.parametrize("dim, resolution", [(1, 40), (2, 8), (3, 4)])
def test_close_mask_on_torus_grids(dim, resolution):
    g = TorusGroup(dim, resolution)
    for eps in TORUS_EPS:
        assert_scan_matches_oracle(g, range(g.group.order), eps, pairs=True)


# each dimension's denominators have an lcm whose grid fits ORDER_CAP
MIXED_DENOMINATORS = {1: [2, 3, 5, 7, 12, 97], 2: [2, 3, 5, 7], 3: [2, 3, 5]}


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_close_mask_on_mixed_denominators(dim):
    rng = random.Random(dim)
    dens = MIXED_DENOMINATORS[dim]
    g = TorusGroup(dim, math.lcm(*dens))
    points = [
        grid_id(g, *(Fraction(rng.randrange(d), d) for d in rng.choices(dens, k=dim)))
        for _ in range(40)
    ]
    for eps in [Fraction(1, 13), Fraction(3, 10), Fraction(5, 11)]:
        assert_scan_matches_oracle(g, points, eps, pairs=True)


def test_close_mask_is_strict_at_exactly_eps():
    g = TorusGroup(2, 10)
    origin = grid_id(g, 0, 0)
    far = grid_id(g, Fraction(-3, 10), Fraction(2, 5))  # a 3-4-5 triangle across the wrap
    assert g.norm[far] == 25                           # (1/2)^2 on the scale 10
    assert not g.closer_than(origin, far, Fraction(1, 2))
    assert g.net([origin, far], Fraction(1, 2)) == (origin, far)
    assert g.closer_than(origin, far, Fraction(501, 1000))
    assert g.net([origin, far], Fraction(501, 1000)) == (origin,)


def test_close_mask_python_int_branch():
    # radii a hair of 10^-20 either side of the distance 1/2: the squared
    # radius on the grid needs Python ints, and a float would round both
    # radii to 1/2
    g = TorusGroup(2, 10)
    origin, far = 0, grid_id(g, Fraction(-3, 10), Fraction(2, 5))
    hair = Fraction(1, 10**20)
    assert g.net([origin, far], Fraction(1, 2) + hair) == (origin,)
    assert g.net([origin, far], Fraction(1, 2) - hair) == (origin, far)
    for eps in [Fraction(1, 2) + hair, Fraction(10**19, 3 * 10**19 + 1), 10**30]:
        assert_scan_matches_oracle(g, range(g.group.order), eps)


@pytest.mark.parametrize("count", [10, 180])
def test_close_mask_on_quaternion_clouds(count):
    g = QuaternionGroup()
    points = g.haar_points(count, seed=count)
    for eps in [0.15, 0.3, 0.6, 1.2]:
        assert_scan_matches_oracle(g, points, eps, pairs=count <= 10)


def test_close_mask_on_word_metric():
    g = WordMetricGroup(construct_group("cyclic(60)"), [1, 7])
    for eps in [1, Fraction(3, 2), 2, Fraction(5, 2), 6, 7]:
        assert_scan_matches_oracle(g, range(60), eps, pairs=True)


def _arc_scans():
    """The scan orders of entropy_tripling_check on the default arc: the
    arc, its thinned square, and the base followed by the thinned cube."""
    g = TorusGroup(1, 100)
    arc = MSet.from_ids(g.group, range(10))
    half = Fraction(1, 200)
    squared = g.net(product_set(arc, arc).ids(), half)
    cubed = g.net(product_set(MSet.from_ids(g.group, squared), arc).ids(), half)
    return g, {"arc": arc.ids(), "thinned-square": squared,
               "base-then-cube": arc.ids() + cubed}


# The carriers of the default suite and of the pinned CLI sweeps, with
# symmetric(5) and sl2(5) for a non-abelian word metric, where a ball on
# the wrong side of the center gives other centers.
NET_CARRIERS = {
    "torus1": lambda: TorusGroup(1),
    "torus2": lambda: TorusGroup(2),
    "torus3": lambda: TorusGroup(3),
    "word-cyclic60": lambda: WordMetricGroup(construct_group("cyclic(60)"), [1, 7]),
    "word-cyclic30": lambda: WordMetricGroup(construct_group("cyclic(30)"), [1, 7]),
    "word-symmetric5": lambda: WordMetricGroup(construct_group("symmetric(5)"), [1, 32]),
    "word-sl2(5)": lambda: WordMetricGroup(construct_group("sl2(5)"), [1, 2]),
}


@pytest.mark.parametrize("name", sorted(NET_CARRIERS))
def test_cover_scan_nets_match_the_scalar_scan(name):
    g = NET_CARRIERS[name]()
    points = g.profile_points(0)
    for e in g.default_grid:
        for eps in (e, e / 2, 2 * e):
            assert_scan_matches_oracle(g, points, eps)
    # a radius whose denominator is above 10^18
    assert_scan_matches_oracle(g, points, Fraction(3 * 10**18 + 1, 2 * 10**18 + 7))


def test_cover_scan_nets_match_on_the_large_word_carrier():
    # the scalar scan of all 49,999 ids is quadratic, so it takes the ids
    # on both sides of the wrap; the CI sweep pin covers the whole group
    g = WordMetricGroup(construct_group("cyclic(49999)"), [1])
    points = list(range(300)) + list(range(49_700, 49_999))
    for eps in (Fraction(3, 2), Fraction(3, 4), 3, Fraction(5, 2), 5):
        assert_scan_matches_oracle(g, points, eps)


@pytest.mark.parametrize("scan", ["arc", "thinned-square", "base-then-cube"])
def test_cover_scan_nets_match_on_partial_clouds(scan):
    g, scans = _arc_scans()
    for eps in (Fraction(1, 100), Fraction(1, 200), Fraction(1, 50), Fraction(3, 100)):
        assert_scan_matches_oracle(g, scans[scan], eps, pairs=True)


def test_entropy_report_sandwich():
    cloud = grid_cloud(64)
    led = ConstantLedger("entropy-rows")
    _entropy_rows(cloud.group, cloud, [Fraction(1, 8), Fraction(1, 16)], led)
    assert led.hard_ok
    names = [r.name for r in led.rows]
    assert "entropy.sandwich-low-0" in names and "entropy.sandwich-high-0" in names


def test_profile_nets_each_radius_once(monkeypatch):
    # the circle grid 1/10, 1/20, 1/40 with its halves and doubles has five
    # distinct radii, 1/5 to 1/80; the sandwich reads the grid values' nets
    calls = {"covering_number": [], "separated_set": []}
    for name, log in calls.items():
        real = getattr(entropy, name)
        monkeypatch.setattr(entropy, name, lambda cloud, eps, real=real, log=log:
                            log.append(eps) or real(cloud, eps))
    assert metric_profile_check(TorusGroup(1)).hard_ok
    assert sorted(calls["covering_number"]) == [
        Fraction(1, 80), Fraction(1, 40), Fraction(1, 20), Fraction(1, 10),
        Fraction(1, 5)]
    assert calls["separated_set"] == []


@pytest.mark.parametrize("spec, gens", [
    ("cyclic(30)", [1, 7]), ("cyclic(999)", [1]), ("symmetric(5)", [1, 32]),
    ("sl2(5)", [1, 2]), ("dihedral(15)", [1, 15]),
])
def test_word_doubling_bound_is_the_largest_ball_ratio(spec, gens):
    w = WordMetricGroup(construct_group(spec), gens)
    ratios = [Fraction(w._ball_size(2 * r), w._ball_size(r))
              for r in range(1, w.diameter() + 1)]
    assert w.doubling_bound == max([Fraction(1)] + ratios)


# --------------------------------------------------------------- energy

def test_approx_energy_matches_discrete():
    g5 = construct_group("cyclic(5)")
    a = MSet.from_ids(g5, [0, 1, 2])
    cloud = MetricCloud(TorusGroup(1, 5), range(3))     # the points 0, 1/5, 2/5
    assert approx_energy(cloud, cloud, Fraction(1, 20)) == energy(a, a) == 19


def test_approx_energy_grows_with_radius():
    cloud = MetricCloud(TorusGroup(1, 5), range(3))
    low = approx_energy(cloud, cloud, Fraction(1, 20))
    high = approx_energy(cloud, cloud, Fraction(1, 4))
    assert high >= low


def test_approx_energy_refuses_clouds_on_two_grids():
    # both carriers are named torus(1), but the id 1 is 1/5 on one grid
    # and 1/10 on the other
    with pytest.raises(ValueError, match="different metric groups"):
        approx_energy(grid_cloud(5), grid_cloud(10), Fraction(1, 20))
    assert approx_energy(grid_cloud(5), grid_cloud(5), Fraction(1, 20)) == 125


@pytest.mark.parametrize("a, b, message", [
    (MetricCloud(TorusGroup(1, 26), range(13)), MetricCloud(TorusGroup(1, 26), range(2)),
     "approx_energy of 26 pairs may run 228150 net tests, above the bound 195000"),
    # 4.5 s when only the pair list was capped
    (grid_cloud(10), grid_cloud(10),
     "approx_energy of 100 pairs may run 49995000 net tests, above the bound 195000"),
])
def test_approx_energy_refuses_a_cloud_past_its_work_bound_at_once(a, b, message,
                                                                   refusal):
    # the 25 pairs of grid_cloud(5), the largest test clouds, stay inside
    assert refusal(1, approx_energy, a, b, Fraction(1, 100)) == message


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


T2_12 = TorusGroup(2, 12)
C30_WORD = WordMetricGroup(construct_group("cyclic(30)"), [1, 7])
QUAT = QuaternionGroup()

ENERGY_CASES = {
    "torus1-grid": (grid_cloud(3),
                    [Fraction(1, 100), Fraction(1, 3), Fraction(1, 2)]),
    # 0, 1/7, 3/7, 1/2 and 2/5 on the grid of 70 points
    "torus1-mixed": (MetricCloud(TorusGroup(1, 70), [0, 10, 30, 35, 28]),
                     [Fraction(1, 50), Fraction(1, 3)]),
    "torus2-grid": (MetricCloud(TorusGroup(2, 2), range(4)), [Fraction(1, 10), 1]),
    "torus2-points": (MetricCloud(T2_12, [grid_id(T2_12, 0, 0),
                                          grid_id(T2_12, Fraction(1, 3), 0),
                                          grid_id(T2_12, Fraction(1, 4), Fraction(3, 4))]),
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
    assert arc_union_measure([Fraction(0)], Fraction(1, 10)) == Fraction(1, 5)


def test_arc_measure_disjoint_arcs():
    pts = [Fraction(0), Fraction(1, 2)]
    assert arc_union_measure(pts, Fraction(1, 10)) == Fraction(2, 5)


def test_arc_measure_overlap_and_wraparound():
    pts = [Fraction(0), Fraction(3, 100)]
    assert arc_union_measure(pts, Fraction(1, 50)) == Fraction(7, 100)
    wrap = [Fraction(0), Fraction(99, 100)]
    assert arc_union_measure(wrap, Fraction(1, 50)) == Fraction(1, 20)


def test_arc_measure_ten_point_run():
    pts = [Fraction(i, 100) for i in range(10)]
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
    cloud = MetricCloud(TorusGroup(1, 100), range(10))
    led = entropy_tripling_check(cloud, Fraction(1, 100))
    assert led.hard_ok
    info = {r.name: r.lhs for r in led.rows if r.kind == "info"}
    assert info["net-base"] > 0
    assert info["net-cubed"] >= info["net-base"]
    assert info["measured-tripling"] == Fraction(info["net-cubed"], info["net-base"])


def test_tripling_check_caps_blowup():
    # 2100^2 raw pairwise products exceed the guard
    cloud = grid_cloud(2100)
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


# --------------------------------------------- bounded work for every carrier

HUGE = 10**30


def _field(rng: random.Random) -> int:
    """A group field or generator id: small, near ORDER_CAP, a power of
    ten up to 10^30, or any int of up to 31 digits."""
    kind = rng.randrange(4)
    if kind == 0:
        return rng.randint(-2, 40)
    if kind == 1:
        return rng.randint(41, 2 * ORDER_CAP)
    if kind == 2:
        return 10 ** rng.randint(2, 30)
    return rng.randint(-HUGE, HUGE)


def _random_carrier(rng: random.Random) -> str:
    """A word carrier text on a group of one family, half its group fields
    below 12 and three in four of its generator ids below 60."""
    def field(small, odds):
        return rng.randrange(small) if rng.random() < odds else _field(rng)

    family = rng.choice(["cyclic", "dihedral", "symmetric", "sl2", "direct_product"])
    if family == "direct_product":
        spec = f"direct_product(cyclic({field(12, 0.5)}),sl2({field(12, 0.5)}))"
    else:
        spec = f"{family}({field(12, 0.5)})"
    gens = ",".join(str(field(60, 0.75)) for _ in range(rng.randint(1, 3)))
    return f"word:{spec}:{gens}"


def _profile(text: str):
    """Parse the carrier text and run its profile."""
    metric_profile_check(cli._entropy_carrier(text))


BOUNDED_CARRIERS = [
    "torus1", "torus2", "torus3", "quaternion",
    # order 49,999 with diameter 24,999: about 40 s when each point was
    # tested against every kept center
    "word:cyclic(49999):1",
    f"word:cyclic({HUGE}):1", f"word:symmetric({HUGE}):1",
    f"word:direct_product(cyclic(2),sl2({HUGE})):1",
    f"word:cyclic(12):{HUGE}", f"word:cyclic(12):1,{-HUGE}", "word:cyclic(12):0",
    "word:cyclic(12):2", "word:symmetric(5):1,32", "word:sl2(5):1,2",
] + [_random_carrier(random.Random(1729 + i)) for i in range(200)]


def test_every_carrier_runs_or_is_refused_in_bounded_time(refusal):
    # each integer field and generator id reaches 10^30; a carrier whose
    # work followed a field's value, or whose nets were quadratic in the
    # order, would outlast the alarm, and any error but a one-line
    # ValueError fails here
    outcomes = {text: refusal(10, _profile, text) for text in BOUNDED_CARRIERS}
    refused = [m for m in outcomes.values() if m is not None]
    assert 0 < len(refused) < len(outcomes)
    assert all("\n" not in m for m in refused)
    for text in BOUNDED_CARRIERS[:5]:
        assert outcomes[text] is None, text
    assert outcomes[f"word:cyclic({HUGE}):1"].endswith(f"exceeds cap {ORDER_CAP}")
    assert outcomes[f"word:cyclic(12):{HUGE}"] == f"generator {HUGE} outside the group"
    assert outcomes["word:cyclic(12):0"] == (
        "need at least one generator besides the identity")
    assert outcomes["word:cyclic(12):2"] == "generators reach only 6 of 12 elements"
