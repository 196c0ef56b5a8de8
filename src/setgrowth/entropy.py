"""Metric entropy on concrete metric groups.

Greedy nets and separated sets with a canonical scan order, an
approximate multiplicative energy built from near-collision product
quadruples, and desk-scale profile checks (metric axioms, translation
regularity, ball doubling, entropy versus measure) for three carrier
families: tori up to dimension three, the unit quaternions under the
chordal metric, and finite groups under a word metric.

The torus and word carriers are one kind of object: a ``FiniteGroup``
with an integer norm array, ``norm[x] = D**2 * d(1, x)**2``, so that
``d(x, y)**2 = norm[x^-1 y] / D**2``.  A torus is the grid group
``(Z/N)^dim`` with D = N; a word metric has D = 1 and the squared word
length as its norm.  The metric is left-invariant, so the open eps-ball
about c is c*B_eps, and a greedy net is the first-uncovered scan that the
Ruzsa covering lemma runs: ``structure._cover_scan`` with the ball on the
right.  Its work is at most the number of kept centers times |B_eps|.
The scalar ``closer_than`` stays as the reference oracle, and ``within``
is the closed near-collision test of ``approx_energy``.

Exactness policy: on tori and word metrics every closeness test is one
integer comparison of a norm with the squared radius on the grid, so
nets and separated sets involve no floating arithmetic; only distances
on tori above dimension one, and their sums, are floats.  The quaternion
carrier is float throughout, with its own scan, and every assertion made
about it carries an explicit tolerance.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from .groups import (DEFAULT_SEED, FiniteGroup, _cayley_levels, _row_blocks,
                     construct_group)
from .setops import MSet, power_set, product_set
from .structure import ConstantLedger, _cover_scan

# approx_energy tests each of its P^2 candidate quadruples of P pairs
# against the net kept before it, P^2 (P^2 - 1) / 2 tests at worst.  The
# bound admits P = 25, the 5-point clouds: about 3.5 s at the 18 us of a
# torus test on a 2-vCPU host (the slowest 25-pair cloud measured, 1.3 s).
NET_TEST_CAP = 195_000
_RAW_PRODUCT_CAP = 4 * 10**6
_FLOAT_SLACK = 1e-12
MC_SAMPLES = 10**6


def _positive_eps(eps):
    if eps <= 0:
        raise ValueError("radius must be positive, got %s" % (eps,))
    return eps


class _NormMetricGroup:
    """A finite group with the left-invariant metric of an int64 norm
    array: d(x, y)**2 = norm[x^-1 y] / scale**2, with norm[0] = 0.

    Points are the group's ids.  Every closeness test is an integer
    comparison of a norm with the squared radius on the grid, worked in
    Python ints, so no int64 product can wrap.
    """

    def __init__(self, group: FiniteGroup, norm: np.ndarray, scale: int):
        self.group = group
        self.norm = norm
        self.scale = scale

    def mul(self, p, q):
        return self.group.mul(p, q)

    def inv(self, p):
        return self.group.inv(p)

    def _offset(self, p, q) -> int:
        """The id p^-1 q, whose norm is the squared distance of p and q."""
        return self.group.mul(self.group.inv(p), q)

    def _radius(self, eps):
        """(top, bottom) with d(x, y) < eps iff norm[x^-1 y] * bottom < top,
        and d(x, y) <= eps iff the same with <=."""
        e = Fraction(eps)
        return (e.numerator * self.scale) ** 2, e.denominator ** 2

    def closer_than(self, p, q, eps) -> bool:
        top, bottom = self._radius(eps)
        return int(self.norm[self._offset(p, q)]) * bottom < top

    def within(self, p, q, eps) -> bool:
        top, bottom = self._radius(eps)
        return int(self.norm[self._offset(p, q)]) * bottom <= top

    def as_eps(self, eps) -> Fraction:
        return _positive_eps(Fraction(eps))

    def ball(self, eps) -> MSet:
        """The open ball B_eps = {x : d(1, x) < eps}, read off the norm as
        norm[x] < ceil(eps**2 * scale**2); the ball about c is c*B_eps."""
        top, bottom = self._radius(eps)
        return MSet.from_mask(self.group, self.norm < -(-top // bottom))

    def net(self, points, eps) -> tuple:
        """The ids of ``points`` that the first-uncovered scan keeps, in
        increasing order: a point is covered when it lies in c*B_eps for a
        kept c."""
        return _cover_scan(self.ball(eps), points, "right").ids()

    def profile_points(self, seed):
        """The profile cloud: every element."""
        return list(range(self.group.order))


class TorusGroup(_NormMetricGroup):
    """Torus of dimension one to three with the quotient Euclidean metric,
    on the grid of ``resolution`` points per axis.

    The points are the ids of cyclic(N) for one axis and of the direct
    product of ``dim`` copies above, N = resolution; the leftmost axis is
    most significant, so id order is the lexicographic order of the
    points (c_1/N, ..., c_dim/N).  The norm is sum of min(c, N - c)**2
    over the axes, on the scale N.  The default resolution is the profile
    grid: 120, 12 or 6 points per axis.
    """

    def __init__(self, dim: int = 1, resolution: int | None = None):
        dim = int(dim)
        if not 1 <= dim <= 3:
            raise ValueError("torus dimension must be 1, 2, or 3")
        n = {1: 120, 2: 12, 3: 6}[dim] if resolution is None else int(resolution)
        if n < 1:
            raise ValueError("resolution must be at least 1")
        axis = "cyclic(%d)" % n
        group = construct_group(
            axis if dim == 1 else "direct_product(%s)" % ",".join([axis] * dim))
        c = np.arange(n, dtype=np.int64)
        sq = np.minimum(c, n - c) ** 2
        norm = sq
        for _ in range(dim - 1):
            norm = np.add.outer(norm, sq).ravel()
        super().__init__(group, norm, n)
        self.dim = dim
        self.name = "torus(%d)" % dim
        self.default_grid = (Fraction(1, 10), Fraction(1, 20), Fraction(1, 40))

    def distance_value(self, p, q):
        """Exact Fraction on the circle, float above dimension one."""
        n = int(self.norm[self._offset(p, q)])
        if self.dim == 1:
            return Fraction(math.isqrt(n), self.scale)
        return math.sqrt(n / self.scale ** 2)


class QuaternionGroup:
    """Unit quaternions with the chordal metric, the ambient 4-space norm.

    All arithmetic is floating point.  Left and right translations are
    isometries up to roundoff because the quaternion norm is
    multiplicative, and the group is three dimensional, so doubling the
    radius of a small ball multiplies its Haar measure by about 8.
    """

    def __init__(self):
        self.name = "quaternions"
        self.default_grid = (0.6, 0.3)

    def mul(self, p, q):
        a, b, c, d = p
        e, f, g, h = q
        return (
            a * e - b * f - c * g - d * h,
            a * f + b * e + c * h - d * g,
            a * g - b * h + c * e + d * f,
            a * h + b * g - c * f + d * e,
        )

    def inv(self, p):
        a, b, c, d = p
        return (a, -b, -c, -d)

    def distance_sq(self, p, q) -> float:
        return sum((a - b) ** 2 for a, b in zip(p, q))

    def distance_value(self, p, q) -> float:
        return math.sqrt(self.distance_sq(p, q))

    def closer_than(self, p, q, eps) -> bool:
        e = float(eps)
        return self.distance_sq(p, q) < e * e

    def within(self, p, q, eps) -> bool:
        e = float(eps)
        return self.distance_sq(p, q) <= e * e

    def net(self, points, eps) -> list:
        """The points that the first-uncovered scan keeps, in scan order:
        each point is tested against the centers kept so far with one
        vectorized squared-distance comparison."""
        e = float(eps)
        rows = np.asarray(points, dtype=float).reshape(-1, 4)
        kept = np.empty_like(rows)
        chosen = []
        for p, row in zip(points, rows):
            diff = kept[:len(chosen)] - row
            if (np.einsum("...j,...j->...", diff, diff) < e * e).any():
                continue
            kept[len(chosen)] = row
            chosen.append(p)
        return chosen

    def as_eps(self, eps) -> float:
        return _positive_eps(float(eps))

    def profile_points(self, seed):
        """The profile cloud: 180 Haar points."""
        return self.haar_points(180, seed)

    def haar_points(self, count: int, seed: int = DEFAULT_SEED):
        """Deterministic Haar sample via normalized Gaussian 4-vectors."""
        rng = np.random.default_rng(seed)
        raw = rng.normal(size=(count, 4))
        norms = np.linalg.norm(raw, axis=1)
        unit = raw / norms[:, None]
        return [tuple(float(c) for c in row) for row in unit]

    def ball_fractions(self, radii, seed: int):
        """Haar fractions of chordal balls about the identity.

        One fixed-seed sample of MC_SAMPLES points serves every radius, so
        ratios of the returned values share their sampling noise.  It is
        drawn and counted in the _row_blocks of an MC_SAMPLES x 4 sweep: the
        generator's stream and each point's distance do not depend on the
        block boundaries, so the counts equal those of one batch.
        """
        rng = np.random.default_rng(seed)
        hits = [0] * len(radii)
        for rows in _row_blocks(MC_SAMPLES, 4):
            raw = rng.normal(size=(rows.stop - rows.start, 4))
            unit = raw / np.linalg.norm(raw, axis=1)[:, None]
            unit[:, 0] -= 1.0
            dist = np.linalg.norm(unit, axis=1)
            for i, r in enumerate(radii):
                hits[i] += int(np.count_nonzero(dist < r))
        return [float(h) / MC_SAMPLES for h in hits]


class WordMetricGroup(_NormMetricGroup):
    """Finite group with the word metric of a symmetric generating set.

    Distances are integers computed once by breadth-first search from
    the identity, and the norm is their square on the scale 1; left
    translations are exact isometries and right translations move points
    by at most twice the translator's length.
    """

    def __init__(self, group: FiniteGroup, generators):
        seeds = []
        for raw in generators:
            s = int(raw)
            if not 0 <= s < group.order:
                raise ValueError("generator %d outside the group" % s)
            if s:
                seeds.append(s)
        if not seeds:
            raise ValueError("need at least one generator besides the identity")
        gens = MSet.from_ids(group, [*seeds, *group.inv_array(seeds)]).id_array()
        dist = np.full(group.order, -1, dtype=np.int64)
        for length, level in enumerate(_cayley_levels(group, gens)):
            dist[level] = length
        missing = int(np.count_nonzero(dist < 0))
        if missing:
            raise ValueError(
                "generators reach only %d of %d elements"
                % (group.order - missing, group.order)
            )
        super().__init__(group, dist * dist, 1)
        self.generators = tuple(gens.tolist())
        self.dist_from_identity = tuple(dist.tolist())
        # _balls[r] = |{x : d(1, x) < r}| for r up to the diameter plus one
        self._balls = np.concatenate(([0], np.bincount(dist).cumsum()))
        self.name = "word(%s; gens=%s)" % (
            group.name,
            ",".join(str(s) for s in self.generators),
        )
        self.doubling_bound = self._max_doubling_ratio()
        grid = [Fraction(3, 2)]
        if self.diameter() >= 5:
            grid.append(Fraction(5, 2))
        self.default_grid = tuple(grid)

    def _ball_size(self, radius) -> int:
        """Open-ball count |{x : d(1, x) < radius}|."""
        return int(self._balls[min(radius, len(self._balls) - 1)])

    def _max_doubling_ratio(self) -> Fraction:
        """The largest |B(2r)| / |B(r)| over r up to the diameter, and at
        least 1, compared by cross-multiplying the integer ball counts."""
        balls, last = self._balls.tolist(), len(self._balls) - 1
        num, den = 1, 1
        for r in range(1, self.diameter() + 1):
            big, small = balls[min(2 * r, last)], balls[r]
            if big * den > num * small:
                num, den = big, small
        return Fraction(num, den)

    def distance_value(self, p, q) -> int:
        return self.dist_from_identity[self._offset(p, q)]

    def diameter(self) -> int:
        return max(self.dist_from_identity)


class MetricCloud:
    """Finite point list on a metric group, deduped and sorted."""

    __slots__ = ("group", "points")

    def __init__(self, group, points):
        pts = sorted(dict.fromkeys(points))
        if not pts:
            raise ValueError("a cloud needs at least one point")
        self.group = group
        self.points = tuple(pts)

    def __len__(self) -> int:
        return len(self.points)

    def __iter__(self):
        return iter(self.points)

    def __repr__(self) -> str:
        return "MetricCloud(%s, %d points)" % (self.group.name, len(self.points))


class CoverResult(NamedTuple):
    count: int
    centers: tuple


def covering_number(cloud: MetricCloud, eps) -> CoverResult:
    """Greedy net count with centers drawn from the cloud in scan order.

    A point is covered when it lies strictly within ``eps`` of a chosen
    center; the first uncovered point in canonical order becomes the
    next center.  The result sits between the true covering number at
    ``eps`` and the one at ``eps/2``.
    """
    centers = cloud.group.net(cloud.points, cloud.group.as_eps(eps))
    return CoverResult(len(centers), tuple(centers))


def separated_set(cloud: MetricCloud, eps) -> tuple:
    """Greedy maximal subset with pairwise distances >= eps."""
    return tuple(cloud.group.net(cloud.points, cloud.group.as_eps(eps)))


def approx_energy(a: MetricCloud, b: MetricCloud, eps) -> int:
    """Greedy eps-net count of the near-collision product quadruples.

    A quadruple (a, b, a', b') qualifies when d(a*b, a'*b') <= eps, and
    the net lives in the fourth power of the carrier under the sum
    metric.  When all coordinate clouds and their products have minimum
    gap above eps this equals the exact quadruple count, the discrete
    multiplicative energy.
    """
    if a.group is not b.group and (
            a.group.name != b.group.name
            or getattr(a.group, "group", None) is not getattr(b.group, "group", None)):
        raise ValueError("clouds live on different metric groups")
    g = a.group
    e = g.as_eps(eps)
    n_pairs = len(a) * len(b)
    tests = n_pairs**2 * (n_pairs**2 - 1) // 2
    if tests > NET_TEST_CAP:
        raise ValueError(
            f"approx_energy of {n_pairs} pairs may run {tests} net tests, "
            f"above the bound {NET_TEST_CAP}")
    pairs = [(x, y, g.mul(x, y)) for x in a.points for y in b.points]
    net = []
    for xa, xb, pa in pairs:
        for ya, yb, pb in pairs:
            quad = (xa, xb, ya, yb)
            if g.within(pa, pb, e) and all(
                    _sum_reaches(g, quad, c, e) for c in net):
                net.append(quad)
    return len(net)


def _sum_reaches(g, u, v, eps) -> bool:
    """Whether the sum metric d(u, v) = sum of d(u_i, v_i) reaches eps,
    stopping once a partial sum does: distances are nonnegative."""
    total = 0
    for x, y in zip(u, v):
        total += g.distance_value(x, y)
        if total >= eps:
            return True
    return False


class EntropyRow(NamedTuple):
    eps: object
    covering: int
    double_covering: int

    @property
    def ratio(self) -> Fraction:
        """Net count at eps over net count at 2*eps."""
        return Fraction(self.covering, self.double_covering)


class EntropyReport(NamedTuple):
    """Per-radius net counts over an ascending grid."""

    rows: tuple
    ledger: ConstantLedger


def build_entropy_report(cloud: MetricCloud, eps_grid) -> EntropyReport:
    """Compute net and separation counts over the grid, checking the
    scale sandwich and monotonicity along the way."""
    grid = sorted(dict.fromkeys(cloud.group.as_eps(e) for e in eps_grid))
    if not grid:
        raise ValueError("empty radius grid")
    led = ConstantLedger("entropy-report")
    rows = []
    for i, e in enumerate(grid):
        cov = covering_number(cloud, e).count
        sep = len(separated_set(cloud, e))
        half = covering_number(cloud, e / 2).count
        dbl = covering_number(cloud, 2 * e).count
        rows.append(EntropyRow(e, cov, dbl))
        led.compare(
            "sandwich-low-%d" % i,
            cov,
            "<=",
            sep,
            formula="net(eps) <= separated(eps)",
        )
        led.compare(
            "sandwich-high-%d" % i,
            sep,
            "<=",
            half,
            formula="separated(eps) <= net(eps/2)",
        )
    for i in range(1, len(rows)):
        led.compare(
            "monotone-%d" % i,
            rows[i].covering,
            "<=",
            rows[i - 1].covering,
            formula="net count non-increasing in the radius",
        )
    return EntropyReport(tuple(rows), led)


def arc_union_measure(points, eps) -> Fraction:
    """Exact circle measure of the union of arcs (x - eps, x + eps), for
    circle points x given as rationals."""
    e = Fraction(eps)
    if e <= 0:
        raise ValueError("radius must be positive")
    if 2 * e >= 1:
        return Fraction(1)
    segments = []
    for p in points:
        start = (Fraction(p) - e) % 1
        end = start + 2 * e
        if end <= 1:
            segments.append((start, end))
        else:
            segments.append((start, Fraction(1)))
            segments.append((Fraction(0), end - 1))
    segments.sort()
    total = Fraction(0)
    cur_start, cur_end = segments[0]
    for start, end in segments[1:]:
        if start <= cur_end:
            if end > cur_end:
                cur_end = end
        else:
            total += cur_end - cur_start
            cur_start, cur_end = start, end
    total += cur_end - cur_start
    return total


class ProfileReport(NamedTuple):
    entropy: EntropyReport
    ledger: ConstantLedger

    @property
    def hard_ok(self) -> bool:
        return self.ledger.hard_ok


def _metric_axiom_rows(group, cloud, led, slack):
    """Identity, symmetry and the triangle inequality on every ordered pair
    and triple of the first ten cloud points, from one distance matrix."""
    sample = cloud.points[:10]
    d = [[group.distance_value(x, y) for y in sample] for x in sample]
    pairs = list(itertools.permutations(range(len(sample)), 2))
    ident_ok = (all(d[i][i] <= slack for i in range(len(sample)))
                and all(d[i][j] > slack for i, j in pairs))
    sym_ok = all(abs(d[i][j] - d[j][i]) <= slack for i, j in pairs)
    tri_ok = all(d[i][k] <= d[i][j] + d[j][k] + slack for i, j, k
                 in itertools.permutations(range(len(sample)), 3))
    note = "%d sample points, slack %s" % (len(sample), slack)
    led.claim("metric-symmetry", sym_ok, formula="d(x,y) = d(y,x)", note=note)
    led.claim(
        "metric-triangle",
        tri_ok,
        formula="d(x,z) <= d(x,y) + d(y,z)",
        note=note,
    )
    led.claim(
        "metric-identity",
        ident_ok,
        formula="d(x,y) = 0 exactly when x = y",
        note=note,
    )


def _translation_rows(group, cloud, led, slack):
    sample = cloud.points[:8]
    left_max = right_max = 0
    left_min = right_min = None
    for g_elt in sample:
        for x, y in itertools.combinations(sample, 2):
            base = group.distance_value(x, y)
            if base == 0:
                continue
            left = group.distance_value(group.mul(g_elt, x), group.mul(g_elt, y))
            right = group.distance_value(group.mul(x, g_elt), group.mul(y, g_elt))
            if isinstance(left, int) and isinstance(base, int):
                lr, rr = Fraction(left, base), Fraction(right, base)
            else:
                lr, rr = left / base, right / base
            left_max = max(left_max, lr)
            right_max = max(right_max, rr)
            left_min = lr if left_min is None else min(left_min, lr)
            right_min = rr if right_min is None else min(right_min, rr)
    if isinstance(group, WordMetricGroup):
        led.claim(
            "translation-left-isometry",
            left_min == 1 == left_max,
            formula="word length of a^-1 b is left-invariant",
        )
        reach = max(group.dist_from_identity[p] for p in sample)
        bound = Fraction(1) + 2 * reach
        led.compare(
            "translation-right-ratio",
            right_max,
            "<=",
            bound,
            formula="d(xg, yg) <= d(x,y) + 2|g| and distances are >= 1",
        )
    elif isinstance(group, TorusGroup):
        led.claim(
            "translation-isometry",
            left_min == 1 == left_max and right_min == 1 == right_max,
            formula="translation shifts every coordinate difference",
        )
    else:
        ok = (
            abs(left_max - 1.0) <= slack
            and abs(left_min - 1.0) <= slack
            and abs(right_max - 1.0) <= slack
            and abs(right_min - 1.0) <= slack
        )
        led.claim(
            "translation-isometry",
            ok,
            formula="multiplicative norm, tolerance %g" % slack,
        )


def _doubling_rows(group, led, grid, seed):
    if isinstance(group, TorusGroup):
        r = min(grid) / 2
        if 4 * r < 1:
            lhs = Fraction(2 * (2 * r)) ** group.dim
            rhs = Fraction(2**group.dim) * Fraction(2 * r) ** group.dim
            led.compare(
                "ball-doubling",
                lhs,
                "==",
                rhs,
                formula="non-wrapping balls scale with radius^dim, r = %s" % r,
            )
        else:
            led.info(
                "ball-doubling",
                0,
                note="grid radius %s too large for the non-wrapping regime" % r,
            )
    elif isinstance(group, QuaternionGroup):
        f_small, f_large = group.ball_fractions((0.2, 0.4), seed)
        measured = f_large / f_small if f_small else float("inf")
        led.info(
            "ball-doubling-measured",
            Fraction(measured).limit_denominator(10**6),
            note="Haar fractions at chordal radii 0.2 and 0.4, %d samples"
            % MC_SAMPLES,
        )
        led.claim(
            "ball-doubling",
            measured <= 8.0 * 1.05,
            formula="dimension-3 scaling, Monte-Carlo tolerance 5%",
            note="measured %.4f" % measured,
        )
    else:
        diam = group.diameter()
        for r in (1, 2, 4):
            if r > diam:
                break
            ratio = Fraction(group._ball_size(2 * r), group._ball_size(r))
            led.compare(
                "ball-doubling-r%d" % r,
                ratio,
                "<=",
                group.doubling_bound,
                formula="exact ball counts against the declared bound",
            )


def _scale_ratio_rows(group, report, led):
    for i, row in enumerate(report.rows):
        if isinstance(group, TorusGroup) and 5 * row.eps <= 1:
            led.compare(
                "net-scale-%d" % i,
                row.covering,
                "<=",
                5**group.dim * row.double_covering,
                formula="eps-separated centers per 2eps-ball <= 5^dim",
            )
        else:
            led.info(
                "net-scale-%d" % i,
                row.ratio,
                note="net(eps)/net(2eps) at eps = %s" % (row.eps,),
            )


def _arc_measure_rows(group, cloud, report, led):
    for i, row in enumerate(report.rows):
        if 4 * row.eps >= 1:
            continue
        measure = arc_union_measure(
            [Fraction(x, group.scale) for x in cloud.points], row.eps)
        ratio = measure / (2 * row.eps)
        led.compare(
            "measure-entropy-low-%d" % i,
            ratio,
            "<=",
            2 * row.covering,
            formula="thickened cloud fits in doubled center arcs",
        )
        led.compare(
            "measure-entropy-high-%d" % i,
            row.covering,
            "<=",
            2 * ratio,
            formula="disjoint half-arcs at separated centers",
        )


def metric_profile_check(group, *, seed: int = DEFAULT_SEED) -> ProfileReport:
    """Report-only profile audit of one metric carrier.

    Takes the carrier's deterministic profile cloud, checks metric axioms
    and translation regularity on it, measures ball doubling (exactly
    where the geometry allows, by fixed-seed Monte-Carlo otherwise),
    and builds the per-radius entropy report with its sandwich and
    scale-comparison rows.  Never raises on a failed check; the rows
    carry the verdicts.
    """
    led = ConstantLedger("metric-profile")
    cloud = MetricCloud(group, group.profile_points(seed))
    grid = group.default_grid
    # word lengths and circle distances are exact; the rest are floats
    exact = isinstance(group, WordMetricGroup) or (
        isinstance(group, TorusGroup) and group.dim == 1)
    slack = 0 if exact else _FLOAT_SLACK
    _metric_axiom_rows(group, cloud, led, slack)
    _translation_rows(group, cloud, led, 1e-9)
    _doubling_rows(group, led, [group.as_eps(e) for e in grid], seed)
    report = build_entropy_report(cloud, grid)
    led.merge(report.ledger, prefix="entropy.")
    _scale_ratio_rows(group, report, led)
    if isinstance(group, TorusGroup) and group.dim == 1:
        _arc_measure_rows(group, cloud, report, led)
    return ProfileReport(report, led)


class TriplingEntropyReport(NamedTuple):
    net_base: int
    net_cubed: int
    measured_tripling: Fraction
    ledger: ConstantLedger

    @property
    def hard_ok(self) -> bool:
        return self.ledger.hard_ok


def entropy_tripling_check(cloud: MetricCloud, eps) -> TriplingEntropyReport:
    """Measure net growth under triple products and audit a coarse
    containing candidate, on a torus or word carrier.

    The triple product is formed setwise with a half-radius thinning
    after each multiplication.  The candidate set joins the base cloud
    (scanned first, so its points dominate the thinning) with the thinned
    triple product; by construction every base point lies within eps/2
    of it, which is the hard containment row.  Size rows are measured
    constants, reported rather than asserted.
    """
    g = cloud.group
    e = g.as_eps(eps)
    half = e / 2
    base = cloud.points
    base_set = MSet.from_ids(g.group, base)
    if len(base) * len(base) > _RAW_PRODUCT_CAP:
        raise ValueError("square of the cloud exceeds the raw product cap")
    squared = g.net(power_set(base_set, 2).ids(), half)
    if len(squared) * len(base) > _RAW_PRODUCT_CAP:
        raise ValueError("cube of the cloud exceeds the raw product cap")
    cubed = g.net(product_set(MSet.from_ids(g.group, squared), base_set).ids(), half)
    led = ConstantLedger("entropy-tripling")
    net_base = covering_number(cloud, e).count
    cube_cloud = MetricCloud(g, cubed)
    net_cubed = covering_number(cube_cloud, e).count
    measured = Fraction(net_cubed, net_base)
    led.info("net-base", net_base, note="net count of the cloud at eps")
    led.info("net-cubed", net_cubed, note="net count of the thinned cube")
    led.info(
        "measured-tripling",
        measured,
        note="net(cube)/net(base); the growth constant this run exhibits",
    )
    candidate = g.net(base + cubed, half)
    covers = all(
        any(g.closer_than(p, c, half) or p == c for c in candidate)
        for p in base
    )
    led.claim(
        "candidate-covers-base",
        covers,
        formula="every base point within eps/2 of the candidate",
    )
    cand_cloud = MetricCloud(g, candidate)
    net_candidate = covering_number(cand_cloud, e).count
    led.info("candidate-size", len(candidate))
    led.info("net-candidate", net_candidate)
    led.info(
        "candidate-ratio",
        Fraction(net_candidate, net_base),
        note="net(candidate)/net(base), measured",
    )
    return TriplingEntropyReport(net_base, net_cubed, measured, led)
