"""Metric entropy on concrete metric groups.

Greedy nets and separated sets with a canonical scan order, an
approximate multiplicative energy built from near-collision product
quadruples, and desk-scale profile checks (metric axioms, translation
regularity, ball doubling, entropy versus measure) for three carrier
families: tori up to dimension three, the unit quaternions under the
chordal metric, and finite groups under a word metric.

Every carrier answers the one question the nets ask, "which of these
centers lie strictly within eps of this point", with one vectorized
``close_mask`` over the array form that ``metric_array`` builds, so a
single scan serves all three carriers.  The scalar ``closer_than`` stays
as the reference oracle, and ``within`` is the closed near-collision
test of ``approx_energy``.

Exactness policy: on tori, nets and separated sets compare integer
squared distances on a common denominator, and on word metrics
integer word lengths, so every comparison there is exact; only sums
of distances on tori above dimension one use floats.  The quaternion
carrier is float throughout, and every assertion made about it
carries an explicit tolerance.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from .groups import FiniteGroup, _cayley_levels, _row_blocks
from .structure import ConstantLedger

DEFAULT_SEED = 1729
PAIR_CAP = 10**6
PRODUCT_CAP = 10**5
_RAW_PRODUCT_CAP = 4 * 10**6
_FLOAT_SLACK = 1e-12
_INT64_LIMIT = 2**62
MC_SAMPLES = 10**6


def _positive_eps(eps):
    if eps <= 0:
        raise ValueError("radius must be positive, got %s" % (eps,))
    return eps


class TorusGroup:
    """Torus of dimension one to three with the quotient Euclidean metric.

    Points are tuples of Fractions reduced into [0, 1).  Distances are
    compared as integer squared distances on a common denominator: the
    coordinates and the radius are scaled to one integer grid 1/D, so
    nets and separated sets on any torus involve no floating
    arithmetic; only the dimension-one circle exposes the distance
    itself as an exact Fraction.
    """

    def __init__(self, dim: int = 1):
        dim = int(dim)
        if not 1 <= dim <= 3:
            raise ValueError("torus dimension must be 1, 2, or 3")
        self.dim = dim
        self.name = "torus(%d)" % dim
        self.exact = True
        self.exact_distance = dim == 1
        self.default_grid = (Fraction(1, 10), Fraction(1, 20), Fraction(1, 40))

    def point(self, *coords):
        if len(coords) == 1 and isinstance(coords[0], (tuple, list)):
            coords = tuple(coords[0])
        if len(coords) != self.dim:
            raise ValueError(
                "expected %d coordinates, got %d" % (self.dim, len(coords))
            )
        return tuple(Fraction(c) % 1 for c in coords)

    def mul(self, p, q):
        return tuple((a + b) % 1 for a, b in zip(p, q))

    def inv(self, p):
        return tuple((-a) % 1 for a in p)

    def distance_sq(self, p, q) -> Fraction:
        total = Fraction(0)
        for a, b in zip(p, q):
            delta = (a - b) % 1
            if 2 * delta > 1:
                delta = 1 - delta
            total += delta * delta
        return total

    def distance_value(self, p, q):
        """Exact Fraction on the circle, float above dimension one."""
        if self.dim == 1:
            delta = (p[0] - q[0]) % 1
            return delta if 2 * delta <= 1 else 1 - delta
        return math.sqrt(float(self.distance_sq(p, q)))

    def closer_than(self, p, q, eps) -> bool:
        e = Fraction(eps)
        return self.distance_sq(p, q) < e * e

    def within(self, p, q, eps) -> bool:
        e = Fraction(eps)
        return self.distance_sq(p, q) <= e * e

    def metric_array(self, points, eps):
        """The points as integer coordinates on the common denominator D
        of every coordinate and of eps, with the radius (D, (eps*D)**2).

        int64 when dim*D**2 and (eps*D)**2 lie below 2**62, so no sum of
        squared deltas can wrap; Python ints in an object array otherwise.
        """
        e = Fraction(eps)
        dens = {e.denominator}
        for p in points:
            dens.update(c.denominator for c in p)
        d = math.lcm(*dens)
        eps_sq = (e.numerator * (d // e.denominator)) ** 2
        fits = max(self.dim * d * d, eps_sq) < _INT64_LIMIT
        rows = [[c.numerator * (d // c.denominator) % d for c in p] for p in points]
        arr = np.array(rows, dtype=np.int64 if fits else object)
        return arr.reshape(len(rows), self.dim), (d, eps_sq)

    def close_mask(self, points, centers, radius):
        """Elementwise d(point, center) < eps over broadcast metric_array
        rows, as integer squared distances."""
        d, eps_sq = radius
        delta = (centers - points) % d
        delta = np.minimum(delta, d - delta)
        return (delta * delta).sum(axis=-1) < eps_sq

    def as_eps(self, eps) -> Fraction:
        return _positive_eps(Fraction(eps))

    def profile_points(self, seed):
        """The profile cloud: a uniform grid of 120, 12 or 6 points per axis."""
        return self.grid({1: 120, 2: 12, 3: 6}[self.dim])

    def grid(self, resolution: int):
        """Uniform grid with ``resolution`` points per axis."""
        if resolution < 1:
            raise ValueError("resolution must be at least 1")
        axis = [Fraction(k, resolution) for k in range(resolution)]
        return [tuple(c) for c in itertools.product(axis, repeat=self.dim)]


class QuaternionGroup:
    """Unit quaternions with the chordal metric, the ambient 4-space norm.

    All arithmetic is floating point.  Left and right translations are
    isometries up to roundoff because the quaternion norm is
    multiplicative, and the group is three dimensional, so doubling the
    radius of a small ball multiplies its Haar measure by about 8.
    """

    def __init__(self):
        self.name = "quaternions"
        self.exact = False
        self.exact_distance = False
        self.default_grid = (0.6, 0.3)

    def point(self, w, x, y, z):
        norm = math.sqrt(w * w + x * x + y * y + z * z)
        if norm == 0.0:
            raise ValueError("zero quaternion has no direction")
        return (w / norm, x / norm, y / norm, z / norm)

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

    def metric_array(self, points, eps):
        """The points as an (n, 4) float array, with the radius eps**2."""
        e = float(eps)
        return np.asarray(points, dtype=float).reshape(-1, 4), e * e

    def close_mask(self, points, centers, radius):
        """Elementwise d(point, center) < eps over broadcast metric_array
        rows, through squared chordal distances."""
        diff = centers - points
        return np.einsum("...j,...j->...", diff, diff) < radius

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


class WordMetricGroup:
    """Finite group with the word metric of a symmetric generating set.

    Distances are integers computed once by breadth-first search from
    the identity; left translations are exact isometries and right
    translations move points by at most twice the translator's length.
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
        gens = set(seeds) | set(group.inv_array(seeds).tolist())
        dist = np.full(group.order, -1, dtype=np.intp)
        for length, level in enumerate(
                _cayley_levels(group, np.array(sorted(gens)))):
            dist[level] = length
        missing = int(np.count_nonzero(dist < 0))
        if missing:
            raise ValueError(
                "generators reach only %d of %d elements"
                % (group.order - missing, group.order)
            )
        self.group = group
        self.generators = tuple(sorted(gens))
        self.dist_from_identity = tuple(dist.tolist())
        self._dist_array = dist
        # _balls[r] = |{x : d(1, x) < r}| for r up to the diameter plus one
        self._balls = np.concatenate(([0], np.bincount(dist).cumsum()))
        self.name = "word(%s; gens=%s)" % (
            group.name,
            ",".join(str(s) for s in self.generators),
        )
        self.exact = True
        self.exact_distance = True
        self.doubling_bound = self._max_doubling_ratio()
        grid = [Fraction(3, 2)]
        if self.diameter() >= 5:
            grid.append(Fraction(5, 2))
        self.default_grid = tuple(grid)

    def _ball_size(self, radius) -> int:
        """Open-ball count |{x : d(1, x) < radius}|."""
        return int(self._balls[min(radius, len(self._balls) - 1)])

    def _max_doubling_ratio(self) -> Fraction:
        diam = self.diameter()
        best = Fraction(1)
        for r in range(1, diam + 1):
            ratio = Fraction(self._ball_size(2 * r), self._ball_size(r))
            if ratio > best:
                best = ratio
        return best

    def mul(self, p, q):
        return self.group.mul(p, q)

    def inv(self, p):
        return self.group.inv(p)

    def distance_value(self, p, q) -> int:
        return self.dist_from_identity[self.group.mul(self.group.inv(p), q)]

    def closer_than(self, p, q, eps) -> bool:
        return self.distance_value(p, q) < Fraction(eps)

    def within(self, p, q, eps) -> bool:
        return self.distance_value(p, q) <= Fraction(eps)

    def metric_array(self, points, eps):
        """The points as an id array, with the radius ceil(eps): an
        integer length d is below eps exactly when it is below ceil(eps)."""
        return np.asarray(points, dtype=np.intp), math.ceil(Fraction(eps))

    def close_mask(self, points, centers, radius):
        """Elementwise d(point, center) = |point^-1 center| < eps over
        broadcast id arrays."""
        g = self.group
        return self._dist_array[g.mul_pairs(g.inv_array(points), centers)] < radius

    def as_eps(self, eps) -> Fraction:
        return _positive_eps(Fraction(eps))

    def diameter(self) -> int:
        return max(self.dist_from_identity)

    def profile_points(self, seed):
        """The profile cloud: every element."""
        return list(range(self.group.order))


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


def _greedy_separated(group, points, eps):
    """First-uncovered scan; the kept points are pairwise >= eps apart.

    Each point is tested against the centers kept so far with one
    ``close_mask`` call on the carrier's array form, in scan order, so
    memory stays linear in the number of points.
    """
    rows, radius = group.metric_array(points, eps)
    kept = np.empty_like(rows)
    chosen = []
    for p, row in zip(points, rows):
        if chosen and group.close_mask(row, kept[:len(chosen)], radius).any():
            continue
        kept[len(chosen)] = row
        chosen.append(p)
    return chosen


def covering_number(cloud: MetricCloud, eps) -> CoverResult:
    """Greedy net count with centers drawn from the cloud in scan order.

    A point is covered when it lies strictly within ``eps`` of a chosen
    center; the first uncovered point in canonical order becomes the
    next center.  The result sits between the true covering number at
    ``eps`` and the one at ``eps/2``.
    """
    e = cloud.group.as_eps(eps)
    centers = _greedy_separated(cloud.group, cloud.points, e)
    return CoverResult(len(centers), tuple(centers))


def separated_set(cloud: MetricCloud, eps) -> tuple:
    """Greedy maximal subset with pairwise distances >= eps."""
    e = cloud.group.as_eps(eps)
    return tuple(_greedy_separated(cloud.group, cloud.points, e))


def approx_energy(a: MetricCloud, b: MetricCloud, eps) -> int:
    """Greedy eps-net count of the near-collision product quadruples.

    A quadruple (a, b, a', b') qualifies when d(a*b, a'*b') <= eps, and
    the net lives in the fourth power of the carrier under the sum
    metric.  When all coordinate clouds and their products have minimum
    gap above eps this equals the exact quadruple count, the discrete
    multiplicative energy.
    """
    if a.group is not b.group and a.group.name != b.group.name:
        raise ValueError("clouds live on different metric groups")
    g = a.group
    e = g.as_eps(eps)
    if len(a) * len(b) > PAIR_CAP:
        raise ValueError(
            "pair count %d exceeds cap %d" % (len(a) * len(b), PAIR_CAP)
        )
    pairs = [(x, y, g.mul(x, y)) for x in a.points for y in b.points]
    net = []
    for xa, xb, pa in pairs:
        for ya, yb, pb in pairs:
            quad = (xa, xb, ya, yb)
            if g.within(pa, pb, e) and all(
                    sum(map(g.distance_value, quad, c)) >= e for c in net):
                net.append(quad)
    return len(net)


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
    """Exact circle measure of the union of arcs (x - eps, x + eps).

    Points are circle points (1-tuples of Fractions) or bare Fractions.
    """
    e = Fraction(eps)
    if e <= 0:
        raise ValueError("radius must be positive")
    if 2 * e >= 1:
        return Fraction(1)
    segments = []
    for p in points:
        x = p[0] if isinstance(p, tuple) else Fraction(p)
        start = (x - e) % 1
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
    elif group.exact:
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
        measure = arc_union_measure(cloud.points, row.eps)
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
    slack = 0 if group.exact_distance else _FLOAT_SLACK
    _metric_axiom_rows(group, cloud, led, slack)
    _translation_rows(group, cloud, led, 1e-9)
    _doubling_rows(group, led, [group.as_eps(e) for e in grid], seed)
    report = build_entropy_report(cloud, grid)
    led.merge(report.ledger, prefix="entropy.")
    _scale_ratio_rows(group, report, led)
    if isinstance(group, TorusGroup) and group.dim == 1:
        _arc_measure_rows(group, cloud, report, led)
    return ProfileReport(report, led)


def _sorted_products(group, xs, ys):
    seen = dict.fromkeys(group.mul(x, y) for x in xs for y in ys)
    return sorted(seen)


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
    containing candidate.

    The triple product is formed pointwise with a half-radius thinning
    after each multiplication, capped at ``PRODUCT_CAP`` surviving points.
    The candidate set joins the base cloud (scanned first, so its points
    dominate the thinning) with the thinned triple product; by
    construction every base point lies within eps/2 of it, which is the
    hard containment row.  Size rows are measured constants, reported
    rather than asserted.
    """
    g = cloud.group
    e = g.as_eps(eps)
    half = e / 2
    base = cloud.points
    if len(base) * len(base) > _RAW_PRODUCT_CAP:
        raise ValueError("square of the cloud exceeds the raw product cap")
    squared = _greedy_separated(g, _sorted_products(g, base, base), half)
    if len(squared) > PRODUCT_CAP:
        raise ValueError(
            "thinned square has %d points, cap %d" % (len(squared), PRODUCT_CAP)
        )
    if len(squared) * len(base) > _RAW_PRODUCT_CAP:
        raise ValueError("cube of the cloud exceeds the raw product cap")
    cubed = _greedy_separated(g, _sorted_products(g, squared, base), half)
    if len(cubed) > PRODUCT_CAP:
        raise ValueError(
            "thinned cube has %d points, cap %d" % (len(cubed), PRODUCT_CAP)
        )
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
    candidate = _greedy_separated(g, list(base) + list(cubed), half)
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
