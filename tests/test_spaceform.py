import math
import warnings
from decimal import Decimal, localcontext

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from plembed import (
    DomainError,
    MetricQuadruple,
    comparison_angle,
    realize_distances,
    realize_quadruple,
    s3_embeddability,
)
from plembed.spaceform import comparison_angles

from conftest import geodesic_distance

KAPPA_GRID = (-4.0, -2.0, -1.0, 0.0, 1.0, 2.0, 4.0)

# sides bounded so every grid curvature is admissible (perimeter < pi and
# sqrt(4) * side < pi)
small_side = st.floats(min_value=0.05, max_value=0.5)


def small_triples():
    def build(b, c, t):
        # opposite interpolated strictly between |b - c| and b + c
        lo, hi = abs(b - c), b + c
        return (lo + t * (hi - lo), b, c)

    return st.builds(build, small_side, small_side, st.floats(min_value=0.05, max_value=0.95))


# ---------------------------------------------------------------------------
# A 40-digit reference for the comparison angle, from the decimal module alone.
#
# E(x) = (1 - cos(sqrt(kappa) x)) / kappa and S(x) = sin(sqrt(kappa) x) / sqrt(kappa)
# are the cos and sin recipes of the decimal documentation with the leading 1
# of cos dropped and the powers of sqrt(kappa) divided out: series in kappa
# x^2 that hold for either sign and cancel nothing as kappa -> 0.  Far out on
# the hyperboloid, where those series need too many terms, they are the exp
# forms of cosh and sinh instead.  The angle is the classical
# cos g = (E(b) + E(c) - E(o) - kappa E(b) E(c)) / (S(b) S(c)), inverted by
# Newton steps on the sin and cos recipes.

DIGITS = 40


def _series(kappa: Decimal, x: Decimal, first: int) -> Decimal:
    """sum over n >= 0 of (-kappa)^n x^(first + 2n) / (first + 2n)!: S for first = 1, E for 2."""
    term = x**first / math.factorial(first)
    total, i = term, first
    while True:
        i += 2
        term *= -kappa * x * x / (i * (i - 1))
        if total + term == total:
            return total
        total += term


def _versine_sine(kappa: Decimal, x: Decimal) -> tuple[Decimal, Decimal]:
    if -kappa * x * x <= 400:
        return _series(kappa, x, 2), _series(kappa, x, 1)
    r = (-kappa).sqrt()
    grow, shrink = (r * x).exp(), (-r * x).exp()
    return (grow + shrink - 2) / (2 * -kappa), (grow - shrink) / (2 * r)


def _sin_cos(x: Decimal) -> tuple[Decimal, Decimal]:
    return _series(Decimal(1), x, 1), 1 - _series(Decimal(1), x, 2)


def decimal_angle(kappa: float, opposite: float, b: float, c: float) -> float:
    """The apex angle of a valid, nondegenerate triangle, to 40 digits, rounded to a float."""
    with localcontext() as ctx:
        ctx.prec = DIGITS + 10
        k, o, b, c = (Decimal(v) for v in (kappa, opposite, b, c))
        (eb, sb), (ec, sc), (eo, _) = (_versine_sine(k, x) for x in (b, c, o))
        cosine = (eb + ec - eo - k * eb * ec) / (sb * sc)
        # phi = g / 2: sin(phi*) and cos(phi*) are known; phi += sin(phi* - phi) converges cubically
        # (rounded at the last of 50 digits, a cosine within 1e-50 of +-1 may pass it)
        want_sin, want_cos = (max(Decimal(0), (1 - cosine) / 2).sqrt(), max(Decimal(0), (1 + cosine) / 2).sqrt())
        phi = Decimal(math.atan2(float(want_sin), float(want_cos)))
        for _ in range(3):
            sin, cos = _sin_cos(phi)
            phi += want_sin * cos - want_cos * sin
        return float(2 * phi)


def oracle_triangles(seed: int, count: int, sign: float, low: float, high: float):
    """Seeded (kappa, opposite, b, c) with |kappa| * scale^2 log-uniform in [10^low, 10^high] and a random unit."""
    rng = np.random.default_rng(seed)
    rows = []
    for _ in range(count):
        b, c = rng.uniform(0.3, 1.0, 2)
        o = abs(b - c) + rng.uniform(0.0, 1.0) * (b + c - abs(b - c))
        unit = 10.0 ** rng.uniform(-100.0, 100.0)
        scale = max(o, b, c) * unit
        kappa = sign * 10.0 ** rng.uniform(low, high) / scale**2
        rows.append((float(kappa), float(o * unit), float(b * unit), float(c * unit)))
    return rows


# the largest kappa * scale^2 whose every triangle has a perimeter within 2 pi / sqrt(kappa)
SPHERE_LIMIT = math.log10((2.0 * math.pi / 3.0) ** 2)


class TestDecimalOracle:
    """Every angle within 1e-13 of the 40-digit reference, from |kappa| * scale^2 = 1e-300 to the spherical limit."""

    @pytest.mark.parametrize("sign", (1.0, -1.0))
    def test_sweep(self, sign):
        rows = oracle_triangles([2026, int(sign > 0)], 600, sign, -300.0, SPHERE_LIMIT)
        got, failure = comparison_angles(*np.array(rows).T)
        assert failure is None
        want = np.array([decimal_angle(*row) for row in rows])
        err = np.abs(got - want)
        assert err.max() <= 1e-13, rows[int(err.argmax())]

    @pytest.mark.parametrize("decade", range(-16, 1))
    def test_each_decade_near_flat(self, decade):
        # where the classical formula cancelled: kappa * scale^2 = +-10^decade
        for sign in (1.0, -1.0):
            for row in oracle_triangles([7, decade + 100, int(sign > 0)], 20, sign, decade, min(decade + 1, SPHERE_LIMIT)):
                assert comparison_angle(*row) == pytest.approx(decimal_angle(*row), abs=1e-13), row

    def test_far_hyperbolic(self):
        # sqrt(-kappa) * scale up to 1e3, where cosh overflows a double
        for row in oracle_triangles(31, 60, -1.0, 2.0, 6.0):
            assert comparison_angle(*row) == pytest.approx(decimal_angle(*row), abs=1e-13), row

    def test_unit_square_right_angle(self):
        # the true slack of the square's right angle is about kappa / 6 near kappa = 0
        side, diagonal = 1.0, 1.4142135623730951
        for kappa in (1e-15, 1e-13, 1e-11, 1e-9, -1e-13, -1e-9):
            got = comparison_angle(kappa, diagonal, side, side)
            assert got == pytest.approx(decimal_angle(kappa, diagonal, side, side), abs=1e-15)


# a log ladder through kappa = 0, +-1e-20 ... +-1e-3 in half decades
KAPPA_LADDER = tuple(sorted({s * 10.0 ** (k / 2.0) for s in (-1.0, 1.0) for k in range(-40, -5)} | {0.0}))


def realize_triangle(kappa: float, d12: float, d13: float, d23: float) -> np.ndarray:
    """Model coordinates of three points with the given distances."""
    coords = realize_distances(kappa, np.array([[0.0, d12, d13], [d12, 0.0, d23], [d13, d23, 0.0]]), 2)
    assert coords is not None
    return coords


def _acos(x: float) -> float:
    return math.acos(min(1.0, max(-1.0, x)))


def measured_angle(kappa: float, coords: np.ndarray, apex: int) -> float:
    """Angle at ``coords[apex]`` between the geodesics to the other two points.

    Oracle counterpart of `comparison_angle`: reads the angle off realized
    coordinates instead of the law of cosines.
    """
    c = np.asarray(coords, dtype=float)
    others = [i for i in range(c.shape[0]) if i != apex][:2]
    p = c[apex]
    if kappa == 0.0:
        u, v = c[others[0]] - p, c[others[1]] - p
        return _acos(float(np.dot(u, v) / (np.linalg.norm(u) * np.linalg.norm(v))))
    if kappa > 0.0:
        pp = float(np.dot(p, p))
        u = c[others[0]] - (float(np.dot(c[others[0]], p)) / pp) * p
        v = c[others[1]] - (float(np.dot(c[others[1]], p)) / pp) * p
        return _acos(float(np.dot(u, v) / (np.linalg.norm(u) * np.linalg.norm(v))))
    eta = np.ones(c.shape[1])
    eta[0] = -1.0

    def mink(x, y):
        return float(np.sum(eta * x * y))

    pp = mink(p, p)  # equals -1/|kappa|
    u = c[others[0]] - (mink(c[others[0]], p) / pp) * p
    v = c[others[1]] - (mink(c[others[1]], p) / pp) * p
    nu, nv = math.sqrt(mink(u, u)), math.sqrt(mink(v, v))
    return _acos(mink(u, v) / (nu * nv))


class TestMetricTriple:
    """A triple of distances is validated where it is used, by `comparison_angle`."""

    def test_valid(self):
        assert comparison_angle(0.0, 5.0, 3.0, 4.0) == pytest.approx(math.pi / 2, abs=1e-15)

    def test_degenerate_allowed(self):
        # a violation within the relative slack 1e-12 is a degenerate triangle
        assert comparison_angle(0.0, 2.0 * (1.0 + 1e-13), 1.0, 1.0) == math.pi
        assert comparison_angle(0.0, 1.0, 2.0 * (1.0 + 1e-13), 1.0) == 0.0

    def test_triangle_violation(self):
        for sides in ((2.5, 1.0, 1.0), (1.0, 2.5, 1.0), (1.0, 1.0, 2.5)):
            with pytest.raises(DomainError, match="triangle inequality"):
                comparison_angle(0.0, *sides)

    def test_nonpositive(self):
        with pytest.raises(DomainError):
            comparison_angle(0.0, 1.0, -1.0, 1.0)

    def test_nonfinite(self):
        for sides in ((1.0, math.inf, 1.0), (math.inf, 1.0, 1.0), (1.0, 1.0, math.nan)):
            with pytest.raises(DomainError):
                comparison_angle(0.0, *sides)


NON_FINITE = (math.nan, math.inf, -math.inf)


class TestNonFiniteCurvature:
    @pytest.mark.parametrize("kappa", NON_FINITE)
    def test_comparison_angle(self, kappa):
        with pytest.raises(DomainError, match="curvature must be finite"):
            comparison_angle(kappa, 1.0, 1.0, 1.0)

    @pytest.mark.parametrize("kappa", NON_FINITE)
    def test_realize_distances(self, kappa):
        d = np.ones((3, 3)) - np.eye(3)
        with pytest.raises(DomainError, match="curvature must be finite"):
            realize_distances(kappa, d, 2)

    @pytest.mark.parametrize("kappa", NON_FINITE)
    def test_quadruple_entry_points(self, kappa):
        # the certificate and the realization reach the two guards above
        q = MetricQuadruple.from_pairwise(1.0, 1.0, 1.0, 1.0, 1.0, 1.0)
        with pytest.raises(DomainError, match="curvature must be finite"):
            s3_embeddability(q, kappa)
        with pytest.raises(DomainError, match="curvature must be finite"):
            realize_quadruple(q, kappa)


class TestComparisonAngle:
    def test_flat_equilateral(self):
        assert comparison_angle(0.0, 1.0, 1.0, 1.0) == pytest.approx(math.pi / 3, abs=1e-15)

    def test_flat_right_isosceles(self):
        assert comparison_angle(0.0, math.sqrt(2.0), 1.0, 1.0) == pytest.approx(math.pi / 2, abs=1e-12)

    def test_spherical_octant(self):
        # oracle: realize the octant triangle on the unit sphere and measure
        # the coordinate angle at each corner
        half_pi = math.pi / 2
        coords = realize_triangle(1.0, half_pi, half_pi, half_pi)
        for apex in range(3):
            assert measured_angle(1.0, coords, apex) == pytest.approx(half_pi, abs=1e-9)
        assert comparison_angle(1.0, half_pi, half_pi, half_pi) == pytest.approx(half_pi, abs=1e-12)

    def test_degenerate_exact(self):
        assert comparison_angle(0.0, 2.0, 1.0, 1.0) == math.pi
        assert comparison_angle(0.0, 1.0, 2.0, 1.0) == 0.0
        assert comparison_angle(-1.0, 2.0, 1.0, 1.0) == math.pi
        assert comparison_angle(1.0, 1.0, 2.0, 1.0) == 0.0

    def test_triangle_violation(self):
        with pytest.raises(DomainError):
            comparison_angle(0.0, 3.0, 1.0, 1.0)

    def test_spherical_side_bound(self):
        with pytest.raises(DomainError):
            comparison_angle(4.0, 2.0, 2.0, 2.0)  # sqrt(4)*2 = 4 > pi

    def test_tiny_curvature_near_flat(self):
        for kappa in (1e-15, -1e-15, 0.0):
            assert comparison_angle(kappa, 1.2, 1.0, 0.9) == pytest.approx(decimal_angle(kappa, 1.2, 1.0, 0.9), abs=1e-15)

    def test_hyperbolic_large_sides_no_overflow(self):
        # cosh(400) overflows a double; the damped versines do not
        a = comparison_angle(-1.0, 400.0, 400.0, 400.0)
        assert 0.0 <= a < comparison_angle(0.0, 1.0, 1.0, 1.0)

    def test_hyperbolic_small_equilateral(self):
        # thinner than flat: angle < pi/3
        a = comparison_angle(-1.0, 1.0, 1.0, 1.0)
        assert 0.0 < a < math.pi / 3

    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(small_triples(), st.integers(min_value=0, max_value=5))
    def test_monotone_in_kappa(self, sides, i):
        opposite, b, c = sides
        lo = comparison_angle(KAPPA_GRID[i], opposite, b, c)
        hi = comparison_angle(KAPPA_GRID[i + 1], opposite, b, c)
        assert hi >= lo - 1e-12

    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(small_triples())
    def test_monotone_along_the_ladder_through_flat(self, sides):
        angles = comparison_angles(np.array(KAPPA_LADDER), *sides)[0]
        assert (np.diff(angles) >= -1e-12).all()

    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(small_side, small_side, st.floats(min_value=0.1, max_value=0.9), st.floats(min_value=0.1, max_value=0.9))
    def test_monotone_in_opposite(self, b, c, t1, t2):
        lo, hi = abs(b - c), b + c
        o1, o2 = sorted((lo + t1 * (hi - lo), lo + t2 * (hi - lo)))
        for kappa in (-1.0, 0.0, 1.0):
            assert comparison_angle(kappa, o2, b, c) >= comparison_angle(kappa, o1, b, c) - 1e-12

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(small_triples(), st.sampled_from(KAPPA_GRID))
    def test_continuity_in_kappa(self, sides, kappa):
        opposite, b, c = sides
        h = 1e-6
        d = abs(comparison_angle(kappa + h, opposite, b, c) - comparison_angle(kappa, opposite, b, c))
        assert d < 1e-5


class TestTripleEmbeddable:
    """Only the sphere bounds the perimeter of a triple: by 2*pi/sqrt(kappa)."""

    def test_octant(self):
        # the octant of the sphere of radius 1/2: perimeter 3*pi/4 <= pi
        assert comparison_angle(4.0, math.pi / 4, math.pi / 4, math.pi / 4) == pytest.approx(math.pi / 2, abs=1e-12)

    def test_negative_always(self):
        # perimeter 9 > 2*pi
        assert comparison_angle(0.0, 3.0, 3.0, 3.0) == pytest.approx(math.pi / 3, abs=1e-15)
        assert 0.0 < comparison_angle(-1.0, 3.0, 3.0, 3.0) < math.pi / 3

    def test_kappa4_bound(self):
        # every side passes sqrt(4)*d <= pi, but the perimeter 3.5 exceeds 2*pi/2
        with pytest.raises(DomainError, match="perimeter"):
            comparison_angle(4.0, 1.5, 1.0, 1.0)

    def test_perimeter_limit(self):
        # at kappa = 4 the limit is pi: three points 2*pi/3 apart on a great circle
        assert comparison_angle(4.0, math.pi / 3, math.pi / 3, math.pi / 3) == pytest.approx(math.pi, abs=1e-6)
        with pytest.raises(DomainError, match="perimeter"):
            comparison_angle(4.0, math.pi / 3 * (1.0 + 1e-9), math.pi / 3, math.pi / 3)


class TestCurvatureRange:
    @pytest.mark.parametrize("kappa", (1e-320, -1e-320, 1e-310, -1e-310))
    def test_subnormal_curvature(self, kappa):
        # no 1/kappa is formed: the regular tetrahedron realizes, its pole at 1/sqrt(|kappa|) < 1e162
        d = np.ones((4, 4)) - np.eye(4)
        coords = realize_distances(kappa, d, 3)
        assert coords.shape == (4, 4) and np.isfinite(coords).all()
        assert coords[0, 0] == 1.0 / math.sqrt(abs(kappa))
        assert realize_quadruple(MetricQuadruple(d), kappa, 3) is not None

    @pytest.mark.parametrize("sign", (1.0, -1.0))
    def test_regular_tetrahedron_at_every_small_curvature(self, sign):
        q = MetricQuadruple(np.ones((4, 4)) - np.eye(4))
        for exponent in range(-300, -3):
            assert realize_quadruple(q, sign * 10.0**exponent, 3) is not None, exponent

    def test_side_limit_is_the_triangle_slack(self):
        # sqrt(kappa) * d may exceed pi by TRIANGLE_SLACK, relative, and no more
        for kappa in (1.0, 4.0):
            for slack, realized in ((1e-13, True), (1e-10, False)):
                d = math.pi * (1.0 + slack) / math.sqrt(kappa)
                assert (realize_distances(kappa, np.array([[0.0, d], [d, 0.0]]), 2) is not None) == realized


class TestRealizeTriple:
    """Realizing a triple of distances with `realize_distances`."""

    def test_flat_pythagorean(self):
        coords = realize_triangle(0.0, 3.0, 4.0, 5.0)
        # canonical placement: first point at the origin, second on +x
        assert np.allclose(coords[0], 0.0)
        assert coords[1][1] == pytest.approx(0.0, abs=1e-12)
        assert coords[1][0] == pytest.approx(3.0, abs=1e-12)
        d = [geodesic_distance(0.0, coords[i], coords[j]) for i, j in ((0, 1), (0, 2), (1, 2))]
        assert d == pytest.approx([3.0, 4.0, 5.0], abs=1e-12)

    def test_spherical_octant_orthogonal(self):
        c = realize_triangle(1.0, math.pi / 2, math.pi / 2, math.pi / 2)
        assert np.allclose(np.linalg.norm(c, axis=1), 1.0, atol=1e-12)
        for i in range(3):
            for j in range(i + 1, 3):
                assert abs(float(np.dot(c[i], c[j]))) < 1e-12

    def test_hyperbolic_round_trip(self):
        coords = realize_triangle(-1.0, 1.0, 1.0, 1.0)
        for i, j in ((0, 1), (0, 2), (1, 2)):
            assert geodesic_distance(-1.0, coords[i], coords[j]) == pytest.approx(1.0, abs=1e-10)

    def test_spherical_bound_failure(self):
        # face (1, 2, 3) has sides 1, 1, 1.5: perimeter 3.5 > 2*pi/sqrt(4)
        q = MetricQuadruple.from_pairwise(1.0, 1.0, 1.0, 1.5, 1.0, 1.0)
        assert realize_quadruple(q, 4.0) is None
        assert realize_quadruple(q, 1.0) is not None

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(small_triples(), st.sampled_from(KAPPA_GRID))
    def test_angle_round_trip(self, sides, kappa):
        opposite, b, c = sides
        # apex at point 0 looks toward points 1 and 2; the opposite side is
        # d(1, 2), the adjacent sides are d(0, 1) and d(0, 2)
        coords = realize_triangle(kappa, b, c, opposite)
        assert measured_angle(kappa, coords, 0) == pytest.approx(comparison_angle(kappa, opposite, b, c), abs=1e-9)


def model_distance_matrix(kappa: float, coords: np.ndarray) -> np.ndarray:
    """Distances of model coordinates by arccos or arccosh of their products (`conftest.geodesic_distance`)."""
    return np.array([[geodesic_distance(kappa, p, q) if i != j else 0.0 for j, q in enumerate(coords)] for i, p in enumerate(coords)])


def hyperboloid_distances(rng, n: int, radius: float) -> np.ndarray:
    """Distances of n random points within `radius` of the pole on the curvature -1 hyperboloid."""
    r = rng.uniform(0.0, radius, n)
    t = rng.uniform(0.0, 2.0 * math.pi, n)
    p = np.column_stack([np.cosh(r), np.sinh(r) * np.cos(t), np.sinh(r) * np.sin(t)])
    inner = np.outer(p[:, 0], p[:, 0]) - p[:, 1:] @ p[:, 1:].T
    d = np.arccosh(np.maximum(inner, 1.0))
    np.fill_diagonal(d, 0.0)
    return d


class TestHyperbolicRealization:
    """Hyperbolic points realize from their versines over six decades of curvature."""

    def test_round_trip_over_six_decades(self):
        rng = np.random.default_rng(11)
        realized, worst = 0, 0.0
        for _ in range(300):
            kappa = -(10.0 ** rng.uniform(-3.0, 3.0))
            d = hyperboloid_distances(rng, 4, 3.0) / math.sqrt(-kappa)
            fits = rng.uniform() >= 0.5
            if not fits:
                kappa *= 10.0 ** rng.uniform(-1.0, 1.0)  # a curvature the points do not fit
            got = realize_distances(kappa, d, 2)
            if fits:
                assert got is not None and got[:, 0].min() > 0.0  # on the upper sheet
                worst = max(worst, np.abs(model_distance_matrix(kappa, got) - d).max() / d.max())
            realized += got is not None
        assert realized > 100 and worst <= 1e-9

    @pytest.mark.parametrize("kappa", [-100.0, -1000.0, -58060.6563420252])
    def test_near_overflow_entries(self, kappa):
        # up to sqrt(-kappa) * max d = 697, where cosh Gram entries near 1e297 once
        # kept an eigensolver from converging; the quadruple's Wald roots are about
        # -5.67 and 1, so at these curvatures no coordinates reproduce its distances
        # (a rank-2 factorization of the cosh Gram matrix misses them by 6 % to 33 %
        # of the largest at kappa = -100 to -1000)
        d = MetricQuadruple.from_pairwise(
            2.3303257425485495, 2.124565799872923, 2.893484832670206,
            0.27499257996563814, 0.9532155163549789, 1.1035036827185678,
        ).distances
        assert realize_distances(kappa, d, 2) is None

    def test_eigensolver_failure_is_none(self, monkeypatch):
        def no_convergence(g):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eigh", no_convergence)
        d = hyperboloid_distances(np.random.default_rng(3), 4, 1.0)
        for kappa in (-1.0, 0.0, 1.0):
            assert realize_distances(kappa, d, 2) is None


def model_distances(kappa: float, rng, n: int) -> np.ndarray:
    """Distances of n random points within 1 (curvature radius) of a pole of the 2-dimensional kappa model."""
    if kappa < 0.0:
        return hyperboloid_distances(rng, n, 1.0) / math.sqrt(-kappa)
    r, t = rng.uniform(0.1, 1.0, n), rng.uniform(0.0, 2.0 * math.pi, n)
    if kappa == 0.0:
        p = np.column_stack([r * np.cos(t), r * np.sin(t)])
        return np.linalg.norm(p[:, None] - p[None], axis=-1)
    p = np.column_stack([np.cos(r), np.sin(r) * np.cos(t), np.sin(r) * np.sin(t)])
    d = np.arccos(np.clip(p @ p.T, -1.0, 1.0)) / math.sqrt(kappa)
    np.fill_diagonal(d, 0.0)
    return d


class TestRealizationInputs:
    """Every point count gets coordinates in the whole model; a malformed matrix is a DomainError."""

    @pytest.mark.parametrize("n", (2, 3, 4, 5))
    @pytest.mark.parametrize("dim", (2, 3))
    @pytest.mark.parametrize("kappa", (0.0, 1.0, -1.0, 4.0))
    def test_coordinates_of_every_point_count(self, kappa, dim, n):
        # fewer points than the model's rank: zero columns pad the placement
        rng = np.random.default_rng(n + 10 * dim)
        d = model_distances(kappa, rng, n)
        coords = realize_distances(kappa, d, dim)
        assert coords.shape == (n, dim if kappa == 0.0 else dim + 1)
        np.testing.assert_allclose(model_distance_matrix(kappa, coords), d, rtol=0.0, atol=1e-9)
        # canonical placement: point 0 at the origin of the plane, and row i
        # of the sphere's or hyperboloid's space coordinates zero beyond coordinate i
        space = coords if kappa >= 0.0 else coords[:, 1:]
        assert not np.triu(space, k=0 if kappa == 0.0 else 1).any()

    @pytest.mark.parametrize("kappa", (0.0, 1.0, -1.0))
    @pytest.mark.parametrize(
        "dmat, message",
        [
            (np.zeros((0, 0)), "square distance matrix of at least two points"),
            (np.zeros((1, 1)), "square distance matrix of at least two points"),
            (np.zeros((2, 3)), "square distance matrix of at least two points"),
            (np.zeros(4), "square distance matrix of at least two points"),
            (np.full((3, 3), math.nan), "finite and nonnegative"),
            (np.array([[0.0, math.inf], [math.inf, 0.0]]), "finite and nonnegative"),
            (np.array([[0.0, -0.5], [-0.5, 0.0]]), "finite and nonnegative"),
        ],
    )
    def test_malformed_matrix(self, kappa, dmat, message):
        with pytest.raises(DomainError, match=message):
            realize_distances(kappa, dmat, 2)


class TestScaleInvariance:
    """Angles run on the sides over a power of two near the largest: every scale that keeps the sides' bits gives the same bits."""

    @staticmethod
    def _triangles(seed, count):
        rng = np.random.default_rng(seed)
        out = []
        while len(out) < count:
            b, c = rng.uniform(0.5, 2.0, size=2)
            out.append((abs(b - c) + rng.uniform(0.01, 0.99) * (b + c - abs(b - c)), b, c))
        return out

    @pytest.mark.parametrize("seed", range(4))
    def test_scales_by_powers_of_two(self, seed):
        for sides in self._triangles([seed, 7707], 5):
            for kappa in (0.0, 0.5, -3.0):
                want = comparison_angle(kappa, *sides)
                ok = []
                for k in range(-1080, 1030):
                    try:
                        scaled = [math.ldexp(kappa, -2 * k), *(math.ldexp(x, k) for x in sides)]
                    except OverflowError:
                        continue  # past the largest float
                    if any(math.ldexp(y, -k) != x for x, y in zip(sides, scaled[1:])) or math.ldexp(scaled[0], 2 * k) != kappa:
                        continue  # a subnormal lost bits: another triangle
                    with warnings.catch_warnings():
                        warnings.simplefilter("error")
                        got = comparison_angle(*map(np.float64, scaled))
                    assert got == want, (sides, kappa, k)
                    ok.append(k)
                assert ok == list(range(ok[0], ok[-1] + 1))
                assert ok[0] < (-1000 if kappa == 0.0 else -500) and ok[-1] > (1000 if kappa == 0.0 else 500)

    def test_curved_models_take_numpy_scalars_without_warnings(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for kappa in (-1.0, 1.0):
                try:
                    comparison_angle(kappa, *map(np.float64, (1e200, 1e200, 1e200)))
                except DomainError:
                    pass
