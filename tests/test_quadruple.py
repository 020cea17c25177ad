import math
from fractions import Fraction
from itertools import combinations, permutations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from plembed import (
    DegenerateQuadrupleError,
    DomainError,
    MetricQuadruple,
    cayley_menger,
    comparison_angle,
    nondegenerate,
    realize_quadruple,
    s3_embeddability,
    wald_curvature,
)
from plembed import quadruple
from plembed.quadruple import BISECT_RTOL

from conftest import geodesic_distance, separated, vertex_excess

TWO_PI = 2.0 * math.pi

UNIT = MetricQuadruple.from_pairwise(1, 1, 1, 1, 1, 1)
SQUARE = MetricQuadruple.from_pairwise(1, math.sqrt(2), 1, 1, math.sqrt(2), 1)
# hub at index 3, tips pairwise 1.99 but one edge-hop from the hub
TRIPOD = MetricQuadruple.from_pairwise(1.99, 1.99, 1.0, 1.99, 1.0, 1.0)
# unit equilateral triangle plus its centroid (index 3)
CENTROID = MetricQuadruple.from_pairwise(
    1.0, 1.0, 1.0 / math.sqrt(3.0), 1.0, 1.0 / math.sqrt(3.0), 1.0 / math.sqrt(3.0)
)


def laplace_det(m):
    """Plain cofactor-expansion determinant; independent of numpy.linalg."""
    n = len(m)
    if n == 1:
        return m[0][0]
    total = m[0][0] * 0
    sign = 1
    for j in range(n):
        minor = [row[:j] + row[j + 1 :] for row in m[1:]]
        total += sign * m[0][j] * laplace_det(minor)
        sign = -sign
    return total


def bordered(d):
    rows = [[0] + [1] * 4]
    for i in range(4):
        rows.append([1] + [d[i][j] * d[i][j] for j in range(4)])
    return rows


class TestCayleyMenger:
    def test_unit_tetrahedron_oracle(self):
        # exact rational cofactor expansion of the bordered matrix
        d = [[Fraction(0) if i == j else Fraction(1) for j in range(4)] for i in range(4)]
        assert laplace_det(bordered(d)) == 4
        assert cayley_menger(UNIT) == pytest.approx(4.0, abs=1e-12)

    def test_square_planar(self):
        assert abs(cayley_menger(SQUARE)) < 1e-12

    def test_all_zero(self):
        # a raw array is no quadruple: every matrix passes the one validator first
        with pytest.raises(DomainError, match="off-diagonal distances must be positive"):
            cayley_menger(MetricQuadruple(np.zeros((4, 4))))

    def test_matches_laplace_on_random(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            pts = rng.uniform(-1.0, 1.0, size=(4, 3))
            d = np.linalg.norm(pts[:, None] - pts[None, :], axis=-1)
            want = laplace_det(bordered(d.tolist()))
            assert cayley_menger(MetricQuadruple(d)) == pytest.approx(want, rel=1e-9, abs=1e-12)

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(st.integers(min_value=0, max_value=23), st.integers(min_value=0, max_value=999))
    def test_permutation_invariance(self, pidx, seed):
        rng = np.random.default_rng(seed)
        pts = rng.uniform(-1.0, 1.0, size=(4, 3))
        d = np.linalg.norm(pts[:, None] - pts[None, :], axis=-1)
        p = list(permutations(range(4)))[pidx]
        dp = d[np.ix_(p, p)]
        a = cayley_menger(MetricQuadruple(d))
        b = cayley_menger(MetricQuadruple(dp))
        assert b == pytest.approx(a, rel=1e-9, abs=1e-12)

    @pytest.mark.parametrize("side", [1e-60, 1e-52])
    def test_underflow_is_out_of_the_float_range(self, side):
        # 4 side^6, below the normal range: not a planar 0.0
        with pytest.raises(DomainError, match="up to .* is out of the float range"):
            cayley_menger(MetricQuadruple.from_pairwise(*[side] * 6))

    def test_normal_values_and_zeros_keep_their_bits(self):
        # the determinant of the bordered squared distances as taken before the underflow test, down to
        # sides of 1e-51, and on planar lattice quadruples, whose 0.0 or rounding noise the quadruple
        # scaled by a power of two does not reproduce
        def direct(q):
            b = np.ones((5, 5))
            b[0, 0] = 0.0
            b[1:, 1:] = q.distances * q.distances
            return float(np.linalg.det(b))

        rng = np.random.default_rng(8)
        qs = [MetricQuadruple.from_pairwise(*[side] * 6) for side in (1e-51, 1e-40, 1.0, 1e40)]
        while len(qs) < 300:
            p = rng.integers(-3, 4, size=(4, 2)).astype(float)
            d = np.linalg.norm(p[:, None] - p[None, :], axis=-1)
            if np.all(d + np.eye(4) > 0.0):
                qs.append(MetricQuadruple(d))
        got = [cayley_menger(q).hex() for q in qs]
        assert got == [direct(q).hex() for q in qs]
        assert 0 < got.count((0.0).hex()) < 200


class TestMetricQuadruple:
    def test_pairwise_round_trip(self):
        vals = (1.0, 1.1, 1.2, 1.3, 1.4, 1.5)
        assert MetricQuadruple.from_pairwise(*vals).pairwise() == vals

    def test_triangle_violation(self):
        with pytest.raises(Exception):
            MetricQuadruple.from_pairwise(1, 1, 1, 1, 1, 2.5)

    def test_asymmetric_rejected(self):
        m = np.ones((4, 4)) - np.eye(4)
        m[0, 1] = 1.2
        with pytest.raises(Exception):
            MetricQuadruple(m)


class TestNondegenerate:
    def test_collinear(self):
        q = MetricQuadruple.from_pairwise(1.0, 2.0, 1.0, 1.0, 1.2, 1.5)
        assert not nondegenerate(q)  # d13 = d12 + d23

    def test_tetra_and_square(self):
        assert nondegenerate(UNIT)
        assert nondegenerate(SQUARE)

    def test_one_betweenness_test_per_quadruple(self, monkeypatch):
        # the quadruple's distances are read-only, so the solver and the certificate share one test
        calls = []
        test = quadruple._betweenness
        monkeypatch.setattr(quadruple, "_betweenness", lambda d, margin: calls.append(margin) or test(d, margin))
        q = MetricQuadruple.from_pairwise(1, 1.1, 0.9, 1.05, 0.95, 1.2)
        wald_curvature(q)
        s3_embeddability(q, 1.0)
        assert len(calls) == 1


class TestVertexExcess:
    def test_centroid_full_angle(self):
        v, a = vertex_excess(CENTROID, 0.0)
        assert v[3] == pytest.approx(TWO_PI, abs=1e-12)
        assert a == pytest.approx(TWO_PI, abs=1e-12)

    def test_unit_tetra_flat(self):
        v, a = vertex_excess(UNIT, 0.0)
        assert np.allclose(v, math.pi, atol=1e-12)
        assert a == pytest.approx(math.pi, abs=1e-12)

    def test_strictly_increasing_in_kappa(self):
        values = [vertex_excess(UNIT, k)[1] for k in (-1.0, 0.0, 1.0)]
        assert values[0] < values[1] < values[2]

    def test_tripod_hub_excess(self):
        v, _ = vertex_excess(TRIPOD, 0.0)
        hub_angle = comparison_angle(0.0, 1.99, 1.0, 1.0)
        assert v[3] == pytest.approx(3.0 * hub_angle, abs=1e-12)
        assert v[3] > TWO_PI
        assert v[3] == pytest.approx(8.825, abs=5e-3)

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(st.integers(min_value=0, max_value=999))
    def test_monotone_excess_grid(self, seed):
        rng = np.random.default_rng(seed)
        pts = rng.uniform(0.0, 0.4, size=(4, 3))
        d = np.linalg.norm(pts[:, None] - pts[None, :], axis=-1)
        try:
            q = MetricQuadruple(d)
        except Exception:
            return
        last = -math.inf
        for kappa in (-4.0, -2.0, -1.0, 0.0, 1.0, 2.0, 4.0):
            _, a = vertex_excess(q, kappa)
            assert a >= last - 1e-12
            last = a


def sample_model_quadruple(kappa, rng, *, spread=1.2, min_sep=0.3):
    """Four random points in the curvature-kappa model via polar exponential
    coordinates at the base point; resamples until well separated and
    metrically nondegenerate."""
    while True:
        u = rng.uniform(-spread, spread, size=(4, 2))
        r = np.linalg.norm(u, axis=1)
        if kappa == 0.0:
            pts = u
        elif kappa > 0.0:
            rho = 1.0 / math.sqrt(kappa)
            ang = r * math.sqrt(kappa)
            with np.errstate(invalid="ignore"):
                unit = np.where(r[:, None] > 0, u / np.where(r[:, None] == 0, 1, r[:, None]), 0.0)
            pts = rho * np.column_stack(
                [np.sin(ang) * unit[:, 0], np.sin(ang) * unit[:, 1], np.cos(ang)]
            )
        else:
            rho = 1.0 / math.sqrt(-kappa)
            ang = r * math.sqrt(-kappa)
            unit = np.where(r[:, None] > 0, u / np.where(r[:, None] == 0, 1, r[:, None]), 0.0)
            pts = rho * np.column_stack(
                [np.cosh(ang), np.sinh(ang) * unit[:, 0], np.sinh(ang) * unit[:, 1]]
            )
        d = np.zeros((4, 4))
        for i in range(4):
            for j in range(i + 1, 4):
                d[i, j] = d[j, i] = geodesic_distance(kappa, pts[i], pts[j])
        if d[~np.eye(4, dtype=bool)].min() < min_sep:
            continue
        try:
            q = MetricQuadruple(d)
        except Exception:
            continue
        if not separated(q, 1e-3):
            continue
        return q


class TestWald:
    def test_square_flat(self):
        # the unit square also lies on a sphere near kappa = 2.892: flatness
        # takes precedence, and that root stays listed
        res = wald_curvature(SQUARE)
        assert res.classification == "flat"
        assert res.best_root().kappa == 0.0
        assert [r.kappa for r in res.roots] == [0.0, pytest.approx(2.892447948461361, rel=1e-9)]

    def test_unit_quadruple_spherical(self):
        # the README quick start: the regular tetrahedron, best root arccos(-1/3)^2
        res = wald_curvature(UNIT)
        assert res.classification == "spherical"
        want = math.acos(-1.0 / 3.0) ** 2
        assert res.roots[0].kappa == pytest.approx(want, rel=1e-9)
        assert res.best_root() == res.roots[0]
        assert res.best_root().kappa == pytest.approx(want, abs=BISECT_RTOL * (1.0 + want))

    def test_sphere_tetra_round_trip(self):
        # regular tetrahedron inscribed in the unit sphere: geodesic side
        # arccos(-1/3); the solver must recover kappa = 1
        side = math.acos(-1.0 / 3.0)
        q = MetricQuadruple.from_pairwise(*([side] * 6))
        res = wald_curvature(q)
        assert res.classification == "spherical"
        assert res.roots[0].kappa == pytest.approx(1.0, rel=1e-6)

    def test_hyperbolic_round_trip(self):
        rng = np.random.default_rng(11)
        for _ in range(5):
            q = sample_model_quadruple(-1.0, rng)
            res = wald_curvature(q)
            best = min(abs(r.kappa + 1.0) for r in res.roots)
            assert best <= 1e-6

    def test_degenerate_error(self):
        q = MetricQuadruple.from_pairwise(1.0, 2.0, 1.0, 1.0, 1.2, 1.5)
        with pytest.raises(DegenerateQuadrupleError):
            wald_curvature(q)

    def test_roots_within_interval_and_validated(self):
        res = wald_curvature(UNIT)
        lo, hi = res.search_interval
        for r in res.roots:
            assert lo <= r.kappa <= hi
            assert realize_quadruple(UNIT, r.kappa, 2) is not None

    @pytest.mark.parametrize("cap", [math.nan, math.inf, -5.0, 0.0])
    def test_kappa_cap_positive_and_finite(self, cap):
        with pytest.raises(DomainError, match="kappa_cap must be positive and finite"):
            wald_curvature(UNIT, kappa_cap=cap)

    def test_tiny_kappa_cap_bounds_every_root(self):
        # a cap below 4 / D^2 shrinks the first panel to [-cap, 0]; every root
        # lies inside the search interval, however small the cap
        q = MetricQuadruple.from_pairwise(
            0.7745955693300072,
            0.33182797962059235,
            0.48464209087529897,
            0.6226075779444433,
            0.6891756465604602,
            0.16864617724488923,
        )
        for cap in (1e-300, 1.6666713999421145e-10, 1e-7 / (q.max_distance * q.max_distance), 1.0, 1e6):
            res = wald_curvature(q, kappa_cap=cap)
            assert res.search_interval[0] == -cap
            assert all(res.search_interval[0] <= r.kappa <= res.search_interval[1] for r in res.roots)

    @pytest.mark.parametrize("sides", [(1, 1.1, 0.9, 1.05, 0.95, 1.2), (1,) * 6], ids=["scalene", "equilateral"])
    def test_every_scale_gives_a_result_or_domain_error(self, sides):
        # the search scales (pi / max d)^2, 1e4 / min d^2, 1e-7 / max d^2 and
        # max d^8 overflow or vanish at either end of the float range
        solved = []
        for k in range(-320, 309):
            s = float(f"1e{k}")
            try:
                res = wald_curvature(MetricQuadruple.from_pairwise(*(s * x for x in sides)))
            except DomainError:
                continue
            assert all(math.isfinite(v) for r in res.roots for v in (r.kappa, r.residual))
            solved.append(k)
        assert solved == list(range(solved[0], solved[-1] + 1))
        assert solved[0] < -30 and solved[-1] > 30

    def test_classification_permutation_invariant(self):
        rng = np.random.default_rng(5)
        q = sample_model_quadruple(1.0, rng)
        base = wald_curvature(q)
        for p in list(permutations(range(4)))[1::7]:
            qp = MetricQuadruple(q.distances[np.ix_(p, p)])
            assert wald_curvature(qp).classification == base.classification


class TestEmbeddability:
    def test_unit_tetra(self):
        cert = s3_embeddability(UNIT, 0.0)
        assert cert.verdict and not cert.planar
        assert cert.excess_slack == pytest.approx(TWO_PI - math.pi, abs=1e-12)
        assert realize_quadruple(UNIT, 0.0, 3) is not None

    def test_square_planar(self):
        cert = s3_embeddability(SQUARE, 0.0)
        assert cert.verdict and cert.planar
        assert realize_quadruple(SQUARE, 0.0, 2) is not None

    def test_tripod_witness(self):
        cert = s3_embeddability(TRIPOD, 0.0)
        assert not cert.verdict
        assert cert.witness[0] == "excess"
        assert cert.witness[1] == 3
        # the named inequality recomputes as violated from raw distances
        v, _ = vertex_excess(TRIPOD, 0.0)
        assert v[cert.witness[1]] > TWO_PI
        assert realize_quadruple(TRIPOD, 0.0, 2) is None
        assert realize_quadruple(TRIPOD, 0.0, 3) is None

    def test_verdict_permutation_invariant(self):
        for q in (UNIT, SQUARE, TRIPOD):
            want = s3_embeddability(q, 0.0).verdict
            for p in list(permutations(range(4)))[1::5]:
                qp = MetricQuadruple(q.distances[np.ix_(p, p)])
                assert s3_embeddability(qp, 0.0).verdict == want

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(st.integers(min_value=0, max_value=999))
    def test_certificate_soundness(self, seed):
        rng = np.random.default_rng(seed)
        pts = rng.uniform(0.0, 1.0, size=(4, 3))
        d = np.linalg.norm(pts[:, None] - pts[None, :], axis=-1)
        try:
            q = MetricQuadruple(d)
        except Exception:
            return
        if not separated(q, 1e-6):
            return
        cert = s3_embeddability(q, 0.0)
        if cert.verdict:
            assert realize_quadruple(q, 0.0, 3) is not None

    def test_sphere_quadruple_realizes_on_sphere(self):
        side = math.acos(-1.0 / 3.0)
        q = MetricQuadruple.from_pairwise(*([side] * 6))
        coords = realize_quadruple(q, 1.0, 2)
        assert coords is not None
        assert np.allclose(np.linalg.norm(coords, axis=1), 1.0, atol=1e-9)

    def test_flat_consistency(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            pts = rng.uniform(-1.0, 1.0, size=(4, 2))
            d = np.linalg.norm(pts[:, None] - pts[None, :], axis=-1)
            try:
                q = MetricQuadruple(d)
            except Exception:
                continue
            if not separated(q, 1e-6):
                continue
            assert abs(cayley_menger(q)) <= 1e-9 * q.max_distance**8
            assert wald_curvature(q).classification == "flat"
