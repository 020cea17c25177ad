import math
import re

import numpy as np
import pytest

from plembed import (
    AcuteTriangle,
    DomainError,
    FoldParams,
    canonical_element,
    isometry_defect,
    standard_vertex_map,
    vertex_contraction,
)

from plembed.bzelement import MIN_SIDE_RATIO

from conftest import fold_jacobian

TWO_PI = 2.0 * math.pi


def random_acute(rng, scale=1.0):
    while True:
        pts = rng.uniform(0.0, 1.0, size=(3, 2)) * scale
        try:
            return AcuteTriangle(pts)
        except DomainError:
            continue


class TestFoldParams:
    def test_guards(self):
        with pytest.raises(DomainError):
            FoldParams(0.0, 1.0)
        with pytest.raises(DomainError):
            FoldParams(1.0, -1.0)
        with pytest.raises(DomainError):
            FoldParams(1.0, 1.0, radial_scale=0.0)

    @pytest.mark.parametrize("args", [(math.nan, 1.0), (1.0, math.nan), (1.0, 1.0, math.nan), (math.inf, 1.0)])
    def test_non_finite_rejected(self, args):
        with pytest.raises(DomainError, match="finite"):
            FoldParams(*args)

    def test_nan_point_rejected(self):
        with pytest.raises(DomainError, match="radius"):
            standard_vertex_map(FoldParams(math.pi, TWO_PI), math.nan, 1.0)
        with pytest.raises(DomainError, match="radius"):
            vertex_contraction(3.0 * math.pi, math.nan, 1.0)
        with pytest.raises(DomainError, match="cone angle"):
            vertex_contraction(math.nan, 1.0, 1.0)


class TestStandardVertexMap:
    def test_doubling_fold(self):
        r, p = standard_vertex_map(FoldParams(math.pi, TWO_PI), 1.0, math.pi / 2.0)
        assert (r, p) == (1.0, math.pi)

    def test_power_law_radius(self):
        r, p = standard_vertex_map(FoldParams(math.pi / 2.0, math.pi), 0.25, 0.0)
        assert r == 0.0625 and p == 0.0

    def test_identity_fold_exact(self):
        params = FoldParams(1.7, 1.7)
        for rho, phi in ((0.0, 0.0), (0.3, 0.9), (2.5, 1.7)):
            assert standard_vertex_map(params, rho, phi) == (rho, phi)

    def test_apex_fixed(self):
        for lam in (0.5, math.pi, 3.0 * math.pi):
            r, p = standard_vertex_map(FoldParams(TWO_PI, lam), 0.0, 1.0)
            assert r == 0.0

    def test_radial_scale(self):
        r, _ = standard_vertex_map(FoldParams(math.pi, math.pi, radial_scale=2.5), 0.4, 0.1)
        assert r == pytest.approx(1.0, rel=1e-15)

    def test_angle_domain(self):
        params = FoldParams(math.pi, TWO_PI)
        with pytest.raises(DomainError):
            standard_vertex_map(params, 1.0, 3.2)
        with pytest.raises(DomainError):
            standard_vertex_map(params, 1.0, -0.1)
        with pytest.raises(DomainError):
            standard_vertex_map(params, -1.0, 0.5)

    def test_boundary_rays_map_to_boundary(self):
        params = FoldParams(3.0 * math.pi, TWO_PI)
        _, p0 = standard_vertex_map(params, 1.0, 0.0)
        _, p1 = standard_vertex_map(params, 1.0, 3.0 * math.pi)
        assert p0 == 0.0
        assert p1 == pytest.approx(TWO_PI, rel=1e-15)

    def test_angle_ratio_past_the_float_range(self):
        # t = target / source overflows; t * phi would be NaN at phi = 0
        with pytest.raises(DomainError, match=r"angle ratio 6\.283185307179586 / 1e-320 is out of the float range"):
            standard_vertex_map(FoldParams(1e-320, TWO_PI), 1.0, 0.0)

    def test_image_angle_past_the_float_range(self):
        # t is the largest float; at the apex the radius 0 is fine, and t * phi overflows
        big = 1.7976931348623157e308
        with pytest.raises(DomainError, match=r"image angle 1\.7976931348623157e\+308 \* 1\.0000000000001 is out of"):
            standard_vertex_map(FoldParams(1.0, big), 0.0, 1.0000000000001)
        assert standard_vertex_map(FoldParams(1.0, big), 0.0, 0.0) == (0.0, 0.0)


class TestVertexContraction:
    def test_wide_cone_example(self):
        r, p = vertex_contraction(4.0 * math.pi, 0.5, TWO_PI)
        assert r == 0.5
        assert p == pytest.approx(math.pi, rel=1e-15)

    def test_radial_isometry_exact(self):
        # radii pass through untouched, unlike the conformal fold
        for rho in (0.0, 1e-9, 0.123456789, 7.5):
            r, _ = vertex_contraction(3.0 * math.pi, rho, 1.0)
            assert r == rho

    def test_circle_contraction_factor(self):
        theta = 5.0
        _, p = vertex_contraction(theta, 1.0, theta)
        assert p == pytest.approx(TWO_PI, rel=1e-15)

    def test_guards(self):
        with pytest.raises(DomainError):
            vertex_contraction(0.0, 1.0, 0.0)
        with pytest.raises(DomainError):
            vertex_contraction(math.pi, -1.0, 0.0)
        with pytest.raises(DomainError):
            vertex_contraction(math.pi, 1.0, 4.0)

    def test_angle_ratio_past_the_float_range(self):
        # 2 pi / source overflows; times phi it would be infinite
        with pytest.raises(DomainError, match=r"angle ratio 2\*pi / 1e-320 is out of the float range"):
            vertex_contraction(1e-320, 1.0, 1e-321)


class TestFoldJacobian:
    @pytest.mark.parametrize("theta,lam", [(math.pi, TWO_PI), (3.0 * math.pi, TWO_PI), (TWO_PI, math.pi)])
    def test_conformal_away_from_apex(self, theta, lam):
        params = FoldParams(theta, lam)
        for rho, phi in ((0.3, 0.2 * theta), (1.0, 0.5 * theta), (0.7, 0.8 * theta)):
            j = fold_jacobian(params, rho, phi)
            s = np.linalg.svd(j, compute_uv=False)
            assert s[0] / s[1] <= 1.0 + 1e-4

    def test_singular_values_match_conformal_factor(self):
        # factor t * rho^(t-1) with t = 2 at rho = 0.5 is exactly 1
        j = fold_jacobian(FoldParams(math.pi, TWO_PI), 0.5, 1.0)
        s = np.linalg.svd(j, compute_uv=False)
        assert s == pytest.approx([1.0, 1.0], abs=1e-6)

    def test_apex_guard(self):
        with pytest.raises(DomainError):
            fold_jacobian(FoldParams(math.pi, TWO_PI), 1e-8, 0.5)


class TestAcuteTriangle:
    def test_right_triangle_rejected(self):
        with pytest.raises(DomainError, match="acute"):
            AcuteTriangle.from_sides(5.0, 4.0, 3.0)

    def test_obtuse_rejected(self):
        with pytest.raises(DomainError, match="acute"):
            AcuteTriangle.from_sides(1.8, 1.0, 1.0)

    def test_collinear_rejected(self):
        with pytest.raises(DomainError):
            AcuteTriangle.from_sides(2.0, 1.0, 1.0)
        with pytest.raises(DomainError):
            AcuteTriangle(np.array([[0.0, 0], [1.0, 0], [2.0, 0]]))

    def test_shape_guard(self):
        with pytest.raises(DomainError):
            AcuteTriangle(np.zeros((3, 3)))

    @pytest.mark.parametrize("x", [math.nan, math.inf])
    def test_non_finite_vertex_rejected(self, x):
        with pytest.raises(DomainError, match="vertices must be finite"):
            AcuteTriangle(np.array([[0.0, 0.0], [1.0, 0.0], [x, 1.0]]))

    @pytest.mark.parametrize("sides", [(math.nan, 1.0, 1.0), (1.0, math.nan, 1.0), (1.0, 1.0, math.inf)])
    def test_non_finite_sides_rejected(self, sides):
        with pytest.raises(DomainError, match="sides must be positive and finite"):
            AcuteTriangle.from_sides(*sides)

    @pytest.mark.parametrize(
        "vertices", [[[0.0, 0.0], [1e200, 0.0], [3e199, 1e200]], [[0.0, 0.0], [1.7e308, 0.0], [-1.7e308, 1.0]]]
    )
    def test_overflowing_sides_rejected(self, vertices):
        # finite vertices whose side lengths overflow: once sides inf and angles nan, and accepted
        with pytest.raises(DomainError, match=r"squares of the side lengths \(inf, inf, inf\) of .* out of the float range"):
            AcuteTriangle(np.array(vertices))

    @pytest.mark.parametrize("side", [1e-170, 1e-160, 1e155, 1e300])
    def test_sides_whose_squares_leave_the_float_range(self, side):
        # the placement squares every side: below about 1e-154 it once said "sides do not form a triangle"
        with pytest.raises(DomainError, match=re.escape(f"side {side!r} squared is out of the float range")):
            AcuteTriangle.from_sides(side, side, side)
        with pytest.raises(DomainError, match="sides do not form a triangle"):
            AcuteTriangle.from_sides(1.0, 1.0, 3.0)

    @pytest.mark.parametrize("side", [1e-150, 1e-120, 1e104, 1e150])
    def test_circumcenter_beyond_the_range_of_its_products(self, side):
        # its products of three coordinates under- or overflow unscaled: it was (0, 0) at 1e-120, and a
        # DomainError at 1e104 and 1e150
        t = AcuteTriangle.from_sides(side, side, side)
        # an equilateral triangle's circumcenter is its centroid
        assert t.circumcenter == pytest.approx(t.vertices.mean(axis=0), rel=1e-15)
        assert t.circumradius == pytest.approx(side / math.sqrt(3.0), rel=1e-15)
        assert canonical_element(t, t).apex.tolist() == [*t.circumcenter.tolist(), 0.0]

    @pytest.mark.parametrize("side", [9.6e153, 1e154, 1.3e154, 1.34e154])
    def test_sides_whose_sums_of_squares_overflow(self, side):
        # each square is in range, but the sum of two overflowed in the placement and the law of cosines:
        # "sides do not form a triangle"
        t = AcuteTriangle.from_sides(side, side, side)
        assert t.angles == pytest.approx((math.pi / 3,) * 3, rel=1e-14)
        apex = canonical_element(t, t).apex
        assert apex[:2] == pytest.approx(t.vertices.mean(axis=0), rel=1e-15) and apex[2] == 0.0

    @pytest.mark.parametrize("k", [-500, -400, 345, 500])
    def test_circumcenter_scales_exactly(self, k):
        t = AcuteTriangle.from_sides(0.8, 0.9, 1.0)
        scaled = AcuteTriangle(t.vertices * 2.0**k).circumcenter
        assert scaled.tobytes() == (t.circumcenter * 2.0**k).tobytes()

    def test_from_sides_placement(self):
        t = AcuteTriangle.from_sides(3.5, 4.0, 4.5)
        assert np.array_equal(t.vertices[0], [0.0, 0.0])
        assert np.array_equal(t.vertices[1], [4.5, 0.0])
        assert t.vertices[2][1] > 0.0
        assert t.side_lengths == pytest.approx((3.5, 4.0, 4.5), rel=1e-14)

    def test_equilateral_properties(self):
        t = AcuteTriangle.from_sides(1.0, 1.0, 1.0)
        assert t.angles == pytest.approx((math.pi / 3,) * 3, rel=1e-14)
        assert t.circumradius == pytest.approx(1.0 / math.sqrt(3.0), rel=1e-14)
        # circumcenter and centroid coincide
        assert t.circumcenter == pytest.approx(t.vertices.mean(axis=0), abs=1e-15)
        assert t.apothems == pytest.approx((0.5 / math.sqrt(3.0),) * 3, rel=1e-13)

    def test_midpoints_opposite_vertices(self):
        t = AcuteTriangle.from_sides(0.9, 1.0, 1.1)
        v, m = t.vertices, t.edge_midpoints
        for p in range(3):
            assert m[p] == pytest.approx(0.5 * (v[(p + 1) % 3] + v[(p + 2) % 3]), abs=1e-15)

    def test_circumcenter_equidistant_random(self):
        rng = np.random.default_rng(23)
        for _ in range(20):
            t = random_acute(rng)
            c, r = t.circumcenter, t.circumradius
            for p in range(3):
                assert np.linalg.norm(t.vertices[p] - c) == pytest.approx(r, rel=1e-10)

    def test_vertices_frozen(self):
        t = AcuteTriangle.from_sides(1.0, 1.0, 1.0)
        with pytest.raises(ValueError):
            t.vertices[0, 0] = 9.0


class TestCanonicalElement:
    def test_frozen_equilateral_shrink(self):
        t = AcuteTriangle.from_sides(1.0, 1.0, 1.0)
        b = AcuteTriangle.from_sides(0.9, 0.9, 0.9)
        el = canonical_element(t, b)
        # sqrt(R^2 - r^2) and sqrt((s/2)^2 - (0.9 s/2)^2)
        assert el.apex_height == pytest.approx(math.sqrt(0.19 / 3.0), rel=1e-12)
        assert el.pleat_heights == pytest.approx([math.sqrt(0.0475)] * 3, rel=1e-12)
        assert el.apex[:2] == pytest.approx(b.circumcenter, abs=1e-15)
        assert np.all(el.base_vertices[:, 2] == 0.0)

    def test_identity_collapses_flat(self):
        t = AcuteTriangle.from_sides(0.8, 0.9, 1.0)
        el = canonical_element(t, t)
        assert el.apex_height == 0.0
        assert np.all(el.pleat_heights == 0.0)
        rep = isometry_defect(el, t)
        assert rep.max_defect <= 1e-13
        assert rep.similarity_ratio == pytest.approx(1.0, rel=1e-15)

    def test_angle_mismatch_rejected(self):
        t = AcuteTriangle.from_sides(1.0, 1.0, 1.0)
        b = AcuteTriangle.from_sides(0.9, 0.9, 0.75)
        with pytest.raises(DomainError, match="angle mismatch"):
            canonical_element(t, b)

    def test_oversized_base_rejected(self):
        t = AcuteTriangle.from_sides(1.0, 1.0, 1.0)
        b = AcuteTriangle.from_sides(1.01, 1.01, 1.01)
        with pytest.raises(DomainError, match="at most"):
            canonical_element(t, b)

    def test_min_ratio_guard(self):
        t = AcuteTriangle.from_sides(1.0, 1.0, 1.0)
        b = AcuteTriangle.from_sides(0.4, 0.4, 0.4)
        with pytest.raises(DomainError, match="ratio"):
            canonical_element(t, b)

    def test_angle_tol_override(self):
        t = AcuteTriangle.from_sides(1.0, 1.0, 1.0)
        b = AcuteTriangle.from_sides(0.9, 0.9, 0.85)
        with pytest.raises(DomainError, match="angle mismatch"):
            canonical_element(t, b)

    def test_exact_edges_congruent_random(self):
        # corner-to-facepoint and corner-to-apex lengths reproduce the
        # template half-sides and circumradius at full precision
        rng = np.random.default_rng(31)
        for _ in range(20):
            t = random_acute(rng)
            c = float(rng.uniform(0.6, 0.999))
            b = AcuteTriangle(t.vertices * c)
            el = canonical_element(t, b)
            half = [0.5 * s for s in t.side_lengths]
            big_r = t.circumradius
            for p in range(3):
                k, l = (p + 1) % 3, (p + 2) % 3
                assert np.linalg.norm(el.base_vertices[k] - el.face_points[p]) == pytest.approx(half[p], rel=1e-12)
                assert np.linalg.norm(el.face_points[p] - el.base_vertices[l]) == pytest.approx(half[p], rel=1e-12)
                assert np.linalg.norm(el.apex - el.base_vertices[p]) == pytest.approx(big_r, rel=1e-12)


class TestIsometryDefect:
    def test_frozen_equilateral_value(self):
        t = AcuteTriangle.from_sides(1.0, 1.0, 1.0)
        b = AcuteTriangle.from_sides(0.9, 0.9, 0.9)
        rep = isometry_defect(canonical_element(t, b), t)
        assert rep.max_defect == pytest.approx(0.026688909408631667, rel=1e-12)
        assert rep.edge_ratios == pytest.approx((0.9,) * 3, rel=1e-14)
        assert rep.similarity_ratio == pytest.approx(0.9, rel=1e-14)

    def test_boundary_residuals_vanish(self):
        rng = np.random.default_rng(37)
        for _ in range(10):
            t = random_acute(rng)
            b = AcuteTriangle(t.vertices * 0.8)
            rep = isometry_defect(canonical_element(t, b), t)
            scale = max(t.side_lengths)
            assert max(rep.boundary_residuals) <= 1e-12 * scale

    def test_defect_decreases_toward_identity(self):
        t = AcuteTriangle.from_sides(1.0, 1.0, 1.0)
        defects = []
        for k in range(1, 7):
            c = 1.0 - 10.0**-k
            b = AcuteTriangle.from_sides(c, c, c)
            defects.append(isometry_defect(canonical_element(t, b), t).max_defect)
        assert all(b < a for a, b in zip(defects, defects[1:]))
        assert defects[-1] <= 1e-4

    def test_defect_roughly_linear_in_shrink(self):
        t = AcuteTriangle.from_sides(1.0, 1.0, 1.0)
        d1 = isometry_defect(canonical_element(t, AcuteTriangle.from_sides(0.99, 0.99, 0.99)), t).max_defect
        d2 = isometry_defect(canonical_element(t, AcuteTriangle.from_sides(0.999, 0.999, 0.999)), t).max_defect
        assert d1 / d2 == pytest.approx(10.0, rel=0.05)

    def test_template_mismatch_rejected(self):
        t = AcuteTriangle.from_sides(1.0, 1.0, 1.0)
        other = AcuteTriangle.from_sides(1.1, 1.1, 1.1)
        el = canonical_element(t, AcuteTriangle.from_sides(0.9, 0.9, 0.9))
        with pytest.raises(DomainError, match="not built against"):
            isometry_defect(el, other)

    def test_to_dict(self):
        t = AcuteTriangle.from_sides(1.0, 1.0, 1.0)
        rep = isometry_defect(canonical_element(t, t), t)
        d = rep.to_dict()
        assert set(d) == {"pleat_residuals", "boundary_residuals", "max_defect", "edge_ratios", "similarity_ratio"}


class TestObjExport:
    def test_structure(self):
        t = AcuteTriangle.from_sides(1.0, 1.0, 1.0)
        b = AcuteTriangle.from_sides(0.9, 0.9, 0.9)
        text = canonical_element(t, b).to_obj()
        lines = text.splitlines()
        assert lines[0] == "# pleated element"
        assert sum(1 for l in lines if l.startswith("v ")) == 7
        faces = [l for l in lines if l.startswith("f ")]
        assert faces == ["f 2 4 7", "f 4 3 7", "f 3 5 7", "f 5 1 7", "f 1 6 7", "f 6 2 7"]
        assert text.endswith("\n")

    def test_deterministic(self):
        t = AcuteTriangle.from_sides(0.8, 0.9, 1.0)
        b = AcuteTriangle(t.vertices * 0.85)
        assert canonical_element(t, b).to_obj() == canonical_element(t, b).to_obj()

    def test_apex_is_last_vertex(self):
        t = AcuteTriangle.from_sides(1.0, 1.0, 1.0)
        b = AcuteTriangle.from_sides(0.9, 0.9, 0.9)
        el = canonical_element(t, b)
        vline = el.to_obj().splitlines()[7]
        coords = [float(x) for x in vline.split()[1:]]
        assert coords == pytest.approx(list(el.apex), rel=1e-15)


# ---------------------------------------------------------------------------
# The scalar reference: AcuteTriangle, canonical_element and isometry_defect as
# loops over p on Python floats, with norms of single rows and ``**`` as libm pow.


def reference_triangle(vertices) -> dict:
    """Every property of ``AcuteTriangle(vertices)``, or its DomainError."""
    v = np.array(vertices, dtype=float)
    if v.shape != (3, 2):
        raise DomainError("expected three planar vertices")
    if not np.isfinite(v).all():
        raise DomainError("vertices must be finite")
    sides = tuple(float(np.linalg.norm(v[(p + 1) % 3] - v[(p + 2) % 3])) for p in range(3))
    if min(sides) <= 0.0:
        raise DomainError("triangle is degenerate")
    angles = []
    for p in range(3):
        k, l = (p + 1) % 3, (p + 2) % 3
        cosv = (sides[k] ** 2 + sides[l] ** 2 - sides[p] ** 2) / (2.0 * sides[k] * sides[l])
        if cosv <= 0.0:
            raise DomainError("triangle must be strictly acute")
        angles.append(math.acos(cosv))
    (ax, ay), (bx, by), (cx, cy) = v
    d = 2.0 * (ax * (by - cy) + bx * (cy - ay) + cx * (ay - by))
    ux = ((ax * ax + ay * ay) * (by - cy) + (bx * bx + by * by) * (cy - ay) + (cx * cx + cy * cy) * (ay - by)) / d
    uy = ((ax * ax + ay * ay) * (cx - bx) + (bx * bx + by * by) * (ax - cx) + (cx * cx + cy * cy) * (bx - ax)) / d
    center = np.array([ux, uy])
    mids = np.array([0.5 * (v[(p + 1) % 3] + v[(p + 2) % 3]) for p in range(3)])
    return {
        "vertices": v,
        "side_lengths": sides,
        "angles": tuple(angles),
        "circumcenter": center,
        "circumradius": float(np.linalg.norm(v[0] - center)),
        "edge_midpoints": mids,
        "apothems": tuple(float(np.linalg.norm(m - center)) for m in mids),
    }


def reference_element(t: dict, b: dict) -> dict:
    """The fields of ``canonical_element`` from two reference triangles, or its DomainError."""
    for at, ab in zip(t["angles"], b["angles"]):
        if abs(at - ab) > 1e-2:
            raise DomainError("triangles are not almost similar: angle mismatch")
    for st, sb in zip(t["side_lengths"], b["side_lengths"]):
        if sb > st * (1.0 + 1e-12):
            raise DomainError("every base side must be at most the template side")
        if sb < 0.5 * st:
            raise DomainError("side ratio below the minimum 0.5")
    big_r, small_r = t["circumradius"], b["circumradius"]
    if small_r > big_r * (1.0 + 1e-12):
        raise DomainError("base circumradius exceeds the template circumradius")
    apex_height = math.sqrt(max(big_r * big_r - small_r * small_r, 0.0))
    center, mids = b["circumcenter"], b["edge_midpoints"]
    pleat_heights = np.empty(3)
    face_points = np.empty((3, 3))
    for p in range(3):
        z2 = (0.5 * t["side_lengths"][p]) ** 2 - (0.5 * b["side_lengths"][p]) ** 2
        pleat_heights[p] = math.sqrt(max(z2, 0.0))
        face_points[p] = (mids[p][0], mids[p][1], pleat_heights[p])
    return {
        "base_vertices": np.hstack([b["vertices"], np.zeros((3, 1))]),
        "apex": np.array([center[0], center[1], apex_height]),
        "face_points": face_points,
        "apex_height": apex_height,
        "pleat_heights": pleat_heights,
    }


def reference_defect(el: dict, built: dict, b: dict, t: dict) -> dict:
    """The fields of ``isometry_defect``: ``el`` built against ``built`` over ``b``, checked against ``t``."""
    for x, y in zip(built["side_lengths"], t["side_lengths"]):
        if abs(x - y) > 1e-12 * max(x, y):
            raise DomainError("element was not built against this template")
    pleat, boundary = [], []
    for p in range(3):
        k, l = (p + 1) % 3, (p + 2) % 3
        pleat.append(abs(float(np.linalg.norm(el["apex"] - el["face_points"][p])) - t["apothems"][p]))
        length = float(
            np.linalg.norm(el["base_vertices"][k] - el["face_points"][p])
            + np.linalg.norm(el["face_points"][p] - el["base_vertices"][l])
        )
        boundary.append(abs(length - t["side_lengths"][p]))
    ratios = tuple(sb / st for sb, st in zip(b["side_lengths"], t["side_lengths"]))
    return {
        "pleat_residuals": tuple(pleat),
        "boundary_residuals": tuple(boundary),
        "max_defect": max(max(pleat), max(boundary)),
        "edge_ratios": ratios,
        "similarity_ratio": sum(ratios) / 3.0,
    }


def reference_obj(el: dict) -> str:
    lines = ["# pleated element"]
    for p in [*el["base_vertices"], *el["face_points"], el["apex"]]:
        lines.append("v " + " ".join(f"{x:.17g}" for x in p))
    for p in range(3):
        k, l = (p + 1) % 3, (p + 2) % 3
        lines += [f"f {k + 1} {p + 4} 7", f"f {p + 4} {l + 1} 7"]
    return "\n".join(lines) + "\n"


def outcome(fn, *args):
    try:
        return fn(*args)
    except DomainError as exc:
        return f"DomainError: {exc}"


def assert_same_fields(got, want: dict):
    """Each field equal to the reference's in type and in every bit."""
    for name, value in want.items():
        mine = getattr(got, name)
        assert type(mine) is type(value), name
        if isinstance(value, tuple):
            assert all(type(x) is float for x in mine), name
        assert np.asarray(mine, dtype=float).tobytes() == np.asarray(value, dtype=float).tobytes(), name


def assert_matches_reference(template_vertices, base_vertices):
    t_ref, b_ref = outcome(reference_triangle, template_vertices), outcome(reference_triangle, base_vertices)
    t, b = outcome(AcuteTriangle, template_vertices), outcome(AcuteTriangle, base_vertices)
    for tri, ref in ((t, t_ref), (b, b_ref)):
        assert isinstance(ref, str) == isinstance(tri, str) and (not isinstance(ref, str) or str(tri) == ref)
        if not isinstance(ref, str):
            assert_same_fields(tri, ref)
    if isinstance(t_ref, str) or isinstance(b_ref, str):
        return "triangle"
    el_ref, el = outcome(reference_element, t_ref, b_ref), outcome(canonical_element, t, b)
    if isinstance(el_ref, str):
        assert el == el_ref
        return el_ref
    assert_same_fields(el, el_ref)
    assert el.template is t and el.base is b
    assert el.to_obj() == reference_obj(el_ref)
    assert_same_fields(isometry_defect(el, t), reference_defect(el_ref, t_ref, b_ref, t_ref))
    # against other templates: a moved copy, whose sides agree within the slack, and a half-size mirror
    for other in (t.vertices + 0.25, t.vertices[::-1] * 0.5):
        want = outcome(reference_defect, el_ref, t_ref, b_ref, reference_triangle(other))
        got = outcome(isometry_defect, el, AcuteTriangle(other))
        if isinstance(want, str):
            assert got == want
        else:
            assert_same_fields(got, want)
    return "element"


def seeded_pairs(seed: int, count: int):
    """(template, base) vertex arrays: scaled, moved and perturbed bases of random templates."""
    rng = np.random.default_rng(seed)
    for i in range(count):
        t = random_acute(rng, math.exp(rng.uniform(-8.0, 8.0))).vertices
        kind = i % 4
        if kind == 0:
            # a scaled copy, as in test_exact_edges_congruent_random
            b = t * float(rng.uniform(0.45, 1.02))
        elif kind == 1:
            a = rng.uniform(0.0, 2.0 * math.pi)
            rot = np.array([[math.cos(a), -math.sin(a)], [math.sin(a), math.cos(a)]])
            b = float(rng.uniform(0.5, 1.0)) * t @ rot.T + rng.uniform(-1.0, 1.0, 2)
        elif kind == 2:
            b = t * float(rng.uniform(0.5, 1.0)) * (1.0 + rng.normal(0.0, 10.0 ** rng.uniform(-9.0, -2.0), (3, 2)))
        else:
            b = rng.uniform(0.0, 1.0, size=(3, 2)) * math.exp(rng.uniform(-8.0, 8.0))
        yield t, b


class TestScalarReference:
    """Every field of the triangles, the element, its OBJ text and its defect, bit for bit against the loops."""

    @pytest.mark.parametrize("seed", [41, 42, 43])
    def test_seeded_pairs(self, seed):
        seen = [assert_matches_reference(t, b) for t, b in seeded_pairs(seed, 500)]
        assert seen.count("element") >= 250

    def test_scaled_random_templates(self):
        # the bases of test_exact_edges_congruent_random, at many more draws
        rng = np.random.default_rng(31)
        for _ in range(300):
            t = random_acute(rng)
            c = float(rng.uniform(0.6, 0.999))
            assert assert_matches_reference(t.vertices, t.vertices * c) == "element"

    @pytest.mark.parametrize(
        "template,base",
        [
            ((5.0, 4.0, 3.0), (5.0, 4.0, 3.0)),  # right: rejected as a triangle
            ((1.0, 1.0, 1.0), (0.5, 0.5, 0.5)),  # side ratio exactly MIN_SIDE_RATIO
            ((0.8, 0.9, 1.0), (0.4, 0.45, 0.5)),
            ((0.8, 0.9, 1.0), (0.8, 0.9, 1.0)),  # base equal to its template
            ((1.0, 1.0, 1.0), (0.9, 0.9, 0.9)),
            ((1.0, 1.0, 1.0), (1.01, 1.01, 1.01)),
            ((1.0, 1.0, 1.0), (0.4, 0.4, 0.4)),
        ],
    )
    def test_boundary_cases(self, template, base):
        # placed as from_sides places them
        places = []
        for s1, s2, s3 in (template, base):
            x = (s3 * s3 + s2 * s2 - s1 * s1) / (2.0 * s3)
            places.append(np.array([[0.0, 0.0], [s3, 0.0], [x, math.sqrt(s2 * s2 - x * x)]]))
        assert_matches_reference(*places)

    def test_ratio_at_the_minimum_and_identity(self):
        t = AcuteTriangle.from_sides(0.8, 0.9, 1.0)
        assert assert_matches_reference(t.vertices, t.vertices * MIN_SIDE_RATIO) == "element"
        assert assert_matches_reference(t.vertices, t.vertices) == "element"
        assert canonical_element(t, t).apex_height == 0.0

    def test_rejected_triangles(self):
        rng = np.random.default_rng(47)
        for _ in range(500):
            assert_matches_reference(rng.uniform(-1.0, 1.0, size=(3, 2)), rng.uniform(-1.0, 1.0, size=(3, 2)))
        for bad in (np.zeros((3, 3)), [[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]], [[0.0, 0.0], [1.0, 0.0], [math.nan, 1.0]]):
            assert assert_matches_reference(bad, bad) == "triangle"
