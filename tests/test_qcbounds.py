import math
import re

import numpy as np
import pytest

from plembed import (
    DihedralWedgeSpec,
    DomainError,
    MeshError,
    PolyMesh,
    convex_face_count_bound,
    dihedral_wedge_coefficients,
    mesh_edge_dilatation_bound,
    normalized_exterior_angle,
    normalized_link_volume,
    normalized_link_volume_mc,
    uniform_index_bound,
    vertex_contraction,
)

from conftest import folding_dilatation, polar_jacobian, random_rotation, solid_angle_oracle

FOUR_PI = 4.0 * math.pi


def wedge(n, k, *angles):
    return dihedral_wedge_coefficients(DihedralWedgeSpec(n, k, tuple(angles)))


class TestDihedralWedge:
    # classical 3-dimensional wedges over an edge: inner dilatation pi/alpha.
    # every value below is exact in IEEE double arithmetic.
    CLASSICAL = [
        (math.pi / 6.0, 6.0),
        (math.pi / 4.0, 4.0),
        (math.pi / 3.0, 3.0),
        (math.pi / 2.0, 2.0),
        (2.0 * math.pi / 3.0, 1.5),
        (math.pi, 1.0),
    ]

    @pytest.mark.parametrize("alpha,expect", CLASSICAL)
    def test_classical_table_bit_exact(self, alpha, expect):
        b = wedge(3, 1, alpha)
        assert b.inner == expect
        assert b.maximal == expect
        assert b.outer_lower == expect ** 0.5

    def test_right_angle_codim_one_in_dim_four(self):
        b = wedge(4, 1, math.pi / 2.0, math.pi / 2.0)
        assert b.inner == 4.0
        assert b.outer_lower == 4.0 ** (1.0 / 3.0)

    def test_top_wedge_type_single_angle(self):
        # k = n - 2 always carries exactly one angle, for any n
        for n in (3, 4, 5, 7):
            b = wedge(n, n - 2, math.pi / 2.0)
            assert b.inner == 2.0
            assert b.outer_lower == pytest.approx(2.0 ** (1.0 / (n - 1)), rel=1e-15)

    def test_halfspace_is_trivial(self):
        assert wedge(3, 1, math.pi).inner == 1.0

    def test_dimension_guard(self):
        with pytest.raises(DomainError):
            DihedralWedgeSpec(1, 1, ())

    def test_wedge_type_guards(self):
        with pytest.raises(DomainError):
            DihedralWedgeSpec(3, 0, (1.0, 1.0))
        with pytest.raises(DomainError):
            DihedralWedgeSpec(3, 2, ())
        with pytest.raises(DomainError):
            DihedralWedgeSpec(2, 1, ())  # nothing fits in dimension 2

    def test_angle_count_guard(self):
        with pytest.raises(DomainError):
            DihedralWedgeSpec(4, 1, (1.0,))

    def test_angle_range_guards(self):
        with pytest.raises(DomainError):
            DihedralWedgeSpec(3, 1, (0.0,))
        with pytest.raises(DomainError):
            DihedralWedgeSpec(3, 1, (math.pi * 1.0001,))
        with pytest.raises(DomainError):
            DihedralWedgeSpec(3, 1, (-0.5,))

    def test_dimension_past_the_float_range(self):
        # 1 / (n - 1) of an integer n too large for a float; 10**300 still converts
        assert wedge(10**300, 10**300 - 2, 1.0).outer_lower == math.pi ** (1.0 / 1e300)
        with pytest.raises(DomainError, match=re.escape(f"dimension {10**400} is out of the float range")):
            wedge(10**400, 10**400 - 2, 1.0)

    def test_to_dict(self):
        d = wedge(3, 1, math.pi / 2.0).to_dict()
        assert d == {"inner": 2.0, "outer_lower": 2.0 ** 0.5, "maximal": 2.0}


class TestFaceCountBound:
    def test_tetrahedron_count(self):
        assert convex_face_count_bound(4, 3).inner == 3.0

    def test_hexahedron_count(self):
        assert convex_face_count_bound(6, 3).inner == 5.0 / 3.0

    def test_many_faces_tends_to_one(self):
        vals = [convex_face_count_bound(m, 3).inner for m in (4, 6, 10, 100, 10_000)]
        assert vals == sorted(vals, reverse=True)
        assert vals[-1] == pytest.approx(1.0, abs=3e-4)

    def test_guards(self):
        with pytest.raises(DomainError):
            convex_face_count_bound(3, 3)
        with pytest.raises(DomainError):
            convex_face_count_bound(4, 1)

    def test_dimension_past_the_float_range(self):
        with pytest.raises(DomainError, match=re.escape(f"dimension {10**400} is out of the float range")):
            convex_face_count_bound(10**401 + 5, 10**400)


class TestIndexBound:
    def test_dim3_values(self):
        assert uniform_index_bound(3, 2.0) == 18.0
        assert uniform_index_bound(3, 1.0) == 9.0

    def test_dim4(self):
        assert uniform_index_bound(4, 1.5) == 64.0 * 1.5

    def test_guards(self):
        with pytest.raises(DomainError):
            uniform_index_bound(2, 2.0)
        with pytest.raises(DomainError):
            uniform_index_bound(3, 0.5)

    def test_nan_inner_rejected(self):
        with pytest.raises(DomainError):
            uniform_index_bound(3, math.nan)

    @pytest.mark.parametrize("n", [3, 50, 142, 143])
    def test_power_keeps_its_bits(self, n):
        # 143**142 is about 1.2e306, the largest power below 2**1024
        assert uniform_index_bound(n, 1.0) == float(n ** (n - 1))

    @pytest.mark.parametrize("n,inner", [(143, 1e3), (144, 1.0), (10**6, 1.0), (10**400, 1.0)])
    def test_out_of_the_float_range(self, n, inner):
        # past (n - 1) * log2(n) > 1024 the power is not built, so 10**400 returns at once
        with pytest.raises(DomainError, match=re.escape(f"index bound {n}**{n - 1} * {inner!r} is out of the float range")):
            uniform_index_bound(n, inner)


class TestFoldingDilatation:
    def test_symmetrized(self):
        assert folding_dilatation(math.pi, 2.0 * math.pi) == 2.0
        assert folding_dilatation(2.0 * math.pi, math.pi) == 2.0

    def test_identity(self):
        assert folding_dilatation(1.3, 1.3) == 1.0

    def test_guards(self):
        with pytest.raises(DomainError):
            folding_dilatation(0.0, 1.0)
        with pytest.raises(DomainError):
            folding_dilatation(1.0, -2.0)

    @pytest.mark.parametrize("theta", [7.0, 3.0 * math.pi, 5.0 * math.pi])
    def test_oracle_of_vertex_contraction(self, theta):
        # radii keep their length and angles scale by 2*pi/theta: singular values 1 and 2*pi/theta
        for rho, phi in ((0.3, 0.2 * theta), (1.0, 0.5 * theta), (0.7, 0.8 * theta)):
            s = np.linalg.svd(polar_jacobian(lambda r, p: vertex_contraction(theta, r, p), rho, phi), compute_uv=False)
            assert s[0] / s[1] == pytest.approx(folding_dilatation(theta, 2.0 * math.pi), rel=1e-6)


class TestMeshEdgeAudit:
    def test_cube_bound_exact(self, cube_mesh):
        rep = mesh_edge_dilatation_bound(cube_mesh)
        assert rep.bound == 2.0
        assert rep.convex.all()
        assert rep.warnings == ()
        # 12 true cube edges at pi/2 plus 6 triangulation diagonals at pi
        contribs = sorted((math.pi / rep.angles).tolist())
        assert len(contribs) == 18
        assert contribs[:6] == pytest.approx([1.0] * 6, abs=1e-12)
        assert contribs[6:] == pytest.approx([2.0] * 12, abs=1e-12)

    def test_tetra_bound(self, tetra_mesh):
        rep = mesh_edge_dilatation_bound(tetra_mesh)
        # all six edges carry the regular-tetrahedron dihedral acos(1/3)
        expect = math.pi / math.acos(1.0 / 3.0)
        assert rep.bound == pytest.approx(expect, rel=1e-13)
        assert rep.bound == pytest.approx(2.55214965605977, rel=1e-12)
        assert len(rep.edges) == 6
        for angle in rep.angles.tolist():
            assert angle == pytest.approx(math.acos(1.0 / 3.0), rel=1e-13)

    def test_orientation_flip_invariant(self, cube_mesh):
        flipped = PolyMesh(cube_mesh.vertices, cube_mesh.faces[:, ::-1])
        a = mesh_edge_dilatation_bound(cube_mesh)
        b = mesh_edge_dilatation_bound(flipped)
        assert a.bound == b.bound
        assert a.angles.tolist() == pytest.approx(b.angles.tolist(), rel=1e-13)

    def test_rigid_motion_invariant(self, cube_mesh):
        rng = np.random.default_rng(11)
        for _ in range(5):
            q = random_rotation(rng)
            shift = rng.normal(size=3)
            moved = PolyMesh(cube_mesh.vertices @ q.T + shift, cube_mesh.faces)
            rep = mesh_edge_dilatation_bound(moved)
            assert rep.bound == pytest.approx(2.0, abs=1e-9)

    def test_flat_patch_diagonals_do_not_raise_bound(self, flat_patch_mesh):
        rep = mesh_edge_dilatation_bound(flat_patch_mesh)
        assert rep.bound == pytest.approx(2.0, abs=1e-9)

    def test_thin_sliver_warns(self):
        v = np.array([[0.0, 0, 0], [1.0, 0, 0], [0.0, 1, 0], [0.3, 0.3, 1e-8]])
        f = np.array([[0, 2, 1], [0, 1, 3], [1, 2, 3], [2, 0, 3]])
        rep = mesh_edge_dilatation_bound(PolyMesh(v, f))
        assert rep.warnings
        assert rep.bound > 1e6

    def test_table_renders(self, cube_mesh):
        text = mesh_edge_dilatation_bound(cube_mesh).table()
        assert "bound: 2" in text
        assert "edge" in text.splitlines()[0]

    def test_open_mesh_rejected(self):
        m = PolyMesh(np.eye(3), np.array([[0, 1, 2]]))
        with pytest.raises(MeshError):
            mesh_edge_dilatation_bound(m)

    def test_faces_folded_onto_each_other_rejected(self):
        # one triangle on both sides: a closed manifold whose edges have interior angle 0 (pi / 0 has no value)
        m = PolyMesh(np.eye(3), np.array([[0, 1, 2], [0, 2, 1]]))
        with pytest.raises(MeshError, match=r"^edge \(0, 1\): interior angle 0; its two faces fold onto each other$"):
            mesh_edge_dilatation_bound(m)


def _convex_cone_mesh(rng):
    """Closed bipyramid whose apex (vertex 0) is a random convex solid corner.

    The ring lies on the unit sphere above the apex, and the closing vertex
    beyond it, along the ring's mean direction.
    """
    while True:
        k = int(rng.integers(3, 9))
        th = np.sort(rng.uniform(0.0, 2.0 * math.pi, size=k))
        if np.min(np.diff(th, append=th[0] + 2.0 * math.pi)) < 0.15:
            continue
        a, b = rng.uniform(0.3, 1.5, size=2)
        dx, dy = rng.uniform(-0.3, 0.3, size=2)
        ring = np.stack([a * np.cos(th) + dx, b * np.sin(th) + dy, np.ones(k)], axis=1)
        ring /= np.linalg.norm(ring, axis=1, keepdims=True)
        cap = ring.mean(axis=0)
        verts = np.vstack([[0.0, 0.0, 0.0], ring, 3.0 * cap / np.linalg.norm(cap)])
        faces = []
        for i in range(k):
            faces.append([0, 1 + i, 1 + (i + 1) % k])
            faces.append([k + 1, 1 + (i + 1) % k, 1 + i])
        return PolyMesh(verts, np.array(faces)), ring


def _solid_angle_fraction(units):
    """Independent oracle: Van Oosterom-Strackee tangent formula over a fan."""
    total = 0.0
    u0 = units[0]
    for i in range(1, len(units) - 1):
        b, c = units[i], units[i + 1]
        num = abs(float(np.dot(u0, np.cross(b, c))))
        den = 1.0 + float(np.dot(u0, b)) + float(np.dot(u0, c)) + float(np.dot(b, c))
        total += 2.0 * math.atan2(num, den)
    return total / FOUR_PI


class TestLinkVolume:
    def test_cube_corners_exact(self, cube_mesh):
        for v in range(8):
            assert abs(normalized_link_volume(cube_mesh, v) - 0.125) <= 1e-14

    def test_tetra_corner(self, tetra_mesh):
        # the regular-tetrahedron corner subtends acos(23/27) steradians
        expect = math.acos(23.0 / 27.0) / FOUR_PI
        for v in range(4):
            assert normalized_link_volume(tetra_mesh, v) == pytest.approx(expect, abs=1e-14)

    def test_flat_patch_vertex_is_half(self, flat_patch_mesh):
        assert normalized_link_volume(flat_patch_mesh, 8) == 0.5

    def test_matches_tangent_formula_oracle(self):
        rng = np.random.default_rng(3)
        for _ in range(25):
            mesh, ring = _convex_cone_mesh(rng)
            got = normalized_link_volume(mesh, 0)
            assert got == pytest.approx(_solid_angle_fraction(ring), abs=1e-12)
            assert got == pytest.approx(solid_angle_oracle(mesh.vertices, mesh.oriented_outward().faces, 0), abs=1e-12)

    def test_rigid_motion_invariant(self, cube_mesh):
        rng = np.random.default_rng(5)
        for _ in range(5):
            q = random_rotation(rng)
            moved = PolyMesh(cube_mesh.vertices @ q.T + rng.normal(size=3), cube_mesh.faces)
            assert normalized_link_volume(moved, 0) == pytest.approx(0.125, abs=1e-12)

    def test_orientation_flip_invariant(self, tetra_mesh):
        flipped = PolyMesh(tetra_mesh.vertices, tetra_mesh.faces[:, ::-1])
        assert normalized_link_volume(flipped, 1) == pytest.approx(
            normalized_link_volume(tetra_mesh, 1), abs=1e-15
        )

    def test_concave_corner_matches_oracle(self, cube_mesh):
        vv = cube_mesh.vertices.copy()
        vv[6] = [0.2, 0.2, 0.2]  # pull a corner inside the cube
        mesh = PolyMesh(vv, cube_mesh.faces)
        for v in range(8):
            want = solid_angle_oracle(vv, mesh.oriented_outward().faces, v)
            assert abs(normalized_link_volume(mesh, v) - want) <= 1e-12

    def test_dented_octahedron(self, dented_octa_mesh):
        v, f = dented_octa_mesh.vertices, dented_octa_mesh.faces
        for p, expect in ((4, 0.6781), (0, 0.03476), (5, 0.1082)):
            got = normalized_link_volume(dented_octa_mesh, p)
            assert abs(got - solid_angle_oracle(v, f, p)) <= 1e-12
            assert got == pytest.approx(expect, abs=5e-5)
        flipped = PolyMesh(v, f[:, ::-1])
        assert normalized_link_volume(flipped, 4) == normalized_link_volume(dented_octa_mesh, 4)


class TestExteriorAngle:
    def test_cube_duals(self, cube_mesh):
        for v in range(8):
            assert normalized_exterior_angle(cube_mesh, v) == pytest.approx(0.125, abs=1e-14)

    def test_tetra_duals(self, tetra_mesh):
        for v in range(4):
            assert normalized_exterior_angle(tetra_mesh, v) == pytest.approx(0.25, abs=1e-14)

    def test_gram_sum_is_one(self, cube_mesh, tetra_mesh):
        # exterior angles of a convex polytope tile the sphere of directions
        for mesh, n in ((cube_mesh, 8), (tetra_mesh, 4)):
            total = sum(normalized_exterior_angle(mesh, v) for v in range(n))
            assert total == pytest.approx(1.0, abs=1e-12)

    def test_flat_vertex_dual_degenerates(self, flat_patch_mesh):
        assert normalized_exterior_angle(flat_patch_mesh, 8) == 0.0

    def test_non_convex_corners_raise(self, dented_octa_mesh):
        # the reflex top (4) and its saddle neighbours (0-3) have no dual cone
        for v in range(5):
            with pytest.raises(MeshError, match=rf"^vertex {v}: not a convex corner"):
                normalized_exterior_angle(dented_octa_mesh, v)
        assert 0.0 < normalized_exterior_angle(dented_octa_mesh, 5) < 0.25

    def test_random_polytope_gram_sum(self):
        from scipy.spatial import ConvexHull

        rng = np.random.default_rng(19)
        pts = rng.normal(size=(12, 3))
        pts /= np.linalg.norm(pts, axis=1, keepdims=True)
        hull = ConvexHull(pts)
        faces = []
        for simplex, eq in zip(hull.simplices, hull.equations):
            a, b, c = simplex
            n = np.cross(pts[b] - pts[a], pts[c] - pts[a])
            faces.append(simplex if np.dot(n, eq[:3]) > 0 else simplex[::-1])
        mesh = PolyMesh(pts, np.array(faces))
        total = sum(normalized_exterior_angle(mesh, v) for v in range(12))
        assert total == pytest.approx(1.0, abs=1e-10)


class TestMonteCarlo:
    def test_cube_within_three_sigma(self, cube_mesh):
        est = normalized_link_volume_mc(cube_mesh, 0, samples=200_000, seed=42)
        assert est.stderr > 0.0
        assert abs(est.value - 0.125) <= 3.0 * est.stderr

    def test_tetra_within_three_sigma(self, tetra_mesh):
        expect = math.acos(23.0 / 27.0) / FOUR_PI
        est = normalized_link_volume_mc(tetra_mesh, 2, samples=100_000, seed=7)
        assert abs(est.value - expect) <= 3.0 * est.stderr

    def test_deterministic_for_fixed_seed(self, cube_mesh):
        a = normalized_link_volume_mc(cube_mesh, 3, samples=50_000, seed=9)
        b = normalized_link_volume_mc(cube_mesh, 3, samples=50_000, seed=9)
        assert (a.value, a.stderr) == (b.value, b.stderr)

    def test_seed_changes_stream(self, cube_mesh):
        a = normalized_link_volume_mc(cube_mesh, 3, samples=50_000, seed=9)
        b = normalized_link_volume_mc(cube_mesh, 3, samples=50_000, seed=10)
        assert a.value != b.value

    def test_chunking_does_not_change_result(self, cube_mesh):
        # three chunks (the last of 17 samples) against one draw of the same
        # stream, counted in one pass: a wrong Welford merge moves the stderr
        n, seed = 2 * 65536 + 17, 1
        est = normalized_link_volume_mc(cube_mesh, 0, samples=n, seed=seed)
        w = np.random.Generator(np.random.Philox(seed)).normal(size=(n, 3))
        w /= np.linalg.norm(w, axis=1, keepdims=True)
        normals = cube_mesh.oriented_outward().face_normals[cube_mesh.vertex_faces(0)]
        inside = np.all(w @ normals.T <= 0.0, axis=1)
        mean = float(np.mean(inside))
        stderr = math.sqrt(float(np.sum((inside - mean) ** 2)) / (n - 1) / n)
        assert est.value == pytest.approx(mean, rel=1e-13)
        assert est.stderr == pytest.approx(stderr, rel=1e-12)

    def test_sample_guard(self, cube_mesh):
        with pytest.raises(DomainError):
            normalized_link_volume_mc(cube_mesh, 0, samples=1)

    @pytest.mark.parametrize(
        "kwargs, message",
        [
            ({"samples": 1000.0}, "samples must be an integer, got 1000.0"),
            ({"samples": 2.5}, "samples must be an integer, got 2.5"),
            ({"samples": True}, "samples must be an integer, got True"),
            ({"samples": 1}, "need at least two samples"),
            ({"samples": -5}, "need at least two samples"),
            ({"seed": 1.5}, "seed must be a nonnegative integer, got 1.5"),
            ({"seed": -3}, "seed must be a nonnegative integer, got -3"),
            ({"seed": True}, "seed must be a nonnegative integer, got True"),
            ({"seed": "3"}, "seed must be a nonnegative integer, got '3'"),
        ],
    )
    def test_bad_arguments(self, cube_mesh, kwargs, message):
        with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
            normalized_link_volume_mc(cube_mesh, 0, **{"samples": 1_000, "seed": 0, **kwargs})

    def test_to_dict(self, cube_mesh):
        d = normalized_link_volume_mc(cube_mesh, 0, samples=1_000, seed=3).to_dict()
        assert d["samples"] == 1_000 and d["seed"] == 3


class TestBadVertex:
    @pytest.mark.parametrize("fn", [normalized_link_volume, normalized_link_volume_mc, normalized_exterior_angle])
    def test_out_of_range_vertex(self, tetra_mesh, fn):
        for v in (-1, -2, len(tetra_mesh.vertices)):
            with pytest.raises(MeshError, match=rf"^vertex {v} has no incident faces$"):
                fn(tetra_mesh, v)
