"""The batched mesh layer against a scalar reference, one face or edge at a time.

`ScalarMesh` is the mesh layer as it was first written: a dict of edges in
face order, a Python loop for the signed volume, one cross product per face
normal and a scan of every face for a vertex star.  `reference_edge_report`
is the edge loop of the dihedral audit on top of it.  The batched `PolyMesh`
and `mesh_edge_dilatation_bound` must give the same documents exactly (==,
not approx), the link functions the same values, and both the same errors.

`first_link_volume` and `first_exterior_angle` are the link code as first
written, a scalar turning loop that guessed the link's orientation from the
signs of its turn determinants.  That guess was right at convex and flat
corners only, so the library must equal it bit for bit there; at every
corner the exact volume must match the Van Oosterom-Strackee oracle, and
the dual must raise at every corner that is not convex.
"""

import math
from functools import cached_property

import numpy as np
import pytest

from plembed import (
    MeshError,
    PolyMesh,
    mesh_edge_dilatation_bound,
    normalized_exterior_angle,
    normalized_link_volume,
    normalized_link_volume_mc,
)
from plembed.qcbounds import EdgeAngleReport, EdgeRecord

from conftest import link_cycle, solid_angle_oracle

LINK_FUNCTIONS = (
    normalized_link_volume,
    lambda m, v: normalized_link_volume_mc(m, v, samples=600, seed=v).to_dict(),
    normalized_exterior_angle,
)


def scalar_validation_error(v, f):
    """The message of the first bad face, checked one face at a time, or None."""
    scale = float(np.abs(v).max())
    for k, (a, b, c) in enumerate(f):
        if len({int(a), int(b), int(c)}) != 3:
            return f"face {k} repeats a vertex"
        area = 0.5 * np.linalg.norm(np.cross(v[b] - v[a], v[c] - v[a]))
        if area <= 1e-14 * scale * scale:
            return f"face {k} is degenerate (zero area)"
    return None


class ScalarMesh:
    """Scalar reference for the PolyMesh queries the qcbounds routines make."""

    def __init__(self, vertices, faces):
        self.vertices = np.asarray(vertices, dtype=float)
        self.faces = np.asarray(faces, dtype=int)
        self.edge_faces = {}
        for k, face in enumerate(self.faces):
            for t in range(3):
                a, b = int(face[t]), int(face[(t + 1) % 3])
                self.edge_faces.setdefault((min(a, b), max(a, b)), []).append((k, (a, b)))

    def require_closed_manifold(self):
        for edge, incident in self.edge_faces.items():
            if len(incident) != 2:
                raise MeshError(f"edge {edge} borders {len(incident)} faces; need a closed manifold")
            (_, d1), (_, d2) = incident
            if d1 == d2:
                raise MeshError(f"edge {edge} traversed twice in the same direction; inconsistent orientation")

    def signed_volume(self):
        v = self.vertices
        total = 0.0
        for a, b, c in self.faces:
            total += float(np.dot(v[a], np.cross(v[b], v[c])))
        return total / 6.0

    def oriented_outward(self):
        return self._outward

    @cached_property
    def _outward(self):
        # kept so the sweep does not redo the scalar loops on every query
        self.require_closed_manifold()
        if self.signed_volume() >= 0.0:
            return self
        return ScalarMesh(self.vertices, self.faces[:, ::-1])

    def face_normal(self, k):
        a, b, c = self.faces[k]
        n = np.cross(self.vertices[b] - self.vertices[a], self.vertices[c] - self.vertices[a])
        return n / np.linalg.norm(n)

    @cached_property
    def face_normals(self):
        return np.array([self.face_normal(k) for k in range(len(self.faces))])

    def vertex_faces(self, v):
        return [k for k, f in enumerate(self._face_lists) if v in f]

    @cached_property
    def _face_lists(self):
        return self.faces.tolist()


def reference_edge_report(mesh: ScalarMesh) -> EdgeAngleReport:
    m = mesh.oriented_outward()
    v = m.vertices
    records, reflex, warnings = [], [], []
    bound = 1.0
    for edge in sorted(m.edge_faces):
        (f1, d1), (f2, d2) = m.edge_faces[edge]
        if d1[0] != edge[0]:
            (f1, d1), (f2, d2) = (f2, d2), (f1, d1)
        a, b = d1
        ehat = v[b] - v[a]
        ehat = ehat / np.linalg.norm(ehat)
        n1, n2 = m.face_normal(f1), m.face_normal(f2)
        angle = math.pi - math.atan2(float(np.dot(np.cross(n1, n2), ehat)), float(np.dot(n1, n2)))
        if angle <= math.pi * (1.0 + 1e-12):
            if angle < 1e-6:
                warnings.append(
                    f"edge {edge}: interior angle {angle:.3e} below 1e-06; "
                    "contribution is ill-conditioned"
                )
            bound = max(bound, math.pi / angle)
            records.append(EdgeRecord(edge, angle, True, math.pi / angle))
        else:
            reflex.append(edge)
            records.append(EdgeRecord(edge, angle, False, None))
    return EdgeAngleReport(tuple(records), bound, tuple(reflex), tuple(warnings))


def icosphere(level: int):
    """Outward icosahedron on the unit sphere, each level splitting a triangle in four."""
    p = (1.0 + math.sqrt(5.0)) / 2.0
    verts = [(-1, p, 0), (1, p, 0), (-1, -p, 0), (1, -p, 0), (0, -1, p), (0, 1, p),
             (0, -1, -p), (0, 1, -p), (p, 0, -1), (p, 0, 1), (-p, 0, -1), (-p, 0, 1)]
    faces = [(0, 11, 5), (0, 5, 1), (0, 1, 7), (0, 7, 10), (0, 10, 11), (1, 5, 9), (5, 11, 4),
             (11, 10, 2), (10, 7, 6), (7, 1, 8), (3, 9, 4), (3, 4, 2), (3, 2, 6), (3, 6, 8),
             (3, 8, 9), (4, 9, 5), (2, 4, 11), (6, 2, 10), (8, 6, 7), (9, 8, 1)]
    verts = [np.array(x, dtype=float) / np.linalg.norm(x) for x in verts]
    for _ in range(level):
        mid = {}

        def midpoint(a, b):
            key = (min(a, b), max(a, b))
            if key not in mid:
                x = verts[a] + verts[b]
                verts.append(x / np.linalg.norm(x))
                mid[key] = len(verts) - 1
            return mid[key]

        nxt = []
        for a, b, c in faces:
            ab, bc, ca = midpoint(a, b), midpoint(b, c), midpoint(c, a)
            nxt += [(a, ab, ca), (b, bc, ab), (c, ca, bc), (ab, bc, ca)]
        faces = nxt
    return np.array(verts), np.array(faces)


def jittered_icosphere(level: int, seed: int):
    """Icosphere with a 5 % radial jitter, so a good share of its edges are reflex."""
    v, f = icosphere(level)
    rng = np.random.default_rng(seed)
    return v * (1.0 + rng.uniform(-0.05, 0.05, size=(len(v), 1))), f


SWEEP = [(level, seed) for level in (1, 2, 3) for seed in (11, 12)]


def _both_orientations(level, seed):
    v, f = jittered_icosphere(level, seed)
    return [(v, f), (v, f[:, ::-1].copy())]


def dented_icosphere(level: int, seed: int, count: int = 3, depth: float = 0.15):
    """Icosphere with up to `count` vertices of disjoint closed stars pushed radially inward.

    Each dent is a reflex corner ringed by saddles.
    """
    v, f = icosphere(level)
    nbrs = [set() for _ in v]
    for a, b, c in f.tolist():
        nbrs[a] |= {b, c}
        nbrs[b] |= {a, c}
        nbrs[c] |= {a, b}
    blocked, chosen = set(), []
    for i in np.random.default_rng(seed).permutation(len(v)).tolist():
        if i not in blocked and len(chosen) < count:
            chosen.append(i)
            blocked |= nbrs[i].union(*(nbrs[j] for j in nbrs[i]))
    v[chosen] *= 1.0 - depth
    return v, f


def _swept_meshes(level, seed):
    """Jittered and dented icospheres, each in both orientations."""
    v, f = dented_icosphere(level, seed)
    return _both_orientations(level, seed) + [(v, f), (v, f[:, ::-1].copy())]


def corner_kinds(ref: ScalarMesh) -> list[str]:
    """convex (flat included), reflex or saddle per vertex, from the convexity of its edges."""
    reflex = set(reference_edge_report(ref).reflex)
    has = [[False, False] for _ in ref.vertices]  # [a convex edge, a reflex edge]
    for a, b in ref.edge_faces:
        r = (a, b) in reflex
        has[a][r] = has[b][r] = True
    return ["saddle" if c and r else "reflex" if r else "convex" for c, r in has]


def _first_dedupe(units):
    keep = []
    for u in units:
        if not keep or np.linalg.norm(u - keep[-1]) > 1e-12:
            keep.append(u)
    while len(keep) > 1 and np.linalg.norm(keep[0] - keep[-1]) <= 1e-12:
        keep.pop()
    return np.array(keep)


def _first_area(units):
    """Spherical excess by the first turning loop, which flips a clockwise polygon."""
    k = len(units)
    if k < 3:
        return 0.0
    dets = [float(np.dot(np.cross(units[i - 1], units[i]), units[(i + 1) % k])) for i in range(k)]
    if max(dets) > 1e-9 and min(dets) < -1e-9:
        raise MeshError("vertex neighbourhood is not a convex solid corner")
    if min(dets) < -1e-9:
        units = units[::-1]
    turning = 0.0
    for i in range(k):
        prev, cur, nxt = units[i - 1], units[i], units[(i + 1) % k]
        arrive = float(np.dot(cur, prev)) * cur - prev
        depart = nxt - float(np.dot(cur, nxt)) * cur
        na, nd = np.linalg.norm(arrive), np.linalg.norm(depart)
        if na < 1e-12 or nd < 1e-12:
            raise MeshError("degenerate link arc (parallel consecutive directions)")
        arrive /= na
        depart /= nd
        turning += math.atan2(float(np.dot(np.cross(arrive, depart), cur)), float(np.dot(arrive, depart)))
    return 2.0 * math.pi - turning


def _first_link(ref: ScalarMesh, vi: int):
    """Outward mesh, link cycle of vi from its smallest vertex, and the face after each link vertex."""
    m = ref.oriented_outward()
    fan = {}
    for k in m.vertex_faces(vi):
        face = m.faces[k].tolist()
        fan[face[(face.index(vi) + 1) % 3]] = k
    cycle = link_cycle(m.faces, vi)
    return m, cycle, [fan[a] for a in cycle]


def first_link_volume(ref: ScalarMesh, vi: int) -> float:
    m, cycle, _ = _first_link(ref, vi)
    dirs = m.vertices[cycle] - m.vertices[vi]
    return _first_area(_first_dedupe(dirs / np.linalg.norm(dirs, axis=1, keepdims=True))) / (4.0 * math.pi)


def first_exterior_angle(ref: ScalarMesh, vi: int) -> float:
    m, _, fan = _first_link(ref, vi)
    normals = _first_dedupe(m.face_normals[fan])
    return 0.0 if len(normals) < 3 else _first_area(normals) / (4.0 * math.pi)


def _outcome(fn, *args):
    try:
        return fn(*args)
    except MeshError as e:
        return f"MeshError: {e}"


class TestEdgeAuditOracle:
    @pytest.mark.parametrize("level,seed", SWEEP)
    def test_report_equals_scalar_loop(self, level, seed):
        for v, f in _both_orientations(level, seed):
            got = mesh_edge_dilatation_bound(PolyMesh(v, f))
            want = reference_edge_report(ScalarMesh(v, f))
            assert got.to_dict() == want.to_dict()
            assert got.table() == want.table()
            assert got.reflex or level == 1  # the jitter makes reflex edges on finer spheres

    @pytest.mark.parametrize("level,seed", SWEEP)
    def test_signed_volume(self, level, seed):
        # one pairwise sum instead of a running total: equal to rounding
        for v, f in _both_orientations(level, seed):
            want = ScalarMesh(v, f).signed_volume()
            assert PolyMesh(v, f).signed_volume() == pytest.approx(want, rel=1e-13)

    def test_tiny_angle_warnings(self):
        # a sliver tetrahedron: the three edges of its base are nearly flat-folded
        v = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [1 / 3, 1 / 3, 1e-8]])
        f = np.array([[0, 2, 1], [0, 1, 3], [1, 2, 3], [0, 3, 2]])
        got = mesh_edge_dilatation_bound(PolyMesh(v, f))
        assert len(got.warnings) == 3
        assert got.to_dict() == reference_edge_report(ScalarMesh(v, f)).to_dict()


class TestLinkOracle:
    @pytest.mark.parametrize("level,seed", [(1, 11), (2, 12), (3, 11)])
    def test_every_vertex(self, level, seed):
        for v, f in _both_orientations(level, seed):
            mesh, ref = PolyMesh(v, f), ScalarMesh(v, f)
            convex = 0
            for fn in LINK_FUNCTIONS:
                for vi in range(len(v)):
                    got = _outcome(fn, mesh, vi)
                    assert got == _outcome(fn, ref, vi), (fn, vi)
                    convex += not isinstance(got, str)
            assert convex > len(v)  # many corners are convex


class TestLinkAtEveryCorner:
    @pytest.mark.parametrize("level,seed", SWEEP)
    def test_exact_matches_solid_angle_oracle(self, level, seed):
        kinds = set()
        for v, f in _swept_meshes(level, seed):
            mesh, ref = PolyMesh(v, f), ScalarMesh(v, f)
            outward = ref.oriented_outward().faces
            for vi in range(len(v)):
                assert abs(normalized_link_volume(mesh, vi) - solid_angle_oracle(v, outward, vi)) <= 1e-12
            kinds |= set(corner_kinds(ref))
        assert kinds == {"convex", "reflex", "saddle"}

    @pytest.mark.parametrize("level,seed", SWEEP)
    def test_convex_equal_first_loop_and_dual_raises_elsewhere(self, level, seed):
        for v, f in _swept_meshes(level, seed):
            mesh, ref = PolyMesh(v, f), ScalarMesh(v, f)
            for vi, kind in enumerate(corner_kinds(ref)):
                if kind == "convex":
                    assert normalized_link_volume(mesh, vi) == first_link_volume(ref, vi)
                    assert normalized_exterior_angle(mesh, vi) == first_exterior_angle(ref, vi)
                else:
                    with pytest.raises(MeshError, match=rf"^vertex {vi}: not a convex corner"):
                        normalized_exterior_angle(mesh, vi)

    def test_fixtures_equal_first_loop(self, cube_mesh, tetra_mesh, flat_patch_mesh):
        for mesh in (cube_mesh, tetra_mesh, flat_patch_mesh):
            for flip in (False, True):
                faces = mesh.faces[:, ::-1] if flip else mesh.faces
                got, ref = PolyMesh(mesh.vertices, faces), ScalarMesh(mesh.vertices, faces)
                for vi in range(len(mesh.vertices)):
                    assert normalized_link_volume(got, vi) == first_link_volume(ref, vi)
                    assert normalized_exterior_angle(got, vi) == first_exterior_angle(ref, vi)


class TestErrorOracle:
    """Random defects: the batched checks name the same face or edge as the scalar loops."""

    def test_manifold_errors(self):
        rng = np.random.default_rng(31)
        v, f = jittered_icosphere(1, 31)
        seen = set()
        for _ in range(200):
            g = f.copy()
            flip = rng.random(len(g)) < rng.choice([0.0, 0.05])
            g[flip] = g[flip][:, ::-1]
            g = g[rng.random(len(g)) >= rng.choice([0.0, 0.05])]
            if rng.random() < 0.3:
                g = np.vstack([g, g[rng.integers(len(g))]])
            g = g[rng.permutation(len(g))]
            want = _outcome(ScalarMesh(v, g).require_closed_manifold)
            assert _outcome(PolyMesh(v, g).require_closed_manifold) == want
            seen.add(want.split(";")[-1] if want else None)
        assert len(seen) == 3  # open, same-direction and clean meshes all occur

    def test_validation_errors(self):
        rng = np.random.default_rng(32)
        v = rng.normal(size=(8, 3))
        v[7] = 0.5 * (v[0] + v[1])  # collinear with vertices 0 and 1
        for _ in range(200):
            f = rng.integers(0, 8, size=(int(rng.integers(1, 12)), 3))
            want = scalar_validation_error(v, f)
            got = _outcome(PolyMesh, v, f)
            if want:
                assert got == f"MeshError: {want}"
            else:
                assert isinstance(got, PolyMesh)


class TestCache:
    def test_results_do_not_depend_on_query_order(self):
        v, f = jittered_icosphere(2, 13)
        vertices = range(0, len(v), 7)
        fresh = [[_outcome(fn, PolyMesh(v, f), vi) for vi in vertices] for fn in LINK_FUNCTIONS]
        fresh_report = mesh_edge_dilatation_bound(PolyMesh(v, f)).to_dict()
        mesh = PolyMesh(v, f)
        for _ in range(2):
            for fn, want in reversed(list(zip(LINK_FUNCTIONS, fresh))):
                assert [_outcome(fn, mesh, vi) for vi in vertices] == want
            assert mesh_edge_dilatation_bound(mesh).to_dict() == fresh_report

    def test_oriented_outward_idempotent(self):
        v, f = jittered_icosphere(2, 14)
        outward = PolyMesh(v, f)
        assert outward.oriented_outward() is outward
        inward = PolyMesh(v, f[:, ::-1])
        flipped = inward.oriented_outward()
        assert flipped is not inward
        assert inward.oriented_outward() is flipped
        assert flipped.oriented_outward() is flipped
        assert np.array_equal(flipped.faces, f)
        assert flipped.signed_volume() > 0.0 > inward.signed_volume()

    def test_cached_arrays_are_read_only(self, tetra_mesh):
        with pytest.raises(ValueError):
            tetra_mesh.face_normals[0][0] = 1.0
