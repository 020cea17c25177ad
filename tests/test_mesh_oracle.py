"""The batched mesh layer against a scalar reference, one face or edge at a time.

`ScalarMesh` is the mesh layer as it was first written: a dict of edges in
face order, a Python loop for the signed volume, one cross product per face
normal and a scan of every face for a vertex star.  `reference_edge_report`
is the edge loop of the dihedral audit on top of it.  The batched `PolyMesh`
and `mesh_edge_dilatation_bound` must give the same documents exactly (==,
not approx), the link functions the same values, and both the same errors.

`scalar_link_volume` and `scalar_exterior_angle` are the link code one
vertex at a time: a dict walk for the link cycle, a dedupe loop and a
turning loop with one atan2 per link vertex.  The library computes every
vertex of a mesh in one pass, and must give the same bits (float.hex) or
the same MeshError text at every vertex.

`first_link_volume` and `first_exterior_angle` are the link code as first
written, a scalar turning loop that guessed the link's orientation from the
signs of its turn determinants.  That guess was right at convex and flat
corners only, so the library must equal it bit for bit there; at every
corner the exact volume must match the Van Oosterom-Strackee oracle, and
the dual must raise at every corner that is not convex.

`reference_count_mc` counts the Monte Carlo hits K of the same stream as
the estimator did before its chunk loop dropped the (samples x faces)
temporaries: `np.linalg.norm` for the normalisation and `np.all` over the
face products for the inside test.  The library's value and stderr must lie
within 1 ulp of the exact K/N and sqrt(K (N - K) / (N^2 (N - 1))).
"""

import math
import sys
from fractions import Fraction
from functools import cached_property
from pathlib import Path

import numpy as np
import pytest

from plembed import (
    MeshError,
    PolyMesh,
    mesh_edge_dilatation_bound,
    normalized_exterior_angle,
    normalized_link_volume,
    normalized_link_volume_mc,
    parse_off,
)
from plembed.mesh import rowdot
from plembed.qcbounds import (
    _DEGENERATE,
    _MESSAGES,
    _NO_FACES,
    _NOT_CONVEX,
    _SPLIT,
    MC_CHUNK,
    EdgeAngleReport,
    _dedupe,
    _link_cycles,
)

from conftest import (
    CUBE_FLAT_PATCH_OFF,
    CUBE_OFF,
    DENTED_OCTA_OFF,
    TETRA_OFF,
    link_cycle,
    solid_angle_oracle,
)

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))
import inputs  # noqa: E402  (the benchmark's seeded mesh generators)

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
    edges, angles, convex, warnings = [], [], [], []
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
        edges.append(edge)
        angles.append(angle)
        convex.append(angle <= math.pi * (1.0 + 1e-12))
        if convex[-1]:
            if angle < 1e-6:
                warnings.append(
                    f"edge {edge}: interior angle {angle:.3e} below 1e-06; "
                    "contribution is ill-conditioned"
                )
            bound = max(bound, math.pi / angle)
    edges = np.array(edges, dtype=int).reshape(-1, 2)
    return EdgeAngleReport(edges, np.array(angles), np.array(convex, dtype=bool), bound, tuple(warnings))


def reflex_edges(rep: EdgeAngleReport) -> set:
    return set(map(tuple, rep.edges[~rep.convex].tolist()))


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
    reflex = reflex_edges(reference_edge_report(ref))
    has = [[False, False] for _ in ref.vertices]  # [a convex edge, a reflex edge]
    for a, b in ref.edge_faces:
        r = (a, b) in reflex
        has[a][r] = has[b][r] = True
    return ["saddle" if c and r else "reflex" if r else "convex" for c, r in has]


def scalar_link_cycle(mesh, v: int) -> tuple[list[int], list[int]]:
    """Ordered cycle of link vertices around v, and the face of v, cycle[i], cycle[i + 1]."""
    succ, fan = {}, {}
    for k in mesh.vertex_faces(v):
        face = [int(x) for x in mesh.faces[k]]
        t = face.index(v)
        a, b = face[(t + 1) % 3], face[(t + 2) % 3]
        if a in succ:
            raise MeshError(f"vertex {v}: non-manifold star")
        succ[a], fan[a] = b, k
    if not succ:
        raise MeshError(f"vertex {v} has no incident faces")
    start = min(succ)
    cycle = [start]
    cur = succ[start]
    while cur != start:
        cycle.append(cur)
        if cur not in succ or len(cycle) > len(succ):
            raise MeshError(f"vertex {v}: star does not close into a cycle")
        cur = succ[cur]
    if len(cycle) != len(succ):
        raise MeshError(f"vertex {v}: star splits into several cycles")
    return cycle, [fan[a] for a in cycle]


def scalar_left_area(units: np.ndarray) -> float:
    """Area on the left of the closed spherical path through the rows of units, by one turning loop."""
    if len(units) < 3:
        return 0.0
    prev, nxt = np.roll(units, 1, axis=0), np.roll(units, -1, axis=0)
    arrive = rowdot(units, prev)[:, None] * units - prev
    depart = nxt - rowdot(units, nxt)[:, None] * units
    na, nd = np.sqrt(rowdot(arrive, arrive)), np.sqrt(rowdot(depart, depart))
    if min(na.min(), nd.min()) < 1e-12:
        raise MeshError("degenerate link arc (parallel consecutive directions)")
    arrive /= na[:, None]
    depart /= nd[:, None]
    sines = rowdot(np.cross(arrive, depart), units).tolist()
    turning = 0.0
    for sin, cos in zip(sines, rowdot(arrive, depart).tolist()):
        turning += math.atan2(sin, cos)
    return 2.0 * math.pi - turning


def scalar_dedupe(units: np.ndarray) -> np.ndarray:
    keep = []
    for u in units:
        if not keep or np.linalg.norm(u - keep[-1]) > 1e-12:
            keep.append(u)
    while len(keep) > 1 and np.linalg.norm(keep[0] - keep[-1]) <= 1e-12:
        keep.pop()
    return np.array(keep)


def _scalar_link(mesh, v: int):
    m = mesh.oriented_outward()
    cycle, fan = scalar_link_cycle(m, v)
    dirs = m.vertices[cycle] - m.vertices[v]
    return dirs / np.linalg.norm(dirs, axis=1, keepdims=True), m.face_normals[fan]


def scalar_link_volume(mesh, v: int) -> float:
    units, _ = _scalar_link(mesh, int(v))
    return scalar_left_area(scalar_dedupe(units)[::-1]) / (4.0 * math.pi)


def scalar_exterior_angle(mesh, v: int) -> float:
    units, normals = _scalar_link(mesh, int(v))
    if np.max(units @ normals.T) > 1e-9:
        raise MeshError(f"vertex {v}: not a convex corner; the dual cone exists only at convex corners")
    return scalar_left_area(scalar_dedupe(normals)) / (4.0 * math.pi)


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
    return _first_area(scalar_dedupe(dirs / np.linalg.norm(dirs, axis=1, keepdims=True))) / (4.0 * math.pi)


def first_exterior_angle(ref: ScalarMesh, vi: int) -> float:
    m, _, fan = _first_link(ref, vi)
    normals = scalar_dedupe(m.face_normals[fan])
    return 0.0 if len(normals) < 3 else _first_area(normals) / (4.0 * math.pi)


def _outcome(fn, *args):
    try:
        return fn(*args)
    except MeshError as e:
        return f"MeshError: {e}"


def _bits(fn, *args):
    """float.hex of the value, or the MeshError text."""
    got = _outcome(fn, *args)
    return got if isinstance(got, str) else float.hex(got)


def assert_same_corners(v, f):
    """Exact and dual at every vertex (and just outside the range) of a fresh mesh equal the scalar path."""
    ref = PolyMesh(v, f)
    for lib, scalar in ((normalized_link_volume, scalar_link_volume), (normalized_exterior_angle, scalar_exterior_angle)):
        mesh = PolyMesh(v, f)
        for vi in range(-2, len(v) + 2):
            assert _bits(lib, mesh, vi) == _bits(scalar, ref, vi), (lib.__name__, vi)


def link_query_mesh(seed: int):
    """The dented level-3 icosphere of the link-query benchmark workload at this seed, as loaded from OFF."""
    rng = np.random.default_rng([seed, sum(map(ord, "link-query"))])
    v, f = inputs.icosphere(3)
    v = inputs.dent(v, inputs.neighbours(len(v), inputs.mesh_edges(f)), 6, 0.15, rng)
    m = parse_off(inputs.off_text(v, f))
    return m.vertices, m.faces


class TestEdgeAuditOracle:
    @pytest.mark.parametrize("level,seed", SWEEP)
    def test_report_equals_scalar_loop(self, level, seed):
        for v, f in _both_orientations(level, seed):
            got = mesh_edge_dilatation_bound(PolyMesh(v, f))
            want = reference_edge_report(ScalarMesh(v, f))
            assert got.to_dict() == want.to_dict()
            assert got.table() == want.table()
            assert reflex_edges(got) or level == 1  # the jitter makes reflex edges on finer spheres

    @pytest.mark.parametrize("level,seed", SWEEP)
    def test_signed_volume(self, level, seed):
        # one pairwise sum instead of a running total: equal to rounding
        for v, f in _both_orientations(level, seed):
            want = ScalarMesh(v, f).signed_volume()
            assert PolyMesh(v, f).signed_volume() == pytest.approx(want, rel=1e-13)

    @pytest.mark.parametrize("dip", [1e-13, -1e-13, -1e-10])
    def test_nearly_straight_edge(self, dip):
        # a square pyramid whose base folds along its diagonal (0, 2) by about 1.4 * dip
        # radians: within STRAIGHT_TOL of pi either way it is convex, beyond it reflex
        v = np.array([[1, 1, 0], [-1, 1, dip], [-1, -1, 0], [1, -1, dip], [0, 0, 1.0]])
        f = np.array([[0, 1, 4], [1, 2, 4], [2, 3, 4], [3, 0, 4], [0, 2, 1], [0, 3, 2]])
        got = mesh_edge_dilatation_bound(PolyMesh(v, f))
        assert got.to_dict() == reference_edge_report(ScalarMesh(v, f)).to_dict()
        assert got.to_dict()["reflex"] == ([[0, 2]] if dip < -1e-12 else [])

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
        # the library on PolyMesh against the scalar link path on the scalar mesh layer
        pairs = tuple(zip(LINK_FUNCTIONS, (scalar_link_volume, LINK_FUNCTIONS[1], scalar_exterior_angle)))
        for v, f in _both_orientations(level, seed):
            mesh, ref = PolyMesh(v, f), ScalarMesh(v, f)
            convex = 0
            for fn, scalar in pairs:
                for vi in range(len(v)):
                    got = _outcome(fn, mesh, vi)
                    assert got == _outcome(scalar, ref, vi), (fn, vi)
                    convex += not isinstance(got, str)
            assert convex > len(v)  # many corners are convex


def two_tetrahedra_at_a_point():
    """Two tetrahedra sharing only vertex 0, a closed oriented manifold but for that pinched vertex."""
    a = np.array([[0.0, -2.0, -2.0], [-2.0, 0.0, -2.0], [-2.0, -2.0, 0.0]])
    v = np.vstack([np.zeros(3), a, -a])
    tetra = np.array([[0, 2, 1], [0, 1, 3], [0, 3, 2], [1, 2, 3]])
    # the point reflection reverses orientation, so the second copy's faces are reversed
    mirrored = np.where(tetra[:, ::-1] > 0, tetra[:, ::-1] + 3, 0)
    return v, np.vstack([tetra, mirrored])


def bipyramid_with_near_duplicates():
    """A bipyramid over a ring whose first three points lie 1e-12 apart in a row.

    Seen from the apex (vertex 0) or the bottom (vertex 7), consecutive link
    directions of the three are within DEDUPE_TOL of each other, and the
    third is farther than DEDUPE_TOL from the first.
    """
    ring = [(1.0, 0.0, -1.0), (1.0, 1e-12, -1.0), (1.0, 2e-12, -1.0), (0.0, 1.0, -1.0), (-1.0, 0.0, -1.0), (0.0, -1.0, -1.0)]
    v = np.array([(0.0, 0.0, 0.0), *ring, (0.0, 0.0, -2.0)])
    f = [(0, i, i % 6 + 1) for i in range(1, 7)] + [(7, i % 6 + 1, i) for i in range(1, 7)]
    return v, np.array(f)


class TestCornerPass:
    """Every vertex's exact and dual value, or its error, bit for bit against the scalar path."""

    def test_fixtures(self):
        for text in (CUBE_OFF, TETRA_OFF, CUBE_FLAT_PATCH_OFF, DENTED_OCTA_OFF):
            m = parse_off(text)
            for f in (m.faces, m.faces[:, ::-1].copy()):
                assert_same_corners(m.vertices, f)

    @pytest.mark.parametrize("level", [1, 2, 3, 4])
    def test_jittered_icospheres(self, level):
        for v, f in _both_orientations(level, 20 + level):
            assert_same_corners(v, f)

    @pytest.mark.parametrize("seed", [1, 2, 3, 4, 5])
    def test_link_query_meshes(self, seed):
        assert_same_corners(*link_query_mesh(seed))

    def test_pinched_vertex_splits(self):
        v, f = two_tetrahedra_at_a_point()
        assert_same_corners(v, f)
        mesh = PolyMesh(v, f)
        for fn in (normalized_link_volume, normalized_exterior_angle):
            with pytest.raises(MeshError, match=r"^vertex 0: star splits into several cycles$"):
                fn(mesh, 0)
            assert all(isinstance(fn(mesh, vi), float) for vi in range(1, len(v)))

    def test_three_near_duplicates_in_a_row(self):
        v, f = bipyramid_with_near_duplicates()
        units = (v[1:4] - v[0]) / np.linalg.norm(v[1:4] - v[0], axis=1, keepdims=True)
        gap = lambda i, j: np.linalg.norm(units[i] - units[j])  # noqa: E731
        assert gap(1, 0) <= 1e-12 and gap(2, 1) <= 1e-12 and gap(2, 0) > 1e-12
        assert_same_corners(v, f)
        assert_same_corners(v, f[:, ::-1].copy())
        # the middle one is dropped against the first, the third kept against the first
        assert _dedupe(units[None]).tolist() == [[True, False, True]]
        assert len(scalar_dedupe(units)) == 2

    def test_high_degree_apexes(self):
        # bipyramids over jittered rings of 9 to 24 points: sums of more than 8 turns, which a
        # pairwise sum would round differently
        rng = np.random.default_rng(35)
        for k in range(9, 25):
            t = np.sort(rng.uniform(0.0, 2.0 * math.pi, k))
            ring = np.c_[np.cos(t), np.sin(t), rng.uniform(-0.3, 0.3, k)]
            v = np.vstack([(0.0, 0.0, 1.0), ring, (0.0, 0.0, -1.0)])
            f = [(0, i, i % k + 1) for i in range(1, k + 1)] + [(k + 1, i % k + 1, i) for i in range(1, k + 1)]
            assert_same_corners(v, np.array(f))

    def test_folded_integer_octahedra(self):
        # octahedra on integer points fold and touch themselves: coplanar, repeated and antipodal
        # link directions and normals, degenerate arcs, and non-convex corners with a degenerate dual
        f = np.array([[0, 2, 4], [2, 1, 4], [1, 3, 4], [3, 0, 4], [2, 0, 5], [1, 2, 5], [3, 1, 5], [0, 3, 5]])
        rng = np.random.default_rng(36)
        both = 0
        for _ in range(300):
            v = rng.integers(-2, 3, size=(6, 3)).astype(float)
            try:
                ref = PolyMesh(v, f)
                ref.oriented_outward()
            except MeshError:
                continue
            assert_same_corners(v, f)
            for vi in range(6):
                nonconvex = False
                try:
                    units, normals = _scalar_link(ref, vi)
                    nonconvex = np.max(units @ normals.T) > 1e-9
                    scalar_left_area(scalar_dedupe(normals))
                except MeshError as e:
                    both += "degenerate" in str(e) and nonconvex
        assert both > 10

    def test_query_order(self):
        # exact then dual, and dual then exact, on fresh meshes
        v, f = link_query_mesh(1)
        ref = PolyMesh(v, f)
        pairs = ((normalized_link_volume, scalar_link_volume), (normalized_exterior_angle, scalar_exterior_angle))
        want = [[_bits(scalar, ref, vi) for vi in range(len(v))] for _, scalar in pairs]
        for order in ((0, 1), (1, 0)):
            mesh = PolyMesh(v, f)
            for i in order:
                assert [_bits(pairs[i][0], mesh, vi) for vi in range(len(v))] == want[i]

    def test_link_cycles_of_closed_meshes(self):
        # the cycle pass on meshes that pass require_closed_manifold: each vertex's cycle is the
        # scalar walk's, or the vertex has no faces or a split star; the table holds no other code
        rng = np.random.default_rng(33)
        octahedron = np.array([[0, 2, 4], [2, 1, 4], [1, 3, 4], [3, 0, 4], [2, 0, 5], [1, 2, 5], [3, 1, 5], [0, 3, 5]])
        meshes = [jittered_icosphere(level, 40 + level) for level in (0, 1, 2, 3)]
        meshes += [link_query_mesh(seed) for seed in (1, 2)]
        meshes += [two_tetrahedra_at_a_point(), bipyramid_with_near_duplicates()]
        meshes += [(rng.integers(-2, 3, size=(6, 3)).astype(float), octahedron) for _ in range(100)]
        seen = set()
        for v, f in meshes:
            v = np.vstack([v, rng.normal(size=(1, 3))])  # a last vertex in no face
            for g in (f, f[:, ::-1].copy()):
                try:
                    m = PolyMesh(v, g).oriented_outward()
                except MeshError:
                    continue  # a folded octahedron with a degenerate face
                link, fan, start, degree, code = _link_cycles(m.faces, len(v))
                for vi in range(len(v)):
                    rows = slice(start[vi], start[vi] + degree[vi])
                    try:
                        assert (link[rows].tolist(), fan[rows].tolist()) == scalar_link_cycle(m, vi)
                        assert code[vi] == 0
                    except MeshError as e:
                        assert str(e) == _MESSAGES[code[vi]].format(v=vi)
                for codes in (m._corners[0][1], m._corners[1][1]):
                    seen |= set(codes)
        assert seen == {0, _NO_FACES, _SPLIT, _DEGENERATE, _NOT_CONVEX}


def face_angle_defects(v: np.ndarray, f: np.ndarray) -> np.ndarray:
    """2*pi minus the sum of the face angles at each vertex, the angles from edge lengths alone."""
    defect = np.full(len(v), 2.0 * math.pi)
    for face in f.tolist():
        for t in range(3):
            p, q, r = face[t], face[(t + 1) % 3], face[(t + 2) % 3]
            a, b, c = (math.dist(v[p], v[q]), math.dist(v[p], v[r]), math.dist(v[q], v[r]))
            defect[p] -= math.acos((a * a + b * b - c * c) / (2.0 * a * b))
    return defect


class TestIntrinsicOracles:
    """The dual against angle defects, which share no code with the link path."""

    @pytest.mark.parametrize("seed", [11, 12])
    def test_vertex_gauss_bonnet(self, seed):
        # at a convex corner the Gauss image (the dual) has area equal to the angle defect
        v, f = jittered_icosphere(3, seed)
        defect = face_angle_defects(v, f)
        mesh = PolyMesh(v, f)
        convex = 0
        for vi in range(len(v)):
            got = _outcome(normalized_exterior_angle, mesh, vi)
            if not isinstance(got, str):
                assert abs(4.0 * math.pi * got - defect[vi]) <= 1e-12, vi
                convex += 1
        assert convex >= 20

    @pytest.mark.parametrize("level", [1, 2, 3, 4])
    def test_descartes(self, level):
        # the defects sum to 2*pi*chi = 4*pi, and the Gauss images of a convex polyhedron tile the sphere
        v, f = icosphere(level)
        defect = face_angle_defects(v, f)
        assert abs(math.fsum(defect) - 4.0 * math.pi) <= 1e-12
        mesh = PolyMesh(v, f)
        dual = [normalized_exterior_angle(mesh, vi) for vi in range(len(v))]
        assert abs(4.0 * math.pi * math.fsum(dual) - 4.0 * math.pi) <= 1e-12


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


def reference_count_mc(mesh: PolyMesh, v: int, samples: int, seed: int) -> int:
    """The Monte Carlo hits K, from a (samples x faces) product of normalised directions per chunk."""
    m = mesh.oriented_outward()
    normals = m.face_normals[m.vertex_faces(int(v))]
    gen = np.random.Generator(np.random.Philox(seed))
    count = 0
    for done in range(0, samples, MC_CHUNK):
        w = gen.normal(size=(min(MC_CHUNK, samples - done), 3))
        w /= np.linalg.norm(w, axis=1, keepdims=True)
        count += int(np.all(w @ normals.T <= 0.0, axis=1).sum())
    return count


def exact_sqrt(q: Fraction) -> Fraction:
    """sqrt(q) to 2**-300 relative, from integer square roots."""
    bits = 300 - (q.numerator.bit_length() - q.denominator.bit_length()) // 2
    return Fraction(math.isqrt(q.numerator * 4**bits // q.denominator), 2**bits)


def assert_same_estimates(mesh, vertices, samples, seed):
    """Value and stderr within 1 ulp of the exact mean and standard error of the reference's count."""
    for vi in vertices:
        got = normalized_link_volume_mc(mesh, vi, samples=samples, seed=seed + vi)
        k, n = reference_count_mc(mesh, vi, samples, seed + vi), samples
        for value, exact in ((got.value, Fraction(k, n)), (got.stderr, exact_sqrt(Fraction(k * (n - k), n * n * (n - 1))))):
            assert abs(Fraction(value) - exact) <= Fraction(math.ulp(float(exact))), (vi, samples, seed, k)


class TestMonteCarloOracle:
    """The estimator against the exact mean and standard error of its reference count on the same stream."""

    @pytest.mark.parametrize("samples", [2, 3, 600])
    def test_every_vertex_of_the_fixtures(self, samples):
        for seed, text in enumerate((CUBE_OFF, TETRA_OFF, CUBE_FLAT_PATCH_OFF, DENTED_OCTA_OFF)):
            m = parse_off(text)
            for f in (m.faces, m.faces[:, ::-1].copy()):
                assert_same_estimates(PolyMesh(m.vertices, f), range(len(m.vertices)), samples, 100 * seed)

    @pytest.mark.parametrize("level,seed", [(1, 11), (2, 12), (3, 11)])
    def test_every_vertex_of_the_swept_meshes(self, level, seed):
        for v, f in _swept_meshes(level, seed):
            mesh = PolyMesh(v, f)
            for samples in (2, 3, 600):
                assert_same_estimates(mesh, range(len(v)), samples, seed)

    @pytest.mark.parametrize("seed", [0, 7, 5001])
    def test_chunk_boundaries(self, seed):
        # one convex, reflex and saddle corner of a dented icosphere, and the degree-12 apex
        # of a bipyramid, at one sample short of, at and past a chunk, and past two chunks
        v, f = dented_icosphere(2, 13)
        kinds = corner_kinds(ScalarMesh(v, f))
        corners = [kinds.index(kind) for kind in ("convex", "reflex", "saddle")]
        k = 12
        t = np.sort(np.random.default_rng(37).uniform(0.0, 2.0 * math.pi, k))
        ring = np.c_[np.cos(t), np.sin(t), np.zeros(k)]
        apex_v = np.vstack([(0.0, 0.0, 0.4), ring, (0.0, 0.0, -1.0)])
        apex_f = [(0, i, i % k + 1) for i in range(1, k + 1)] + [(k + 1, i % k + 1, i) for i in range(1, k + 1)]
        for samples in (MC_CHUNK - 1, MC_CHUNK, MC_CHUNK + 1, 2 * MC_CHUNK + 17):
            assert_same_estimates(PolyMesh(v, f), corners, samples, seed)
            assert_same_estimates(PolyMesh(apex_v, np.array(apex_f)), [0], samples, seed)


class TestMonteCarloSweep:
    """Seeded corners of every kind at the chunk boundary, against the normalised reference's exact estimate."""

    @pytest.mark.parametrize("seed", [21, 22, 23])
    def test_dented_icosphere_corners(self, seed):
        v, f = dented_icosphere(3, seed)
        kinds = corner_kinds(ScalarMesh(v, f))
        rng = np.random.default_rng(seed)
        corners = [
            int(i) for kind in ("convex", "reflex", "saddle")
            for i in rng.choice([i for i, k in enumerate(kinds) if k == kind], size=2, replace=False)
        ]
        for samples in (MC_CHUNK - 1, MC_CHUNK, MC_CHUNK + 1):
            assert_same_estimates(PolyMesh(v, f), corners, samples, seed)


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
