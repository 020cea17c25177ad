"""Lower bounds on quasiconformal dilatations of piecewise-linear embeddings.

Closed-form coefficients for dihedral wedges and convex polyhedra, an edge
audit of triangle meshes (max of pi / interior dihedral angle over convex
edges), normalized link volumes of solid corners (exact spherical excess or
seeded Monte Carlo), and the uniform bound on the local index of a
quasiregular map.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, MeshError, in_range
from .mesh import PolyMesh, rowdot

_FOUR_PI = 4.0 * math.pi

TINY_ANGLE = 1e-6  # interior dihedral angles below this draw a conditioning warning
CONVEX_TOL = 1e-9  # a link direction this far outside a face plane makes the corner non-convex
DEDUPE_TOL = 1e-12  # consecutive link directions or face normals this close coincide
STRAIGHT_TOL = 1e-12  # an interior dihedral angle up to pi * (1 + STRAIGHT_TOL) is not reflex
ARC_TOL = 1e-12  # a link arc whose tangent at either end is shorter than this (its sine) is degenerate
MC_CHUNK = 1 << 16  # Monte Carlo directions drawn and counted at a time


@dataclass(frozen=True)
class DihedralWedgeSpec:
    """A wedge in dimension ``dimension`` over a codimension-k corner.

    ``angles`` holds the dimension - wedge_type - 1 dihedral angles, each in
    (0, pi].  The classical wedge is wedge_type = dimension - 2 with a
    single angle.
    """

    dimension: int
    wedge_type: int
    angles: tuple[float, ...]

    def __post_init__(self):
        n, k = self.dimension, self.wedge_type
        if n < 2:
            raise DomainError("dimension must be at least 2")
        if not 1 <= k <= n - 2:
            raise DomainError("wedge type must satisfy 1 <= k <= dimension - 2")
        angles = tuple(float(a) for a in self.angles)
        if len(angles) != n - k - 1:
            raise DomainError(f"expected {n - k - 1} angles, got {len(angles)}")
        for a in angles:
            if not (0.0 < a <= math.pi):
                raise DomainError("wedge angles must lie in (0, pi]; bounds for reflex angles are unknown")
        object.__setattr__(self, "angles", angles)


@dataclass(frozen=True)
class DilatationBounds:
    """Inner dilatation, a lower bound for the outer one, and the maximal one."""

    inner: float
    outer_lower: float
    maximal: float

    def to_dict(self) -> dict:
        return {"inner": self.inner, "outer_lower": self.outer_lower, "maximal": self.maximal}


def dihedral_wedge_coefficients(spec: DihedralWedgeSpec) -> DilatationBounds:
    """Exact dilatation coefficients of the standard wedge map.

    Inner dilatation pi^(n-k-1) / product(angles); the outer dilatation is
    bounded below by its (n-1)-th root, and the maximal dilatation equals
    the inner one.
    """
    n, k, prod = spec.dimension, len(spec.angles), math.prod(spec.angles)
    inner = in_range(lambda: math.prod([math.pi] * k) / prod, f"inner dilatation pi**{k} / {prod!r}")
    return DilatationBounds(inner, inner ** in_range(lambda: 1.0 / (n - 1), f"dimension {n}"), inner)


def convex_face_count_bound(num_faces: int, dimension: int) -> DilatationBounds:
    """Dilatation lower bounds for a convex polyhedron by face count alone.

    Inner dilatation at least (m - n + 2) / (m - n) for m faces in
    dimension n; requires m > n.
    """
    m, n = int(num_faces), int(dimension)
    if n < 2:
        raise DomainError("dimension must be at least 2")
    if m <= n:
        raise DomainError("a convex polyhedron needs more faces than the dimension")
    val = (m - n + 2) / (m - n)
    return DilatationBounds(val, val ** in_range(lambda: 1.0 / (n - 1), f"dimension {n}"), val)


def uniform_index_bound(dimension: int, inner: float) -> float:
    """Strict upper bound n^(n-1) * K_I on the infimum of the local index."""
    n = int(dimension)
    if n < 3:
        raise DomainError("the index bound is stated for dimension >= 3")
    if not inner >= 1.0:
        raise DomainError("inner dilatation is at least 1")
    # n**(n - 1) is not built past 2**1024 (n = 10**400 would not end); in_range catches (n - 1) * log2(n)'s overflow
    power = lambda: float(n ** (n - 1)) if (n - 1) * math.log2(n) <= 1024 else math.inf
    return in_range(lambda: power() * inner, f"index bound {n}**{n - 1} * {inner!r}")


# ---------------------------------------------------------------------------
# Mesh edge audit.


@dataclass(frozen=True)
class EdgeAngleReport:
    """Interior dihedral angles per edge and the resulting dilatation bound.

    ``edges`` holds the sorted edges (a, b), a < b, as (m, 2) rows, and
    ``angles`` and ``convex`` their columns.  ``bound`` is the max of
    pi / angle over convex edges (1.0 if none); reflex edges contribute
    nothing.  Angles below the conditioning threshold produce warnings.
    """

    edges: np.ndarray
    angles: np.ndarray
    convex: np.ndarray
    bound: float
    warnings: tuple[str, ...]

    def to_dict(self) -> dict:
        return {
            "edges": self.edges.tolist(),
            "angles": self.angles.tolist(),
            "bound": self.bound,
            "reflex": self.edges[~self.convex].tolist(),
            "warnings": list(self.warnings),
        }

    def table(self) -> str:
        lines = [f"{'edge':>12}  {'angle':>20}  {'contribution':>20}"]
        for (a, b), angle, convex in zip(self.edges.tolist(), self.angles.tolist(), self.convex.tolist()):
            contrib = f"{math.pi / angle:.12g}" if convex else "reflex"
            lines.append(f"{f'({a}, {b})':>12}  {angle:>20.12g}  {contrib:>20}")
        lines.append(f"bound: {self.bound:.12g}")
        return "\n".join(lines)


def mesh_edge_dilatation_bound(mesh: PolyMesh) -> EdgeAngleReport:
    """Audit all interior dihedral angles of a closed oriented triangle mesh.

    The interior angle at an edge is measured on the solid side (orientation
    is normalized to outward normals first, so a global flip of the input
    changes nothing).  Convex edges (angle <= pi) contribute pi / angle.
    """
    m = mesh.oriented_outward()
    v = m.vertices
    # a closed manifold has every edge twice in the sorted order, in face order
    d, order = m.directed_edges
    i1, i2 = order.reshape(-1, 2).T
    # let side 1 carry the (a, b) direction with a < b
    flip = d[i1, 0] > d[i1, 1]
    i1, i2 = np.where(flip, i2, i1), np.where(flip, i1, i2)
    edges = d[i1]
    ehat = v[edges[:, 1]] - v[edges[:, 0]]
    ehat = ehat / np.sqrt(rowdot(ehat, ehat))[:, None]
    n1, n2 = m.face_normals[i1 // 3], m.face_normals[i2 // 3]
    sines, cosines = rowdot(np.cross(n1, n2), ehat), rowdot(n1, n2)
    angle = math.pi - np.fromiter(map(math.atan2, memoryview(sines), memoryview(cosines)), float, len(edges))
    if np.any(angle == 0.0):
        a, b = edges[np.argmin(angle)].tolist()
        raise MeshError(f"edge {(a, b)}: interior angle 0; its two faces fold onto each other")
    convex = angle <= math.pi * (1.0 + STRAIGHT_TOL)
    tiny = np.flatnonzero(convex & (angle < TINY_ANGLE))
    warnings = tuple(
        f"edge {(a, b)}: interior angle {x:.3e} below {TINY_ANGLE:.0e}; contribution is ill-conditioned"
        for (a, b), x in zip(edges[tiny].tolist(), angle[tiny].tolist())
    )
    bound = float(np.max(math.pi / angle[convex], initial=1.0))
    return EdgeAngleReport(edges, angle, convex, bound, warnings)


# ---------------------------------------------------------------------------
# Link volumes of solid corners.


# Outcome codes of the corner pass: 0 is a value, the others name the vertex's first defect.
_NO_FACES, _SPLIT, _DEGENERATE, _NOT_CONVEX = range(1, 5)
_MESSAGES = {
    _NO_FACES: "vertex {v} has no incident faces",
    _SPLIT: "vertex {v}: star splits into several cycles",
    _DEGENERATE: "degenerate link arc (parallel consecutive directions)",
    # names the vertex as the caller gave it; the others name int(v)
    _NOT_CONVEX: "vertex {arg}: not a convex corner; the dual cone exists only at convex corners",
}


def _link_cycles(faces: np.ndarray, n: int) -> tuple[np.ndarray, ...]:
    """Every vertex's link cycle, from the corners of ``faces``, stepped for all vertices at once.

    Corner t of face k gives vertex faces[k, t] the link edge faces[k, t + 1]
    -> faces[k, t + 2].  Sorted by (vertex, link vertex), vertex c owns rows
    start[c] to start[c] + degree[c] - 1, and its cycle starts at its
    smallest link vertex.  ``faces`` passed `PolyMesh.require_closed_manifold`:
    every directed edge is unique and has its twin, so the successors of a
    vertex's rows permute them, and its walk comes home within degree steps,
    early when the star splits.  Returns the link vertex and face of each row
    in cycle order, start, degree, and per vertex 0, _NO_FACES or _SPLIT.
    """
    c, a, b = faces.ravel(), np.roll(faces, -1, axis=1).ravel(), np.roll(faces, -2, axis=1).ravel()
    order = np.argsort(c * n + a, kind="stable")
    c, a, b = c[order], a[order], b[order]
    key = c * n + a
    degree = np.bincount(c, minlength=n)
    start = np.cumsum(degree) - degree
    code = np.where(degree == 0, _NO_FACES, 0)
    succ = np.searchsorted(key, c * n + b)
    step = np.full(len(key), -1)
    verts = np.flatnonzero(degree)
    rows = start[verts]
    step[rows] = 0
    for j in range(1, degree.max(initial=0) + 1):
        rows = succ[rows]
        home = rows == start[verts]
        code[verts[home & (degree[verts] != j)]] = _SPLIT
        verts, rows = verts[~home], rows[~home]
        step[rows] = j
    ok = code[c] == 0
    at = start[c[ok]] + step[ok]
    link, fan = np.zeros_like(a), np.zeros_like(a)
    link[at], fan[at] = a[ok], order[ok] // 3
    return link, fan, start, degree, code


def _gap(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Euclidean norm of each row of x - y, as np.linalg.norm of the row."""
    d = x - y
    return np.sqrt(rowdot(d, d))


def _dedupe(p: np.ndarray) -> np.ndarray:
    """Which points of each row of a (r, k, 3) stack of closed paths to keep.

    A point is kept when it lies farther than DEDUPE_TOL from the last kept
    one; then trailing kept points within DEDUPE_TOL of the first are
    dropped.  (Comparing with the last kept point, not the previous one,
    matters when three near-duplicates fall in a row.)  A row in which no
    point lies that close to the one before it, cyclically, keeps them all.
    """
    r, k = p.shape[:2]
    keep = np.ones((r, k), dtype=bool)
    near = _gap(p.reshape(-1, 3), np.roll(p, 1, axis=1).reshape(-1, 3)) <= DEDUPE_TOL
    rows = np.flatnonzero(near.reshape(r, k).any(axis=1))
    q, part = p[rows], keep[rows]
    last = q[:, 0]
    for j in range(1, k):
        part[:, j] = _gap(q[:, j], last) > DEDUPE_TOL
        last = np.where(part[:, j, None], q[:, j], last)
    going = np.ones(len(rows), dtype=bool)  # still dropping trailing points
    for j in range(k - 1, 0, -1):
        drop = going & part[:, j] & (_gap(q[:, 0], q[:, j]) <= DEDUPE_TOL)
        going &= drop | ~part[:, j]
        part[:, j] &= ~drop
    keep[rows] = part
    return keep


def _left_areas(p: np.ndarray, keep: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Area on the left of each row's closed spherical path through its kept unit points, over 4*pi.

    Gauss-Bonnet: 2*pi minus the total signed geodesic turning, one
    math.atan2 of the arrive and depart tangents per point, summed left to
    right from 0.0.  Unlike summing interior angles through acos, this stays
    accurate at straight-through points (turn 0), as in triangulated flat
    faces.  A path of fewer than three points has area 0.  Also returns
    which rows have a degenerate arc (parallel consecutive points).
    """
    count = keep.sum(axis=1)
    area, degenerate = np.zeros(len(keep)), np.zeros(len(keep), dtype=bool)
    for k in np.unique(count[count >= 3]).tolist():
        rows = count == k
        path = p[rows] if k == keep.shape[1] else p[rows][keep[rows]].reshape(-1, k, 3)
        units = path.reshape(-1, 3)
        prev, nxt = np.roll(path, 1, axis=1).reshape(-1, 3), np.roll(path, -1, axis=1).reshape(-1, 3)
        arrive = rowdot(units, prev)[:, None] * units - prev
        depart = nxt - rowdot(units, nxt)[:, None] * units
        na, nd = np.sqrt(rowdot(arrive, arrive)), np.sqrt(rowdot(depart, depart))
        degenerate[rows] = ((na < ARC_TOL) | (nd < ARC_TOL)).reshape(-1, k).any(axis=1)
        with np.errstate(divide="ignore", invalid="ignore"):  # only at degenerate arcs
            arrive /= na[:, None]
            depart /= nd[:, None]
        sines, cosines = rowdot(np.cross(arrive, depart), units), rowdot(arrive, depart)
        turns = np.fromiter(map(math.atan2, memoryview(sines), memoryview(cosines)), float, len(units))
        turning = np.zeros(len(path))
        for t in turns.reshape(-1, k).T:
            turning += t
        area[rows] = (2.0 * math.pi - turning) / _FOUR_PI
    return area, degenerate


def _corner_table(m: PolyMesh) -> tuple[tuple[list, list], tuple[list, list]]:
    """Exact link volume and exterior angle of every vertex of the outward mesh m, from one pass.

    Returns (values, codes) for the exact volume and for the dual; a nonzero
    code names the vertex's first error, in the order the checks are made:
    its star, then (dual only) convexity, then a degenerate link arc.
    Vertices of one degree are computed together, and the dual only at
    convex corners.
    """
    n = len(m.vertices)
    link, fan, start, degree, code = _link_cycles(m.faces, n)
    exact, dual = np.zeros(n), np.zeros(n)
    exact_code, dual_code = code.copy(), code.copy()
    for k in np.unique(degree[code == 0]).tolist():
        verts = np.flatnonzero((code == 0) & (degree == k))
        rows = start[verts][:, None] + np.arange(k)
        dirs = (m.vertices[link[rows]] - m.vertices[verts][:, None]).reshape(-1, 3)
        units = (dirs / np.linalg.norm(dirs, axis=1, keepdims=True)).reshape(-1, k, 3)
        normals = m.face_normals[fan[rows]]
        # the reversed outward link has the solid on its left
        exact[verts], degenerate = _left_areas(units[:, ::-1], _dedupe(units)[:, ::-1])
        exact_code[verts[degenerate]] = _DEGENERATE
        nonconvex = np.max(units @ normals.transpose(0, 2, 1), axis=(1, 2)) > CONVEX_TOL
        dual_code[verts[nonconvex]] = _NOT_CONVEX
        convex, normals = verts[~nonconvex], normals[~nonconvex]
        dual[convex], degenerate = _left_areas(normals, _dedupe(normals))
        dual_code[convex[degenerate]] = _DEGENERATE
    return (exact.tolist(), exact_code.tolist()), (dual.tolist(), dual_code.tolist())


def _corner(mesh: PolyMesh, v, dual: bool) -> float:
    """Vertex v's entry of the corner table of the outward mesh, or its MeshError."""
    m = mesh.oriented_outward()
    vi = int(v)
    if not 0 <= vi < len(m.vertices):
        raise MeshError(f"vertex {vi} has no incident faces")
    values, codes = m._corners[dual]
    if codes[vi]:
        raise MeshError(_MESSAGES[codes[vi]].format(v=vi, arg=v))
    return values[vi]


def normalized_link_volume(mesh: PolyMesh, v: int) -> float:
    """Solid angle of the corner at vertex v, as a fraction of the full sphere.

    Exact at every corner of a closed oriented manifold, convex, reflex or
    saddle: the outward link cycle, traversed in reverse, has the solid on
    its left, and its left area over 4*pi is the answer.  A vertex interior
    to a flat patch gives exactly 1/2.  The first exact or dual query
    computes every vertex of the mesh and keeps the table on it.
    """
    return _corner(mesh, v, dual=False)


@dataclass(frozen=True)
class MonteCarloEstimate:
    value: float
    stderr: float
    samples: int
    seed: int

    def to_dict(self) -> dict:
        return {"value": self.value, "stderr": self.stderr, "samples": self.samples, "seed": self.seed}


def normalized_link_volume_mc(mesh: PolyMesh, v: int, samples: int = 1_000_000, seed: int = 0) -> MonteCarloEstimate:
    """Monte Carlo estimate of `normalized_link_volume` with standard error.

    It counts the directions w with w . n <= 0 for the outward normal n of
    every face at v, read from one (faces x samples) sign table: w is inside
    when the largest entry of its column is <= 0.  That is the corner itself
    only at convex corners; elsewhere it estimates the intersection of the
    half-spaces, not the link volume.

    The directions are standard normal draws, unnormalized (the signs stay),
    from one stream of a counter-based (Philox) generator seeded with `seed`,
    counted MC_CHUNK at a time: the estimate is the count K over N, and its
    standard error sqrt(K (N - K) / (N^2 (N - 1))), so the same arguments give
    the same bits for any chunk size.  `samples` must be an integer of
    at least 2 and `seed` a nonnegative integer (DomainError).
    """
    if not isinstance(samples, int) or isinstance(samples, bool):
        raise DomainError(f"samples must be an integer, got {samples!r}")
    if samples < 2:
        raise DomainError("need at least two samples")
    if not isinstance(seed, int) or isinstance(seed, bool) or seed < 0:
        raise DomainError(f"seed must be a nonnegative integer, got {seed!r}")
    m = mesh.oriented_outward()
    normals = m.face_normals[m.vertex_faces(int(v))]
    if len(normals) == 0:
        raise MeshError(f"vertex {v} has no incident faces")
    gen = np.random.Generator(np.random.Philox(seed))
    count = 0
    for start in range(0, samples, MC_CHUNK):
        take = min(MC_CHUNK, samples - start)
        count += int(np.count_nonzero(np.maximum.reduce(normals @ gen.standard_normal((take, 3)).T) <= 0.0))
    # K/N and the radicand are each one rounding of a quotient of exact integers
    stderr = math.sqrt(count * (samples - count) / (samples * samples * (samples - 1)))
    return MonteCarloEstimate(count / samples, stderr, samples, seed)


def normalized_exterior_angle(mesh: PolyMesh, v: int) -> float:
    """Normalized volume of the dual cone at vertex v (the exterior angle).

    Defined at convex corners only: the dual cone is spanned by the outward
    normals of the faces, and its normalized volume is the left area of the
    normals in fan order over 4*pi.  The corner is convex when every link
    direction lies within CONVEX_TOL of the inner side of every face plane;
    any other corner is a MeshError.  A vertex interior to a flat patch has
    a degenerate dual (a single ray) and returns 0.  Read from the same
    per-mesh table as `normalized_link_volume`.
    """
    return _corner(mesh, v, dual=True)
