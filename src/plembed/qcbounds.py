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

from .errors import DomainError, MeshError
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
    inner = math.prod([math.pi] * len(spec.angles)) / math.prod(spec.angles)
    return DilatationBounds(inner, inner ** (1.0 / (spec.dimension - 1)), inner)


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
    return DilatationBounds(val, val ** (1.0 / (n - 1)), val)


def uniform_index_bound(dimension: int, inner: float) -> float:
    """Strict upper bound n^(n-1) * K_I on the infimum of the local index."""
    n = int(dimension)
    if n < 3:
        raise DomainError("the index bound is stated for dimension >= 3")
    if not inner >= 1.0:
        raise DomainError("inner dilatation is at least 1")
    return float(n ** (n - 1)) * inner


def folding_dilatation(alpha: float, beta: float) -> float:
    """Inner dilatation of the angle-rescaling fold between two wedges.

    Symmetrized to max(alpha/beta, beta/alpha) so the value is always >= 1,
    whichever wedge is wider.
    """
    if alpha <= 0.0 or beta <= 0.0:
        raise DomainError("wedge angles must be positive")
    return max(alpha / beta, beta / alpha)


# ---------------------------------------------------------------------------
# Mesh edge audit.


@dataclass(frozen=True)
class EdgeRecord:
    edge: tuple[int, int]
    angle: float
    convex: bool
    contribution: float | None


@dataclass(frozen=True)
class EdgeAngleReport:
    """Interior dihedral angles per edge and the resulting dilatation bound.

    ``bound`` is the max of pi / angle over convex edges (1.0 if none);
    reflex edges are listed separately and contribute nothing.  Angles
    below the conditioning threshold produce warnings.
    """

    edges: tuple[EdgeRecord, ...]
    bound: float
    reflex: tuple[tuple[int, int], ...]
    warnings: tuple[str, ...]

    def to_dict(self) -> dict:
        return {
            "edges": [list(r.edge) for r in self.edges],
            "angles": [r.angle for r in self.edges],
            "bound": self.bound,
            "reflex": [list(e) for e in self.reflex],
            "warnings": list(self.warnings),
        }

    def table(self) -> str:
        lines = [f"{'edge':>12}  {'angle':>20}  {'contribution':>20}"]
        for r in self.edges:
            contrib = f"{r.contribution:.12g}" if r.contribution is not None else "reflex"
            lines.append(f"{str(r.edge):>12}  {r.angle:>20.12g}  {contrib:>20}")
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
    a, b = d[i1, 0], d[i1, 1]
    ehat = v[b] - v[a]
    ehat = ehat / np.sqrt(rowdot(ehat, ehat))[:, None]
    n1, n2 = m.face_normals[i1 // 3], m.face_normals[i2 // 3]
    sines = rowdot(np.cross(n1, n2), ehat).tolist()
    cosines = rowdot(n1, n2).tolist()
    records, reflex, warnings = [], [], []
    bound = 1.0
    straight = math.pi * (1.0 + STRAIGHT_TOL)
    for edge, sin, cos in zip(zip(a.tolist(), b.tolist()), sines, cosines):
        angle = math.pi - math.atan2(sin, cos)
        if angle <= straight:
            if angle < TINY_ANGLE:
                warnings.append(
                    f"edge {edge}: interior angle {angle:.3e} below {TINY_ANGLE:.0e}; "
                    "contribution is ill-conditioned"
                )
            contribution = math.pi / angle
            bound = max(bound, contribution)
            records.append(EdgeRecord(edge, angle, True, contribution))
        else:
            reflex.append(edge)
            records.append(EdgeRecord(edge, angle, False, None))
    return EdgeAngleReport(tuple(records), bound, tuple(reflex), tuple(warnings))


# ---------------------------------------------------------------------------
# Link volumes of solid corners.


def _link_cycle(mesh: PolyMesh, v: int) -> tuple[list[int], list[int]]:
    """Ordered cycle of link vertices around v, and the face of v, cycle[i], cycle[i + 1].

    MeshError if the star of v is not a closed fan.
    """
    succ: dict[int, int] = {}
    fan: dict[int, int] = {}
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


def _left_area(units: np.ndarray) -> float:
    """Area on the left of the closed spherical path through the unit rows of ``units``.

    Gauss-Bonnet: 2*pi minus the total signed geodesic turning, each turn
    taken from atan2 of the arrive and depart tangents.  Unlike summing
    interior angles through acos, this stays fully accurate at
    straight-through vertices (turn 0), which show up whenever a flat face
    was triangulated.
    """
    if len(units) < 3:
        return 0.0
    prev, nxt = np.roll(units, 1, axis=0), np.roll(units, -1, axis=0)
    arrive = rowdot(units, prev)[:, None] * units - prev
    depart = nxt - rowdot(units, nxt)[:, None] * units
    na, nd = np.sqrt(rowdot(arrive, arrive)), np.sqrt(rowdot(depart, depart))
    if min(na.min(), nd.min()) < ARC_TOL:
        raise MeshError("degenerate link arc (parallel consecutive directions)")
    arrive /= na[:, None]
    depart /= nd[:, None]
    sines = rowdot(np.cross(arrive, depart), units).tolist()
    turning = 0.0
    for sin, cos in zip(sines, rowdot(arrive, depart).tolist()):
        turning += math.atan2(sin, cos)
    return 2.0 * math.pi - turning


def _dedupe_cycle(units: np.ndarray) -> np.ndarray:
    keep = []
    for u in units:
        if not keep or np.linalg.norm(u - keep[-1]) > DEDUPE_TOL:
            keep.append(u)
    while len(keep) > 1 and np.linalg.norm(keep[0] - keep[-1]) <= DEDUPE_TOL:
        keep.pop()
    return np.array(keep)


def _link(mesh: PolyMesh, v: int) -> tuple[np.ndarray, np.ndarray]:
    """Unit link directions at v in outward cycle order, and the outward normals of its fan."""
    m = mesh.oriented_outward()
    cycle, fan = _link_cycle(m, v)
    dirs = m.vertices[cycle] - m.vertices[v]
    return dirs / np.linalg.norm(dirs, axis=1, keepdims=True), m.face_normals[fan]


def normalized_link_volume(mesh: PolyMesh, v: int) -> float:
    """Solid angle of the corner at vertex v, as a fraction of the full sphere.

    Exact at every corner of a closed oriented manifold, convex, reflex or
    saddle: the outward link cycle, traversed in reverse, has the solid on
    its left, and its left area over 4*pi is the answer.  A vertex interior
    to a flat patch gives exactly 1/2.
    """
    units, _ = _link(mesh, int(v))
    return _left_area(_dedupe_cycle(units)[::-1]) / _FOUR_PI


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

    It counts the directions inside every face half-space, which is the
    corner itself only at convex corners; elsewhere it estimates that
    intersection, not the link volume.

    Uniform directions from a counter-based (Philox) generator, so runs with
    the same seed are reproducible; the variance accumulates by Welford
    updates over chunks of MC_CHUNK samples.
    """
    if samples < 2:
        raise DomainError("need at least two samples")
    m = mesh.oriented_outward()
    normals = m.face_normals[m.vertex_faces(int(v))]
    if len(normals) == 0:
        raise MeshError(f"vertex {v} has no incident faces")
    gen = np.random.Generator(np.random.Philox(seed))
    count = 0
    mean = 0.0
    m2 = 0.0
    done = 0
    while done < samples:
        take = min(MC_CHUNK, samples - done)
        w = gen.normal(size=(take, 3))
        w /= np.linalg.norm(w, axis=1, keepdims=True)
        inside = np.all(w @ normals.T <= 0.0, axis=1)
        # Welford merge of the chunk (indicator mean/variance) into the run.
        c_count = take
        c_mean = float(np.mean(inside))
        c_m2 = float(np.sum((inside - c_mean) ** 2))
        delta = c_mean - mean
        total = count + c_count
        mean += delta * c_count / total
        m2 += c_m2 + delta * delta * count * c_count / total
        count = total
        done += take
    stderr = math.sqrt(m2 / (count - 1) / count)
    return MonteCarloEstimate(mean, stderr, samples, seed)


def normalized_exterior_angle(mesh: PolyMesh, v: int) -> float:
    """Normalized volume of the dual cone at vertex v (the exterior angle).

    Defined at convex corners only: the dual cone is spanned by the outward
    normals of the faces, and its normalized volume is the left area of the
    normals in fan order over 4*pi.  The corner is convex when every link
    direction lies within CONVEX_TOL of the inner side of every face plane;
    any other corner is a MeshError.  A vertex interior to a flat patch has
    a degenerate dual (a single ray) and returns 0.
    """
    units, normals = _link(mesh, int(v))
    if np.max(units @ normals.T) > CONVEX_TOL:
        raise MeshError(f"vertex {v}: not a convex corner; the dual cone exists only at convex corners")
    return _left_area(_dedupe_cycle(normals)) / _FOUR_PI
