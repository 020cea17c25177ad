import math
from itertools import combinations

import numpy as np
import pytest

from plembed import DomainError, FoldParams, MetricGraph, comparison_angle, parse_off, standard_vertex_map
from plembed.quadruple import _betweenness

CUBE_OFF = """OFF
8 6 12
-1 -1 -1
 1 -1 -1
 1  1 -1
-1  1 -1
-1 -1  1
 1 -1  1
 1  1  1
-1  1  1
4 0 3 2 1
4 4 5 6 7
4 0 1 5 4
4 1 2 6 5
4 2 3 7 6
4 3 0 4 7
"""

TETRA_OFF = """OFF
4 4 6
1 1 1
1 -1 -1
-1 1 -1
-1 -1 1
3 0 2 1
3 0 1 3
3 0 3 2
3 1 2 3
"""

# cube with the top face subdivided around a center vertex; vertex 8 is
# interior to a flat patch
CUBE_FLAT_PATCH_OFF = """OFF
9 9 16
-1 -1 -1
 1 -1 -1
 1  1 -1
-1  1 -1
-1 -1  1
 1 -1  1
 1  1  1
-1  1  1
 0  0  1
4 0 3 2 1
3 4 5 8
3 5 6 8
3 6 7 8
3 7 4 8
4 0 1 5 4
4 1 2 6 5
4 2 3 7 6
4 3 0 4 7
"""

# a square pyramid with comments, a blank line, a colour field and a quad base, which fans into two triangles
PYRAMID_OFF = """OFF
# a square pyramid
5 5 0

1 1 0
-1 1 0 255 0 0
-1 -1 0
1 -1 0  # a trailing comment
0 0 1
4 0 3 2 1
3 0 1 4
3 1 2 4
3 2 3 4
3 3 0 4
"""

# octahedron with its top vertex (4) pushed down to z = -0.3: a reflex
# corner at 4 whose neighbours 0-3 are saddles, and a convex bottom (5)
DENTED_OCTA_OFF = """OFF
6 8 0
1 0 0
-1 0 0
0 1 0
0 -1 0
0 0 -0.3
0 0 -1
3 0 2 4
3 2 1 4
3 1 3 4
3 3 0 4
3 2 0 5
3 1 2 5
3 3 1 5
3 0 3 5
"""


@pytest.fixture
def cube_mesh():
    return parse_off(CUBE_OFF)


@pytest.fixture
def tetra_mesh():
    return parse_off(TETRA_OFF)


@pytest.fixture
def flat_patch_mesh():
    return parse_off(CUBE_FLAT_PATCH_OFF)


@pytest.fixture
def dented_octa_mesh():
    return parse_off(DENTED_OCTA_OFF)


@pytest.fixture
def cube_off_path(tmp_path):
    p = tmp_path / "cube.off"
    p.write_text(CUBE_OFF)
    return p


@pytest.fixture
def tetra_off_path(tmp_path):
    p = tmp_path / "tetra.off"
    p.write_text(TETRA_OFF)
    return p


def unit_k4() -> MetricGraph:
    labels = ["a", "b", "c", "d"]
    edges = [(i, j, 1.0) for i in range(4) for j in range(i + 1, 4)]
    return MetricGraph(labels, edges)


def star_graph(cross: float = 1.99) -> MetricGraph:
    """Hub with three unit spokes and direct tip-to-tip edges of length `cross`."""
    labels = ["h", "x", "y", "z"]
    edges = [(0, 1, 1.0), (0, 2, 1.0), (0, 3, 1.0), (1, 2, cross), (1, 3, cross), (2, 3, cross)]
    return MetricGraph(labels, edges)


def icosahedron_graph(lengths=None) -> MetricGraph:
    """Unit-edge icosahedron 1-skeleton (12 vertices, 30 edges).

    `lengths` optionally gives one multiplier per edge, in the deterministic
    edge order produced here.
    """
    phi = (1.0 + math.sqrt(5.0)) / 2.0
    pts = []
    for a in (-1.0, 1.0):
        for b in (-phi, phi):
            pts.append((0.0, a, b))
            pts.append((a, b, 0.0))
            pts.append((b, 0.0, a))
    pts = np.array(pts)
    edges = []
    for i in range(12):
        for j in range(i + 1, 12):
            if abs(np.linalg.norm(pts[i] - pts[j]) - 2.0) < 1e-9:
                edges.append((i, j))
    assert len(edges) == 30
    if lengths is None:
        lengths = [1.0] * 30
    labels = [f"v{i}" for i in range(12)]
    return MetricGraph(labels, [(i, j, w) for (i, j), w in zip(edges, lengths)])


def octahedron_graph(lengths=None) -> MetricGraph:
    pts = np.array([(1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1), (0, 0, -1)], dtype=float)
    edges = []
    for i in range(6):
        for j in range(i + 1, 6):
            if abs(np.linalg.norm(pts[i] - pts[j]) - math.sqrt(2.0)) < 1e-9:
                edges.append((i, j))
    assert len(edges) == 12
    if lengths is None:
        lengths = [1.0] * 12
    labels = [f"v{i}" for i in range(6)]
    return MetricGraph(labels, [(i, j, w) for (i, j), w in zip(edges, lengths)])


def hex_grid_graph() -> MetricGraph:
    """Interior vertex of the unit equilateral triangular grid: hub plus 6-ring."""
    labels = ["h"] + [f"r{i}" for i in range(6)]
    edges = [(0, i + 1, 1.0) for i in range(6)]
    edges += [(i + 1, (i + 1) % 6 + 1, 1.0) for i in range(6)]
    return MetricGraph(labels, edges)


def random_rotation(rng: np.random.Generator) -> np.ndarray:
    """Haar-ish random rotation from the QR of a Gaussian matrix."""
    q, r = np.linalg.qr(rng.normal(size=(3, 3)))
    q *= np.sign(np.diag(r))
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    return q


def link_cycle(faces: np.ndarray, p: int) -> list[int]:
    """Link vertices of p in the order of the oriented faces around it, from the smallest."""
    succ = {}
    for face in faces[np.any(faces == p, axis=1)].tolist():
        t = face.index(p)
        succ[face[(t + 1) % 3]] = face[(t + 2) % 3]
    cycle = [min(succ)]
    while succ[cycle[-1]] != cycle[0]:
        cycle.append(succ[cycle[-1]])
    return cycle


def solid_angle_oracle(v: np.ndarray, outward: np.ndarray, p: int) -> float:
    """Solid angle on the solid side at vertex p over 4*pi, by Van Oosterom-Strackee.

    The triangles (pole, u_i, u_i+1) over the outward link sum to minus the
    solid side's area mod 4*pi, for a corner of any shape, and need no cycle
    orientation guess.  The pole is the axis direction farthest from every
    antipode of the link, so no triangle is degenerate.
    """
    u = v[link_cycle(outward, p)] - v[p]
    u /= np.linalg.norm(u, axis=1, keepdims=True)
    axes = np.vstack([np.eye(3), -np.eye(3)])
    c = axes[np.argmax(np.min(1.0 + axes @ u.T, axis=1))]
    a, b = u, np.roll(u, -1, axis=0)
    num = np.cross(a, b) @ c
    den = 1.0 + a @ c + b @ c + np.sum(a * b, axis=1)
    return float(-np.sum(2.0 * np.arctan2(num, den)) / (4.0 * math.pi)) % 1.0


# ---------------------------------------------------------------------------
# Oracles for the library, computed here with no library code but the map under test.

FOLD_STEP = 1e-6  # central-difference step of `polar_jacobian`


def polar_jacobian(vertex_map, rho: float, phi: float) -> np.ndarray:
    """Central-difference Jacobian of a polar map (rho, phi) -> (r, p) in local length coordinates.

    The source is charted by local Cartesian coordinates at (rho, phi) and
    the image is read in the plane.  Points within FOLD_STEP of the apex are
    rejected.
    """
    if rho <= FOLD_STEP:
        raise DomainError("sample point too close to the apex for the difference step")

    def image(u: float, w: float) -> np.ndarray:
        r = math.hypot(rho + u, w)
        p = phi + math.atan2(w, rho + u)
        rr, pp = vertex_map(r, p)
        return np.array([rr * math.cos(pp), rr * math.sin(pp)])

    return np.column_stack(
        [
            (image(FOLD_STEP, 0.0) - image(-FOLD_STEP, 0.0)) / (2.0 * FOLD_STEP),
            (image(0.0, FOLD_STEP) - image(0.0, -FOLD_STEP)) / (2.0 * FOLD_STEP),
        ]
    )


def fold_jacobian(params: FoldParams, rho: float, phi: float) -> np.ndarray:
    """`polar_jacobian` of the fold `standard_vertex_map`."""
    return polar_jacobian(lambda r, p: standard_vertex_map(params, r, p), rho, phi)


def folding_dilatation(alpha: float, beta: float) -> float:
    """Inner dilatation of the angle-rescaling map between wedges of angles alpha and beta.

    Symmetrized to max(alpha/beta, beta/alpha) so the value is always >= 1,
    whichever wedge is wider.
    """
    if alpha <= 0.0 or beta <= 0.0:
        raise DomainError("wedge angles must be positive")
    return max(alpha / beta, beta / alpha)


def vertex_excess(q, kappa: float) -> tuple[np.ndarray, float]:
    """Per-vertex comparison-angle sums V_kappa of a quadruple and their maximum A_kappa."""
    d = q.distances
    v = np.array(
        [
            sum(comparison_angle(kappa, d[j, l], d[i, j], d[i, l]) for j, l in combinations([j for j in range(4) if j != i], 2))
            for i in range(4)
        ]
    )
    return v, float(v.max())


def geodesic_distance(kappa: float, p, q) -> float:
    """Geodesic distance between two model points, by one math call.

    R^n at kappa = 0; the sphere |x| = 1/sqrt(kappa) at kappa > 0; the
    hyperboloid t^2 - |x|^2 = -1/kappa, t > 0, at kappa < 0.
    """
    p, q = np.asarray(p, dtype=float), np.asarray(q, dtype=float)
    if kappa == 0.0:
        return math.dist(p, q)
    if kappa > 0.0:
        return math.acos(min(1.0, max(-1.0, kappa * float(p @ q)))) / math.sqrt(kappa)
    return math.acosh(max(1.0, -kappa * (p[0] * q[0] - float(p[1:] @ q[1:])))) / math.sqrt(-kappa)


def separated(q, margin: float) -> bool:
    """No point of the quadruple lies between two others at the relative margin ``margin``.

    `nondegenerate` at a margin of the caller's choosing: an input filter
    for samples that must stay clear of betweenness.
    """
    return not _betweenness(q.distances, margin)
