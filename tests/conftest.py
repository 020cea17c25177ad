import math

import numpy as np
import pytest

from plembed import MetricGraph, parse_off

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
