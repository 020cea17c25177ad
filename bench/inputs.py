"""Seeded input generators for the benchmark, written without SciPy or plembed.

Every generator takes a ``numpy.random.Generator`` built from the workload
seed, so the same seed always yields byte-identical input documents.  The
documents use the command-line tool's file formats (ASCII OFF meshes, JSON
graph documents, comma-separated quadruples) and are what the library sees.
"""

from __future__ import annotations

import hashlib
import json
import math
from itertools import combinations

import numpy as np

TWO_PI = 2.0 * math.pi
SURFACE_KAPPAS = (-4.0, -1.0, 0.0, 1.0, 4.0)
PAIRS = ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))


def digest(*parts: str) -> str:
    h = hashlib.sha256()
    for p in parts:
        h.update(p.encode())
        h.update(b"\0")
    return h.hexdigest()[:16]


# ---------------------------------------------------------------------------
# Icospheres.


def icosahedron() -> tuple[np.ndarray, np.ndarray]:
    """Unit icosahedron with outward (counter-clockwise seen from outside) faces."""
    phi = (1.0 + math.sqrt(5.0)) / 2.0
    v = np.array(
        [
            (-1, phi, 0), (1, phi, 0), (-1, -phi, 0), (1, -phi, 0),
            (0, -1, phi), (0, 1, phi), (0, -1, -phi), (0, 1, -phi),
            (phi, 0, -1), (phi, 0, 1), (-phi, 0, -1), (-phi, 0, 1),
        ],
        dtype=float,
    )
    f = np.array(
        [
            (0, 11, 5), (0, 5, 1), (0, 1, 7), (0, 7, 10), (0, 10, 11),
            (1, 5, 9), (5, 11, 4), (11, 10, 2), (10, 7, 6), (7, 1, 8),
            (3, 9, 4), (3, 4, 2), (3, 2, 6), (3, 6, 8), (3, 8, 9),
            (4, 9, 5), (2, 4, 11), (6, 2, 10), (8, 6, 7), (9, 8, 1),
        ]
    )
    return v / np.linalg.norm(v, axis=1, keepdims=True), f


def icosphere(level: int) -> tuple[np.ndarray, np.ndarray]:
    """Loop-subdivided icosahedron on the unit sphere: 10 * 4**level + 2 vertices."""
    v, f = icosahedron()
    for _ in range(level):
        e = np.concatenate([f[:, [0, 1]], f[:, [1, 2]], f[:, [2, 0]]])
        keys, inv = np.unique(np.sort(e, axis=1), axis=0, return_inverse=True)
        mid = v[keys[:, 0]] + v[keys[:, 1]]
        # the midpoint of edge key k becomes vertex len(v) + k
        ab, bc, ca = np.split(inv.reshape(-1) + len(v), 3)
        v = np.vstack([v, mid / np.linalg.norm(mid, axis=1, keepdims=True)])
        a, b, c = f[:, 0], f[:, 1], f[:, 2]
        f = np.concatenate(
            [np.stack(t, axis=1) for t in ((a, ab, ca), (b, bc, ab), (c, ca, bc), (ab, bc, ca))]
        )
    return v, f


def mesh_edges(faces: np.ndarray) -> np.ndarray:
    e = np.concatenate([faces[:, [0, 1]], faces[:, [1, 2]], faces[:, [2, 0]]])
    return np.unique(np.sort(e, axis=1), axis=0)


def neighbours(n: int, edges: np.ndarray) -> list[set[int]]:
    out: list[set[int]] = [set() for _ in range(n)]
    for a, b in edges.tolist():
        out[a].add(b)
        out[b].add(a)
    return out


def jitter(v: np.ndarray, rng, tangential: float, radial: float) -> np.ndarray:
    """Move each vertex by uniform noise: `tangential` along the sphere, `radial` in radius."""
    t = rng.uniform(-tangential, tangential, size=v.shape)
    t -= np.sum(t * v, axis=1, keepdims=True) * v
    p = v + t
    p /= np.linalg.norm(p, axis=1, keepdims=True)
    return p * rng.uniform(1.0 - radial, 1.0 + radial, size=(len(v), 1))


def off_text(v: np.ndarray, f: np.ndarray) -> str:
    lines = ["OFF", f"{len(v)} {len(f)} 0"]
    lines += [f"{x!r} {y!r} {z!r}" for x, y, z in v.tolist()]
    lines += [f"3 {a} {b} {c}" for a, b, c in f.tolist()]
    return "\n".join(lines) + "\n"


def graph_document(v: np.ndarray, edges: np.ndarray) -> tuple[str, np.ndarray]:
    """JSON graph document with chord lengths; returns (text, lengths)."""
    lengths = np.linalg.norm(v[edges[:, 0]] - v[edges[:, 1]], axis=1)
    doc = {
        "vertices": [f"v{i}" for i in range(len(v))],
        "edges": [[f"v{a}", f"v{b}", w] for (a, b), w in zip(edges.tolist(), lengths.tolist())],
    }
    return json.dumps(doc), lengths


def dent(v: np.ndarray, nbrs: list[set[int]], count: int, depth: float, rng) -> np.ndarray:
    """Push `count` vertices with disjoint closed stars radially inward by `depth`."""
    blocked: set[int] = set()
    chosen = []
    for i in rng.permutation(len(v)).tolist():
        if i in blocked:
            continue
        chosen.append(i)
        blocked |= {i} | nbrs[i]
        for j in nbrs[i]:
            blocked |= nbrs[j]
        if len(chosen) == count:
            break
    out = v.copy()
    out[chosen] *= 1.0 - depth
    return out


# ---------------------------------------------------------------------------
# Four-point samples.


def model_distance(kappa: float, p, q) -> float:
    """Geodesic distance between polar points (r, theta) on the curvature-kappa surface."""
    (r1, t1), (r2, t2) = p, q
    dt = t1 - t2
    if kappa > 0.0:
        s = math.sqrt(kappa)
        cd = math.cos(s * r1) * math.cos(s * r2) + math.sin(s * r1) * math.sin(s * r2) * math.cos(dt)
        return math.acos(max(-1.0, min(1.0, cd))) / s
    if kappa < 0.0:
        s = math.sqrt(-kappa)
        cd = math.cosh(s * r1) * math.cosh(s * r2) - math.sinh(s * r1) * math.sinh(s * r2) * math.cos(dt)
        return math.acosh(max(1.0, cd)) / s
    return math.hypot(r1 * math.cos(t1) - r2 * math.cos(t2), r1 * math.sin(t1) - r2 * math.sin(t2))


def well_separated(d: np.ndarray, margin: float) -> bool:
    """Positive distances with no point metrically between two others (relative margin)."""
    m = margin * float(d.max())
    if d[np.triu_indices(4, 1)].min() <= m:
        return False
    for j in range(4):
        for i, k in combinations([x for x in range(4) if x != j], 2):
            if d[i, k] >= d[i, j] + d[j, k] - m:
                return False
    return True


def surface_quadruple(kappa: float, rng) -> np.ndarray:
    """Four points in a cap of the curvature-kappa surface (radius 0.1..0.6 / sqrt|kappa|)."""
    shrink = 1.0 / math.sqrt(max(abs(kappa), 1.0))
    while True:
        pts = list(zip(rng.uniform(0.1, 0.6, size=4) * shrink, rng.uniform(0.0, TWO_PI, size=4)))
        d = np.zeros((4, 4))
        for i, j in PAIRS:
            d[i, j] = d[j, i] = model_distance(kappa, pts[i], pts[j])
        if d[np.triu_indices(4, 1)].min() < 0.05 * shrink:
            continue
        if well_separated(d, 1e-3 * shrink):
            return d


def sphere_quadruple(rng) -> np.ndarray:
    """Four uniform unit vectors with their geodesic distances (curvature 1).

    Only the library's own non-degeneracy margin is applied: this is the
    population on which the Wald solver's defects were measured.
    """
    while True:
        u = rng.normal(size=(4, 3))
        u /= np.linalg.norm(u, axis=1, keepdims=True)
        d = np.arccos(np.clip(u @ u.T, -1.0, 1.0))
        np.fill_diagonal(d, 0.0)
        if well_separated(d, 1e-12):
            return d


def space_quadruple(rng) -> np.ndarray:
    """Four uniform points of [0, 2]^3 spanning a tetrahedron of clear volume."""
    while True:
        p = rng.uniform(0.0, 2.0, size=(4, 3))
        d = np.linalg.norm(p[:, None] - p[None], axis=2)
        vol = abs(np.linalg.det(p[1:] - p[0])) / 6.0
        if well_separated(d, 1e-3) and vol > 1e-3 * float(d.max()) ** 3:
            return d


def pairwise_text(d: np.ndarray) -> str:
    """The ``--quadruple`` argument format: d12,d13,d14,d23,d24,d34."""
    return ",".join(repr(float(d[i, j])) for i, j in PAIRS)


def pairwise_matrix(text: str) -> np.ndarray:
    """The 4x4 distance matrix of a ``--quadruple`` argument."""
    d = np.zeros((4, 4))
    for (i, j), x in zip(PAIRS, text.split(",")):
        d[i, j] = d[j, i] = float(x)
    return d
