"""Oracles that recompute each workload's answers without calling plembed.

They share no code with the library: shortest paths come from a heap
Dijkstra, dihedral angles from one vectorized pass, corner solid angles from
Van Oosterom-Strackee triangle sums (IEEE TBME 30, 1983), and dual-cone
volumes from the angle defect (Gauss-Bonnet).
"""

from __future__ import annotations

import heapq
import math
from itertools import combinations

import numpy as np

TWO_PI = 2.0 * math.pi
FOUR_PI = 4.0 * math.pi


# ---------------------------------------------------------------------------
# Graph distances and comparison angles.


def adjacency(n: int, edges: np.ndarray, lengths: np.ndarray) -> list[dict[int, float]]:
    adj: list[dict[int, float]] = [{} for _ in range(n)]
    for (a, b), w in zip(edges.tolist(), lengths.tolist()):
        adj[a][b] = w
        adj[b][a] = w
    return adj


def dijkstra(adj: list[dict[int, float]], source: int, radius: float) -> dict[int, float]:
    """Shortest-path distances from `source` to every vertex within `radius`."""
    dist = {source: 0.0}
    heap = [(0.0, source)]
    done = set()
    while heap:
        d, u = heapq.heappop(heap)
        if u in done:
            continue
        done.add(u)
        for w, length in adj[u].items():
            nd = d + length
            if nd <= radius and nd < dist.get(w, math.inf):
                dist[w] = nd
                heapq.heappush(heap, (nd, w))
    return dist


def star_distances(adj: list[dict[int, float]], v: int) -> tuple[list[int], dict[tuple[int, int], float]]:
    """Sorted neighbours of v and the graph distances among v and them.

    Each search from a neighbour a stops at w(a, v) + max_w(v): any other
    neighbour b is reachable within that through v.
    """
    nbrs = sorted(adj[v])
    reach = max(adj[v].values())
    d: dict[tuple[int, int], float] = {}
    for a in [v] + nbrs:
        dist = dijkstra(adj, a, (0.0 if a == v else adj[v][a]) + reach)
        for b in [v] + nbrs:
            d[a, b] = dist[b]
    return nbrs, d


def between(d: np.ndarray, margin: float = 1e-12) -> bool:
    """True when some point of the 4x4 metric lies between two others."""
    m = margin * float(d.max())
    for j in range(4):
        for i, k in combinations([x for x in range(4) if x != j], 2):
            if d[i, k] >= d[i, j] + d[j, k] - m:
                return True
    return False


def model_angle(kappa: float, opposite: float, b: float, c: float) -> float:
    """Apex angle from the law of cosines in the curvature-kappa model."""
    if kappa > 0.0:
        s = math.sqrt(kappa)
        x = (math.cos(s * opposite) - math.cos(s * b) * math.cos(s * c)) / (math.sin(s * b) * math.sin(s * c))
    elif kappa < 0.0:
        s = math.sqrt(-kappa)
        x = (math.cosh(s * b) * math.cosh(s * c) - math.cosh(s * opposite)) / (math.sinh(s * b) * math.sinh(s * c))
    else:
        x = (b * b + c * c - opposite * opposite) / (2.0 * b * c)
    return math.acos(max(-1.0, min(1.0, x)))


def apex_angles(d: np.ndarray, kappa: float, i: int) -> list[float]:
    """The three comparison angles at point i, for the pairs of the others in order."""
    rest = [j for j in range(4) if j != i]
    return [model_angle(kappa, d[j, l], d[i, j], d[i, l]) for j, l in combinations(rest, 2)]


def star_slacks(d: np.ndarray, kappa: float) -> dict:
    """Flat excess slack, flat angle slacks at the base and the kappa curvature slack."""
    excess = TWO_PI - max(sum(apex_angles(d, 0.0, i)) for i in range(4))
    a1, a2, a3 = apex_angles(d, 0.0, 0)
    return {
        "excess": excess,
        "angles": [a2 + a3 - a1, a1 + a3 - a2, a1 + a2 - a3],
        "curvature": TWO_PI - sum(apex_angles(d, kappa, 0)),
    }


def model_gram(d: np.ndarray, kappa: float) -> np.ndarray:
    """Gram matrix of the four points in the curvature-kappa model's ambient space.

    Unit vectors of R^3 for kappa > 0 (cosines of the angles sqrt(kappa) d),
    points of the hyperboloid under the (-, +, +) form for kappa < 0, and
    centred points of the plane (classical scaling) for kappa = 0.
    """
    if kappa == 0.0:
        j = np.eye(4) - 0.25
        return -0.5 * j @ (d * d) @ j
    s = math.sqrt(abs(kappa))
    return np.cos(s * d) if kappa > 0.0 else -np.cosh(s * d)


def is_model_root(d: np.ndarray, kappa: float, rtol: float = 1e-10) -> bool:
    """True when the quadruple is realized in the 2-dimensional curvature-kappa model.

    That holds when the model Gram matrix has the rank and signature of the
    model's ambient space: rank at most three with no negative eigenvalue on
    the sphere or at most one on the hyperboloid; in the plane, where
    centring already zeroes one eigenvalue, rank at most two with none
    negative.  Eigenvalues within `rtol` of the largest one count as zero.
    """
    if kappa > 0.0 and math.sqrt(kappa) * float(d.max()) > math.pi * (1.0 + rtol):
        return False
    lam = np.linalg.eigvalsh(model_gram(d, kappa))
    tol = rtol * float(np.max(np.abs(lam)))
    zeros = int(np.sum(np.abs(lam) <= tol))
    negative = int(np.sum(lam < -tol))
    return zeros >= (2 if kappa == 0.0 else 1) and negative <= (1 if kappa < 0.0 else 0)


def witness_violation(d: np.ndarray, kappa: float, name: str) -> float:
    """How far the named inequality of a star quadruple is violated (> 0 when it is)."""
    if name == "excess":
        return -star_slacks(d, kappa)["excess"]
    if name == "curvature":
        return -star_slacks(d, kappa)["curvature"]
    which, _, at = name[len("angle") :].partition("@")
    angles = apex_angles(d, 0.0, int(at or 0))
    w = int(which)
    return angles[w] - sum(a for m, a in enumerate(angles) if m != w)


# ---------------------------------------------------------------------------
# Meshes.


def face_normals(v: np.ndarray, f: np.ndarray) -> np.ndarray:
    n = np.cross(v[f[:, 1]] - v[f[:, 0]], v[f[:, 2]] - v[f[:, 0]])
    return n / np.linalg.norm(n, axis=1, keepdims=True)


def dihedral_audit(v: np.ndarray, f: np.ndarray) -> dict:
    """Interior dihedral angle of every edge of a closed mesh, in sorted edge order.

    Orientation is normalized to positive enclosed volume first.  Returns the
    sorted edge keys, their interior angles, the convex mask and the bound
    max(1, max pi / angle over convex edges).
    """
    vol = np.einsum("ij,ij->i", v[f[:, 0]], np.cross(v[f[:, 1]], v[f[:, 2]])).sum()
    if vol < 0.0:
        f = f[:, ::-1]
    normals = face_normals(v, f)
    directed = np.concatenate([f[:, [0, 1]], f[:, [1, 2]], f[:, [2, 0]]])
    face_of = np.tile(np.arange(len(f)), 3)
    keys = np.sort(directed, axis=1)
    order = np.lexsort((keys[:, 1], keys[:, 0]))
    first, second = order[0::2], order[1::2]
    # f1 is the face that traverses the edge from the smaller to the larger index
    swap = directed[first, 0] != keys[first, 0]
    f1 = np.where(swap, face_of[second], face_of[first])
    f2 = np.where(swap, face_of[first], face_of[second])
    e = keys[first]
    ehat = v[e[:, 1]] - v[e[:, 0]]
    ehat /= np.linalg.norm(ehat, axis=1, keepdims=True)
    n1, n2 = normals[f1], normals[f2]
    bend = np.arctan2(np.einsum("ij,ij->i", np.cross(n1, n2), ehat), np.einsum("ij,ij->i", n1, n2))
    angle = math.pi - bend
    convex = angle <= math.pi * (1.0 + 1e-12)
    bound = max(1.0, float(np.max(math.pi / angle[convex], initial=1.0)))
    return {"edges": e, "angles": angle, "convex": convex, "bound": bound}


def corner_kinds(n: int, audit: dict) -> list[str]:
    """convex, reflex or saddle per vertex, from the convexity of its edges."""
    e, convex = audit["edges"], audit["convex"]
    has_convex = np.zeros(n, dtype=bool)
    has_reflex = np.zeros(n, dtype=bool)
    for col in (0, 1):
        has_convex[e[convex, col]] = True
        has_reflex[e[~convex, col]] = True
    return ["saddle" if c and r else ("convex" if c else "reflex") for c, r in zip(has_convex, has_reflex)]


def link_cycle(f: np.ndarray, p: int) -> list[int]:
    """Link vertices of p in the order of the outward-oriented faces around it."""
    succ = {}
    for face in f[np.any(f == p, axis=1)].tolist():
        t = face.index(p)
        succ[face[(t + 1) % 3]] = face[(t + 2) % 3]
    cycle = [min(succ)]
    while succ[cycle[-1]] != cycle[0]:
        cycle.append(succ[cycle[-1]])
    return cycle


def interior_solid_angle(v: np.ndarray, f: np.ndarray, p: int) -> float:
    """Solid angle of the solid side at vertex p, normalized by 4*pi.

    The link polygon winds counter-clockwise around the outside, so the sum
    of Van Oosterom-Strackee angles of the triangles (pole, u_i, u_i+1) is the
    exterior area mod 4*pi, whatever the corner's shape.  The pole is the
    axis direction farthest from every antipode of the link.
    """
    u = v[link_cycle(f, p)] - v[p]
    u /= np.linalg.norm(u, axis=1, keepdims=True)
    axes = np.vstack([np.eye(3), -np.eye(3)])
    c = axes[np.argmax(np.min(1.0 + axes @ u.T, axis=1))]
    a, b = u, np.roll(u, -1, axis=0)
    num = np.einsum("j,ij->i", c, np.cross(a, b))
    den = 1.0 + a @ c + b @ c + np.einsum("ij,ij->i", a, b)
    exterior = float(np.sum(2.0 * np.arctan2(num, den)))
    return (-exterior / FOUR_PI) % 1.0


def exterior_angle(v: np.ndarray, f: np.ndarray, p: int) -> float:
    """Dual-cone volume at a convex corner: angle defect over 4*pi (Gauss-Bonnet)."""
    total = 0.0
    for face in f[np.any(f == p, axis=1)].tolist():
        t = face.index(p)
        a = v[face[(t + 1) % 3]] - v[p]
        b = v[face[(t + 2) % 3]] - v[p]
        total += math.atan2(float(np.linalg.norm(np.cross(a, b))), float(np.dot(a, b)))
    return (TWO_PI - total) / FOUR_PI
