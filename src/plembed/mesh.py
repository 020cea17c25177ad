"""Triangle meshes and ASCII OFF ingestion.

Polygonal faces are fan-triangulated on load.  Meshes used by the dilatation
and link-volume routines must be closed and consistently oriented; the
orientation is normalized so the enclosed signed volume is positive
(outward normals), which makes every derived quantity invariant under a
global orientation flip of the input.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path

import numpy as np

from .errors import MeshError, ParseError


def rowdot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-wise dot products of two (k, 3) arrays, each equal bit for bit to ``np.dot`` of its rows.

    (A stack of 1x3 @ 3x1 products runs the dot kernel; einsum and sums may differ in the last place.)
    """
    return (a[:, None, :] @ b[:, :, None])[:, 0, 0]


@dataclass(frozen=True)
class PolyMesh:
    """Vertices (n, 3) and triangle faces (m, 3) with validated indices, and unit face normals.

    The arrays are read-only, so orientation, edge order, vertex stars and corner values are computed once and kept.
    """

    vertices: np.ndarray
    faces: np.ndarray
    face_normals: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        v = np.array(self.vertices, dtype=float)
        f = np.array(self.faces, dtype=int)
        if v.ndim != 2 or v.shape[1] != 3:
            raise MeshError("vertices must be an (n, 3) array")
        if not np.isfinite(v).all():
            raise MeshError("vertex coordinates must be finite")
        if f.ndim != 2 or f.shape[1] != 3:
            raise MeshError("faces must be an (m, 3) triangle array")
        if f.size and (f.min() < 0 or f.max() >= len(v)):
            raise MeshError("face index out of range")
        scale = float(np.abs(v).max()) if v.size else 1.0
        a, b, c = v[f[:, 0]], v[f[:, 1]], v[f[:, 2]]
        cross = np.cross(b - a, c - a)
        twice_area = np.sqrt(rowdot(cross, cross))
        repeats = (f[:, 0] == f[:, 1]) | (f[:, 1] == f[:, 2]) | (f[:, 2] == f[:, 0])
        bad = repeats | (0.5 * twice_area <= 1e-14 * scale * scale)
        if bad.any():
            k = int(np.argmax(bad))
            raise MeshError(f"face {k} repeats a vertex" if repeats[k] else f"face {k} is degenerate (zero area)")
        normals = cross / twice_area[:, None]
        for arr in (v, f, normals):
            arr.setflags(write=False)
        object.__setattr__(self, "vertices", v)
        object.__setattr__(self, "faces", f)
        object.__setattr__(self, "face_normals", normals)

    @cached_property
    def directed_edges(self) -> tuple[np.ndarray, np.ndarray]:
        """Directed edges (3m, 2) and the stable order that sorts them by edge.

        Row 3k + t runs from faces[k, t] to faces[k, (t + 1) % 3]; sorting by
        (min, max) vertex keeps the two sides of an edge in face order.
        """
        d = np.stack([self.faces, np.roll(self.faces, -1, axis=1)], axis=2).reshape(-1, 2)
        return d, np.lexsort((d.max(axis=1), d.min(axis=1)))

    def require_closed_manifold(self):
        d, order = self.directed_edges
        if not len(d):
            return
        key = np.sort(d, axis=1)[order]
        start = np.flatnonzero(np.r_[True, (key[1:] != key[:-1]).any(axis=1)])
        size = np.diff(start, append=len(key))
        # the clamp only moves a last edge with one side, which its size marks bad anyway
        first, second = order[start], order[np.minimum(start + 1, len(order) - 1)]
        bad = (size != 2) | (d[first, 0] == d[second, 0])
        if bad.any():
            g = np.flatnonzero(bad)
            g = g[np.argmin(first[g])]  # the first bad edge in face order
            edge = tuple(key[start[g]].tolist())
            if size[g] != 2:
                raise MeshError(f"edge {edge} borders {int(size[g])} faces; need a closed manifold")
            raise MeshError(f"edge {edge} traversed twice in the same direction; inconsistent orientation")

    def signed_volume(self) -> float:
        v, f = self.vertices, self.faces
        return float(np.sum(rowdot(v[f[:, 0]], np.cross(v[f[:, 1]], v[f[:, 2]])))) / 6.0

    @cached_property
    def _flipped(self) -> "PolyMesh | None":
        # None when already outward: caching self would make a reference cycle
        self.require_closed_manifold()
        return None if self.signed_volume() >= 0.0 else PolyMesh(self.vertices, self.faces[:, ::-1])

    def oriented_outward(self) -> "PolyMesh":
        """Copy with positive enclosed volume (outward face normals)."""
        return self if self._flipped is None else self._flipped

    @cached_property
    def _vertex_star(self) -> tuple[np.ndarray, np.ndarray]:
        """Faces around each vertex in index order, as CSR (face indices, row offsets)."""
        order = np.argsort(self.faces.ravel(), kind="stable")
        counts = np.bincount(self.faces.ravel(), minlength=len(self.vertices))
        return order // 3, np.r_[0, np.cumsum(counts)]

    @cached_property
    def _corners(self):
        """Every vertex's exact link volume and exterior angle, or its error (`qcbounds._corner_table`)."""
        from .qcbounds import _corner_table  # qcbounds builds on this module

        return _corner_table(self)

    def vertex_faces(self, v: int) -> list[int]:
        faces, offsets = self._vertex_star
        return faces[offsets[v] : offsets[v + 1]].tolist() if 0 <= v < len(self.vertices) else []


def parse_off(text: str) -> PolyMesh:
    """Parse ASCII OFF; polygonal faces are fan-triangulated.

    Comment lines (``#``) and blank lines are allowed anywhere.
    """
    rows = []
    for ln, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            rows.append((ln, line))
    if not rows:
        raise ParseError("empty OFF document")
    ln, header = rows[0]
    if header != "OFF":
        raise ParseError("expected 'OFF' header", line=ln)
    if len(rows) < 2:
        raise ParseError("missing counts line", line=ln)
    ln, counts = rows[1]
    parts = counts.split()
    if len(parts) != 3:
        raise ParseError("counts line must be 'nv nf ne'", line=ln)
    try:
        nv, nf = int(parts[0]), int(parts[1])
    except ValueError:
        raise ParseError("bad counts", line=ln) from None
    body = rows[2:]
    if len(body) < nv + nf:
        raise ParseError(f"expected {nv} vertex and {nf} face lines")
    vertices = []
    for ln, line in body[:nv]:
        parts = line.split()
        if len(parts) < 3:
            raise ParseError("vertex line needs three coordinates", line=ln)
        try:
            vertices.append([float(x) for x in parts[:3]])
        except ValueError:
            raise ParseError("bad vertex coordinate", line=ln) from None
    faces = []
    for ln, line in body[nv : nv + nf]:
        parts = line.split()
        try:
            k = int(parts[0])
            idx = [int(x) for x in parts[1 : 1 + k]]
        except (ValueError, IndexError):
            raise ParseError("bad face line", line=ln) from None
        if len(idx) != k or k < 3:
            raise ParseError(f"face needs {k} indices", line=ln)
        for t in range(1, k - 1):
            faces.append([idx[0], idx[t], idx[t + 1]])
    return PolyMesh(np.array(vertices, dtype=float), np.array(faces, dtype=int))


def load_off(path) -> PolyMesh:
    return parse_off(Path(path).read_text())
