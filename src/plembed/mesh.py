"""Triangle meshes and ASCII OFF ingestion.

Polygonal faces are fan-triangulated on load.  Meshes used by the dilatation
and link-volume routines must be closed and consistently oriented; the
orientation is normalized so the enclosed signed volume is positive
(outward normals), which makes every derived quantity invariant under a
global orientation flip of the input.
"""

from __future__ import annotations

from dataclasses import InitVar, dataclass, field
from functools import cached_property
from pathlib import Path

import numpy as np

from .errors import MeshError, ParseError


def rowdot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-wise dot products of two (k, n) arrays, each equal bit for bit to ``np.dot`` of its rows.

    (A stack of 1xn @ nx1 products runs the dot kernel; einsum and sums may differ in the last place.)
    """
    return (a[:, None, :] @ b[:, :, None])[:, 0, 0]


@dataclass(frozen=True)
class PolyMesh:
    """Vertices (n, 3) and triangle faces (m, 3) with validated indices, and unit face normals.

    The arrays are read-only, so orientation, edge order and corner values are computed once and kept.
    """

    vertices: np.ndarray
    faces: np.ndarray
    source: InitVar[np.ndarray | None] = None  # what a face error names for each face, if not its index (an OFF face)
    face_normals: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self, source):
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
            name = k if source is None else int(source[k])
            raise MeshError(f"face {name} repeats a vertex" if repeats[k] else f"face {name} is degenerate (zero area)")
        normals = cross / twice_area[:, None]
        for arr in (v, f, normals):
            arr.setflags(write=False)
        object.__setattr__(self, "vertices", v)
        object.__setattr__(self, "faces", f)
        object.__setattr__(self, "face_normals", normals)

    @cached_property
    def directed_edges(self) -> tuple[np.ndarray, np.ndarray]:
        """Directed edges (3m, 2) and the stable order that sorts them by edge.

        Row 3k + t runs from faces[k, t] to faces[k, (t + 1) % 3]; a stable sort
        of the one key min * n + max keeps the two sides of an edge in face order.
        """
        d = np.stack([self.faces, np.roll(self.faces, -1, axis=1)], axis=2).reshape(-1, 2)
        return d, np.argsort(self._edge_key(d), kind="stable")

    def _edge_key(self, d: np.ndarray) -> np.ndarray:
        return d.min(axis=1) * len(self.vertices) + d.max(axis=1)

    def require_closed_manifold(self):
        d, order = self.directed_edges
        if not len(d):
            return
        key = self._edge_key(d)[order]
        start = np.flatnonzero(np.r_[True, key[1:] != key[:-1]])
        size = np.diff(start, append=len(key))
        # the clamp only moves a last edge with one side, which its size marks bad anyway
        first, second = order[start], order[np.minimum(start + 1, len(order) - 1)]
        bad = (size != 2) | (d[first, 0] == d[second, 0])
        if bad.any():
            g = np.flatnonzero(bad)
            g = g[np.argmin(first[g])]  # the first bad edge in face order
            edge = divmod(int(key[start[g]]), len(self.vertices))
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
    def _corners(self):
        """Every vertex's exact link volume and exterior angle, or its error (`qcbounds._corner_table`)."""
        from .qcbounds import _corner_table  # qcbounds builds on this module

        return _corner_table(self)

    def vertex_faces(self, v: int) -> list[int]:
        return np.flatnonzero((self.faces == v).any(axis=1)).tolist()


def parse_off(text: str) -> PolyMesh:
    """Parse ASCII OFF; polygonal faces are fan-triangulated.

    Comment lines (``#``) and blank lines are allowed anywhere.  Each block
    is split once and converted by ``np.array``; the lines are checked one at
    a time only to name the first bad one.  A face error names the OFF face.
    """
    lines = text.splitlines()
    if "#" in text:
        lines = [line.split("#", 1)[0] for line in lines]
    rows = list(filter(str.strip, lines))
    numbers = lambda: [n for n, line in enumerate(lines, 1) if line.strip()]  # of each row, for errors
    if not rows:
        raise ParseError("empty OFF document")
    if rows[0].strip() != "OFF":
        raise ParseError("expected 'OFF' header", line=numbers()[0])
    if len(rows) < 2:
        raise ParseError("missing counts line", line=numbers()[0])
    parts = rows[1].split()
    if len(parts) != 3:
        raise ParseError("counts line must be 'nv nf ne'", line=numbers()[1])
    try:
        nv, nf = int(parts[0]), int(parts[1])
        if min(nv, nf) < 0:
            raise ValueError("a negative count")
    except ValueError:
        raise ParseError("bad counts", line=numbers()[1]) from None
    body = rows[2:]
    if len(body) < nv + nf:
        raise ParseError(f"expected {nv} vertex and {nf} face lines")
    vblock, fblock = body[:nv], body[nv : nv + nf]
    try:
        (vertices, _), (idx, k) = _numbers(vblock, faces=False), _numbers(fblock, faces=True)
    except (ValueError, OverflowError):  # a bad line, or an index beyond int64
        at = numbers()[2:]
        error = _bad_line(vblock, at[:nv], faces=False) or _bad_line(fblock, at[nv : nv + nf], faces=True)
        raise error or MeshError("face index out of range") from None
    # polygon p = (i1, ..., ik) fans into the triangles (i1, it, it+1), t = 2 .. k - 1, each named p in errors
    poly = np.repeat(np.arange(len(k)), k - 2)
    apex = (np.cumsum(k) - k)[poly]
    second = apex + np.arange(len(poly)) - (np.cumsum(k - 2) - (k - 2))[poly] + 1
    faces = idx[np.stack([apex, second, second + 1], axis=1)]
    # an empty block stays the shape-(0,) array that PolyMesh rejects
    return PolyMesh(vertices.reshape(-1, 3) if vblock else vertices, faces if fblock else idx, poly)


def _numbers(lines: list[str], faces: bool) -> tuple[np.ndarray, np.ndarray]:
    """Per line of a block, from one split: the floats x y z of 'x y z [extra]', or the k ints of 'k i1 ... ik [extra]'.

    Returns them flat, and how many each line gives; raises ValueError at a bad line, OverflowError beyond int64.
    """
    tokens: list[str] = []  # each line's split, appended and dropped: a list kept per line costs the collector more

    def read(kind: type, at: np.ndarray) -> np.ndarray:  # kind(token), float or int, of the tokens at positions at
        return np.array([*map(tokens.__getitem__, at.tolist())], dtype=kind)

    width = np.fromiter((tokens.extend(parts) or len(parts) for parts in map(str.split, lines)), int, len(lines))
    start = np.cumsum(width) - width
    k = read(int, start) if faces else np.full(len(lines), 3)
    if np.any((k < 3) | (k + faces > width)):
        raise ValueError("a line has too few numbers")
    return read(int if faces else float, np.repeat(start + faces - np.cumsum(k) + k, k) + np.arange(k.sum())), k


def _bad_line(lines: list[str], numbers: list[int], faces: bool) -> ParseError | None:
    """The error at the first bad line of a block, checked one line at a time as the block was first parsed."""
    for ln, parts in zip(numbers, map(str.split, lines)):
        if not faces and len(parts) < 3:
            return ParseError("vertex line needs three coordinates", line=ln)
        try:
            k = int(parts[0]) if faces else 3
            idx = [(int if faces else float)(x) for x in parts[faces : faces + k]]
        except ValueError:
            return ParseError("bad face line" if faces else "bad vertex coordinate", line=ln)
        if len(idx) != k or k < 3:
            return ParseError(f"face needs {k} indices", line=ln)


def load_off(path) -> PolyMesh:
    return parse_off(Path(path).read_text())
