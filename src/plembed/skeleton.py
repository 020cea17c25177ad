"""Metric graphs and curvature-compatibility systems on their skeletons.

A metric graph carries positive edge lengths; all quadruple checks use the
shortest-path metric of the whole graph, not just intra-star edges.  A star
quadruple at a vertex v consists of v and three of its neighbours.
Degenerate quadruples (a point metrically between two others, which happens
whenever a shortest path between two neighbours runs through v) are skipped
and reported, never guessed.

Star distances come from one search ball per vertex a: every vertex within
the radius R(a) = max over neighbours v of w(a, v) plus the longest edge at
v (widened by SEARCH_MARGIN), at its graph distance.  Every star distance
read from a ball lies within R(a), since d(a, v) <= w(a, v) for a neighbour
v and d(a, b) <= w(a, v) + w(v, b) for a vertex b sharing the neighbour v;
so no all-pairs matrix is needed.  All balls grow together in one bounded
relaxation over the CSR adjacency: each round extends by one edge the paths
whose distance fell in the round before and keeps, per (source, vertex)
key, the smallest sum within R(source); the rounds stop when no distance
falls.  The rounded sum fl(d + w) never decreases as d grows, so the
fixpoint is, per key, the smallest left-to-right rounded sum of edge
lengths over all paths, which is exactly what a Dijkstra search settles;
and every prefix of a path that ends within R(a) is within R(a) too, so
dropping the candidates beyond it loses none.  For the same reason a key
whose distance plus the shortest edge at its vertex passes R(source) is
not extended: fl(d + w) >= fl(d + shortest) for every edge w there.

Most stars of a skeleton are degenerate, and one pair of neighbours a, b
often decides it: a triple (a, v, b), (v, a, b) or (v, b, a) through the
base v that is a betweenness on its own.  So each base's block of
distances among it and its neighbours is screened by pairs before any star
is cut from it, with `quadruple._betweenness`'s arithmetic on
`quadruple._symmetrized`'s entries, at the triple's own margin.  That is
exact: a star's margin is at least the margin of each of its triples, and
fl(p - m) does not grow with m, so a triple between at its own margin is
between at the star's.  A star with a flagged pair is settled as
degenerate, with no 4 x 4 block, only when its base's block is clean:
finite, with a zero diagonal and positive symmetrized entries, and each
pair's asymmetry and each triple's triangle inequality within
TRIANGLE_SLACK times the largest raw entry of that pair or triple.  Those
raw entries belong to every star that holds the pair or triple, so each
slack is at most the star's own and no settled star has a defect.  (A
slack read from symmetrized entries could exceed it: below 2**-1021,
fl(0.5 a + 0.5 b) can exceed max(a, b).)  The stars of a base that is not
clean are all cut and validated, so the defect of every star, and the
worst at each base, are the ones the full screen gives.
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import dataclass
from itertools import count
from typing import Mapping

import numpy as np

from .errors import (
    DomainError,
    DuplicateEdgeError,
    MissingKappaError,
    NonpositiveLengthError,
    ParseError,
    UnknownVertexError,
)
from .quadruple import (
    _DEFECTS,
    BETWEENNESS_MARGIN,
    EmbeddabilityCertificate,
    _angle_table,
    _betweenness,
    _block_layout,
    _certificate_columns,
    _star_positions,
    _symmetrized,
)
from .spaceform import ANGLE_TOL, TRIANGLE_SLACK

SEARCH_MARGIN = 1e-12  # relative widening of each star-search radius R(a)
STAR_RANGE = 4096  # search balls grown, and bases whose stars are gathered, at a time (memory only)


def _edges_at(indptr: np.ndarray, vertices: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """CSR positions of the edges at each of ``vertices``, vertex after vertex, and their degrees."""
    deg = indptr[vertices + 1] - indptr[vertices]
    return np.arange(deg.sum()) + np.repeat(indptr[vertices] - np.cumsum(deg) + deg, deg), deg


def _first(items, good) -> int:
    """The position of the first of ``items`` that ``good`` rejects, once a check of them all has failed."""
    return next(k for k, x in enumerate(items) if not good(x))


def _real(x) -> float:
    """A real number as a float (an integer beyond the float range becomes an infinity); nan for anything else."""
    try:
        return float(x) if isinstance(x, numbers.Real) else math.nan
    except OverflowError:
        return math.inf if x > 0 else -math.inf


def _column(values: tuple) -> np.ndarray:
    """Entries as floats by `_real`, in one conversion when numpy reads them all as numbers."""
    try:
        col = np.array(values)
        if col.dtype.kind in "biuf" and col.ndim == 1:
            return col.astype(float)
    except ValueError:  # entries of unequal shapes
        pass
    return np.fromiter(map(_real, values), float, len(values))


def _triples(items: list, what: str, head) -> tuple[tuple, tuple, tuple]:
    """The three columns of ``items``, each a triple ``what`` (as in "(i, j, length)").

    At the first item that is not a triple, ``head`` runs on the items
    before it, so that a fault there raises first; then a DomainError
    names the item as ``edges[k]``.
    """
    try:
        first, second, third = zip(*items, strict=True) if items else ((), (), ())
    except (TypeError, ValueError):
        k = _first(items, lambda e: hasattr(e, "__len__") and len(e) == 3)
        head(items[:k])
        raise DomainError(f"edges[{k}]: expected {what}, got {items[k]!r}") from None
    return first, second, third


def _edge_table(edges: list, labels: tuple[str, ...]) -> tuple[np.ndarray, np.ndarray]:
    """Index pairs (m, 2), the smaller first, and float lengths of (i, j, length) edges, in one pass over arrays.

    Indices are integers or integral floats.  Each edge gets a fault code,
    the first that applies of: 1 an index not integral, 2 an index out of
    range, 3 a self-loop, 4 a length not positive and finite (a TypeError
    when it is not a number), 5 an edge given before (`np.unique` sorts
    the keys stably).  The first faulty edge in input order raises its
    error, as does the first item that is not an (i, j, length) triple.
    """
    i, j, w = map(_column, _triples(edges, "(i, j, length)", lambda head: _edge_table(head, labels)))
    lo, hi, n = np.minimum(i, j), np.maximum(i, j), len(labels)
    integral, inside = (i == np.floor(i)) & (j == np.floor(j)), (lo >= 0) & (hi < n)
    lo, hi = (np.where(integral & inside, x, 0).astype(np.intp) for x in (lo, hi))
    again = np.ones(len(w), dtype=bool)
    again[np.unique(lo * n + hi, return_index=True)[1]] = False  # all but the first edge of each key
    fault = np.select([~integral, ~inside, lo == hi, ~((w > 0.0) & (w < math.inf)), again], [1, 2, 3, 4, 5])
    if fault.any():
        k = int(np.argmax(fault > 0))
        (u, v, length), code = edges[k], fault[k]
        if code <= 2:
            raise UnknownVertexError(f"edge index {['not an integer', 'out of range'][code - 1]}: ({u}, {v})")
        u, v = labels[int(i[k])], labels[int(j[k])]
        if code == 3:
            raise DomainError(f"self-loop at vertex {u!r}")
        if code == 5:
            raise DuplicateEdgeError(f"duplicate edge ({u}, {v})")
        if not isinstance(length, numbers.Real):
            raise TypeError(f"edge ({u}, {v}) length must be a number, got {length!r}")
        raise NonpositiveLengthError(f"edge ({u}, {v}) length must be positive and finite")
    return np.stack([lo, hi], axis=1), w


class MetricGraph:
    """Undirected graph with positive edge lengths and shortest-path metric."""

    def __init__(self, labels, edges):
        self.labels: tuple[str, ...] = tuple(map(str, labels))
        n = len(self.labels)
        if len(set(self.labels)) != n:
            raise DomainError("vertex labels must be unique")
        self._index = dict(zip(self.labels, range(n)))
        self._ends, self._lengths = _edge_table(list(edges), self.labels)
        # CSR adjacency: the neighbours of vertex i, in increasing order, and
        # the edge lengths to them are _nbr and _w over _indptr[i]:_indptr[i + 1]
        tail, head = np.concatenate([self._ends, self._ends[:, ::-1]]).T
        order = np.argsort(tail * n + head)
        self._indptr = np.concatenate([[0], np.cumsum(np.bincount(tail, minlength=n))])
        self._nbr = head[order]
        self._w = np.tile(self._lengths, 2)[order]
        # R(a): max over neighbours v of w(a, v) plus the longest edge at v
        # (0 at an isolated vertex), widened by SEARCH_MARGIN
        has_edges = self._indptr[1:] > self._indptr[:-1]
        starts = self._indptr[:-1][has_edges]
        longest, radius, self._shortest = np.zeros(n), np.zeros(n), np.full(n, math.inf)  # inf: no edge at all
        longest[has_edges] = np.maximum.reduceat(self._w, starts)
        self._shortest[has_edges] = np.minimum.reduceat(self._w, starts)
        with np.errstate(over="ignore"):  # lengths near the top of the float range: an infinite radius
            radius[has_edges] = np.maximum.reduceat(self._w + longest[self._nbr], starts)
            self._radius = radius * (1.0 + SEARCH_MARGIN)

    @property
    def edges(self) -> tuple[tuple[int, int, float], ...]:
        """Every edge as (i, j, length) with i < j, in input order."""
        return tuple(zip(*self._ends.T.tolist(), self._lengths.tolist()))

    @classmethod
    def from_edge_list(cls, triples) -> "MetricGraph":
        """Build from (label, label, length) triples; vertex order of first appearance.

        An item that is not such a triple raises a DomainError naming it as ``edges[k]``.
        """
        return cls._labelled(*_triples(list(triples), "(label, label, length)", cls.from_edge_list))

    @classmethod
    def _labelled(cls, us, vs, lengths, labels=None) -> "MetricGraph":
        """The graph of the edges (us[k], vs[k], lengths[k]) between labels.

        Its vertices are ``labels`` or, when that is None, the labels in order of first appearance.
        """
        ends = [None] * (2 * len(us))
        ends[::2], ends[1::2] = us, vs
        index = dict(zip(dict.fromkeys(ends) if labels is None else labels, count()))
        try:
            pairs = iter([*map(index.__getitem__, ends)])  # read twice per edge: the indices of u and v
        except KeyError as e:
            raise UnknownVertexError(f"edge endpoint {e.args[0]!r} not in 'vertices'") from None
        return cls([*index] if labels is None else labels, zip(pairs, pairs, lengths))

    @property
    def num_vertices(self) -> int:
        return len(self.labels)

    def index(self, v) -> int:
        if isinstance(v, (int, np.integer)):
            if not 0 <= v < len(self.labels):
                raise UnknownVertexError(f"vertex index {v} out of range")
            return int(v)
        try:
            return self._index[v]
        except KeyError:
            raise UnknownVertexError(f"unknown vertex {v!r}") from None

    def _balls(self, sources: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The search balls of ``sources`` (sorted, distinct), by the relaxation in the module docstring.

        Returns the sorted keys ``s * n + vertex`` of every vertex within
        R(s) of a source s, and their graph distances.
        """
        n = self.num_vertices
        keys, dist = sources * n + sources, np.zeros(len(sources))
        front, front_dist = keys, dist
        while len(front):
            edge, deg = _edges_at(self._indptr, front % n)
            src = np.repeat(front // n, deg)
            with np.errstate(over="ignore"):  # an infinite distance; the star screen rejects it
                cand = np.repeat(front_dist, deg) + self._w[edge]
            near = cand <= self._radius[src]
            cand_keys, cand = src[near] * n + self._nbr[edge[near]], cand[near]
            # the smallest candidate per key
            order = np.argsort(cand_keys)
            cand_keys, cand = cand_keys[order], cand[order]
            first = np.flatnonzero(np.diff(cand_keys, prepend=-1))
            cand_keys, cand = cand_keys[first], np.minimum.reduceat(cand, first)
            # keys not seen yet, and known keys whose distance falls
            pos = np.searchsorted(keys, cand_keys)
            at = np.minimum(pos, len(keys) - 1)
            known = keys[at] == cand_keys
            fell = known & (cand < dist[at])
            dist[at[fell]] = cand[fell]
            new = ~known
            keys, dist = np.insert(keys, pos[new], cand_keys[new]), np.insert(dist, pos[new], cand[new])
            front, front_dist = cand_keys[fell | new], cand[fell | new]
            with np.errstate(over="ignore"):  # a key whose shortest edge leads beyond R(source) makes no candidate
                reach = front_dist + self._shortest[front % n] <= self._radius[front // n]
            front, front_dist = front[reach], front_dist[reach]
        return keys, dist


def parse_metric_graph(text: str) -> MetricGraph:
    """Parse the plain edge-list format: ``label label length`` per line.

    ``#`` starts a comment; blank lines are ignored.  Raises ParseError
    (with the line number), DuplicateEdgeError, or NonpositiveLengthError.
    """
    triples = []
    seen: dict[tuple[str, str], int] = {}
    for ln, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 3:
            raise ParseError("expected 'label label length'", line=ln)
        u, v, token = parts
        if u == v:
            raise ParseError(f"self-loop at {u!r}", line=ln)
        try:
            length = float(token)
        except ValueError:
            raise ParseError(f"bad length {token!r}", line=ln) from None
        if not (math.isfinite(length) and length > 0.0):
            raise NonpositiveLengthError(f"edge length must be positive and finite, got {token}", line=ln)
        key = (min(u, v), max(u, v))
        if key in seen:
            raise DuplicateEdgeError(f"edge ({u}, {v}) already given on line {seen[key]}", line=ln)
        seen[key] = ln
        triples.append((u, v, length))
    return MetricGraph.from_edge_list(triples)


def _json_number(x, what: str) -> float:
    """A JSON number as a float (an integer too large for one becomes an infinity)."""
    if isinstance(x, bool) or not isinstance(x, (int, float)):
        raise ParseError(f"{what} must be a number, got {json.dumps(x)}")
    return _real(x)


def _json_edges(items: list) -> tuple[list[str], list[str], tuple]:
    """The label, label and length columns of JSON ``[u, v, length]`` items, the labels as strings.

    The checks run on whole columns, by the set of types in each; when one
    fails, `_first` finds the first malformed item in document order, whose
    error is raised.  Lengths stay JSON numbers, which the graph converts.
    """
    if not ({*map(type, items)} <= {list} and {*map(len, items)} <= {3}):
        k = _first(items, lambda e: type(e) is list and len(e) == 3)
        _json_edges(items[:k])  # a fault before it raises first
        raise ParseError(f"edges[{k}]: expected [u, v, length]")
    us, vs, ws = zip(*items) if items else ((), (), ())
    columns = ((us, {str, int}), (vs, {str, int}), (ws, {int, float}))
    bad = [  # (item, column) of the first entry of a wrong type, in each column that has one
        (_first(col, lambda x: type(x) in ok), c) for c, (col, ok) in enumerate(columns) if not {*map(type, col)} <= ok
    ]
    if bad:
        k, c = min(bad)
        what = f"edges[{k}] length must be a number" if c == 2 else f"edges[{k}][{c}] must be a string or an integer"
        raise ParseError(f"{what}, got {json.dumps(items[k][c])}")
    return [*map(str, us)], [*map(str, vs)], ws


def parse_graph_document(text: str) -> tuple[MetricGraph, dict[str, float] | None]:
    """Parse either the edge-list format or the structured JSON document.

    The JSON schema is ``{"vertices": [...], "edges": [[u, v, length], ...],
    "kappa": ...}`` with ``vertices`` and ``kappa`` optional; ``kappa`` is
    either a single number (uniform curvature) or a ``{vertex: value}``
    map.  Vertex labels are JSON strings or integers.  Returns the graph
    and the per-vertex curvature map (None when absent).
    """
    if text.lstrip().startswith("{"):
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as e:
            raise ParseError(f"bad JSON: {e}") from None
        if "edges" not in doc:
            raise ParseError("document missing 'edges'")
        for key in ("edges", "vertices"):
            if not isinstance(doc.get(key, []), list):
                raise ParseError(f"'{key}' must be an array")
        labels = doc.get("vertices")
        columns = _json_edges(doc["edges"])
        if labels is not None:
            if not {*map(type, labels)} <= {str, int}:
                k = _first(labels, lambda x: type(x) in (str, int))
                raise ParseError(f"vertices[{k}] must be a string or an integer, got {json.dumps(labels[k])}")
            labels = [*map(str, labels)]
        graph = MetricGraph._labelled(*columns, labels)
        kappa = None
        if "kappa" in doc:
            raw = doc["kappa"]
            if isinstance(raw, dict):
                kappa = {str(k): _json_number(v, f"'kappa' of {k!r}") for k, v in raw.items()}
                for lab in kappa:
                    graph.index(lab)  # raises UnknownVertexError
            else:
                kappa = dict.fromkeys(graph.labels, _json_number(raw, "'kappa'"))
            if not all(map(math.isfinite, kappa.values())):
                raise ParseError("'kappa' values must be finite")
        return graph, kappa
    return parse_metric_graph(text), None


def _pair_screen(block: np.ndarray, degree: int) -> np.ndarray:
    """(B, C(degree, 3)) flags of the stars that one neighbour pair makes degenerate, at bases with a clean block.

    ``block`` holds the raw (B, degree + 1, degree + 1) distances among each
    base and its neighbours.  A pair (a, b) is flagged when one of the
    triples (a, 0, b), (0, a, b) and (0, b, a) through the base is a
    betweenness at its own margin, by `quadruple._betweenness`'s arithmetic
    on `quadruple._symmetrized`'s entries.  A block is clean when it is
    finite with a zero diagonal, every symmetrized entry off it is
    positive, and each pair and each triple of it keeps its asymmetry and
    triangle inequality within TRIANGLE_SLACK times its own largest raw
    entry; then no star of the base has a defect (see the module docstring).
    Like `_symmetrized`, it works on the entries as rows.
    """
    upper, lower, ik, ij, jk, za, zb, star_pairs = _block_layout(degree)
    rows = np.ascontiguousarray(block.reshape(len(block), -1).T)
    u, w = rows[upper], rows[lower]
    with np.errstate(invalid="ignore", over="ignore"):  # non-finite blocks are not clean
        sym = 0.5 * u + 0.5 * w
        top = np.maximum(u, w)  # the larger raw entry of each pair
        # the slack only where a triple needs it: fl(p + s) >= p for a slack s >= 0
        p = sym[ij] + sym[jk]
        triangle = sym[ik] <= p
        t, b = np.nonzero(~triangle)
        slack = TRIANGLE_SLACK * np.maximum(np.maximum(top[ij[t], b], top[jk[t], b]), top[ik[t], b])
        triangle[t, b] = sym[ik[t], b] <= p[t, b] + slack
        clean = (
            np.logical_and.reduce(np.isfinite(rows))
            & np.logical_and.reduce(rows[:: degree + 2] == 0.0)  # the diagonal
            & np.logical_and.reduce(sym > 0.0)
            & np.logical_and.reduce(np.abs(u - w) <= TRIANGLE_SLACK * top)
            & np.logical_and.reduce(triangle)
        )
        h = 0.5 * sym
        h0a, h0b, hab = h[za], h[zb], h[degree:]
        m = BETWEENNESS_MARGIN * np.maximum(np.maximum(np.maximum(h0a, h0b), hab), 0.0)
        between = (hab >= h0a + h0b - m) | (h0b >= h0a + hab - m) | (h0a >= h0b + hab - m)
    return (np.logical_or.reduce(between[star_pairs], axis=1) & clean).T


@dataclass(frozen=True)
class _Stars:
    """Every star at a run of base vertices, the stars of one base contiguous.

    These are columns, with no object per star: ``neighbors[q]`` holds the
    vertex ids of the three neighbours of star q (a report's writer indexes
    the labels, each quoted once, by them).  The stars of
    ``bases[k]`` are ``start[k]:start[k + 1]``.  ``defect`` is the
    validation code of each star; ``degenerate`` marks the stars with a
    metric betweenness.  ``distances[i]`` holds the graph distances of the
    base and neighbours of star ``blocked[i]``, symmetrized by
    `quadruple._symmetrized`; ``blocked`` lists, in order, the stars that
    the pair screen did not settle, which include every nondegenerate one.

    `gather` grows the search ball of every base and every neighbour once,
    STAR_RANGE sources at a time.  Then, STAR_RANGE bases at a time, so
    that only one range's blocks are held at once, it reads the
    (k + 1) x (k + 1) block of distances among each base of degree k and
    its neighbours once, all bases of one degree together, row p from the
    ball of vertex p as a dense matrix holds it.  `_pair_screen` marks the
    stars of a clean block that contain a degenerate neighbour pair as
    degenerate with defect 0.  Only the other stars are cut from the
    block, as the 4 x 4 sub-blocks at `_star_positions`, validated and
    tested for betweenness.
    """

    bases: tuple[int, ...]
    start: list[int]
    neighbors: np.ndarray
    blocked: np.ndarray
    distances: np.ndarray
    defect: np.ndarray
    degenerate: np.ndarray

    @classmethod
    def gather(cls, g: MetricGraph, bases) -> "_Stars":
        bases = np.array(bases, dtype=np.intp).reshape(-1)
        n, indptr = g.num_vertices, g._indptr
        edge, degree = _edges_at(indptr, bases)
        sources = np.unique(np.concatenate([bases, g._nbr[edge]]))
        chunks = np.array_split(sources, max(1, -(-len(sources) // STAR_RANGE)))
        keys, dist = map(np.concatenate, zip(*map(g._balls, chunks)))
        start = np.concatenate([[0], np.cumsum(degree * (degree - 1) * (degree - 2) // 6)])
        neighbors = np.empty((start[-1], 3), dtype=np.intp)
        defect = np.zeros(start[-1], dtype=np.intp)
        degenerate = np.ones(start[-1], dtype=bool)  # a star the pair screen settles: degenerate, defect 0
        blocked, distances = [np.empty(0, dtype=np.intp)], [np.empty((0, 4, 4))]
        for lo in range(0, len(bases), STAR_RANGE):
            span = np.arange(lo, min(lo + STAR_RANGE, len(bases)))
            for k in np.unique(degree[span][degree[span] >= 3]).tolist():
                at = span[degree[span] == k]
                idx = np.concatenate([bases[at, None], g._nbr[indptr[bases[at], None] + np.arange(k)]], axis=1)
                block = dist[np.searchsorted(keys, idx[:, :, None] * n + idx[:, None, :])]
                pos = _star_positions(k)
                rows = start[at, None] + np.arange(len(pos))
                neighbors[rows] = idx[:, pos[:, 1:]]
                base, star = np.nonzero(~_pair_screen(block, k))
                ids = rows[base, star]
                d, defect[ids] = _symmetrized(block[base[:, None, None], pos[star, :, None], pos[star, None, :]])
                degenerate[ids] = _betweenness(d, BETWEENNESS_MARGIN)
                blocked.append(ids)
                distances.append(d)
        blocked = np.concatenate(blocked)
        order = np.argsort(blocked)
        return cls(
            tuple(bases.tolist()), start.tolist(), neighbors, blocked[order], np.concatenate(distances)[order],
            defect, degenerate,
        )


@dataclass(frozen=True)
class QuadrupleCheck:
    """Slacks of the three compatibility condition families for one quadruple.

    ``certificate`` is the flat embeddability certificate of the quadruple:
    its ``excess_slack`` is 2*pi - A_0(Q), and its ``angle_slacks`` are the
    flat comparison-angle triangle inequalities at all four points (row 0
    at the base vertex), which is exactly what makes an ok verdict
    realizable in coordinates.  ``curvature_slack`` is 2*pi - V_kappa(base).
    """

    neighbors: tuple[str, str, str]
    curvature_slack: float
    certificate: EmbeddabilityCertificate
    ok: bool

    def to_dict(self) -> dict:
        return {
            "neighbors": list(self.neighbors),
            "curvature_slack": self.curvature_slack,
            "certificate": self.certificate.to_dict(),
            "ok": self.ok,
        }


@dataclass(frozen=True)
class LocalReport:
    """Local compatibility verdict at one vertex."""

    vertex: str
    kappa: float
    verdict: bool
    checks: tuple[QuadrupleCheck, ...]
    skipped: tuple[tuple[str, str, str], ...]
    witness: tuple | None  # (neighbors, inequality name)

    def to_dict(self) -> dict:
        return {
            "vertex": self.vertex,
            "kappa": self.kappa,
            "verdict": self.verdict,
            "checks": [c.to_dict() for c in self.checks],
            "skipped": list(self.skipped),
            "witness": [list(self.witness[0]), self.witness[1]] if self.witness else None,
        }


def local_compatibility(g: MetricGraph, v, kappa: float) -> LocalReport:
    """Check the three condition families over every star quadruple at v.

    Conditions per quadruple Q = (v, a, b, c): the flat excess A_0(Q) is at
    most 2*pi; the flat comparison-angle triangle inequalities hold (at v,
    and through the embedded certificate at the other three points as
    well, so that an ok verdict certifies a coordinate realization); and
    V_kappa(v) is at most 2*pi at the prescribed kappa.  Spherical-domain
    errors are re-raised with the offending quadruple identified, and a
    non-finite kappa raises DomainError.
    """
    return _reports(g, kappa, v).reports()[0]


@dataclass(frozen=True)
class _Checks:
    """The reports at the bases of a `_Stars` as columns, with no object per star.

    The checked stars ``checked`` (star ids, in order) have a
    ``curvature_slack``, an ``ok`` and the ``certificate`` columns of
    `quadruple._certificate_columns`.  Base k holds the checks
    ``cut[k]:cut[k + 1]`` and the skipped (degenerate) stars
    ``skip[k]:skip[k + 1]``.  `reports` builds the `LocalReport`s from them,
    and `cli._entries` writes their text.
    """

    labels: tuple[str, ...]
    stars: _Stars
    kappas: list[float]
    checked: np.ndarray
    curvature_slack: list[float]
    certificate: tuple
    ok: list[bool]
    cut: list[int]
    skip: list[int]

    def witness(self, k: int) -> tuple[list[int], str] | None:
        """The neighbour ids and the inequality name ("@i": at neighbour i) of base k's first failed check, or None."""
        if all(self.ok[self.cut[k] : self.cut[k + 1]]):
            return None
        j = self.ok.index(False, self.cut[k])
        w = self.certificate[4][j]
        name = "curvature" if w is None else "excess" if w[0] == "excess" else f"angle{w[2]}" + f"@{w[1]}" * (w[1] > 0)
        return self.stars.neighbors[self.checked[j]].tolist(), name

    def reports(self) -> list[LocalReport]:
        labels, nb, cut, skip = np.array(self.labels, dtype=object), self.stars.neighbors, self.cut, self.skip
        trios, certificates = labels[nb[self.checked]].tolist(), map(EmbeddabilityCertificate, *self.certificate)
        checks = [*map(QuadrupleCheck, map(tuple, trios), self.curvature_slack, certificates, self.ok)]
        skipped = [*map(tuple, labels[nb[self.stars.degenerate]].tolist())]
        reports = []
        for k, (base, kappa) in enumerate(zip(self.stars.bases, self.kappas)):
            w = self.witness(k)
            stars_at = tuple(checks[cut[k] : cut[k + 1]]), tuple(skipped[skip[k] : skip[k + 1]])
            witness = w and (tuple(labels[w[0]]), w[1])
            reports.append(LocalReport(self.labels[base], kappa, w is None, *stars_at, witness))
        return reports


def _reports(g: MetricGraph, kappa, v=None) -> _Checks:
    """`local_compatibility` at v, or `global_compatibility` when v is None, as columns.

    The nondegenerate stars of all bases are certified together, from one
    table of their flat comparison angles and one of the curvature angles
    at their bases; degenerate stars are only listed.  The DomainError
    raised is the first of a walk over the bases in order: a base's worst
    defect before its stars, then each star's flat angles and then its
    curvature angles, in vertex and pair order.
    """
    if v is not None:
        values = [kappa]
    elif isinstance(kappa, Mapping):
        values = []
        for lab in g.labels:
            if lab not in kappa:
                raise MissingKappaError(f"no curvature prescribed for vertex {lab!r}")
            values.append(float(kappa[lab]))
    else:
        values = [float(kappa)] * g.num_vertices
    if not all(map(math.isfinite, values)):
        raise DomainError("curvature must be finite")
    stars = _Stars.gather(g, range(g.num_vertices) if v is None else [g.index(v)])
    start = np.array(stars.start)
    owner = np.repeat(np.arange(len(stars.bases)), np.diff(start))  # the base of every star
    checked = np.flatnonzero(~stars.degenerate)
    d = stars.distances[~stars.degenerate[stars.blocked]]
    flat, flat_failure = _angle_table(d, 0.0)
    curved, curved_failure = _angle_table(d, np.array(values)[owner[checked], None, None], 1)
    # (star, flat before curved, text) of the first failure of each table
    failure = min(
        ((f[0] // size, table, f[1]) for f, size, table in ((flat_failure, 12, 0), (curved_failure, 3, 1)) if f),
        default=None,
    )
    failed_base = owner[checked[failure[0]]] if failure else len(stars.bases)
    defects = np.flatnonzero(stars.defect)
    if defects.size and owner[defects[0]] <= failed_base:
        k = owner[defects[0]]
        raise DomainError(_DEFECTS[stars.defect[start[k] : start[k + 1]].max() - 1])
    if failure:
        trio = tuple(g.labels[i] for i in stars.neighbors[checked[failure[0]]])
        raise DomainError(f"quadruple at {g.labels[stars.bases[failed_base]]} with neighbours {trio}: {failure[2]}")

    certificate = _certificate_columns(flat)
    curvature_slack = math.tau - (curved[:, 0, 0] + curved[:, 0, 1] + curved[:, 0, 2])
    ok = np.array(certificate[0], dtype=bool) & (curvature_slack >= -ANGLE_TOL)
    cut = np.searchsorted(checked, start)
    return _Checks(
        g.labels, stars, [*map(float, values)], checked, curvature_slack.tolist(), certificate, ok.tolist(),
        cut.tolist(), (start - cut).tolist(),
    )


@dataclass(frozen=True)
class CompatibilityReport:
    """Conjunction of local reports over every vertex of the graph."""

    verdict: bool
    entries: tuple[LocalReport, ...]
    witness: tuple | None  # (vertex, neighbors, inequality name)

    def to_dict(self) -> dict:
        return {
            "verdict": self.verdict,
            "entries": [e.to_dict() for e in self.entries],
            "witness": [self.witness[0], list(self.witness[1]), self.witness[2]]
            if self.witness
            else None,
        }


def global_compatibility(g: MetricGraph, kappa) -> CompatibilityReport:
    """Run `local_compatibility` at every vertex, in vertex-index order.

    ``kappa`` is either a single float or a mapping from vertex label to
    curvature; a vertex missing from the mapping raises MissingKappaError,
    and a non-finite value DomainError.
    """
    entries = tuple(_reports(g, kappa).reports())
    bad = next((e for e in entries if not e.verdict), None)
    return CompatibilityReport(bad is None, entries, None if bad is None else (bad.vertex, *bad.witness))
