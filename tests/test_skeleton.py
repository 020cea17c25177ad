import heapq
import json
import math
import warnings
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from plembed import (
    CurveTriple,
    DomainError,
    DuplicateEdgeError,
    MetricGraph,
    MissingKappaError,
    NonpositiveLengthError,
    ParseError,
    UnknownVertexError,
    global_compatibility,
    local_compatibility,
    parse_graph_document,
    parse_metric_graph,
    polyline_curvature,
)
from plembed import quadruple, skeleton
from plembed.quadruple import BETWEENNESS_MARGIN, _betweenness, _symmetrized
from plembed.skeleton import SEARCH_MARGIN, STAR_RANGE, TRIANGLE_SLACK, _edges_at, _pair_screen, _Stars

from conftest import hex_grid_graph, icosahedron_graph, star_graph, unit_k4
from test_acceptance import _independent_distances
from test_mesh_oracle import jittered_icosphere


def scaled(g: MetricGraph, factor: float) -> MetricGraph:
    """The graph with every edge length multiplied by factor."""
    if factor <= 0.0:
        raise DomainError("scale factor must be positive")
    return MetricGraph(g.labels, [(i, j, w * factor) for i, j, w in g.edges])

TWO_PI = 2.0 * math.pi


def adjacency(g: MetricGraph) -> list[list[tuple[int, float]]]:
    """(neighbour, length) pairs of each vertex."""
    adj = [[] for _ in range(g.num_vertices)]
    for i, j, w in g.edges:
        adj[i].append((j, w))
        adj[j].append((i, w))
    return adj


def dijkstra(adj, source: int, radius: float = math.inf) -> dict[int, float]:
    """Heap Dijkstra from ``source``: the distance to every vertex within ``radius``.

    The oracle of the bounded relaxation (`MetricGraph._balls`), which must
    give the same distances bit for bit.
    """
    dist: dict[int, float] = {}
    heap = [(0.0, source)]
    while heap:
        d, u = heapq.heappop(heap)
        if d > radius:
            break
        if u in dist:
            continue
        dist[u] = d
        for j, w in adj[u]:
            if j not in dist:
                heapq.heappush(heap, (d + w, j))
    return dist


def csr_neighbours(g: MetricGraph, v) -> list[int]:
    """The neighbours of v in the graph's CSR adjacency, in increasing order."""
    i = g.index(v)
    return g._nbr[g._indptr[i] : g._indptr[i + 1]].tolist()


def star_ball(adj, source: int) -> dict[int, float]:
    """The search ball of ``source``: every vertex within R(source), as the library bounds it."""
    radius = max((w + max(x for _, x in adj[j]) for j, w in adj[source]), default=0.0)
    return dijkstra(adj, source, radius * (1.0 + SEARCH_MARGIN))


def distance_matrix(g: MetricGraph) -> np.ndarray:
    """Dense all-pairs distances (inf between components) from unbounded searches, exactly symmetric."""
    n = g.num_vertices
    adj = adjacency(g)
    d = np.full((n, n), np.inf)
    for i in range(n):
        row = dijkstra(adj, i)
        d[i, list(row)] = list(row.values())
    return 0.5 * (d + d.T)


def distance(g: MetricGraph, u, v) -> float:
    return dijkstra(adjacency(g), g.index(u)).get(g.index(v), math.inf)


class TestMetricGraph:
    def test_shortest_path_metric(self):
        g = parse_metric_graph("a b 1.0\nb c 2.0\na c 2.5")
        assert g.labels == ("a", "b", "c")
        assert distance(g, "a", "b") == 1.0
        # direct edge beats the two-hop path
        assert distance(g, "a", "c") == 2.5
        assert csr_neighbours(g, "b") == [0, 2]

    def test_detour_metric(self):
        g = parse_metric_graph("a b 1.0\nb c 2.0\na c 4.0")
        # the listed a-c edge is longer than the path through b
        assert distance(g, "a", "c") == 3.0

    def test_distance_matrix_symmetric(self):
        g = star_graph()
        dm = distance_matrix(g)
        assert np.array_equal(dm, dm.T)
        assert np.all(np.diag(dm) == 0.0)

    def test_unknown_vertex(self):
        g = unit_k4()
        with pytest.raises(UnknownVertexError):
            distance(g, "a", "nope")
        with pytest.raises(UnknownVertexError):
            g.index(17)

    def test_radius_beyond_the_float_range(self):
        # every search radius passes the largest float, c's only when widened by SEARCH_MARGIN
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            g = MetricGraph(list("abc"), [(0, 1, np.finfo(float).max), (1, 2, 1.0)])
        assert g._radius.tolist() == [math.inf] * 3

    def test_self_loop_rejected(self):
        with pytest.raises(DomainError):
            MetricGraph(["a", "b"], [(0, 0, 1.0)])

    def test_duplicate_label_rejected(self):
        with pytest.raises(DomainError):
            MetricGraph(["a", "a"], [])

    def test_scaled(self):
        g = scaled(unit_k4(), 3.0)
        assert distance(g, "a", "d") == 3.0
        with pytest.raises(DomainError):
            scaled(g, 0.0)


class TestEdgeListParser:
    def test_comments_and_blanks(self):
        text = "# header\n\na b 1.0  # trailing\n\nb c 2.0\n"
        g = parse_metric_graph(text)
        assert g.num_vertices == 3
        assert len(g.edges) == 2

    def test_bad_field_count(self):
        with pytest.raises(ParseError) as ei:
            parse_metric_graph("a b\n")
        assert ei.value.line == 1
        assert "line 1" in str(ei.value)

    def test_bad_length_token(self):
        with pytest.raises(ParseError) as ei:
            parse_metric_graph("a b 1.0\nb c two\n")
        assert ei.value.line == 2

    def test_negative_length(self):
        with pytest.raises(NonpositiveLengthError):
            parse_metric_graph("a b -1.0\n")
        with pytest.raises(NonpositiveLengthError):
            parse_metric_graph("a b 0\n")

    @pytest.mark.parametrize("token", ["inf", "nan", "1e400"])
    def test_non_finite_length(self, token):
        with pytest.raises(NonpositiveLengthError, match=f"positive and finite, got {token}"):
            parse_metric_graph(f"a b {token}\n")

    def test_duplicate_edge_reports_both_lines(self):
        with pytest.raises(DuplicateEdgeError) as ei:
            parse_metric_graph("a b 1.0\nb a 2.0\n")
        msg = str(ei.value)
        assert "line 2" in msg and "line 1" in msg

    def test_self_loop_line(self):
        with pytest.raises(ParseError) as ei:
            parse_metric_graph("a a 1.0\n")
        assert ei.value.line == 1


def reference_parse_edge_list(text: str) -> MetricGraph:
    """The plain edge-list format as the line loop of `parse_metric_graph` reads it.

    A verbatim copy, kept as the oracle of which fault wins across lines.
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


def edge_list_outcome(parse, text: str):
    """``parse(text)`` as (labels, edges), or the type, text and line of its error."""
    try:
        g = parse(text)
        return g.labels, g.edges
    except ValueError as e:
        return type(e).__name__, str(e), e.line


class TestEdgeListOracle:
    """`parse_metric_graph` against its line loop as it stood: the same graph, or the same error on the same line."""

    def test_seeded_mutations(self):
        rng = np.random.default_rng(17)
        tokens = ["a", "b", "c", "d", "x", "1", "0", "-1", "2.5e-3", "nan", "inf", "1e400", "two", "#", "a#b"]
        seen = set()
        for _ in range(600):
            n = int(rng.integers(3, 7))
            pairs = sorted({tuple(sorted(rng.choice(n, size=2, replace=False).tolist())) for _ in range(2 * n)})
            lines = [["abcdefg"[i], "abcdefg"[j], f"{rng.uniform(0.1, 2.0):.3g}"] for i, j in pairs]
            for _ in range(int(rng.integers(1, 5))):
                # most mutations hit the first lines, so that one line often carries two faults
                at, kind = int(rng.integers(min(3, len(lines)))), int(rng.integers(6))
                if kind == 5 and len(lines[at]) >= 2:  # a self-loop
                    lines[at][1] = lines[at][0]
                elif kind == 0 and lines[at]:  # replace a token
                    lines[at][int(rng.integers(len(lines[at])))] = tokens[int(rng.integers(len(tokens)))]
                elif kind == 1 and lines[at]:  # delete a token
                    del lines[at][int(rng.integers(len(lines[at])))]
                elif kind == 2:  # a line again, its ends swapped half the time
                    line = list(lines[at])
                    if len(line) == 3 and rng.random() < 0.5:
                        line[:2] = line[1::-1]
                    lines.insert(int(rng.integers(len(lines) + 1)), line)
                elif kind == 3 and rng.random() < 0.5:  # a comment line
                    lines.insert(at, ["#", "note"])
                elif kind == 3:  # a comment after a line
                    lines[at].append("# note")
                else:  # a blank line
                    lines.insert(at, [])
            text = "\n".join(map(" ".join, lines)) + "\n"
            want = edge_list_outcome(reference_parse_edge_list, text)
            assert edge_list_outcome(parse_metric_graph, text) == want, text
            seen.add("graph" if isinstance(want[0], tuple) else want[0])
        assert seen == {"graph", "ParseError", "NonpositiveLengthError", "DuplicateEdgeError"}


def reference_parse(text: str):
    """The JSON graph document as the per-item parser read it: (labels, edges) or the error raised.

    The label, length and shape checks of each item, then the vertex list,
    each endpoint, and the graph's own checks edge by edge.
    """

    def number(x, what):
        if isinstance(x, bool) or not isinstance(x, (int, float)):
            raise ParseError(f"{what} must be a number, got {json.dumps(x)}")
        try:
            return float(x)
        except OverflowError:
            return math.inf if x > 0 else -math.inf

    def label(x, what):
        if isinstance(x, bool) or not isinstance(x, (str, int)):
            raise ParseError(f"{what} must be a string or an integer, got {json.dumps(x)}")
        return str(x)

    doc = json.loads(text)
    edges = []
    for k, e in enumerate(doc["edges"]):
        if not (isinstance(e, list) and len(e) == 3):
            raise ParseError(f"edges[{k}]: expected [u, v, length]")
        edges.append((label(e[0], f"edges[{k}][0]"), label(e[1], f"edges[{k}][1]"), number(e[2], f"edges[{k}] length")))
    if "vertices" in doc:
        labels = [label(x, f"vertices[{k}]") for k, x in enumerate(doc["vertices"])]
        for u, v, _ in edges:
            for lab in (u, v):
                if lab not in labels:
                    raise UnknownVertexError(f"edge endpoint {lab!r} not in 'vertices'")
    else:
        labels = list(dict.fromkeys(lab for u, v, _ in edges for lab in (u, v)))
    if len(set(labels)) != len(labels):
        raise DomainError("vertex labels must be unique")
    index = {lab: i for i, lab in enumerate(labels)}
    seen, cleaned = set(), []
    for u, v, w in edges:
        i, j = index[u], index[v]
        if i == j:
            raise DomainError(f"self-loop at vertex {u!r}")
        if not (math.isfinite(w) and w > 0.0):
            raise NonpositiveLengthError(f"edge ({u}, {v}) length must be positive and finite")
        if (min(i, j), max(i, j)) in seen:
            raise DuplicateEdgeError(f"duplicate edge ({u}, {v})")
        seen.add((min(i, j), max(i, j)))
        cleaned.append((min(i, j), max(i, j), w))
    return tuple(labels), tuple(cleaned)


def parsed(text: str):
    """`parse_graph_document` as (labels, edges), or the type and text of its error."""
    try:
        g, _ = parse_graph_document(text)
        return g.labels, g.edges
    except ValueError as e:
        return type(e).__name__, str(e)


def reference(text: str):
    try:
        return reference_parse(text)
    except ValueError as e:
        return type(e).__name__, str(e)


OK_EDGES = ['["a", "b", 1]', '["b", "c", 2.5]', '["c", "a", 1e-3]']
BAD_LENGTH = "edge (a, b) length must be positive and finite"


def edges_doc(*edges, vertices=None):
    head = "" if vertices is None else '"vertices": [%s], ' % vertices
    return '{%s"edges": [%s]}' % (head, ", ".join(edges))


class TestParseErrorParity:
    """Malformed documents keep the type and text of their first error under the array pass."""

    @pytest.mark.parametrize(
        "doc, error, message",
        [
            (edges_doc('[true, "b", 1]'), ParseError, "edges[0][0] must be a string or an integer, got true"),
            (edges_doc('["a", null, 1]'), ParseError, "edges[0][1] must be a string or an integer, got null"),
            (edges_doc('[["a"], "b", 1]'), ParseError, 'edges[0][0] must be a string or an integer, got ["a"]'),
            (edges_doc('"ab1"'), ParseError, "edges[0]: expected [u, v, length]"),
            (edges_doc('["a", "b"]'), ParseError, "edges[0]: expected [u, v, length]"),
            (edges_doc('{"u": "a"}'), ParseError, "edges[0]: expected [u, v, length]"),
            (edges_doc('["a", "b", NaN]'), NonpositiveLengthError, BAD_LENGTH),
            (edges_doc('["a", "b", -1]'), NonpositiveLengthError, BAD_LENGTH),
            (edges_doc('["a", "b", 1%s]' % ("0" * 400)), NonpositiveLengthError, BAD_LENGTH),
            (edges_doc('["a", "c", 1]', vertices='"a", "b"'), UnknownVertexError, "edge endpoint 'c' not in 'vertices'"),
            (edges_doc(*OK_EDGES, '["b", "a", 3]'), DuplicateEdgeError, "duplicate edge (b, a)"),
            (edges_doc(*OK_EDGES, '["a", "a", 1]'), DomainError, "self-loop at vertex 'a'"),
            (edges_doc('[1, "1", 1]', vertices='1, "1"'), DomainError, "vertex labels must be unique"),
            (edges_doc('["a", "b", 1]', vertices='"a", true'), ParseError, "vertices[1] must be a string or an integer, got true"),
            # two faults: the first in document order wins
            (edges_doc(*OK_EDGES, '["x", "y", -2]', '[null, "b", 1]'), ParseError, "edges[4][0] must be a string or an integer, got null"),
            (edges_doc(*OK_EDGES, '["b", "a", 3]', '["c", "c", 1]'), DuplicateEdgeError, "duplicate edge (b, a)"),
            (
                edges_doc('["a", "b", 1]', '["a", "a", 1]', '["a", "x", 1]', vertices='"a", "b", "c"'),
                UnknownVertexError,
                "edge endpoint 'x' not in 'vertices'",
            ),
            (edges_doc('["a", "b", -1]', '["b", "a", 1]', vertices='"a", "b", "c"'), NonpositiveLengthError, BAD_LENGTH),
        ],
    )
    def test_table(self, doc, error, message):
        with pytest.raises(error) as ei:
            parse_graph_document(doc)
        assert type(ei.value) is error and str(ei.value) == message
        assert reference(doc) == (error.__name__, message)

    def test_seeded_mutations(self):
        # one or two items of a valid document replaced by a malformed one; the reference decides
        rng = np.random.default_rng(13)
        bad_items = ['[true, "v1", 1]', '["v1", null, 1]', '["v1", ["x"], 1]', '"edge"', '["v1", "v2"]',
                     '["v1", "v2", NaN]', '["v1", "v2", -0.5]', '["v1", "v2", 0]', '["v1", "v2", 1%s]' % ("0" * 400),
                     '["v1", "v2", "1"]', '["v1", "v2", true]', '["v1", "nowhere", 1]', '["v3", "v3", 1]',
                     '["v1", 2.5, 1]', '[3, "v1", 1]']
        seen = set()
        for k in range(300):
            n = int(rng.integers(4, 12))
            pairs = sorted({tuple(sorted(rng.choice(n, size=2, replace=False).tolist())) for _ in range(2 * n)})
            valid = [["v%d" % i, "v%d" % j, float(rng.uniform(0.1, 2.0))] for i, j in pairs]
            items = [*map(json.dumps, valid)]
            for _ in range(int(rng.integers(0, 3))):
                pos = int(rng.integers(len(items) + 1))
                if rng.random() < 0.3:  # an edge again, reversed
                    u, v, w = valid[int(rng.integers(len(valid)))]
                    items.insert(pos, json.dumps([v, u, w]))
                else:
                    items.insert(pos, bad_items[int(rng.integers(len(bad_items)))])
            vertices = None if k % 2 else ", ".join(f'"v{i}"' for i in range(n)) + (', 3' if k % 4 == 0 else "")
            doc = edges_doc(*items, vertices=vertices)
            want = reference(doc)
            assert parsed(doc) == want, doc
            seen.add(want[0] if isinstance(want[0], str) else "graph")
        errors = {"ParseError", "NonpositiveLengthError", "UnknownVertexError", "DuplicateEdgeError", "DomainError"}
        assert seen == {"graph", *errors}

    @pytest.mark.parametrize(
        "edges",
        [
            [(0, 1, 1), (1, 2, 2.5)],
            [(np.int64(0), np.int32(1), np.float32(0.5)), (2, 1, np.float64(1.5))],
            [(True, 2, 1.0), (0, 1, 2**60)],
            [(0.0, 1.0, 1.0), (1, 2, 1.0)],
            [(0, 1, 2**80), (1, 2, 1.0)],
            [(0, 1, 1.0), (1, 2, "2.0")],
        ],
    )
    def test_graph_edges_of_any_number_type(self, edges):
        # integers, integral floats, bools and numpy scalars are taken as the edge-by-edge check took them,
        # 2**80 as a length too, and a string length is still a TypeError
        def build():
            g = MetricGraph(["a", "b", "c"], edges)
            return g.edges, tuple(csr_neighbours(g, 1))

        def one_by_one():
            cleaned = []
            for i, j, w in edges:
                if not (math.isfinite(w) and w > 0.0):
                    raise NonpositiveLengthError("length")
                cleaned.append((int(min(i, j)), int(max(i, j)), float(w)))
            nbrs = sorted(j for e in cleaned for j in e[:2] if 1 in e[:2] and j != 1)
            return tuple(cleaned), tuple(nbrs)

        try:
            want = one_by_one()
        except TypeError as e:
            with pytest.raises(TypeError):
                build()
            return
        assert build() == want


def reference_checked_edges(labels, edges) -> tuple[np.ndarray, np.ndarray]:
    """The edge-by-edge check that `MetricGraph` once fell back to, kept as the oracle of its array pass.

    Verbatim but for ``self.labels``, which is ``labels`` here.
    """
    n = len(labels)
    seen = set()
    cleaned = []
    for i, j, w in edges:
        if not (0 <= i < n and 0 <= j < n):
            raise UnknownVertexError(f"edge index out of range: ({i}, {j})")
        if i == j:
            raise DomainError(f"self-loop at vertex {labels[i]!r}")
        if not (math.isfinite(w) and w > 0.0):
            raise NonpositiveLengthError(
                f"edge ({labels[i]}, {labels[j]}) length must be positive and finite"
            )
        key = (min(i, j), max(i, j))
        if key in seen:
            raise DuplicateEdgeError(f"duplicate edge ({labels[i]}, {labels[j]})")
        seen.add(key)
        cleaned.append((key[0], key[1], float(w)))
    table = np.array(cleaned, dtype=float).reshape(-1, 3)
    return table[:, :2].astype(np.intp), table[:, 2].copy()


def edge_table(labels, edges) -> tuple[np.ndarray, np.ndarray]:
    g = MetricGraph(labels, edges)
    return g._ends, g._lengths


def outcome(build, *args):
    """What ``build(*args)`` gives: its result, or the type, text and line of its error."""
    try:
        return build(*args)
    except ValueError as e:
        return type(e).__name__, str(e), getattr(e, "line", None)


class TestGraphEdges:
    """`MetricGraph(labels, edges)`: the array pass against the edge-by-edge reference, and the faults it alone sees."""

    @pytest.mark.parametrize(
        "edges, error, message",
        [
            ([(0.5, 2, 1.0)], UnknownVertexError, "edge index not an integer: (0.5, 2)"),
            ([(0, 1, 1.0), (1.2, 1, 1.0)], UnknownVertexError, "edge index not an integer: (1.2, 1)"),
            ([(0, 1, 1.0), (2, math.nan, 1.0)], UnknownVertexError, "edge index not an integer: (2, nan)"),
            ([(0, 1, 1.0), (None, 1, 1.0)], UnknownVertexError, "edge index not an integer: (None, 1)"),
            ([(0, "1", 1.0)], UnknownVertexError, "edge index not an integer: (0, 1)"),
            ([(0, 2**70, 1.0)], UnknownVertexError, f"edge index out of range: (0, {2**70})"),
            ([(0, 1, 1.0), (1, 2, 3.0, 4)], DomainError, "edges[1]: expected (i, j, length), got (1, 2, 3.0, 4)"),
            ([(0, 1)], DomainError, "edges[0]: expected (i, j, length), got (0, 1)"),
            ([(0, 1, 1.0), 7], DomainError, "edges[1]: expected (i, j, length), got 7"),
            # the first faulty edge raises, whatever its fault
            ([(0, 0, 1.0), (1, 2)], DomainError, "self-loop at vertex 'a'"),
            ([(0, 1, -1.0), (0.5, 1, 1.0)], NonpositiveLengthError, "edge (a, b) length must be positive and finite"),
            ([(0, 1, 1.0), (1, 2, None)], TypeError, "edge (b, c) length must be a number, got None"),
            ([(0, 1, 10**400)], NonpositiveLengthError, "edge (a, b) length must be positive and finite"),
        ],
    )
    def test_faults_the_reference_missed(self, edges, error, message):
        # the reference truncates 0.5 and 1.2, drops a fourth field, or fails to unpack
        with pytest.raises(error) as ei:
            MetricGraph(["a", "b", "c"], edges)
        assert type(ei.value) is error and str(ei.value) == message

    @pytest.mark.parametrize(
        "triples, message",
        [
            ([("a", "b", 1.0), ("b", "c", 2.0, 9)], "edges[1]: expected (label, label, length), got ('b', 'c', 2.0, 9)"),
            ([("a", "b")], "edges[0]: expected (label, label, length), got ('a', 'b')"),
            ([("a", "b", 1.0), "xy"], "edges[1]: expected (label, label, length), got 'xy'"),
        ],
    )
    def test_labelled_triples_of_another_shape(self, triples, message):
        with pytest.raises(DomainError) as ei:
            MetricGraph.from_edge_list(triples)
        assert type(ei.value) is DomainError and str(ei.value) == message

    def test_labelled_fault_before_a_bad_shape_raises_first(self):
        with pytest.raises(DomainError, match="self-loop at vertex 'a'"):
            MetricGraph.from_edge_list([("a", "a", 1.0), ("a", "b")])

    def test_seeded_faults(self):
        # integer-index edge lists with up to two faulty edges, some with two faults; the reference decides
        rng = np.random.default_rng(16)
        seen = set()
        for _ in range(400):
            n = int(rng.integers(3, 9))
            labels = [f"v{k}" for k in range(n)]
            pairs = sorted({tuple(rng.choice(n, size=2, replace=False).tolist()) for _ in range(2 * n)})
            edges = [(i, j, float(rng.uniform(0.1, 2.0))) for i, j in pairs]
            for _ in range(int(rng.integers(0, 3))):
                k, kind = int(rng.integers(len(edges))), int(rng.integers(5))
                i, j, w = edges[k]
                if kind == 4 or rng.random() < 0.4:  # a bad length, alone or with a fault below
                    w = float(rng.choice([0.0, -0.5, math.nan, math.inf, -math.inf]))
                if kind == 4:
                    edges[k] = (i, j, w)
                    continue
                # an index out of range, a self-loop, or an edge again, reversed or not
                ends = [(i, int(rng.choice([-1, n, n + 3]))), (i, i), (j, i), (i, j)][kind]
                edges.insert(int(rng.integers(len(edges) + 1)), (*ends, w))
            want = outcome(reference_checked_edges, labels, edges)
            got = outcome(edge_table, labels, edges)
            if isinstance(want[0], str):
                assert got == want, edges
                seen.add(want[0])
            else:
                assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1]), edges
                assert got[0].dtype == want[0].dtype and got[1].dtype == want[1].dtype
                seen.add("graph")
        assert seen == {"graph", "UnknownVertexError", "DomainError", "NonpositiveLengthError", "DuplicateEdgeError"}


class TestJsonParser:
    def test_scalar_kappa(self):
        g, kappa = parse_graph_document('{"edges": [["a", "b", 1.0], ["b", "c", 1.5]], "kappa": -2}')
        assert g.labels == ("a", "b", "c")
        assert kappa == {"a": -2.0, "b": -2.0, "c": -2.0}

    def test_kappa_map(self):
        doc = '{"vertices": ["a", "b"], "edges": [["a", "b", 1.0]], "kappa": {"a": 0.5, "b": 1.5}}'
        g, kappa = parse_graph_document(doc)
        assert kappa == {"a": 0.5, "b": 1.5}

    def test_vertex_order_from_list(self):
        g, _ = parse_graph_document('{"vertices": ["z", "a"], "edges": [["a", "z", 2.0]]}')
        assert g.labels == ("z", "a")

    def test_no_kappa(self):
        g, kappa = parse_graph_document('{"edges": [["a", "b", 1.0]]}')
        assert kappa is None

    def test_unknown_endpoint(self):
        with pytest.raises(UnknownVertexError):
            parse_graph_document('{"vertices": ["a"], "edges": [["a", "b", 1.0]]}')

    def test_unknown_kappa_label(self):
        with pytest.raises(UnknownVertexError):
            parse_graph_document('{"edges": [["a", "b", 1.0]], "kappa": {"c": 0.0}}')

    @pytest.mark.parametrize("kappa", ["NaN", "Infinity", '{"a": 0.0, "b": NaN}'])
    def test_non_finite_kappa(self, kappa):
        with pytest.raises(ParseError, match="'kappa' values must be finite"):
            parse_graph_document('{"edges": [["a", "b", 1.0]], "kappa": %s}' % kappa)

    def test_missing_edges_key(self):
        with pytest.raises(ParseError):
            parse_graph_document('{"vertices": ["a"]}')

    def test_bad_json(self):
        with pytest.raises(ParseError):
            parse_graph_document('{"edges": [')

    def test_bad_edge_shape(self):
        with pytest.raises(ParseError):
            parse_graph_document('{"edges": [["a", "b"]]}')

    @pytest.mark.parametrize(
        "doc, message",
        [
            ('{"edges": 5}', "'edges' must be an array"),
            ('{"vertices": 5, "edges": [["a", "b", 1]]}', "'vertices' must be an array"),
            ('{"edges": [["a", "b", null]]}', "edges[0] length must be a number, got null"),
            ('{"edges": [["a", "b", 1], ["b", "c", true]]}', "edges[1] length must be a number, got true"),
            ('{"edges": [["a", "b", "1"]]}', 'edges[0] length must be a number, got "1"'),
            ('{"edges": [["a", "b", 1]], "kappa": null}', "'kappa' must be a number, got null"),
            ('{"edges": [["a", "b", 1]], "kappa": [1]}', "'kappa' must be a number, got [1]"),
            ('{"edges": [["a", "b", 1]], "kappa": {"a": false}}', "'kappa' of 'a' must be a number, got false"),
            ('{"edges": [["a", "b", 1]], "kappa": 1%s}' % ("0" * 400), "'kappa' values must be finite"),
        ],
    )
    def test_wrong_shape(self, doc, message):
        with pytest.raises(ParseError) as ei:
            parse_graph_document(doc)
        assert message in str(ei.value)

    @pytest.mark.parametrize("length", ["1e400", "-1e400", "1" + "0" * 400, "0", "-2.5"])
    def test_length_positive_and_finite(self, length):
        with pytest.raises(NonpositiveLengthError, match="length must be positive and finite"):
            parse_graph_document('{"edges": [["a", "b", %s]]}' % length)

    @pytest.mark.parametrize(
        "doc, message",
        [
            ('{"edges": [["a", null, 1]]}', "edges[0][1] must be a string or an integer, got null"),
            ('{"edges": [["a", "b", 1], [true, "b", 2]]}', "edges[1][0] must be a string or an integer, got true"),
            ('{"edges": [["a", ["x"], 1]]}', 'edges[0][1] must be a string or an integer, got ["x"]'),
            ('{"edges": [[{"v": 1}, "a", 1]]}', 'edges[0][0] must be a string or an integer, got {"v": 1}'),
            ('{"edges": [["a", 1.5, 1]]}', "edges[0][1] must be a string or an integer, got 1.5"),
            ('{"vertices": ["a", false], "edges": [["a", "b", 1]]}', "vertices[1] must be a string or an integer, got false"),
            ('{"vertices": [null], "edges": []}', "vertices[0] must be a string or an integer, got null"),
            ('{"vertices": ["a", [1]], "edges": []}', "vertices[1] must be a string or an integer, got [1]"),
        ],
    )
    def test_labels_are_strings_or_integers(self, doc, message):
        with pytest.raises(ParseError) as ei:
            parse_graph_document(doc)
        assert str(ei.value) == message

    def test_integer_labels(self):
        g, _ = parse_graph_document('{"vertices": [2, "a"], "edges": [[2, "a", 1]]}')
        assert g.labels == ("2", "a") and g.edges == ((0, 1, 1.0),)

    def test_plain_text_fallback(self):
        g, kappa = parse_graph_document("a b 1.0\n")
        assert g.num_vertices == 2 and kappa is None


def star_distances(g: MetricGraph, stars: _Stars) -> np.ndarray:
    """(Q, 4, 4) symmetrized distances of every star: `_Stars.distances` where a star keeps its block.

    The distances of the stars that the pair screen settled, which `_Stars`
    does not keep, are read from heap-search balls here.
    """
    assert not (~stars.degenerate & ~np.isin(np.arange(len(stars.defect)), stars.blocked)).any()
    adj = adjacency(g)
    balls = [star_ball(adj, a) for a in range(g.num_vertices)]
    owner = np.repeat(stars.bases, np.diff(stars.start)).tolist()
    raw = [[[balls[a][b] for b in ids] for a in ids] for ids in zip(owner, *stars.neighbors.T.tolist())]
    full = _symmetrized(np.array(raw, dtype=float).reshape(-1, 4, 4))[0]
    full[stars.blocked] = stars.distances
    return full


def star_rows(g: MetricGraph, v) -> tuple[list[list[int]], np.ndarray]:
    """Vertex ids (base first) and symmetrized graph distances of every star at v."""
    stars = _Stars.gather(g, [g.index(v)])
    assert stars.start == [0, len(stars.defect)]
    return [[g.index(v), *row] for row in stars.neighbors.tolist()], star_distances(g, stars)


class TestStarQuadruples:
    def test_k4_single_quadruple(self):
        ids, raw = star_rows(unit_k4(), "a")
        assert ids == [[0, 1, 2, 3]]
        expect = np.ones((4, 4)) - np.eye(4)
        assert np.allclose(raw[0], expect)

    def test_icosahedron_counts(self):
        g = icosahedron_graph()
        for v in g.labels:
            assert len(csr_neighbours(g, v)) == 5
            assert len(star_rows(g, v)[0]) == 10

    def test_degree_two_gives_none(self):
        g = parse_metric_graph("a b 1\nb c 1\n")
        ids, raw = star_rows(g, "b")
        assert ids == [] and raw.shape == (0, 4, 4)

    def test_deterministic_lexicographic_order(self):
        g = hex_grid_graph()
        ids, _ = star_rows(g, "h")
        assert len(ids) == 20
        assert all(row[0] == g.index("h") for row in ids)
        trios = [row[1:] for row in ids]
        assert trios == sorted(trios)

    def test_distances_are_graph_metric(self):
        g = star_graph(1.99)
        _, (d,) = star_rows(g, "h")
        # tip-to-tip shortcut edges beat the two-spoke path
        assert d[1, 2] == 1.99
        assert d[0, 1] == 1.0


class TestRegionOfCurvature:
    """The curvature condition V_kappa(v) <= 2*pi, as `local_compatibility` checks it."""

    def test_empty_family_vacuous(self):
        rep = local_compatibility(parse_metric_graph("a b 1\nb c 1\n"), "b", 0.0)
        assert rep.verdict and rep.witness is None
        assert rep.checks == () and rep.skipped == ()

    def test_k4_flat_ok(self):
        rep = local_compatibility(unit_k4(), "a", 0.0)
        # three flat angles of pi/3 at the base
        assert rep.checks[0].curvature_slack == pytest.approx(math.pi, rel=1e-12)

    def test_star_hub_violates(self):
        rep = local_compatibility(star_graph(1.99), "h", 0.0)
        # independent check: three flat angles of (1, 1, 1.99) at the hub
        ang = math.acos((1.0 + 1.0 - 1.99**2) / 2.0)
        assert 3.0 * ang > TWO_PI
        assert rep.checks[0].curvature_slack == pytest.approx(TWO_PI - 3.0 * ang, rel=1e-12)

    def test_hex_grid_all_degenerate(self):
        for kappa in (-1.0, 0.0, 1.0):
            rep = local_compatibility(hex_grid_graph(), "h", kappa)
            assert rep.verdict and rep.checks == () and len(rep.skipped) == 20

    def test_monotone_in_kappa(self):
        # the feasible curvatures form a lower set: ok at kappa implies ok
        # at every smaller kappa
        g = unit_k4()
        sat = [local_compatibility(g, "a", k).verdict for k in (-4.0, -1.0, 0.0, 1.0, 4.0)]
        assert sat == sorted(sat, reverse=True) and sat[0] and not sat[-1]

    def test_scale_invariance(self):
        g = star_graph(1.8)
        s = 2.5
        gs = scaled(g, s)
        for kappa in (-1.0, 0.0, 1.0):
            a = local_compatibility(g, "h", kappa)
            b = local_compatibility(gs, "h", kappa / s**2)
            assert a.verdict == b.verdict
            slacks = [c.curvature_slack for c in b.checks]
            assert [c.curvature_slack for c in a.checks] == pytest.approx(slacks, rel=1e-12)


class TestLocalCompatibility:
    def test_k4_feasible(self):
        rep = local_compatibility(unit_k4(), "a", 0.0)
        assert rep.verdict and rep.witness is None
        assert len(rep.checks) == 1
        chk = rep.checks[0]
        assert chk.ok and chk.certificate.verdict
        # regular-simplex quadruple: excess is exactly pi short of 2*pi
        assert chk.certificate.excess_slack == pytest.approx(TWO_PI - math.pi, rel=1e-12)

    def test_hex_grid_skips_everything(self):
        rep = local_compatibility(hex_grid_graph(), "h", 0.0)
        assert rep.verdict
        assert rep.checks == ()
        assert len(rep.skipped) == 20

    def test_star_hub_excess_witness(self):
        rep = local_compatibility(star_graph(1.99), "h", 0.0)
        assert not rep.verdict
        nbrs, name = rep.witness
        assert nbrs == ("x", "y", "z")
        assert name == "excess"
        assert rep.checks[0].certificate.excess_slack < 0.0

    def test_curvature_only_violation(self):
        # flat check passes but the prescribed kappa pushes the cone angle
        # at the base past 2*pi
        g = unit_k4()
        flat = local_compatibility(g, "a", 0.0)
        assert flat.verdict
        # kappa = 4: unit triangles still satisfy the spherical bounds
        # (perimeter 3 <= 2*pi/2), but the cone angle 3*acos(cos2/(1+cos2))
        # at the base exceeds 2*pi
        hot = local_compatibility(g, "a", 4.0)
        assert not hot.verdict
        assert hot.witness[1] == "curvature"
        assert hot.checks[0].curvature_slack < 0.0

    @pytest.mark.parametrize("kappa", [math.nan, math.inf, -math.inf])
    def test_non_finite_kappa(self, kappa):
        # also where every star is degenerate and no angle is computed
        for g, v in ((unit_k4(), "a"), (hex_grid_graph(), "h")):
            with pytest.raises(DomainError, match="curvature must be finite"):
                local_compatibility(g, v, kappa)

    def test_spherical_domain_error_names_quadruple(self):
        with pytest.raises(DomainError, match="quadruple at a"):
            local_compatibility(unit_k4(), "a", 12.0)

    def test_report_dict_round_trip(self):
        rep = local_compatibility(star_graph(1.99), "h", 0.0)
        doc = rep.to_dict()
        assert doc["vertex"] == "h" and doc["verdict"] is False
        assert doc["witness"] == [["x", "y", "z"], "excess"]
        assert doc["checks"][0]["certificate"]["verdict"] is False


class TestGlobalCompatibility:
    def test_k4(self):
        rep = global_compatibility(unit_k4(), 0.0)
        assert rep.verdict and rep.witness is None
        assert len(rep.entries) == 4

    @pytest.mark.parametrize("kappa", [math.nan, math.inf, -math.inf])
    def test_non_finite_kappa(self, kappa):
        for g in (unit_k4(), hex_grid_graph()):
            with pytest.raises(DomainError, match="curvature must be finite"):
                global_compatibility(g, kappa)
            with pytest.raises(DomainError, match="curvature must be finite"):
                global_compatibility(g, dict.fromkeys(g.labels, kappa))

    def test_star_first_witness_is_hub(self):
        rep = global_compatibility(star_graph(1.99), 0.0)
        assert not rep.verdict
        assert rep.witness[0] == "h"
        assert rep.witness[2] == "excess"

    def test_single_edge_vacuous(self):
        rep = global_compatibility(parse_metric_graph("a b 1\n"), 0.0)
        assert rep.verdict
        assert all(e.checks == () for e in rep.entries)

    def test_kappa_map(self):
        g = unit_k4()
        rep = global_compatibility(g, {lab: 0.0 for lab in g.labels})
        assert rep.verdict
        with pytest.raises(MissingKappaError):
            global_compatibility(g, {"a": 0.0})

    def test_icosahedron_all_degenerate(self):
        rep = global_compatibility(icosahedron_graph(), 1.0)
        assert rep.verdict
        assert all(len(e.skipped) == 10 for e in rep.entries)

    @given(st.floats(0.5, 1.9), st.floats(-2.0, 2.0))
    @settings(max_examples=30, deadline=None)
    def test_verdict_scale_invariant(self, cross, kappa):
        # spherical domain errors are scale-covariant too, so compare
        # outcomes rather than assuming both calls succeed
        def outcome(g, k):
            try:
                return global_compatibility(g, k).verdict
            except DomainError:
                return "domain"

        g = star_graph(cross)
        s = 3.0
        assert outcome(g, kappa) == outcome(scaled(g, s), kappa / s**2)


def _random_metric_graph(rng, n: int, extra: int, long_share: float) -> MetricGraph:
    """Connected graph: a random spanning tree plus ``extra`` random chords.

    A ``long_share`` of the edges is 3 to 10 times longer than the rest, so
    that shortest paths between two neighbours of a vertex often leave it.
    """
    pairs = {(int(rng.integers(i)), i) for i in range(1, n)}
    for _ in range(extra):
        i, j = sorted(rng.choice(n, size=2, replace=False).tolist())
        pairs.add((i, j))
    edges = []
    for i, j in sorted(pairs):
        w = rng.uniform(0.5, 1.5)
        edges.append((i, j, w * rng.uniform(3.0, 10.0) if rng.random() < long_share else w))
    return MetricGraph([f"n{i}" for i in range(n)], edges)


@st.composite
def metric_graphs(draw):
    """Connected graphs with float lengths, long edges, and exact integer ties."""
    n = draw(st.integers(4, 10))
    pairs = {(draw(st.integers(0, i - 1)), i) for i in range(1, n)}
    for i, j in draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=3 * n)):
        if i != j:
            pairs.add((min(i, j), max(i, j)))
    length = st.floats(0.1, 10.0) | st.integers(1, 3).map(float)
    lengths = draw(st.lists(length, min_size=len(pairs), max_size=len(pairs)))
    return MetricGraph([f"n{i}" for i in range(n)], [(i, j, w) for (i, j), w in zip(sorted(pairs), lengths)])


def _oracle_between(d: np.ndarray) -> bool:
    m = 1e-12 * d.max()
    return any(
        d[i, k] >= d[i, j] + d[j, k] - m
        for j in range(4)
        for i, k in combinations([x for x in range(4) if x != j], 2)
    )


def _check_against_oracle(g: MetricGraph) -> int:
    """Star distances and checked/skipped splits against Floyd-Warshall; returns the detour count.

    A detour is a pair of neighbours of a vertex, without an edge between
    them, that are closer to each other than through that vertex.
    """
    dense = _independent_distances(g)
    edges = {(i, j) for i, j, _ in g.edges}
    report = global_compatibility(g, 0.0)
    detours = 0
    for v, entry in enumerate(report.entries):
        split = {True: [], False: []}
        for idx, raw in zip(*star_rows(g, v)):
            want = dense[np.ix_(idx, idx)]
            np.testing.assert_allclose(raw, want, rtol=1e-12, atol=0.0)
            split[_oracle_between(0.5 * (want + want.T))].append(tuple(g.labels[j] for j in idx[1:]))
            for a, b in combinations(idx[1:], 2):
                if (a, b) not in edges and want[0, idx.index(a)] + want[0, idx.index(b)] > dense[a, b] * (1 + 1e-9):
                    detours += 1
        for rep in (entry, local_compatibility(g, v, 0.0)):
            assert list(rep.skipped) == split[True]
            assert [c.neighbors for c in rep.checks] == split[False]
    return detours


class TestLocalDistances:
    """Bounded per-vertex searches give the all-pairs metric on every star."""

    def test_seeded_sweep(self):
        rng = np.random.default_rng(2024)
        detours = 0
        for k in range(40):
            n = int(rng.integers(5, 25))
            g = _random_metric_graph(rng, n, extra=int(rng.integers(n // 2, 2 * n)), long_share=(0.0, 0.2, 0.5)[k % 3])
            detours += _check_against_oracle(g)
        assert detours > 0

    @given(metric_graphs())
    @settings(max_examples=60, deadline=None)
    def test_random_graphs(self, g):
        _check_against_oracle(g)

    def test_no_dense_matrix(self):
        # the all-pairs matrix is a test oracle only
        assert not hasattr(MetricGraph, "distance_matrix") and not hasattr(MetricGraph, "distance")
        rep = global_compatibility(icosahedron_graph(), 1.0)
        assert rep.verdict and all(len(e.skipped) == 10 for e in rep.entries)
        rep = global_compatibility(hex_grid_graph(), 0.0)
        assert rep.verdict and len(rep.entries[0].skipped) == 20


def icosphere_graph(level: int, seed: int) -> MetricGraph:
    """Chord-length skeleton of a radially jittered icosphere."""
    v, f = jittered_icosphere(level, seed)
    pairs = sorted({(min(a, b), max(a, b)) for t in f.tolist() for a, b in zip(t, t[1:] + t[:1])})
    return MetricGraph([f"v{i}" for i in range(len(v))], [(a, b, float(np.linalg.norm(v[a] - v[b]))) for a, b in pairs])


def tied_grid_graph(size: int = 5) -> MetricGraph:
    """Unit square grid with a diagonal of length exactly 2 in every other cell.

    Each diagonal ties the two unit-edge paths around its cell, and the
    distances between neighbours tie the detours through them.
    """
    edges = []
    for i in range(size):
        for j in range(size):
            k = i * size + j
            if j + 1 < size:
                edges.append((k, k + 1, 1.0))
            if i + 1 < size:
                edges.append((k, k + size, 1.0))
            if i + 1 < size and j + 1 < size and (i + j) % 2 == 0:
                edges.append((k, k + size + 1, 2.0))
    return MetricGraph([f"g{k}" for k in range(size * size)], edges)


def integer_graph(seed: int, n: int = 30) -> MetricGraph:
    """Connected graph with lengths 1, 2 and 3, so that many shortest paths tie exactly."""
    rng = np.random.default_rng(seed)
    pairs = {(int(rng.integers(i)), i) for i in range(1, n)}
    for _ in range(2 * n):
        i, j = sorted(rng.choice(n, size=2, replace=False).tolist())
        pairs.add((i, j))
    return MetricGraph([f"n{i}" for i in range(n)], [(i, j, float(rng.integers(1, 4))) for i, j in sorted(pairs)])


def disconnected_graph() -> MetricGraph:
    """Two K4 components with unequal lengths, a path and an isolated vertex, their labels interleaved."""
    labels = ["a0", "b0", "a1", "b1", "a2", "b2", "a3", "b3", "p0", "p1", "p2", "lone"]
    a, b = [0, 2, 4, 6], [1, 3, 5, 7]
    edges = [(a[i], a[j], 1.0 + 0.1 * (i + j)) for i, j in combinations(range(4), 2)]
    edges += [(b[i], b[j], 2.0 - 0.3 * i) for i, j in combinations(range(4), 2)]
    edges += [(8, 9, 1.5), (9, 10, 0.5)]
    return MetricGraph(labels, edges)


def radius_boundary_graph() -> MetricGraph:
    """A vertex b exactly at the search radius R(a) = 2 (1 + SEARCH_MARGIN) of a, along a - v - y - b.

    The only neighbour v of a has edges of lengths 1 and 0.5, so R(a) is
    2 widened by the margin, and y - b is R(a) - 1.5, which the rounded sum
    1.5 + (R(a) - 1.5) meets exactly; a search ball holds b.
    """
    radius = 2.0 * (1.0 + SEARCH_MARGIN)
    return MetricGraph(["a", "v", "y", "b"], [(0, 1, 1.0), (1, 2, 0.5), (2, 3, radius - 1.5)])


def front_boundary_graph() -> MetricGraph:
    """Keys of a's ball whose distance plus their vertex's shortest edge is R(a) exactly, and one ulp more.

    R(a) = 2 (1 + SEARCH_MARGIN) comes from a - u - w.  In the first
    component y is at 1.5 along a - v - y, and its shortest edge, to b,
    is R(a) - 1.5, whose rounded sum with 1.5 is R(a) itself: y must be
    extended, and b is in the ball at R(a).  The second component
    repeats it with y1's edge to b1 longer, so that the sum is one ulp
    beyond R(a1): y1 is not extended, and b1 is not in the ball.
    """
    radius = 2.0 * (1.0 + SEARCH_MARGIN)
    edges = []
    for k, reach in enumerate((radius - 1.5, math.nextafter(radius, math.inf) - 1.5)):
        a, u, w, v, y, b = range(6 * k, 6 * k + 6)
        edges += [(a, u, 1.0), (u, w, 1.0), (a, v, 0.25), (v, y, 1.25), (y, b, reach)]
    return MetricGraph([f"{x}{k}" for k in range(2) for x in "auwvyb"], edges)


def float_top_graph() -> MetricGraph:
    """Edges at the largest float: search radii are infinite, and distances plus edges overflow.

    The leaf f has only its edge at the largest float, so a distance to it
    plus its shortest edge overflows too.
    """
    top = np.finfo(float).max
    return MetricGraph(list("abcdef"), [(0, 1, top), (1, 2, 1.0), (2, 3, top), (3, 4, 0.5), (0, 4, 2.0), (4, 5, top)])


SWEEP_GRAPHS = {
    **{f"icosphere{level}-{seed}": (lambda level=level, seed=seed: icosphere_graph(level, seed))
       for level in (1, 2, 3) for seed in (21, 22, 23)},
    "hex-grid": hex_grid_graph,
    "tied-grid": tied_grid_graph,
    **{f"integer-{seed}": (lambda seed=seed: integer_graph(seed)) for seed in (1, 2, 3)},
    "disconnected": disconnected_graph,
    "radius-boundary": radius_boundary_graph,
    "front-boundary": front_boundary_graph,
    "float-top": float_top_graph,
}


def oracle_stars(g: MetricGraph) -> tuple:
    """`_Stars` fields at every vertex as one heap search per vertex gives them, read entry by entry.

    Every star is cut, validated and tested on its own, with no pair
    screen; the distances of every star come back, then the raw blocks.
    """
    adj = adjacency(g)
    balls = [star_ball(adj, a) for a in range(g.num_vertices)]
    start, neighbors, raw = [0], [], []
    for v in range(g.num_vertices):
        idx = (v, *sorted(j for j, _ in adj[v]))
        for trio in combinations(idx[1:], 3):
            ids = (v, *trio)
            raw.append([[balls[a][b] for b in ids] for a in ids])
            neighbors.append(list(trio))
        start.append(len(raw))
    raw = np.array(raw, dtype=float).reshape(-1, 4, 4)
    distances, defect = _symmetrized(raw)
    return start, neighbors, distances, defect.tolist(), _betweenness(distances, BETWEENNESS_MARGIN).tolist(), raw


class TestRelaxationOracle:
    """The bounded relaxation and the star assembly against heap Dijkstra searches, bit for bit."""

    @pytest.mark.parametrize("name", SWEEP_GRAPHS)
    def test_balls(self, name):
        g = SWEEP_GRAPHS[name]()
        n = g.num_vertices
        keys, dist = g._balls(np.arange(n))
        balls = [{} for _ in range(n)]
        for key, d in zip(keys.tolist(), dist.tolist()):
            balls[key // n][key % n] = d
        adj = adjacency(g)
        assert balls == [star_ball(adj, a) for a in range(n)]
        if name == "radius-boundary":
            assert balls[0] == {0: 0.0, 1: 1.0, 2: 1.5, 3: 2.0 * (1.0 + SEARCH_MARGIN)}
        if name == "front-boundary":
            assert balls[0][5] == 2.0 * (1.0 + SEARCH_MARGIN) and 11 not in balls[6]

    @pytest.mark.parametrize("name", SWEEP_GRAPHS)
    def test_front_prune(self, name, monkeypatch):
        # a key leaves the front once its shortest edge passes R(source); with shortest edges of 0, none does
        g = SWEEP_GRAPHS[name]()
        fronts = []

        def edges_at(indptr, vertices):
            fronts.append(len(vertices))
            return _edges_at(indptr, vertices)

        monkeypatch.setattr(skeleton, "_edges_at", edges_at)
        sources = np.arange(g.num_vertices)
        keys, dist = g._balls(sources)
        pruned = sum(fronts)
        fronts.clear()
        g._shortest = np.zeros(g.num_vertices)
        whole, whole_dist = g._balls(sources)
        assert keys.tobytes() == whole.tobytes() and dist.tobytes() == whole_dist.tobytes()
        assert pruned <= sum(fronts)
        if name.startswith("icosphere"):
            assert pruned < sum(fronts)

    @pytest.mark.parametrize("star_range", [STAR_RANGE, 7])
    @pytest.mark.parametrize("name", SWEEP_GRAPHS)
    def test_stars(self, name, star_range, monkeypatch):
        # the range size changes only what is held at once
        monkeypatch.setattr(skeleton, "STAR_RANGE", star_range)
        g = SWEEP_GRAPHS[name]()
        stars = _Stars.gather(g, range(g.num_vertices))
        start, neighbors, distances, defect, degenerate, _ = oracle_stars(g)
        assert stars.bases == tuple(range(g.num_vertices))
        assert stars.start == start and stars.neighbors.tolist() == neighbors
        assert (stars.defect.tolist(), stars.degenerate.tolist()) == (defect, degenerate)
        # the stars that keep a block, every nondegenerate one among them
        held = distances[stars.blocked]
        assert np.array_equal(stars.blocked, np.unique(stars.blocked))
        assert not (~stars.degenerate & ~np.isin(np.arange(len(defect)), stars.blocked)).any()
        assert stars.distances.shape == held.shape and stars.distances.tobytes() == held.tobytes()

    @pytest.mark.parametrize("name", SWEEP_GRAPHS)
    def test_local_equals_global_entry(self, name):
        g = SWEEP_GRAPHS[name]()
        for kappa in (-1.0, 0.1):
            entries = global_compatibility(g, kappa).entries
            assert [e.vertex for e in entries] == list(g.labels)
            for v, entry in enumerate(entries):
                assert local_compatibility(g, v, kappa).to_dict() == entry.to_dict()

    def test_sweep_has_checked_skipped_and_empty_stars(self):
        # the sweep covers checked and skipped stars and vertices with none
        seen = set()
        for make in SWEEP_GRAPHS.values():
            for e in global_compatibility(make(), 0.0).entries:
                seen |= {"checked"} if e.checks else set()
                seen |= {"skipped"} if e.skipped else set()
                seen |= {"none"} if not (e.checks or e.skipped) else set()
        assert seen == {"checked", "skipped", "none"}


def margin_boundary_graph() -> MetricGraph:
    """Stars whose one near-betweenness runs across the margin, in consecutive floats.

    In each component a base o has the neighbours a, b and c, and in every
    other component a far neighbour f as well, which raises the largest
    entry of the base's block but not of the star (o, a, b, c).  Either o
    lies nearly between a and b, or a nearly between o and b: the long
    side is 2 (1 - 1e-12) plus k ulps, for k from -40 to 40.
    """
    labels, edges = [], []
    for k in range(-40, 41):
        long = 2.0 * (1.0 - 1e-12) + k * 2.0**-52
        for middle_is_base in (True, False):
            for far in (False, True):
                o, a, b, c, f = range(len(labels), len(labels) + 5)
                labels += [f"{x}{o}" for x in "oabcf"[: 4 + far]]
                if middle_is_base:
                    edges += [(o, a, 1.0), (o, b, 1.0), (a, b, long)]
                else:
                    edges += [(o, a, 1.0), (a, b, 1.0), (o, b, long)]
                edges += [(o, c, 1.0), (a, c, 1.5), (b, c, 1.5)] + [(o, f, 3.0)] * far
    return MetricGraph(labels, edges)


def perturbed(g: MetricGraph, seed: int, rel: float = 1e-13) -> MetricGraph:
    """The graph with each length multiplied by 1 - rel, 1 or 1 + rel, at random."""
    sign = np.random.default_rng(seed).integers(-1, 2, len(g.edges)).tolist()
    return MetricGraph(g.labels, [(i, j, w * (1.0 + s * rel)) for (i, j, w), s in zip(g.edges, sign)])


def huge_hub_graph() -> MetricGraph:
    """A hub with three leaves at 1e308, whose sums overflow, one at 1e307 and one at 1."""
    return MetricGraph(list("cxyzuv"), [(0, 1, 1e308), (0, 2, 1e308), (0, 3, 1e308), (0, 4, 1e307), (0, 5, 1.0)])


def ulp_graph(seed: int, n: int = 12) -> MetricGraph:
    """Lengths of 1 to 40 times the smallest subnormal: sums are exact, but halving rounds to even."""
    rng = np.random.default_rng(seed)
    g = _random_metric_graph(rng, n, extra=2 * n, long_share=0.3)
    return MetricGraph(g.labels, [(i, j, int(rng.integers(1, 41)) * 5e-324) for i, j, _ in g.edges])


def ulp_hubs_graph() -> MetricGraph:
    """Disjoint hubs with three leaves at every trio of 1 to 12 ulps of the smallest subnormal.

    Halving rounds an odd number of ulps to even, so a leaf-to-leaf sum
    through the hub can break its triangle inequality by up to two ulps.
    """
    labels, edges = [], []
    for trio in combinations(range(1, 15), 3):
        hub = len(labels)
        labels += [f"h{hub}", *(f"l{hub}-{k}" for k in range(3))]
        edges += [(hub, hub + 1 + k, (w - k) * 5e-324) for k, w in enumerate(trio)]  # w - k: every trio with repeats
    return MetricGraph(labels, edges)


def overflow_path_graph() -> MetricGraph:
    """A base c whose neighbours a and b are joined by a three-edge path that overflows in one direction only.

    With u the spacing of floats at the top of their range, the path
    a - p - q - b of lengths max - u, 1.4 u and 0.4 u sums to the largest
    float from a, and to infinity from b; so the block of c holds one
    infinite entry and its finite reverse.  The path a - c - b overflows
    both ways, and a leaf s at p at the largest float makes every search
    radius near the top infinite.
    """
    top, u = np.finfo(float).max, 2.0**971
    edges = [(0, 1, 1e308), (0, 2, 1e308), (0, 3, 1.0), (1, 4, top - u), (4, 5, 1.4 * u), (5, 2, 0.4 * u), (4, 6, top)]
    return MetricGraph(list("cabepqs"), edges)


def decimal_graph(seed: int, n: int = 24) -> MetricGraph:
    """Lengths such as 0.1 and 0.7, whose sums round, so a distance and its reverse can differ in the last bit."""
    rng = np.random.default_rng(seed)
    g = _random_metric_graph(rng, n, extra=2 * n, long_share=0.0)
    return MetricGraph(g.labels, [(i, j, float(rng.choice([0.1, 0.2, 0.3, 0.7, 1.1]))) for i, j, _ in g.edges])


SCREEN_GRAPHS = {
    **{f"icosphere{level}-{seed}": (lambda level=level, seed=seed: icosphere_graph(level, seed))
       for level in (1, 2) for seed in (31, 32)},
    "tied-grid": tied_grid_graph,
    **{f"integer-{seed}": (lambda seed=seed: integer_graph(seed)) for seed in (4, 5)},
    **{f"tied-grid-1e-13-{seed}": (lambda seed=seed: perturbed(tied_grid_graph(6), seed)) for seed in (1, 2)},
    **{f"integer-1e-13-{seed}": (lambda seed=seed: perturbed(integer_graph(seed), seed)) for seed in (6, 7)},
    "margin-boundary": margin_boundary_graph,
    "huge-hub": huge_hub_graph,
    "subnormal-grid": lambda: scaled(tied_grid_graph(), 3 * 5e-324),
    "subnormal-icosphere": lambda: scaled(icosphere_graph(1, 33), 1e-310),
    **{f"ulps-{seed}": (lambda seed=seed: ulp_graph(seed)) for seed in (1, 2, 3)},
    "ulp-hubs": ulp_hubs_graph,
    "overflow-path": overflow_path_graph,
    **{f"decimal-{seed}": (lambda seed=seed: decimal_graph(seed)) for seed in (1, 2)},
}


def reference_screen(block: np.ndarray, degree: int) -> np.ndarray:
    """`_pair_screen` by loops over each block, with the slack formed at every triple."""
    size, stars, flags = degree + 1, list(combinations(range(1, degree + 1), 3)), []
    for d in block.tolist():
        sym = [[0.5 * d[i][j] + 0.5 * d[j][i] for j in range(size)] for i in range(size)]
        top = [[max(d[i][j], d[j][i]) for j in range(size)] for i in range(size)]
        pairs = list(combinations(range(size), 2))
        clean = (
            all(map(math.isfinite, sum(d, [])))
            and all(d[i][i] == 0.0 for i in range(size))
            and all(sym[i][j] > 0.0 and abs(d[i][j] - d[j][i]) <= TRIANGLE_SLACK * top[i][j] for i, j in pairs)
            and all(
                sym[i][k] <= sym[i][j] + sym[j][k] + TRIANGLE_SLACK * max(top[i][j], top[j][k], top[i][k])
                for j in range(size)
                for i, k in combinations([x for x in range(size) if x != j], 2)
            )
        )

        def between(a, b):
            h0a, h0b, hab = 0.5 * sym[0][a], 0.5 * sym[0][b], 0.5 * sym[a][b]
            m = BETWEENNESS_MARGIN * max(h0a, h0b, hab, 0.0)
            return hab >= h0a + h0b - m or h0b >= h0a + hab - m or h0a >= h0b + hab - m

        flags.append([clean and (between(a, b) or between(a, c) or between(b, c)) for a, b, c in stars])
    return np.array(flags, dtype=bool).reshape(len(block), len(stars))


def tight_blocks(seed: int, degree: int, count: int) -> tuple[np.ndarray, list[str]]:
    """Blocks of planar points whose one stretched pair misses the triangle inequality by about the slack.

    The base is at the origin, and neighbours 1 and 2 on either side of
    it, so that every star holding both is degenerate once its block is
    clean.  Pair (3, 4) is stretched past the smallest path through a
    third point by less than its slack, by exactly the slack (so that
    sym[3, 4] is the rounded sum of the path and the slack), or by one
    ulp more.  Every other block has an asymmetry of a few ulps at the
    pair (1, 3), within its slack.
    """
    rng = np.random.default_rng(seed)
    blocks, kinds = [], []
    for q in range(count):
        points = np.concatenate([[[0.0, 0.0], [1.0, 0.0], [-1.0, 0.0]], rng.uniform(-1.0, 1.0, (degree - 2, 2))])
        d = np.hypot(*(points[:, None, :] - points[None, :, :]).transpose(2, 0, 1))
        if q % 2:
            d[3, 1] = d[1, 3] * (1.0 + 4 * 2.0**-52)
        sym = (0.5 * d + 0.5 * d.T).tolist()
        path = min(sym[3][j] + sym[j][4] for j in range(degree + 1) if j not in (3, 4))
        at = path
        for _ in range(4):  # the fixed point x = fl(path + fl(TRIANGLE_SLACK * x))
            at = path + TRIANGLE_SLACK * at
        kind = ["inside", "at", "beyond"][q % 3]
        d[3, 4] = d[4, 3] = {"inside": 0.5 * (path + at), "at": at, "beyond": math.nextafter(at, math.inf)}[kind]
        assert kind != "at" or at == path + TRIANGLE_SLACK * at
        blocks.append(d)
        kinds.append(kind)
    return np.array(blocks), kinds


class TestPairScreen:
    """`_Stars.gather`, with its pair screen, against every star cut, validated and tested on its own."""

    # At the library's slack factor no input tells a slack read from
    # symmetrized entries from one read from raw entries (they differ only
    # below 2**-1021, by one ulp), so the sweep also runs at a coarse factor,
    # where they do, and at a fine one, where rounding-level asymmetry and
    # triangle defects send bases around the screen.
    @pytest.mark.parametrize("slack", [TRIANGLE_SLACK, 0.13, 1e-17])
    def test_against_every_star(self, slack, monkeypatch):
        monkeypatch.setattr(quadruple, "TRIANGLE_SLACK", slack)
        monkeypatch.setattr(skeleton, "TRIANGLE_SLACK", slack)
        seen = set()
        for name, make in SCREEN_GRAPHS.items():
            g = make()
            stars = _Stars.gather(g, range(g.num_vertices))
            start, neighbors, distances, defect, degenerate, raw = oracle_stars(g)
            assert stars.start == start and stars.neighbors.tolist() == neighbors, name
            assert (stars.defect.tolist(), stars.degenerate.tolist()) == (defect, degenerate), name
            worst = [max(defect[a:b], default=0) for a, b in zip(start, start[1:])]
            assert [max(stars.defect[a:b].tolist(), default=0) for a, b in zip(start, start[1:])] == worst, name
            assert stars.distances.tobytes() == distances[stars.blocked].tobytes(), name
            settled = ~np.isin(np.arange(len(defect)), stars.blocked)
            seen |= {"settled"} if settled.any() else set()
            seen |= {"kept degenerate"} if stars.degenerate[stars.blocked].any() else set()
            seen |= {"defect"} if any(defect) else set()
            seen |= {"asymmetric"} if (raw != raw.transpose(0, 2, 1)).any() else set()
            if name == "margin-boundary":
                # the star (o, a, b, c) of each variant: nondegenerate up to the boundary, then degenerate
                at_o = [degenerate[start[v]] for v, label in enumerate(g.labels) if label[0] == "o"]
                for variant in (at_o[0::4], at_o[1::4], at_o[2::4], at_o[3::4]):
                    assert 0 < variant.index(True) == variant.count(False) < len(variant)
        assert seen == {"settled", "kept degenerate", "defect", "asymmetric"}

    @pytest.mark.parametrize("degree", [4, 5, 6])
    def test_tight_triples(self, degree):
        # the slack is formed only where a triple fails without it; the flags are those of a slack at every triple
        block, kinds = tight_blocks(degree, degree, 90)
        flags = _pair_screen(block, degree)
        assert flags.tobytes() == reference_screen(block, degree).tobytes()
        clean = flags.any(axis=1).tolist()
        assert [k for k, c in zip(kinds, clean) if not c] == ["beyond"] * 30
        assert (block != block.transpose(0, 2, 1)).any(axis=(1, 2)).sum() == 45

    def test_screen_sweep_against_loops(self):
        for name, make in SCREEN_GRAPHS.items():
            g = make()
            n, deg = g.num_vertices, np.diff(g._indptr)
            keys, dist = g._balls(np.arange(n))
            for k in np.unique(deg[deg >= 3]).tolist():
                idx = np.array([[v, *g._nbr[g._indptr[v] : g._indptr[v + 1]]] for v in np.flatnonzero(deg == k)])
                block = dist[np.searchsorted(keys, idx[:, :, None] * n + idx[:, None, :])]
                assert _pair_screen(block, k).tobytes() == reference_screen(block, k).tobytes(), name


class TestCurveTriple:
    def test_validation(self):
        with pytest.raises(DomainError):
            CurveTriple(0.0, 1.0, 1.0)
        with pytest.raises(DomainError):
            CurveTriple(1.0, 1.0, 2.1)
        with pytest.raises(DomainError):
            CurveTriple(1.0, math.inf, 1.0)

    def test_collinear_is_zero_in_both_modes(self):
        t = CurveTriple(1.0, 1.0, 2.0)
        assert polyline_curvature(t, "menger") == 0.0
        assert polyline_curvature(t, "finsler_haantjes") == 0.0

    def test_unknown_mode(self):
        with pytest.raises(DomainError):
            polyline_curvature(CurveTriple(1.0, 1.0, 1.5), "gauss")


class TestMengerCurvature:
    def test_unit_circle_chords(self):
        leg = 2.0 * math.sin(0.1)
        span = 2.0 * math.sin(0.2)
        k = polyline_curvature(CurveTriple(leg, leg, span))
        assert k == pytest.approx(1.0, rel=1e-12)

    def test_inverse_circumradius_any_radius(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            r = float(rng.uniform(0.1, 50.0))
            t1, t2 = rng.uniform(0.05, 1.2, size=2)
            leg1 = 2.0 * r * math.sin(t1 / 2.0)
            leg2 = 2.0 * r * math.sin(t2 / 2.0)
            span = 2.0 * r * math.sin((t1 + t2) / 2.0)
            k = polyline_curvature(CurveTriple(leg1, leg2, span))
            assert k == pytest.approx(1.0 / r, rel=1e-10)

    def test_equilateral(self):
        # circumradius of the unit equilateral triangle is 1/sqrt(3)
        k = polyline_curvature(CurveTriple(1.0, 1.0, 1.0))
        assert k == pytest.approx(math.sqrt(3.0), rel=1e-12)


class TestFinslerHaantjesSurrogate:
    def test_frozen_unit_circle_sample(self):
        leg = 2.0 * math.sin(0.1)
        span = 2.0 * math.sin(0.2)
        k = polyline_curvature(CurveTriple(leg, leg, span), "finsler_haantjes")
        assert k == pytest.approx(0.8736477805708911, rel=1e-13)

    def test_converges_to_sqrt3_over_2(self):
        # chordal-arc bias: limit on a unit circle is sqrt(3)/2, not 1
        limit = math.sqrt(3.0) / 2.0
        vals = []
        for h in (0.2, 0.1, 0.05, 0.025, 0.0125):
            leg = 2.0 * math.sin(h / 2.0)
            span = 2.0 * math.sin(h)
            vals.append(polyline_curvature(CurveTriple(leg, leg, span), "finsler_haantjes"))
        gaps = [v - limit for v in vals]
        assert all(g > 0.0 for g in gaps)
        assert all(b < a for a, b in zip(gaps, gaps[1:]))
        assert gaps[-1] < 5e-5

    def test_scales_like_curvature(self):
        # halving the radius doubles the reported value
        leg = 2.0 * math.sin(0.05)
        span = 2.0 * math.sin(0.1)
        k1 = polyline_curvature(CurveTriple(leg, leg, span), "finsler_haantjes")
        k2 = polyline_curvature(CurveTriple(leg / 2, leg / 2, span / 2), "finsler_haantjes")
        assert k2 == pytest.approx(2.0 * k1, rel=1e-12)
