"""Quadruple certificates and star checks against the scalar code they replaced.

`scalar_s3_embeddability` is `s3_embeddability` as first written: the vertex
excesses from one pass over the 12 comparison angles, then a second pass
over the same angles for the triangle-inequality slacks.  `scalar_global` is
the star loop `global_compatibility` once ran: per star, distances read from
one heap Dijkstra search per vertex (`test_skeleton.star_ball`), one
validated `MetricQuadruple` and one betweenness test.  Their angles come one
at a time from `comparison_angle`, whose values `test_angle_kernel` checks
against a 40-digit reference, and `reference_symmetrized` and
`reference_betweenness` are the star screen as first written.  The batched
code must give equal documents (``==``), the same bytes from the writer, and
the same `DomainError` text.  The command-line tool writes its check-global
and check-local documents from the report columns, not from these objects:
its text must be `cli._dumps` of the scalar payload, byte for byte.
"""

import contextlib
import io
import json
import math
import os
import tempfile
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from plembed import (
    DegenerateQuadrupleError,
    DomainError,
    EmbeddabilityCertificate,
    MetricQuadruple,
    comparison_angle,
    global_compatibility,
    nondegenerate,
    s3_embeddability,
)
from plembed import MetricGraph, cli, quadruple, skeleton
from plembed.quadruple import _DEFECTS, BETWEENNESS_MARGIN, _betweenness, _symmetrized
from plembed.skeleton import ANGLE_TOL, CompatibilityReport, LocalReport, QuadrupleCheck
from plembed.spaceform import comparison_angles

from conftest import hex_grid_graph, icosahedron_graph, octahedron_graph, star_graph, unit_k4
from test_cli import K4_DOC
from test_skeleton import _random_metric_graph, adjacency, icosphere_graph, star_ball
from test_wald_oracle import (
    SURFACE_KAPPAS,
    quadruples,
    seeded,
    space_quadruple,
    sphere_quadruple,
    surface_quadruple,
)

TWO_PI = 2.0 * math.pi
GRAPH_KAPPAS = (-1.0, 0.0, 1.0, 4.0)


def apex_angles(d, kappa, i):
    rest = [j for j in range(4) if j != i]
    return tuple(comparison_angle(kappa, d[j, l], d[i, j], d[i, l]) for j, l in combinations(rest, 2))


def scalar_s3_embeddability(q, kappa, angle_tol=1e-9):
    if not nondegenerate(q):
        raise DegenerateQuadrupleError("quadruple has a metric betweenness")
    d = q.distances
    verdict = True
    witness = None
    v = np.array([sum(apex_angles(d, kappa, i)) for i in range(4)])
    excess_slack = TWO_PI - float(v.max())
    if excess_slack < -angle_tol:
        verdict = False
        witness = ("excess", int(np.argmax(v)))
    slacks = np.empty((4, 3))
    planar = False
    for i in range(4):
        a1, a2, a3 = apex_angles(d, kappa, i)
        s = (a2 + a3 - a1, a1 + a3 - a2, a1 + a2 - a3)
        slacks[i] = s
        if any(abs(x) <= angle_tol for x in s):
            planar = True
        if verdict and min(s) < -angle_tol:
            verdict = False
            witness = ("angle", i, int(np.argmin(s)))
    return EmbeddabilityCertificate(verdict, planar and verdict, excess_slack, slacks, witness)


def scalar_local(g, v, kappa, tol=ANGLE_TOL):
    label = g.labels[v]
    adj = adjacency(g)
    idx = (v, *sorted(j for j, _ in adj[v]))
    ball = {a: star_ball(adj, a) for a in idx}
    # every star is validated before any is certified
    stars = []
    for trio in combinations(idx[1:], 3):
        ids = (v, *trio)
        quad = MetricQuadruple([[ball[a][b] for b in ids] for a in ids])
        stars.append((tuple(g.labels[j] for j in trio), quad))
    checks, skipped = [], []
    verdict = True
    witness = None
    for nbr_labels, quad in stars:
        if not nondegenerate(quad):
            skipped.append(nbr_labels)
            continue
        try:
            cert = scalar_s3_embeddability(quad, 0.0, angle_tol=tol)
            vk = sum(apex_angles(quad.distances, kappa, 0))
        except DomainError as e:
            raise DomainError(f"quadruple at {label} with neighbours {nbr_labels}: {e}") from e
        curvature_slack = TWO_PI - vk
        ok = cert.verdict and curvature_slack >= -tol
        checks.append(QuadrupleCheck(nbr_labels, curvature_slack, cert, ok))
        if not ok and verdict:
            verdict = False
            if not cert.verdict:
                if cert.witness[0] == "excess":
                    name = "excess"
                elif cert.witness[1] == 0:
                    name = f"angle{cert.witness[2]}"
                else:
                    name = f"angle{cert.witness[2]}@{cert.witness[1]}"
            else:
                name = "curvature"
            witness = (nbr_labels, name)
    return LocalReport(label, float(kappa), verdict, tuple(checks), tuple(skipped), witness)


def scalar_global(g, kappa):
    entries = []
    verdict = True
    witness = None
    for v, lab in enumerate(g.labels):
        rep = scalar_local(g, v, kappa[lab] if isinstance(kappa, dict) else kappa)
        entries.append(rep)
        if not rep.verdict and verdict:
            verdict = False
            witness = (lab, rep.witness[0], rep.witness[1])
    return CompatibilityReport(verdict, tuple(entries), witness)


def outcome(make):
    """The document that make() returns, or the type and text of the DomainError it raises."""
    try:
        return make().to_dict()
    except DomainError as e:
        return (type(e).__name__, str(e))


def assert_same_certificates(q, kappas):
    for kappa in kappas:
        want = outcome(lambda: scalar_s3_embeddability(q, kappa))
        assert outcome(lambda: s3_embeddability(q, kappa)) == want


def assert_same_report(g, kappa):
    want = outcome(lambda: scalar_global(g, kappa))
    assert outcome(lambda: global_compatibility(g, kappa)) == want
    return want


@pytest.mark.parametrize("kappa", SURFACE_KAPPAS)
def test_caps(kappa):
    for q in seeded(lambda rng: surface_quadruple(kappa, rng, radius=rng.uniform(0.2, 3.0)), 40, 300 + int(kappa)):
        assert_same_certificates(q, {kappa, 0.0, 1.0, -1.0})


def test_whole_sphere_and_space():
    for q in seeded(sphere_quadruple, 60, 31) + seeded(space_quadruple, 60, 32):
        assert_same_certificates(q, SURFACE_KAPPAS)


@given(quadruples(st.floats(0.1, 10.0)), st.floats(-10.0, 10.0))
@settings(max_examples=150, deadline=None)
def test_random_metrics(q, kappa):
    assert_same_certificates(q, [kappa])


def test_seeded_random_graphs():
    rng = np.random.default_rng(2024)
    seen = set()
    for k in range(40):
        n = int(rng.integers(5, 25))
        g = _random_metric_graph(rng, n, extra=int(rng.integers(n // 2, 2 * n)), long_share=(0.0, 0.2, 0.5)[k % 3])
        for kappa in GRAPH_KAPPAS:
            doc = assert_same_report(g, kappa)
            if isinstance(doc, tuple):
                seen.add("domain")
            else:
                seen.update(e["witness"][1] for e in doc["entries"] if e["witness"])
    # the sweep reaches domain errors and every witness at the base vertex
    assert seen == {"domain", "excess", "curvature", "angle0", "angle1", "angle2"}


@pytest.mark.parametrize("kappa", GRAPH_KAPPAS)
@pytest.mark.parametrize("make", [icosahedron_graph, hex_grid_graph, octahedron_graph, unit_k4, star_graph])
def test_fixtures(make, kappa):
    assert_same_report(make(), kappa)


def test_spherical_domain_error_text():
    doc = assert_same_report(unit_k4(), 12.0)
    message = "quadruple at a with neighbours ('b', 'c', 'd'): side exceeds pi/sqrt(kappa) on the sphere"
    assert doc == ("DomainError", message)


@pytest.fixture
def angle_calls(monkeypatch):
    """The number of angles of each call of the batched kernel."""
    calls = []

    def counted(kappa, *sides):
        calls.append((np.broadcast(kappa, *sides).size, np.unique(kappa).tolist()))
        return comparison_angles(kappa, *sides)

    monkeypatch.setattr(quadruple, "comparison_angles", counted)
    return calls


def test_each_angle_once(angle_calls, tmp_path, capsys):
    s3_embeddability(MetricQuadruple.from_pairwise(1, 1, 1, 1, 1, 1), 0.0)
    assert angle_calls == [(12, [0.0])]
    angle_calls.clear()
    path = tmp_path / "k4.json"
    path.write_text(K4_DOC)
    assert cli.main(["check-local", "--graph", str(path), "--vertex", "a", "--kappa", "1"]) == 0
    assert '"verdict": true' in capsys.readouterr().out
    # the flat table of the one star, then the three curvature angles at its base
    assert angle_calls == [(12, [0.0]), (3, [1.0])]


# ---------------------------------------------------------------------------
# The star screen against the stack code it replaced.

# every (i, j, k) with j distinct from i < k: the side d[i, k] against the path i -> j -> k
TRIPLES = np.array([(i, j, k) for j in range(4) for i, k in combinations([x for x in range(4) if x != j], 2)]).T


def reference_symmetrized(d):
    i, j, k = TRIPLES
    scale = d.max(axis=(-2, -1))
    slack = 1e-12 * scale
    dt = np.swapaxes(d, -1, -2)
    with np.errstate(invalid="ignore", over="ignore"):
        sym = 0.5 * d + 0.5 * dt
        sym[..., range(4), range(4)] = 0.0
        off = ~np.eye(4, dtype=bool)
        failed = np.stack(
            [
                ~np.isfinite(d).all(axis=(-2, -1)),
                scale <= 0.0,
                np.abs(d - dt).max(axis=(-2, -1)) > slack,
                np.abs(np.diagonal(d, axis1=-2, axis2=-1)).max(axis=-1) > slack,
                sym[..., off].min(axis=-1) <= 0.0,
                np.any(sym[..., i, k] > sym[..., i, j] + sym[..., j, k] + slack[..., None], axis=-1),
            ]
        )
    return sym, np.where(failed.any(axis=0), failed.argmax(axis=0) + 1, 0)


def reference_betweenness(d, margin):
    i, j, k = TRIPLES
    h = 0.5 * d
    m = margin * h.max(axis=(-2, -1))
    return np.any(h[..., i, k] >= h[..., i, j] + h[..., j, k] - m[..., None], axis=-1)


def screen_stack(rng, count):
    """Seeded (count, 4, 4) stacks: metrics, near-degenerate ones, and one fault of each kind, mixed."""
    pts = rng.normal(size=(count, 4, 3))
    d = np.linalg.norm(pts[:, :, None] - pts[:, None, :], axis=-1)
    # a quarter nearly collinear, so betweenness is close
    line = rng.uniform(0.0, 1.0, size=(count // 4, 4))
    stretch = 1.0 + rng.choice([0.0, 1e-13, 1e-11], size=(count // 4, 1, 1))
    d[: count // 4] = np.abs(line[:, :, None] - line[:, None, :]) * stretch
    # rounding-sized asymmetry on every matrix
    d *= 1.0 + 1e-15 * rng.integers(-2, 3, size=d.shape)
    faults = [math.nan, math.inf, -math.inf, 0.0, -1.0, 1e3, 1e-13, 1e308]
    for q in rng.choice(count, size=count // 3, replace=False):
        i, j = rng.integers(4, size=2)
        kind = rng.integers(4)
        if kind == 0:  # one entry
            d[q, i, j] = rng.choice(faults)
        elif kind == 1:  # one pair, both ways
            d[q, i, j] = d[q, j, i] = rng.choice(faults)
        elif kind == 2:  # every entry
            d[q] = rng.choice([0.0, -1.0])
        else:  # asymmetry near the slack
            d[q, i, j] *= 1.0 + rng.choice([1e-9, 1e-12, 5e-13])
    return d


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_screen_matches_the_stack_code(seed):
    d = screen_stack(np.random.default_rng(seed), 3000)
    sym, defect = _symmetrized(d)
    want_sym, want_defect = reference_symmetrized(d)
    metric = want_defect == 0
    assert defect.tolist() == want_defect.tolist()
    assert set(defect.tolist()) == set(range(len(_DEFECTS) + 1))  # every fault, and metrics
    assert sym[metric].tobytes() == want_sym[metric].tobytes()
    np.testing.assert_array_equal(sym, want_sym)  # nan where the stack has nan
    for margin in (BETWEENNESS_MARGIN, 0.0, 1e-6):
        assert _betweenness(sym[metric], margin).tolist() == reference_betweenness(want_sym[metric], margin).tolist()
    assert {True, False} == set(_betweenness(sym[metric], BETWEENNESS_MARGIN).tolist())


def test_screen_keeps_the_stack_shape():
    d = screen_stack(np.random.default_rng(4), 24).reshape(2, 3, 4, 4, 4)
    sym, defect = _symmetrized(d)
    assert sym.shape == d.shape and defect.shape == (2, 3, 4)
    assert defect.tolist() == reference_symmetrized(d)[1].tolist()
    assert _betweenness(sym, 0.0).shape == (2, 3, 4)
    assert _symmetrized(np.ones((4, 4)) - np.eye(4))[1].shape == ()


# ---------------------------------------------------------------------------
# check-global on skeletons with every kind of vertex, byte for byte.


def signed_zero_map(g, rng):
    """A curvature map of -0.0, 0.0, 1e-15 and -1e-15, each written as it is."""
    return dict(zip(g.labels, rng.choice([-0.0, 0.0, 1e-15, -1e-15], size=g.num_vertices).tolist()))


def skeleton_with_extras(level, seed):
    """A jittered icosphere skeleton, a pendant vertex at v0 (its stars at v0 are degenerate),
    a vertex of degree 2 and an isolated vertex."""
    g = icosphere_graph(level, seed)
    n = g.num_vertices
    edges = [*g.edges, (0, n, 0.3), (1, n + 1, 0.4), (2, n + 1, 0.5)]
    return MetricGraph([*g.labels, "pendant", "bridge", "lone"], edges)


def run_check(g, kappa, *argv):
    """Exit status, stdout, stderr and graph path of `plembed` ``argv`` on g written as a graph document.

    A curvature map goes into the document, a number onto the command line.
    """
    doc = {"vertices": list(g.labels), "edges": [[g.labels[i], g.labels[j], w] for i, j, w in g.edges]}
    if isinstance(kappa, dict):
        doc["kappa"] = kappa
    else:
        argv += (f"--kappa={kappa!r}",)
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "graph.json")
        with open(path, "w") as fh:
            json.dump(doc, fh)
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            status = cli.main([argv[0], "--graph", path, *argv[1:]])
    return status, out.getvalue(), err.getvalue(), path


def assert_same_cli_text(want, command, g, kappa, *argv):
    """The command's text is `cli._dumps` of the scalar payload ``want``, or the error line of its DomainError."""
    status, out, err, path = run_check(g, kappa, command, *argv)
    if isinstance(want, tuple):
        assert (status, out, err) == (2, "", f"error: {want[1]}\n")
    else:
        doc = {"command": command, "graph": path, **want, "schema_version": cli.SCHEMA_VERSION}
        assert (status, out, err) == (0 if want["verdict"] else 1, cli._dumps(doc) + "\n", "")
    return out


def assert_same_bytes(g, kappa):
    want = outcome(lambda: scalar_global(g, kappa))
    got = outcome(lambda: global_compatibility(g, kappa))
    if isinstance(want, tuple):
        assert got == want
    else:
        assert cli._dumps(got) == cli._dumps(want)
    assert_same_cli_text(want, "check-global", g, kappa)
    return want


@pytest.mark.parametrize("level, seed", [(1, 21), (1, 22), (2, 23)])
def test_icosphere_skeletons(level, seed):
    g = skeleton_with_extras(level, seed)
    rng = np.random.default_rng(seed)
    mixed = dict(zip(g.labels, rng.choice([-2.0, -0.5, 0.0, 1e-15, 0.3, 1.0, 2.0], size=g.num_vertices).tolist()))
    seen = set()
    for kappa in (0.0, 1.0, -1.0, 6.0, mixed, signed_zero_map(g, rng)):
        doc = assert_same_bytes(g, kappa)
        entries = {e["vertex"]: e for e in doc["entries"]}
        seen |= {e["witness"][1] for e in doc["entries"] if e["witness"]}
        assert any("pendant" in trio for trio in entries["v0"]["skipped"])
        assert sum(len(e["checks"]) for e in doc["entries"]) > 10
        assert not (entries["bridge"]["checks"] or entries["bridge"]["skipped"] or entries["lone"]["checks"])
    assert seen  # some entries fail, so their witnesses are compared too


def test_beyond_the_sphere_same_text():
    # sqrt(kappa) * d > pi: the first star in vertex and pair order names itself
    g = skeleton_with_extras(1, 21)
    checked = [e.vertex for e in global_compatibility(g, 0.0).entries if e.checks]
    for kappa in (30.0, 1e4):
        want = assert_same_bytes(g, kappa)
        assert want == ("DomainError", want[1]) and want[1].startswith(f"quadruple at {checked[0]} with neighbours (")
        assert want[1].endswith("side exceeds pi/sqrt(kappa) on the sphere")
        # only at a later vertex, in a per-vertex map
        late = dict.fromkeys(g.labels, 0.5)
        late[checked[-1]] = kappa
        want = assert_same_bytes(g, late)
        assert want[1].startswith(f"quadruple at {checked[-1]} with neighbours (")


@pytest.mark.parametrize("defect_first", [True, False])
def test_defect_and_angle_failures_in_vertex_order(defect_first):
    # a star whose leaves are 1e308 from its hub (leaf to leaf overflows: "distances must be
    # finite"), and a unit K4 beyond the sphere at kappa = 100; whichever base comes first fails
    hub = ["c", "x", "y", "z"]
    k4 = ["a", "b", "d", "e"]
    labels = hub + k4 if defect_first else k4 + hub
    at = {lab: i for i, lab in enumerate(labels)}
    edges = [(at["c"], at[leaf], 1e308) for leaf in "xyz"]
    edges += [(at[u], at[v], 1.0) for u, v in combinations(k4, 2)]
    want = assert_same_bytes(MetricGraph(labels, edges), 100.0)
    if defect_first:
        assert want == ("DomainError", "distances must be finite")
    else:
        text = "quadruple at a with neighbours ('b', 'd', 'e'): side exceeds pi/sqrt(kappa) on the sphere"
        assert want == ("DomainError", text)


def test_check_local_at_every_vertex():
    g = skeleton_with_extras(1, 21)
    kappa = signed_zero_map(g, np.random.default_rng(5))
    assert {-0.0, 1e-15} <= set(kappa.values()) and any(math.copysign(1.0, k) < 0 for k in kappa.values() if k == 0)
    texts = []
    for v, label in enumerate(g.labels):
        want = outcome(lambda: scalar_local(g, v, kappa[label]))
        texts.append(assert_same_cli_text(want, "check-local", g, kappa, "--vertex", label))
    assert any('"kappa": -0.0,' in t for t in texts) and any('"kappa": 1e-15,' in t for t in texts)
    # vertices with checks and with skipped stars, written at the top level of the document
    assert any('"checks": [\n    {' in t for t in texts) and any('"skipped": [\n    [' in t for t in texts)


# labels that JSON escapes: a non-ASCII letter, a quote, a backslash and a character beyond Latin-1
ESCAPED_LABELS = ["caf\u00e9", 'q"uote', "back\\slash", "\u2603"]


def test_escaped_labels():
    g = MetricGraph(ESCAPED_LABELS, [(i, j, 1.0) for i, j in combinations(range(4), 2)])
    want = assert_same_bytes(g, 4.0)
    assert want["verdict"] is False and want["witness"][0] == "caf\u00e9"
    out = assert_same_cli_text(want, "check-global", g, 4.0)
    assert out == json.dumps(json.loads(out), sort_keys=True, indent=2) + "\n"
    assert all(json.dumps(label) in out for label in ESCAPED_LABELS)
    for v, label in enumerate(ESCAPED_LABELS):
        assert_same_cli_text(outcome(lambda: scalar_local(g, v, 4.0)), "check-local", g, 4.0, "--vertex", label)


def test_no_object_per_star(monkeypatch):
    # the command-line documents come from the columns: no check, report or certificate object is built
    g = skeleton_with_extras(1, 22)
    kappa = signed_zero_map(g, np.random.default_rng(6))
    want_global = global_compatibility(g, kappa).to_dict()
    want_local = [skeleton.local_compatibility(g, label, kappa[label]).to_dict() for label in g.labels]

    def forbidden(*args, **kwargs):
        raise AssertionError("an object per star")

    for name in ("QuadrupleCheck", "LocalReport", "EmbeddabilityCertificate", "CompatibilityReport"):
        monkeypatch.setattr(skeleton, name, forbidden)
    with pytest.raises(AssertionError, match="an object per star"):
        global_compatibility(g, kappa)
    assert_same_cli_text(want_global, "check-global", g, kappa)
    for label, want in zip(g.labels, want_local):
        assert_same_cli_text(want, "check-local", g, kappa, "--vertex", label)
