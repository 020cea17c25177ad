"""Quadruple certificates and star checks against the scalar code they replaced.

`scalar_s3_embeddability` is `s3_embeddability` as first written: the vertex
excesses from one pass over the 12 comparison angles, then a second pass
over the same angles for the triangle-inequality slacks.  `scalar_global` is
the star loop `global_compatibility` once ran: per star, distances read from
one heap Dijkstra search per vertex (`test_skeleton.star_ball`), one
validated `MetricQuadruple` and one betweenness test.  The single-pass code must give equal documents (``==``) and the same
`DomainError` text.
"""

import math
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
from plembed import cli, quadruple
from plembed.skeleton import ANGLE_TOL, CompatibilityReport, LocalReport, QuadrupleCheck

from conftest import hex_grid_graph, icosahedron_graph, octahedron_graph, star_graph, unit_k4
from test_cli import K4_DOC
from test_skeleton import _random_metric_graph, adjacency, star_ball
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
    idx = (v, *g.neighbors(v))
    adj = adjacency(g)
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
        rep = scalar_local(g, v, kappa)
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
    calls = []

    def counted(*args):
        calls.append(args)
        return comparison_angle(*args)

    monkeypatch.setattr(quadruple, "comparison_angle", counted)
    return calls


def test_each_angle_once(angle_calls, tmp_path, capsys):
    s3_embeddability(MetricQuadruple.from_pairwise(1, 1, 1, 1, 1, 1), 0.0)
    assert len(angle_calls) == 12
    angle_calls.clear()
    path = tmp_path / "k4.json"
    path.write_text(K4_DOC)
    assert cli.main(["check-local", "--graph", str(path), "--vertex", "a", "--kappa", "1"]) == 0
    assert '"verdict": true' in capsys.readouterr().out
    # the flat table of the one star, then the three curvature angles at its base
    assert len(angle_calls) == 15 and {a[0] for a in angle_calls[:12]} == {0.0} and angle_calls[12][0] == 1.0
