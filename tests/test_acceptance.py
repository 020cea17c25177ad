"""End-to-end acceptance gate.

Each test covers one headline guarantee at its stated tolerance and prints a
single [PASS]/[FAIL] line (run with ``pytest tests/test_acceptance.py -v -s``
to see them).  Oracles here are deliberately independent of the library
internals: model distances, flat angles, and shortest paths are recomputed
from scratch before being compared.
"""

import json
import math
import os
import subprocess
import sys
import time
from itertools import combinations

import numpy as np
import pytest
from scipy.sparse.csgraph import shortest_path

from plembed import (
    AcuteTriangle,
    FoldParams,
    MetricGraph,
    MetricQuadruple,
    canonical_element,
    cayley_menger,
    comparison_angle,
    convex_face_count_bound,
    dihedral_wedge_coefficients,
    DihedralWedgeSpec,
    global_compatibility,
    isometry_defect,
    mesh_edge_dilatation_bound,
    normalized_link_volume,
    normalized_link_volume_mc,
    parse_off,
    PolyMesh,
    realize_quadruple,
    uniform_index_bound,
    wald_curvature,
)

from conftest import (
    separated,
    fold_jacobian,
    vertex_excess,
    CUBE_OFF,
    TETRA_OFF,
    icosahedron_graph,
    octahedron_graph,
    random_rotation,
    star_graph,
    unit_k4,
)

TWO_PI = 2.0 * math.pi
KAPPA_SET = (-4.0, -1.0, 0.0, 1.0, 4.0)
KAPPA_GRID = (-4.0, -2.0, -1.0, 0.0, 1.0, 2.0, 4.0)


def _verdict(name: str, ok: bool, detail: str = "") -> None:
    tag = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[{tag}] {name}{suffix}")
    assert ok, f"{name}{suffix}"


def _clamp(x: float) -> float:
    return max(-1.0, min(1.0, x))


def _model_distance(kappa: float, p, q) -> float:
    """Geodesic distance between polar points on the curvature-kappa surface."""
    r1, t1 = p
    r2, t2 = q
    dt = t1 - t2
    if kappa > 0.0:
        s = math.sqrt(kappa)
        cd = math.cos(s * r1) * math.cos(s * r2) + math.sin(s * r1) * math.sin(s * r2) * math.cos(dt)
        return math.acos(_clamp(cd)) / s
    if kappa < 0.0:
        s = math.sqrt(-kappa)
        cd = math.cosh(s * r1) * math.cosh(s * r2) - math.sinh(s * r1) * math.sinh(s * r2) * math.cos(dt)
        return math.acosh(max(1.0, cd)) / s
    return math.hypot(r1 * math.cos(t1) - r2 * math.cos(t2), r1 * math.sin(t1) - r2 * math.sin(t2))


def _sample_surface_quadruple(kappa: float, rng) -> MetricQuadruple:
    """Four random points on the curvature-kappa surface, as a quadruple."""
    shrink = 1.0 / math.sqrt(max(abs(kappa), 1.0))
    while True:
        rs = rng.uniform(0.1, 0.6, size=4) * shrink
        ts = rng.uniform(0.0, TWO_PI, size=4)
        pts = list(zip(rs, ts))
        d = np.zeros((4, 4))
        for i, j in combinations(range(4), 2):
            d[i, j] = d[j, i] = _model_distance(kappa, pts[i], pts[j])
        if d[np.triu_indices(4, 1)].min() < 0.05 * shrink:
            continue
        try:
            q = MetricQuadruple(d)
        except ValueError:
            continue
        if separated(q, 1e-3 * shrink):
            return q


def test_wald_round_trip():
    rng = np.random.default_rng(101)
    per_kappa = 40  # 5 curvatures x 40 = 200 quadruples
    worst = 0.0
    start = time.perf_counter()
    for kappa in KAPPA_SET:
        for _ in range(per_kappa):
            q = _sample_surface_quadruple(kappa, rng)
            res = wald_curvature(q)
            if not res.roots:
                _verdict("wald-round-trip", False, f"no roots at kappa={kappa}")
            if kappa == 0.0:
                err = min(abs(r.kappa) for r in res.roots)
            else:
                err = min(abs(r.kappa - kappa) for r in res.roots) / abs(kappa)
            worst = max(worst, err)
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-6 and elapsed <= 10.0
    _verdict("wald-round-trip", ok, f"200 quadruples, worst err {worst:.2e}, {elapsed:.1f}s")


def test_flatness_detection():
    rng = np.random.default_rng(202)
    bad = 0
    # planar quadruples: the bordered determinant vanishes and the
    # classification is flat
    n_planar = 0
    while n_planar < 100:
        pts = rng.uniform(0.0, 2.0, size=(4, 2))
        d = np.zeros((4, 4))
        for i, j in combinations(range(4), 2):
            d[i, j] = d[j, i] = float(np.linalg.norm(pts[i] - pts[j]))
        try:
            q = MetricQuadruple(d)
        except ValueError:
            continue
        if not separated(q, 1e-4):
            continue
        n_planar += 1
        scale8 = q.max_distance**8
        if abs(cayley_menger(q)) > 1e-9 * scale8:
            bad += 1
        elif wald_curvature(q).classification != "flat":
            bad += 1
    # spatial quadruples with genuine volume are never classified flat
    n_spatial = 0
    while n_spatial < 100:
        pts = rng.uniform(0.0, 2.0, size=(4, 3))
        d = np.zeros((4, 4))
        for i, j in combinations(range(4), 2):
            d[i, j] = d[j, i] = float(np.linalg.norm(pts[i] - pts[j]))
        q = MetricQuadruple(d)
        if not separated(q, 1e-4):
            continue
        if abs(cayley_menger(q)) <= 1e-6 * q.max_distance**8:
            continue  # nearly planar; not a witness of non-planarity
        n_spatial += 1
        if wald_curvature(q).classification == "flat":
            bad += 1
    _verdict("flatness-detection", bad == 0, f"200 quadruples, {bad} misclassified")


def test_monotonicity():
    rng = np.random.default_rng(303)
    violations = 0
    slack = 1e-12
    for _ in range(500):
        # triple from three points in a small disk (admissible on the whole grid)
        while True:
            pts = rng.uniform(-0.25, 0.25, size=(3, 2))
            a = float(np.linalg.norm(pts[1] - pts[2]))
            b = float(np.linalg.norm(pts[0] - pts[2]))
            c = float(np.linalg.norm(pts[0] - pts[1]))
            if min(a, b, c) > 0.02:
                break
        angles = [comparison_angle(k, a, b, c) for k in KAPPA_GRID]
        violations += sum(1 for lo, hi in zip(angles, angles[1:]) if hi < lo - slack)
    for _ in range(500):
        while True:
            pts = rng.uniform(-0.25, 0.25, size=(4, 3))
            d = np.zeros((4, 4))
            for i, j in combinations(range(4), 2):
                d[i, j] = d[j, i] = float(np.linalg.norm(pts[i] - pts[j]))
            if d[np.triu_indices(4, 1)].min() < 0.02:
                continue
            q = MetricQuadruple(d)
            if separated(q, 1e-4):
                break
        excesses = [vertex_excess(q, k)[0] for k in KAPPA_GRID]
        for lo, hi in zip(excesses, excesses[1:]):
            violations += int(np.sum(hi < lo - slack))
    _verdict("monotonicity", violations == 0, f"1000 samples x 7 curvatures, {violations} violations")


def test_closed_form_table():
    def inner(n, k, *angles):
        return dihedral_wedge_coefficients(DihedralWedgeSpec(n, k, tuple(angles))).inner

    checks = [
        inner(3, 1, math.pi / 6.0) == 6.0,
        inner(3, 1, math.pi / 4.0) == 4.0,
        inner(3, 1, math.pi / 3.0) == 3.0,
        inner(3, 1, math.pi / 2.0) == 2.0,
        inner(3, 1, 2.0 * math.pi / 3.0) == 1.5,
        inner(3, 1, math.pi) == 1.0,
        inner(4, 1, math.pi / 2.0, math.pi / 2.0) == 4.0,
        convex_face_count_bound(4, 3).inner == 3.0,
        convex_face_count_bound(6, 3).inner == 5.0 / 3.0,
        uniform_index_bound(3, 2.0) == 18.0,
    ]
    _verdict("closed-form-table", all(checks), f"{sum(checks)}/{len(checks)} values bit-exact")


def test_mesh_audit():
    cube = parse_off(CUBE_OFF)
    tetra = parse_off(TETRA_OFF)
    tetra_expect = math.pi / math.acos(1.0 / 3.0)
    ok = abs(mesh_edge_dilatation_bound(cube).bound - 2.0) <= 1e-9
    ok &= abs(mesh_edge_dilatation_bound(tetra).bound - tetra_expect) <= 1e-9
    rng = np.random.default_rng(404)
    worst = 0.0
    for _ in range(20):
        rot = random_rotation(rng)
        shift = rng.normal(size=3)
        moved_cube = PolyMesh(cube.vertices @ rot.T + shift, cube.faces)
        moved_tetra = PolyMesh(tetra.vertices @ rot.T + shift, tetra.faces)
        worst = max(worst, abs(mesh_edge_dilatation_bound(moved_cube).bound - 2.0))
        worst = max(worst, abs(mesh_edge_dilatation_bound(moved_tetra).bound - tetra_expect))
    ok &= worst <= 1e-9
    _verdict("mesh-audit", bool(ok), f"cube 2, tetra {tetra_expect:.12f}, 20 rigid trials, worst dev {worst:.2e}")


def test_link_volumes():
    cube = parse_off(CUBE_OFF)
    tetra = parse_off(TETRA_OFF)
    exact_cube = normalized_link_volume(cube, 0)
    exact_tetra = normalized_link_volume(tetra, 0)
    ok = abs(exact_cube - 0.125) <= 1e-12
    mc_cube = normalized_link_volume_mc(cube, 0, samples=1_000_000, seed=2024)
    mc_tetra = normalized_link_volume_mc(tetra, 0, samples=1_000_000, seed=2024)
    dev_cube = abs(mc_cube.value - exact_cube) / mc_cube.stderr
    dev_tetra = abs(mc_tetra.value - exact_tetra) / mc_tetra.stderr
    ok &= dev_cube <= 3.0 and dev_tetra <= 3.0
    _verdict(
        "link-volumes",
        bool(ok),
        f"cube exact dev {abs(exact_cube - 0.125):.1e}; MC {dev_cube:.2f} / {dev_tetra:.2f} sigma",
    )


def test_folding_conformality():
    rng = np.random.default_rng(505)
    worst = 1.0
    for theta, lam in ((math.pi, TWO_PI), (3.0 * math.pi, TWO_PI), (TWO_PI, math.pi)):
        params = FoldParams(theta, lam)
        for _ in range(100):
            rho = float(rng.uniform(0.1, 1.0))
            phi = float(rng.uniform(0.01, theta - 0.01))
            s = np.linalg.svd(fold_jacobian(params, rho, phi), compute_uv=False)
            worst = max(worst, float(s[0] / s[1]))
    ok = worst <= 1.0 + 1e-4
    _verdict("folding-conformality", ok, f"3 folds x 100 points, worst sv-ratio 1+{worst - 1.0:.2e}")


def _random_acute(rng) -> AcuteTriangle:
    while True:
        pts = rng.uniform(0.0, 1.0, size=(3, 2))
        try:
            return AcuteTriangle(pts)
        except ValueError:
            continue


def test_canonical_element():
    rng = np.random.default_rng(606)
    worst = 0.0
    for _ in range(50):
        template = _random_acute(rng)
        c = float(rng.uniform(0.55, 0.999))
        base = AcuteTriangle(template.vertices * c)
        el = canonical_element(template, base)
        big_r = template.circumradius
        sides = template.side_lengths
        for p in range(3):
            k, l = (p + 1) % 3, (p + 2) % 3
            rel_r = abs(float(np.linalg.norm(el.apex - el.base_vertices[p])) - big_r) / big_r
            pleat_len = float(
                np.linalg.norm(el.base_vertices[k] - el.face_points[p])
                + np.linalg.norm(el.face_points[p] - el.base_vertices[l])
            )
            rel_s = abs(pleat_len - sides[p]) / sides[p]
            worst = max(worst, rel_r, rel_s)
    ok = worst <= 1e-12
    equilateral = AcuteTriangle.from_sides(1.0, 1.0, 1.0)
    defects = []
    for k in range(1, 7):
        ck = 1.0 - 10.0**-k
        b = AcuteTriangle.from_sides(ck, ck, ck)
        defects.append(isometry_defect(canonical_element(equilateral, b), equilateral).max_defect)
    ok &= all(b < a for a, b in zip(defects, defects[1:]))
    ok &= defects[-1] <= 1e-4
    _verdict(
        "canonical-element",
        bool(ok),
        f"50 pairs worst congruence {worst:.1e}; defect(1-1e-6) = {defects[-1]:.1e}",
    )


def _independent_distances(g: MetricGraph) -> np.ndarray:
    n = g.num_vertices
    w = np.zeros((n, n))
    for i, j, length in g.edges:
        w[i, j] = w[j, i] = length
    return shortest_path(w, method="FW", directed=False)


def _flat_angles_at(d: np.ndarray, idx, v: int):
    """Flat comparison angles at position v of the 4-tuple idx, pair order."""
    rest = [p for p in range(4) if p != v]
    out = []
    for a, b in combinations(rest, 2):
        adj1 = d[idx[v], idx[a]]
        adj2 = d[idx[v], idx[b]]
        opp = d[idx[a], idx[b]]
        out.append(math.acos(_clamp((adj1**2 + adj2**2 - opp**2) / (2.0 * adj1 * adj2))))
    return out


def _witness_violated(g: MetricGraph, kappa: float, witness) -> bool:
    """Recompute the named witness inequality from scratch; True if violated."""
    base_label, nbr_labels, name = witness
    d = _independent_distances(g)
    idx = [g.index(base_label)] + [g.index(x) for x in nbr_labels]
    if name == "excess":
        worst = max(sum(_flat_angles_at(d, idx, v)) for v in range(4))
        return worst > TWO_PI
    if name == "curvature":
        total = 0.0
        rest = [1, 2, 3]
        for a, b in combinations(rest, 2):
            total += comparison_angle(kappa, d[idx[a], idx[b]], d[idx[0], idx[a]], d[idx[0], idx[b]])
        return total > TWO_PI
    if name.startswith("angle"):
        body = name[len("angle") :]
        if "@" in body:
            which_s, vert_s = body.split("@")
            which, vert = int(which_s), int(vert_s)
        else:
            which, vert = int(body), 0
        angles = _flat_angles_at(d, idx, vert)
        others = [angles[m] for m in range(3) if m != which]
        return angles[which] > others[0] + others[1]
    return False


def _perturbed_corpus(rng):
    graphs = []
    for _ in range(20):
        g = unit_k4()
        graphs.append(MetricGraph(g.labels, [(i, j, w * rng.uniform(0.9, 1.1)) for i, j, w in g.edges]))
    for _ in range(10):
        graphs.append(icosahedron_graph(rng.uniform(0.9, 1.1, size=30)))
    for _ in range(10):
        graphs.append(octahedron_graph(rng.uniform(0.9, 1.1, size=12)))
    for _ in range(10):
        graphs.append(star_graph(float(rng.uniform(1.7, 1.99))))
    return graphs


def test_compatibility_certificates():
    rng = np.random.default_rng(707)
    kappa = 0.0
    corpus = [unit_k4(), icosahedron_graph()] + _perturbed_corpus(rng)
    assert len(corpus) == 52
    feasible = infeasible = 0
    failures = []
    for gi, g in enumerate(corpus):
        report = global_compatibility(g, kappa)
        d = _independent_distances(g)
        if report.verdict:
            feasible += 1
            for entry in report.entries:
                base = g.index(entry.vertex)
                for chk in entry.checks:
                    idx = [base] + [g.index(x) for x in chk.neighbors]
                    sub = MetricQuadruple(d[np.ix_(idx, idx)])
                    if realize_quadruple(sub, kappa, 3) is None:
                        failures.append(f"graph {gi}: feasible but unrealizable at {entry.vertex}")
        else:
            infeasible += 1
            if report.witness is None:
                failures.append(f"graph {gi}: infeasible without witness")
            elif not _witness_violated(g, kappa, report.witness):
                failures.append(f"graph {gi}: witness {report.witness} does not recompute")
    ok = not failures
    _verdict(
        "compatibility-certificates",
        ok,
        failures[0] if failures else f"52 skeletons: {feasible} feasible realized, {infeasible} witnesses recomputed",
    )


def test_cli_determinism(tmp_path):
    cube_path = tmp_path / "cube.off"
    cube_path.write_text(CUBE_OFF)
    graph_path = tmp_path / "k4.json"
    graph_path.write_text(
        json.dumps(
            {
                "edges": [
                    ["a", "b", 1],
                    ["a", "c", 1],
                    ["a", "d", 1],
                    ["b", "c", 1],
                    ["b", "d", 1],
                    ["c", "d", 1],
                ]
            }
        )
    )
    commands = [
        ["wald", "--quadruple", "1,1,1,1,1,1"],
        ["embed-check", "--quadruple", "1,1,1,1,1,1", "--kappa", "0"],
        ["check-local", "--graph", str(graph_path), "--vertex", "a", "--kappa", "0"],
        ["check-global", "--graph", str(graph_path), "--kappa", "0"],
        ["qc-bound", "--mesh", str(cube_path)],
        ["wedge", "--n", "3", "--k", "1", "--angles", "0.7853981633974483"],
        ["face-count-bound", "--faces", "6", "--n", "3"],
        ["index-bound", "--n", "3", "--inner", "2.0"],
        [
            "link-volume", "--mesh", str(cube_path), "--vertex", "0",
            "--method", "monte-carlo", "--samples", "50000", "--seed", "33",
        ],
        ["fold", "--theta", "3.141592653589793", "--point", "0.5,1.0"],
        ["bz-element", "--template", "1,1,1", "--base", "0.9,0.9,0.9"],
        ["curve-curvature", "--triple", "1,1,1.5"],
    ]
    env = dict(os.environ)
    mismatched = []
    for cmd in commands:
        runs = [
            subprocess.run([sys.executable, "-m", "plembed", *cmd], capture_output=True, env=env)
            for _ in range(2)
        ]
        if runs[0].stdout != runs[1].stdout or not runs[0].stdout:
            mismatched.append(cmd[0])
        else:
            json.loads(runs[0].stdout)  # stays a valid document
    ok = not mismatched
    _verdict(
        "cli-determinism",
        ok,
        f"{len(commands)} commands byte-identical" if ok else f"mismatch: {mismatched}",
    )
