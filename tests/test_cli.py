import hashlib
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from plembed import cli

from conftest import DENTED_OCTA_OFF, TETRA_OFF

K4_DOC = json.dumps(
    {
        "vertices": ["a", "b", "c", "d"],
        "edges": [["a", "b", 1], ["a", "c", 1], ["a", "d", 1], ["b", "c", 1], ["b", "d", 1], ["c", "d", 1]],
    }
)

STAR_DOC = json.dumps(
    {
        "edges": [
            ["h", "x", 1],
            ["h", "y", 1],
            ["h", "z", 1],
            ["x", "y", 1.99],
            ["x", "z", 1.99],
            ["y", "z", 1.99],
        ],
        "kappa": 0.0,
    }
)

UNIT_Q = "1,1,1,1,1,1"
SQUARE_Q = "1,1.4142135623730951,1,1,1.4142135623730951,1"
TRIPOD_Q = "1,1,1,1.99,1.99,1.99"
# geodesic distances of four unit vectors; a hyperbolic candidate at large
# |kappa| once made the eigensolver fail to converge (exit 2)
EIGH_REPRO_Q = (
    "2.3303257425485495,2.124565799872923,2.893484832670206,"
    "0.27499257996563814,0.9532155163549789,1.1035036827185678"
)


def run_cli(*args, env_extra=None):
    env = dict(os.environ)
    if env_extra:
        env.update(env_extra)
    return subprocess.run(
        [sys.executable, "-m", "plembed", *args],
        capture_output=True,
        text=True,
        env=env,
    )


def _reject_constant(name):
    raise ValueError(f"{name} is not valid JSON")


def payload(result):
    assert result.stdout, f"no stdout; stderr: {result.stderr}"
    doc = json.loads(result.stdout, parse_constant=_reject_constant)
    assert doc["schema_version"] == 3
    assert result.stdout == json.dumps(doc, sort_keys=True, indent=2) + "\n"
    return doc


def assert_rejected(result, message):
    assert result.returncode == 2
    assert result.stdout == ""
    assert message in result.stderr


def test_import_leaves_out_scipy():
    code = "import sys, plembed.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=dict(os.environ))
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "[]"


@pytest.fixture
def k4_path(tmp_path):
    p = tmp_path / "k4.json"
    p.write_text(K4_DOC)
    return str(p)


@pytest.fixture
def nan_tetra_path(tmp_path):
    p = tmp_path / "nan.off"
    p.write_text(TETRA_OFF.replace("-1 1 -1", "-1 nan -1"))
    return str(p)


@pytest.fixture(params=["NaN", '{"a": 1, "b": NaN}'], ids=["scalar", "map"])
def nan_kappa_path(tmp_path, request):
    p = tmp_path / "k4-nan.json"
    p.write_text(K4_DOC[:-1] + f', "kappa": {request.param}}}')
    return str(p)


@pytest.fixture
def star_path(tmp_path):
    p = tmp_path / "star.json"
    p.write_text(STAR_DOC)
    return str(p)


class TestWaldCommand:
    def test_unit_quadruple_spherical(self):
        r = run_cli("wald", "--quadruple", UNIT_Q)
        assert r.returncode == 0
        doc = payload(r)
        assert doc["classification"] == "spherical"
        expect = math.acos(-1.0 / 3.0) ** 2
        assert doc["roots"][0]["kappa"] == pytest.approx(expect, rel=1e-6)
        assert "cayley_menger" in doc and "search_interval" in doc

    def test_square_flat(self):
        r = run_cli("wald", "--quadruple", SQUARE_Q)
        assert r.returncode == 0
        doc = payload(r)
        assert doc["classification"] == "flat"
        assert any(root["kappa"] == 0.0 for root in doc["roots"])

    def test_floats_round_trip(self):
        doc = payload(run_cli("wald", "--quadruple", UNIT_Q))
        again = json.loads(json.dumps(doc))
        assert again["roots"][0]["kappa"] == doc["roots"][0]["kappa"]

    def test_bad_quadruple_arity(self):
        r = run_cli("wald", "--quadruple", "1,1,1,1,1")
        assert r.returncode == 2
        assert r.stderr.startswith("error:")

    def test_bad_quadruple_metric(self):
        r = run_cli("wald", "--quadruple", "1,1,1,5,1,1")
        assert r.returncode == 2

    @pytest.mark.parametrize("cap", ["nan", "-5", "inf"])
    def test_bad_kappa_cap(self, cap):
        r = run_cli("wald", "--quadruple", UNIT_Q, "--kappa-cap", cap)
        assert_rejected(r, "kappa_cap must be positive and finite")

    @pytest.mark.parametrize("samples", ["0", "-3"])
    def test_bad_samples(self, samples):
        r = run_cli("wald", "--quadruple", UNIT_Q, "--samples", samples)
        assert_rejected(r, "samples must be a positive integer")

    @pytest.mark.parametrize("side", ["1e160", "1e-320"])
    def test_extreme_scale_rejected(self, side):
        r = run_cli("wald", "--quadruple", ",".join([side] * 6))
        assert_rejected(r, "out of range: a curvature search scale overflows or underflows")

    def test_eigensolver_repro(self):
        r = run_cli("wald", "--quadruple", EIGH_REPRO_Q)
        assert r.returncode == 0, r.stderr
        doc = payload(r)
        assert doc["classification"] == "multiple"
        kappas = [root["kappa"] for root in doc["roots"]]
        assert len(kappas) == 2
        assert kappas[0] < 0.0
        assert kappas[1] == pytest.approx(1.0, rel=1e-9)

    def test_deterministic_output(self):
        a = run_cli("wald", "--quadruple", UNIT_Q)
        b = run_cli("wald", "--quadruple", UNIT_Q)
        assert a.stdout == b.stdout


class TestEmbedCheckCommand:
    def test_feasible(self):
        r = run_cli("embed-check", "--quadruple", UNIT_Q, "--kappa", "0")
        assert r.returncode == 0
        doc = payload(r)
        assert doc["verdict"] is True and doc["realized"] is True

    def test_infeasible_exit_one(self):
        r = run_cli("embed-check", "--quadruple", TRIPOD_Q, "--kappa", "0")
        assert r.returncode == 1
        doc = payload(r)
        assert doc["verdict"] is False
        assert doc["witness"][0] == "excess"

    def test_spherical_domain_error(self):
        r = run_cli("embed-check", "--quadruple", TRIPOD_Q, "--kappa", "9")
        assert r.returncode == 2

    def test_nan_kappa(self):
        r = run_cli("embed-check", "--quadruple", UNIT_Q, "--kappa", "nan")
        assert_rejected(r, "invalid finite float value: 'nan'")

    def test_dim_choice(self):
        r = run_cli("embed-check", "--quadruple", UNIT_Q, "--kappa", "0", "--dim", "2")
        doc = payload(r)
        # the regular simplex needs three dimensions
        assert doc["realized"] is False


class TestCheckLocalCommand:
    def test_k4_feasible(self, k4_path):
        r = run_cli("check-local", "--graph", k4_path, "--vertex", "a", "--kappa", "0")
        assert r.returncode == 0
        doc = payload(r)
        assert doc["verdict"] is True and doc["vertex"] == "a"

    def test_star_hub_fails(self, star_path):
        r = run_cli("check-local", "--graph", star_path, "--vertex", "h", "--kappa", "0")
        assert r.returncode == 1
        doc = payload(r)
        assert doc["witness"] == [["x", "y", "z"], "excess"]

    def test_kappa_from_document(self, star_path):
        r = run_cli("check-local", "--graph", star_path, "--vertex", "h")
        assert r.returncode == 1

    def test_missing_kappa(self, k4_path):
        r = run_cli("check-local", "--graph", k4_path, "--vertex", "a")
        assert r.returncode == 2

    def test_nan_kappa(self, k4_path):
        r = run_cli("check-local", "--graph", k4_path, "--vertex", "a", "--kappa", "nan")
        assert_rejected(r, "invalid finite float value: 'nan'")

    def test_nan_kappa_in_document(self, nan_kappa_path):
        r = run_cli("check-local", "--graph", nan_kappa_path, "--vertex", "a")
        assert_rejected(r, "'kappa' values must be finite")

    def test_unknown_vertex(self, k4_path):
        r = run_cli("check-local", "--graph", k4_path, "--vertex", "zz", "--kappa", "0")
        assert r.returncode == 2

    def test_missing_file(self, tmp_path):
        r = run_cli("check-local", "--graph", str(tmp_path / "nope.json"), "--vertex", "a", "--kappa", "0")
        assert r.returncode == 2


class TestCheckGlobalCommand:
    def test_k4(self, k4_path):
        r = run_cli("check-global", "--graph", k4_path, "--kappa", "0")
        assert r.returncode == 0
        assert payload(r)["verdict"] is True

    def test_star_witness_names_hub(self, star_path):
        r = run_cli("check-global", "--graph", star_path)
        assert r.returncode == 1
        doc = payload(r)
        assert doc["witness"][0] == "h"
        assert doc["witness"][2] == "excess"

    def test_flag_overrides_document(self, star_path):
        # a strongly negative curvature cannot rescue a flat-infeasible star
        r = run_cli("check-global", "--graph", star_path, "--kappa", "-5")
        assert r.returncode == 1

    def test_no_kappa_anywhere(self, k4_path):
        r = run_cli("check-global", "--graph", k4_path)
        assert r.returncode == 2

    def test_infinite_kappa(self, k4_path):
        r = run_cli("check-global", "--graph", k4_path, "--kappa", "inf")
        assert_rejected(r, "invalid finite float value: 'inf'")

    def test_nan_kappa_in_document(self, nan_kappa_path):
        assert_rejected(run_cli("check-global", "--graph", nan_kappa_path), "'kappa' values must be finite")

    @pytest.mark.parametrize(
        "doc, message",
        [
            ('{"edges": 5}', "'edges' must be an array"),
            ('{"vertices": 5, "edges": [["a", "b", 1]]}', "'vertices' must be an array"),
            ('{"edges": [["a", "b", null]]}', "edges[0] length must be a number"),
            ('{"edges": [["a", "b", true]]}', "edges[0] length must be a number"),
            ('{"edges": [["a", "b", 1e400]]}', "edge (a, b) length must be positive and finite"),
            ('{"edges": [["a", "b", 1]], "kappa": null}', "'kappa' must be a number"),
            ('{"edges": [["a", "b", 1]], "kappa": [1]}', "'kappa' must be a number"),
        ],
    )
    def test_wrong_document_shape(self, tmp_path, doc, message):
        path = tmp_path / "bad.json"
        path.write_text(doc)
        assert_rejected(run_cli("check-global", "--graph", str(path)), message)


K4_EDGES = json.loads(K4_DOC)["edges"]
# graphs whose isolated, pendant and degree-2 vertices and vertex order the
# adjacency arrays must get right: (document, every vertex in order)
EDGE_CASE_DOCS = {
    "no-edges": ({"vertices": ["a"], "edges": [], "kappa": 0}, ["a"]),
    "isolated": ({"vertices": ["a", "b", "c", "d", "e"], "edges": K4_EDGES, "kappa": 0}, ["a", "b", "c", "d", "e"]),
    "pendant": (
        {"edges": K4_EDGES + [["a", "p", 0.5], ["p", "q", 2], ["b", "r", 1.5]], "kappa": 0.5},
        ["a", "b", "c", "d", "p", "q", "r"],
    ),
    "vertex-order": (
        {"vertices": ["d", "c", "b", "a", "x"], "edges": K4_EDGES + [["x", "a", 1.2], ["x", "b", 0.7], ["x", "c", 1.1]], "kappa": -1},
        ["d", "c", "b", "a", "x"],
    ),
}
# sha256 of the check-global stdout, and of the check-local stdouts at every
# vertex in order, as the per-vertex heap searches printed them
EDGE_CASE_DIGESTS = {
    "no-edges": (
        "44cab470e6856a7916dd46b5576f0c12e83a59d41d78cfe59133969381d13f27",
        "2363cf3a201d70a842843709644d97049f5d9205fc651c363d20b4b42a5c33da",
    ),
    "isolated": (
        "e44b18fa455b7cdf9db5e28c31ac5a41a63d8ba16c0e1a60a53a6df638dd0127",
        "f94cf6c2658b4f586a13b77b326bf48f375b4300d94765dcde84f99dc4fb6635",
    ),
    "pendant": (
        "f8ce470704923e30805b7dd5d1dda85477a73142876d480d813cb1a6b56e5994",
        "63d4d9e9db879e5bced64cc7326e69503d10a1bfff58fc9d8dab919e34a64f89",
    ),
    "vertex-order": (
        "37bd99c2dc01d50aa689d49823ddb63606fc803524c1876f3dfcdb2ebc597250",
        "dfbf5048c237762dc0fe15441980939277c14546541dbb3a52cd6ee17181aa7d",
    ),
}


class TestGraphEdgeCases:
    @pytest.mark.parametrize("name", EDGE_CASE_DOCS)
    def test_same_bytes(self, name, tmp_path, monkeypatch, capsys):
        # the document path is part of the output, so run where it is relative
        doc, labels = EDGE_CASE_DOCS[name]
        monkeypatch.chdir(tmp_path)
        (tmp_path / "graph.json").write_text(json.dumps(doc))
        assert cli.main(["check-global", "--graph", "graph.json"]) == 0
        text = capsys.readouterr().out
        entries = json.loads(text)["entries"]
        assert [e["vertex"] for e in entries] == labels
        local = []
        for v, entry in zip(labels, entries):
            assert cli.main(["check-local", "--graph", "graph.json", "--vertex", v]) == 0
            local.append(capsys.readouterr().out)
            head = {"command": "check-local", "graph": "graph.json", "schema_version": 3}
            assert json.loads(local[-1]) == {**head, **entry}
        digest = lambda s: hashlib.sha256(s.encode()).hexdigest()
        assert (digest(text), digest("".join(local))) == EDGE_CASE_DIGESTS[name]


class TestQcBoundCommand:
    def test_cube_bound(self, cube_off_path):
        r = run_cli("qc-bound", "--mesh", str(cube_off_path))
        assert r.returncode == 0
        doc = payload(r)
        assert doc["bound"] == 2.0
        assert doc["reflex"] == []

    def test_table_goes_to_stderr(self, cube_off_path):
        r = run_cli("qc-bound", "--mesh", str(cube_off_path), "--table")
        assert r.returncode == 0
        assert "bound: 2" in r.stderr
        payload(r)  # stdout remains a clean JSON document

    def test_nan_coordinate(self, nan_tetra_path):
        assert_rejected(run_cli("qc-bound", "--mesh", nan_tetra_path), "vertex coordinates must be finite")


class TestWedgeCommand:
    def test_right_angle(self):
        r = run_cli("wedge", "--n", "3", "--k", "1", "--angles", repr(math.pi / 2.0))
        doc = payload(r)
        assert doc["inner"] == 2.0 and doc["maximal"] == 2.0

    def test_two_angle_wedge(self):
        r = run_cli("wedge", "--n", "4", "--k", "1", "--angles", f"{math.pi / 2},{math.pi / 2}")
        assert payload(r)["inner"] == 4.0

    def test_zero_angle_rejected(self):
        assert run_cli("wedge", "--n", "3", "--k", "1", "--angles", "0").returncode == 2

    def test_wrong_angle_count(self):
        assert run_cli("wedge", "--n", "4", "--k", "1", "--angles", "1.0").returncode == 2


class TestFaceCountCommand:
    def test_tetrahedron(self):
        doc = payload(run_cli("face-count-bound", "--faces", "4", "--n", "3"))
        assert doc["inner"] == 3.0

    def test_guard(self):
        assert run_cli("face-count-bound", "--faces", "3", "--n", "3").returncode == 2


class TestIndexBoundCommand:
    def test_value(self):
        doc = payload(run_cli("index-bound", "--n", "3", "--inner", "2.0"))
        assert doc["bound"] == 18.0

    def test_guard(self):
        assert run_cli("index-bound", "--n", "3", "--inner", "0.5").returncode == 2

    def test_nan_inner(self):
        assert_rejected(run_cli("index-bound", "--n", "3", "--inner", "nan"), "inner dilatation is at least 1")


class TestLinkVolumeCommand:
    def test_exact_cube(self, cube_off_path):
        doc = payload(run_cli("link-volume", "--mesh", str(cube_off_path), "--vertex", "0"))
        assert doc["value"] == 0.125

    def test_dual(self, cube_off_path):
        doc = payload(run_cli("link-volume", "--mesh", str(cube_off_path), "--vertex", "0", "--dual"))
        assert doc["value"] == pytest.approx(0.125, abs=1e-14)

    def test_monte_carlo_fields(self, cube_off_path):
        r = run_cli(
            "link-volume", "--mesh", str(cube_off_path), "--vertex", "0",
            "--method", "monte-carlo", "--samples", "20000", "--seed", "5",
        )
        doc = payload(r)
        assert doc["samples"] == 20000 and doc["seed"] == 5
        assert abs(doc["value"] - 0.125) <= 4.0 * doc["stderr"]

    def test_monte_carlo_byte_deterministic(self, cube_off_path):
        args = (
            "link-volume", "--mesh", str(cube_off_path), "--vertex", "2",
            "--method", "monte-carlo", "--samples", "30000", "--seed", "11",
        )
        assert run_cli(*args).stdout == run_cli(*args).stdout

    def test_seed_env_variable(self, cube_off_path):
        base = (
            "link-volume", "--mesh", str(cube_off_path), "--vertex", "1",
            "--method", "monte-carlo", "--samples", "20000",
        )
        via_env = run_cli(*base, env_extra={"PLEMBED_SEED": "7"})
        via_flag = run_cli(*base, "--seed", "7")
        assert via_env.stdout == via_flag.stdout

    def test_bad_seed_env_variable(self, cube_off_path):
        base = ("link-volume", "--mesh", str(cube_off_path), "--vertex", "1")
        mc = (*base, "--method", "monte-carlo", "--samples", "2000")
        bad = {"PLEMBED_SEED": "abc"}
        assert_rejected(run_cli(*mc, env_extra=bad), "PLEMBED_SEED must be an integer, got 'abc'")
        # only a Monte Carlo run without --seed reads the variable
        assert run_cli(*mc, "--seed", "7", env_extra=bad).stdout == run_cli(*mc, "--seed", "7").stdout
        for args in (base, (*base, "--dual"), (*mc, "--dual")):
            r = run_cli(*args, env_extra=bad)
            assert r.returncode == 0 and r.stdout == run_cli(*args).stdout

    def test_bad_vertex(self, cube_off_path):
        r = run_cli("link-volume", "--mesh", str(cube_off_path), "--vertex", "99")
        assert r.returncode == 2

    def test_dented_octahedron(self, tmp_path):
        path = tmp_path / "dented.off"
        path.write_text(DENTED_OCTA_OFF)
        base = ("link-volume", "--mesh", str(path), "--vertex", "4")
        assert payload(run_cli(*base))["value"] == pytest.approx(0.6781, abs=5e-5)
        assert_rejected(run_cli(*base, "--dual"), "vertex 4: not a convex corner")

    @pytest.mark.parametrize("method", ["exact", "monte-carlo"])
    def test_nan_coordinate(self, nan_tetra_path, method):
        r = run_cli("link-volume", "--mesh", nan_tetra_path, "--vertex", "0", "--method", method, "--samples", "1000")
        assert_rejected(r, "vertex coordinates must be finite")


class TestFoldCommand:
    def test_doubling(self):
        doc = payload(run_cli("fold", "--theta", repr(math.pi), "--point", f"1,{math.pi / 2}"))
        assert doc["image"] == [1.0, math.pi]
        assert doc["contraction"] is False

    def test_contraction(self):
        doc = payload(
            run_cli("fold", "--theta", repr(4 * math.pi), "--point", f"0.5,{2 * math.pi}", "--contraction")
        )
        assert doc["image"][0] == 0.5
        assert doc["image"][1] == pytest.approx(math.pi, rel=1e-15)

    def test_angle_out_of_range(self):
        r = run_cli("fold", "--theta", "1.0", "--point", "1,2.0")
        assert r.returncode == 2

    @pytest.mark.parametrize(
        "flags, message",
        [
            (("--point", "nan,1"), "radius must be nonnegative and finite"),
            (("--point", "1,1", "--lam", "nan"), "cone angles must be positive and finite"),
            (("--point", "1,1", "--scale", "nan"), "radial scale must be positive and finite"),
            (("--point", "nan,1", "--contraction"), "radius must be nonnegative and finite"),
        ],
    )
    def test_nan_rejected(self, flags, message):
        assert_rejected(run_cli("fold", "--theta", "3.14", *flags), message)


class TestBzElementCommand:
    def test_frozen_heights(self):
        doc = payload(run_cli("bz-element", "--template", "1,1,1", "--base", "0.9,0.9,0.9"))
        assert doc["apex_height"] == pytest.approx(0.2516611478423584, rel=1e-12)
        assert doc["max_defect"] == pytest.approx(0.026688909408631667, rel=1e-12)

    def test_obj_export(self, tmp_path):
        obj = tmp_path / "el.obj"
        r = run_cli("bz-element", "--template", "1,1,1", "--base", "0.9,0.9,0.9", "--obj", str(obj))
        assert r.returncode == 0
        text = obj.read_text()
        assert text.startswith("# pleated element\n")
        assert payload(r)["obj"] == str(obj)

    def test_non_acute_template(self):
        assert run_cli("bz-element", "--template", "3,4,5", "--base", "3,4,5").returncode == 2

    def test_nan_template(self):
        r = run_cli("bz-element", "--template", "nan,1,1", "--base", "0.9,0.9,0.9")
        assert_rejected(r, "sides must be positive and finite")


class TestCurveCurvatureCommand:
    LEG = repr(2.0 * math.sin(0.1))
    SPAN = repr(2.0 * math.sin(0.2))

    def test_menger_unit_circle(self):
        doc = payload(run_cli("curve-curvature", "--triple", f"{self.LEG},{self.LEG},{self.SPAN}"))
        assert doc["value"] == pytest.approx(1.0, rel=1e-12)

    def test_finsler_haantjes_mode(self):
        doc = payload(
            run_cli(
                "curve-curvature",
                "--triple",
                f"{self.LEG},{self.LEG},{self.SPAN}",
                "--mode",
                "finsler-haantjes",
            )
        )
        assert doc["value"] == pytest.approx(0.8736477805708911, rel=1e-13)

    def test_bad_mode(self):
        r = run_cli("curve-curvature", "--triple", "1,1,1", "--mode", "gauss")
        assert r.returncode == 2


class TestOutputAndUsage:
    def test_output_file(self, tmp_path):
        out = tmp_path / "res.json"
        r = run_cli("index-bound", "--n", "3", "--inner", "1.0", "--output", str(out))
        assert r.returncode == 0
        assert r.stdout == ""
        assert json.loads(out.read_text())["bound"] == 9.0

    @pytest.mark.parametrize(
        "command",
        [
            ["check-global", "--graph", "{k4}", "--kappa", "0"],
            ["qc-bound", "--mesh", "{tetra}"],
            ["wald", "--quadruple", SQUARE_Q],
            ["link-volume", "--mesh", "{tetra}", "--vertex", "0"],
        ],
        ids=lambda c: c[0],
    )
    def test_output_file_has_stdout_bytes(self, tmp_path, k4_path, command):
        tetra = tmp_path / "tetra.off"
        tetra.write_text(TETRA_OFF)
        args = [a.format(k4=k4_path, tetra=tetra) for a in command]
        out = tmp_path / "res.json"
        printed = run_cli(*args)
        written = run_cli(*args, "--output", str(out))
        assert (printed.returncode, written.returncode, written.stdout) == (0, 0, "")
        payload(printed)
        assert out.read_bytes() == printed.stdout.encode("ascii")

    def test_output_file_keeps_exit_code(self, tmp_path):
        out = tmp_path / "res.json"
        r = run_cli("embed-check", "--quadruple", TRIPOD_Q, "--kappa", "0", "--output", str(out))
        assert r.returncode == 1
        assert json.loads(out.read_text())["verdict"] is False

    def test_unknown_subcommand(self):
        assert run_cli("frobnicate").returncode == 2

    def test_missing_required_flag(self):
        assert run_cli("wald").returncode == 2

    def test_sorted_keys(self):
        r = run_cli("index-bound", "--n", "3", "--inner", "2.0")
        keys = [line.split('"')[1] for line in r.stdout.splitlines() if line.startswith('  "')]
        assert keys == sorted(keys)


class TestEuclideanRange:
    """Distances whose squares leave the normal float range exit 2 with a DomainError that names them."""

    def test_k4_past_the_euclidean_range_names_the_distances(self, tmp_path):
        p = tmp_path / "k4.json"
        p.write_text(K4_DOC.replace(", 1]", ", 1e200]"))
        r = run_cli("check-global", "--graph", str(p), "--kappa", "0")
        assert_rejected(r, "distances 1e+200, 1e+200, 1e+200 are out of range of the Euclidean law of cosines")
        assert "Warning" not in r.stderr

    @pytest.mark.parametrize("side", ["1e-162", "1e-155", "1e155"])
    def test_embed_check_past_the_euclidean_range(self, side):
        r = run_cli("embed-check", "--quadruple", ",".join([side] * 6), "--kappa", "0")
        assert_rejected(r, f"distances {float(side)!r}, {float(side)!r}, {float(side)!r} are out of range")
        assert "Warning" not in r.stderr


# pieces that an encoder could confuse with its own syntax, plus non-ASCII
# and astral characters
TEXT = st.lists(
    st.sampled_from(['"', "\\", "[", "]", "{", "}", ",", '": "', "\n", "\x00", "é", "\U0001f600"]) | st.characters(),
    max_size=6,
).map("".join)
FLOAT = st.sampled_from([-0.0, 5e-324, 1e16, 1e22, math.nan, math.inf, -math.inf]) | st.floats()
FLOAT = FLOAT | FLOAT.map(np.float64)
INT = st.sampled_from([0, -1, 2**70, -(2**70)]) | st.integers()
SCALAR = TEXT | FLOAT | INT | st.booleans() | st.none()
# lists the writer may encode in one join: one type, or one type with a bool
# (json writes true where int.__repr__ writes 1)
RUN = st.lists(TEXT) | st.lists(FLOAT | st.booleans()) | st.lists(INT | st.booleans())
TREE = st.recursive(
    SCALAR | RUN,
    lambda kids: (
        st.lists(kids, max_size=4) | st.lists(kids, max_size=4).map(tuple) | st.dictionaries(TEXT, kids, max_size=4)
    ),
    max_leaves=20,
)


def _nest(tree, kinds):
    for kind in kinds:
        tree = {"k": tree} if kind == "dict" else [tree, 0] if kind == "list" else (tree,)
    return tree


DEEP = st.builds(_nest, TREE, st.lists(st.sampled_from(["dict", "list", "tuple"]), min_size=300, max_size=300))


# tables of rows that the writer may encode in one join: lists and tuples of one
# scalar type, bools among ints, nan and infinities among floats, empty rows,
# and rows of equal or of unequal lengths
ROW_ITEM = st.sampled_from([TEXT, FLOAT, INT | st.booleans(), FLOAT | st.booleans(), st.booleans()])


def _rows(item, sizes):
    row = st.lists(item, min_size=sizes[0], max_size=sizes[1])
    return row | row.map(tuple)


UNEVEN = ROW_ITEM.flatmap(lambda item: st.lists(_rows(item, (0, 4)), min_size=1, max_size=6))
EVEN = st.tuples(ROW_ITEM, st.integers(1, 3)).flatmap(lambda p: st.lists(_rows(p[0], (p[1], p[1])), max_size=6))
# each row of its own type: the join of the first row's type fails on a later row
MIXED = st.lists(ROW_ITEM.flatmap(lambda item: _rows(item, (1, 3))), min_size=2, max_size=5)
TABLE = UNEVEN | EVEN | MIXED


class TestWriter:
    @settings(max_examples=300, deadline=None)
    @given(TREE | DEEP)
    def test_bytes_of_json_dumps(self, tree):
        assert cli._dumps(tree) == json.dumps(tree, sort_keys=True, indent=2)

    @settings(max_examples=400, deadline=None)
    @given(TABLE, st.sampled_from(["bare", "dict", "list"]))
    def test_row_tables(self, table, wrap):
        doc = {"bare": table, "dict": {"rows": table, "n": 1}, "list": [table, table]}[wrap]
        assert cli._dumps(doc) == json.dumps(doc, sort_keys=True, indent=2)

    @pytest.mark.parametrize(
        "table",
        [[[1, True]], [(0, 1), (2, False)], [[1.5, math.nan]], [[math.inf], [-math.inf]], [[1, 2], []], [[], [1]], [[1], "ab"]],
        ids=["bool", "tuple-bool", "nan", "infinities", "empty-last", "empty-first", "str-row"],
    )
    def test_rows_the_join_must_not_take(self, table):
        assert cli._dumps(table) == json.dumps(table, sort_keys=True, indent=2)

    @pytest.mark.parametrize(
        "value",
        [
            np.int64(1), {1, 2}, {1: "a"}, {"a": [set()]}, ["a", np.int64(2)], [1, np.int64(2)], [1.5, np.int64(2)],
            [[1, np.int64(2)]], [[np.int64(1)]], [[1, 2], {3: 4}], [[1], {2}],
        ],
        ids=[
            "int64", "set", "int-key", "nested-set", "str-run", "int-run", "float-run",
            "int-row", "int64-row", "dict-after-row", "set-after-row",
        ],
    )
    def test_unsupported_raises_type_error(self, value):
        with pytest.raises(TypeError):
            cli._dumps(value)
