"""The four benchmark workloads: seeded inputs, the ops, and their oracle checks.

An op is what one subcommand computes after import: parse its input,
compute, and build the JSON document.  graph-certify and mesh-audit call the
command-line tool's own `check-global` and `qc-bound` handlers on an input
file under bench/out/.  quadruple-solve (which adds the embeddability
certificate to the `wald` document) and link-query (whose mesh is loaded
once at set-up, on purpose) build their documents here and write them with
the tool's `_emit`.  Standard output is captured, so the document text is
what the tool would print.  Every op builds fresh library objects, except
link-query's mesh.  A check returns None when the op's document agrees with
the oracle, or a failure reason.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import json
from argparse import Namespace
from itertools import combinations
from pathlib import Path

import numpy as np

import inputs
import oracles

OUT_DIR = Path(__file__).resolve().parent / "out"
TO_STDOUT = Namespace(output=None)


class Workload:
    name = ""
    unit = ""  # what one item is, for the throughput
    throughput_name = ""
    latency_name = ""  # prefix of the per-op latency metrics, if the workload has many ops
    # (population, reason) of failures that are defects known from the ROADMAP
    # baseline; "*" matches any.  Other failures make the run incorrect.
    known_defects: tuple[tuple[str, str], ...] = ()
    mismatch_counter = ""
    setup_stdin = ""
    items_per_op = 1
    # op_tail_ms: this percentile of the inputs' median times (see runner.latency_summary)
    tail_percentile = 90.0

    def __init__(self, seed: int, tiny: bool):
        self.seed = seed
        self.rng = np.random.default_rng([seed, sum(map(ord, self.name))])
        self.recorder = None
        self.params: dict = {}
        self.input_hash = ""

    def setup(self) -> None:
        """Import the library modules the ops use (and, for link-query, load the mesh)."""
        for mod in ("cli", "quadruple", "mesh", "qcbounds"):
            setattr(self, mod, importlib.import_module(f"plembed.{mod}"))

    def input_file(self, suffix: str, text: str) -> str:
        """Write an input document under bench/out/ for a command-line handler to read."""
        OUT_DIR.mkdir(parents=True, exist_ok=True)
        path = OUT_DIR / f"{self.name}-{self.seed}{suffix}"
        path.write_text(text)
        return str(path)

    def ops(self) -> list[tuple[str, object]]:
        """One round of ops as (population, callable returning the JSON text)."""
        raise NotImplementedError

    def check(self, k: int, text: str) -> str | None:
        raise NotImplementedError

    def emit(self, command) -> str:
        """Run `command`, which ends in the tool's `_emit`, and return the document it printed."""
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            command()
        text = out.getvalue()
        if self.recorder is not None:
            self.recorder.count("cli.emit_bytes", len(text))
        return text


class QuadrupleSolve(Workload):
    name = "quadruple-solve"
    unit = "quadruple"
    throughput_name = "quads_per_s"
    latency_name = "quad"
    # the Wald solver's LinAlgError crash, and none-found on the whole sphere
    known_defects = (("*", "LinAlgError"), ("sphere", "root-missed"))

    def __init__(self, seed: int, tiny: bool):
        super().__init__(seed, tiny)
        per_kappa, n_sphere, n_space = (2, 2, 2) if tiny else (160, 100, 100)
        rng = self.rng
        self.cases = [
            ("cap", kappa, inputs.pairwise_text(inputs.surface_quadruple(kappa, rng)))
            for kappa in inputs.SURFACE_KAPPAS
            for _ in range(per_kappa)
        ]
        self.cases += [("sphere", 1.0, inputs.pairwise_text(inputs.sphere_quadruple(rng))) for _ in range(n_sphere)]
        self.cases += [("space", 0.0, inputs.pairwise_text(inputs.space_quadruple(rng))) for _ in range(n_space)]
        # mixed order, so that the ops of a run that stops mid-round keep the mix
        self.cases = [self.cases[i] for i in rng.permutation(len(self.cases))]
        self.params = {
            "cap_per_kappa": per_kappa,
            "kappas": list(inputs.SURFACE_KAPPAS),
            "sphere": n_sphere,
            "space": n_space,
        }
        self.input_hash = inputs.digest(*(f"{p}|{k}|{t}" for p, k, t in self.cases))

    def _op(self, kappa: float, text: str) -> str:
        q = self.cli._quadruple_from_arg(text)
        res = self.quadruple.wald_curvature(q)
        cert = self.quadruple.s3_embeddability(q, kappa)
        payload = {"command": "wald", "quadruple": list(q.pairwise()), "kappa": kappa}
        payload.update(res.to_dict())
        payload["embeddability"] = cert.to_dict()
        return self.emit(lambda: self.cli._emit(payload, TO_STDOUT))

    def ops(self):
        return [(pop, lambda k=kappa, t=text: self._op(k, t)) for pop, kappa, text in self.cases]

    def check(self, k: int, text: str) -> str | None:
        """Every population: the certificate holds at the generating curvature, every
        reported root realizes the quadruple in its model (own eigenvalue test; so R^3
        tetrahedra of clear volume are never flat), and the classification matches the
        roots.  Caps and the whole sphere: the generating curvature is among the roots.
        Which roots R^3 points should have is not known, so none is required of them."""
        pop, kappa, text_in = self.cases[k]
        doc = json.loads(text)
        if not doc["embeddability"]["verdict"]:
            return "not-embeddable"
        d = inputs.pairwise_matrix(text_in)
        roots = [r["kappa"] for r in doc["roots"]]
        if not all(oracles.is_model_root(d, r) for r in roots):
            return "bogus-root"
        want = ("flat" if 0.0 in roots else "none-found" if not roots else "multiple" if len(roots) > 1
                else "spherical" if roots[0] > 0.0 else "hyperbolic")
        if doc["classification"] != want:
            return "classification-mismatch"
        if pop == "space":
            return None
        scale = abs(kappa) if kappa else 1.0
        if not any(abs(r - kappa) <= 1e-6 * scale for r in roots):
            return "root-missed"
        return None


class GraphCertify(Workload):
    name = "graph-certify"
    unit = "vertex"
    throughput_name = "certify_vertices_per_s"
    kappa = 1.0
    sampled_vertices = 24
    sampled_checks = 64

    def __init__(self, seed: int, tiny: bool):
        super().__init__(seed, tiny)
        level = 1 if tiny else 3
        v, f = inputs.icosphere(level)
        self.edges = inputs.mesh_edges(f)
        self.n = len(v)
        self.items_per_op = self.n
        self.text, self.lengths = inputs.graph_document(inputs.jitter(v, self.rng, 0.01, 0.0), self.edges)
        self.sample = sorted(self.rng.choice(self.n, size=min(self.sampled_vertices, self.n), replace=False).tolist())
        self.params = {"icosphere_level": level, "vertices": self.n, "edges": len(self.edges),
                       "tangential_jitter": 0.01, "kappa": self.kappa, "sampled_vertices": len(self.sample),
                       "sampled_checks": self.sampled_checks}
        self.input_hash = inputs.digest(self.text)

    def setup(self) -> None:
        super().setup()
        self.args = Namespace(graph=self.input_file(".json", self.text), kappa=self.kappa, output=None)

    def _op(self) -> str:
        return self.emit(lambda: self.cli._cmd_check_global(self.args))

    def ops(self):
        return [("skeleton", self._op)]

    def check(self, k: int, text: str) -> str | None:
        doc = json.loads(text)
        adj = oracles.adjacency(self.n, self.edges, self.lengths)
        stars: dict = {}

        def star(v: int):
            """Own neighbours of v and the 4x4 distance matrix of a trio of them."""
            if v not in stars:
                nbrs, d = oracles.star_distances(adj, v)
                stars[v] = (nbrs, lambda trio: np.array([[d[a, b] for b in (v, *trio)] for a in (v, *trio)]))
            return stars[v]

        def index(label: str) -> int:
            return int(label[1:])

        entries = {index(e["vertex"]): e for e in doc["entries"]}
        # every star of the sampled vertices: skipped exactly when degenerate
        for v in self.sample:
            nbrs, matrix = star(v)
            trios = list(combinations(nbrs, 3))
            skipped = {t for t in trios if oracles.between(matrix(t))}
            entry = entries[v]
            if {tuple(map(index, t)) for t in entry["skipped"]} != skipped or len(entry["checks"]) + len(skipped) != len(trios):
                return "skipped-mismatch"
        # a seeded sample of the checked stars: slacks recomputed
        checked = [(v, c) for v, e in entries.items() for c in e["checks"]]
        for i in np.random.default_rng([self.seed, 1]).permutation(len(checked))[: self.sampled_checks]:
            v, c = checked[i]
            want = oracles.star_slacks(star(v)[1](tuple(map(index, c["neighbors"]))), self.kappa)
            cert = c["certificate"]
            have = [cert["excess_slack"], *cert["angle_slacks"][0], c["curvature_slack"]]
            if max(abs(x - y) for x, y in zip(have, [want["excess"], *want["angles"], want["curvature"]])) > 1e-9:
                return "slack-mismatch"
        if doc["witness"] is not None:
            base, trio, name = doc["witness"]
            d = star(index(base))[1](tuple(map(index, trio)))
            if oracles.witness_violation(d, self.kappa, name) <= 0.0:
                return "witness-not-violated"
        elif not doc["verdict"]:
            return "no-witness"
        return None


class MeshAudit(Workload):
    name = "mesh-audit"
    unit = "face"
    throughput_name = "audit_faces_per_s"
    # level 3 with a 5 % radial jitter keeps about the intended 45 % reflex
    # edges; level 5 gave 3 or 4 ops a run and level 4 about 13, too few for
    # a steady median
    radial_jitter = 0.05

    def __init__(self, seed: int, tiny: bool):
        super().__init__(seed, tiny)
        level = 2 if tiny else 3
        v, f = inputs.icosphere(level)
        v = inputs.jitter(v, self.rng, 0.0, self.radial_jitter)
        self.text = inputs.off_text(v, f)
        self.items_per_op = len(f)
        self.audit = oracles.dihedral_audit(v, f)
        self.params = {"icosphere_level": level, "vertices": len(v), "faces": len(f),
                       "radial_jitter": self.radial_jitter,
                       "reflex_edge_share": round(float(np.mean(~self.audit["convex"])), 4)}
        self.input_hash = inputs.digest(self.text)

    def setup(self) -> None:
        super().setup()
        self.args = Namespace(mesh=self.input_file(".off", self.text), table=False, output=None)

    def _op(self) -> str:
        return self.emit(lambda: self.cli._cmd_qc_bound(self.args))

    def ops(self):
        return [("mesh", self._op)]

    def check(self, k: int, text: str) -> str | None:
        doc = json.loads(text)
        want = self.audit
        if abs(doc["bound"] - want["bound"]) > 1e-9:
            return "bound-mismatch"
        if doc["edges"] != want["edges"].tolist() or len(doc["reflex"]) != int(np.sum(~want["convex"])):
            return "edge-mismatch"
        if np.max(np.abs(np.array(doc["angles"]) - want["angles"])) > 1e-9:
            return "angle-mismatch"
        return None


class LinkQuery(Workload):
    name = "link-query"
    unit = "query"
    throughput_name = "link_queries_per_s"
    latency_name = "link"
    # link volumes are wrong, or raise, at non-convex corners
    known_defects = (("reflex", "*"), ("saddle", "*"))
    mismatch_counter = "qcbounds.link.oracle_mismatch"
    # 48 queries: p75 leaves 12 beyond it
    tail_percentile = 75.0
    methods = ("exact", "monte-carlo", "dual")
    mc_samples = 65_536
    dent_depth = 0.15

    def __init__(self, seed: int, tiny: bool):
        super().__init__(seed, tiny)
        level, dents, per_kind = (2, 1, (2, 1, 1)) if tiny else (3, 6, (8, 4, 4))
        v, f = inputs.icosphere(level)
        nbrs = inputs.neighbours(len(v), inputs.mesh_edges(f))
        v = inputs.dent(v, nbrs, dents, self.dent_depth, self.rng)
        self.v, self.f = v, f
        self.text = inputs.off_text(v, f)
        self.setup_stdin = self.text
        kinds = oracles.corner_kinds(len(v), oracles.dihedral_audit(v, f))
        self.vertices = []
        for kind, count in zip(("convex", "reflex", "saddle"), per_kind):
            pool = [i for i, k in enumerate(kinds) if k == kind]
            self.vertices += [(kind, int(i)) for i in self.rng.choice(pool, size=count, replace=False)]
        self.vertices = [self.vertices[i] for i in self.rng.permutation(len(self.vertices))]
        self.queries = [(kind, i, m) for kind, i in self.vertices for m in self.methods]
        self.params = {"icosphere_level": level, "vertices": len(v), "faces": len(f), "dents": dents,
                       "dent_depth": self.dent_depth, "mc_samples": self.mc_samples,
                       "query_vertices": [i for _, i in self.vertices],
                       "corner_share": {k: c / len(self.vertices) for k, c in zip(("convex", "reflex", "saddle"), per_kind)}}
        self.input_hash = inputs.digest(self.text, json.dumps(self.queries))

    def setup(self) -> None:
        super().setup()
        self.loaded = self.mesh.parse_off(self.text)

    def _op(self, vertex: int, method: str) -> str:
        """The `link-volume` handler's document, on the mesh loaded at set-up."""
        qc = self.qcbounds
        payload = {"command": "link-volume", "mesh": "mesh.off", "vertex": vertex, "method": method}
        if method == "dual":
            payload["dual"] = True
            payload["value"] = qc.normalized_exterior_angle(self.loaded, vertex)
        elif method == "exact":
            payload["value"] = qc.normalized_link_volume(self.loaded, vertex)
        else:
            seed = self.seed * 100_003 + vertex
            est = qc.normalized_link_volume_mc(self.loaded, vertex, samples=self.mc_samples, seed=seed)
            payload.update(est.to_dict())
        return self.emit(lambda: self.cli._emit(payload, TO_STDOUT))

    def ops(self):
        return [(kind, lambda i=i, m=m: self._op(i, m)) for kind, i, m in self.queries]

    def check(self, k: int, text: str) -> str | None:
        kind, vertex, method = self.queries[k]
        doc = json.loads(text)
        if method == "dual":
            if kind != "convex":
                return None  # the dual cone is defined at convex corners only
            want = oracles.exterior_angle(self.v, self.f, vertex)
            return None if abs(doc["value"] - want) <= 1e-9 else "dual-mismatch"
        want = oracles.interior_solid_angle(self.v, self.f, vertex)
        if method == "exact":
            return None if abs(doc["value"] - want) <= 1e-9 else "exact-mismatch"
        return None if abs(doc["value"] - want) <= 4.0 * doc["stderr"] else "mc-outside-4se"


WORKLOADS = {w.name: w for w in (QuadrupleSolve, GraphCertify, MeshAudit, LinkQuery)}
