"""Self-test of the benchmark at tiny sizes:  python3 bench/selftest.py

Runs every workload end to end, untraced and traced; checks that equal seeds
give equal input hashes and that the metric names match BENCHMARK.json; and
checks that the failure accounting flags two known-bad inputs from the
ROADMAP baseline, the Wald repro quadruple (LinAlgError) and the top vertex
of the dented octahedron (the complement of its link volume is returned),
that a failure outside the known defects makes a run incorrect, that the
counts are per input whatever the number of rounds, and that a wrong root on
an R^3 quadruple is flagged.
Exits 1 on the first failed check.
"""

from __future__ import annotations

import json
import math
import sys

import run

REPRO = "2.3303257425485495,2.124565799872923,2.893484832670206,0.27499257996563814,0.9532155163549789,1.1035036827185678"


def expect(ok: bool, what: str) -> None:
    print(f"[{'ok' if ok else 'FAIL'}] {what}")
    if not ok:
        sys.exit(1)


def main() -> int:
    run.prepare()
    import numpy as np

    import inputs
    import oracles
    import runner
    from workloads import WORKLOADS, LinkQuery, QuadrupleSolve

    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    e2e_names = {m["name"] for m in spec["end_to_end"]}
    layer_names = {m["name"] for m in spec["per_layer"]}
    expect({w["name"] for w in spec["workloads"]} == set(WORKLOADS), "BENCHMARK.json lists the four workloads")

    for name, cls in WORKLOADS.items():
        a, b, c = cls(7, True), cls(7, True), cls(8, True)
        expect(a.input_hash == b.input_hash != c.input_hash, f"{name}: equal seeds give equal input hashes")
        for trace in (False, True):
            res = runner.run(name, 7, 1.0, trace, tiny=True)
            res["env"] = runner.environment(run.ROOT)
            metrics = run.report(res, trace)
            expect(res["correct"] and res["attempted"] >= 1, f"{name} trace={int(trace)}: correct, {res['attempted']} inputs")
            expect(set(metrics) == (layer_names if trace else e2e_names), f"{name} trace={int(trace)}: metric names")
            if not trace:
                expect(all(m["value"] > 0.0 and math.isfinite(m["value"]) for m in metrics.values()),
                       f"{name}: end-to-end metrics are positive")

    # The Wald repro raises LinAlgError, a known defect; a wrong root on a cap is not one.
    cap = inputs.pairwise_text(inputs.surface_quadruple(1.0, np.random.default_rng(7)))
    for case, reasons, correct in (
        (("sphere", 1.0, REPRO), {"LinAlgError"}, True),
        (("cap", -1.0, cap), {"not-embeddable", "root-missed"}, False),  # a curvature-1 cap checked at -1
    ):
        wl = QuadrupleSolve(7, True)
        wl.cases = [case]
        wl.setup()
        out = runner.Outcomes(wl)
        runner.run_ops(wl, wl.ops(), out, 0.0, rounds=1)
        [(pop, reason)] = out.failures
        expect(pop == case[0] and reason in reasons and out.correct is correct,
               f"{case[0]} quadruple: {reason} counted, correct={correct}")

    # Counts are per input: more rounds of the same inputs change neither; a repeat whose document changes fails.
    wl = QuadrupleSolve(7, True)
    wl.cases = [("sphere", 1.0, REPRO), *wl.cases]
    wl.setup()
    counts = []
    for rounds in (1, 3):
        out = runner.Outcomes(wl)
        runner.run_ops(wl, wl.ops(), out, 0.0, rounds=rounds)
        counts.append((out.attempted, out.failed, out.ops))
    expect(counts[0][:2] == counts[1][:2] and counts[0][0] == len(wl.cases) and counts[0][1] >= 1
           and counts[1][2] == 3 * counts[0][2],
           f"quadruple-solve: attempted and failed count inputs, whatever the rounds ({counts})")
    out = runner.Outcomes(wl)
    out.checked(1, "cap", wl.ops()[1][1]())
    out.checked(1, "cap", "{}")
    expect(out.failures == {("cap", "output-changed"): 1} and not out.correct, "a changed repeat fails as output-changed")

    # A root moved off the true one, on an R^3 tetrahedron, is caught by the model-root test.
    wl = QuadrupleSolve(7, True)
    wl.setup()
    k = next(i for i, case in enumerate(wl.cases) if case[0] == "space")
    doc = json.loads(wl.ops()[k][1]())
    expect(wl.check(k, json.dumps(doc)) is None and doc["roots"], "space quadruple: its roots pass the model-root test")
    doc["roots"][0]["kappa"] *= 1.001
    expect(wl.check(k, json.dumps(doc)) == "bogus-root", "space quadruple: a moved root is flagged")

    # The dented octahedron's top vertex: exact and Monte Carlo return the complement.
    wl = LinkQuery(7, True)
    wl.v = np.array([(1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, -0.3), (0, 0, -1)], dtype=float)
    wl.f = np.array([(0, 2, 4), (2, 1, 4), (1, 3, 4), (3, 0, 4), (2, 0, 5), (1, 2, 5), (3, 1, 5), (0, 3, 5)])
    wl.text = "OFF\n6 8 0\n" + "".join(f"{x} {y} {z}\n" for x, y, z in wl.v) + "".join(f"3 {a} {b} {c}\n" for a, b, c in wl.f)
    wl.queries = [("reflex", 4, "exact"), ("reflex", 4, "monte-carlo"), ("convex", 5, "exact"), ("convex", 5, "dual")]
    wl.setup()
    out = runner.Outcomes(wl)
    runner.run_ops(wl, wl.ops(), out, 0.0, rounds=1)
    truth = oracles.interior_solid_angle(wl.v, wl.f, 4)
    expect(abs(truth - 0.678) < 1e-3, f"dented top vertex: oracle {truth:.4f}")
    expect(abs(wl.qcbounds.normalized_link_volume(wl.loaded, 4) - (1.0 - truth)) < 1e-9, "dented top vertex: library returns the complement")
    expect(out.failures == {("reflex", "exact-mismatch"): 1, ("reflex", "mc-outside-4se"): 1} and out.correct,
           "dented top vertex: exact and Monte Carlo flagged; the convex bottom passes")
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
