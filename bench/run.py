"""plembed benchmark: four seeded workloads through the library's public API.

    python3 bench/run.py --workload quadruple-solve --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 1          # every workload, one after another
    python3 bench/selftest.py                             # the benchmark's own check, at tiny sizes

Run it from anywhere inside a checkout that has ``src/plembed``; it imports
the library from there and exits with status 2 when it is missing.

Workloads (inputs are generated from --seed by bench/inputs.py; the library
only ever sees the generated documents):

* quadruple-solve: 1,000 quadruples (800 caps of the curvature -4, -1, 0, 1
  and 4 surfaces, 100 on the whole unit sphere, 100 in R^3); an op is
  from_pairwise -> wald_curvature -> s3_embeddability -> JSON.  The
  quadruple solver and spaceform realization do the work.
* graph-certify: check-global at curvature 1 on the chord-length skeleton of
  a jittered level-3 icosphere (642 vertices, 1,920 edges): dense shortest
  paths and the star kernel.  Level 4 (2,562 vertices) gave only three ops
  per run, too few for a steady median.
* mesh-audit: qc-bound on a radially jittered level-3 icosphere (642
  vertices, 1,280 faces, about 42 % reflex edges): one bulk mesh pass.
  Level 5 (10,242 vertices) gave 3 or 4 ops per run and level 4 about 13,
  too few for a steady median.
* link-query: exact, Monte Carlo (65,536 samples) and dual link volumes at
  16 seeded vertices (8 convex, 4 reflex, 4 saddle) of one dented level-3
  icosphere loaded once: many point queries on one mesh.

With --trace 0 the last stdout line holds the end-to-end metrics: setup_s
(median over 15 fresh interpreters of `import plembed.cli`, plus the mesh
load for link-query), peak_rss_mb, items_per_s (quadruples, vertices, faces
or queries per second over the median time of a round of all inputs),
op_p50_ms and op_tail_ms (a fixed percentile of the inputs' median times over
the run's rounds: p90 of the 1,000 quadruples, p75 of the 48 link queries;
graph-certify and mesh-audit have one input, so there it repeats the
median).  Times are calibrated against reference kernels timed in the same
run (see bench/runner.py); the measured values are printed above the result
line, where each metric also appears under its per-workload name.
With --trace 1 untraced and traced rounds alternate, and the last line
holds per-op layer metrics: calls, self time and errors of each wrapped
function (bench/spans.py), extra counts, the tracing overhead and the share
of op time no layer span covers.  Spans are written to bench/out/.

Every op is checked against an oracle in bench/oracles.py.  `attempted`
counts the workload's inputs, each run at least once, and `failed` the
inputs whose op raised or failed its oracle, or whose output changed on a
repeat; so equal seeds give equal counts however fast the machine is.  The
report breaks them down by population and reason.  `correct` is false when
a failure is not one of the defects listed in the ROADMAP baseline (the Wald
solver's LinAlgError, its none-found on whole-sphere quadruples, link volumes
at reflex and saddle corners), and when a repeated input's output changes.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOAD_NAMES = ("quadruple-solve", "graph-certify", "mesh-audit", "link-query")
THREAD_VARS = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
}


def prepare() -> None:
    """Pin BLAS/OpenMP threads and put the checkout's src/ first, for this process and its children."""
    src = ROOT / "src"
    if not (src / "plembed" / "__init__.py").is_file():
        sys.stderr.write(f"error: no plembed sources under {src}\n")
        sys.exit(2)
    os.environ.update(THREAD_VARS)
    os.environ["PYTHONPATH"] = os.pathsep.join(p for p in (str(src), os.environ.get("PYTHONPATH")) if p)
    sys.path.insert(0, str(src))


def report(res: dict, trace: bool) -> dict:
    """Print every metric by name with its unit; return the metrics of the result line."""
    from runner import layer_unit
    from workloads import WORKLOADS

    wl = WORKLOADS[res["workload"]]
    print(f"# {wl.name} seed={res['seed']} trace={int(trace)}")
    print(f"inputs  {json.dumps(res['inputs'], sort_keys=True)}")
    print(f"env     {json.dumps(res['env'], sort_keys=True)}")
    failures = ", ".join(f"{k} {n}" for k, n in res["failures"].items()) or "none"
    print(f"fail_ratio  {res['failed'] / res['attempted']:.6g} 1  ({res['failed']} of {res['attempted']} inputs, "
          f"{res['ops']} ops: {failures})")
    cal = res["calibration"]
    print(f"calibration  reference kernel {cal['reference_ms']:.4g} ms (median of {cal['samples']}); "
          f"run-wide calibrated = measured x {cal['scale']:.4g}")
    setup_s = res["setup"]["setup_s"]
    print(f"setup_s  {setup_s:.6g} s  (measured {res['setup']['measured_s']:.6g} s; "
          f"median of {res['setup']['samples']} fresh interpreters)")
    if trace:
        metrics = {k: {"value": v, "unit": layer_unit(k)} for k, v in res["per_layer"].items()}
        for k, m in metrics.items():
            print(f"{k}  {m['value']:.6g} {m['unit']}")
        print(f"trace   {json.dumps(res['trace'], sort_keys=True)}")
        return metrics
    lat, measured = res["latency"], res["measured"]
    print(f"peak_rss_mb  {res['peak_rss_mb']:.6g} MiB")
    print(f"{wl.throughput_name}  {res['throughput']:.6g} {wl.unit}/s  (measured {measured['throughput']:.6g})")
    prefix = wl.latency_name or "op"
    print(f"{prefix}_p50_ms  {lat['p50']:.6g} ms  (measured {measured['latency']['p50']:.6g}; {lat['samples']} samples)")
    print(f"{prefix}_tail_ms  {lat['tail']:.6g} ms  (measured {measured['latency']['tail']:.6g}; "
          f"{lat['tail_label']}; {lat['samples']} samples)")
    return {
        "setup_s": {"value": setup_s, "unit": "s"},
        "peak_rss_mb": {"value": res["peak_rss_mb"], "unit": "MiB"},
        "items_per_s": {"value": res["throughput"], "unit": "item/s"},
        "op_p50_ms": {"value": lat["p50"], "unit": "ms"},
        "op_tail_ms": {"value": lat["tail"], "unit": "ms"},
    }


def run_all(args) -> int:
    """Each workload in its own fresh interpreter, one after another."""
    status = 0
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        status = max(status, subprocess.run(cmd, timeout=900).returncode)
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="plembed benchmark")
    parser.add_argument("--workload", choices=(*WORKLOAD_NAMES, "all"), default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    prepare()
    if args.workload == "all":
        return run_all(args)
    import runner

    res = runner.run(args.workload, args.seed, args.seconds, bool(args.trace), spans_dir=HERE / "out")
    res["env"] = runner.environment(ROOT)
    metrics = report(res, bool(args.trace))
    print(json.dumps({"correct": res["correct"], "attempted": res["attempted"], "failed": res["failed"],
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
