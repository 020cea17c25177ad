"""Run one workload: set-up timing, the closed op loop, oracle checks, metrics.

Runs go one at a time as a closed loop with one client: the next op starts
when the previous one returns.  The workload's ops repeat in a seeded mixed
order until the next op would end after the requested seconds; the traced
run instead measures whole rounds, so that its per-op counts repeat exactly.

Times are calibrated.  On a shared 2-vCPU Xeon KVM guest the speed of the
same code was seen to drift by up to 1.8x between five-second windows, far
more than any regression bound.  So each run also times a fixed reference
kernel that shares no code with plembed (a Python loop over small NumPy
calls, the kind of work that dominates plembed's time; of several kernels
tried, it tracked the ops' drift best) at its start and end and every half
second between ops, and scales every measured op time by REFERENCE_S over
the median kernel time within two seconds of it.  This removes about half of
the drift; the measured times are printed next to the calibrated ones.

Set-up time is calibrated inside each fresh interpreter instead, since the
set-up runs in another process, maybe on the other vCPU: a pure-Python kernel
(the bulk of an import is interpreter work) is timed three times just before
`import plembed.cli` and three times just after it, and the set-up time is
scaled by SETUP_REFERENCE_S over the mean of the two medians.  setup_s is the
median of SETUP_SAMPLES such interpreters.
"""

from __future__ import annotations

import bisect
import hashlib
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from importlib import metadata
from pathlib import Path

import numpy as np

from spans import EMIT, OP, SPAN_NAMES, Recorder
from workloads import WORKLOADS

SETUP_SAMPLES = 15
# nominal seconds of the reference kernels: their medians on a quiet 2-vCPU Xeon KVM guest
REFERENCE_S = 0.020
SETUP_REFERENCE_S = 0.006
# In a fresh interpreter: time `import plembed.cli`, then load the mesh read
# from stdin (link-query only), between two sets of pure-Python kernel runs;
# prints the import and set-up times and the kernel's medians before and after.
SETUP_CODE = """
import sys, time
def kernel():
    t = time.perf_counter()
    d, s = {}, 0
    for i in range(40000):
        d[i & 255] = s
        s += i * 3 % 7
    return time.perf_counter() - t
text = sys.stdin.read()
before = sorted(kernel() for _ in range(3))[1]
t0 = time.perf_counter()
import plembed.cli
t1 = time.perf_counter()
if text:
    plembed.mesh.parse_off(text)
t2 = time.perf_counter()
after = sorted(kernel() for _ in range(3))[1]
print(t1 - t0, t2 - t0, before, after)
"""
# units of the per-layer metrics: by name, else by the last part of the name
LAYER_UNITS = {
    "cli.import_s": "s",
    "cli.emit_s": "s/op",
    "cli.emit_bytes": "B/op",
    "quadruple.wald.roots_found_ratio": "1",
    "quadruple.realize_quadruple.accepted_ratio": "1",
    "skeleton.distances.bytes": "B",
    "skeleton.stars": "star/op",
    "skeleton.stars.skipped_ratio": "1",
    "qcbounds.mesh_edge_dilatation_bound.edges": "edge/op",
    "qcbounds.mc.samples": "sample/op",
    "qcbounds.link.oracle_mismatch": "count/op",
    "trace.overhead": "1",
    "trace.uncovered_share": "1",
    "calls": "call/op",
    "self_s": "s/op",
    "errors": "error/op",
}


def layer_unit(key: str) -> str:
    return LAYER_UNITS.get(key) or LAYER_UNITS[key.rsplit(".", 1)[1]]


def reference_seconds() -> float:
    """Time of one pass of the reference kernel: small NumPy calls in a Python loop, as in plembed."""
    a, b = np.arange(3.0), np.ones(3)
    total = 0.0
    t0 = time.perf_counter()
    for i in range(1000):
        total += float(np.dot(np.cross(a, b), a)) + 0.5 * i
    return time.perf_counter() - t0


class Calibration:
    """Timestamped reference-kernel samples of one run.

    `scale(start, end)` turns seconds measured in [start, end] into calibrated
    seconds, from the samples taken within WINDOW seconds of that interval.
    """

    WINDOW = 2.0

    def __init__(self):
        self.ends: list[float] = []
        self.samples: list[float] = []

    def sample(self, times: int = 1) -> None:
        for _ in range(times):
            self.samples.append(reference_seconds())
            self.ends.append(time.perf_counter())

    def between_ops(self, every: float = 0.5) -> None:
        """One sample per `every` seconds since the last one, at most five."""
        behind = time.perf_counter() - self.ends[-1]
        if behind >= every:
            self.sample(min(5, int(behind / every)))

    def scale(self, start: float | None = None, end: float | None = None) -> float:
        """REFERENCE_S over the median kernel time near [start, end], or over the whole run."""
        near = self.samples
        if start is not None:
            i = bisect.bisect_left(self.ends, start - self.WINDOW)
            j = bisect.bisect_right(self.ends, end + self.WINDOW)
            near = self.samples[i:j] or [self.samples[min(i, len(self.samples) - 1)]]
        return REFERENCE_S / statistics.median(near)


class Outcomes:
    """Failure accounting per input: each input that raised or failed its oracle, by population and reason.

    An input runs many times in a run, as often as the run's speed allows;
    its verdict comes from its first op and is checked again on each repeat.
    So `attempted` and `failed` count the workload's inputs, and equal seeds
    give equal counts on a fast or a slow machine.  `ops` counts every op run.
    """

    def __init__(self, workload):
        self.workload = workload
        self.ops = 0
        # input -> (population, what its first op gave: the document's hash or the exception's name, reason)
        self._first: dict[int, tuple[str, bytes | str, str | None]] = {}

    def _record(self, k: int, pop: str, outcome: bytes | str, reason) -> str | None:
        self.ops += 1
        if k not in self._first:
            self._first[k] = (pop, outcome, reason())
        elif self._first[k][1] != outcome:
            self._first[k] = (pop, self._first[k][1], "output-changed")
        return self._first[k][2]

    def raised(self, k: int, pop: str, exc: Exception) -> str | None:
        name = type(exc).__name__
        return self._record(k, pop, name, lambda: name)

    def checked(self, k: int, pop: str, text: str) -> str | None:
        """Check op k's document; a repeat of an already checked input reuses its verdict."""
        h = hashlib.sha1(text.encode()).digest()
        return self._record(k, pop, h, lambda: self.workload.check(k, text))

    @property
    def attempted(self) -> int:
        return len(self._first)

    @property
    def failures(self) -> Counter:
        return Counter((pop, reason) for pop, _, reason in self._first.values() if reason)

    @property
    def failed(self) -> int:
        return sum(self.failures.values())

    @property
    def correct(self) -> bool:
        """No failure outside the workload's known defects, and no repeated input whose output changed."""
        return all(
            reason != "output-changed"
            and any(p in ("*", pop) and r in ("*", reason) for p, r in self.workload.known_defects)
            for pop, reason in self.failures
        )


def run_ops(workload, ops, outcomes, seconds: float, recorder=None, rounds: int | None = None,
            calibration: Calibration | None = None) -> list[tuple[float, float]]:
    """(start, seconds) of each op.

    With `rounds`, exactly that many passes over `ops`.  Otherwise ops repeat
    in order until the next one, taking as long as the last, would end after
    `seconds`; at least one whole round runs, so that every input is checked.
    """
    timed: list[tuple[float, float]] = []
    start = time.perf_counter()
    done = 0
    while True:
        for k, (pop, op) in enumerate(ops):
            if rounds is None and done and time.perf_counter() - start + timed[-1][1] > seconds:
                return timed
            t0 = time.perf_counter()
            try:
                if recorder is None:
                    text = op()
                else:
                    with recorder.span(OP):
                        text = op()
            except Exception as exc:  # a failed op is counted, and the run goes on
                timed.append((t0, time.perf_counter() - t0))
                outcomes.raised(k, pop, exc)
            else:
                timed.append((t0, time.perf_counter() - t0))
                reason = outcomes.checked(k, pop, text)
                if reason and recorder is not None and workload.mismatch_counter:
                    recorder.count(workload.mismatch_counter)
            if calibration is not None:
                calibration.between_ops()
        done += 1
        if rounds is not None and done >= rounds:
            return timed


def measure_setup(workload, samples: int = SETUP_SAMPLES) -> list[tuple[float, float, float]]:
    """(calibration scale, import seconds, set-up seconds) from fresh interpreters."""
    out = []
    for _ in range(samples):
        proc = subprocess.run(
            [sys.executable, "-c", SETUP_CODE],
            input=workload.setup_stdin,
            capture_output=True,
            text=True,
            timeout=120,
            check=True,
        )
        imp, total, before, after = (float(x) for x in proc.stdout.split())
        out.append((2.0 * SETUP_REFERENCE_S / (before + after), imp, total))
    return out


def latency_summary(latencies: list[float], tail_percentile: float, inputs: int) -> dict:
    """Median and tail in ms.

    Op i ran input i mod `inputs`.  The tail is the workload's fixed
    percentile (nearest rank) of the inputs' median times: runs of any speed
    report the same percentile, and it keeps the inputs that are slow while a
    busy moment of the machine, which slows many ops at once, does not move
    it (the p90 of single ops spread up to 0.16 over ten seeds).  With one
    input the tail is the median of all ops.  A tail with fewer than ten
    inputs beyond it is flagged.
    """
    n = len(latencies)
    repeats: list[list[float]] = [[] for _ in range(min(inputs, n))]
    for i, x in enumerate(latencies):
        repeats[i % inputs].append(x * 1e3)
    medians = sorted(statistics.median(r) for r in repeats)
    tail = medians[math.ceil(len(medians) * tail_percentile / 100.0) - 1]
    if len(medians) == 1:
        label = "one input: the median of its ops"
    else:
        label = f"p{tail_percentile:g} of the medians of {len(medians)} inputs"
        if len(medians) * (100.0 - tail_percentile) / 100.0 < 10.0:
            label += ", FLAGGED: fewer than 10 inputs beyond it"
    return {"p50": statistics.median(latencies) * 1e3, "tail": tail, "tail_label": label, "samples": n}


def throughput(latencies: list[float], items_per_op: int, inputs: int) -> float:
    """Items per second over the median time of a whole round, in which each of the `inputs` ops runs once.

    A round weighs every input once, as the mean over all ops does, but a
    round that a busy moment of the machine slowed is left out, which the
    mean cannot do (on graph-certify it spread 0.10 over ten seeds).  A run
    without a whole round uses the mean of its ops.
    """
    rounds = [sum(latencies[i:i + inputs]) for i in range(0, len(latencies) - inputs + 1, inputs)]
    seconds = statistics.median(rounds) if rounds else statistics.fmean(latencies) * inputs
    return items_per_op * inputs / seconds


def environment(root: Path) -> dict:
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    commit = "unknown"
    head = root / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            ref_path = root / ".git" / ref[5:]
            ref = ref_path.read_text().strip() if ref_path.is_file() else ref
        commit = ref
    src_lines = sum(len(p.read_text().splitlines()) for p in sorted((root / "src").rglob("*.py")))
    versions = {}
    for dist in ("numpy", "scipy"):
        try:
            versions[dist] = metadata.version(dist)
        except metadata.PackageNotFoundError:
            versions[dist] = None
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        **versions,
        "commit": commit,
        "src_lines": src_lines,
        "threads": {k: v for k, v in sorted(os.environ.items()) if "THREADS" in k},
    }


def hooks() -> dict:
    """Counters taken from the results of wrapped calls."""

    def distances(rec, args, out):
        rec.counts["distances.bytes"] = max(rec.counts.get("distances.bytes", 0.0), float(getattr(out, "nbytes", 0)))

    def local(rec, args, out):
        rec.count("stars", len(out.checks) + len(out.skipped))
        rec.count("stars.skipped", len(out.skipped))

    return {
        "quadruple.wald_curvature": lambda rec, args, out: rec.count("wald.roots_found", bool(out.roots)),
        "quadruple.realize_quadruple": lambda rec, args, out: rec.count("realize.accepted", out is not None),
        "skeleton.MetricGraph.distance_matrix": distances,
        "skeleton.local_compatibility": local,
        "qcbounds.mesh_edge_dilatation_bound": lambda rec, args, out: rec.count("edges", len(out.edges)),
        "qcbounds.normalized_link_volume_mc": lambda rec, args, out: rec.count("mc.samples", out.samples),
    }


def per_layer(rec: Recorder, import_s: float, overhead: float, scale: float) -> dict:
    """Per-op layer metrics from the traced rounds; times are calibrated by `scale`."""
    ops = max(rec.ops, 1)
    c = rec.counts

    def ratio(num: str, den: float) -> float:
        return c.get(num, 0.0) / den if den else 0.0

    def calls(name: str) -> int:
        return rec.calls[rec.names.index(name)]

    out = {}
    for name in SPAN_NAMES:
        i = rec.names.index(name)
        out[f"{name}.calls"] = calls(name) / ops
        out[f"{name}.self_s"] = rec.self_s[i] * scale / ops
        out[f"{name}.errors"] = rec.errors[i] / ops
    out["cli.import_s"] = import_s
    out["cli.emit_s"] = rec.self_s[rec.names.index(EMIT)] * scale / ops
    out["cli.emit_bytes"] = c.get("cli.emit_bytes", 0.0) / ops
    out["quadruple.wald.roots_found_ratio"] = ratio("wald.roots_found", calls("quadruple.wald_curvature"))
    out["quadruple.realize_quadruple.accepted_ratio"] = ratio("realize.accepted", calls("quadruple.realize_quadruple"))
    out["skeleton.distances.bytes"] = c.get("distances.bytes", 0.0)
    out["skeleton.stars"] = c.get("stars", 0.0) / ops
    out["skeleton.stars.skipped_ratio"] = ratio("stars.skipped", c.get("stars", 0.0))
    out["qcbounds.mesh_edge_dilatation_bound.edges"] = c.get("edges", 0.0) / ops
    out["qcbounds.mc.samples"] = c.get("mc.samples", 0.0) / ops
    out["qcbounds.link.oracle_mismatch"] = c.get("qcbounds.link.oracle_mismatch", 0.0) / ops
    out["trace.overhead"] = overhead
    out["trace.uncovered_share"] = 1.0 - rec.covered_s / rec.op_s if rec.op_s else 0.0
    return out


def run(name: str, seed: int, seconds: float, trace: bool, *, tiny: bool = False, spans_dir: Path | None = None) -> dict:
    workload = WORKLOADS[name](seed, tiny)
    cal = Calibration()
    cal.sample(5)
    setup = measure_setup(workload)
    import plembed.cli  # noqa: F401  (the ops run after the same import as the CLI)

    workload.setup()
    ops = workload.ops()
    outcomes = Outcomes(workload)
    result = {"workload": name, "seed": seed, "inputs": {**workload.params, "hash": workload.input_hash}}
    if not trace:
        timed = run_ops(workload, ops, outcomes, seconds, calibration=cal)
        cal.sample(5)
        measured = [d for _, d in timed]
        calibrated = [d * cal.scale(t, t + d) for t, d in timed]
        tail = (workload.tail_percentile, len(ops))
        result["measured"] = {"latency": latency_summary(measured, *tail),
                              "throughput": throughput(measured, workload.items_per_op, len(ops))}
        result["latency"] = latency_summary(calibrated, *tail)
        result["throughput"] = throughput(calibrated, workload.items_per_op, len(ops))
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    else:
        # A warm-up round, then untraced and traced rounds in turn, so that the
        # machine's drift touches both alike; the overhead is the median ratio
        # of a traced round's calibrated time to that of the untraced round
        # before it.
        run_ops(workload, ops, outcomes, 0.0, rounds=1, calibration=cal)
        rec = Recorder()
        start = time.perf_counter()
        plain, traced = [], []
        while not traced or time.perf_counter() - start < seconds:
            plain.append(run_ops(workload, ops, outcomes, 0.0, rounds=1, calibration=cal))
            rec.install(hooks())
            workload.recorder = rec
            try:
                traced.append(run_ops(workload, ops, outcomes, 0.0, recorder=rec, rounds=1, calibration=cal))
            finally:
                rec.uninstall()
                workload.recorder = None
        cal.sample(5)

        def round_s(timed):
            return sum(d * cal.scale(t, t + d) for t, d in timed)

        overhead = statistics.median(round_s(b) / round_s(a) for a, b in zip(plain, traced)) - 1.0
        import_s = statistics.median(k * imp for k, imp, _ in setup)
        result["per_layer"] = per_layer(rec, import_s, overhead, cal.scale())
        result["trace"] = {"spans": rec.span_count, "traced_ops": rec.ops, "rounds": len(traced),
                           "unwrapped": rec.missing}
        if spans_dir is not None:
            spans_dir.mkdir(parents=True, exist_ok=True)
            path = spans_dir / f"spans-{name}.npz"
            rec.save(path)
            result["trace"]["file"] = str(path)
    result["setup"] = {"samples": len(setup), "measured_s": statistics.median(total for _, _, total in setup),
                       "setup_s": statistics.median(k * total for k, _, total in setup)}
    result["calibration"] = {"reference_ms": statistics.median(cal.samples) * 1e3, "samples": len(cal.samples),
                             "scale": cal.scale()}
    result["attempted"] = outcomes.attempted
    result["failed"] = outcomes.failed
    result["ops"] = outcomes.ops
    result["failures"] = {f"{pop}/{reason}": n for (pop, reason), n in sorted(outcomes.failures.items())}
    result["correct"] = outcomes.correct
    return result
