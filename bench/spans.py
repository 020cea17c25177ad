"""Span recording around the library's public functions, for the traced run.

`Recorder.install` replaces each listed function or method with a wrapper at
every module or class attribute through which plembed code or the benchmark
looks it up (a function imported by name into another module is patched
there too).  Each call records a span: name, start, end, parent span and op
id.  Spans stay in memory and `Recorder.save` writes them out at the end;
calls, self time (duration minus child spans) and raised errors are summed
as the spans close.  The command-line tool's `plembed.cli._emit` (JSON
dumps and write) is recorded as the span EMIT.
"""

from __future__ import annotations

import importlib
import inspect
import sys
import time
from array import array
from contextlib import contextmanager

import numpy as np

# module -> wrapped public names (Class.method for methods)
LAYERS = {
    "spaceform": ("comparison_angle", "realize_distances"),
    "quadruple": (
        "MetricQuadruple.from_matrix",
        "MetricQuadruple.from_pairwise",
        "nondegenerate",
        "s3_embeddability",
        "wald_curvature",
        "realize_quadruple",
        "cayley_menger",
    ),
    "skeleton": (
        "parse_graph_document",
        "MetricGraph.distance_matrix",
        "MetricGraph.neighbors",
        "star_quadruples",
        "local_compatibility",
    ),
    "mesh": (
        "parse_off",
        "PolyMesh.oriented_outward",
        "PolyMesh.signed_volume",
        "PolyMesh.require_closed_manifold",
        "PolyMesh.vertex_faces",
        "PolyMesh.face_normal",
    ),
    "qcbounds": (
        "mesh_edge_dilatation_bound",
        "normalized_link_volume",
        "normalized_link_volume_mc",
        "normalized_exterior_angle",
    ),
}
SPAN_NAMES = tuple(f"{mod}.{name}" for mod, names in LAYERS.items() for name in names)
EMIT = "cli.emit"
OP = "op"


class Recorder:
    def __init__(self):
        self.names = [OP, EMIT, *SPAN_NAMES]
        self._id = {n: i for i, n in enumerate(self.names)}
        self.calls = [0] * len(self.names)
        self.self_s = [0.0] * len(self.names)
        self.errors = [0] * len(self.names)
        self.counts: dict[str, float] = {}
        self.missing: list[str] = []
        self.ops = 0
        self.op_s = 0.0
        self.covered_s = 0.0
        self._name, self._parent, self._op = array("H"), array("i"), array("I")
        self._start, self._end = array("d"), array("d")
        self._stack: list[list] = []  # [span index, child seconds]
        self._patches: list[tuple[object, str, object]] = []

    def count(self, key: str, value: float = 1.0) -> None:
        self.counts[key] = self.counts.get(key, 0.0) + value

    def _open(self, nid: int) -> list:
        frame = [len(self._start), 0.0]
        self._name.append(nid)
        self._parent.append(self._stack[-1][0] if self._stack else -1)
        self._op.append(self.ops)
        self._start.append(0.0)
        self._end.append(0.0)
        self._stack.append(frame)
        return frame

    def _close(self, frame: list, nid: int, t0: float, t1: float) -> float:
        self._stack.pop()
        self._start[frame[0]] = t0
        self._end[frame[0]] = t1
        dur = t1 - t0
        self.calls[nid] += 1
        self.self_s[nid] += dur - frame[1]
        if self._stack:
            self._stack[-1][1] += dur
        return dur

    @contextmanager
    def span(self, name: str):
        nid = self._id[name]
        frame = self._open(nid)
        t0 = time.perf_counter()
        try:
            yield
        except Exception:
            self.errors[nid] += 1
            raise
        finally:
            dur = self._close(frame, nid, t0, time.perf_counter())
            if name == OP:
                self.ops += 1
                self.op_s += dur
                self.covered_s += frame[1]

    def _wrap(self, name: str, fn, hook):
        nid = self._id[name]
        perf_counter = time.perf_counter

        def wrapper(*args, **kwargs):
            frame = self._open(nid)
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
            except Exception:
                self.errors[nid] += 1
                raise
            finally:
                self._close(frame, nid, t0, perf_counter())
            if hook is not None:
                hook(self, args, out)
            return out

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self, hooks: dict) -> None:
        """Wrap every name in LAYERS; `hooks` maps a span name to hook(recorder, args, result)."""
        self.missing = []
        loaded = [m for key, m in list(sys.modules.items()) if key == "plembed" or key.startswith("plembed.")]
        for mod_name, names in LAYERS.items():
            mod = importlib.import_module(f"plembed.{mod_name}")
            for name in names:
                span_name = f"{mod_name}.{name}"
                owner_name, _, attr = name.rpartition(".")
                owner = getattr(mod, owner_name) if owner_name else mod
                raw = inspect.getattr_static(owner, attr, None)
                if raw is None:
                    self.missing.append(span_name)
                    continue
                if isinstance(raw, classmethod):
                    wrapped = classmethod(self._wrap(span_name, raw.__func__, hooks.get(span_name)))
                    self._patch(owner, attr, wrapped)
                    continue
                wrapped = self._wrap(span_name, raw, hooks.get(span_name))
                if owner_name:
                    self._patch(owner, attr, wrapped)
                    continue
                for m in loaded:
                    for key, value in list(vars(m).items()):
                        if value is raw:
                            self._patch(m, key, wrapped)
        cli = importlib.import_module("plembed.cli")
        self._patch(cli, "_emit", self._wrap(EMIT, cli._emit, None))

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, inspect.getattr_static(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._patches):
            setattr(owner, attr, value)
        self._patches.clear()

    def save(self, path) -> None:
        np.savez(
            path,
            names=np.array(self.names),
            name=np.frombuffer(self._name, dtype=np.uint16),
            parent=np.frombuffer(self._parent, dtype=np.int32),
            op=np.frombuffer(self._op, dtype=np.uint32),
            start=np.frombuffer(self._start, dtype=np.float64),
            end=np.frombuffer(self._end, dtype=np.float64),
        )

    @property
    def span_count(self) -> int:
        return len(self._start)
