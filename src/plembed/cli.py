"""Command-line interface.

Every subcommand prints a JSON document (sorted keys, schema_version field)
to stdout, or to the --output file.  One writer, `_dumps`, makes every
document; its bytes are those of `json.dumps` with sorted keys and an indent
of 2.  With the same bytes, check-global and check-local write their entries
from the report columns of `skeleton._reports` into `_dumps` templates
(`_entries`), and qc-bound its edge rows from the columns of its report, each
vertex index's text made once; check-global writes its entries one at a
time, once every error has been raised.  Exit status: 0 on success, 1 when a
feasibility command returns a negative verdict, 2 on input or usage errors.
Numbers are emitted with Python's shortest round-trip float representation,
so parsing them back reproduces the exact values.  Each handler imports the
modules it runs, so that a subcommand starts without loading the others.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from typing import TYPE_CHECKING, Iterable, Iterator

import numpy as np

from .errors import ParseError

if TYPE_CHECKING:
    from .quadruple import MetricQuadruple

SCHEMA_VERSION = 3
_ENTRY_KEYS = ("checks", "kappa", "skipped", "verdict", "vertex", "witness")  # of `LocalReport.to_dict`, sorted
_STR = json.encoder.encode_basestring_ascii
_JOINS = {str: _STR, float: float.__repr__, int: int.__repr__}
_BOOL = ("false", "true")


def _float(x: float) -> str:
    return float.__repr__(x) if math.isfinite(x) else "NaN" if x != x else "Infinity" if x > 0 else "-Infinity"


_Text = type("_Text", (str,), {})  # text that `_dumps` writes as it stands: a value written at its depth, or a slot
_SLOT = _Text("%s")
_GAP = _Text("\0")  # the one item of a list whose items `_emit` writes in turn (json escapes every NUL of a str)
# the text of a scalar of each of these exact types (a dict value is written without a call of _dumps)
_ATOMS = {
    _Text: lambda x: x,
    str: _STR,
    float: _float,
    int: int.__repr__,
    bool: _BOOL.__getitem__,
    type(None): lambda x: "null",
}


def _dumps(o, pad: str = "\n") -> str:
    """The text of ``json.dumps(o)`` with sorted keys and an indent of 2.

    With an indent, ``json.dumps`` takes its pure-Python encoder.  Here a list
    is one C-level join when its first item is a str, float or int and every
    item takes the same encoder; other lists, rows among them, go item by
    item.  A dict value of such a type, None or a bool is written in place.
    It goes item by item where a join would differ from json: a float join
    that wrote nan or inf (json writes NaN and Infinity), and an int join
    over a bool (json writes true, not 1).  A key that is not a str and a
    value json cannot encode raise TypeError.
    ``pad`` is the newline and indent of the line that closes ``o``.
    """
    if isinstance(o, (list, tuple)):
        if not o:
            return "[]"
        inner = pad + "  "
        sep = "," + inner
        join = _JOINS.get(type(o[0]))
        try:
            text = sep.join(map(join, o)) if join else ""
        except TypeError:  # an item of another type
            text = ""
        if not text or join is float.__repr__ and "n" in text or join is int.__repr__ and bool in {*map(type, o)}:
            text = sep.join([_dumps(v, inner) for v in o])
        return f"[{inner}{text}{pad}]"
    if isinstance(o, dict):
        if not o:
            return "{}"
        inner = pad + "  "
        text = ("," + inner).join(
            [_STR(k) + ": " + (f(v) if (f := _ATOMS.get(type(v))) else _dumps(v, inner)) for k, v in sorted(o.items())]
        )
        return f"{{{inner}{text}{pad}}}"
    atom = _ATOMS.get(type(o))
    if atom:
        return atom(o)
    # a subclass writes as its base type
    if isinstance(o, str):
        return _STR(o)
    if isinstance(o, int):
        return int.__repr__(o)
    if isinstance(o, float):
        return _float(o)
    raise TypeError(f"Object of type {type(o).__name__} is not JSON serializable")


def _emit(payload: dict, args, items: Iterable[str] = ()) -> None:
    """Write the document of ``payload``; ``items`` are the texts of the items of its list [_GAP], if it has one."""
    payload["schema_version"] = SCHEMA_VERSION
    head, _, tail = (_dumps(payload) + "\n").partition(_GAP)
    sep = "," + head[head.rfind("\n") :]  # between items: the gap's own comma, line break and indent
    out = open(args.output, "w") if getattr(args, "output", None) else sys.stdout
    try:
        out.write(head)
        for k, item in enumerate(items):
            out.write(sep + item if k else item)
        out.write(tail)
    finally:
        if out is not sys.stdout:
            out.close()


def _finite_float(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"invalid finite float value: {text!r}")
    return value


def _parse_floats(text: str, expected: int, what: str) -> list[float]:
    parts = [p for p in text.split(",") if p.strip()]
    if len(parts) != expected:
        raise ParseError(f"{what}: expected {expected} comma-separated numbers, got {len(parts)}")
    try:
        return [float(p) for p in parts]
    except ValueError as e:
        raise ParseError(f"{what}: {e}") from None


def _quadruple_from_arg(text: str) -> MetricQuadruple:
    from . import quadruple
    # order: d12,d13,d14,d23,d24,d34
    return quadruple.MetricQuadruple.from_pairwise(*_parse_floats(text, 6, "--quadruple"))


def _load_graph(path: str):
    from . import skeleton
    with open(path) as fh:
        return skeleton.parse_graph_document(fh.read())


def _cmd_wald(args) -> int:
    from . import quadruple
    q = _quadruple_from_arg(args.quadruple)
    res = quadruple.wald_curvature(q, args.kappa_cap)
    payload = {"command": "wald", "quadruple": list(q.pairwise())}
    payload.update(res.to_dict())
    payload["cayley_menger"] = quadruple.cayley_menger(q)
    _emit(payload, args)
    return 0


def _cmd_embed_check(args) -> int:
    from . import quadruple
    q = _quadruple_from_arg(args.quadruple)
    cert = quadruple.s3_embeddability(q, args.kappa)
    coords = quadruple.realize_quadruple(q, args.kappa, args.dim)
    payload = {
        "command": "embed-check",
        "quadruple": list(q.pairwise()),
        "kappa": args.kappa,
        "dim": args.dim,
        "realized": coords is not None,
    }
    payload.update(cert.to_dict())
    _emit(payload, args)
    return 0 if cert.verdict else 1


def _entries(labels: list[str], c, pad: str) -> Iterator[tuple[str, ...]]:
    """Per base of ``c`` (`skeleton._Checks`), the `_dumps` texts of its report's `_ENTRY_KEYS` values at ``pad``.

    ``labels`` are the quoted labels.  `_dumps` of templates with "%s" slots
    lays out the texts; the skipped trios are label texts with their indents,
    gathered by star id as object arrays, and each list of a base is one join.
    """
    q, nb, inner = np.array(labels, dtype=object), c.stars.neighbors, pad + "  "
    a, b, z, end = _dumps([_SLOT] * 3, inner).split("%s")
    s, sep = nb[c.stars.degenerate], "," + inner
    # a skipped trio: three pieces of label text with their indents, then a separator; no trio is one string
    trios = np.stack([(a + q)[s[:, 0]], (b + q)[s[:, 1]], (z + q + end + sep)[s[:, 2]]], axis=1).ravel().tolist()
    cert = {"angle_slacks": [[_SLOT] * 3] * 4, **dict.fromkeys(("excess_slack", "planar", "verdict", "witness"), _SLOT)}
    check = _dumps({"certificate": cert, "curvature_slack": _SLOT, "neighbors": [_SLOT] * 3, "ok": _SLOT}, inner) + sep
    verdict, planar, excess, slacks, witness = c.certificate
    slacks = [*map(_float, slacks.ravel().tolist())]
    rows = zip(excess, planar, verdict, witness, c.curvature_slack, nb[c.checked].tolist(), c.ok)
    checks = [
        check % (*slacks[12 * j : 12 * j + 12], _float(e), _BOOL[p], _BOOL[v], _dumps(w, pad + "      "), _float(k),
                 labels[t[0]], labels[t[1]], labels[t[2]], _BOOL[ok])
        for j, (e, p, v, w, k, t, ok) in enumerate(rows)
    ]
    (opening, closing), failed = _dumps([_SLOT], pad).split("%s"), _dumps([[_SLOT] * 3, _SLOT], pad)
    listed = lambda items: "".join([opening, *items[:-1], items[-1][: -len(sep)], closing]) if items else "[]"
    for k, (base, kappa) in enumerate(zip(c.stars.bases, c.kappas)):
        w = c.witness(k)
        why = "null" if w is None else failed % (*[labels[i] for i in w[0]], _STR(w[1]))
        checks_k, skipped_k = checks[c.cut[k] : c.cut[k + 1]], trios[3 * c.skip[k] : 3 * c.skip[k + 1]]
        yield listed(checks_k), _float(kappa), listed(skipped_k), _BOOL[w is None], labels[base], why


def _cmd_check_local(args) -> int:
    from . import skeleton
    graph, kappa_map = _load_graph(args.graph)
    kappa = args.kappa
    if kappa is None and kappa_map is not None:
        if args.vertex not in kappa_map:
            raise ParseError(f"no curvature for vertex {args.vertex!r}; pass --kappa")
        kappa = kappa_map[args.vertex]
    if kappa is None:
        raise ParseError("no curvature given; pass --kappa or a document with a kappa map")
    c = skeleton._reports(graph, kappa, args.vertex)
    (fields,) = _entries([*map(_STR, graph.labels)], c, "\n  ")
    _emit({"command": "check-local", "graph": args.graph, **dict(zip(_ENTRY_KEYS, map(_Text, fields)))}, args)
    return 0 if fields[3] == "true" else 1


def _cmd_check_global(args) -> int:
    from . import skeleton
    graph, kappa_map = _load_graph(args.graph)
    kappa = args.kappa if args.kappa is not None else kappa_map
    if kappa is None:
        raise ParseError("no curvature given; pass --kappa or a document with a kappa map")
    c, labels = skeleton._reports(graph, kappa), [*map(_STR, graph.labels)]
    entry, witness = _dumps(dict.fromkeys(_ENTRY_KEYS, _SLOT), "\n    "), None
    if False in c.ok:  # the first base with a failed check
        bad = int(np.searchsorted(c.cut, c.ok.index(False), "right")) - 1
        trio, name = c.witness(bad)
        witness = [_Text(labels[bad]), [_Text(labels[i]) for i in trio], name]
    payload = {"command": "check-global", "graph": args.graph, "verdict": not witness, "witness": witness}
    _emit({**payload, "entries": [_GAP] if labels else []}, args, (entry % f for f in _entries(labels, c, "\n      ")))
    return 1 if witness else 0


def _cmd_qc_bound(args) -> int:
    from . import mesh, qcbounds
    m = mesh.load_off(args.mesh)
    rep = qcbounds.mesh_edge_dilatation_bound(m)
    # the text of each vertex index, made once; a list of index rows gathers it into a `_dumps` template
    ints = np.array([*map(int.__repr__, range(len(m.vertices)))], dtype=object)
    opening, middle, between, _, closing = _dumps([[_SLOT] * 2] * 2, "\n  ").split("%s")

    def rows(e: np.ndarray) -> _Text:
        parts = [None, middle, None, between] * len(e)
        parts[::2] = ints[e].ravel().tolist()
        return _Text(opening + "".join(parts[:-1]) + closing if len(e) else "[]")

    # the keys of `EdgeAngleReport.to_dict`, edges and reflex written from the columns
    payload = {"command": "qc-bound", "mesh": args.mesh, "edges": rows(rep.edges), "angles": rep.angles.tolist(),
               "bound": rep.bound, "reflex": rows(rep.edges[~rep.convex]), "warnings": list(rep.warnings)}
    _emit(payload, args)
    if args.table:
        sys.stderr.write(rep.table() + "\n")
    return 0


def _cmd_wedge(args) -> int:
    from . import qcbounds
    angles = [float(a) for a in args.angles.split(",") if a.strip()]
    spec = qcbounds.DihedralWedgeSpec(args.n, args.k, tuple(angles))
    bounds = qcbounds.dihedral_wedge_coefficients(spec)
    payload = {
        "command": "wedge",
        "dimension": args.n,
        "wedge_type": args.k,
        "angles": angles,
    }
    payload.update(bounds.to_dict())
    _emit(payload, args)
    return 0


def _cmd_face_count(args) -> int:
    from . import qcbounds
    bounds = qcbounds.convex_face_count_bound(args.faces, args.n)
    payload = {"command": "face-count-bound", "faces": args.faces, "dimension": args.n}
    payload.update(bounds.to_dict())
    _emit(payload, args)
    return 0


def _cmd_index_bound(args) -> int:
    from . import qcbounds
    value = qcbounds.uniform_index_bound(args.n, args.inner)
    _emit({"command": "index-bound", "dimension": args.n, "inner": args.inner, "bound": value}, args)
    return 0


def _cmd_link_volume(args) -> int:
    from . import mesh, qcbounds
    if args.dual and args.method == "monte-carlo":
        raise ParseError("--dual is computed exactly; it takes no --method monte-carlo")
    m = mesh.load_off(args.mesh)
    payload = {"command": "link-volume", "mesh": args.mesh, "vertex": args.vertex, "method": args.method}
    if args.dual:
        payload["dual"] = True
        payload["value"] = qcbounds.normalized_exterior_angle(m, args.vertex)
    elif args.method == "exact":
        payload["value"] = qcbounds.normalized_link_volume(m, args.vertex)
    else:
        est = qcbounds.normalized_link_volume_mc(m, args.vertex, samples=args.samples, seed=args.seed)
        payload.update(est.to_dict())
    _emit(payload, args)
    return 0


def _cmd_fold(args) -> int:
    from . import bzelement
    rho, phi = _parse_floats(args.point, 2, "--point")
    payload = {
        "command": "fold",
        "source_angle": args.theta,
        "point": [rho, phi],
    }
    if args.contraction:
        r, psi = bzelement.vertex_contraction(args.theta, rho, phi)
        payload["contraction"] = True
    else:
        params = bzelement.FoldParams(args.theta, args.lam, args.scale)
        r, psi = bzelement.standard_vertex_map(params, rho, phi)
        payload["target_angle"] = args.lam
        payload["radial_scale"] = args.scale
        payload["contraction"] = False
    payload["image"] = [r, psi]
    _emit(payload, args)
    return 0


def _cmd_bz_element(args) -> int:
    from . import bzelement
    big = bzelement.AcuteTriangle.from_sides(*_parse_floats(args.template, 3, "--template"))
    small = bzelement.AcuteTriangle.from_sides(*_parse_floats(args.base, 3, "--base"))
    element = bzelement.canonical_element(big, small)
    report = bzelement.isometry_defect(element, big)
    payload = {
        "command": "bz-element",
        "template_sides": list(big.side_lengths),
        "base_sides": list(small.side_lengths),
        "apex_height": element.apex_height,
        "pleat_heights": [float(z) for z in element.pleat_heights],
        "apex": [float(x) for x in element.apex],
        "face_points": [[float(x) for x in row] for row in element.face_points],
    }
    payload.update(report.to_dict())
    if args.obj:
        with open(args.obj, "w") as fh:
            fh.write(element.to_obj())
        payload["obj"] = args.obj
    _emit(payload, args)
    return 0


def _cmd_curve_curvature(args) -> int:
    from . import curve
    triple = curve.CurveTriple(*_parse_floats(args.triple, 3, "--triple"))
    mode = args.mode.replace("-", "_")
    value = curve.polyline_curvature(triple, mode)
    _emit(
        {
            "command": "curve-curvature",
            "triple": [triple.leg1, triple.leg2, triple.span],
            "mode": args.mode,
            "value": value,
        },
        args,
    )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="plembed",
        description="Metric curvature, embeddability checks, and dilatation bounds.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name: str, func, help: str) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help)
        p.set_defaults(func=func)
        return p

    p = command("wald", _cmd_wald, "embedding-curvature roots of a metric quadruple")
    p.add_argument("--quadruple", required=True, help="d12,d13,d14,d23,d24,d34")
    p.add_argument("--kappa-cap", type=float, default=None)

    p = command("embed-check", _cmd_embed_check, "embeddability certificate for a quadruple")
    p.add_argument("--quadruple", required=True, help="d12,d13,d14,d23,d24,d34")
    p.add_argument("--kappa", type=_finite_float, required=True)
    p.add_argument("--dim", type=int, default=3, choices=(2, 3))

    p = command("check-local", _cmd_check_local, "local compatibility at one vertex")
    p.add_argument("--graph", required=True)
    p.add_argument("--vertex", required=True)
    p.add_argument("--kappa", type=_finite_float, default=None)

    p = command("check-global", _cmd_check_global, "compatibility at every vertex")
    p.add_argument("--graph", required=True)
    p.add_argument("--kappa", type=_finite_float, default=None)

    p = command("qc-bound", _cmd_qc_bound, "edge-angle dilatation bound of a mesh")
    p.add_argument("--mesh", required=True, help="ASCII OFF file")
    p.add_argument("--table", action="store_true", help="also print a table to stderr")

    p = command("wedge", _cmd_wedge, "dilatation coefficients of a dihedral wedge")
    p.add_argument("--n", type=int, required=True, help="ambient dimension")
    p.add_argument("--k", type=int, required=True, help="wedge type")
    p.add_argument("--angles", required=True, help="comma-separated dihedral angles (radians)")

    p = command("face-count-bound", _cmd_face_count, "dilatation bound from the face count")
    p.add_argument("--faces", type=int, required=True)
    p.add_argument("--n", type=int, required=True)

    p = command("index-bound", _cmd_index_bound, "uniform bound on the local index")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--inner", type=float, required=True, help="inner dilatation")

    p = command("link-volume", _cmd_link_volume, "normalized link volume at a mesh vertex")
    p.add_argument("--mesh", required=True)
    p.add_argument("--vertex", type=int, required=True)
    p.add_argument("--method", choices=("exact", "monte-carlo"), default="exact")
    p.add_argument("--samples", type=int, default=1_000_000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--dual", action="store_true", help="volume of the dual cone (exterior angle); convex corners only")

    p = command("fold", _cmd_fold, "conical vertex map of a polar point")
    p.add_argument("--theta", type=float, required=True, help="source cone angle")
    p.add_argument("--lam", type=float, default=math.tau, help="target cone angle (default 2*pi)")
    p.add_argument("--scale", type=float, default=1.0)
    p.add_argument("--point", required=True, help="rho,phi")
    p.add_argument("--contraction", action="store_true", help="use the inner-disk contraction map")

    p = command("bz-element", _cmd_bz_element, "pleated element over a shrunken triangle")
    p.add_argument("--template", required=True, help="template sides s1,s2,s3")
    p.add_argument("--base", required=True, help="base sides s1,s2,s3")
    p.add_argument("--obj", help="write the element as Wavefront OBJ to this path")

    p = command("curve-curvature", _cmd_curve_curvature, "discrete curvature of a polyline triple")
    p.add_argument("--triple", required=True, help="leg1,leg2,span")
    p.add_argument("--mode", choices=("menger", "finsler-haantjes"), default="menger")

    for p in sub.choices.values():  # every subcommand, as its last option
        p.add_argument("--output", help="write the JSON document to this path instead of stdout")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as e:  # every plembed error is a ValueError
        sys.stderr.write(f"error: {e}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
