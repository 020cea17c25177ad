"""Metric curvature, embeddability certificates, and quasiconformal bounds
for piecewise-flat data.

The package splits into three layers:

* pointwise model geometry: comparison angles and distance realizations in
  the three constant-curvature model surfaces (:mod:`plembed.spaceform`),
  and four-point invariants built on top of them (:mod:`plembed.quadruple`);
* graph-level checks: shortest-path metrics of edge-weighted graphs and
  per-vertex compatibility certificates (:mod:`plembed.skeleton`), and the
  discrete curvature of polylines (:mod:`plembed.curve`);
* piecewise-linear maps: dilatation bounds for polyhedral complexes
  (:mod:`plembed.qcbounds`) and explicitly pleated triangle elements
  (:mod:`plembed.bzelement`).

Everything is exercised through the ``plembed`` command line tool as well;
see the README for the subcommand catalogue.

Each module loads the first time one of its names is asked for (PEP 562), so
``import plembed`` and ``import plembed.cli`` load none of the computing
modules: a subcommand loads the modules it runs.
"""

from importlib import import_module

# each public name once, under its home module
_HOMES = {
    "bzelement": """AcuteTriangle DefectReport FoldParams PleatedElement canonical_element isometry_defect
        standard_vertex_map vertex_contraction""",
    "curve": "CurveTriple polyline_curvature",
    "errors": """DegenerateQuadrupleError DomainError DuplicateEdgeError MeshError MissingKappaError
        NonpositiveLengthError ParseError UnknownVertexError""",
    "mesh": "PolyMesh load_off parse_off",
    "qcbounds": """DihedralWedgeSpec DilatationBounds EdgeAngleReport MonteCarloEstimate convex_face_count_bound
        dihedral_wedge_coefficients mesh_edge_dilatation_bound normalized_exterior_angle normalized_link_volume
        normalized_link_volume_mc uniform_index_bound""",
    "quadruple": """EmbeddabilityCertificate MetricQuadruple WaldResult WaldRoot cayley_menger nondegenerate
        realize_quadruple s3_embeddability wald_curvature""",
    "skeleton": """CompatibilityReport LocalReport MetricGraph QuadrupleCheck global_compatibility local_compatibility
        parse_graph_document parse_metric_graph""",
    "spaceform": "comparison_angle realize_distances",
}
_HOME = {name: module for module, names in _HOMES.items() for name in names.split()}

__version__ = "0.1.0"

__all__ = sorted(_HOME)


def __getattr__(name: str):
    """A public name or a submodule, imported the first time it is asked for."""
    if name in _HOME:
        value = getattr(import_module(f".{_HOME[name]}", __name__), name)
    elif name in _HOMES or name == "cli":
        value = import_module(f".{name}", __name__)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
