"""Metric curvature, embeddability certificates, and quasiconformal bounds
for piecewise-flat data.

The package splits into three layers:

* pointwise model geometry: comparison angles and distance realizations in
  the three constant-curvature model surfaces (:mod:`plembed.spaceform`),
  and four-point invariants built on top of them (:mod:`plembed.quadruple`);
* graph-level checks: shortest-path metrics of edge-weighted graphs and
  per-vertex compatibility certificates (:mod:`plembed.skeleton`);
* piecewise-linear maps: dilatation bounds for polyhedral complexes
  (:mod:`plembed.qcbounds`) and explicitly pleated triangle elements
  (:mod:`plembed.bzelement`).

Everything is exercised through the ``plembed`` command line tool as well;
see the README for the subcommand catalogue.
"""

from .bzelement import (
    AcuteTriangle,
    DefectReport,
    FoldParams,
    PleatedElement,
    canonical_element,
    isometry_defect,
    standard_vertex_map,
    vertex_contraction,
)
from .errors import (
    DegenerateQuadrupleError,
    DomainError,
    DuplicateEdgeError,
    MeshError,
    MissingKappaError,
    NonpositiveLengthError,
    ParseError,
    UnknownVertexError,
)
from .mesh import PolyMesh, load_off, parse_off
from .qcbounds import (
    DihedralWedgeSpec,
    DilatationBounds,
    EdgeAngleReport,
    MonteCarloEstimate,
    convex_face_count_bound,
    dihedral_wedge_coefficients,
    mesh_edge_dilatation_bound,
    normalized_exterior_angle,
    normalized_link_volume,
    normalized_link_volume_mc,
    uniform_index_bound,
)
from .quadruple import (
    EmbeddabilityCertificate,
    MetricQuadruple,
    WaldResult,
    WaldRoot,
    cayley_menger,
    nondegenerate,
    realize_quadruple,
    s3_embeddability,
    wald_curvature,
)
from .skeleton import (
    CompatibilityReport,
    CurveTriple,
    LocalReport,
    MetricGraph,
    QuadrupleCheck,
    global_compatibility,
    local_compatibility,
    parse_graph_document,
    parse_metric_graph,
    polyline_curvature,
)
from .spaceform import comparison_angle, realize_distances

__version__ = "0.1.0"

__all__ = [
    "AcuteTriangle",
    "CompatibilityReport",
    "CurveTriple",
    "DefectReport",
    "DegenerateQuadrupleError",
    "DihedralWedgeSpec",
    "DilatationBounds",
    "DomainError",
    "DuplicateEdgeError",
    "EdgeAngleReport",
    "EmbeddabilityCertificate",
    "FoldParams",
    "LocalReport",
    "MeshError",
    "MetricGraph",
    "MetricQuadruple",
    "MissingKappaError",
    "MonteCarloEstimate",
    "NonpositiveLengthError",
    "ParseError",
    "PleatedElement",
    "PolyMesh",
    "QuadrupleCheck",
    "UnknownVertexError",
    "WaldResult",
    "WaldRoot",
    "canonical_element",
    "cayley_menger",
    "comparison_angle",
    "convex_face_count_bound",
    "dihedral_wedge_coefficients",
    "global_compatibility",
    "isometry_defect",
    "load_off",
    "local_compatibility",
    "mesh_edge_dilatation_bound",
    "nondegenerate",
    "normalized_exterior_angle",
    "normalized_link_volume",
    "normalized_link_volume_mc",
    "parse_graph_document",
    "parse_metric_graph",
    "parse_off",
    "polyline_curvature",
    "realize_distances",
    "realize_quadruple",
    "s3_embeddability",
    "standard_vertex_map",
    "uniform_index_bound",
    "vertex_contraction",
    "wald_curvature",
]
