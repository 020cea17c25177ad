"""Conical vertex maps and the pleated element over a shrunken triangle.

The vertex map rescales a cone of total angle theta onto one of angle
lambda, conformally away from the apex (the planar power map in polar
coordinates).  The pleated element lifts a smaller almost-similar copy t of
an acute triangle T into a spatial hat over t whose six sub-triangles are
nearly congruent to the six circumcenter-midpoint sub-triangles of T; the
residual congruence defect lives only on the pleat segments from the lifted
circumcenter to the lifted edge midpoints.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, in_range
from .spaceform import TWO_PI

@dataclass(frozen=True)
class FoldParams:
    """Cone-to-cone fold: source angle theta, target angle lambda, radial scale."""

    source_angle: float
    target_angle: float
    radial_scale: float = 1.0

    def __post_init__(self):
        if not (0.0 < self.source_angle < math.inf and 0.0 < self.target_angle < math.inf):
            raise DomainError("cone angles must be positive and finite")
        if not 0.0 < self.radial_scale < math.inf:
            raise DomainError("radial scale must be positive and finite")


def standard_vertex_map(params: FoldParams, rho: float, phi: float) -> tuple[float, float]:
    """Image of the polar point (rho, phi) under the fold.

    The angle rescales by target/source and the radius maps to
    scale * rho ** (target/source); the apex (rho = 0) is fixed.  Conformal
    away from the apex.
    """
    if not 0.0 <= rho < math.inf:
        raise DomainError("radius must be nonnegative and finite")
    if not -1e-12 <= phi <= params.source_angle * (1.0 + 1e-12):
        raise DomainError("angular coordinate outside [0, source angle]")
    source, target, scale = params.source_angle, params.target_angle, params.radial_scale
    t = in_range(lambda: target / source, f"angle ratio {target!r} / {source!r}")
    radius = in_range(lambda: scale * rho**t, f"image radius {scale!r} * {rho!r}**{t!r}")
    return radius, in_range(lambda: t * phi, f"image angle {t!r} * {phi!r}")


def vertex_contraction(source_angle: float, rho: float, phi: float) -> tuple[float, float]:
    """Inner-disk map for wide cones: identity on radii, angle scaled to 2*pi.

    Intended for source angles above 2*pi; radial segments keep their
    length and circles about the apex contract by the factor
    2*pi / source_angle.
    """
    if not 0.0 < source_angle < math.inf:
        raise DomainError("cone angle must be positive and finite")
    if not 0.0 <= rho < math.inf:
        raise DomainError("radius must be nonnegative and finite")
    if not -1e-12 <= phi <= source_angle * (1.0 + 1e-12):
        raise DomainError("angular coordinate outside [0, source angle]")
    ratio = in_range(lambda: TWO_PI / source_angle, f"angle ratio 2*pi / {source_angle!r}")
    return rho, in_range(lambda: ratio * phi, f"image angle {ratio!r} * {phi!r}")


# ---------------------------------------------------------------------------
# Acute triangles and the pleated element.


@dataclass(frozen=True)
class AcuteTriangle:
    """A strictly acute planar triangle given by its (3, 2) vertex array.

    Side p is the edge opposite vertex p; the circumcenter lies strictly
    inside, so apothems (distances to the edge midpoints) are positive.
    """

    vertices: np.ndarray

    def __post_init__(self):
        v = np.array(self.vertices, dtype=float)
        if v.shape != (3, 2):
            raise DomainError("expected three planar vertices")
        if not np.isfinite(v).all():
            raise DomainError("vertices must be finite")
        sides = self._side_lengths(v)
        if min(sides) <= 0.0:
            raise DomainError("triangle is degenerate")
        for p in range(3):
            k, l = (p + 1) % 3, (p + 2) % 3
            # cos of angle at vertex p; must be strictly positive (acute)
            cosv = (sides[k] ** 2 + sides[l] ** 2 - sides[p] ** 2) / (2.0 * sides[k] * sides[l])
            if cosv <= 0.0:
                raise DomainError("triangle must be strictly acute")
        v.setflags(write=False)
        object.__setattr__(self, "vertices", v)

    @staticmethod
    def _side_lengths(v: np.ndarray) -> tuple[float, float, float]:
        return tuple(
            float(np.linalg.norm(v[(p + 1) % 3] - v[(p + 2) % 3])) for p in range(3)
        )

    @classmethod
    def from_sides(cls, s1: float, s2: float, s3: float) -> "AcuteTriangle":
        """Deterministic placement: vertex 1 at the origin, vertex 2 on +x.

        ``s_p`` is the side opposite vertex p.
        """
        if not all(0.0 < s < math.inf for s in (s1, s2, s3)):
            raise DomainError("sides must be positive and finite")
        x = (s3 * s3 + s2 * s2 - s1 * s1) / (2.0 * s3)
        y2 = s2 * s2 - x * x
        if y2 <= 0.0:
            raise DomainError("sides do not form a triangle")
        return cls(np.array([[0.0, 0.0], [s3, 0.0], [x, math.sqrt(y2)]]))

    @property
    def side_lengths(self) -> tuple[float, float, float]:
        return self._side_lengths(self.vertices)

    @property
    def angles(self) -> tuple[float, float, float]:
        s = self.side_lengths
        out = []
        for p in range(3):
            k, l = (p + 1) % 3, (p + 2) % 3
            out.append(math.acos((s[k] ** 2 + s[l] ** 2 - s[p] ** 2) / (2.0 * s[k] * s[l])))
        return tuple(out)

    @property
    def circumcenter(self) -> np.ndarray:
        (ax, ay), (bx, by), (cx, cy) = self.vertices
        d = 2.0 * (ax * (by - cy) + bx * (cy - ay) + cx * (ay - by))
        ux = ((ax * ax + ay * ay) * (by - cy) + (bx * bx + by * by) * (cy - ay) + (cx * cx + cy * cy) * (ay - by)) / d
        uy = ((ax * ax + ay * ay) * (cx - bx) + (bx * bx + by * by) * (ax - cx) + (cx * cx + cy * cy) * (bx - ax)) / d
        return np.array([ux, uy])

    @property
    def circumradius(self) -> float:
        return float(np.linalg.norm(self.vertices[0] - self.circumcenter))

    @property
    def edge_midpoints(self) -> np.ndarray:
        v = self.vertices
        return np.array([0.5 * (v[(p + 1) % 3] + v[(p + 2) % 3]) for p in range(3)])

    @property
    def apothems(self) -> tuple[float, float, float]:
        c = self.circumcenter
        return tuple(float(np.linalg.norm(m - c)) for m in self.edge_midpoints)


@dataclass(frozen=True)
class PleatedElement:
    """Spatial hat over the base triangle ``base`` built against ``template``.

    ``base_vertices`` are the base corners lifted to z = 0; ``apex`` sits at
    apex_height over the base circumcenter; ``face_points`` sit at
    ``pleat_heights`` over the base edge midpoints.  ``sub_triangles`` pairs
    each of the six flat circumcenter sub-triangles of the template with its
    spatial counterpart, in (edge p, half) order.
    """

    template: AcuteTriangle
    base: AcuteTriangle
    base_vertices: np.ndarray
    apex: np.ndarray
    face_points: np.ndarray
    apex_height: float
    pleat_heights: np.ndarray
    sub_triangles: tuple[tuple[np.ndarray, np.ndarray], ...]

    def to_obj(self) -> str:
        """Wavefront OBJ text: base corners, face points, apex; six faces."""
        verts = [*self.base_vertices, *self.face_points, self.apex]
        lines = ["# pleated element"]
        for p in verts:
            lines.append("v " + " ".join(f"{x:.17g}" for x in p))
        apex_i = 7
        for p in range(3):
            k, l = (p + 1) % 3, (p + 2) % 3
            lines.append(f"f {k + 1} {p + 4} {apex_i}")
            lines.append(f"f {p + 4} {l + 1} {apex_i}")
        return "\n".join(lines) + "\n"


SIMILAR_ANGLE_TOL = 1e-2  # radians between matching angles of almost similar triangles
MIN_SIDE_RATIO = 0.5  # smallest base side over template side


def canonical_element(template: AcuteTriangle, base: AcuteTriangle) -> PleatedElement:
    """Build the pleated element of ``template`` over the smaller ``base``.

    The triangles must be almost similar under the index correspondence:
    matching angles within ``SIMILAR_ANGLE_TOL`` radians and every base side
    within [MIN_SIDE_RATIO, 1] of the template side (no side longer).  The base
    circumradius must not exceed the template's.  The identity case
    (base = template) degenerates to the flat triangle with zero heights.
    """
    t_sides = template.side_lengths
    b_sides = base.side_lengths
    for at, ab in zip(template.angles, base.angles):
        if abs(at - ab) > SIMILAR_ANGLE_TOL:
            raise DomainError("triangles are not almost similar: angle mismatch")
    for st, sb in zip(t_sides, b_sides):
        if sb > st * (1.0 + 1e-12):
            raise DomainError("every base side must be at most the template side")
        if sb < MIN_SIDE_RATIO * st:
            raise DomainError(f"side ratio below the minimum {MIN_SIDE_RATIO}")
    big_r = template.circumradius
    small_r = base.circumradius
    if small_r > big_r * (1.0 + 1e-12):
        raise DomainError("base circumradius exceeds the template circumradius")

    h2 = big_r * big_r - small_r * small_r
    apex_height = math.sqrt(max(h2, 0.0))
    center = base.circumcenter
    apex = np.array([center[0], center[1], apex_height])
    base_xyz = np.hstack([base.vertices, np.zeros((3, 1))])
    mids = base.edge_midpoints
    pleat_heights = np.empty(3)
    face_points = np.empty((3, 3))
    for p in range(3):
        z2 = (0.5 * t_sides[p]) ** 2 - (0.5 * b_sides[p]) ** 2
        pleat_heights[p] = math.sqrt(max(z2, 0.0))
        face_points[p] = (mids[p][0], mids[p][1], pleat_heights[p])

    t_center = template.circumcenter
    t_mids = template.edge_midpoints
    pairs = []
    for p in range(3):
        k, l = (p + 1) % 3, (p + 2) % 3
        flat_first = np.array([template.vertices[k], t_mids[p], t_center])
        flat_second = np.array([t_mids[p], template.vertices[l], t_center])
        space_first = np.array([base_xyz[k], face_points[p], apex])
        space_second = np.array([face_points[p], base_xyz[l], apex])
        pairs.append((flat_first, space_first))
        pairs.append((flat_second, space_second))
    return PleatedElement(
        template,
        base,
        base_xyz,
        apex,
        face_points,
        apex_height,
        pleat_heights,
        tuple(pairs),
    )


@dataclass(frozen=True)
class DefectReport:
    """Isometry defect of a pleated element against its template.

    The pleat residuals compare the lifted center-to-midpoint distances with
    the template apothems; boundary residuals compare the pleated boundary
    lengths with the template sides (zero by construction).
    """

    pleat_residuals: tuple[float, float, float]
    boundary_residuals: tuple[float, float, float]
    max_defect: float
    edge_ratios: tuple[float, float, float]
    similarity_ratio: float

    def to_dict(self) -> dict:
        return {
            "pleat_residuals": list(self.pleat_residuals),
            "boundary_residuals": list(self.boundary_residuals),
            "max_defect": self.max_defect,
            "edge_ratios": list(self.edge_ratios),
            "similarity_ratio": self.similarity_ratio,
        }


def isometry_defect(element: PleatedElement, template: AcuteTriangle) -> DefectReport:
    """Congruence residuals of the element against the template triangle."""
    for a, b in zip(element.template.side_lengths, template.side_lengths):
        if abs(a - b) > 1e-12 * max(a, b):
            raise DomainError("element was not built against this template")
    t_sides = template.side_lengths
    apothems = template.apothems
    b_sides = element.base.side_lengths
    pleat = []
    boundary = []
    for p in range(3):
        k, l = (p + 1) % 3, (p + 2) % 3
        pleat.append(abs(float(np.linalg.norm(element.apex - element.face_points[p])) - apothems[p]))
        length = float(
            np.linalg.norm(element.base_vertices[k] - element.face_points[p])
            + np.linalg.norm(element.face_points[p] - element.base_vertices[l])
        )
        boundary.append(abs(length - t_sides[p]))
    ratios = tuple(sb / st for sb, st in zip(b_sides, t_sides))
    return DefectReport(
        tuple(pleat),
        tuple(boundary),
        max(max(pleat), max(boundary)),
        ratios,
        sum(ratios) / 3.0,
    )
