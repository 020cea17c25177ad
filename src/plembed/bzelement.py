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
import sys
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DomainError, in_range
from .mesh import rowdot

SLACK = 1e-12  # relative slack of the polar angle range and of the side, circumradius and template comparisons
# side p runs from vertex _K[p] to vertex _L[p]
_K, _L = np.array([1, 2, 0]), np.array([2, 0, 1])


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


def _check_polar(source_angle: float, rho: float, phi: float) -> None:
    if not 0.0 <= rho < math.inf:
        raise DomainError("radius must be nonnegative and finite")
    if not -SLACK <= phi <= source_angle * (1.0 + SLACK):
        raise DomainError("angular coordinate outside [0, source angle]")


def standard_vertex_map(params: FoldParams, rho: float, phi: float) -> tuple[float, float]:
    """Image of the polar point (rho, phi) under the fold.

    The angle rescales by target/source and the radius maps to
    scale * rho ** (target/source); the apex (rho = 0) is fixed.  Conformal
    away from the apex.
    """
    _check_polar(params.source_angle, rho, phi)
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
    _check_polar(source_angle, rho, phi)
    ratio = in_range(lambda: math.tau / source_angle, f"angle ratio 2*pi / {source_angle!r}")
    return rho, in_range(lambda: ratio * phi, f"image angle {ratio!r} * {phi!r}")


# ---------------------------------------------------------------------------
# Acute triangles and the pleated element.


@dataclass(frozen=True)
class AcuteTriangle:
    """A strictly acute planar triangle given by its (3, 2) vertex array.

    Side p is the edge opposite vertex p; the circumcenter lies strictly
    inside, so apothems (distances to the edge midpoints) are positive.
    The vertices are read-only, so each derived quantity is computed once.
    """

    vertices: np.ndarray

    def __post_init__(self):
        v = np.array(self.vertices, dtype=float)
        if v.shape != (3, 2):
            raise DomainError("expected three planar vertices")
        if not np.isfinite(v).all():
            raise DomainError("vertices must be finite")
        v.setflags(write=False)
        object.__setattr__(self, "vertices", v)
        sides, what = self.side_lengths, f"squares of the side lengths {self.side_lengths} of {v.tolist()}"
        in_range(lambda: max(sides) ** 2, what, problem="are out of the float range")  # as `_cosines` takes them
        if min(sides) <= 0.0:
            raise DomainError("triangle is degenerate")
        if min(self._cosines) <= 0.0:
            raise DomainError("triangle must be strictly acute")

    @classmethod
    def from_sides(cls, s1: float, s2: float, s3: float) -> "AcuteTriangle":
        """Deterministic placement: vertex 1 at the origin, vertex 2 on +x.

        ``s_p`` is the side opposite vertex p.
        """
        if not all(0.0 < s < math.inf for s in (s1, s2, s3)):
            raise DomainError("sides must be positive and finite")
        for s in (s1, s2, s3):  # no square over- or underflows
            in_range(lambda: s * s, f"side {s!r} squared", sys.float_info.min)
        # placed as the sides over 2**e, below 1, so that no sum of two squares overflows; scaled back exactly
        e = math.frexp(max(s1, s2, s3))[1]
        a, b, c = (math.ldexp(s, -e) for s in (s1, s2, s3))
        x = (c * c + b * b - a * a) / (2.0 * c)
        y2 = b * b - x * x
        if y2 <= 0.0:
            raise DomainError("sides do not form a triangle")
        return cls(np.array([[0.0, 0.0], [s3, 0.0], np.ldexp([x, math.sqrt(y2)], e)]))

    @cached_property
    def side_lengths(self) -> tuple[float, float, float]:
        with np.errstate(over="ignore"):  # an infinite side; `__post_init__` rejects it
            d = self.vertices[_K] - self.vertices[_L]
            return tuple(np.sqrt(rowdot(d, d)).tolist())

    @cached_property
    def _cosines(self) -> tuple[float, float, float]:
        # law of cosines in Python floats, over 4**e; s ** 2 is libm pow, whose bits move with scale: squared unscaled
        e = math.frexp(max(self.side_lengths))[1]
        q, s = [math.ldexp(x**2, -2 * e) for x in self.side_lengths], [math.ldexp(x, -e) for x in self.side_lengths]
        return tuple((q[k] + q[l] - q[p]) / (2.0 * s[k] * s[l]) for p, k, l in zip(range(3), _K, _L))

    @property
    def angles(self) -> tuple[float, float, float]:
        return tuple(map(math.acos, self._cosines))

    @cached_property
    def circumcenter(self) -> np.ndarray:
        # on the vertices over 2**e, below 1 in size, so that no product of three coordinates over- or underflows;
        # a power of two scales exactly, so in the normal range the bits are those of the unscaled formula
        e = math.frexp(float(np.abs(self.vertices).max()))[1]
        (ax, ay), (bx, by), (cx, cy) = np.ldexp(self.vertices, -e).tolist()  # Python floats: no numpy warning
        d, what = 2.0 * (ax * (by - cy) + bx * (cy - ay) + cx * (ay - by)), f"circumcenter of sides {self.side_lengths}"
        a2, b2, c2 = ax * ax + ay * ay, bx * bx + by * by, cx * cx + cy * cy
        ux = in_range(lambda: (a2 * (by - cy) + b2 * (cy - ay) + c2 * (ay - by)) / d, what)
        uy = in_range(lambda: (a2 * (cx - bx) + b2 * (ax - cx) + c2 * (bx - ax)) / d, what)
        center = np.ldexp([ux, uy], e)
        center.setflags(write=False)
        return center

    @property
    def circumradius(self) -> float:
        return float(np.linalg.norm(self.vertices[0] - self.circumcenter))

    @property
    def edge_midpoints(self) -> np.ndarray:
        return 0.5 * (self.vertices[_K] + self.vertices[_L])

    @property
    def apothems(self) -> tuple[float, float, float]:
        d = self.edge_midpoints - self.circumcenter
        return tuple(np.sqrt(rowdot(d, d)).tolist())


@dataclass(frozen=True)
class PleatedElement:
    """Spatial hat over the base triangle ``base`` built against ``template``.

    ``base_vertices`` are the base corners lifted to z = 0; ``apex`` sits at
    apex_height over the base circumcenter; ``face_points`` sit at
    ``pleat_heights`` over the base edge midpoints.
    """

    template: AcuteTriangle
    base: AcuteTriangle
    base_vertices: np.ndarray
    apex: np.ndarray
    face_points: np.ndarray
    apex_height: float
    pleat_heights: np.ndarray

    def to_obj(self) -> str:
        """Wavefront OBJ text: base corners, face points, apex; six faces."""
        verts = np.vstack([self.base_vertices, self.face_points, self.apex])
        lines = ["# pleated element", *("v " + " ".join(f"{x:.17g}" for x in p) for p in verts)]
        for p, k, l in zip(range(3), _K, _L):
            lines += [f"f {k + 1} {p + 4} 7", f"f {p + 4} {l + 1} 7"]
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
    if np.any(np.abs(np.subtract(template.angles, base.angles)) > SIMILAR_ANGLE_TOL):
        raise DomainError("triangles are not almost similar: angle mismatch")
    for st, sb in zip(t_sides, b_sides):
        if sb > st * (1.0 + SLACK):
            raise DomainError("every base side must be at most the template side")
        if sb < MIN_SIDE_RATIO * st:
            raise DomainError(f"side ratio below the minimum {MIN_SIDE_RATIO}")
    big_r = template.circumradius
    small_r = base.circumradius
    if small_r > big_r * (1.0 + SLACK):
        raise DomainError("base circumradius exceeds the template circumradius")

    apex_height = math.sqrt(max(big_r * big_r - small_r * small_r, 0.0))
    # (t/2) ** 2 - (b/2) ** 2 cancels, so its pow rounding shows: kept in Python floats
    pleat_heights = np.array([math.sqrt(max((0.5 * st) ** 2 - (0.5 * sb) ** 2, 0.0)) for st, sb in zip(t_sides, b_sides)])
    return PleatedElement(
        template,
        base,
        np.hstack([base.vertices, np.zeros((3, 1))]),
        np.append(base.circumcenter, apex_height),
        np.column_stack([base.edge_midpoints, pleat_heights]),
        apex_height,
        pleat_heights,
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
    built, t_sides = np.array(element.template.side_lengths), np.array(template.side_lengths)
    if np.any(np.abs(built - t_sides) > SLACK * np.maximum(built, t_sides)):
        raise DomainError("element was not built against this template")
    corners, points = element.base_vertices, element.face_points
    to_apex = element.apex - points
    first, second = corners[_K] - points, points - corners[_L]
    pleat = np.abs(np.sqrt(rowdot(to_apex, to_apex)) - template.apothems).tolist()
    lengths = np.sqrt(rowdot(first, first)) + np.sqrt(rowdot(second, second))
    boundary = np.abs(lengths - t_sides).tolist()
    ratios = tuple(np.divide(element.base.side_lengths, t_sides).tolist())
    return DefectReport(tuple(pleat), tuple(boundary), max(*pleat, *boundary), ratios, sum(ratios) / 3.0)
