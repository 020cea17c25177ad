"""Discrete curvature of three consecutive points of a polygonal curve.

The Menger mode of `polyline_curvature` is the inverse circumradius and
reproduces 1/R exactly on circles.  The finsler_haantjes mode is a
*surrogate*: it applies the arc-versus-chord expansion sqrt(24 (s - l) / l^3)
with the polygonal arc s = sum of the two segment lengths.  Because the
polygonal arc is itself a chordal approximation, on points sampled from a
smooth curve it converges to sqrt(3)/2 times the true curvature as the
spacing shrinks, not to the curvature itself.  See the README.
"""

import math
import sys
from dataclasses import dataclass

from .errors import TRIANGLE_SLACK, DomainError, in_range


@dataclass(frozen=True)
class CurveTriple:
    """Three consecutive polyline points: two segment lengths and the span.

    ``leg1`` and ``leg2`` are the consecutive segment lengths; ``span`` is
    the distance between the outer points.
    """

    leg1: float
    leg2: float
    span: float

    def __post_init__(self):
        sides = (self.leg1, self.leg2, self.span)
        if min(sides) <= 0.0 or not all(math.isfinite(s) for s in sides):
            raise DomainError("curve triple lengths must be positive and finite")
        if self.span > self.leg1 + self.leg2 + TRIANGLE_SLACK * max(sides):
            raise DomainError("span exceeds the sum of the segments")


def polyline_curvature(t: CurveTriple, mode: str = "menger") -> float:
    """Discrete curvature of the triple; collinear points give 0.

    ``menger`` is 4*area/(product of sides), the inverse circumradius, taken
    of the sides scaled by 2**-e into [1/2, 1) and scaled back, exactly.
    ``finsler_haantjes`` is the chordal surrogate sqrt(24 (s - l) / l^3)
    with s = leg1 + leg2 and l = span; note the sqrt(3)/2 systematic factor
    on smooth curves (module docstring).  A value or l^3 out of the float
    range is a DomainError.
    """
    if mode == "menger":
        e = math.frexp(max(t.leg1, t.leg2, t.span))[1]
        a, b, c = (math.ldexp(x, -e) for x in (t.leg1, t.leg2, t.span))
        s = 0.5 * (a + b + c)
        area2 = s * (s - a) * (s - b) * (s - c)
        if area2 <= 0.0:
            return 0.0
        return in_range(lambda: math.ldexp(4.0 * math.sqrt(area2) / (a * b * c), -e), f"curvature of {t!r}")
    if mode == "finsler_haantjes":
        cube = in_range(lambda: t.span**3, f"span {t.span!r} cubed", sys.float_info.min)
        return in_range(lambda: math.sqrt(24.0 * max(t.leg1 + t.leg2 - t.span, 0.0) / cube), f"curvature of {t!r}")
    raise DomainError(f"unknown curvature mode {mode!r}")
