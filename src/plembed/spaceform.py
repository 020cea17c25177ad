"""Trigonometry of the constant-curvature model spaces.

The sign of the curvature parameter picks the model geometry: kappa > 0 is
the sphere of radius 1/sqrt(kappa) (vectors in R^3 for the 2-dimensional
model), kappa = 0 is the Euclidean plane/space, and kappa < 0 is the
hyperboloid model of hyperbolic space scaled by 1/sqrt(-kappa) (vectors with
the time coordinate first, Minkowski form -x0*y0 + x1*y1 + ...).

Positive curvature imposes two admissibility constraints on a triple of
distances: every side must satisfy sqrt(kappa)*d <= pi, and the perimeter
must not exceed 2*pi/sqrt(kappa).  See the README for the discussion.
"""

from __future__ import annotations

import math
import sys
from itertools import combinations

import numpy as np

from .errors import DomainError

TWO_PI = 2.0 * math.pi

# acos/acosh arguments may drift past the boundary by rounding; absorb this much.
COS_GUARD = 1e-12

# Relative slack when validating triangle inequalities on float inputs, and
# on the spherical side and perimeter limits.
TRIANGLE_SLACK = 1e-12

# Slack (radians) accepted on comparison-angle inequalities before declaring
# a violation; keeps exactly-flat boundary configurations feasible.
ANGLE_TOL = 1e-9

# Gram eigenvalues below RANK_TOL times the largest count as zero.
RANK_TOL = 1e-9

# Below |kappa|*scale^2 = 1e-14 the curved formulas are pure cancellation
# noise; fall back to the Euclidean law of cosines there.
_TINY_CURVATURE = 1e-14


def _clamped_acos(x: float) -> float:
    if -1.0 <= x <= 1.0:
        return math.acos(x)
    if not abs(x) - 1.0 <= COS_GUARD:
        raise DomainError(f"cosine value {x!r} outside [-1, 1]")
    return 0.0 if x > 0.0 else math.pi


def _log_cosh(x: float) -> float:
    # x >= 0
    return x + math.log1p(math.exp(-2.0 * x)) - math.log(2.0)


def _beyond_perimeter(rt: float, perimeter: float) -> bool:
    """Whether a triangle of this perimeter exceeds 2*pi/rt on the sphere of curvature rt**2."""
    return rt * perimeter > TWO_PI * (1.0 + TRIANGLE_SLACK)


def comparison_angle(kappa: float, opposite: float, b: float, c: float) -> float:
    """Apex angle of the curvature-kappa model triangle with given sides.

    ``opposite`` faces the apex; ``b`` and ``c`` are the sides adjacent to
    it.  The result is monotone nondecreasing in ``kappa`` and in
    ``opposite``.  Degenerate triangles return exactly 0 or pi.
    """
    if not -math.inf < kappa < math.inf:
        raise DomainError("curvature must be finite")
    opposite, b, c = float(opposite), float(b), float(c)  # past the float range, inf or nan, not a numpy warning
    scale = max(opposite, b, c)
    if not (b > 0.0 and c > 0.0 and opposite >= 0.0 and scale < math.inf):
        raise DomainError("sides must be finite, adjacent sides positive and opposite nonnegative")
    slack = TRIANGLE_SLACK * scale
    if opposite > b + c + slack or b > opposite + c + slack or c > opposite + b + slack:
        raise DomainError("sides violate the triangle inequality")
    if opposite >= b + c:
        return math.pi
    if b >= opposite + c or c >= opposite + b:
        return 0.0

    if kappa > 0.0 and kappa * scale * scale >= _TINY_CURVATURE:
        rt = math.sqrt(kappa)
        if rt * scale > math.pi * (1.0 + TRIANGLE_SLACK):
            raise DomainError("side exceeds pi/sqrt(kappa) on the sphere")
        if _beyond_perimeter(rt, opposite + b + c):
            raise DomainError("perimeter exceeds 2*pi/sqrt(kappa)")
        sb, sc = math.sin(rt * b), math.sin(rt * c)
        if sb == 0.0 or sc == 0.0:
            raise DomainError("apex angle undefined for an antipodal side")
        num = math.cos(rt * opposite) - math.cos(rt * b) * math.cos(rt * c)
        return _clamped_acos(num / (sb * sc))

    if kappa < 0.0 and -kappa * scale * scale >= _TINY_CURVATURE:
        rt = math.sqrt(-kappa)
        a_, b_, c_ = rt * opposite, rt * b, rt * c
        if max(b_, c_) > 350.0:
            # cosh overflows near 710; divide through by cosh(b_)*cosh(c_).
            l = _log_cosh(a_) - _log_cosh(b_) - _log_cosh(c_)
            return _clamped_acos((1.0 - math.exp(l)) / (math.tanh(b_) * math.tanh(c_)))
        num = math.cosh(b_) * math.cosh(c_) - math.cosh(a_)
        return _clamped_acos(num / (math.sinh(b_) * math.sinh(c_)))

    aa, bb, cc, den = opposite * opposite, b * b, c * c, 2.0 * b * c
    if not (min(aa, bb, cc) >= sys.float_info.min and max(aa, bb + cc, den) < math.inf):
        raise DomainError(f"distances {opposite!r}, {b!r}, {c!r} are out of range of the Euclidean law of cosines")
    return _clamped_acos((bb + cc - aa) / den)


# ---------------------------------------------------------------------------
# Coordinate realization.


def _psd_factor(gram: np.ndarray, max_rank: int) -> np.ndarray | None:
    """Factor a PSD Gram matrix into canonical coordinates, or None.

    Returns an (n, max_rank) array X with X @ X.T ~= gram, rotated so the
    rows form a lower-triangular pattern with nonnegative leading entries
    (point 0 on the first axis, point 1 in the first two axes, ...).
    """
    g = 0.5 * (gram + gram.T)
    try:
        w, v = np.linalg.eigh(g)
    except np.linalg.LinAlgError:
        return None  # the eigensolver did not converge
    scale = max(abs(w[0]), abs(w[-1]), 1e-300)
    if w[0] < -RANK_TOL * scale:
        return None
    w = np.clip(w, 0.0, None)
    if int(np.sum(w > RANK_TOL * scale)) > max_rank:
        return None
    order = np.argsort(w)[::-1][:max_rank]
    x = v[:, order] * np.sqrt(w[order])
    if x.shape[1] < max_rank:
        x = np.hstack([x, np.zeros((x.shape[0], max_rank - x.shape[1]))])
    return _canonicalize(x)


def _canonicalize(x: np.ndarray) -> np.ndarray:
    # Rotate so row i has zeros beyond coordinate i and the first nonzero
    # entry of every column is positive.  Deterministic placement.
    y = np.linalg.qr(x.T)[1].T
    first = (np.abs(y) > 0.0).argmax(axis=0)
    return np.where(y[first, np.arange(y.shape[1])] < 0.0, -y, y)


def _minkowski_factor(gram: np.ndarray, ambient: int) -> np.ndarray | None:
    """Factor a signature-(ambient-1, 1) Gram matrix into hyperboloid vectors.

    ``gram`` holds Minkowski products (all diagonal entries negative).
    Returns (n, ambient) coordinates with the time coordinate first, or None.
    """
    g = 0.5 * (gram + gram.T)
    try:
        w, v = np.linalg.eigh(g)
    except np.linalg.LinAlgError:
        return None  # the eigensolver did not converge
    scale = max(abs(w[0]), abs(w[-1]), 1e-300)
    if w[0] >= -RANK_TOL * scale:
        return None  # no timelike direction
    if g.shape[0] > 1 and w[1] < -RANK_TOL * scale:
        return None  # more than one negative eigenvalue
    time = math.sqrt(-w[0]) * v[:, 0]
    if time[0] < 0.0:
        time = -time
    if np.any(time <= 0.0):
        return None  # points split across hyperboloid sheets
    ws = np.clip(w[1:], 0.0, None)
    if int(np.sum(ws > RANK_TOL * scale)) > ambient - 1:
        return None
    order = np.argsort(ws)[::-1][: ambient - 1]
    xs = v[:, 1:][:, order] * np.sqrt(ws[order])
    if xs.shape[1] < ambient - 1:
        xs = np.hstack([xs, np.zeros((xs.shape[0], ambient - 1 - xs.shape[1]))])
    return np.column_stack([time, _canonicalize(xs)])


def realize_distances(kappa: float, dmat: np.ndarray, dim: int) -> np.ndarray | None:
    """Coordinates reproducing the distance matrix in the dim-dimensional model.

    Failure to embed is a value (None), not an error; so is an eigensolver
    that does not converge, and on the sphere a side beyond pi/sqrt(kappa)
    or a triangle of perimeter beyond 2*pi/sqrt(kappa).  A non-finite kappa
    raises DomainError.  Coordinates are (n, dim) for kappa = 0, else
    (n, dim + 1) model vectors.  Placement is canonical: point 0 at the
    origin/pole, point 1 on the first axis, and each further point in the
    span of one additional axis.
    """
    if not -math.inf < kappa < math.inf:
        raise DomainError("curvature must be finite")
    d = np.asarray(dmat, dtype=float)
    if kappa == 0.0:
        sq = d * d
        g = 0.5 * (sq[0, 1:][:, None] + sq[0, 1:][None, :] - sq[1:, 1:])
        x = _psd_factor(g, dim)
        return None if x is None else np.vstack([np.zeros(dim), x])
    if kappa > 0.0:
        rt = math.sqrt(kappa)
        args = rt * d
        if np.any(args > math.pi * (1.0 + 1e-9)):
            return None
        if any(_beyond_perimeter(rt, d[i, j] + d[i, k] + d[j, k]) for i, j, k in combinations(range(len(d)), 3)):
            return None
        g = np.cos(args) / kappa
        return _psd_factor(g, dim + 1)
    args = math.sqrt(-kappa) * d
    if np.any(args > 700.0):
        return None  # cosh overflows double precision; cannot certify coordinates
    g = np.cosh(args) / kappa  # negative of cosh/R^2
    # Factor g / 4**h, whose entries are near 1, and scale back by 2**h; eigh
    # does not converge on entries near 1e297.  The scaling is exact in binary;
    # LAPACK need not commute with it, though on the tested cases the factor
    # was identical to the unscaled one.
    h = math.frexp(float(np.abs(g).max()))[1] // 2
    x = _minkowski_factor(np.ldexp(g, -2 * h), dim + 1)
    return None if x is None else np.ldexp(x, h)


def distances_from_coords(kappa: float, coords: np.ndarray) -> np.ndarray:
    """Pairwise geodesic distances of model coordinates."""
    c = np.asarray(coords, dtype=float)
    if kappa == 0.0:
        diff = c[:, None, :] - c[None, :, :]
        return np.sqrt((diff * diff).sum(axis=-1))
    if kappa > 0.0:
        cosv = kappa * (c @ c.T)
        cosv = np.clip(cosv, -1.0, 1.0)
        out = np.arccos(cosv) / math.sqrt(kappa)
        np.fill_diagonal(out, 0.0)
        return out
    t = c[:, 0]
    xs = c[:, 1:]
    coshv = -kappa * (np.outer(t, t) - xs @ xs.T)
    coshv = np.maximum(coshv, 1.0)
    out = np.arccosh(coshv) / math.sqrt(-kappa)
    np.fill_diagonal(out, 0.0)
    return out

