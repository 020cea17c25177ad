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

_SIDE_LIMIT = math.pi * (1.0 + TRIANGLE_SLACK)  # largest sqrt(kappa) * side on the sphere
_PERIMETER_LIMIT = TWO_PI * (1.0 + TRIANGLE_SLACK)  # largest sqrt(kappa) * perimeter on the sphere
_LOG2 = math.log(2.0)

# Why an angle is undefined, by code - 1, in the order each triple is tested.
# The fields are the opposite side, the adjacent sides and the cosine.
_ANGLE_ERRORS = (
    "curvature must be finite",
    "sides must be finite, adjacent sides positive and opposite nonnegative",
    "sides violate the triangle inequality",
    "side exceeds pi/sqrt(kappa) on the sphere",
    "perimeter exceeds 2*pi/sqrt(kappa)",
    "apex angle undefined for an antipodal side",
    "distances {0!r}, {1!r}, {2!r} are out of range of the Euclidean law of cosines",
    "cosine value {3!r} outside [-1, 1]",
)


def _each(f, x: np.ndarray) -> np.ndarray:
    """f of every element of a 1-d array, one Python float at a time (numpy's versions may move the last bit)."""
    return np.fromiter(map(f, x.tolist()), float, x.size)


def _log_cosh(x: np.ndarray) -> np.ndarray:
    # x >= 0
    return x + _each(math.log1p, _each(math.exp, -2.0 * x)) - _LOG2


def comparison_angles(kappa, opposite, b, c) -> tuple[np.ndarray, tuple[int, str] | None]:
    """`comparison_angle` of every element of the broadcast arrays, and the first failure.

    The arithmetic runs on arrays in the scalar order of operations, and every
    transcendental function takes one Python float at a time, so each angle
    has the bits of a scalar evaluation.  Returns the angles (nan where one is
    undefined) and None, or the flat index in C order of the first undefined
    angle and its `DomainError` text.
    """
    shape = np.broadcast(kappa, opposite, b, c).shape
    table = np.empty((4, *shape))
    table[0], table[1], table[2], table[3] = kappa, opposite, b, c
    k, o, b, c = table.reshape(4, -1)
    code = np.zeros(o.size, np.intp)  # 1 + the index in _ANGLE_ERRORS, or 0
    cosine = np.full(o.size, math.nan)
    with np.errstate(all="ignore"):
        scale = np.maximum(np.maximum(o, b), c)
        slack = TRIANGLE_SLACK * scale
        bc, oc, ob = b + c, o + c, o + b
        usable = (b > 0.0) & (c > 0.0) & (o >= 0.0) & (scale < math.inf)
        valid = usable & np.isfinite(k) & (o <= bc + slack) & (b <= oc + slack) & (c <= ob + slack)
        if not valid.all():  # each test overwrites the codes of the later ones, as it comes first
            code[~valid] = 3
            code[~usable] = 2
            code[~np.isfinite(k)] = 1
        live = valid & (o < bc) & (b < oc) & (c < ob)
        angle = np.where(valid & ~live, np.where(o >= bc, math.pi, 0.0), math.nan)
        ks = k * scale * scale
        curved = live & (np.abs(ks) >= _TINY_CURVATURE)
        sphere, hyper, flat = (np.flatnonzero(m) for m in (curved & (k > 0.0), curved & (k < 0.0), live & ~curved))
        if sphere.size:
            rt = np.sqrt(k[sphere])
            beyond = rt * (ob[sphere] + c[sphere]) > _PERIMETER_LIMIT
            too_long = rt * scale[sphere] > _SIDE_LIMIT
            code[sphere[beyond]] = 5
            code[sphere[too_long]] = 4
            keep = ~(too_long | beyond)
            sphere, rt = sphere[keep], rt[keep]
            rb, rc = rt * b[sphere], rt * c[sphere]
            sb, sc = _each(math.sin, rb), _each(math.sin, rc)
            code[sphere[(sb == 0.0) | (sc == 0.0)]] = 6
            num = _each(math.cos, rt * o[sphere]) - _each(math.cos, rb) * _each(math.cos, rc)
            cosine[sphere] = num / (sb * sc)
        if hyper.size:
            rt = np.sqrt(-k[hyper])
            a_, b_, c_ = rt * o[hyper], rt * b[hyper], rt * c[hyper]
            far = np.maximum(b_, c_) > 350.0
            if far.any():
                # cosh overflows near 710; divide through by cosh(b_)*cosh(c_)
                a2, b2, c2 = a_[far], b_[far], c_[far]
                l = _log_cosh(a2) - _log_cosh(b2) - _log_cosh(c2)
                cosine[hyper[far]] = (1.0 - _each(math.exp, l)) / (_each(math.tanh, b2) * _each(math.tanh, c2))
            a_, b_, c_ = a_[~far], b_[~far], c_[~far]
            num = _each(math.cosh, b_) * _each(math.cosh, c_) - _each(math.cosh, a_)
            cosine[hyper[~far]] = num / (_each(math.sinh, b_) * _each(math.sinh, c_))
        if flat.size:
            of, bf, cf = o[flat], b[flat], c[flat]
            aa, bb, cc, den = of * of, bf * bf, cf * cf, 2.0 * bf * cf
            small = np.minimum(np.minimum(aa, bb), cc) < sys.float_info.min
            code[flat[small | (np.maximum(np.maximum(aa, bb + cc), den) == math.inf)]] = 7
            cosine[flat] = (bb + cc - aa) / den
        todo = np.flatnonzero(live & (code == 0))
        x = cosine[todo]
        inside = (-1.0 <= x) & (x <= 1.0)
        angle[todo[inside]] = _each(math.acos, x[inside])
        if not inside.all():  # rounding past +-1 by at most COS_GUARD is absorbed
            near = ~inside & (np.abs(x) - 1.0 <= COS_GUARD)
            angle[todo[near]] = np.where(x[near] > 0.0, 0.0, math.pi)
            code[todo[~(inside | near)]] = 8
    failed = np.flatnonzero(code)
    if not failed.size:
        return angle.reshape(shape), None
    i = int(failed[0])
    text = _ANGLE_ERRORS[code[i] - 1].format(o[i].item(), b[i].item(), c[i].item(), cosine[i].item())
    return angle.reshape(shape), (i, text)


def comparison_angle(kappa: float, opposite: float, b: float, c: float) -> float:
    """Apex angle of the curvature-kappa model triangle with given sides.

    ``opposite`` faces the apex; ``b`` and ``c`` are the sides adjacent to
    it.  The result is monotone nondecreasing in ``kappa`` and in
    ``opposite``.  Degenerate triangles return exactly 0 or pi.  One row of
    `comparison_angles`.
    """
    angle, failure = comparison_angles(kappa, opposite, b, c)
    if failure:
        raise DomainError(failure[1])
    return angle.item()


# ---------------------------------------------------------------------------
# Coordinate realization.


def _factor(gram: np.ndarray, rank: int, timelike: bool) -> np.ndarray | None:
    """Canonical coordinates of a Gram matrix: a time coordinate if ``timelike``, then ``rank`` more; or None.

    Without ``timelike``, X @ X.T ~= gram.  With it, the one negative
    eigenvalue gives the time coordinate, positive in every row, and the
    rows' Minkowski products reproduce gram.  None when another eigenvalue is
    below -RANK_TOL times the largest in absolute value, more than ``rank``
    lie above it, the points lie on both hyperboloid sheets, or eigh does not
    converge.  The other coordinates are rotated so that row i is zero beyond
    coordinate i and the first nonzero entry of each column is positive, then
    padded with zero columns up to ``rank``.
    """
    g = 0.5 * (gram + gram.T)
    try:
        w, v = np.linalg.eigh(g)
    except np.linalg.LinAlgError:
        return None  # the eigensolver did not converge
    tol = RANK_TOL * max(abs(w[0]), abs(w[-1]), 1e-300)
    time = []
    if timelike:
        if w[0] >= -tol:
            return None  # no timelike direction
        t = math.sqrt(-w[0]) * v[:, 0]
        time = [-t if t[0] < 0.0 else t]
        if np.any(time[0] <= 0.0):
            return None  # points split across hyperboloid sheets
        w, v = w[1:], v[:, 1:]
    if w[0] < -tol:
        return None  # not positive semidefinite, or a second timelike direction
    w = np.clip(w, 0.0, None)
    if np.count_nonzero(w > tol) > rank:
        return None
    order = np.argsort(w)[::-1][:rank]
    y = np.linalg.qr((v[:, order] * np.sqrt(w[order])).T, mode="r").T
    first = (np.abs(y) > 0.0).argmax(axis=0)
    y = np.where(y[first, np.arange(y.shape[1])] < 0.0, -y, y)
    return np.column_stack([*time, y, np.zeros((len(g), rank - y.shape[1]))])


def realize_distances(kappa: float, dmat: np.ndarray, dim: int) -> np.ndarray | None:
    """Coordinates reproducing the distance matrix in the dim-dimensional model.

    Failure to embed is a value (None), not an error; so is an eigensolver
    that does not converge, and on the sphere a side beyond pi/sqrt(kappa)
    or a triangle of perimeter beyond 2*pi/sqrt(kappa).  A non-finite or
    subnormal kappa, or a matrix that is not square, has fewer than two
    points, or has an entry that is not finite and nonnegative, raises
    DomainError.
    Coordinates are (n, dim) for kappa = 0, else (n, dim + 1) model vectors,
    for any number n of points.  Every model is realized by one factorization
    of its Gram matrix (`_factor`), and placement is canonical: in the plane
    point 0 is the origin and point i lies in the span of the first i axes;
    on the sphere, and in the space coordinates that follow the hyperboloid's
    time coordinate, point i lies in the span of the first i + 1 axes.
    """
    if not -math.inf < kappa < math.inf:
        raise DomainError("curvature must be finite")
    if 0.0 < abs(kappa) < sys.float_info.min:
        raise DomainError(f"curvature {kappa!r} is subnormal; its model's Gram entries 1/kappa overflow")
    d = np.asarray(dmat, dtype=float)
    if d.ndim != 2 or d.shape[0] != d.shape[1] or len(d) < 2:
        raise DomainError("expected a square distance matrix of at least two points")
    if not ((d >= 0.0) & (d < math.inf)).all():
        raise DomainError("distances must be finite and nonnegative")
    if kappa == 0.0:
        sq = d * d
        g = 0.5 * (sq[0, 1:][:, None] + sq[0, 1:][None, :] - sq[1:, 1:])
        x = _factor(g, dim, False)
        return None if x is None else np.vstack([np.zeros(dim), x])
    if kappa > 0.0:
        rt = math.sqrt(kappa)
        args = rt * d
        if np.any(args > _SIDE_LIMIT):
            return None
        i, j, k = np.array(list(combinations(range(len(d)), 3)), np.intp).reshape(-1, 3).T
        if (rt * (d[i, j] + d[i, k] + d[j, k]) > _PERIMETER_LIMIT).any():
            return None
        return _factor(np.cos(args) / kappa, dim + 1, False)
    args = math.sqrt(-kappa) * d
    if np.any(args > 700.0):
        return None  # cosh overflows double precision; cannot certify coordinates
    g = np.cosh(args) / kappa  # negative of cosh/R^2
    # Factor g / 4**h, whose entries are near 1, and scale back by 2**h; eigh
    # does not converge on entries near 1e297.  The scaling is exact in binary;
    # LAPACK need not commute with it, though on the tested cases the factor
    # was identical to the unscaled one.
    h = math.frexp(float(np.abs(g).max()))[1] // 2
    x = _factor(np.ldexp(g, -2 * h), dim, True)
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

