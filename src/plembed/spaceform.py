"""Trigonometry of the constant-curvature model spaces.

The sign of the curvature parameter picks the model geometry: kappa > 0 is
the sphere of radius 1/sqrt(kappa) (vectors in R^3 for the 2-dimensional
model), kappa = 0 is the Euclidean plane/space, and kappa < 0 is the
hyperboloid model of hyperbolic space scaled by 1/sqrt(-kappa) (vectors with
the time coordinate first, Minkowski form -x0*y0 + x1*y1 + ...).

Everything is built from one function of distance, the versine form
E(x) = (1 - cos(sqrt(kappa) x)) / kappa (`versine`): entire in kappa, it is
x^2 / 2 at kappa = 0 and carries no 1/kappa, so nothing cancels as kappa
-> 0 and no sign of kappa needs a formula of its own.  Comparison angles
are the half-angle form of the law of haversines in it, and realization
factors the Gram matrix, written in it, of the points' parts orthogonal to
a pole.  Both run on the distances divided by a power of two D and on
kappa D^2 (`_scaled`), so that they depend on the shape of a configuration
and not on its unit.

Positive curvature imposes two admissibility constraints on a triple of
distances: every side must satisfy sqrt(kappa)*d <= pi, and the perimeter
must not exceed 2*pi/sqrt(kappa).  See the README for the discussion.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import TRIANGLE_SLACK, DomainError

# Slack (radians) accepted on comparison-angle inequalities before declaring
# a violation; keeps exactly-flat boundary configurations feasible.
ANGLE_TOL = 1e-9

# Gram eigenvalues below RANK_TOL times the largest count as zero.
RANK_TOL = 1e-9

MATCH_TOL = 1e-8  # realized coordinates reproduce each distance within MATCH_TOL * max d

_SIDE_LIMIT = math.pi * (1.0 + TRIANGLE_SLACK)  # largest sqrt(kappa) * side on the sphere
_PERIMETER_LIMIT = math.tau * (1.0 + TRIANGLE_SLACK)  # largest sqrt(kappa) * perimeter on the sphere
_FLAT = 2.0**-60  # the least |kappa D^2| of the trigonometry (see `_scaled`)
_LN4 = math.log(4.0)

# Why an angle is undefined, by code - 1, in the order each triple is tested.
_ANGLE_ERRORS = (
    "curvature must be finite",
    "sides must be finite, adjacent sides positive and opposite nonnegative",
    "sides violate the triangle inequality",
    "side exceeds pi/sqrt(kappa) on the sphere",
    "perimeter exceeds 2*pi/sqrt(kappa)",
)


def versine(t, x, damped: bool = False):
    """E = (1 - cos(sqrt(t) x)) / t of each distance x, at a curvature t of either sign.

    It is 2 sin^2(h) / t for t > 0 and 2 sinh^2(h) / -t for t < 0, with h =
    sqrt(|t|) x / 2, and x^2 / 2 at t = 0, which |t| = 1e-300 gives to
    rounding for x above 1e-4 (below, sin^2(h) is subnormal).  With
    ``damped``, E e^(-2h) for t < 0, which is at most 1 / (2|t|):
    sinh(h) e^(-h) = -expm1(-2h) / 2.
    """
    a = np.maximum(np.abs(t), 1e-300)
    h = np.sqrt(a) * (0.5 * x)
    return 2.0 * np.where(t > 0.0, np.sin(h), -0.5 * np.expm1(-2.0 * h) if damped else np.sinh(h)) ** 2 / a


def _scaled(kappa, scale):
    """e of the unit D = 2^e of the trigonometry, and the curvature t = kappa D^2 in it.

    D / 2 < the largest distance ``scale``, or the curvature radius
    1 / sqrt(|kappa|) where that is shorter, <= D, so that |t| <= 4.  A |t|
    below _FLAT is taken as +-_FLAT (+ at 0): that moves `versine` by under
    1e-18, relative, at distances up to 3 D, and keeps its sin^2 normal down
    to 1e-144 D, where the 1e-300 of `versine` would underflow below 1e-4 D.
    """
    e = np.frexp(np.minimum(scale, 1.0 / np.sqrt(np.abs(kappa))))[1]  # at kappa = 0, 1 / 0 = inf (callers silence it)
    t = np.ldexp(kappa, 2 * e)
    return e, np.copysign(np.maximum(np.abs(t), _FLAT), t)


def comparison_angles(kappa, opposite, b, c) -> tuple[np.ndarray, tuple[int, str] | None]:
    """`comparison_angle` of every element of the broadcast arrays, and the first failure.

    The angle g is the half-angle form of the law of haversines,
    tan^2(g / 2) = sqrt(E(o + c - b) E(o + b - c) / (E(o + b + c) E(b + c - o))),
    in `versine` on the sides over the unit D and at t = kappa D^2 of `_scaled`;
    for t < 0 each E is damped by e^(-r x), r = sqrt(-t), and the ratio by
    e^(r (o - b - c)) in return, so nothing overflows.  The four sums are
    formed in Kahan's order, in which every difference that cancels is
    exact, and there is no arccos: needle-like and near-straight triangles
    keep their precision.  Returns the angles (nan where one is undefined) and
    None, or the flat index in C order of the first undefined angle and its
    `DomainError` text.
    """
    shape = np.broadcast(kappa, opposite, b, c).shape
    table = np.empty((4, *shape))
    table[0], table[1], table[2], table[3] = kappa, opposite, b, c
    k, o, b, c = table.reshape(4, -1)
    code = np.zeros(o.size, np.intp)  # 1 + the index in _ANGLE_ERRORS, or 0
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
        rt = np.sqrt(k)  # nan for kappa < 0, where the tests below are false
        code[live & (rt * (ob + c) > _PERIMETER_LIMIT)] = 5
        code[live & (rt * scale > _SIDE_LIMIT)] = 4
        e, t = _scaled(k, scale)
        uo, hi, lo = np.ldexp(o, -e), np.ldexp(np.maximum(b, c), -e), np.ldexp(np.minimum(b, c), -e)
        d = hi - lo
        x = np.stack((uo + d, np.where(lo >= uo, uo - d, lo - (hi - uo)), hi + (lo + uo), (hi - uo) + lo))
        q = np.sqrt(np.sqrt(versine(t, x, damped=True)))
        half = np.arctan2(q[0] * q[1] * np.exp(-0.5 * np.sqrt(np.maximum(-t, 0.0)) * x[3]), q[2] * q[3])
        angle = np.where(live, 2.0 * half, np.where(o >= bc, math.pi, 0.0))
        angle[code > 0] = math.nan
    failed = np.flatnonzero(code)
    if not failed.size:
        return angle.reshape(shape), None
    i = int(failed[0])
    return angle.reshape(shape), (i, _ANGLE_ERRORS[code[i] - 1])


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


def _factor(gram: np.ndarray, rank: int) -> np.ndarray | None:
    """Canonical coordinates Y of a Gram matrix, Y @ Y.T ~= gram, with ``rank`` columns; or None.

    None when an eigenvalue is below -RANK_TOL times the largest in absolute
    value, more than ``rank`` lie above it, or eigh does not converge.  The
    coordinates are rotated so that row i is zero beyond coordinate i and the
    first nonzero entry of each column is positive, then padded with zero
    columns up to ``rank``.
    """
    g = 0.5 * (gram + gram.T)
    try:
        w, v = np.linalg.eigh(g)
    except np.linalg.LinAlgError:
        return None  # the eigensolver did not converge
    tol = RANK_TOL * max(abs(w[0]), abs(w[-1]), 1e-300)
    if not w[0] >= -tol:
        return None  # not positive semidefinite
    if len(w) > rank and w[-rank - 1] > tol:
        return None  # more than ``rank`` positive eigenvalues, which eigh sorts increasing
    y = np.linalg.qr((v[:, ::-1][:, :rank] * np.sqrt(np.maximum(w[::-1][:rank], 0.0))).T, mode="r").T
    first = (np.abs(y) > 0.0).argmax(axis=0)
    y = np.where(y[first, np.arange(y.shape[1])] < 0.0, -y, y)
    return y if y.shape[1] == rank else np.column_stack([y, np.zeros((len(g), rank - y.shape[1]))])


def realize_distances(kappa: float, dmat: np.ndarray, dim: int) -> np.ndarray | None:
    """Coordinates reproducing the distance matrix in the dim-dimensional model.

    Failure to embed is a value (None), not an error; so is an eigensolver
    that does not converge, coordinates that miss a distance by more than
    MATCH_TOL times the largest, a hyperbolic configuration whose
    coordinates leave the float range, and on the sphere a side beyond
    pi/sqrt(kappa) (a triangle of perimeter beyond 2*pi/sqrt(kappa) has no
    positive semidefinite Gram matrix).  A non-finite kappa, or a matrix
    that is not square, has fewer than two points, or has an entry that is
    not finite and nonnegative, raises DomainError.
    Coordinates are (n, dim) for kappa = 0, else (n, dim + 1) model vectors,
    the pole's axis first, for any number n of points.  Point 0 sits at the
    origin of the plane and at the pole (1/sqrt(kappa), 0, ...) of the
    sphere; the hyperboloid's pole is the points' centroid.  Every model is
    realized by one factorization, and placement is canonical: in the plane
    point i lies in the span of the first i axes, on the sphere in that of
    the first i + 1, and in the space coordinates that follow the
    hyperboloid's pole axis, in that of the first i + 1.

    On the distances u over the unit D, at t = kappa D^2 of `_scaled`, with
    E = `versine`: the pole c = sum w_i x_i is point 0 in the plane and on
    the sphere, and on the hyperboloid the points' centroid, which is always
    timelike, so that points far from point 0 keep their precision.  With
    m = E w and q = 1 - t w.m, the parts y_i of the points orthogonal to c
    have the Gram matrix Z = (m_i + m_j - w.m - t m_i m_j) / q - E_ij, which
    has no 1/t, and the parts along c put x_i at (1 - t m_i) / sqrt(|t| q)
    on the pole's axis.  For t < 0, E, m and q are taken times the power of
    four p = 4^-h nearest above e^(-r max u), r = sqrt(-t), from the damped
    `versine`, so that nothing overflows and the coordinates are scaled back
    by 2^h exactly.  Z is factored at rank ``dim`` after scaling row and
    column i by a power of two g_i with g_i g_j above the terms that Z_ij is
    formed from, so that the rounding of every entry is at most an ulp of
    the scaled matrix: rows far out on the hyperboloid keep their digits,
    and rows near the pole, which cancel, are not magnified.  Each Z_ij -
    y_i.y_j is the error dE of the E_ij that the coordinates rebuild; it is
    one of at most a = MATCH_TOL max u in the distance when |dE| <=
    a (S + a / 2), S^2 = E (2 - t E): exactly so in the plane, and to second
    order in the curved models.
    """
    if not -math.inf < kappa < math.inf:
        raise DomainError("curvature must be finite")
    d = np.asarray(dmat, dtype=float)
    if d.ndim != 2 or d.shape[0] != d.shape[1] or len(d) < 2:
        raise DomainError("expected a square distance matrix of at least two points")
    if not ((d >= 0.0) & (d < math.inf)).all():
        raise DomainError("distances must be finite and nonnegative")
    scale = float(d.max())
    if kappa > 0.0 and math.sqrt(kappa) * scale > _SIDE_LIMIT:
        return None
    k = int(kappa >= 0.0)  # 1 when point 0 is the pole, whose row of Z is zero
    w = np.eye(len(d))[0] if k else np.full(len(d), 1.0 / len(d))
    with np.errstate(divide="ignore", over="ignore", invalid="ignore", under="ignore"):
        e, t = _scaled(kappa, scale)
        e, t = int(e), float(t)
        u = np.ldexp(d, -e)
        r = math.sqrt(max(-t, 0.0))
        h = int(r * float(u.max()) / _LN4)  # p = 4^-h is e^(-r max u) within a factor 4; 1 for t >= 0
        p = math.ldexp(1.0, -2 * h)
        ver = versine(t, u, damped=True) * np.exp(r * u - h * _LN4)  # E p
        m = ver @ w
        wm = float(w @ m)
        q = p - t * wm
        mm = m[:, None] * m
        z = ((m[:, None] + m - wm) * p - t * mm) / q - ver
        g = np.ldexp(1.0, np.frexp(np.sqrt((((m[:, None] + m + wm) * p + abs(t) * mm) / q + ver).max(axis=1)))[1])
        factor = _factor(z[k:, k:] / (g[k:, None] * g[k:]), dim)
        if factor is None:
            return None
        y = np.zeros((len(d), dim))
        y[k:] = factor * g[k:, None]
        err = np.abs(z - y @ y.T)
        np.fill_diagonal(err, 0.0)
        a = MATCH_TOL * math.ldexp(scale, -e)
        if not (err <= a * (np.sqrt(np.maximum(ver * (2.0 * p - t * ver), 0.0)) + 0.5 * a * p)).all():
            return None
        y = np.ldexp(y, e + h)
        if kappa == 0.0:
            return y
        x = np.empty((len(d), dim + 1))
        x[:, 0] = np.ldexp((p - t * m) / (math.sqrt(abs(kappa)) * math.sqrt(q)), h)
        x[:, 1:] = y
    return x if np.isfinite(x).all() else None  # beyond the float range, far out on the hyperboloid
