"""Four-point metric spaces: Cayley-Menger determinant, comparison-angle
excesses, the embedding-curvature root solver, and coordinate realization.

The determinant of the curvature matrix (cos for positive curvature, cosh
for negative) vanishes identically at kappa = 0: in t = kappa * D^2 it is
t^3 det B(t), B the matrix of (1 - cos(sqrt(t) d)) / t bordered by ones,
with t in the corner.  The solver bisects the sign changes of det B, which
is entire and at t = 0 the Cayley-Menger determinant over 8: flatness is
its root there.  On [-4, (pi / max d)^2 D^2], a few Chebyshev values of
det B are carried onto fine grids by cached matrices; below -4 a geometric
grid evaluates it.  One determinant batch evaluates both, and every sign
change is then bisected in lockstep, one more batch a round (`_bisect`).
Every reported root is re-validated by realizing the quadruple in the
two-dimensional model at that curvature.  The solver works on the
distances divided by D, a power of two near the largest, so its answer
depends on the quadruple's shape and not on its unit.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import cache, cached_property
from itertools import combinations

import numpy as np

from .errors import DegenerateQuadrupleError, DomainError, in_range
from .spaceform import ANGLE_TOL, TRIANGLE_SLACK, comparison_angles, realize_distances, versine

_PAIR_ORDER = ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))
_PAIRS_I, _PAIRS_J = np.array(_PAIR_ORDER).T
# Entry [i, j] of a 4x4 matrix of a function of distance is the function of
# _SCATTER[i, j] in (0, d01, d02, d03, d12, d13, d23): the diagonal, then `_PAIR_ORDER`.
_SCATTER = np.array([[0, 1, 2, 3], [1, 0, 4, 5], [2, 4, 0, 6], [3, 5, 6, 0]])
# Entry [i, j] of the bordered 5x5 matrix [[a, b, b, b, b], [b, M]], M as above, is _BORDERED[i, j] of (a, b, 0, d01, ..., d23)
_BORDERED = np.block([[np.zeros((1, 1), int), np.ones((1, 4), int)], [np.ones((4, 1), int), _SCATTER + 2]])


@cache
def _star_positions(degree: int) -> np.ndarray:
    """(C(degree, 3), 4) positions in (base, *neighbours): 0 and each trio, lexicographic."""
    return np.array([(0, *t) for t in combinations(range(1, degree + 1), 3)], dtype=np.intp).reshape(-1, 4)


@cache
def _block_layout(degree: int) -> tuple[np.ndarray, ...]:
    """Positions in the flattened (k + 1) x (k + 1) block of a base of degree k and its neighbours.

    Pair p is entry (i, j) of the block, i < j, lexicographic, so pairs
    0 to k - 1 join the base 0 to each neighbour and the rest join two
    neighbours, in `_star_positions`' order.  Returns the upper (i, j) and
    lower (j, i) entry of each pair; the pairs (i k, i j, j k) of every
    triple with j apart from i < k; the pairs (0 a, 0 b) of every pair
    (a, b) of neighbours; and the three neighbour pairs of every star.
    """
    size = degree + 1
    i, j = np.triu_indices(size, 1)
    pair = np.zeros((size, size), dtype=np.intp)
    pair[i, j] = pair[j, i] = np.arange(len(i))
    ti, tj, tk = np.array(
        [(x, y, z) for y in range(size) for x, z in combinations([v for v in range(size) if v != y], 2)], dtype=np.intp
    ).reshape(-1, 3).T
    trio = _star_positions(degree)[:, 1:]
    return (
        i * size + j, j * size + i, pair[ti, tk], pair[ti, tj], pair[tj, tk], i[degree:] - 1, j[degree:] - 1,
        pair[trio[:, [0, 0, 1]], trio[:, [1, 2, 2]]] - degree,
    )


# A 4x4 matrix is the block of a base of degree 3, its pairs in `_PAIR_ORDER`: their entries, and the
# pairs (i k, i j, j k) of every triple (symmetric matrices need no other orientation).
_UPPER, _LOWER, _IK, _IJ, _JK = _block_layout(3)[:5]
# The sides of the 12 comparison angles in a flattened 4x4 matrix: [:, i]
# holds those at vertex i, one per pair (j, l) of the other points in index
# order, as (opposite d[j, l], adjacent d[i, j], adjacent d[i, l]).
_APEX = np.array(
    [[(4 * j + l, 4 * i + j, 4 * i + l) for j, l in combinations([x for x in range(4) if x != i], 2)] for i in range(4)]
).transpose(2, 0, 1)

# Conditions on a distance matrix, in the order they are tested.
_DEFECTS = (
    "distances must be finite",
    "off-diagonal distances must be positive",
    "distance matrix must be symmetric",
    "diagonal must be zero",
    "off-diagonal distances must be positive",
    "distances violate the triangle inequality",
)


def _symmetrized(d: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Validate a stack (..., 4, 4) of distance matrices.

    Returns the symmetrized matrices, 0.5 * d + 0.5 * d.T with a zero diagonal,
    and per matrix 1 + the index in `_DEFECTS` of the first failed
    condition, or 0 when it is a metric.  Symmetry, the diagonal and the
    triangle inequality allow a slack of TRIANGLE_SLACK * max d.  The
    conditions run on the 16 entries as rows, across which reductions are
    fast, and are ranked only when some matrix fails one.
    """
    rows = np.ascontiguousarray(d.reshape(-1, 16).T)
    upper, lower = rows[_UPPER], rows[_LOWER]
    with np.errstate(invalid="ignore", over="ignore"):
        pairs = 0.5 * upper + 0.5 * lower  # halves first: the sum of two finite floats may overflow
        scale = np.maximum.reduce(rows)
        slack = TRIANGLE_SLACK * scale
        failed = [
            ~np.logical_and.reduce(np.isfinite(rows)),
            scale <= 0.0,
            np.maximum.reduce(np.abs(upper - lower)) > slack,
            np.maximum.reduce(np.abs(rows[::5])) > slack,
            np.minimum.reduce(pairs) <= 0.0,
        ]
        del rows, upper, lower
        path = pairs[_IJ]
        path += pairs[_JK]
        path += slack
        failed.append(np.logical_or.reduce(pairs[_IK] > path))
    del path
    sym = np.vstack([np.zeros_like(scale), pairs])[_SCATTER.reshape(-1)].T.reshape(d.shape)
    defect = np.logical_or.reduce(failed).astype(np.intp)
    if defect.any():
        defect[defect > 0] = np.argmax(failed, axis=0)[defect > 0] + 1
    return sym, defect.reshape(d.shape[:-2])


BETWEENNESS_MARGIN = 1e-12  # relative margin of `_betweenness`


def _betweenness(d: np.ndarray, margin: float) -> np.ndarray:
    """Per matrix of a symmetric stack (..., 4, 4): does a point lie metrically between two others?

    Betweenness is tested with a relative margin of ``margin * max d``, on
    halved sides, so the sum of two sides cannot overflow.  The diagonal is
    taken to be zero.
    """
    h = 0.5 * d.reshape(-1, 16).T[_UPPER]  # the six distances as rows
    m = margin * np.maximum(np.maximum.reduce(h), 0.0)
    with np.errstate(invalid="ignore"):  # inf - inf where a distance is infinite
        path = h[_IJ]
        path += h[_JK]
        path -= m
        return np.logical_or.reduce(h[_IK] >= path).reshape(d.shape[:-2])


@dataclass(frozen=True)
class MetricQuadruple:
    """Symmetric 4x4 distance matrix of a four-point metric space."""

    distances: np.ndarray

    def __post_init__(self):
        d = np.array(self.distances, dtype=float)
        if d.shape != (4, 4):
            raise DomainError("expected a 4x4 distance matrix")
        d, defect = _symmetrized(d)
        if defect:
            raise DomainError(_DEFECTS[defect - 1])
        d.setflags(write=False)
        object.__setattr__(self, "distances", d)

    @classmethod
    def from_pairwise(cls, d12, d13, d14, d23, d24, d34) -> "MetricQuadruple":
        m = np.zeros((4, 4))
        for (i, j), v in zip(_PAIR_ORDER, (d12, d13, d14, d23, d24, d34)):
            m[i, j] = m[j, i] = v
        return cls(m)

    def pairwise(self) -> tuple[float, ...]:
        """The six distances in the order d12, d13, d14, d23, d24, d34."""
        return tuple(float(self.distances[i, j]) for i, j in _PAIR_ORDER)

    @property
    def max_distance(self) -> float:
        return float(self.distances.max())

    @property
    def min_distance(self) -> float:
        return float(self.distances[_PAIRS_I, _PAIRS_J].min())

    @cached_property
    def _between(self) -> bool:  # the distances are read-only, so `_betweenness` runs once a quadruple
        return bool(_betweenness(self.distances, BETWEENNESS_MARGIN))


def cayley_menger(q: MetricQuadruple) -> float:
    """Bordered 5x5 Cayley-Menger determinant of the quadruple; DomainError where it over- or underflows.

    It underflowed where it is 0 or subnormal while that of u = d / 2^e, e from
    `math.frexp(max d)`, is not 0 but times 2^(6e) is 0 or subnormal too.
    """
    x, e = q.distances[_PAIRS_I, _PAIRS_J], math.frexp(q.max_distance)[1]
    det = lambda s: float(np.linalg.det(np.concatenate(([0.0, 1.0, 0.0], s * s))[_BORDERED]))  # s: the six sides
    what = f"Cayley-Menger determinant of distances up to {q.max_distance!r}"
    with np.errstate(over="ignore", invalid="ignore"):
        cm = in_range(lambda: det(x), what)
    if abs(cm) < sys.float_info.min and (u := det(np.ldexp(x, -e))) != 0.0:
        in_range(lambda: math.ldexp(u, 6 * e), what, sys.float_info.min)
    return cm


def nondegenerate(q: MetricQuadruple) -> bool:
    """True when no point lies metrically between two others (see `_betweenness`)."""
    return not q._between


def _angle_table(d: np.ndarray, kappa, vertices: int = 4) -> tuple[np.ndarray, tuple[int, str] | None]:
    """The comparison angles (..., vertices, 3) at the first ``vertices`` points of a stack (..., 4, 4).

    Row i holds the angles at vertex i, pairs of the other points in index
    order; ``kappa`` broadcasts against the table.  The second value is the
    first failure, as `comparison_angles` gives it.
    """
    flat = d.reshape(*d.shape[:-2], 16)
    return comparison_angles(kappa, *(flat[..., sides[:vertices]] for sides in _APEX))


@dataclass(frozen=True)
class EmbeddabilityCertificate:
    """Slack-certified verdict for embedding a quadruple in the 3-model.

    ``excess_slack`` is 2*pi - A_kappa(Q); ``angle_slacks`` holds, per
    vertex, the three triangle-inequality slacks of its comparison angles.
    The verdict is true iff every slack is >= -tolerance; ``witness`` names
    the first violated inequality otherwise.
    """

    verdict: bool
    planar: bool
    excess_slack: float
    angle_slacks: np.ndarray
    witness: tuple | None

    def to_dict(self) -> dict:
        return {
            "verdict": self.verdict,
            "planar": self.planar,
            "excess_slack": self.excess_slack,
            "angle_slacks": self.angle_slacks.tolist(),
            "witness": list(self.witness) if self.witness is not None else None,
        }


def s3_embeddability(q: MetricQuadruple, kappa: float) -> EmbeddabilityCertificate:
    """Embeddability of the quadruple in the 3-dimensional curvature-kappa model.

    Verdict: the maximal vertex excess A_kappa(Q) is at most 2*pi and at
    every vertex the three comparison angles satisfy the triangle
    inequalities.  ``planar`` flags the boundary case where some vertex has
    one angle equal (within ``ANGLE_TOL`` radians) to the sum of the other
    two, in which case the embedding lies in the 2-dimensional model.
    """
    if not nondegenerate(q):
        raise DegenerateQuadrupleError("quadruple has a metric betweenness")
    angles, failure = _angle_table(q.distances, kappa)
    if failure:
        raise DomainError(failure[1])
    return EmbeddabilityCertificate(*(column[0] for column in _certificate_columns(angles[None])))


def _certificate_columns(angles: np.ndarray) -> tuple[list, list, list, np.ndarray, list]:
    """`s3_embeddability`'s fields for each table of a stack (Q, 4, 3) of angles (row i: at vertex i), as columns."""
    v = angles[..., 0] + angles[..., 1] + angles[..., 2]
    excess_slack = math.tau - v.max(axis=1)
    # row i: a2 + a3 - a1, a1 + a3 - a2, a1 + a2 - a3 of the angles at vertex i
    slacks = angles[..., [1, 0, 0]] + angles[..., [2, 2, 1]] - angles
    bad = slacks.min(axis=2) < -ANGLE_TOL
    excess = excess_slack < -ANGLE_TOL
    verdict = ~(excess | bad.any(axis=1))
    planar = verdict & (np.abs(slacks) <= ANGLE_TOL).any(axis=(1, 2))
    witness = [None] * len(angles)
    for q in np.flatnonzero(~verdict).tolist():
        i = int(bad[q].argmax())
        witness[q] = ("excess", int(v[q].argmax())) if excess[q] else ("angle", i, int(slacks[q, i].argmin()))
    return verdict.tolist(), planar.tolist(), excess_slack.tolist(), slacks, witness


def realize_quadruple(q: MetricQuadruple, kappa: float, dim: int = 3) -> np.ndarray | None:
    """`realize_distances` of the quadruple in dimension 2 or 3: coordinates, or None.

    The coordinates reproduce every distance within ``spaceform.MATCH_TOL * max d``.
    """
    if dim not in (2, 3):
        raise DomainError("dim must be 2 or 3")
    return realize_distances(kappa, q.distances, dim)


# ---------------------------------------------------------------------------
# Embedding-curvature solver.


# The Wald tolerances act on the scaled quadruple u, max u in [0.5, 1), and on t = kappa * 4^e (see `wald_curvature`).
FLAT_TOL = 1e-9  # |8 g(0)| = |cayley_menger(u)| <= FLAT_TOL * (max u)^8: try the flat root, any root within FLAT_TOL of 0
BISECT_RTOL = 1e-12  # a bisection stops at a bracket of BISECT_RTOL * (1 + |t|)
RESIDUAL_TOL = 1e-6  # largest |g| of a kept root (scaled below t = -4, see `_curvature_det_grid`)
_SCALE_RANGE = "are out of range: a curvature search scale overflows or underflows"
_FIRST_PLAN = 8  # midpoints a bracket's first bisection round evaluates at most (see `_bisect`)


@dataclass(frozen=True)
class WaldRoot:
    kappa: float
    residual: float


@dataclass(frozen=True)
class WaldResult:
    """Validated curvature roots and their classification.

    ``classification`` is one of flat, spherical, hyperbolic, multiple, or
    none-found.
    """

    roots: tuple[WaldRoot, ...]
    classification: str
    search_interval: tuple[float, float]

    def best_root(self) -> WaldRoot | None:
        if self.classification == "flat":
            return next(r for r in self.roots if r.kappa == 0.0)
        return self.roots[0] if self.roots else None

    def to_dict(self) -> dict:
        return {
            "roots": [{"kappa": r.kappa, "residual": r.residual} for r in self.roots],
            "classification": self.classification,
            "search_interval": list(self.search_interval),
        }


_SEAM = -4.0  # the Chebyshev panels cover t from here to (pi / max u)^2, the geometric tail t below it
_TAIL = 256  # points of the geometric grid from -cap to `_SEAM`; all but the seam, which the panels hold, are evaluated
# Chebyshev and fine-grid points of the panels [-4, 0] and [0, (pi / max u)^2]; equispaced fine grids of an
# odd number of steps have no inner point at the middle or quarters, such as t = -1, where seeded roots lie
_PANELS = ((16, 512), (24, 1536))


@cache
def _proxy(nodes: int, fine: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Chebyshev points x of [-1, 1], increasing, ``fine`` equispaced points y of [-1, 1], and the
    (fine, nodes) matrix that carries values at x to their Chebyshev interpolant at y."""
    k = np.arange(nodes)
    x = -np.cos(np.pi * k / (nodes - 1))
    y = np.linspace(-1.0, 1.0, fine)
    m = np.cos(np.arccos(y)[:, None] * k) @ np.linalg.inv(np.cos(np.arccos(x)[:, None] * k))
    m[[0, -1]] = np.eye(nodes)[[0, -1]]  # the ends, on the seams, carry their values exactly
    x.flags.writeable = y.flags.writeable = m.flags.writeable = False  # shared by every call
    return x, y, m


def _curvature_det_grid(x: np.ndarray, ts: np.ndarray) -> np.ndarray:
    """g(t) = det B(t) at each t, times a positive factor below `_SEAM`.

    B(t) = [[t, 1], [1, E(t)]], where E(t) = (1 - cos(sqrt(t) u)) / t of each distance u, the
    curvature-matrix determinant divided by t^3, is `versine`: 2 sin^2(h) / t for t > 0 and
    2 sinh^2(h) / -t for t < 0, with h = sqrt(|t|) u / 2, and u^2 / 2 at t = 0.  ``x`` holds 0,
    E's diagonal, and the six distances in `_PAIR_ORDER`.  Below the seam, where sinh^2 overflows,
    B is scaled to S B S, S = diag(1 / sqrt(-t), sqrt(-t / 2) e^-m, ...) with m the largest h, so
    that no entry exceeds 1.  One determinant call evaluates every t.
    """
    v = np.empty((len(ts), 9))  # B[0, 0], B[0, 1:], then E of each entry of x
    v[:, 0] = ts
    v[:, 1] = 1.0
    tail = ts < _SEAM
    v[~tail, 2:] = versine(ts[~tail, None], x)
    if tail.any():
        s = np.sqrt(-ts[tail, None])
        h, m = s * (0.5 * x), s * (0.5 * x.max())
        v[tail] = np.hstack((-np.ones_like(s), math.sqrt(0.5) * np.exp(-m), (0.5 * (np.exp(h - m) - np.exp(-h - m))) ** 2))
    with np.errstate(divide="ignore"):  # deep in the tail, entries underflow and some determinants vanish
        return np.linalg.det(v[:, _BORDERED])


def _bisect(f, a, b, fa, fb, rtol: float) -> list[tuple[float, float | None]]:
    """Bisect the sign changes of f on the brackets [a[i], b[i]] in lockstep; f maps an array of points to their values.

    A round makes one call of f, on the midpoints of each live bracket's
    bisection path towards its secant point, computed as the walk computes
    them, down to the rtol stop, the steps the bracket has left or its plan
    depth: `_FIRST_PLAN` in its first round, doubling each round.  The walk
    takes the steps of a bisection that evaluates one midpoint at a time and
    ends the bracket's round at the first side that differs from the predicted
    one.  Returns per bracket the root and f there, or None in place of f when
    the 200 steps run out.
    """
    out: list = [None] * len(a)
    live = [(i, *map(float, bracket), 200, _FIRST_PLAN) for i, bracket in enumerate(zip(a, b, fa, fb))]
    while live:
        points, plans = [], []
        for i, a, b, fa, fb, left, depth in live:
            r = b - fb * (b - a) / (fb - fa) if fb != fa else b
            x, y = a, b
            start = len(points)
            for _ in range(min(left, depth)):
                mid = 0.5 * (x + y)
                points.append(mid)
                if y - x <= rtol * (1.0 + abs(mid)):
                    break
                x, y = (x, mid) if r < mid else (mid, y)
            plans.append((start, r, len(points)))
        vals = f(np.array(points)).tolist()
        nxt = []
        for (i, a, b, fa, fb, left, depth), (k, r, end) in zip(live, plans):
            while k < end:
                mid, fm = points[k], vals[k]
                if b - a <= rtol * (1.0 + abs(mid)) or fm == 0.0:
                    out[i] = (mid, fm)
                    break
                left -= 1
                below = (fa < 0.0) != (fm < 0.0)  # the root lies below mid
                a, b, fa, fb = (a, mid, fa, fm) if below else (mid, b, fm, fb)
                k = k + 1 if below == (r < mid) else end
            else:
                if left:
                    nxt.append((i, a, b, fa, fb, left, 2 * depth))
                else:
                    out[i] = (0.5 * (a + b), None)
        live = nxt
    return out


def _grid_roots(f, grid: np.ndarray, vals: np.ndarray, rtol: float) -> list[tuple[float, float | None]]:
    """Roots of f bisected between neighbours of an increasing grid whose values ``vals`` differ in sign, in order.

    f maps an array of points to their values (see `_bisect`).  ``< 0.0`` is
    the sign test, so a zero, -0.0 too, counts as positive.  A point in a run
    of zeros, where g underflows deep in the tail, brackets nothing.
    """
    neg, zero = vals < 0.0, vals == 0.0
    run = zero & (np.append(False, zero[:-1]) | np.append(zero[1:], False))
    i = np.flatnonzero((neg[:-1] != neg[1:]) & ~run[:-1] & ~run[1:])
    return _bisect(f, grid[i], grid[i + 1], vals[i], vals[i + 1], rtol)


def wald_curvature(q: MetricQuadruple, kappa_cap: float | None = None) -> WaldResult:
    """Curvatures kappa whose 2-dimensional model realizes the quadruple.

    The search runs on u = d / 2^e, e from `math.frexp(max d)`, so max u is
    in [0.5, 1), and in t = kappa * 4^e.  Both scalings are exact, so scaling
    the distances by a power of two scales each root by its inverse square,
    bit for bit.  Candidates are the roots of g = det B (see
    `_curvature_det_grid`) over t in [-kappa_cap * 4^e, (pi / max u)^2]:
    sign changes on the tail grid below -4, and of the Chebyshev
    interpolants above it on their fine grids, bisected on g.  The quadruple
    is flat when |8 g(0)| = |cayley_menger(u)| <= FLAT_TOL * (max u)^8 and it
    realizes at t = 0; a root within FLAT_TOL of 0 is then that flat root.
    Every other candidate is kept only if `realize_quadruple` succeeds at it
    in dimension 2 (the Gram matrix of the points' parts orthogonal to the
    pole factors at rank 2, and the coordinates reproduce every distance
    within ``spaceform.MATCH_TOL * max u``) and
    |g| <= RESIDUAL_TOL there.  DomainError is raised for a ``kappa_cap *
    4^e`` that overflows, and for a root or search interval end that is not a
    normal float in kappa.
    """
    if kappa_cap is not None and not 0.0 < kappa_cap < math.inf:
        raise DomainError("kappa_cap must be positive and finite")
    if not nondegenerate(q):
        raise DegenerateQuadrupleError("quadruple has a metric betweenness")
    e = math.frexp(q.max_distance)[1]
    uq = object.__new__(MetricQuadruple)  # q / 2^e: exact, so still a validated metric
    object.__setattr__(uq, "distances", np.ldexp(q.distances, -e))
    u, umax, umin = uq.distances, uq.max_distance, uq.min_distance
    span = f"distances {q.min_distance!r} to {q.max_distance!r}"

    def unscaled(t: float) -> float:
        return in_range(lambda: math.ldexp(t, -2 * e), span, sys.float_info.min, _SCALE_RANGE)

    kappa_max, scale8 = (math.pi / umax) ** 2, umax**8
    cap = 1e4 / (umin * umin) if kappa_cap is None else in_range(
        lambda: math.ldexp(kappa_cap, 2 * e), f"kappa_cap {kappa_cap!r} times 4**{e}"
    )
    top = unscaled(kappa_max)
    tail = _SEAM * (cap / -_SEAM) ** (np.arange(_TAIL - 1, 0, -1) / (_TAIL - 1)) if cap > -_SEAM else np.empty(0)
    lo = max(-cap, _SEAM)
    (x1, y1, m1), (x2, y2, m2) = (_proxy(*panel) for panel in _PANELS)
    x = np.concatenate(([0.0], u[_PAIRS_I, _PAIRS_J]))
    g = _curvature_det_grid(x, np.concatenate((tail, 0.5 * lo * (1.0 - x1), 0.5 * kappa_max * (1.0 + x2[1:]))))
    g1, g2 = g[len(tail) : len(tail) + len(x1)], g[len(tail) + len(x1) - 1 :]  # both hold g(0)
    grid = np.concatenate((tail, 0.5 * lo * (1.0 - y1), 0.5 * kappa_max * (1.0 + y2[1:])))
    vals = np.concatenate((g[: len(tail)], m1 @ g1, (m2 @ g2)[1:]))

    cm = 8.0 * float(g1[-1])  # cayley_menger(u)
    flat = abs(cm) <= FLAT_TOL * scale8 and realize_quadruple(uq, 0.0, 2) is not None
    roots = [WaldRoot(0.0, abs(cm) / scale8)] if flat else []
    for t, value in _grid_roots(lambda ts: _curvature_det_grid(x, ts), grid, vals, BISECT_RTOL):
        if flat and abs(t) <= FLAT_TOL or realize_quadruple(uq, t, 2) is None:
            continue
        if value is None:  # the bisection ran out of steps
            value = float(_curvature_det_grid(x, np.array([t]))[0])
        if abs(value) <= RESIDUAL_TOL:
            roots.append(WaldRoot(unscaled(t), abs(value)))

    roots.sort(key=lambda r: r.kappa)
    # flatness is a case split, not one root among many: a planar quadruple
    # may also sit on some sphere, yet its curvature is defined to be zero
    classification = (
        "flat" if flat else "none-found" if not roots else "multiple" if len(roots) > 1
        else "spherical" if roots[0].kappa > 0.0 else "hyperbolic"
    )
    return WaldResult(tuple(roots), classification, (unscaled(-cap), top))
