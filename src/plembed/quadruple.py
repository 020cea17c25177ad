"""Four-point metric spaces: Cayley-Menger determinant, comparison-angle
excesses, the embedding-curvature root solver, and coordinate realization.

The curvature solver scans the determinant of the curvature matrix (cos for
positive curvature, cosh for negative) for sign changes and bisects.  That
determinant vanishes identically at kappa = 0 for every quadruple (the
matrix degenerates to all-ones), so a small neighbourhood of the origin is
excluded from the scan and flatness is decided by the Cayley-Menger
determinant instead.  Every reported root is re-validated by realizing the
quadruple in the two-dimensional model at that curvature.  The solver works
on the distances divided by a power of two near the largest, so its answer
depends on the quadruple's shape and not on its unit.

Both half grids come from one pass of `np.geomspace`'s arithmetic, and one
determinant batch evaluates them.  Every sign change is then bisected in
lockstep, one more batch a round: each round evaluates, per bracket, the
midpoints of its bisection path towards its secant point, at most 8 in its
first round and twice as many in each later one, and walks them while every
side is the predicted one.  That is about five batches and a hundred
midpoints a quadruple, for the roots of a bisection that evaluates one
midpoint at a time.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import cache
from itertools import combinations

import numpy as np

from .errors import DegenerateQuadrupleError, DomainError, in_range
from .spaceform import (
    ANGLE_TOL,
    TRIANGLE_SLACK,
    TWO_PI,
    comparison_angles,
    distances_from_coords,
    realize_distances,
)

_PAIR_ORDER = ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))
_PAIRS_I, _PAIRS_J = np.array(_PAIR_ORDER).T
# Entry [i, j] of a 4x4 matrix of a function of distance is the function of
# _SCATTER[i, j] in (0, d01, d02, d03, d12, d13, d23): the diagonal, then `_PAIR_ORDER`.
_SCATTER = np.array([[0, 1, 2, 3], [1, 0, 4, 5], [2, 4, 0, 6], [3, 5, 6, 0]])


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
        return float(self.distances[~np.eye(4, dtype=bool)].min())


def cayley_menger(q: MetricQuadruple) -> float:
    """Bordered 5x5 Cayley-Menger determinant of the quadruple; DomainError where it overflows."""
    b = np.ones((5, 5))
    b[0, 0] = 0.0
    with np.errstate(over="ignore", invalid="ignore"):
        b[1:, 1:] = q.distances * q.distances
        what = f"Cayley-Menger determinant of distances up to {q.max_distance!r}"
        return in_range(lambda: float(np.linalg.det(b)), what)


def nondegenerate(q: MetricQuadruple) -> bool:
    """True when no point lies metrically between two others (see `_betweenness`)."""
    return not _betweenness(q.distances, BETWEENNESS_MARGIN)


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
    return _certificates(angles[None])[0]


def _certificates(angles: np.ndarray) -> list[EmbeddabilityCertificate]:
    """`s3_embeddability` of each table of a stack (Q, 4, 3) of comparison angles, row i those at vertex i."""
    v = angles[..., 0] + angles[..., 1] + angles[..., 2]
    excess_slack = TWO_PI - v.max(axis=1)
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
    return [*map(EmbeddabilityCertificate, verdict.tolist(), planar.tolist(), excess_slack.tolist(), slacks, witness)]


MATCH_TOL = 1e-8  # realized coordinates reproduce each distance within MATCH_TOL * max d


def realize_quadruple(q: MetricQuadruple, kappa: float, dim: int = 3) -> np.ndarray | None:
    """Coordinates for the quadruple in the dim-dimensional model, or None.

    Success requires the recomputed distances to match within
    ``MATCH_TOL * max d``.  Placement is deterministic (see `realize_distances`).
    """
    if dim not in (2, 3):
        raise DomainError("dim must be 2 or 3")
    d = q.distances
    coords = realize_distances(kappa, d, dim)
    if coords is None or np.max(np.abs(distances_from_coords(kappa, coords) - d)) > MATCH_TOL * q.max_distance:
        return None
    return coords


# ---------------------------------------------------------------------------
# Embedding-curvature solver.


# The Wald tolerances act on the scaled quadruple u, max u in [0.5, 1), and on t = kappa * 4^e (see `wald_curvature`).
FLAT_TOL = 1e-9  # |cayley_menger(u)| <= FLAT_TOL * (max u)^8: try the flat root
BISECT_RTOL = 1e-12  # a bisection stops at a bracket of BISECT_RTOL * (1 + |t|)
RESIDUAL_TOL = 1e-6  # largest scaled curvature determinant of a kept root
MAX_SAMPLES = 1 << 20  # largest `WaldOptions.samples`: about 1 s and 300 MiB a quadruple
_SCALE_RANGE = "are out of range: a curvature search scale overflows or underflows"
_FIRST_PLAN = 8  # midpoints a bracket's first bisection round evaluates at most (see `_bisect`)


@dataclass(frozen=True)
class WaldOptions:
    """Search grid of `wald_curvature`.

    ``samples`` counts grid points, half for each sign of kappa and at least
    8 for each, and is at most `MAX_SAMPLES`.  ``kappa_cap`` bounds the
    hyperbolic search (default 1e4 / min d^2) and must exceed the search
    floor 1e-7 / (max d)^2; the spherical side is always capped at
    (pi / max d)^2.
    """

    samples: int = 512
    kappa_cap: float | None = None

    def __post_init__(self):
        if not isinstance(self.samples, int) or isinstance(self.samples, bool) or self.samples < 1:
            raise DomainError("samples must be a positive integer")
        if self.samples > MAX_SAMPLES:
            raise DomainError(f"samples must be at most {MAX_SAMPLES}")
        if self.kappa_cap is not None and not 0.0 < self.kappa_cap < math.inf:
            raise DomainError("kappa_cap must be positive and finite")


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


def _log_cosh_np(x: np.ndarray) -> np.ndarray:
    return x + np.log1p(np.exp(-2.0 * x)) - math.log(2.0)


def _curvature_det_grid(x: np.ndarray, kappas: np.ndarray) -> np.ndarray:
    """Scaled determinants of the curvature matrices at kappas, every kappa <= 0 before every kappa > 0.

    ``x`` holds 0 and the six distances in `_PAIR_ORDER`.  Zeros and signs
    are preserved; log-cosh (kappa <= 0) or cos (kappa > 0) is taken of x
    only, then scattered into the matrices, which share one determinant call.
    """
    s = np.count_nonzero(kappas <= 0.0)
    mats = np.empty((len(kappas), 4, 4))
    if s:
        lc = _log_cosh_np(np.sqrt(-kappas[:s])[:, None] * x)[:, _SCATTER]
        mats[:s] = np.exp(lc - lc.max(axis=2, keepdims=True))
    if s < len(kappas):
        mats[s:] = np.cos(np.sqrt(kappas[s:])[:, None] * x)[:, _SCATTER]
    # rows may underflow to zero deep in the hyperbolic range; callers treat
    # non-finite or vanishing values explicitly, so silence the LAPACK noise
    with np.errstate(divide="ignore", over="ignore", invalid="ignore", under="ignore"):
        return np.linalg.det(mats)


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


def _grid_roots(f, grids, rtol: float, shadow: float) -> list[tuple[float, float | None]]:
    """Candidate roots of f on increasing grids, in order, with f there (see `_bisect`).

    f maps an array of points to their values; one call evaluates every
    grid, and each round of the bisections makes one more.  A grid point is
    a candidate when its value is zero, and a root is bisected between
    neighbours in one grid whose values differ in sign, unless both lie
    within ``shadow`` of zero.  Only pairs of finite values count, and the
    last point of a grid only as a zero.  ``< 0.0`` is the sign test, so
    -0.0 is a zero and never a negative value.
    """
    g = np.concatenate(grids)
    vals = f(g)
    last = np.zeros(len(g), dtype=bool)
    last[np.cumsum([len(grid) for grid in grids]) - 1] = True
    fa, fb = vals[:-1], vals[1:]
    pair = np.isfinite(fa) & np.isfinite(fb) & ~last[:-1]
    zero = np.append(pair & (fa == 0.0), False) | (last & (vals == 0.0))
    change = pair & (fa != 0.0) & ((fa < 0.0) != (fb < 0.0)) & (np.maximum(np.abs(g[:-1]), np.abs(g[1:])) > shadow)
    i = np.flatnonzero(change)
    roots = dict(zip(i.tolist(), _bisect(f, g[i], g[i + 1], fa[i], fb[i], rtol)))
    candidates = np.flatnonzero(zero | np.append(change, False)).tolist()
    return [roots[k] if k in roots else (float(g[k]), float(vals[k])) for k in candidates]


def _half_grids(cap: float, floor: float, kappa_max: float, half: int) -> np.ndarray:
    """Rows -geomspace(cap, floor, half) and geomspace(floor, kappa_max, half), by `np.geomspace`'s arithmetic."""
    ends = np.array([[cap, floor], [floor, kappa_max]])
    logs = np.log10(ends)
    y = np.arange(half) * ((logs[:, 1] - logs[:, 0]) / (half - 1))[:, None] + logs[:, :1]
    y[:, -1] = logs[:, 1]
    grids = np.power(10.0, y)
    grids[:, [0, -1]] = ends
    grids[0] *= -1.0
    return grids


def wald_curvature(q: MetricQuadruple, opts: WaldOptions | None = None) -> WaldResult:
    """Curvatures kappa whose 2-dimensional model realizes the quadruple.

    The search runs on u = d / 2^e, e from `math.frexp(max d)`, so max u is
    in [0.5, 1), and in t = kappa * 4^e.  Both scalings are exact, so scaling
    the distances by a power of two scales each root by its inverse square,
    bit for bit.  Flatness is decided by |cayley_menger(u)| <= FLAT_TOL * (max u)^8.
    Nonzero candidates come from sign changes of the curvature-matrix
    determinant on a log-spaced grid over t in [-kappa_cap * 4^e, (pi / max u)^2],
    excluding a tiny neighbourhood of zero where that determinant vanishes
    structurally.  Every candidate is kept only if `realize_quadruple`
    succeeds at it in dimension 2: its Gram matrix in that model factors at
    rank 3 (positive semidefinite on the sphere, one timelike direction on
    the hyperboloid), and the coordinates reproduce every distance within
    ``MATCH_TOL * max u``.  DomainError is raised for a ``kappa_cap * 4^e``
    that overflows, a root or search interval end that is not a normal float
    in kappa, and a ``kappa_cap`` at or below the search floor 1e-7 / (max d)^2.
    """
    opts = opts or WaldOptions()
    if not nondegenerate(q):
        raise DegenerateQuadrupleError("quadruple has a metric betweenness")
    e = math.frexp(q.max_distance)[1]
    uq = object.__new__(MetricQuadruple)  # q / 2^e: exact, so still a validated metric
    object.__setattr__(uq, "distances", np.ldexp(q.distances, -e))
    u, umax, umin = uq.distances, uq.max_distance, uq.min_distance
    span = f"distances {q.min_distance!r} to {q.max_distance!r}"

    def unscaled(t: float) -> float:
        return in_range(lambda: math.ldexp(t, -2 * e), span, sys.float_info.min, _SCALE_RANGE)

    kappa_max, floor, scale8 = (math.pi / umax) ** 2, 1e-7 / (umax * umax), umax**8
    cap = 1e4 / (umin * umin) if opts.kappa_cap is None else in_range(
        lambda: math.ldexp(opts.kappa_cap, 2 * e), f"kappa_cap {opts.kappa_cap!r} times 4**{e}"
    )
    top = unscaled(kappa_max)  # first: where it is in range, so is the floor below it
    if cap <= floor:
        floor = math.ldexp(floor, -2 * e)  # in kappa units
        raise DomainError(f"kappa_cap {opts.kappa_cap!r} must exceed the search floor 1e-7 / (max d)^2 = {floor!r}")

    dcm = cayley_menger(uq)
    flat = abs(dcm) <= FLAT_TOL * scale8 and realize_quadruple(uq, 0.0, 2) is not None
    roots = [WaldRoot(0.0, abs(dcm) / scale8)] if flat else []
    grids = _half_grids(cap, floor, kappa_max, max(opts.samples // 2, 8))
    x = np.concatenate(([0.0], u[_PAIRS_I, _PAIRS_J]))
    shadow = 100.0 * floor if flat else 0.0  # where a flat quadruple's candidates shadow its kappa = 0 zero
    for t, value in _grid_roots(lambda ts: _curvature_det_grid(x, ts), grids, BISECT_RTOL, shadow):
        if abs(t) <= shadow or realize_quadruple(uq, t, 2) is None:
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
