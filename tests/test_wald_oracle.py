"""The Wald root search against an independent oracle.

`oracle_roots` finds roots on its own: it evaluates the classical curvature
determinant det[cos(sqrt(t) u)] (cosh, each row scaled by its largest
entry, for t < 0), which shares no code with the solver, on a dense t
grid, runs `scipy.optimize.brentq` on each sign change, and keeps the roots
that pass `is_model_root`, a rank and signature test of the model Gram
matrix.  Every root the solver reports must be one of the oracle's, and
every oracle root must be reported, but on the inputs listed as known
disagreements.  The identity f = t^3 g behind the solver, roots on the
panel seam and on grid points, the lockstep bisection against a bisection
that evaluates one midpoint at a time and its call budgets, and the exact
scaling of roots by powers of two are tested too.  The sweeps check that no
quadruple and no cap makes the solver raise.
"""

import math
import sys

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq

from plembed import DomainError, MetricQuadruple, nondegenerate, quadruple, wald_curvature
from plembed.quadruple import FLAT_TOL, WaldRoot, _bisect, _curvature_det_grid, _grid_roots, cayley_menger

SURFACE_KAPPAS = (-4.0, -1.0, 0.0, 1.0, 4.0)


def scalar_bisect(f, a, b, fa, fb, rtol):
    for _ in range(200):
        mid = 0.5 * (a + b)
        if b - a <= rtol * (1.0 + abs(mid)):
            return mid
        fm = f(mid)
        if fm == 0.0:
            return mid
        if (fa < 0.0) != (fm < 0.0):
            b, fb = mid, fm
        else:
            a, fa = mid, fm
    return 0.5 * (a + b)


def scalar_minors_ok(d, kappa, tol=1e-9):
    m = np.cos(math.sqrt(kappa) * d)
    for idx in ((0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)):
        if np.linalg.det(m[np.ix_(idx, idx)]) < -tol:
            return False
    return True


# ---------------------------------------------------------------------------
# Seeded quadruples.


def _quadruple(d):
    """A validated non-degenerate quadruple of the distance matrix d, or None."""
    np.fill_diagonal(d, 0.0)
    try:
        q = MetricQuadruple(0.5 * (d + d.T))
    except DomainError:
        return None
    return q if nondegenerate(q) else None


def surface_distances(kappa, r, t):
    """Distances of points in geodesic polar coordinates (r, t) about a pole of the kappa surface.

    r is in units of the curvature radius (plain lengths at kappa = 0).
    """
    if kappa == 0.0:
        p = np.column_stack([r * np.cos(t), r * np.sin(t)])
        return np.linalg.norm(p[:, None] - p[None], axis=-1)
    if kappa > 0.0:
        p = np.column_stack([np.cos(r), np.sin(r) * np.cos(t), np.sin(r) * np.sin(t)])
        return np.arccos(np.clip(p @ p.T, -1.0, 1.0)) / math.sqrt(kappa)
    p = np.column_stack([np.cosh(r), np.sinh(r) * np.cos(t), np.sinh(r) * np.sin(t)])
    inner = np.outer(p[:, 0], p[:, 0]) - p[:, 1:] @ p[:, 1:].T
    return np.arccosh(np.maximum(inner, 1.0)) / math.sqrt(-kappa)


def surface_quadruple(kappa, rng, radius=1.0):
    """Four points within `radius` of a pole of the kappa surface."""
    return _quadruple(surface_distances(kappa, rng.uniform(0.0, radius, 4), rng.uniform(0.0, 2.0 * math.pi, 4)))


def perturbed_quadruple(kappa, polar, noise, scale):
    """Points on the kappa surface, each of the six distances times its own noise factor, all times scale."""
    r, t = np.array(polar).T
    d = surface_distances(kappa, r, t)
    for (i, j), f in zip(((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)), noise):
        d[i, j] *= f
        d[j, i] *= f
    return _quadruple(d * scale)


def quadruples(scale):
    """Metrics near a model surface, and with 10 % noise mostly off every one."""
    return st.builds(
        perturbed_quadruple,
        st.sampled_from(SURFACE_KAPPAS),
        st.lists(st.tuples(st.floats(0.05, 2.5), st.floats(0.0, 2.0 * math.pi)), min_size=4, max_size=4),
        st.lists(st.floats(0.9, 1.1), min_size=6, max_size=6),
        scale,
    ).filter(lambda q: q is not None)


def sphere_quadruple(rng):
    """Four random points anywhere on the unit sphere, with geodesic distances."""
    p = rng.normal(size=(4, 3))
    p /= np.linalg.norm(p, axis=1, keepdims=True)
    return _quadruple(np.arccos(np.clip(p @ p.T, -1.0, 1.0)))


def space_quadruple(rng):
    """Four random points in R^3, with Euclidean distances."""
    p = rng.normal(size=(4, 3))
    return _quadruple(np.linalg.norm(p[:, None] - p[None], axis=-1))


def seeded(make, count, seed):
    rng = np.random.default_rng(seed)
    out = []
    while len(out) < count:
        q = make(rng)
        if q is not None:
            out.append(q)
    return out


# ---------------------------------------------------------------------------
# The oracle: the classical determinant on a dense grid, brentq, and a rank
# and signature test that shares no code with the solver.


def model_gram(d, kappa):
    """Gram matrix of the four points in the curvature-kappa model's ambient space.

    Unit vectors of R^3 for kappa > 0 (cosines of the angles sqrt(kappa) d),
    points of the hyperboloid under the (-, +, +) form for kappa < 0, and
    centred points of the plane (classical scaling) for kappa = 0.
    """
    if kappa == 0.0:
        j = np.eye(4) - 0.25
        return -0.5 * j @ (d * d) @ j
    s = math.sqrt(abs(kappa))
    return np.cos(s * d) if kappa > 0.0 else -np.cosh(s * d)


def is_model_root(d, kappa, rtol=1e-10):
    """True when the model Gram matrix has the rank and signature of the model's ambient space.

    Rank at most three with no negative eigenvalue on the sphere or at most
    one on the hyperboloid; in the plane, where centring already zeroes one
    eigenvalue, rank at most two with none negative.  Eigenvalues within
    `rtol` of the largest one count as zero.
    """
    if kappa > 0.0 and math.sqrt(kappa) * float(d.max()) > math.pi * (1.0 + rtol):
        return False
    lam = np.linalg.eigvalsh(model_gram(d, kappa))
    tol = rtol * float(np.max(np.abs(lam)))
    zeros = int(np.sum(np.abs(lam) <= tol))
    negative = int(np.sum(lam < -tol))
    return zeros >= (2 if kappa == 0.0 else 1) and negative <= (1 if kappa < 0.0 else 0)


def curvature_det(u, ts):
    """det[cos(sqrt(t) u)] at each t > 0; at t <= 0, det[cosh(sqrt(-t) u)] with each row divided by its largest entry."""
    s = np.sqrt(np.abs(np.asarray(ts, dtype=float)))[:, None, None] * u
    pos = np.asarray(ts) > 0.0
    m = np.empty_like(s)
    m[pos] = np.cos(s[pos])
    log_cosh = s[~pos] + np.log1p(np.exp(-2.0 * s[~pos])) - math.log(2.0)
    m[~pos] = np.exp(log_cosh - log_cosh.max(axis=2, keepdims=True))
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.linalg.det(m)


ORACLE_GAP = 1e-5  # |t| below this, the determinant's forced zero at t = 0 drowns in rounding


def oracle_roots(q, cap=None):
    """The curvatures kappa in the solver's search interval at which the curvature determinant of q changes
    sign and the model root test passes, found on a dense grid in t = kappa * D^2 (D from `math.frexp(max d)`)
    of 4,000 log-spaced points below -ORACLE_GAP and 20,000 equispaced ones above ORACLE_GAP."""
    e = math.frexp(q.max_distance)[1]
    u = np.ldexp(q.distances, -e)
    umax, umin = u.max(), u[u > 0.0].min()
    cap = 1e4 / umin**2 if cap is None else math.ldexp(cap, 2 * e)
    roots = []
    for grid in (-np.geomspace(cap, ORACLE_GAP, 4000), np.linspace(ORACLE_GAP, (math.pi / umax) ** 2, 20_000)):
        vals = curvature_det(u, grid)
        for i in np.flatnonzero((vals[:-1] < 0.0) != (vals[1:] < 0.0)):
            if vals[i] != 0.0:
                t = brentq(lambda t: float(curvature_det(u, [t])[0]), grid[i], grid[i + 1], xtol=1e-300, rtol=1e-15)
                roots.append(math.ldexp(t, -2 * e))
    return [r for r in roots if is_model_root(q.distances, r)]


def oracle_disagreements(q, cap=None, rtol=1e-8):
    """Roots the solver reports that are not the oracle's, and oracle roots the solver does not report.

    Roots meet within ``rtol`` relative.  The solver's roots within ORACLE_GAP of t = 0 (the flat root among
    them) are checked by `is_model_root` alone.
    """
    oracle = oracle_roots(q, cap)
    solver = [r.kappa for r in wald_curvature(q, kappa_cap=cap).roots]
    near_zero = ORACLE_GAP / math.ldexp(1.0, 2 * math.frexp(q.max_distance)[1])
    assert all(is_model_root(q.distances, r) for r in solver if abs(r) < near_zero)
    unknown = [r for r in solver if abs(r) >= near_zero and not any(abs(r - o) <= rtol * abs(o) for o in oracle)]
    unfound = [o for o in oracle if not any(abs(r - o) <= rtol * abs(o) for r in solver)]
    return unknown, unfound


def oracle_populations():
    """The sets of `oracle_sets` by population, with the generating curvature (None in R^3)."""
    pops = [(f"cap {k}", k, seeded(lambda rng, k=k: surface_quadruple(k, rng), 24, 100 + int(k))) for k in SURFACE_KAPPAS]
    return pops + [("sphere", 1.0, seeded(sphere_quadruple, 40, 7)), ("space", None, seeded(space_quadruple, 40, 8))]


def oracle_sets():
    return [q for _, _, qs in oracle_populations() for q in qs]


# (population, index in `oracle_populations`) of the inputs with an oracle root
# that the solver does not report: each is a sign change deep in the tail,
# -1351 on the first and -3212 and -20860 on the others, that the solver
# brackets too, but where `realize_quadruple` fails while `is_model_root` passes
KNOWN_DISAGREEMENTS = {("cap -1.0", 16), ("cap 0.0", 6), ("cap 0.0", 22)}


@pytest.mark.parametrize("pop", [f"cap {k}" for k in SURFACE_KAPPAS] + ["sphere", "space"])
def test_roots_are_the_oracles(pop):
    [(_, _, qs)] = [p for p in oracle_populations() if p[0] == pop]
    disagree = set()
    for i, q in enumerate(qs):
        unknown, unfound = oracle_disagreements(q)
        assert not unknown, (pop, i, unknown)
        if unfound:
            disagree.add((pop, i))
    assert disagree == {k for k in KNOWN_DISAGREEMENTS if k[0] == pop}


def test_options_keep_roots_the_oracles():
    # a cap that cuts the tail short may miss tail roots, but reports none that the oracle lacks
    qs = seeded(lambda rng: surface_quadruple(-1.0, rng), 4, 9) + seeded(sphere_quadruple, 4, 10)
    for q in qs:
        oracle = oracle_roots(q, 50.0)
        for r in wald_curvature(q, kappa_cap=50.0).roots:
            assert is_model_root(q.distances, r.kappa)
            assert r.kappa == 0.0 or any(abs(r.kappa - o) <= 1e-8 * abs(o) for o in oracle)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(quadruples(st.floats(0.1, 10.0)))
def test_random_metrics(q):
    unknown, _ = oracle_disagreements(q)
    assert not unknown


# (population, index in `oracle_populations`) of the inputs whose generating
# curvature the solver misses
KNOWN_CLOSE_PAIR_MISSES = set()


def test_roots_pass_the_oracle():
    misses = set()
    for pop, kappa, qs in oracle_populations():
        for i, q in enumerate(qs):
            roots = [r.kappa for r in wald_curvature(q).roots]
            assert all(is_model_root(q.distances, r) for r in roots), (pop, i, roots)
            if kappa is not None and not any(abs(r - kappa) <= 1e-6 * (abs(kappa) or 1.0) for r in roots):
                misses.add((pop, i))
    assert misses == KNOWN_CLOSE_PAIR_MISSES


def test_whole_sphere_close_pairs():
    # kappa = 1 on all 2,000 whole-sphere quadruples of seed 5001, 136 of
    # them with a second root within 0.05 % to 7 % of it
    misses = [i for i, q in enumerate(seeded(sphere_quadruple, 2000, 5001)) if not any(
        abs(r.kappa - 1.0) <= 1e-6 for r in wald_curvature(q).roots)]
    assert misses == []


# ---------------------------------------------------------------------------
# The function the solver scans: g(t) = det B(t), with f(t) = t^3 g(t) for
# the classical determinant f, and g(0) the Cayley-Menger determinant over 8.


def test_bordered_determinant():
    checked = 0
    for q in oracle_sets():
        u = MetricQuadruple(np.ldexp(q.distances, -math.frexp(q.max_distance)[1]))  # as the solver scales it
        x = np.array([0.0, *u.pairwise()])
        # 8 g(0) is the Cayley-Menger determinant, within 1e-12 of its scale (max u)^8; rounding in
        # the near-planar caps' cancellation moves it further relative to the determinant itself
        assert abs(8.0 * _curvature_det_grid(x, np.array([0.0]))[0] - cayley_menger(u)) <= 1e-12 * u.max_distance**8
        ts = np.concatenate((-np.geomspace(1e3, 1e-2, 60), np.linspace(1e-2, (math.pi / u.max_distance) ** 2, 60)))
        f, g = curvature_det(u.distances, ts), _curvature_det_grid(x, ts)
        assert np.array_equal(np.sign(f), np.sign(ts**3 * g))
        checked += len(ts)
    assert checked == 200 * 120


def test_near_planar_repro():
    # |cayley_menger| / (max d)^8 = 1.56e-9, just above FLAT_TOL: g has one
    # small root, where the rounding noise of the classical determinant's
    # forced zero at 0 changes sign many times
    q = MetricQuadruple.from_pairwise(
        0.30702088907882885, 0.6072451321854453, 0.09136529946008107, 0.643895203953462, 0.39750402902238835, 0.6392740372234854
    )
    res = wald_curvature(q)
    assert res.classification == "multiple"
    [big, small] = [r.kappa for r in res.roots]
    assert big == pytest.approx(-10.4988340879, rel=1e-9) and 0.0 < abs(small) <= 2e-6
    assert all(is_model_root(q.distances, r.kappa) for r in res.roots)
    assert abs(cayley_menger(q)) > FLAT_TOL * q.max_distance**8


def cap_at(kappa, e, rng):
    """A cap of the kappa surface whose largest distance d has `math.frexp(d)[1] == e`, or None."""
    q = surface_quadruple(kappa, rng, radius=rng.uniform(0.1, 3.0))
    return q if q is not None and math.frexp(q.max_distance)[1] == e else None


@pytest.mark.parametrize("e", [-1, 0, 1])
@pytest.mark.parametrize("kappa", [-4.0, -1.0])
def test_roots_on_seams_and_grid_points(kappa, e):
    # the generating root lies at t = kappa * 4^e exactly: on the seam t = -4
    # between the tail and the first panel, at t = -1 in that panel, or at
    # -16 or -1/4; every one of the 40 caps must find it
    for i, q in enumerate(seeded(lambda rng: cap_at(kappa, e, rng), 40, 300 + 10 * int(kappa) + e)):
        assert any(abs(r.kappa - kappa) <= 1e-6 * abs(kappa) for r in wald_curvature(q).roots), i


# ---------------------------------------------------------------------------
# The root search on synthetic functions.


def scalar_grid_roots(f, grid, vals, rtol):
    """Roots bisected one grid pair and one midpoint at a time: pairs of opposite sign by `< 0.0`, no zero of a run."""
    zero = [v == 0.0 for v in vals]
    run = [z and ((i > 0 and zero[i - 1]) or (i + 1 < len(vals) and zero[i + 1])) for i, z in enumerate(zero)]
    out = []
    for i in range(len(grid) - 1):
        if (vals[i] < 0.0) != (vals[i + 1] < 0.0) and not (run[i] or run[i + 1]):
            out.append(scalar_bisect(f, float(grid[i]), float(grid[i + 1]), vals[i], vals[i + 1], rtol))
    return out


@pytest.mark.parametrize(
    "vals, brackets",
    [
        # a zero of either sign counts as positive
        ((1.0, -0.0, -1.0), 1),
        ((-0.0, 1.0, 0.0), 0),
        ((-1.0, -0.0, 1.0), 1),
        ((-1.0, 0.0, 2.0, -3.0), 2),
        # a run of zeros, where g underflows, brackets nothing on either side
        ((-1.0, 0.0, 0.0, 1.0), 0),
        ((-1.0, 0.0, -0.0, 0.0, -2.0, 1.0), 1),
        ((0.5, -0.5, 0.25, -0.25), 3),
    ],
)
def test_sign_tests(vals, brackets):
    grid = np.arange(1.0, len(vals) + 1.0)
    f = lambda k: np.interp(k, grid, vals)  # noqa: E731
    pairs = _grid_roots(f, grid, np.array(vals), 1e-12)
    got = [k for k, _ in pairs]
    assert got == scalar_grid_roots(lambda k: float(f(k)), grid, vals, 1e-12)
    assert len(got) == brackets
    # each root comes with f there, from the evaluation that found it
    assert all(value == float(f(k)) for k, value in pairs)


def test_negative_zero_midpoint():
    # the first midpoint evaluates to -0.0, which ends the bisection there
    f = lambda k: np.where(k == 1.5, -0.0, 1.25 - k)  # noqa: E731
    [(root, value)] = _bisect(f, [1.0], [2.0], [0.25], [-0.75], 1e-12)
    assert root == 1.5 and value == 0.0 and math.copysign(1.0, value) == -1.0


@settings(max_examples=80, deadline=None, derandomize=True)
@given(
    st.floats(min_value=-3.0, max_value=3.0),
    st.floats(min_value=0.01, max_value=2.0),
    st.floats(min_value=0.0, max_value=1.0),
    st.sampled_from([0.0, 1e-15, 1e-12, 1e-6, 0.3]),
)
def test_bisect_walk(a, width, t, rtol):
    # a cubic with one root inside [a, a + width]; rtol 0 runs the full 200 steps
    b = a + width
    r = a + t * width
    f = lambda k: (k - r) * (1.0 + (k - a) * (k - a))  # noqa: E731
    fa, fb = float(f(a)), float(f(b))
    assume((fa < 0.0) != (fb < 0.0))
    [(root, value)] = _bisect(f, [a], [b], [fa], [fb], rtol)
    assert root == scalar_bisect(lambda k: float(f(k)), a, b, fa, fb, rtol)
    # f at the root, or None when the 200 steps ran out, which needs rtol 0
    assert value == float(f(root)) if value is not None else rtol == 0.0


WINDOWS = (-15.0, -5.0, 5.0, 15.0)  # one bracket near each, so that up to four never overlap


def piecewise(brackets):
    """Brackets [a, b] near `WINDOWS` and f with one root in each, from (start, width, t, falling, negzero).

    The root is near a + t * width, f falls through it when ``falling``, and
    f is -0.0 at the first midpoint when ``negzero``.  f has no other zero,
    so with rtol 0 the 200 steps run out.
    """
    a = [c + start for c, (start, *_) in zip(WINDOWS, brackets)]
    b = [x + width for x, (_, width, *_) in zip(a, brackets)]

    def f(k):
        k = np.asarray(k, dtype=float)
        out = np.full(k.shape, np.nan)
        for x, y, (_, width, t, falling, negzero) in zip(a, b, brackets):
            m = (x <= k) & (k <= y)
            v = (k[m] - (x + t * width)) * (1.0 + (k[m] - x) * (k[m] - x)) + 1e-300
            v = -v if falling else v
            out[m] = np.where(k[m] == 0.5 * (x + y), -0.0, v) if negzero else v
        return out

    return a, b, f


@settings(max_examples=120, deadline=None, derandomize=True)
@given(
    st.lists(
        st.tuples(
            st.floats(min_value=-3.0, max_value=3.0),
            st.floats(min_value=0.01, max_value=2.0),
            st.floats(min_value=0.0, max_value=1.0),
            st.booleans(),
            st.booleans(),
        ),
        min_size=1,
        max_size=4,
    ),
    st.sampled_from([0.0, 1e-15, 1e-12, 1e-6, 0.3]),
)
# rtol 0: the first bracket ends at its -0.0 midpoint while the 200 steps of the second run out
@example([(0.0, 1.0, 0.3, False, True), (0.5, 1.0, 0.7, True, False)], 0.0)
def test_lockstep_bisect(brackets, rtol):
    # 1 to 4 brackets of both signs and directions in one call, each against its own scalar bisection
    a, b, f = piecewise(brackets)
    fa, fb = f(a).tolist(), f(b).tolist()
    assume(all((x < 0.0) != (y < 0.0) for x, y in zip(fa, fb)))
    got = _bisect(f, a, b, fa, fb, rtol)
    assert len(got) == len(brackets)
    for (root, value), *bracket in zip(got, a, b, fa, fb):
        assert root == scalar_bisect(lambda k: float(f(k)), *bracket, rtol)
        # f at the root, sign of zero included, or None when the 200 steps ran out, which needs rtol 0
        if value is None:
            assert rtol == 0.0
        else:
            want = float(f(root))
            assert value == want and math.copysign(1.0, value) == math.copysign(1.0, want)


def test_lockstep_mixes_finished_and_exhausted():
    a, b, f = piecewise([(0.0, 1.0, 0.3, False, True), (0.5, 1.0, 0.7, True, False)])
    [(r0, v0), (r1, v1)] = _bisect(f, a, b, f(a).tolist(), f(b).tolist(), 0.0)
    assert r0 == 0.5 * (a[0] + b[0]) and v0 == 0.0 and math.copysign(1.0, v0) == -1.0
    assert v1 is None


# ---------------------------------------------------------------------------
# Call budgets.


def scalar_steps(f, a, b, fa, fb, rtol):
    """Steps of the bisection that evaluates one midpoint at a time: the midpoints it reaches."""
    steps = 0
    for _ in range(200):
        mid = 0.5 * (a + b)
        steps += 1
        if b - a <= rtol * (1.0 + abs(mid)):
            break
        fm = f(mid)
        if fm == 0.0:
            break
        if (fa < 0.0) != (fm < 0.0):
            b, fb = mid, fm
        else:
            a, fa = mid, fm
    return steps


@pytest.mark.parametrize("rtol", [0.0, 1e-12, 1e-6])
@pytest.mark.parametrize("a, width", [(-3.0, 2.0), (0.5, 0.07), (2.0, 1e-3)])
@pytest.mark.parametrize("falling", [False, True])
def test_wrong_secant_costs_no_calls(a, width, falling, rtol):
    # f is -1 left of the float after a and 1e-300 from there on: the secant
    # point lies at b, so each predicted side is right while every real side
    # is left, and a round takes one step; still no bracket costs more calls
    # than a bisection evaluating one midpoint a call
    root = math.nextafter(a, math.inf)
    sign = -1.0 if falling else 1.0
    calls = []

    def f(k):
        calls.append(np.size(k))
        return sign * np.where(np.asarray(k) < root, -1.0, 1e-300)

    fa, fb = float(f(a)), float(f(a + width))
    calls.clear()
    [(got, _)] = _bisect(f, [a], [a + width], [fa], [fb], rtol)
    lockstep = len(calls)
    assert lockstep <= scalar_steps(lambda k: float(f(k)), a, a + width, fa, fb, rtol)
    assert got == scalar_bisect(lambda k: float(f(k)), a, a + width, fa, fb, rtol)


def test_determinant_batches_per_quadruple(monkeypatch):
    # about 4.5 batches a quadruple here: the tail grid and the Chebyshev points, then the rounds
    calls = []
    det_grid = quadruple._curvature_det_grid
    monkeypatch.setattr(quadruple, "_curvature_det_grid", lambda x, ks: calls.append(len(ks)) or det_grid(x, ks))
    qs = oracle_sets()
    for q in qs:
        wald_curvature(q)
    assert len(calls) <= 6 * len(qs)


def test_midpoints_per_quadruple(monkeypatch):
    # the bisection rounds evaluate about 74 midpoints a quadruple here
    calls = []
    det_grid = quadruple._curvature_det_grid
    monkeypatch.setattr(quadruple, "_curvature_det_grid", lambda x, ks: calls.append(len(ks)) or det_grid(x, ks))
    qs = oracle_sets()
    midpoints = 0
    for q in qs:
        calls.clear()
        wald_curvature(q)
        midpoints += sum(calls[1:])  # every call after the grid's is a bisection round
    assert midpoints <= 105 * len(qs)


def test_spherical_roots_pass_the_minors():
    # the solver keeps no principal-minor pass: realization at rank 3 already
    # requires a positive semidefinite cosine Gram matrix, so every spherical
    # root it keeps passes the scalar oracle's minors
    spherical = 0
    for q in oracle_sets() + seeded(sphere_quadruple, 2000, 5001):
        for root in wald_curvature(q).roots:
            if root.kappa > 0.0:
                assert scalar_minors_ok(q.distances, root.kappa)
                spherical += 1
    assert spherical > 3000  # 3,515


# ---------------------------------------------------------------------------
# No quadruple makes the solver raise.


def test_seeded_sweep_raises_nothing():
    rng = np.random.default_rng(2024)
    makers = [lambda rng, k=k: surface_quadruple(k, rng, radius=rng.uniform(0.2, 3.0)) for k in SURFACE_KAPPAS]
    makers += [sphere_quadruple, space_quadruple]
    solved = 0
    while solved < 10_000:
        q = makers[solved % len(makers)](rng)
        if q is None:
            continue
        res = wald_curvature(q)
        assert res.classification in ("flat", "spherical", "hyperbolic", "multiple", "none-found")
        assert all(res.search_interval[0] <= r.kappa <= res.search_interval[1] for r in res.roots)
        assert all(is_model_root(q.distances, r.kappa) for r in res.roots)
        solved += 1


@settings(max_examples=200, deadline=None, derandomize=True)
@given(quadruples(st.floats(1e-3, 1e3)), st.sampled_from([None, 1.0, 1e6]))
def test_random_metrics_raise_nothing(q, cap):
    wald_curvature(q, kappa_cap=cap)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(quadruples(st.floats(0.1, 10.0)), st.floats(-12.0, 6.0).map(lambda e: 10.0**e))
@example(
    MetricQuadruple.from_pairwise(
        0.7745955693300072,
        0.33182797962059235,
        0.48464209087529897,
        0.6226075779444433,
        0.6891756465604602,
        0.16864617724488923,
    ),
    1.6666713999421145e-10,
)
def test_every_cap_bounds_every_root(q, cap):
    # every positive finite cap, however small, searches [-cap, (pi / max d)^2]
    # and keeps every root inside that interval
    res = wald_curvature(q, kappa_cap=cap)
    assert res.search_interval[0] == -cap or res.search_interval[0] == pytest.approx(-cap, rel=1e-15)
    assert all(res.search_interval[0] <= r.kappa <= res.search_interval[1] for r in res.roots)


# ---------------------------------------------------------------------------
# Scale: the solver runs on d / 2^e, so scaling a quadruple by 2^k scales
# every root by 4^-k, bit for bit.


def scaled(x, k):
    """x * 2^k, or None where that is not a normal float (0 stays 0)."""
    try:
        y = math.ldexp(x, k)
    except OverflowError:
        return None
    return y if x == 0.0 or sys.float_info.min <= abs(y) else None


def test_exact_covariance():
    # one cap of each curvature, one whole-sphere and one R^3 quadruple, times
    # 2^k for every k in -500..500 and at +-1000, wherever each distance stays
    # normal: the unscaled roots times 4^-k with the same residuals and
    # classification, or, where one of those or an interval end is not a
    # normal float, a DomainError
    raised = 0
    for pop, _, qs in oracle_populations():
        q = qs[1]
        want = wald_curvature(q)
        for k in [-1000, *range(-500, 501), 1000]:
            if scaled(q.min_distance, k) is None or scaled(q.max_distance, k) is None:
                continue
            scaled_q = MetricQuadruple(np.ldexp(q.distances, k))
            ends = [scaled(x, -2 * k) for x in want.search_interval]
            roots = [scaled(r.kappa, -2 * k) for r in want.roots]
            if None in ends + roots:
                with pytest.raises(DomainError, match="out of range: a curvature search scale overflows or underflows"):
                    wald_curvature(scaled_q)
                raised += 1
                continue
            got = wald_curvature(scaled_q)
            assert got.classification == want.classification, (pop, k)
            assert got.roots == tuple(WaldRoot(r, w.residual) for r, w in zip(roots, want.roots)), (pop, k)
            assert got.search_interval == tuple(ends), (pop, k)
            assert all(is_model_root(scaled_q.distances, r) for r in roots), (pop, k)
    assert raised > 0


@pytest.mark.parametrize("s", [300.0, 1e3, 1e4, 1e5, 1e38])
def test_scalene_probe(s):
    # the scalene quadruple at every scale has both roots of its unit-range copy
    # (lost at s = 300 and beyond when the search ran in kappa units)
    res = wald_curvature(MetricQuadruple.from_pairwise(*(s * x for x in (1.0, 1.1, 0.9, 1.05, 0.95, 1.2))))
    assert res.classification == "multiple"
    got = [r.kappa * s * s for r in res.roots]
    assert got == pytest.approx([-50.060364793018195, 3.388557268125769], rel=1e-9)
