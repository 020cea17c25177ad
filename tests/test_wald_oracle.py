"""The Wald root search against a scalar reference, one grid point and one midpoint at a time.

`scalar_wald_curvature` is `wald_curvature` as first written: a Python loop
over the grid for sign changes, a bisection that evaluates one 4x4 curvature
determinant per step, and one 3x3 determinant per principal minor.  The
batched solver must give the same documents exactly (the same JSON text).  The
sweep at the end checks that no quadruple makes the solver raise.  The
lockstep bisection is also held to call budgets: never more calls of f per
bracket than a search that evaluates four levels of the bisection tree per
call, and few curvature determinant batches per quadruple.
"""

import json
import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from plembed import DomainError, MetricQuadruple, WaldOptions, nondegenerate, quadruple, wald_curvature
from plembed.quadruple import (
    WaldResult,
    WaldRoot,
    _bisect,
    _grid_roots,
    cayley_menger,
    realize_quadruple,
)

SURFACE_KAPPAS = (-4.0, -1.0, 0.0, 1.0, 4.0)


def scalar_curvature_det(d, kappa):
    if kappa > 0.0:
        return float(np.linalg.det(np.cos(math.sqrt(kappa) * d)))
    x = math.sqrt(-kappa) * d
    lc = x + np.log1p(np.exp(-2.0 * x)) - math.log(2.0)
    m = np.exp(lc - lc.max(axis=1, keepdims=True))
    with np.errstate(divide="ignore", over="ignore", invalid="ignore", under="ignore"):
        return float(np.linalg.det(m))


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


def scalar_grid_roots(f, grid, rtol):
    vals = [f(float(k)) for k in grid]
    out = []
    for i in range(len(grid) - 1):
        fa, fb = vals[i], vals[i + 1]
        if not (np.isfinite(fa) and np.isfinite(fb)):
            continue
        if fa == 0.0:
            out.append(float(grid[i]))
        elif (fa < 0.0) != (fb < 0.0):
            out.append(scalar_bisect(f, float(grid[i]), float(grid[i + 1]), fa, fb, rtol))
    if np.isfinite(vals[-1]) and vals[-1] == 0.0:
        out.append(float(grid[-1]))
    return out


def scalar_minors_ok(d, kappa, tol=1e-9):
    m = np.cos(math.sqrt(kappa) * d)
    for idx in ((0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)):
        if np.linalg.det(m[np.ix_(idx, idx)]) < -tol:
            return False
    return True


def scalar_wald_curvature(q, opts=None):
    # the solver's tolerances as literals: flatness 1e-9, bisection 1e-12,
    # residual 1e-6 and minors 1e-9 (realize_quadruple holds the others)
    opts = opts or WaldOptions()
    d = q.distances
    dmax, dmin = q.max_distance, q.min_distance
    kappa_max = (math.pi / dmax) ** 2
    cap = opts.kappa_cap if opts.kappa_cap is not None else 1e4 / (dmin * dmin)
    floor = 1e-7 / (dmax * dmax)
    scale8 = dmax**8
    roots = []
    flat = False
    dcm = cayley_menger(q)
    if abs(dcm) <= 1e-9 * scale8:
        if realize_quadruple(q, 0.0, 2) is not None:
            flat = True
            roots.append(WaldRoot(0.0, abs(dcm) / scale8))
    half = max(opts.samples // 2, 8)
    f = lambda k: scalar_curvature_det(d, k)  # noqa: E731
    candidates = []
    for grid in (-np.geomspace(cap, floor, half), np.geomspace(floor, kappa_max, half)):
        candidates += scalar_grid_roots(f, grid, 1e-12)
    for k in candidates:
        if flat and abs(k) <= 100.0 * floor:
            continue
        if k > 0.0 and not scalar_minors_ok(d, k):
            continue
        if realize_quadruple(q, k, 2) is None:
            continue
        residual = abs(scalar_curvature_det(d, k))
        if residual > 1e-6:
            continue
        roots.append(WaldRoot(float(k), residual))
    roots.sort(key=lambda r: r.kappa)
    if flat:
        classification = "flat"
    elif not roots:
        classification = "none-found"
    elif len(roots) > 1:
        classification = "multiple"
    elif roots[0].kappa > 0.0:
        classification = "spherical"
    else:
        classification = "hyperbolic"
    return WaldResult(tuple(roots), classification, (-cap, kappa_max))


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


def assert_same(q, opts=None):
    # JSON text, so that -0.0 and 0.0 differ and every float is compared by its shortest repr
    want = json.dumps(scalar_wald_curvature(q, opts).to_dict())
    assert json.dumps(wald_curvature(q, opts).to_dict()) == want


@pytest.mark.parametrize("kappa", SURFACE_KAPPAS)
def test_caps(kappa):
    for q in seeded(lambda rng: surface_quadruple(kappa, rng), 24, 100 + int(kappa)):
        assert_same(q)


def test_whole_sphere():
    for q in seeded(sphere_quadruple, 40, 7):
        assert_same(q)


def test_space():
    for q in seeded(space_quadruple, 40, 8):
        assert_same(q)


def test_options():
    qs = seeded(lambda rng: surface_quadruple(-1.0, rng), 4, 9) + seeded(sphere_quadruple, 4, 10)
    for opts in (WaldOptions(samples=16), WaldOptions(samples=101, kappa_cap=50.0)):
        for q in qs:
            assert_same(q, opts)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(quadruples(st.floats(0.1, 10.0)))
def test_random_metrics(q):
    assert_same(q)


# ---------------------------------------------------------------------------
# The root search on synthetic functions.


@pytest.mark.parametrize(
    "vals, want",
    [
        # -0.0 is a zero and not negative: no bracket between 1.0 and -0.0
        ((1.0, -0.0, -1.0), [2.0]),
        ((-0.0, 1.0, -0.0), [1.0, 3.0]),
        # a bracket between -1.0 and -0.0, then the zero itself
        ((-1.0, -0.0, 1.0), 2),
        # non-finite values break their pairs; -1.0 to 0.0 is a sign change
        ((1.0, math.nan, -1.0, 0.0), 2),
        ((-1.0, math.inf, 0.0, 2.0), [3.0]),
        ((0.5, -0.5, 0.25, -0.25), 3),
    ],
)
def test_sign_tests(vals, want):
    """`want` is the candidates, or how many there are when some are bisected."""
    grid = np.arange(1.0, len(vals) + 1.0)
    f = lambda k: np.interp(k, grid, vals)  # noqa: E731
    pairs = _grid_roots(f, (grid,), 1e-12, 0.0)
    got = [k for k, _ in pairs]
    assert got == scalar_grid_roots(lambda k: float(f(k)), grid, 1e-12)
    # each candidate comes with f there, from the evaluation that found it
    assert all(value == float(f(k)) for k, value in pairs)
    assert got == want if isinstance(want, list) else len(got) == want


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


def tree_calls(f, a, b, fa, fb, rtol):
    """Calls of f that a bisection evaluating four tree levels per call makes: one per four midpoints it reaches."""
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
    return -(-steps // 4)


@pytest.mark.parametrize("rtol", [0.0, 1e-12, 1e-6])
@pytest.mark.parametrize("a, width", [(-3.0, 2.0), (0.5, 0.07), (2.0, 1e-3)])
@pytest.mark.parametrize("falling", [False, True])
def test_wrong_secant_costs_no_calls(a, width, falling, rtol):
    # f is -1 left of the float after a and 1e-300 from there on: the secant
    # point lies at b, so each predicted side is right while every real side
    # is left
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
    assert lockstep <= tree_calls(lambda k: float(f(k)), a, a + width, fa, fb, rtol)
    assert got == scalar_bisect(lambda k: float(f(k)), a, a + width, fa, fb, rtol)


def oracle_sets():
    sets = [seeded(lambda rng, k=k: surface_quadruple(k, rng), 24, 100 + int(k)) for k in SURFACE_KAPPAS]
    return [q for qs in sets for q in qs] + seeded(sphere_quadruple, 40, 7) + seeded(space_quadruple, 40, 8)


def test_determinant_batches_per_quadruple(monkeypatch):
    calls = []
    det_grid = quadruple._curvature_det_grid
    monkeypatch.setattr(quadruple, "_curvature_det_grid", lambda x, ks: calls.append(len(ks)) or det_grid(x, ks))
    qs = oracle_sets()
    for q in qs:
        wald_curvature(q)
    assert len(calls) <= 6 * len(qs)


def test_flat_shadows_not_bisected(monkeypatch):
    # planar quadruples: the determinant changes sign near kappa = 0, within
    # 100 * floor, where no bracket is bisected; the documents do not change
    brackets = []
    bisect = quadruple._bisect
    monkeypatch.setattr(quadruple, "_bisect", lambda f, a, b, *rest: brackets.append((a, b)) or bisect(f, a, b, *rest))
    shadows = 0
    for q in seeded(lambda rng: surface_quadruple(0.0, rng), 6, 100):
        dmax, dmin = q.max_distance, q.min_distance
        floor = 1e-7 / dmax**2
        for grid in (-np.geomspace(1e4 / dmin**2, floor, 256), np.geomspace(floor, (math.pi / dmax) ** 2, 256)):
            vals = [scalar_curvature_det(q.distances, k) for k in grid[np.abs(grid) <= 100.0 * floor]]
            shadows += sum(x != 0.0 and (x < 0.0) != (y < 0.0) for x, y in zip(vals, vals[1:]))
        brackets.clear()
        assert_same(q)
        assert wald_curvature(q).classification == "flat"
        assert all(max(abs(x), abs(y)) > 100.0 * floor for a, b in brackets for x, y in zip(a, b))
    assert shadows > 0


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
        solved += 1


@settings(max_examples=200, deadline=None, derandomize=True)
@given(quadruples(st.floats(1e-3, 1e3)), st.sampled_from([None, 1.0, 1e6]))
def test_random_metrics_raise_nothing(q, cap):
    wald_curvature(q, WaldOptions(kappa_cap=cap))
