"""The batched comparison-angle kernel against the scalar law of cosines it replaced.

`scalar_comparison_angle` is `spaceform.comparison_angle` as it was written
before the kernel: one triple at a time, with Python floats and `math`.  The
kernel (`comparison_angles`) and its one-row call (`comparison_angle`) must
give the same bits on every triple and the same `DomainError` text, and a
batch must name the first failing triple in C order.
"""

import math
import sys

import numpy as np
import pytest

from plembed import DomainError, comparison_angle
from plembed.spaceform import comparison_angles

TWO_PI = 2.0 * math.pi
COS_GUARD = 1e-12
TRIANGLE_SLACK = 1e-12
TINY_CURVATURE = 1e-14


def _clamped_acos(x):
    if -1.0 <= x <= 1.0:
        return math.acos(x)
    if not abs(x) - 1.0 <= COS_GUARD:
        raise DomainError(f"cosine value {x!r} outside [-1, 1]")
    return 0.0 if x > 0.0 else math.pi


def _log_cosh(x):
    return x + math.log1p(math.exp(-2.0 * x)) - math.log(2.0)


def scalar_comparison_angle(kappa, opposite, b, c):
    if not -math.inf < kappa < math.inf:
        raise DomainError("curvature must be finite")
    opposite, b, c = float(opposite), float(b), float(c)
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
    if kappa > 0.0 and kappa * scale * scale >= TINY_CURVATURE:
        rt = math.sqrt(kappa)
        if rt * scale > math.pi * (1.0 + TRIANGLE_SLACK):
            raise DomainError("side exceeds pi/sqrt(kappa) on the sphere")
        if rt * (opposite + b + c) > TWO_PI * (1.0 + TRIANGLE_SLACK):
            raise DomainError("perimeter exceeds 2*pi/sqrt(kappa)")
        sb, sc = math.sin(rt * b), math.sin(rt * c)
        if sb == 0.0 or sc == 0.0:
            raise DomainError("apex angle undefined for an antipodal side")
        num = math.cos(rt * opposite) - math.cos(rt * b) * math.cos(rt * c)
        return _clamped_acos(num / (sb * sc))
    if kappa < 0.0 and -kappa * scale * scale >= TINY_CURVATURE:
        rt = math.sqrt(-kappa)
        a_, b_, c_ = rt * opposite, rt * b, rt * c
        if max(b_, c_) > 350.0:
            l = _log_cosh(a_) - _log_cosh(b_) - _log_cosh(c_)
            return _clamped_acos((1.0 - math.exp(l)) / (math.tanh(b_) * math.tanh(c_)))
        num = math.cosh(b_) * math.cosh(c_) - math.cosh(a_)
        return _clamped_acos(num / (math.sinh(b_) * math.sinh(c_)))
    aa, bb, cc, den = opposite * opposite, b * b, c * c, 2.0 * b * c
    if not (min(aa, bb, cc) >= sys.float_info.min and max(aa, bb + cc, den) < math.inf):
        raise DomainError(f"distances {opposite!r}, {b!r}, {c!r} are out of range of the Euclidean law of cosines")
    return _clamped_acos((bb + cc - aa) / den)


def branch(kappa, opposite, b, c):
    """Which part of the scalar code a valid triple reaches."""
    scale = max(opposite, b, c)
    if opposite >= b + c or b >= opposite + c or c >= opposite + b:
        return "degenerate"
    if kappa > 0.0 and kappa * scale * scale >= TINY_CURVATURE:
        return "spherical"
    if kappa < 0.0 and -kappa * scale * scale >= TINY_CURVATURE:
        rt = math.sqrt(-kappa)
        return "log-cosh" if max(rt * b, rt * c) > 350.0 else "hyperbolic"
    return "euclidean" if kappa == 0.0 else "tiny-curvature"


def outcome(f, *args):
    """The bits of the angle, or the type and text of the DomainError."""
    try:
        return f(*args).hex()
    except DomainError as e:
        return (type(e).__name__, str(e))


# A cosine that rounding pushes past -1..1 by more than COS_GUARD (found by a seeded search).
COSINE_OUT_OF_RANGE = (-2.8498693336295737e-12, 0.006616781969183213, 0.18602286841464583, 0.19263965038161932)
AT_SLACK = 2.000000000002  # == 1 + 1 + TRIANGLE_SLACK * itself: the largest side the slack admits


def boundary_rows():
    """Triples on the boundaries between tests and branches, where a sweep rarely lands."""
    rows = []
    for kappa in (0.0, 1.0, -1.0):
        for o in (AT_SLACK, math.nextafter(AT_SLACK, math.inf)):
            rows += [(kappa, o, 1.0, 1.0), (kappa, 1.0, o, 1.0), (kappa, 1.0, 1.0, o)]
    # several tests fail at once: the first in the scalar order names the triple
    for kappa in (math.nan, math.inf, 0.0, 4.0):
        rows += [(kappa, -1.0, 1.0, 1.0), (kappa, 3.0, 1.0, 1.0), (kappa, math.nan, 1.0, 5.0), (kappa, 2.0, 2.0, 2.0)]
    rows += [(4.0, 1.6, 1.6, 1.6), (4.0, 1.5, 1.0, 1.0), (0.0, 1e200, 1e200, 3e200)]
    # the log-cosh branch starts past sqrt(-kappa) * max(b, c) = 350; about one triple
    # in ten just past it has other bits in the cosh formula
    rng = np.random.default_rng(350)
    for b in [350.0, math.nextafter(350.0, math.inf), *rng.uniform(349.0, 351.0, 80)]:
        c = rng.uniform(1.0, 350.0)
        o = abs(b - c) + rng.uniform(0.01, 0.99) * 2.0 * min(b, c)
        rows += [(-1.0, o, b, c), (-1.0, o, c, b), (-4.0, o / 2.0, b / 2.0, c / 2.0)]
    return rows


def sweep(rng, count):
    """Seeded (kappa, opposite, b, c) rows over every branch and every reachable DomainError."""
    rows = []
    for k in range(count):
        kind = k % 9
        b, c = rng.uniform(0.05, 3.0, 2)
        o = abs(b - c) + rng.uniform(0.0, 1.0) * (b + c - abs(b - c))
        if kind == 0:  # spherical, some beyond the side or perimeter limit
            kappa = rng.uniform(0.01, 1.5)
        elif kind == 1:  # hyperbolic
            kappa = -rng.uniform(0.01, 5.0)
        elif kind == 2:  # hyperbolic, beyond the cosh range: the log-cosh branch
            kappa, o, b, c = -1.0, o * 300.0, b * 300.0, c * 300.0
        elif kind == 3:  # |kappa| * scale^2 on both sides of the Euclidean fallback
            kappa = rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-15.0, -12.0) / max(o, b, c) ** 2
        elif kind == 4:  # Euclidean
            kappa = 0.0
        elif kind == 5:  # straight or folded, within and beyond the slack
            kappa = float(rng.choice([0.0, 0.5, -1.0]))
            o, b, c = np.array([b + c, b, c])[rng.permutation(3)] * (1.0 + rng.choice([0.0, 1e-13, -1e-13, 3e-12]))
        elif kind == 6:  # sides out of the domain
            kappa = float(rng.choice([0.0, 1.0, -1.0]))
            i = rng.integers(3)
            o, b, c = [x if j != i else rng.choice([0.0, -1.0, math.inf, math.nan]) for j, x in enumerate((o, b, c))]
        elif kind == 7:  # out of the Euclidean range, or a non-finite curvature
            kappa = float(rng.choice([0.0, 0.0, math.nan, math.inf, -math.inf]))
            o, b, c = np.array([o, b, c]) * rng.choice([1e155, 1e200, 1e-155, 1e-162, 1.0])
        else:  # the triangle inequality, violated
            kappa = float(rng.choice([0.0, 1.0, -1.0]))
            o = b + c + rng.uniform(0.01, 1.0)
        rows.append((float(kappa), float(o), float(b), float(c)))
    return rows + boundary_rows() + [COSINE_OUT_OF_RANGE]


ROWS = sweep(np.random.default_rng(2026), 6000)


def test_sweep_covers_every_branch_and_error():
    seen = set()
    for row in ROWS:
        got = outcome(scalar_comparison_angle, *row)
        seen.add(branch(*row) if isinstance(got, str) else got[1].split(" ")[0])
    assert seen == {
        "spherical", "hyperbolic", "log-cosh", "tiny-curvature", "euclidean", "degenerate",
        "curvature", "sides", "side", "perimeter", "distances", "cosine",
    }
    # the antipodal error needs sin(sqrt(kappa) * side) == 0 for a positive side inside
    # the sphere's range, which no double reaches; the kernel keeps the scalar's test


def test_one_row_matches_the_scalar():
    for row in ROWS:
        assert outcome(comparison_angle, *row) == outcome(scalar_comparison_angle, *row), row


def test_batch_matches_the_scalar():
    kappa, o, b, c = np.array(ROWS).T
    angles, failure = comparison_angles(kappa, o, b, c)
    want = [outcome(scalar_comparison_angle, *row) for row in ROWS]
    for got, w in zip(angles.tolist(), want):
        if isinstance(w, str):
            assert got.hex() == w
        else:
            assert math.isnan(got)
    first = next(i for i, w in enumerate(want) if not isinstance(w, str))
    assert failure == (first, want[first][1])
    # without the failures, no failure
    ok = [i for i, w in enumerate(want) if isinstance(w, str)]
    assert comparison_angles(kappa[ok], o[ok], b[ok], c[ok])[1] is None


def test_batch_failure_is_the_first_in_c_order():
    # a (2, 3) table whose failures sit at flat positions 2 and 4
    o = np.array([[1.0, 1.0, 3.0], [1.0, 1e200, 1.0]])
    angles, failure = comparison_angles(np.array([[0.0], [0.0]]), o, 1.0, 1.0)
    assert failure == (2, "sides violate the triangle inequality")
    assert angles.shape == (2, 3) and np.isnan(angles[0, 2]) and np.isnan(angles[1, 1])
    assert angles[1, 0] == scalar_comparison_angle(0.0, 1.0, 1.0, 1.0)


def test_empty_batch():
    angles, failure = comparison_angles(1.0, np.empty((0, 4, 3)), np.empty((0, 4, 3)), np.empty((0, 4, 3)))
    assert angles.shape == (0, 4, 3) and failure is None


@pytest.mark.parametrize("sides", [(np.float64(1.2), np.float64(1.0), np.float64(0.9)), (1, 1, 1), (2, 1, 1)])
def test_numpy_and_integer_sides(sides):
    for kappa in (0.0, 1.0, -1.0, 1):
        assert outcome(comparison_angle, kappa, *sides) == outcome(scalar_comparison_angle, kappa, *sides)
