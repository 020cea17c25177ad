"""The batched comparison-angle kernel against a 40-digit reference.

`scalar_comparison_angle` takes one triple at a time, with Python floats,
through the tests in the order the kernel makes them: a non-finite
curvature, the sides, the triangle inequality within its slack, the exact 0
and pi of degenerate triangles, then the sphere's side and perimeter
limits.  Its angle is `test_spaceform.decimal_angle`, the classical law of
cosines evaluated to 40 digits.  The kernel's one-row call
(`comparison_angle`) must be within 1e-13 of it on every triple and raise
the same `DomainError` text; a batch must give the one-row bits on every
triple and name the first failing triple in C order.
"""

import math

import numpy as np
import pytest

from plembed import DomainError, comparison_angle
from plembed.spaceform import comparison_angles

from test_spaceform import decimal_angle

TWO_PI = 2.0 * math.pi
TRIANGLE_SLACK = 1e-12
ORACLE_TOL = 1e-13


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
    if kappa > 0.0:
        rt = math.sqrt(kappa)
        if rt * scale > math.pi * (1.0 + TRIANGLE_SLACK):
            raise DomainError("side exceeds pi/sqrt(kappa) on the sphere")
        if rt * (opposite + b + c) > TWO_PI * (1.0 + TRIANGLE_SLACK):
            raise DomainError("perimeter exceeds 2*pi/sqrt(kappa)")
    return decimal_angle(kappa, opposite, b, c)


def kind(kappa, opposite, b, c):
    """What part of the curvature range a valid triple lies in."""
    scale = max(opposite, b, c)
    if opposite >= b + c or b >= opposite + c or c >= opposite + b:
        return "degenerate"
    if kappa == 0.0:
        return "euclidean"
    if abs(kappa) * scale * scale < 1e-3:
        return "near-flat"
    if kappa < 0.0 and math.sqrt(-kappa) * scale > 350.0:
        return "far"  # cosh overflows a double near 710
    return "spherical" if kappa > 0.0 else "hyperbolic"


def outcome(f, *args):
    """The angle, or the type and text of the DomainError."""
    try:
        return f(*args)
    except DomainError as e:
        return (type(e).__name__, str(e))


def assert_matches_the_reference(got, want, row):
    if isinstance(want, float):
        assert isinstance(got, float) and abs(got - want) <= ORACLE_TOL, (row, got, want)
    else:
        assert got == want, row


# A cosine that rounding once pushed past -1..1 by more than 1e-12 (found by a seeded search).
COSINE_OUT_OF_RANGE = (-2.8498693336295737e-12, 0.006616781969183213, 0.18602286841464583, 0.19263965038161932)
AT_SLACK = 2.000000000002  # == 1 + 1 + TRIANGLE_SLACK * itself: the largest side the slack admits


def boundary_rows():
    """Triples on the boundaries between tests, where a sweep rarely lands."""
    rows = []
    for kappa in (0.0, 1.0, -1.0):
        for o in (AT_SLACK, math.nextafter(AT_SLACK, math.inf)):
            rows += [(kappa, o, 1.0, 1.0), (kappa, 1.0, o, 1.0), (kappa, 1.0, 1.0, o)]
    # several tests fail at once: the first in the scalar order names the triple
    for kappa in (math.nan, math.inf, 0.0, 4.0):
        rows += [(kappa, -1.0, 1.0, 1.0), (kappa, 3.0, 1.0, 1.0), (kappa, math.nan, 1.0, 5.0), (kappa, 2.0, 2.0, 2.0)]
    rows += [(4.0, 1.6, 1.6, 1.6), (4.0, 1.5, 1.0, 1.0), (0.0, 1e200, 1e200, 3e200)]
    # hyperbolic sides around sqrt(-kappa) * max(b, c) = 350, half way to where cosh overflows
    rng = np.random.default_rng(350)
    for b in [350.0, math.nextafter(350.0, math.inf), *rng.uniform(349.0, 351.0, 80)]:
        c = rng.uniform(1.0, 350.0)
        o = abs(b - c) + rng.uniform(0.01, 0.99) * 2.0 * min(b, c)
        rows += [(-1.0, o, b, c), (-1.0, o, c, b), (-4.0, o / 2.0, b / 2.0, c / 2.0)]
    return rows


def sweep(rng, count):
    """Seeded (kappa, opposite, b, c) rows over the whole curvature range and every reachable DomainError."""
    rows = []
    for k in range(count):
        kind = k % 9
        b, c = rng.uniform(0.05, 3.0, 2)
        o = abs(b - c) + rng.uniform(0.0, 1.0) * (b + c - abs(b - c))
        if kind == 0:  # spherical, some beyond the side or perimeter limit
            kappa = rng.uniform(0.01, 1.5)
        elif kind == 1:  # hyperbolic
            kappa = -rng.uniform(0.01, 5.0)
        elif kind == 2:  # hyperbolic, beyond the range of cosh
            kappa, o, b, c = -1.0, o * 300.0, b * 300.0, c * 300.0
        elif kind == 3:  # |kappa| * scale^2 from 1e-16 to 1e-3, where the classical formula cancels
            kappa = rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-16.0, -3.0) / max(o, b, c) ** 2
        elif kind == 4:  # Euclidean
            kappa = 0.0
        elif kind == 5:  # straight or folded, within and beyond the slack
            kappa = float(rng.choice([0.0, 0.5, -1.0]))
            o, b, c = np.array([b + c, b, c])[rng.permutation(3)] * (1.0 + rng.choice([0.0, 1e-13, -1e-13, 3e-12]))
        elif kind == 6:  # sides out of the domain
            kappa = float(rng.choice([0.0, 1.0, -1.0]))
            i = rng.integers(3)
            o, b, c = [x if j != i else rng.choice([0.0, -1.0, math.inf, math.nan]) for j, x in enumerate((o, b, c))]
        elif kind == 7:  # sides whose squares leave the float range, or a non-finite curvature
            kappa = float(rng.choice([0.0, 0.0, math.nan, math.inf, -math.inf]))
            o, b, c = np.array([o, b, c]) * rng.choice([1e155, 1e200, 1e-155, 1e-162, 1.0])
        else:  # the triangle inequality, violated
            kappa = float(rng.choice([0.0, 1.0, -1.0]))
            o = b + c + rng.uniform(0.01, 1.0)
        rows.append((float(kappa), float(o), float(b), float(c)))
    return rows + boundary_rows() + [COSINE_OUT_OF_RANGE]


ROWS = sweep(np.random.default_rng(2026), 6000)
WANT = [outcome(scalar_comparison_angle, *row) for row in ROWS]


def test_sweep_covers_the_range_and_every_error():
    seen = {kind(*row) if isinstance(w, float) else w[1].split(" ")[0] for row, w in zip(ROWS, WANT)}
    assert seen == {
        "spherical", "hyperbolic", "far", "near-flat", "euclidean", "degenerate",
        "curvature", "sides", "side", "perimeter",
    }


def test_one_row_matches_the_reference():
    for row, want in zip(ROWS, WANT):
        assert_matches_the_reference(outcome(comparison_angle, *row), want, row)


def test_batch_is_the_one_row():
    kappa, o, b, c = np.array(ROWS).T
    angles, failure = comparison_angles(kappa, o, b, c)
    one = [outcome(comparison_angle, *row) for row in ROWS]
    for got, w in zip(angles.tolist(), one):
        if isinstance(w, float):
            assert got.hex() == w.hex()
        else:
            assert math.isnan(got)
    first = next(i for i, w in enumerate(one) if not isinstance(w, float))
    assert failure == (first, one[first][1])
    # without the failures, no failure
    ok = [i for i, w in enumerate(one) if isinstance(w, float)]
    assert comparison_angles(kappa[ok], o[ok], b[ok], c[ok])[1] is None


def test_batch_failure_is_the_first_in_c_order():
    # a (2, 3) table whose failures sit at flat positions 2 and 4
    o = np.array([[1.0, 1.0, 3.0], [1.0, 1e200, 1.0]])
    angles, failure = comparison_angles(np.array([[0.0], [0.0]]), o, 1.0, 1.0)
    assert failure == (2, "sides violate the triangle inequality")
    assert angles.shape == (2, 3) and np.isnan(angles[0, 2]) and np.isnan(angles[1, 1])
    assert angles[1, 0] == comparison_angle(0.0, 1.0, 1.0, 1.0)


def test_empty_batch():
    angles, failure = comparison_angles(1.0, np.empty((0, 4, 3)), np.empty((0, 4, 3)), np.empty((0, 4, 3)))
    assert angles.shape == (0, 4, 3) and failure is None


@pytest.mark.parametrize("sides", [(np.float64(1.2), np.float64(1.0), np.float64(0.9)), (1, 1, 1), (2, 1, 1)])
def test_numpy_and_integer_sides(sides):
    for kappa in (0.0, 1.0, -1.0, 1):
        got = outcome(comparison_angle, kappa, *sides)
        assert got == outcome(comparison_angle, float(kappa), *map(float, sides))
        assert_matches_the_reference(got, outcome(scalar_comparison_angle, kappa, *sides), (kappa, *sides))
