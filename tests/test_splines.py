"""The package's cubic splines against scipy.interpolate, which stays their reference.

``slfib._splines`` reproduces CubicSpline (not-a-knot on the disc axis,
periodic on the strip axis) with PPoly's root rules, and
RectBivariateSpline(kx=3, ky=3, s=0).ev, without importing
scipy.interpolate.  The tests import it to compare, on solved fields.
"""

import numpy as np
import pytest
from scipy.interpolate import CubicSpline, PPoly, RectBivariateSpline

from slfib.elliptic import _periodic_spline
from slfib.fibrations import SolverCache, disc_family, solve_family_member, strip_family
from slfib.singularities import TANGENTIAL_THRESHOLD
from slfib._splines import PiecewiseCubic, axis_spline

TOL = 1e-12
LEVELS = [0.0, TANGENTIAL_THRESHOLD, -TANGENTIAL_THRESHOLD]


@pytest.fixture(scope="module")
def fields():
    """The analysed fields of the disc and strip benchmark workloads."""
    return {"disc": solve_family_member(disc_family(), 0.0, 1.25, (32, 64), cache=SolverCache()),
            "strip": solve_family_member(strip_family(0.5), 0.0, 0.0, (64, 33),
                                         cache=SolverCache())}


def _axis(fld):
    xs, vs = fld.grid.axis(fld.v, fld.v_center)
    periodic = fld.kind == "periodic-strip"
    return xs, vs, periodic, CubicSpline(xs, vs, bc_type="periodic" if periodic else "not-a-knot")


def _assert_same_roots(got, want):
    """The same reports in the same order, NaN where PPoly has NaN, values within TOL."""
    assert got.shape == want.shape
    assert np.array_equal(np.isnan(got), np.isnan(want))
    assert np.all(np.abs(got - want)[~np.isnan(want)] <= TOL)


@pytest.mark.parametrize("kind", ["disc", "strip"])
def test_axis_spline_values_match_cubicspline(fields, kind, rng):
    xs, vs, periodic, ref = _axis(fields[kind])
    if not periodic:
        assert np.ptp(np.diff(xs)) > 1e-3            # the disc's graded rings
    span = xs[-1] - xs[0]
    t = rng.uniform(xs[0] - 0.25 * span, xs[-1] + 0.25 * span, 1000)   # extrapolation too
    err = np.max(np.abs(axis_spline(xs, vs, periodic)(t) - ref(t)))
    assert err <= TOL * np.max(np.abs(vs))


@pytest.mark.parametrize("periodic", [False, True])
def test_axis_spline_refuses_non_finite_values_as_cubicspline_does(periodic):
    x, y = np.linspace(0.0, 2 * np.pi, 9), np.zeros(9)
    y[4] = np.nan
    with pytest.raises(ValueError, match="finite"):
        CubicSpline(x, y, bc_type="periodic" if periodic else "not-a-knot")
    with pytest.raises(ValueError, match="finite"):
        axis_spline(x, y, periodic)


@pytest.mark.parametrize("case", ["disc", "strip", "strip-zeros-on-knots"])
def test_axis_spline_roots_match_ppoly(fields, case):
    xs, vs, periodic, ref = _axis(fields[case.split("-")[0]])
    if case == "strip-zeros-on-knots":
        # the b = 0 zeros at pi/2 and 3 pi/2 are nodes; make v vanish there exactly
        quarter = (xs.size - 1) // 4
        vs = vs.copy()
        vs[[quarter, 3 * quarter]] = 0.0
        ref = CubicSpline(xs, vs, bc_type="periodic")
    ours = axis_spline(xs, vs, periodic)
    for got, y in zip(ours.solve(LEVELS), LEVELS):
        _assert_same_roots(got, ref.solve(y, extrapolate=False))
    _assert_same_roots(ours.derivative().solve([0.0])[0],
                       ref.derivative().roots(extrapolate=False))
    if case == "strip-zeros-on-knots":
        roots = ours.solve([0.0])[0]
        assert [np.count_nonzero(roots == xs[k]) for k in (quarter, 3 * quarter)] == [1, 1]


def test_root_rules_match_ppoly():
    # piece 0: s^3 - s, roots at both knots; pieces 1 and 2 vanish; a jump across x = 4
    x = np.arange(6.0)
    c = np.array([[1.0, 0.0, 0.0, 1.0, 0.0],
                  [0.0, 0.0, 0.0, -1.0, 1.0],
                  [-1.0, 0.0, 0.0, 0.0, -1.0],
                  [0.0, 0.0, 0.0, 0.5, -0.5]])
    ref, ours = PPoly(c, x), PiecewiseCubic(x, c, None)
    levels = [0.0, 0.5, -0.5, 0.25]
    for got, y in zip(ours.solve(levels), levels):
        _assert_same_roots(got, ref.solve(y, extrapolate=False))
    _assert_same_roots(ours.derivative().solve([0.0])[0],
                       ref.derivative().roots(extrapolate=False))
    # the vanishing piece reports its start after the root there, then NaN
    np.testing.assert_array_equal(ours.solve([0.0])[0], [0.0, 1.0, 1.0, np.nan, 2.0, np.nan, 4.0])


@pytest.mark.parametrize("kind", ["disc", "strip"])
@pytest.mark.parametrize("name", ["u", "v"])
def test_bicubic_matches_rectbivariatespline(fields, kind, name, rng):
    fld = fields[kind]
    g, w = fld.grid, getattr(fld, name)
    if kind == "disc":
        rows, cols, period = np.concatenate([[0.0], g.r]), g.theta, 2 * np.pi
        w = np.vstack([np.full(g.M, getattr(fld, name + "_center")), w])
    else:
        rows, cols, period = g.y, g.x, g.P
    # the seam padding that both interpolants share
    padded = np.concatenate([cols[-4:] - period, cols, cols[:4] + period])
    ref = RectBivariateSpline(rows, padded, np.concatenate([w[:, -4:], w, w[:, :4]], axis=1),
                              kx=3, ky=3, s=0)
    # inside the grid's range and up to a quarter of it beyond each edge
    r = rng.uniform(rows[0] - 0.25 * np.ptp(rows), rows[-1] + 0.25 * np.ptp(rows), 1000)
    c = rng.uniform(padded[0] - 0.25 * np.ptp(padded), padded[-1] + 0.25 * np.ptp(padded), 1000)
    err = np.max(np.abs(_periodic_spline(rows, cols, period, w).ev(r, c) - ref.ev(r, c)))
    assert err <= TOL * np.max(np.abs(w))
