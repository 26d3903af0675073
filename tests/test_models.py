from decimal import Decimal, localcontext

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from slfib.calibration import FiberChartPoint, fiber_points
from slfib.models import (
    BaseCoordHL,
    NaSlice,
    explicit_F,
    explicit_Fprime,
    hl_discriminant_contains,
    hl_map,
    na_oracle,
    na_oracle_grid,
    na_potential_circle,
)


def u_slice(a, s):
    """Axis value u_a(0, s) = -s (|a| + sqrt(s^2 + a^2))^{-1/2}."""
    s = np.asarray(s, dtype=float)
    denom = np.sqrt(abs(a) + np.hypot(s, a))
    with np.errstate(invalid="ignore", divide="ignore"):
        out = np.where(denom > 0.0, -s / np.where(denom > 0.0, denom, 1.0), 0.0)
    return out if out.ndim else float(out)


def v_slice(a, s):
    """Axis value v_a(s, 0) = s (s^2 + 2|a|)^{1/2}."""
    return s * np.sqrt(s * s + 2.0 * abs(a))


class P:
    def __init__(self, z1, z2, z3):
        self.z1, self.z2, self.z3 = complex(z1), complex(z2), complex(z3)


def test_hl_map_symmetric_point():
    b = hl_map(P(1, 1, 1))
    assert (b.t1, b.t2, b.t3) == (0.0, 0.0, 0.0)


def test_hl_map_direct():
    b = hl_map(P(1, 0, 0))
    assert (b.t1, b.t2, b.t3) == (1.0, 1.0, 0.0)


def test_hl_map_hits_discriminant_ray():
    b = hl_map(P(0, 0, 1j))
    assert (b.t1, b.t2, b.t3) == (0.0, -1.0, 0.0)
    assert hl_discriminant_contains(b, 1e-9)


def test_discriminant_rays():
    assert hl_discriminant_contains(BaseCoordHL(2.0, 2.0, 0.0), 1e-9)
    assert hl_discriminant_contains(BaseCoordHL(0.0, 0.0, 0.0), 1e-9)
    assert not hl_discriminant_contains(BaseCoordHL(1.0, 0.0, 0.0), 1e-9)
    with pytest.raises(ValueError):
        hl_discriminant_contains(BaseCoordHL(0, 0, 0), 0.0)


def test_oracle_vertical_slice_value():
    u, v = na_oracle(1.0, 0.0, 1.0)
    assert v == 0.0
    assert abs(u - (-(1.0 + np.sqrt(2.0)) ** -0.5)) < 1e-12


def test_oracle_horizontal_slice_value():
    u, v = na_oracle(0.0, 1.0, 0.0)
    assert (u, v) == (0.0, 1.0)
    assert abs(v_slice(1.0, 1.0) - np.sqrt(3.0)) < 1e-14


def test_oracle_origin():
    assert na_oracle(0.0, 0.0, 0.0) == (0.0, 0.0)


@pytest.mark.parametrize("a, x, y", [
    (float("nan"), 1.0, 0.0), (float("inf"), 1.0, 0.0),
    (0.5, [0.0, float("nan")], 0.0), (0.5, 0.0, [1.0, -float("inf")]),
])
def test_oracle_rejects_non_finite_input(a, x, y):
    with pytest.raises(ValueError, match="finite"):
        na_oracle_grid(a, x, y)


def test_slice_formulas():
    assert u_slice(0.0, 1.0) == -1.0
    assert v_slice(0.7, 0.0) == 0.0
    assert v_slice(2.0, -0.3) == -v_slice(2.0, 0.3)


@given(
    a=st.floats(-2, 2),
    x=st.floats(-2, 2),
    y=st.floats(-2, 2),
)
@settings(max_examples=200, deadline=None)
def test_oracle_solves_the_system(a, x, y):
    u, v = na_oracle(a, x, y)
    q = x * x + u * u + abs(a)
    assert abs(v * v + y * y - q * q + a * a) < 1e-13 * max(1.0, q * q)
    assert abs(u * v + x * y) < 1e-13 * max(1.0, abs(x * y))
    # sign pattern of the graph functions
    if x > 1e-12:
        assert v >= 0.0
    if x < -1e-12:
        assert v <= 0.0
    if y > 1e-12:
        assert u <= 0.0
    if y < -1e-12:
        assert u >= 0.0


def _cubic_root_reference(a, x, y):
    """(u, v) from the positive root s = u^2 of the unfactored cubic, bisected at 60 digits."""
    with localcontext() as ctx:
        ctx.prec = 60
        a, x, y = abs(Decimal(a)), Decimal(x), Decimal(y)
        big_a = x * x + a

        def cubic(s):
            return ((s + 2 * big_a) * s + big_a * big_a - a * a - y * y) * s - x * x * y * y

        lo, hi = Decimal("1e-40"), Decimal("1e3")
        assert cubic(lo) < 0 < cubic(hi)
        while hi - lo > Decimal("1e-30") * hi:
            # geometric midpoints down to one octave, then arithmetic ones
            mid = (lo * hi).sqrt() if hi > 2 * lo else (lo + hi) / 2
            lo, hi = (mid, hi) if cubic(mid) < 0 else (lo, mid)
        u = -lo.sqrt() if y > 0 else lo.sqrt()
        return u, -x * y / u


def test_oracle_matches_a_decimal_reference_over_scales():
    # log sweep of the level and of both coordinates' scales, in two sign quadrants
    scales = 10.0 ** np.arange(-11, 2, 2)
    worst = 0.0
    for a in (0.0, 1e-12, 1e-6, 1e-3, 0.05, 0.5, 1.0, 30.0):
        for sx in (1.0, -1.0):
            x, y = np.meshgrid(sx * scales, scales)
            u, v = na_oracle_grid(a, x, y)
            for xi, yi, ui, vi in zip(x.flat, y.flat, u.flat, v.flat):
                u_ref, v_ref = _cubic_root_reference(a, xi, yi)
                worst = max(worst, float(abs((Decimal(ui) - u_ref) / u_ref)),
                            float(abs((Decimal(vi) - v_ref) / v_ref)))
    assert worst <= 1e-14


@given(a=st.floats(0.0, 2.0), x=st.floats(-2, 2), y=st.floats(-2, 2))
@example(a=0.0, x=5.225640366801124e-56, y=8.387162137505782e-114)  # x^2 y^2 underflows
@settings(max_examples=60, deadline=None)
def test_oracle_even_in_a(a, x, y):
    assert na_oracle(a, x, y) == na_oracle(-a, x, y)


@pytest.mark.parametrize("a", [0.0, 0.5, 1.0, 2.0])
def test_axis_agreement(a):
    s = np.linspace(-3.0, 3.0, 41)
    u, v = na_oracle_grid(a, s, np.zeros_like(s))
    assert np.max(np.abs(v - v_slice(a, s))) < 1e-10
    assert np.max(np.abs(u)) < 1e-14
    u, v = na_oracle_grid(a, np.zeros_like(s), s)
    assert np.max(np.abs(u - u_slice(a, s))) < 1e-10
    assert np.max(np.abs(v)) < 1e-14


def test_explicit_f_on_axis_fibre():
    b = explicit_F(P(0, 0, 0.5j))
    assert b.a == 0.0 and b.c == 0.5j


def test_explicit_f_kills_correction_when_z2_zero():
    b = explicit_F(P(1, 0, 0))
    assert b.a == 0.5 and b.c == 0.0


def test_explicit_f_zero_guard():
    # a >= 0 with z1 = 0 can only happen when z2 = 0 as well
    b = explicit_F(P(0, 0, 2 + 1j))
    assert b.c == 2 + 1j


@pytest.mark.parametrize("negate,fib", [(False, explicit_F), (True, explicit_Fprime)])
def test_translated_fibre_roundtrip(negate, fib, rng):
    a, c = 0.3, 0.1 + 0.2j
    sl = NaSlice(a, c, negate=negate)
    for _ in range(20):
        x, y = rng.uniform(-1.5, 1.5, 2)
        phase = rng.uniform(0, 2 * np.pi)
        p = fiber_points(sl, FiberChartPoint(x, y, phase, a))
        base = fib(p)
        assert abs(base.a - a) < 1e-9
        assert abs(base.c - c) < 1e-9


def test_fibration_property_random(rng):
    for _ in range(50):
        a = rng.uniform(-1, 1)
        c = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
        x, y = rng.uniform(-1.5, 1.5, 2)
        phase = rng.uniform(0, 2 * np.pi)
        p = fiber_points(NaSlice(a, c), FiberChartPoint(x, y, phase, a))
        base = explicit_F(p)
        assert abs(base.a - a) < 1e-9 and abs(base.c - c) < 1e-9
        p = fiber_points(NaSlice(a, c, negate=True), FiberChartPoint(x, y, phase, a))
        base = explicit_Fprime(p)
        assert abs(base.a - a) < 1e-9 and abs(base.c - c) < 1e-9


@pytest.mark.parametrize("a,expected", [(0.6, (1.2, 1.2, 0.0)), (-0.4, (-0.8, 0.0, 0.0))])
def test_quadratic_map_constant_on_fibres(a, expected, rng):
    sl = NaSlice(a)
    for _ in range(15):
        x, y = rng.uniform(-1.2, 1.2, 2)
        p = fiber_points(sl, FiberChartPoint(x, y, rng.uniform(0, 6.28), a))
        b = hl_map(p)
        assert np.allclose((b.t1, b.t2, b.t3), expected, atol=1e-9)


def test_continuity_and_kink_across_equal_moduli():
    # along z1 = (1+s), z2 = 1, z3 = 0 the base point is continuous at
    # s = 0 but its s-derivative jumps by 1
    def b_of(s):
        return explicit_F(P(1.0 + s, 1.0, 0.0)).c

    eps = 1e-9
    assert abs(b_of(eps) - b_of(-eps)) < 1e-8
    h = 1e-5
    slope_right = (b_of(2 * h) - b_of(h)) / h
    slope_left = (b_of(-h) - b_of(-2 * h)) / h
    assert abs(slope_right - slope_left) > 0.5


def test_potential_circle_matches_quadrature():
    spec = na_potential_circle(0.5)
    assert not spec.sin_coeffs  # the slice graph is even in x
    # direct numeric integral of the tangential gradient up to theta
    thetas = np.array([0.7, 1.9, 4.1])
    tau = np.linspace(0, 2 * np.pi, 20001)
    u, v = na_oracle_grid(0.5, np.cos(tau), np.sin(tau))
    g = -v * np.sin(tau) + u * np.cos(tau)
    from scipy.integrate import cumulative_trapezoid

    f_ref = cumulative_trapezoid(g, tau, initial=0.0)
    ref = np.interp(thetas, tau, f_ref)
    got = spec.sample(thetas) - spec.sample(np.array([0.0]))
    assert np.max(np.abs(got - ref)) < 1e-6  # reference trapezoid accuracy
