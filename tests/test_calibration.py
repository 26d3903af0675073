import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from slfib.calibration import (
    ComplexPoint3,
    FiberChartPoint,
    TangentFrame,
    fiber_points,
    frame_from_chart,
    imomega_residual,
    near_cone_point,
    omega_residual,
    sl_defect,
)
from slfib.elliptic import BoundarySpec, DomainSpec, field_from_callables, solve_disc, solve_strip
from slfib.errors import DegenerateFrame, OutOfDomain
from slfib.models import NaSlice, na_potential_circle

ORIGIN = ComplexPoint3(0j, 0j, 0j)


def real_frame():
    return TangentFrame(ORIGIN, (1, 0, 0), (0, 1, 0), (0, 0, 1))


def test_real_locus_is_special_lagrangian():
    assert omega_residual(real_frame()) == 0.0
    assert imomega_residual(real_frame()) == 0.0


def test_complex_line_pair_saturates_omega():
    frame = TangentFrame(ORIGIN, (1, 0, 0), (1j, 0, 0), (0, 1, 0))
    assert abs(omega_residual(frame) - 1.0) < 1e-15


def test_tilted_plane_imomega():
    frame = TangentFrame(ORIGIN, (np.exp(1j * np.pi / 6), 0, 0), (0, 1, 0), (0, 0, 1))
    assert abs(imomega_residual(frame) - 0.5) < 1e-15
    assert omega_residual(frame) < 1e-15


def test_degenerate_frame_rejected():
    frame = TangentFrame(ORIGIN, (1, 0, 0), (2, 0, 0), (0, 0, 1))
    with pytest.raises(DegenerateFrame):
        omega_residual(frame)
    with pytest.raises(DegenerateFrame):
        imomega_residual(frame)


def test_residuals_invariant_under_permutation():
    rng = np.random.default_rng(3)
    e = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    f1 = TangentFrame(ORIGIN, tuple(e[0]), tuple(e[1]), tuple(e[2]))
    f2 = TangentFrame(ORIGIN, tuple(e[1]), tuple(e[2]), tuple(e[0]))
    f3 = TangentFrame(ORIGIN, tuple(e[1]), tuple(e[0]), tuple(e[2]))
    assert abs(omega_residual(f1) - omega_residual(f2)) < 1e-14
    assert abs(omega_residual(f1) - omega_residual(f3)) < 1e-14
    assert abs(imomega_residual(f1) - imomega_residual(f2)) < 1e-14
    assert abs(imomega_residual(f1) - imomega_residual(f3)) < 1e-14


def test_cone_point_maps_to_symmetric_point():
    p = fiber_points(NaSlice(0.0), FiberChartPoint(1.0, 0.0, 0.0, 0.0))
    assert abs(p.z1 - 1) < 1e-14 and abs(p.z2 - 1) < 1e-14 and abs(p.z3 - 1) < 1e-14


def test_cone_vertex():
    p = fiber_points(NaSlice(0.0), FiberChartPoint(0.0, 0.0, 1.3, 0.0))
    assert p.z1 == 0 and p.z2 == 0 and p.z3 == 0


def test_level_one_membership():
    p = fiber_points(NaSlice(1.0), FiberChartPoint(0.0, 1.0, 0.4, 1.0))
    m1 = abs(p.z1) ** 2 - 1.0
    m2 = abs(p.z2) ** 2 + 1.0
    m3 = abs(p.z3) ** 2 + 1.0
    assert abs(m1 - m2) < 1e-10 and abs(m1 - m3) < 1e-10


@given(
    a=st.floats(-1.5, 1.5),
    x=st.floats(-1.5, 1.5),
    y=st.floats(-1.5, 1.5),
    phase=st.floats(0, 2 * np.pi),
)
@settings(max_examples=150, deadline=None)
@example(a=-1.0, x=5e-324, y=5e-324, phase=0.0)     # |w| subnormal: w / |w| is not a unit
def test_chart_invariants(a, x, y, phase):
    sl = NaSlice(a)
    u, v = sl.uv(x, y)
    p = fiber_points(sl, FiberChartPoint(x, y, phase, a))
    w = p.z1 * p.z2
    assert abs(abs(p.z1) ** 2 - abs(p.z2) ** 2 - 2 * a) < 1e-12 * max(1.0, abs(a))
    assert abs(w.imag - y) < 1e-12 * max(1.0, abs(y))
    assert abs(w.real - float(v)) < 1e-12 * max(1.0, abs(float(v)))


def test_subnormal_w_keeps_level():
    # |w|^2 underflows to a subnormal here; the level must not drift
    for a, y in ((-1.0, 1.9681663861036142e-160), (-0.5, 1e-320), (0.0, 1e-320)):
        p = fiber_points(NaSlice(a), FiberChartPoint(0.0, y, 0.3, a))
        assert abs(abs(p.z1) ** 2 - abs(p.z2) ** 2 - 2 * a) < 1e-12
        assert abs((p.z1 * p.z2).imag - y) < 1e-12


def test_mirror_level_gives_z2_circle():
    p = fiber_points(NaSlice(-0.5), FiberChartPoint(0.0, 0.0, 0.25, -0.5))
    assert p.z1 == 0 and abs(abs(p.z2) ** 2 - 1.0) < 1e-14


def test_frame_on_cone():
    frame = frame_from_chart(NaSlice(0.0), FiberChartPoint(1.0, 0.0, 0.0, 0.0))
    assert omega_residual(frame) < 1e-6
    assert imomega_residual(frame) < 1e-6


def test_frames_on_smooth_fibre(rng):
    sl = NaSlice(0.3)
    for _ in range(25):
        chart = FiberChartPoint(rng.uniform(-1.2, 1.2), rng.uniform(-1.2, 1.2),
                                rng.uniform(0, 2 * np.pi), 0.3)
        frame = frame_from_chart(sl, chart)
        assert omega_residual(frame) < 1e-6
        assert imomega_residual(frame) < 1e-6


def test_exclusion_ball():
    sl = NaSlice(0.0)
    assert near_cone_point(sl, 0.0, 0.0)
    assert near_cone_point(sl, 2e-4, 1e-4)
    assert not near_cone_point(sl, 0.5, 0.0)
    assert not near_cone_point(NaSlice(0.5), 0.0, 0.0)


def test_chart_level_mismatch():
    with pytest.raises(ValueError):
        fiber_points(NaSlice(0.5), FiberChartPoint(0.0, 0.0, 0.0, 0.4))


def test_out_of_domain_chart(disc_field_alpha1):
    with pytest.raises(OutOfDomain):
        fiber_points(disc_field_alpha1,
                     FiberChartPoint(2.0, 0.0, 0.0, disc_field_alpha1.a))


def test_sl_defect_of_a_constant_field():
    dom = DomainSpec.strip(32, 17)
    fld = field_from_callables(dom, 0.7, lambda x, y: 0 * x, lambda x, y: 0 * x + 0.8)
    assert max(sl_defect(fld, 200, np.random.default_rng(0), 0.9)) <= 1e-8


def test_sl_defect_flags_a_non_solution():
    dom = DomainSpec.strip(32, 17)
    fld = field_from_callables(dom, 0.5, lambda x, y: y, lambda x, y: x + 0 * y)
    assert max(sl_defect(fld, 200, np.random.default_rng(0), 0.9)) >= 0.5


@pytest.mark.parametrize("solve, extent", [
    (lambda n: solve_disc(na_potential_circle(0.5), 0.5, DomainSpec.disc(n, 2 * n)), 0.6),
    (lambda n: solve_strip(*(BoundarySpec.make(0.3, cos={1: 0.5}),) * 2, 0.5,
                           DomainSpec.strip(n, n // 2 + 1)), 0.9),
], ids=["disc", "strip"])
def test_sl_defect_of_solved_fields_converges_at_second_order(solve, extent):
    # grids (32, 64) / (64, 128) / (128, 256) and (32, 17) / (64, 33) / (128, 65)
    defects = np.array([sl_defect(solve(n), 200, np.random.default_rng(0), extent)
                        for n in (32, 64, 128)])
    orders = np.log2(defects[:-1] / defects[1:])      # per halving, for omega and Im Omega
    assert np.all(orders >= 1.8), orders
