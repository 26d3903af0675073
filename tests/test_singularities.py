import numpy as np
import pytest

from slfib.elliptic import (
    BoundarySpec,
    DomainSpec,
    field_from_callables,
    solve_disc_limit,
    solve_strip_limit,
)
from slfib.errors import CircleHitsZero, NonisolatedSingularities, ProbeTooClose, WindingUnresolved
from slfib.fibrations import SolverCache, disc_family, solve_family_member, strip_family
from slfib.models import na_oracle_grid
from slfib.singularities import (
    MAX_CIRCLE_SAMPLES,
    SingularPointRecord,
    _axis_spline,
    _sign_label,
    analyze_field,
    bound_check,
    boundary_extrema_count,
    detect_axis_zeros,
    winding_multiplicity,
)

DISC = DomainSpec.disc(48, 96)
STRIP = DomainSpec.strip(64, 33)


def classify_type(field, x_location):
    """Sign-pattern label of v(., 0) on the two sides of an isolated zero."""
    spline, xs = _axis_spline(field)
    return _sign_label(field, spline, xs, x_location, detect_axis_zeros(field)[0])


def oracle_disc_field(negate=False):
    sgn = -1.0 if negate else 1.0
    return field_from_callables(
        DISC, 0.0,
        lambda x, y: sgn * na_oracle_grid(0.0, x, y)[0],
        lambda x, y: sgn * na_oracle_grid(0.0, x, y)[1],
    )


def test_cone_field_single_zero():
    zeros = detect_axis_zeros(oracle_disc_field())[0]
    assert len(zeros) == 1
    assert abs(zeros[0]) < 1e-8


@pytest.mark.parametrize("family, b, resolution", [
    (disc_family(), 1.25, (32, 64)), (strip_family(0.5), -0.16, (64, 33))],
    ids=["disc", "strip"])
def test_interior_zeros_are_roots_of_the_axis_spline(family, b, resolution):
    fld = solve_family_member(family, 0.0, b, resolution, cache=SolverCache())
    zeros = detect_axis_zeros(fld)[0]
    spline = _axis_spline(fld)[0]
    assert len(zeros) == 2
    assert max(abs(float(spline(z))) for z in zeros) <= 1e-14


def test_constant_field_no_zeros():
    fld = field_from_callables(STRIP, 0.0, lambda x, y: 0 * x, lambda x, y: 0 * x + 1.0)
    assert detect_axis_zeros(fld)[0] == []


def test_cone_increasing_type():
    assert classify_type(oracle_disc_field(), 0.0) == "increasing"


def test_mirror_cone_decreasing_type():
    assert classify_type(oracle_disc_field(negate=True), 0.0) == "decreasing"


def test_parabola_maximum_type():
    fld = field_from_callables(DISC, 0.0, lambda x, y: -y,
                               lambda x, y: -(x * x) - 0.05 * y * y)
    zeros = detect_axis_zeros(fld)[0]
    assert len(zeros) == 1 and abs(zeros[0]) < 1e-6
    assert classify_type(fld, zeros[0]) == "maximum"


def test_reflection_swaps_min_max():
    fld = field_from_callables(DISC, 0.0, lambda x, y: -y,
                               lambda x, y: x * x + 0.05 * y * y)
    assert classify_type(fld, detect_axis_zeros(fld)[0][0]) == "minimum"


def test_axis_that_reads_below_the_threshold_throughout_is_nonisolated():
    # v = 1e-12 on the whole disc: every axis value is below the zero threshold
    fld = field_from_callables(DISC, 0.0, lambda x, y: -y,
                               lambda x, y: 0 * x + 1e-12)
    with pytest.raises(NonisolatedSingularities, match="along a stretch of the axis"):
        detect_axis_zeros(fld)


def test_sign_probes_that_read_below_the_floor_raise():
    # an isolated zero at 0 whose axis values stay below PROBE_SIGN_FLOOR at the probes
    fld = field_from_callables(DISC, 0.0, lambda x, y: -y, lambda x, y: 1e-12 * x)
    spline, xs = _axis_spline(fld)
    with pytest.raises(ProbeTooClose):
        _sign_label(fld, spline, xs, 0.0, [0.0])


def _circle_samples(monkeypatch, samples):
    """Make winding_multiplicity read samples(radius, m) in place of the field's difference."""
    import slfib.singularities as sing

    monkeypatch.setattr(sing, "_difference_on_circle",
                        lambda field, x0, radius, m: samples(radius, m))


def _turns(k):
    """The samples of a difference field that turns k times around the circle."""
    def samples(radius, m):
        phis = np.linspace(0.0, 2.0 * np.pi, m, endpoint=False)
        return np.cos(k * phis), np.sin(k * phis)
    return samples


def test_winding_doubles_the_samples_when_a_step_is_too_large(monkeypatch):
    # 50 turns in 128 samples step 2.45 > 0.75 pi; 256 samples step half that
    _circle_samples(monkeypatch, _turns(50))
    assert winding_multiplicity(oracle_disc_field(), 0.0, 0.3) == (50, 256, 0.3)


def test_winding_shrinks_a_circle_that_meets_a_zero(monkeypatch):
    once = _turns(1)
    _circle_samples(monkeypatch, lambda radius, m: (np.zeros(m), np.zeros(m)) if radius > 0.2
                    else once(radius, m))
    assert winding_multiplicity(oracle_disc_field(), 0.0, 0.3) == (1, 128, 0.3 * 0.6)


def test_winding_on_circles_that_all_meet_a_zero_raises(monkeypatch):
    _circle_samples(monkeypatch, lambda radius, m: (np.zeros(m), np.zeros(m)))
    with pytest.raises(CircleHitsZero):
        winding_multiplicity(oracle_disc_field(), 0.0, 0.3)


def test_winding_that_never_settles_raises(monkeypatch):
    # the difference flips direction at every sample, on every circle and sample count
    seen = []
    _circle_samples(monkeypatch, lambda radius, m: seen.append(m) or (
        np.resize([1.0, -1.0], m), np.zeros(m)))
    with pytest.raises(WindingUnresolved):
        winding_multiplicity(oracle_disc_field(), 0.0, 0.3)
    assert max(seen) == MAX_CIRCLE_SAMPLES


def test_winding_of_linear_model():
    # u = -y/2, v = (x - x0)/2 realises a degree-one difference field
    x0 = 0.25
    fld = field_from_callables(DISC, 0.0, lambda x, y: -0.5 * y,
                               lambda x, y: 0.5 * (x - x0))
    for rad in (0.3, 0.15, 0.075):
        mult, samples, used = winding_multiplicity(fld, x0, rad)
        assert mult == 1


def test_winding_on_cone_field():
    fld = oracle_disc_field()
    mult, _, _ = winding_multiplicity(fld, 0.0, 0.3)
    assert mult == 1
    mult_half, _, _ = winding_multiplicity(fld, 0.0, 0.15)
    assert mult_half == 1


def test_winding_circle_that_leaves_the_domain_shrinks():
    # 1.2 leaves the unit disc and 1.5 the strip |y| <= 1; one shrink by 0.6 brings each inside
    assert winding_multiplicity(oracle_disc_field(), 0.0, 1.2) == (1, 128, 0.72)
    fld = field_from_callables(STRIP, 0.0, lambda x, y: y * np.sin(x),
                               lambda x, y: np.cos(x) + 0 * y)
    mult, samples, radius = winding_multiplicity(fld, 0.5 * np.pi, 1.5)
    assert (mult, samples) == (1, 128) and radius == pytest.approx(0.9, abs=1e-12)


def test_nonisolated_detection_by_symmetry():
    fld = field_from_callables(STRIP, 0.0, lambda x, y: 0 * x, lambda x, y: 0.1 * y)
    fld.boundary = {
        "top": BoundarySpec.make(constant=0.1),
        "bottom": BoundarySpec.make(constant=-0.1),
    }
    with pytest.raises(NonisolatedSingularities):
        detect_axis_zeros(fld)


def test_nonisolated_detection_by_magnitude():
    fld = field_from_callables(STRIP, 0.0, lambda x, y: 0 * x, lambda x, y: 1e-9 * y)
    with pytest.raises(NonisolatedSingularities):
        detect_axis_zeros(fld)


@pytest.mark.parametrize("kind", ["disc", "strip"])
def test_nonisolated_detection_on_a_stretch_of_the_axis(kind):
    # v vanishes on a stretch of the axis and nowhere else in particular
    if kind == "disc":
        fld = field_from_callables(DomainSpec.disc(32, 64), 0.0, lambda x, y: -y,
                                   lambda x, y: np.maximum(x - 0.3, 0.0))
    else:
        fld = field_from_callables(STRIP, 0.0, lambda x, y: 0 * x,
                                   lambda x, y: np.maximum(np.cos(x) - 0.5, 0.0) + 0 * y)
    with pytest.raises(NonisolatedSingularities):
        detect_axis_zeros(fld)


def test_tangential_zero_between_spline_roots():
    # v > 0 on the axis, so PPoly.roots finds nothing: the zero is the critical point
    fld = field_from_callables(DISC, 0.0, lambda x, y: -y, lambda x, y: (x - 0.3) ** 2 + 1e-7)
    zeros = detect_axis_zeros(fld)[0]
    assert len(zeros) == 1 and zeros[0] == pytest.approx(0.3, abs=1e-12)


def test_boundary_zeros_are_listed_apart():
    fld = field_from_callables(DISC, 0.0, lambda x, y: -y, lambda x, y: x * x - 1.0)
    assert detect_axis_zeros(fld) == ([], [-1.0, 1.0])


@pytest.mark.parametrize("kind", ["disc", "strip"])
def test_solved_self_reflecting_data_are_nonisolated(kind):
    # pure-sine disc data and strip edges with bottom = -top: the solved v
    # vanishes along the whole axis, which the stretch test reports
    if kind == "disc":
        fld = solve_disc_limit(BoundarySpec.make(sin={1: 1.0, 2: 0.3}),
                               DomainSpec.disc(32, 64))
    else:
        fld = solve_strip_limit(BoundarySpec.make(cos={1: 0.5}, sin={2: 0.2}),
                                BoundarySpec.make(cos={1: -0.5}, sin={2: -0.2}),
                                STRIP)
    with pytest.raises(NonisolatedSingularities):
        detect_axis_zeros(fld)


def test_requires_singular_level(disc_field_alpha1):
    with pytest.raises(ValueError):
        detect_axis_zeros(disc_field_alpha1)


def test_bound_check_cases():
    two_simple = [SingularPointRecord(-0.3, "increasing", 1, 0, 0.0),
                  SingularPointRecord(0.3, "decreasing", 1, 0, 0.0)]
    assert bound_check(two_simple, 3)
    fused = [SingularPointRecord(0.0, "maximum", 2, 0, 0.0)]
    assert bound_check(fused, 3)
    three = two_simple + [SingularPointRecord(0.7, "increasing", 1, 0, 0.0)]
    assert not bound_check(three, 3)
    with pytest.raises(ValueError):
        bound_check([], 0)


def test_parity_invariant():
    assert SingularPointRecord(0.0, "increasing", 1, 0, 0.0).parity_ok()
    assert not SingularPointRecord(0.0, "increasing", 2, 0, 0.0).parity_ok()
    assert SingularPointRecord(0.0, "maximum", 2, 0, 0.0).parity_ok()
    assert not SingularPointRecord(0.0, "minimum", 3, 0, 0.0).parity_ok()
    assert SingularPointRecord(1.0, None, None, 0, 0.0, boundary=True).parity_ok()


def test_boundary_extrema_count():
    # alpha cos - cos(3 theta): three local maxima for moderate alpha
    assert boundary_extrema_count(BoundarySpec.make(cos={1: 1.0, 3: -1.0})) == 3
    # a dominant first harmonic leaves a single maximum
    assert boundary_extrema_count(BoundarySpec.make(cos={1: 10.0, 3: -1.0})) == 1
    assert boundary_extrema_count(BoundarySpec.make(cos={1: 1.0})) == 1


def test_analyze_cone_field():
    report = analyze_field(oracle_disc_field())
    recs = [r for r in report["records"] if not r.boundary]
    assert len(recs) == 1
    assert recs[0].type == "increasing" and recs[0].multiplicity == 1
    assert report["parity_ok"]
    assert recs[0].to_json()["multiplicity"] == 1


def test_boundary_record_json():
    rec = SingularPointRecord(1.0, None, None, 0, 0.0, boundary=True)
    assert rec.to_json()["multiplicity"] == "undefined-at-boundary"


def test_analyze_boundary_zeros_and_the_bound_from_circle_data():
    # v vanishes only where the axis meets the circle; l counts the maxima of the data
    fld = field_from_callables(DISC, 0.0, lambda x, y: -y, lambda x, y: x * x - 1.0)
    fld.boundary = {"circle": BoundarySpec.make(cos={1: 1.25, 3: -1.0})}
    report = analyze_field(fld)
    recs = [r.to_json() for r in report["records"]]
    assert [(r["x_location"], r["boundary"], r["multiplicity"]) for r in recs] == [
        (-1.0, True, "undefined-at-boundary"), (1.0, True, "undefined-at-boundary")]
    assert report["l"] == 3 and report["bound_ok"] is True and report["parity_ok"] is True


def test_analyze_detects_axis_zeros_once(monkeypatch):
    import slfib.singularities as sing

    fld = field_from_callables(STRIP, 0.0, lambda x, y: y * np.sin(x),
                               lambda x, y: np.cos(x) + 0 * y)
    calls = []
    detect = sing.detect_axis_zeros

    def counted(*args, **kwargs):
        calls.append(args)
        return detect(*args, **kwargs)

    monkeypatch.setattr(sing, "detect_axis_zeros", counted)
    report = analyze_field(fld)
    assert len(calls) == 1
    recs = [(r.x_location, r.type, r.multiplicity) for r in report["records"]]
    assert [(t, m) for _, t, m in recs] == [("decreasing", 1), ("increasing", 1)]
    assert np.allclose([x for x, _, _ in recs], [0.5 * np.pi, 1.5 * np.pi], atol=1e-7)
    # classify_type gives the same labels from its own detection
    assert [classify_type(fld, x) for x, _, _ in recs] == ["decreasing", "increasing"]


@pytest.mark.parametrize("family, b, resolution", [
    (disc_family(), 1.25, (32, 64)), (strip_family(0.5), -0.16, (64, 33))],
    ids=["disc", "strip"])
def test_analyze_builds_one_axis_spline_per_field(family, b, resolution, monkeypatch):
    import slfib.singularities as sing

    fld = solve_family_member(family, 0.0, b, resolution, cache=SolverCache())
    calls = []
    build = sing.axis_spline

    def counted(*args):
        calls.append(args)
        return build(*args)

    monkeypatch.setattr(sing, "axis_spline", counted)
    first = analyze_field(fld)
    assert len(calls) == 1
    second = analyze_field(fld)                 # the field keeps its spline
    assert len(calls) == 1
    assert second["records"] == first["records"] and len(first["records"]) == 2
