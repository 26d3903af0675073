import math

import numpy as np
import pytest

from slfib.calibration import ComplexPoint3, FiberChartPoint, fiber_points
from slfib.elliptic import (
    DEFAULT_A_MIN,
    BoundarySpec,
    DomainSpec,
    StripGrid,
    disc_grid,
    solve_disc,
    solve_disc_limit,
    solve_strip,
    solve_strip_limit,
)
from slfib.errors import BracketFailed, OutsideTotalSpace, SolverDiverged
from slfib.fibrations import (
    BISECT_MAX_ITER,
    BRACKET_MAX,
    DiscriminantRibbon,
    FamilySpec,
    SolverCache,
    _bisect,
    _grown_bracket,
    _probe,
    alpha_beta_curves,
    disc_family,
    find_alpha0_alpha1,
    project_to_base,
    ribbon_report,
    solve_family_member,
    strip_family,
)
from slfib.singularities import detect_axis_zeros

from ladder import kept_levels

DISC_RES = (24, 48)
STRIP_RES = (48, 25)


def test_family_validation():
    with pytest.raises(ValueError):
        FamilySpec("circle-sweep", (), ())


def test_disc_family_boundary():
    spec, = disc_family().boundary(2.0)
    assert dict(spec.cos_coeffs) == {1: 2.0, 3: -1.0}


def test_strip_family_boundary():
    top, bottom = strip_family(0.5).boundary(1.0)
    assert top == bottom and StripGrid.reflections(top, bottom)[1] == 1
    assert top.constant == 1.0 and dict(top.cos_coeffs) == {1: 0.5}


@pytest.mark.parametrize("b", [0.0, -0.0, 1.25, -3.5])
@pytest.mark.parametrize("t", [0.0, 0.5])
def test_family_data_are_the_sweeps_data(b, t):
    # the data as the sweeps wrote them before families were affine data
    assert disc_family().boundary(b) == (BoundarySpec.make(cos={1: b, 3: -1.0}),)
    spec = BoundarySpec.make(constant=b, cos={1: t} if t else None)
    assert strip_family(t).boundary(b) == (spec, spec)


def test_equal_families_share_a_lane():
    first, second = strip_family(0.5), strip_family(0.5)
    assert first == second and first is not second
    cache = SolverCache()
    solve_family_member(first, 0.0, 0.25, STRIP_RES, cache)
    solve_family_member(second, 0.0, 0.25, STRIP_RES, cache)
    fld = solve_family_member(second, 0.0, 0.125, STRIP_RES, cache)
    assert (cache.misses, cache.hits, cache.warm_starts) == (2, 1, 1)
    assert fld.diagnostics["warm_seed"] == 0.25


def test_vhat_probe_boundary_value():
    # alpha + 3 up to discretisation error at this deliberately small grid
    fld = solve_family_member(disc_family(), 1.0, 1.0, DISC_RES, cache=SolverCache())
    val = fld.uv(0.0, 1.0)[1]
    assert abs(val - 4.0) < 1e-1


def test_vhat_probe_even_in_x():
    cache = SolverCache()
    v1 = solve_family_member(disc_family(), 1.0, 0.5, DISC_RES, cache=cache).uv(0.4, 0.0)[1]
    v2 = solve_family_member(disc_family(), 1.0, 0.5, DISC_RES, cache=cache).uv(-0.4, 0.0)[1]
    assert abs(v1 - v2) < 1e-8
    assert cache.misses == 1 and cache.hits == 1


@pytest.mark.parametrize("kind, point", [("disc", (1.0, 0.0)), ("strip", (np.pi, 0.0))])
def test_probe_evaluates_only_v(kind, point):
    fam, res = (disc_family(), DISC_RES) if kind == "disc" else (strip_family(0.5), STRIP_RES)
    cache = SolverCache()
    val = _probe(fam, 0.0, point, res, cache)(0.25)
    fld = solve_family_member(fam, 0.0, 0.25, res, cache)
    assert (cache.misses, cache.hits) == (1, 1)
    # the point is a node: the probe read it and built no interpolant
    assert "u" not in fld._interp and "v" not in fld._interp
    xg, yg = fld.grid.nodes()
    node = (xg == point[0]) & (yg == point[1])
    assert np.count_nonzero(node) == 1
    assert val == float(fld.v[node][0])
    # the interpolant passes through the node up to round-off
    assert val == pytest.approx(float(fld.uv(*point)[1]), rel=1e-14, abs=0.0)


def test_probe_off_the_nodes_evaluates_the_interpolant():
    fam, point = strip_family(0.5), (1.0, 0.1)
    cache = SolverCache()
    val = _probe(fam, 0.0, point, STRIP_RES, cache)(0.25)
    fld = solve_family_member(fam, 0.0, 0.25, STRIP_RES, cache)
    assert "u" not in fld._interp and "v" in fld._interp
    assert val == float(fld.uv(*point)[1])


def test_a_warm_strip_probe_builds_no_u(monkeypatch):
    from slfib import elliptic

    calls = []
    eager = elliptic.reconstruct_u
    monkeypatch.setattr(elliptic, "reconstruct_u", lambda fld: calls.append(fld) or eager(fld))
    fam, cache = strip_family(0.5), SolverCache()
    probe = _probe(fam, 0.0, (0.0, 0.0), STRIP_RES, cache)
    probe(0.25)                   # a cold continuation
    calls.clear()
    probe(0.125)
    fld = solve_family_member(fam, 0.0, 0.125, STRIP_RES, cache)
    assert cache.warm_starts == 1 and calls == []
    assert "u" not in vars(fld)


def test_project_strip_trivial_family():
    # constant edge data: v = b and u = 0, so the projection is explicit
    p = ComplexPoint3(1 + 0j, 1 + 0j, 1j)
    coords = project_to_base(p, strip_family(0.0), STRIP_RES, cache=SolverCache())
    assert abs(coords.a - 0.0) < 1e-12
    assert abs(coords.b - 1.0) < 1e-6
    assert abs(coords.c - 1.0) < 1e-6


def test_project_outside_total_space():
    p = ComplexPoint3(1 + 0j, 1 + 0j, 3 + 2j)
    with pytest.raises(OutsideTotalSpace):
        project_to_base(p, disc_family(), DISC_RES)
    big_y = ComplexPoint3(2 + 0j, 2j, 0j)  # Im z1 z2 = 4 > R
    with pytest.raises(OutsideTotalSpace):
        project_to_base(big_y, strip_family(0.0), STRIP_RES)


def test_project_roundtrip_strip_deformed(monkeypatch):
    import slfib.fibrations as fib

    cache = SolverCache()
    fam = strip_family(0.4)
    a, b = 0.3, 0.25
    fld = solve_family_member(fam, a, b, STRIP_RES, cache=cache)
    chart = FiberChartPoint(0.7, 0.15, 1.1, a)
    u, v = fld.uv(chart.x, chart.y)
    p = fiber_points(fld, chart)
    monkeypatch.setattr(fib, "ROOT_TOL", 1e-7)
    coords = project_to_base(p, fam, STRIP_RES, cache=cache)
    assert abs(coords.a - a) < 1e-12
    assert abs(coords.b - b) < 1e-6
    assert abs(coords.c - 0.0) < 1e-6


def test_projection_distinct_fibres_disjoint():
    cache = SolverCache()
    fam = strip_family(0.0)
    out = set()
    for b in (0.2, 0.5, 0.9):
        fld = solve_family_member(fam, 0.25, b, STRIP_RES, cache=cache)
        p = fiber_points(fld, FiberChartPoint(0.3, 0.1, 0.2, 0.25))
        coords = project_to_base(p, fam, STRIP_RES, cache=cache)
        out.add(round(coords.b, 5))
    assert len(out) == 3


def test_alpha_beta_start_at_zero():
    rows = alpha_beta_curves([0.0], STRIP_RES, cache=SolverCache())
    t, alpha_t, beta_t = rows[0]
    assert abs(alpha_t) < 1e-4 and abs(beta_t) < 1e-4


def test_ribbon_reports():
    ribbon = ribbon_report(disc_family(), (0.19, 2.94))
    assert ribbon.endpoint_kind == ("fold-boundary", "domain-boundary")
    assert ribbon.c_range == "all-reals"
    assert ribbon.counts == (0, 1, 2)
    assert abs(ribbon.b_interval[1] - ribbon.b_interval[0] - 2.75) < 1e-12
    degenerate = ribbon_report(strip_family(0.0), (0.0, 0.0))
    assert degenerate.degenerate
    wide = ribbon_report(strip_family(1.0), (-0.3, 0.3))
    assert not wide.degenerate and wide.endpoint_kind == ("fold-boundary",) * 2


def test_strip_ribbon_within_the_edge_tolerance_is_degenerate():
    # edges bisected to CURVE_TOL cannot tell a band narrower than it from a line
    assert ribbon_report(strip_family(1e-5), (-4e-6, 4e-6)).degenerate


def test_singular_count_profile_across_the_band(monkeypatch):
    import slfib.fibrations as fib

    # axis-zero counts just outside the band, at both edges and at its midpoint
    res, cache = (32, 17), SolverCache()
    monkeypatch.setattr(fib, "CURVE_TOL", 1e-9)
    (_, alpha, beta), = alpha_beta_curves([0.5], res, cache=cache)
    delta = max(0.05 * (beta - alpha), 1e-3)
    samples = [alpha - delta, alpha, 0.5 * (alpha + beta), beta, beta + delta]
    counts = [len(detect_axis_zeros(
        solve_family_member(strip_family(0.5), 0.0, b, res, cache))[0])
        for b in samples]
    assert counts == [0, 1, 2, 1, 0]
    assert alpha < 0.0 < beta
    assert abs(alpha + beta) <= 1e-9
    assert samples[0] < alpha and samples[4] > beta


def test_find_alpha0_alpha1_on_the_coarse_disc():
    # the seed-0 roots of the disc bifurcation benchmark, at its grid and default bracket
    alpha0, alpha1 = find_alpha0_alpha1(resolution=(32, 64), cache=SolverCache())
    assert alpha0 == pytest.approx(0.17611533403396606, abs=1e-6)
    assert alpha1 == pytest.approx(2.2415325045585632, abs=1e-6)


def test_find_alpha0_alpha1_needs_a_sign_change():
    with pytest.raises(BracketFailed):
        find_alpha0_alpha1(resolution=(32, 64), bracket=(5.0, 10.0), cache=SolverCache())


def test_find_alpha0_alpha1_refuses_roots_out_of_order(monkeypatch):
    import slfib.fibrations as fib

    # probes whose root at the centre (b = 1) lies above the one at (1, 0) (b = -1)
    monkeypatch.setattr(fib, "_probe",
                        lambda family, a, point, *rest: lambda b: b - 1.0 + 2.0 * point[0])
    with pytest.raises(BracketFailed, match="out of order") as info:
        find_alpha0_alpha1(resolution=(32, 64))
    assert info.value.data["alpha0"] > info.value.data["alpha1"]


def test_bisect_bracket_failure():
    from slfib.fibrations import _bisect

    with pytest.raises(BracketFailed):
        _bisect(lambda b: 1.0 + 0.0 * b, -1.0, 1.0, 1e-6)


def _counted(fn):
    """fn, and the list of the points it was called at."""
    calls = []
    return (lambda b: calls.append(b) or fn(b)), calls


def test_grown_bracket_grows_past_its_first_half_width():
    fn, calls = _counted(lambda b: b - 5.0)
    root = _grown_bracket(fn, 1e-9)
    assert abs(root - 5.0) < 1e-9
    # [-2, 2] and [-4, 4] hold no sign change; [-8, 8] is bisected
    assert calls[:6] == [-2.0, 2.0, -4.0, 4.0, -8.0, 8.0]


def test_grown_bracket_fails_at_the_largest_bracket():
    fn, calls = _counted(lambda b: 1.0)
    with pytest.raises(BracketFailed) as info:
        _grown_bracket(fn, 1e-9)
    assert info.value.data["b_max"] == BRACKET_MAX
    assert max(calls) == BRACKET_MAX and min(calls) == -BRACKET_MAX


@pytest.mark.parametrize("root", [-1.0, 1.0])
def test_bisect_returns_an_endpoint_that_is_an_exact_zero(root):
    fn, calls = _counted(lambda b: b - root)
    assert _bisect(fn, -1.0, 1.0, 1e-6) == root
    assert calls == [-1.0, 1.0]


def test_bisect_stops_after_its_iteration_budget_within_one_ulp():
    # no float squares to exactly 2, so with tol = 0 only the budget ends the search
    fn, calls = _counted(lambda b: b * b - 2.0)
    root = _bisect(fn, 1.0, 2.0, 0.0)
    assert len(calls) == 2 + BISECT_MAX_ITER
    assert abs(root - math.sqrt(2.0)) <= math.ulp(math.sqrt(2.0))


def test_project_at_the_disc_pole_reads_the_centre_value():
    # z1 = z2 = 1, z3 = 0: the pole (0, 0) at level 0, where v(0, 0) = Re z1 z2 = 1
    cache = SolverCache()
    coords = project_to_base(ComplexPoint3(1 + 0j, 1 + 0j, 0j), disc_family(), (32, 64),
                             cache=cache)
    fld = solve_family_member(disc_family(), 0.0, coords.b, (32, 64), cache=cache)
    assert coords.a == 0.0
    assert abs(coords.b - 1.05264) < 1e-5
    assert abs(fld.v_center - 1.0) < 1e-5
    assert coords.c == -fld.u_center
    assert "u" not in fld._interp               # the centre value, not the interpolant


def test_cache_disk_layer(tmp_path, monkeypatch):
    monkeypatch.setenv("SLFIB_CACHE_DIR", str(tmp_path))
    fam = strip_family(0.0)
    c1 = SolverCache()
    fld1 = solve_family_member(fam, 0.5, 0.7, STRIP_RES, cache=c1)
    assert len(list(tmp_path.iterdir())) == 1
    c2 = SolverCache()
    fld2 = solve_family_member(fam, 0.5, 0.7, STRIP_RES, cache=c2)
    assert c2.misses == 0  # served from disk
    assert c2.hits == 1
    assert np.array_equal(fld1.v, fld2.v)


def test_cache_disk_key_has_solver_version(tmp_path, monkeypatch):
    import slfib.fibrations as fib

    monkeypatch.setenv("SLFIB_CACHE_DIR", str(tmp_path))
    fam = strip_family(0.0)
    solve_family_member(fam, 0.5, 0.7, STRIP_RES, cache=SolverCache())
    assert [p.suffix for p in tmp_path.iterdir()] == [".csv"]   # no temp file left
    monkeypatch.setattr(fib, "SOLVER_VERSION", "older-solver")
    c2 = SolverCache()
    solve_family_member(fam, 0.5, 0.7, STRIP_RES, cache=c2)
    assert c2.misses == 1
    assert sorted(p.suffix for p in tmp_path.iterdir()) == [".csv", ".csv"]


def test_cache_lru_eviction(monkeypatch):
    import slfib.fibrations as fib

    monkeypatch.setattr(fib, "CACHE_SIZE", 2)
    cache = SolverCache()
    fam = strip_family(0.0)
    for b in (0.1, 0.2, 0.3):
        solve_family_member(fam, 0.5, b, STRIP_RES, cache=cache)
    assert len(cache._store) == 2


def test_cache_evicts_the_least_recently_used(monkeypatch):
    import slfib.fibrations as fib

    monkeypatch.setattr(fib, "CACHE_SIZE", 2)
    cache, fam = SolverCache(), strip_family(0.0)
    for b in (0.1, 0.2, 0.1, 0.3):             # the hit on 0.1 makes 0.2 the oldest
        solve_family_member(fam, 0.5, b, STRIP_RES, cache=cache)
    assert sorted(b for _, (_, b) in cache._store) == [0.1, 0.3]
    assert (cache.hits, cache.misses) == (1, 3)


def test_cache_disk_keeps_diagnostics(tmp_path, monkeypatch):
    monkeypatch.setenv("SLFIB_CACHE_DIR", str(tmp_path))
    fam = strip_family(0.5)
    fld1 = solve_family_member(fam, 0.0, 0.2, STRIP_RES, cache=SolverCache())
    c2 = SolverCache()
    fld2 = solve_family_member(fam, 0.0, 0.2, STRIP_RES, cache=c2)
    assert c2.misses == 0  # served from disk
    kept_levels(fld1)
    assert fld2.cauchy_increments == fld1.cauchy_increments
    assert fld2.diagnostics["levels"] == fld1.diagnostics["levels"]
    assert fld2.diagnostics == fld1.diagnostics


# warm starts in the family parameter

def _max_diff(f1, f2):
    return max(np.max(np.abs(f1.u - f2.u)), np.max(np.abs(f1.v - f2.v)))


@pytest.mark.parametrize("kind, seed_b, b, res", [
    ("disc", 1.25, 0.625, (32, 64)), ("disc", 2.5, 2.1875, (32, 64)),
    ("disc", 1.25, 0.625, (32, 62)),          # the domain rounds 62 angles up to 64
    ("strip", 0.25, 0.125, (64, 33))],
    ids=["disc-1.25-0.625", "disc-2.5-2.1875", "disc-1.25-0.625-62-angles", "strip-0.25-0.125"])
def test_warm_start_matches_the_full_continuation(kind, seed_b, b, res):
    if kind == "disc":
        fam = disc_family()
        ref = solve_disc_limit(*fam.boundary(b), DomainSpec.disc(*res))
    else:
        fam = strip_family(0.5)
        ref = solve_strip_limit(*fam.boundary(b), DomainSpec.strip(*res))
    cache = SolverCache()
    seed = solve_family_member(fam, 0.0, seed_b, res, cache=cache)
    fld = solve_family_member(fam, 0.0, b, res, cache=cache)
    assert (cache.misses, cache.warm_starts, cache.warm_fallbacks) == (2, 1, 0)
    assert "warm_seed" not in seed.diagnostics
    kept_levels(seed)
    assert fld.diagnostics["warm_seed"] == seed_b
    assert fld.cauchy_increments == ()
    assert fld.is_limit and fld.converged
    (level,) = fld.diagnostics["levels"]
    assert level["a"] == DEFAULT_A_MIN == fld.a
    assert _max_diff(fld, ref) <= 1e-11


@pytest.mark.parametrize("failure", ["diverges", "stagnates"])
def test_warm_start_falls_back_to_the_full_schedule(failure, monkeypatch):
    import slfib.fibrations as fib

    # the unpatched jump 0 -> 0.3125 also fails; the patch makes it fail everywhere
    attempts = []

    def failing_solve_disc(*args, **kwargs):
        attempts.append(args)
        if failure == "diverges":
            raise SolverDiverged("forced", residual=1.0, iterations=0)
        fld = solve_disc(*args, **kwargs)
        fld.converged = False
        return fld

    fam, res = disc_family(), (32, 64)
    cache = SolverCache()
    solve_family_member(fam, 0.0, 0.0, res, cache=cache)
    monkeypatch.setattr(fib, "solve_disc", failing_solve_disc)
    fld = solve_family_member(fam, 0.0, 0.3125, res, cache=cache)
    ref = solve_disc_limit(*fam.boundary(0.3125), DomainSpec.disc(*res))
    assert len(attempts) == 1
    assert (cache.misses, cache.warm_starts, cache.warm_fallbacks) == (2, 0, 1)
    assert "warm_seed" not in fld.diagnostics
    assert np.array_equal(fld.f, ref.f) and np.array_equal(fld.v, ref.v)
    assert fld.cauchy_increments == ref.cauchy_increments
    assert fld.diagnostics["levels"] == kept_levels(ref)


@pytest.mark.parametrize("kind, b1, b2, b", [
    ("disc", 1.25, 2.5, 1.875), ("strip", 0.0, 0.25, 0.125)])
def test_two_sided_start_matches_the_full_continuation(kind, b1, b2, b):
    # disc: the one-sided start from 1.25 diverges, the interpolant converges
    if kind == "disc":
        fam, res = disc_family(), (32, 64)
        ref = solve_disc_limit(*fam.boundary(b), DomainSpec.disc(*res))
    else:
        fam, res = strip_family(0.5), (64, 33)
        ref = solve_strip_limit(*fam.boundary(b), DomainSpec.strip(*res))
    cache = SolverCache()
    for seed_b in (b1, b2):
        solve_family_member(fam, 0.0, seed_b, res, cache=cache)
    fld = solve_family_member(fam, 0.0, b, res, cache=cache)
    assert fld.diagnostics["warm_seed"] == (b1, b2)
    assert fld.cauchy_increments == ()
    assert fld.is_limit and fld.converged
    assert _max_diff(fld, ref) <= 1e-11


def test_warm_attempts_run_interpolant_then_nearer_then_farther(monkeypatch):
    import slfib.fibrations as fib

    attempts = []

    def failing_solve_disc(*args, **kwargs):
        attempts.append((args[1], kwargs["initial"]))
        raise SolverDiverged("forced", residual=1.0, iterations=0)

    fam, res, b = disc_family(), (32, 64), 0.25
    cache = SolverCache()
    lo = solve_family_member(fam, 0.0, 0.0, res, cache=cache)
    hi = solve_family_member(fam, 0.0, 1.0, res, cache=cache)
    fallbacks = cache.warm_fallbacks
    monkeypatch.setattr(fib, "solve_disc", failing_solve_disc)
    fld = solve_family_member(fam, 0.0, b, res, cache=cache)
    ref = solve_disc_limit(*fam.boundary(b), DomainSpec.disc(*res))

    r, theta = lo.grid.r, lo.grid.theta
    shift = r[:-1, None] * np.cos(theta)
    expected = [0.75 * lo.f[:-1] + 0.25 * hi.f[:-1],      # interpolant, w = 0.25
                lo.f[:-1] + b * shift,                    # nearer neighbour, b' = 0
                hi.f[:-1] + (b - 1.0) * shift]            # farther neighbour, b' = 1
    assert len(attempts) == 3
    for (level, initial), want in zip(attempts, expected):
        assert level == DEFAULT_A_MIN
        assert np.max(np.abs(initial - want)) <= 1e-13
    assert cache.warm_fallbacks == fallbacks + 1
    assert "warm_seed" not in fld.diagnostics
    assert np.array_equal(fld.f, ref.f) and np.array_equal(fld.v, ref.v)
    assert fld.cauchy_increments == ref.cauchy_increments
    kept_levels(fld)


def test_a_one_sided_disc_start_is_the_scaled_unit_step(monkeypatch):
    import slfib.fibrations as fib

    class Attempted(Exception):
        pass

    starts = []

    def recording_solve_disc(*args, **kwargs):
        starts.append(kwargs["initial"])
        raise Attempted

    fam, res, cache = disc_family(), (32, 64), SolverCache()
    seed = solve_family_member(fam, 0.0, 1.25, res, cache=cache)
    monkeypatch.setattr(fib, "solve_disc", recording_solve_disc)
    with pytest.raises(Attempted):
        solve_family_member(fam, 0.0, 0.625, res, cache=cache)
    r, theta = seed.grid.r, seed.grid.theta
    # the step's coefficient is scaled first, then extended: ((b - b') r) cos(theta)
    assert np.array_equal(starts[0], seed.f[:-1] + (0.625 - 1.25) * r[:-1, None] * np.cos(theta))


def test_a_family_given_only_as_data_solves_warm_and_probes():
    # the disc sweep's data plus 0.1 cos(2 theta): neither even nor odd in x
    fam = FamilySpec("disc", (BoundarySpec.make(cos={2: 0.1, 3: -1.0}),),
                     (BoundarySpec.make(cos={1: 1.0}),))
    res, cache = (32, 64), SolverCache()
    cold = solve_family_member(fam, 0.0, 2.5, res, cache=cache)
    warm = solve_family_member(fam, 0.0, 2.25, res, cache=cache)
    assert "warm_seed" not in cold.diagnostics and warm.diagnostics["warm_seed"] == 2.5
    for b, fld in ((2.5, cold), (2.25, warm)):
        ref = solve_disc_limit(*fam.boundary(b), DomainSpec.disc(*res))
        assert _max_diff(fld, ref) <= 1e-11
        for point, want in (((0.0, 0.0), ref.v_center), ((1.0, 0.0), ref.v[-1, 0])):
            assert abs(_probe(fam, 0.0, point, res, cache)(b) - want) <= 1e-11
    assert (cache.misses, cache.warm_starts) == (2, 1)


def test_predictor_converged_field_reports_its_residual():
    # near alpha0 two seeds 2e-6 apart: the interpolant meets the tolerance as it is
    fam, res, b = disc_family(), (32, 64), 0.176115334
    cache = SolverCache()
    for seed_b in (b - 1e-6, b + 1e-6):
        solve_family_member(fam, 0.0, seed_b, res, cache=cache)
    fld = solve_family_member(fam, 0.0, b, res, cache=cache)
    diag = fld.diagnostics
    assert diag["warm_seed"] == (b - 1e-6, b + 1e-6)
    assert diag["newton_iterations"] == 0 and diag["factorizations"] == 0
    grid = disc_grid(*res)
    phi = fam.boundary(b)[0].sample(grid.theta)
    recomputed = float(np.max(np.abs(grid.residual(fld.f[:-1], phi, fld.a))))
    assert fld.residual_norm == recomputed
    assert fld.residual_norm < diag["tolerance"]
    assert fld.converged


def test_warm_start_stays_in_its_lane():
    cache = SolverCache()
    fam = strip_family(0.5)
    solve_family_member(fam, 0.0, 0.2, STRIP_RES, cache=cache)
    others = [
        solve_family_member(fam, 0.0, 0.25, (32, 17), cache=cache),
        solve_family_member(strip_family(0.4), 0.0, 0.25, STRIP_RES, cache=cache),
        solve_family_member(fam, 0.5, 0.25, STRIP_RES, cache=cache),
    ]
    assert (cache.misses, cache.warm_starts, cache.warm_fallbacks) == (4, 0, 0)
    assert not any("warm_seed" in fld.diagnostics for fld in others)
    # the same lane does seed
    fld = solve_family_member(fam, 0.0, 0.25, STRIP_RES, cache=cache)
    assert cache.warm_starts == 1 and fld.diagnostics["warm_seed"] == 0.2


def test_warm_start_away_from_level_zero():
    fam, res = strip_family(0.5), (64, 33)
    cache = SolverCache()
    solve_family_member(fam, 0.25, 0.1, res, cache=cache)
    fld = solve_family_member(fam, 0.25, 0.15, res, cache=cache)
    ref = solve_strip(*fam.boundary(0.15), 0.25, DomainSpec.strip(*res))
    assert cache.warm_starts == 1 and fld.diagnostics["warm_seed"] == 0.1
    assert not fld.is_limit and "levels" not in fld.diagnostics
    assert _max_diff(fld, ref) <= 1e-11


def test_cache_disk_keeps_the_warm_seed(tmp_path, monkeypatch):
    monkeypatch.setenv("SLFIB_CACHE_DIR", str(tmp_path))
    fam = strip_family(0.5)
    c1 = SolverCache()
    solve_family_member(fam, 0.0, 0.25, STRIP_RES, cache=c1)
    fld1 = solve_family_member(fam, 0.0, 0.125, STRIP_RES, cache=c1)
    assert c1.warm_starts == 1
    c2 = SolverCache()
    fld2 = solve_family_member(fam, 0.0, 0.125, STRIP_RES, cache=c2)
    assert c2.misses == 0  # served from disk
    assert fld2.diagnostics["warm_seed"] == 0.25
    assert fld2.cauchy_increments == () and fld2.is_limit
    assert fld2.diagnostics == fld1.diagnostics
