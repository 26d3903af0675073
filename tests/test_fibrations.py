import numpy as np
import pytest

from slfib.calibration import ComplexPoint3, FiberChartPoint, fiber_points
from slfib.elliptic import (
    DomainSpec,
    disc_grid,
    geometric_schedule,
    solve_disc,
    solve_disc_limit,
    solve_strip,
    solve_strip_limit,
)
from slfib.errors import BracketFailed, OutsideTotalSpace, SolverDiverged
from slfib.fibrations import (
    DEFAULT_SCHEDULE,
    DiscriminantRibbon,
    FamilySpec,
    SolverCache,
    _probe,
    alpha_beta_curves,
    disc_family,
    project_to_base,
    ribbon_report,
    singular_count_profile,
    solve_family_member,
    strip_family,
    vhat_probe,
)

FAST_SCHEDULE = geometric_schedule(0.5, 0.25)
DISC_RES = (24, 48)
STRIP_RES = (48, 25)


def test_family_validation():
    with pytest.raises(ValueError):
        FamilySpec("circle-sweep")
    with pytest.raises(ValueError):
        FamilySpec("strip-sweep", P=1.0)


def test_disc_family_boundary():
    spec = disc_family().boundary(2.0)
    assert dict(spec.cos_coeffs) == {1: 2.0, 3: -1.0}


def test_strip_family_boundary():
    top, bottom = strip_family(0.5).boundary(1.0)
    assert top is bottom
    assert top.constant == 1.0 and dict(top.cos_coeffs) == {1: 0.5}


def test_vhat_probe_boundary_value():
    # alpha + 3 up to discretisation error at this deliberately small grid
    val = vhat_probe(1.0, 1.0, (0.0, 1.0), DISC_RES, cache=SolverCache())
    assert abs(val - 4.0) < 1e-1


def test_vhat_probe_even_in_x():
    cache = SolverCache()
    v1 = vhat_probe(1.0, 0.5, (0.4, 0.0), DISC_RES, cache=cache)
    v2 = vhat_probe(1.0, 0.5, (-0.4, 0.0), DISC_RES, cache=cache)
    assert abs(v1 - v2) < 1e-8
    assert cache.misses == 1 and cache.hits == 1


@pytest.mark.parametrize("kind, point", [("disc", (1.0, 0.0)), ("strip", (np.pi, 0.0))])
def test_probe_evaluates_only_v(kind, point):
    fam, res = (disc_family(), DISC_RES) if kind == "disc" else (strip_family(0.5), STRIP_RES)
    cache = SolverCache()
    val = _probe(fam, 0.0, point, res, FAST_SCHEDULE, cache)(0.25)
    fld = solve_family_member(fam, 0.0, 0.25, res, FAST_SCHEDULE, cache)
    assert (cache.misses, cache.hits) == (1, 1)
    assert "u" not in fld._interp  # the probe built no u interpolant
    assert val == float(fld.uv(*point)[1])


def test_vhat_probe_outside():
    with pytest.raises(OutsideTotalSpace):
        vhat_probe(1.0, 0.0, (1.2, 0.0), DISC_RES)


def test_project_strip_trivial_family():
    # constant edge data: v = b and u = 0, so the projection is explicit
    p = ComplexPoint3(1 + 0j, 1 + 0j, 1j)
    coords = project_to_base(p, strip_family(0.0), STRIP_RES, FAST_SCHEDULE,
                             cache=SolverCache())
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


def test_project_roundtrip_strip_deformed():
    cache = SolverCache()
    fam = strip_family(0.4)
    a, b = 0.3, 0.25
    fld = solve_family_member(fam, a, b, STRIP_RES, cache=cache)
    chart = FiberChartPoint(0.7, 0.15, 1.1, a)
    u, v = fld.uv(chart.x, chart.y)
    p = fiber_points(fld, chart)
    coords = project_to_base(p, fam, STRIP_RES, cache=cache, tol=1e-7)
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
    rows = alpha_beta_curves([0.0], STRIP_RES, FAST_SCHEDULE, cache=SolverCache())
    t, alpha_t, beta_t = rows[0]
    assert abs(alpha_t) < 1e-4 and abs(beta_t) < 1e-4


def test_ribbon_reports():
    ribbon = ribbon_report(disc_family(), (0.19, 2.94))
    assert ribbon.endpoint_kind == ("fold-boundary", "domain-boundary")
    assert ribbon.c_range == "all-reals"
    assert ribbon.counts == (0, 1, 2)
    assert abs(ribbon.width() - 2.75) < 1e-12
    degenerate = ribbon_report(strip_family(0.0), (0.0, 0.0))
    assert degenerate.degenerate
    wide = ribbon_report(strip_family(1.0), (-0.3, 0.3))
    assert not wide.degenerate and wide.endpoint_kind == ("fold-boundary",) * 2


def test_singular_count_profile_across_the_band():
    # refine_band_edge brackets each edge from the coarse alpha_beta_curves value
    profile = singular_count_profile(0.5, resolution=(32, 17),
                                     schedule=geometric_schedule(0.5, 0.25, 1e-3),
                                     cache=SolverCache())
    assert [count for _, count, _ in profile] == [0, 1, 2, 1, 0]
    alpha, beta = profile[1][0], profile[3][0]
    assert alpha < 0.0 < beta
    assert abs(alpha + beta) <= 1e-9
    assert profile[0][0] < alpha and profile[4][0] > beta


def test_bisect_bracket_failure():
    from slfib.fibrations import _bisect

    with pytest.raises(BracketFailed):
        _bisect(lambda b: 1.0 + 0.0 * b, -1.0, 1.0, 1e-6)


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


def test_cache_lru_eviction():
    cache = SolverCache(maxsize=2)
    fam = strip_family(0.0)
    for b in (0.1, 0.2, 0.3):
        solve_family_member(fam, 0.5, b, STRIP_RES, cache=cache)
    assert len(cache._store) == 2


def test_cache_disk_keeps_diagnostics(tmp_path, monkeypatch):
    monkeypatch.setenv("SLFIB_CACHE_DIR", str(tmp_path))
    fam = strip_family(0.5)
    fld1 = solve_family_member(fam, 0.0, 0.2, STRIP_RES, FAST_SCHEDULE, cache=SolverCache())
    c2 = SolverCache()
    fld2 = solve_family_member(fam, 0.0, 0.2, STRIP_RES, FAST_SCHEDULE, cache=c2)
    assert c2.misses == 0  # served from disk
    assert len(fld1.cauchy_increments) == len(FAST_SCHEDULE) - 1
    assert fld2.cauchy_increments == fld1.cauchy_increments
    assert fld2.diagnostics["levels"] == fld1.diagnostics["levels"]
    assert fld2.diagnostics == fld1.diagnostics


# warm starts in the family parameter

def _max_diff(f1, f2):
    return max(np.max(np.abs(f1.u - f2.u)), np.max(np.abs(f1.v - f2.v)))


@pytest.mark.parametrize("kind, seed_b, b", [
    ("disc", 1.25, 0.625), ("disc", 2.5, 2.1875), ("strip", 0.25, 0.125)])
def test_warm_start_matches_the_full_continuation(kind, seed_b, b):
    if kind == "disc":
        fam, res = disc_family(), (32, 64)
        ref = solve_disc_limit(fam.boundary(b), DomainSpec.disc(*res), DEFAULT_SCHEDULE)
    else:
        fam, res = strip_family(0.5), (64, 33)
        ref = solve_strip_limit(*fam.boundary(b), DomainSpec.strip(*res), DEFAULT_SCHEDULE)
    cache = SolverCache()
    seed = solve_family_member(fam, 0.0, seed_b, res, cache=cache)
    fld = solve_family_member(fam, 0.0, b, res, cache=cache)
    assert (cache.misses, cache.warm_starts, cache.warm_fallbacks) == (2, 1, 0)
    assert "warm_seed" not in seed.diagnostics
    assert len(seed.cauchy_increments) == len(DEFAULT_SCHEDULE) - 1
    assert fld.diagnostics["warm_seed"] == seed_b
    assert fld.cauchy_increments == ()
    assert fld.is_limit and fld.converged
    (level,) = fld.diagnostics["levels"]
    assert level["a"] == DEFAULT_SCHEDULE[-1] == fld.a
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
    ref = solve_disc_limit(fam.boundary(0.3125), DomainSpec.disc(*res), DEFAULT_SCHEDULE)
    assert len(attempts) == 1
    assert (cache.misses, cache.warm_starts, cache.warm_fallbacks) == (2, 0, 1)
    assert "warm_seed" not in fld.diagnostics
    assert np.array_equal(fld.f, ref.f) and np.array_equal(fld.v, ref.v)
    assert fld.cauchy_increments == ref.cauchy_increments
    assert len(fld.cauchy_increments) == len(DEFAULT_SCHEDULE) - 1
    assert fld.diagnostics["levels"] == ref.diagnostics["levels"]


@pytest.mark.parametrize("kind, b1, b2, b", [
    ("disc", 1.25, 2.5, 1.875), ("strip", 0.0, 0.25, 0.125)])
def test_two_sided_start_matches_the_full_continuation(kind, b1, b2, b):
    # disc: the one-sided start from 1.25 diverges, the interpolant converges
    if kind == "disc":
        fam, res = disc_family(), (32, 64)
        ref = solve_disc_limit(fam.boundary(b), DomainSpec.disc(*res), DEFAULT_SCHEDULE)
    else:
        fam, res = strip_family(0.5), (64, 33)
        ref = solve_strip_limit(*fam.boundary(b), DomainSpec.strip(*res), DEFAULT_SCHEDULE)
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
    ref = solve_disc_limit(fam.boundary(b), DomainSpec.disc(*res), DEFAULT_SCHEDULE)

    r, theta = lo.grid_axes()
    shift = r[:-1, None] * np.cos(theta)
    expected = [0.75 * lo.f[:-1] + 0.25 * hi.f[:-1],      # interpolant, w = 0.25
                lo.f[:-1] + b * shift,                    # nearer neighbour, b' = 0
                hi.f[:-1] + (b - 1.0) * shift]            # farther neighbour, b' = 1
    assert len(attempts) == 3
    for (level, initial), want in zip(attempts, expected):
        assert level == DEFAULT_SCHEDULE[-1]
        assert np.max(np.abs(initial - want)) <= 1e-13
    assert cache.warm_fallbacks == fallbacks + 1
    assert "warm_seed" not in fld.diagnostics
    assert np.array_equal(fld.f, ref.f) and np.array_equal(fld.v, ref.v)
    assert fld.cauchy_increments == ref.cauchy_increments
    assert len(fld.cauchy_increments) == len(DEFAULT_SCHEDULE) - 1


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
    phi = fam.boundary(b).sample(grid.theta)
    recomputed = float(np.max(np.abs(grid.residual(fld.f[:-1], phi, fld.a))))
    assert fld.residual_norm == recomputed
    assert fld.residual_norm < diag["tolerance"]
    assert fld.converged


def test_warm_start_stays_in_its_lane():
    cache = SolverCache()
    fam = strip_family(0.5)
    solve_family_member(fam, 0.0, 0.2, STRIP_RES, FAST_SCHEDULE, cache=cache)
    others = [
        solve_family_member(fam, 0.0, 0.25, (32, 17), FAST_SCHEDULE, cache=cache),
        solve_family_member(strip_family(0.4), 0.0, 0.25, STRIP_RES, FAST_SCHEDULE, cache=cache),
        solve_family_member(fam, 0.0, 0.25, STRIP_RES, geometric_schedule(0.5, 0.25, 1e-3),
                            cache=cache),
        solve_family_member(fam, 0.5, 0.25, STRIP_RES, cache=cache),
    ]
    assert (cache.misses, cache.warm_starts, cache.warm_fallbacks) == (5, 0, 0)
    assert not any("warm_seed" in fld.diagnostics for fld in others)
    # the same lane does seed
    fld = solve_family_member(fam, 0.0, 0.25, STRIP_RES, FAST_SCHEDULE, cache=cache)
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
    solve_family_member(fam, 0.0, 0.25, STRIP_RES, FAST_SCHEDULE, cache=c1)
    fld1 = solve_family_member(fam, 0.0, 0.125, STRIP_RES, FAST_SCHEDULE, cache=c1)
    assert c1.warm_starts == 1
    c2 = SolverCache()
    fld2 = solve_family_member(fam, 0.0, 0.125, STRIP_RES, FAST_SCHEDULE, cache=c2)
    assert c2.misses == 0  # served from disk
    assert fld2.diagnostics["warm_seed"] == 0.25
    assert fld2.cauchy_increments == () and fld2.is_limit
    assert fld2.diagnostics == fld1.diagnostics
