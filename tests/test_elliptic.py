import numpy as np
import pytest

from slfib.elliptic import (
    DEFAULT_A_MIN,
    FLOOR_ACCEPT,
    NEWTON_TOL,
    BoundarySpec,
    DomainSpec,
    SolutionField,
    disc_grid,
    field_from_callables,
    load_field,
    reconstruct_u,
    save_field,
    solve_disc,
    solve_disc_limit,
    solve_strip,
    solve_strip_limit,
    strip_grid,
)
from slfib.errors import ContinuationFailed, IncompatibleBoundary, MonodromyDefect, \
    SolverDiverged
from slfib.fibrations import disc_family
from slfib.models import na_oracle, na_oracle_grid, na_potential_circle

from ladder import kept_levels, ladder


def _plain_lu(jac, scale):
    """An _LU of jac from a plain SuperLU factor, as the toy _newton tests hand it over."""
    import scipy.sparse.linalg as spla

    from slfib.elliptic import _LU

    lu = spla.splu(jac, permc_spec="NATURAL")
    return _LU(lu.solve, np.arange(jac.shape[0]), jac.shape[0], "superlu", None, lu.nnz, scale)


def _matrix(system, data):
    """The Jacobian with entries ``data`` on ``system.pattern`` as a CSC matrix."""
    import scipy.sparse as sp

    indices, indptr = system.pattern
    n = indptr.size - 1
    return sp.csc_matrix((data, indices, indptr), shape=(n, n))


def test_domain_normalisation():
    d = DomainSpec.disc(20, 30)
    assert d.n_y == 32  # rounded to a multiple of 4
    s = DomainSpec.strip(32, 16)
    assert s.n_y == 17  # odd so the axis is a grid row
    with pytest.raises(ValueError):
        DomainSpec("disc", 2.0, 2.0 * np.pi, 32, 64)
    with pytest.raises(ValueError):
        DomainSpec.disc(8, 16)


@pytest.mark.parametrize("args", [
    ("annulus", 1.0, 2.0 * np.pi, 32, 32),
    ("periodic-strip", float("nan"), 2.0 * np.pi, 32, 17),
    ("periodic-strip", 0.0, 2.0 * np.pi, 32, 17),
    ("periodic-strip", -1.0, 2.0 * np.pi, 32, 17),
    ("periodic-strip", 1.0, float("inf"), 32, 17),
    ("periodic-strip", 1.0, 0.0, 32, 17),
], ids=["unknown-kind", "R-nan", "R-zero", "R-negative", "P-inf", "P-zero"])
def test_domain_rejects_an_unknown_kind_and_a_bad_extent(args):
    with pytest.raises(ValueError, match="unknown domain kind|finite and positive"):
        DomainSpec(*args)


@pytest.mark.parametrize("field", ["constant", "cos", "sin"])
@pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
def test_boundary_data_must_be_finite(field, value):
    with pytest.raises(ValueError, match="finite"):
        BoundarySpec.make(**{field: value if field == "constant" else {1: value}})


@pytest.mark.parametrize("make", [
    lambda: BoundarySpec.make(cos={-1: 1.0}),
    lambda: BoundarySpec.make(sin={-3: 0.5}),
    lambda: BoundarySpec.from_json({"constant": 0.0, "cos": {"-3": 0.5}, "sin": {}}),
], ids=["cos", "sin", "from-json"])
def test_boundary_data_reject_a_negative_harmonic_index(make):
    with pytest.raises(ValueError, match="non-negative"):
        make()


def test_boundary_data_keep_the_harmonic_index_zero():
    assert BoundarySpec.make(cos={0: 0.5}).cos_coeffs == ((0, 0.5),)


@pytest.mark.parametrize("a", [1e-4, 0.1, 1.0, 10.0])
def test_disc_affine_exactness(a):
    beta, gamma, delta = 2.0, -0.7, 0.3
    spec = BoundarySpec.make(delta, cos={1: beta}, sin={1: gamma})
    fld = solve_disc(spec, a, DomainSpec.disc(24, 48))
    xg, yg, u, v = fld.node_arrays()
    assert np.max(np.abs(fld.f - (beta * xg + gamma * yg + delta))) < 1e-10
    assert np.max(np.abs(u - gamma)) < 1e-10
    assert np.max(np.abs(v - beta)) < 1e-10
    assert abs(fld.v_center - beta) < 1e-10
    assert abs(fld.u_center - gamma) < 1e-10
    assert fld.diagnostics["newton_iterations"] == 0
    assert fld.diagnostics["factorizations"] == 0


@pytest.mark.parametrize("a", [1e-4, 0.1, 1.0, 10.0])
def test_strip_affine_exactness(a):
    spec = BoundarySpec.make(constant=0.8)
    fld = solve_strip(spec, spec, a, DomainSpec.strip(32, 17))
    assert np.max(np.abs(fld.v - 0.8)) < 1e-10
    assert np.max(np.abs(fld.u)) < 1e-10
    assert fld.diagnostics["newton_iterations"] == 0
    assert fld.diagnostics["factorizations"] == 0


# max node error against na_oracle_grid at (32, 64) of the solver that
# factored every Newton step, rounded up in the third digit
@pytest.mark.parametrize("a, ceil_u, ceil_v", [(0.5, 2.40e-3, 5.25e-3),
                                               (0.05, 3.16e-2, 1.52e-2)])
def test_disc_oracle_accuracy(a, ceil_u, ceil_v):
    fld = solve_disc(na_potential_circle(a), a, DomainSpec.disc(32, 64))
    xg, yg, u, v = fld.node_arrays()
    uo, vo = na_oracle_grid(a, xg, yg)
    uc, vc = na_oracle(a, 0.0, 0.0)
    assert max(np.max(np.abs(u - uo)), abs(fld.u_center - uc)) <= ceil_u
    assert max(np.max(np.abs(v - vo)), abs(fld.v_center - vc)) <= ceil_v
    assert fld.converged and fld.residual_norm < NEWTON_TOL


def _na_potential(a, x, y):
    """The exact potential of N_a's graph, f_x = v and f_y = u."""
    b = x * x + 2.0 * abs(a)
    w = 0.5 * (b + np.hypot(b, 2.0 * y))
    return np.sqrt(w) * (b - 2.0 * w / 3.0)


def _potential_error(a, n_r, n_theta):
    """Max error of the solved potential, centre included, against the exact one."""
    fld = solve_disc(na_potential_circle(a), a, DomainSpec.disc(n_r, n_theta))
    xg, yg, _, _ = fld.node_arrays()
    exact = _na_potential(a, xg, yg) - _na_potential(a, 1.0, 0.0)   # 0 at theta = 0
    centre = _na_potential(a, 0.0, 0.0) - _na_potential(a, 1.0, 0.0)
    return max(np.max(np.abs(fld.f - exact)), abs(fld.f_center - centre))


# measured errors at (32, 64) and (64, 128), rounded up in the third digit
@pytest.mark.parametrize("a, ceilings", [(0.5, (6.99e-4, 1.75e-4)),
                                         (0.05, (6.65e-3, 1.93e-3))])
def test_disc_potential_against_the_exact_one(a, ceilings):
    errors = [_potential_error(a, 32, 64), _potential_error(a, 64, 128)]
    assert errors[0] <= ceilings[0] and errors[1] <= ceilings[1]
    if a == 0.5:
        assert np.log2(errors[0] / errors[1]) >= 1.9


@pytest.mark.parametrize("solve", [
    lambda: solve_disc_limit(BoundarySpec.make(cos={1: 1.0, 3: -1.0}),
                             DomainSpec.disc(24, 48)),
    lambda: solve_strip_limit(BoundarySpec.make(0.2, cos={1: 0.5}),
                              BoundarySpec.make(0.2, cos={1: 0.5}),
                              DomainSpec.strip(48, 25)),
], ids=["disc", "strip"])
def test_limit_reuses_factors(solve):
    levels = kept_levels(solve())
    for lev in levels:
        assert lev["converged"] and lev["residual_norm"] < NEWTON_TOL
        assert lev["newton_iterations"] == lev["factorizations"] + lev["chord_steps"]
    assert sum(lev["factorizations"] for lev in levels) < \
        sum(lev["newton_iterations"] for lev in levels)


def test_stagnation_is_not_converged(monkeypatch):
    # a tolerance below the residual's round-off floor can only stagnate
    import slfib.elliptic as ell

    spec = BoundarySpec.make(cos={1: 1.0, 3: -1.0})
    assert solve_disc(spec, 1.0, DomainSpec.disc(24, 48)).converged
    monkeypatch.setattr(ell, "NEWTON_TOL", 1e-30)
    monkeypatch.setattr(ell, "ROUNDOFF_SAFETY", 0.0)
    fld = solve_disc(spec, 1.0, DomainSpec.disc(24, 48))
    assert fld.diagnostics["stagnated"] and not fld.converged
    assert fld.diagnostics["tolerance"] == 1e-30
    assert fld.residual_norm < FLOOR_ACCEPT


@pytest.mark.parametrize("kind", ["disc", "strip"])
def test_residual_norm_is_that_of_the_stored_field(kind):
    if kind == "disc":
        fld = solve_disc(*disc_family().boundary(1.25), 1e-3, DomainSpec.disc(32, 64))
        res = disc_grid(32, 64).residual(fld.f[:-1], fld.f[-1], fld.a)
    else:
        edge = BoundarySpec.make(cos={1: 0.5})
        fld = solve_strip(edge, edge, 1e-3, DomainSpec.strip(64, 33))
        res = strip_grid(64, 33, 1.0, 2 * np.pi).residual(fld.v[1:-1], fld.v[-1], fld.v[0],
                                                          fld.a)
    assert fld.converged
    assert fld.residual_norm == float(np.max(np.abs(res)))


def test_deep_levels_converge_at_the_roundoff_floor():
    # at this grid the float64 residual floor passes NEWTON_TOL on the way to a_min
    fld = solve_disc_limit(*disc_family().boundary(2.24), DomainSpec.disc(64, 128))
    levels = kept_levels(fld)
    assert levels[-1]["tolerance"] > NEWTON_TOL
    for lev in levels:
        assert lev["converged"] and lev["residual_norm"] <= lev["tolerance"]
    assert fld.diagnostics["tolerance"] == levels[-1]["tolerance"]


@pytest.mark.parametrize("max_iter", [3, 60])
def test_newton_divergence_payload(max_iter, monkeypatch):
    import scipy.sparse as sp

    from slfib import elliptic
    from slfib.elliptic import _newton

    monkeypatch.setattr(elliptic, "NEWTON_MAX_ITER", max_iter)

    # x^2 + 1 has no real root: the residual never drops below 1
    def eval_res(x):
        return x * x + 1

    def factorize(x):
        jac = sp.diags(2.0 * x.ravel()).tocsc()
        return _plain_lu(jac, np.max(abs(jac) @ np.abs(x.ravel())))

    with pytest.raises(SolverDiverged) as err:
        _newton(np.full((2, 3), 3.0), eval_res, factorize, None)
    assert err.value.data["residual"] >= 1.0
    assert 1 <= err.value.data["iterations"] <= max_iter


def test_stall_bound_follows_the_roundoff_floor():
    import scipy.sparse as sp

    from slfib.elliptic import _newton

    # every Newton step is uphill, so the solve stalls; the round-off floor
    # 0.5 eps * 2e8 = 2.2e-8 puts the residual 5e-8 above FLOOR_ACCEPT but
    # within the stagnation bound that follows the floor
    def eval_res(x):
        return 2e8 * (x - 1.0) + 5e-8

    def factorize(x):
        return _plain_lu(sp.diags(np.full(x.size, -2e8)).tocsc(), 2e8 * np.max(np.abs(x)))

    _, norm, _, diag = _newton(np.ones(3), eval_res, factorize, None)
    assert norm == 5e-8 > FLOOR_ACCEPT
    assert diag["stagnated"]
    assert diag["tolerance"] == pytest.approx(0.5 * np.finfo(float).eps * 2e8)


def test_disc_rejects_zero_level():
    with pytest.raises(ValueError):
        solve_disc(BoundarySpec.make(cos={1: 1.0}), 0.0, DomainSpec.disc(24, 48))


@pytest.mark.parametrize("a", [0.0, float("nan"), float("inf"), -float("inf")])
@pytest.mark.parametrize("kind", ["disc", "strip"])
def test_solvers_reject_a_zero_or_non_finite_level(kind, a):
    edge = BoundarySpec.make(0.5, cos={1: 1.0})
    with pytest.raises(ValueError, match="level a must be finite and nonzero"):
        if kind == "disc":
            solve_disc(edge, a, DomainSpec.disc(24, 48))
        else:
            solve_strip(edge, edge, a, DomainSpec.strip(32, 17))


def test_level_parity(disc_field_alpha1):
    spec = BoundarySpec.make(cos={1: 1.0, 3: -1.0})
    neg = solve_disc(spec, -1.0, DomainSpec.disc(48, 96))
    assert np.array_equal(neg.f, disc_field_alpha1.f)
    assert np.array_equal(neg.v, disc_field_alpha1.v)


def test_boundary_derivative_constant(disc_field_alpha1):
    # tangential gradient of the data gives v on the circle at theta=pi/2
    jv = disc_field_alpha1.domain.n_y // 4
    assert abs(disc_field_alpha1.v[-1, jv] - 4.0) < 2e-2


def test_disc_validate_and_principle(disc_field_alpha1):
    assert disc_field_alpha1.validate()


def test_strip_cos_symmetries(strip_field_cos):
    fld = strip_field_cos
    n_x = fld.domain.n_x
    refl = fld.v[:, (-np.arange(n_x)) % n_x]
    assert np.max(np.abs(fld.v - refl)) < 1e-9   # even in x
    j0 = (fld.domain.n_y - 1) // 2
    assert np.max(np.abs(fld.u[j0])) < 1e-12     # u vanishes on the axis
    assert fld.validate()


def test_row_means_constant(strip_field_cos):
    means = np.mean(strip_field_cos.v, axis=1)
    assert max(means) - min(means) < 1e-10


def test_mean_flux_examples():
    spec = BoundarySpec.make(constant=0.6)
    fld = solve_strip(spec, spec, 0.5, DomainSpec.strip(32, 17))
    assert abs(np.mean(fld.v[3]) - 0.6) < 1e-14
    # corrupting v by +y moves the row means linearly: spread = 2R
    bad = field_from_callables(fld.domain, 0.5, lambda x, y: 0 * x,
                               lambda x, y: 0.6 + y)
    spread = np.mean(bad.v[-1]) - np.mean(bad.v[0])
    assert abs(spread - 2 * fld.domain.R) < 1e-12


def test_reconstruct_u_constant():
    spec = BoundarySpec.make(constant=1.0)
    fld = solve_strip(spec, spec, 0.3, DomainSpec.strip(32, 17))
    assert np.max(np.abs(fld.u)) < 1e-12


def test_reconstruct_u_column_is_the_outward_trapezoid_loop():
    # x-even data make v_x vanish on the column x = 0, so several trapezoid
    # steps are signed zeros: the u column must match the loop bit for bit
    spec = BoundarySpec.make(constant=0.1, cos={1: 0.5})
    fld = solve_strip(spec, spec, 1e-3, DomainSpec.strip(64, 33))
    grid = strip_grid(64, 33, 1.0, 2 * np.pi)
    v, hy, y = fld.v, grid.hy, grid.y
    vx0 = (v[:, 1] - v[:, -1]) / (2 * grid.hx)
    uy = -0.5 * vx0 / np.sqrt(np.maximum(v[:, 0] ** 2 + y**2 + fld.a**2, 1e-16))
    j0 = (len(y) - 1) // 2
    ref = np.zeros(len(y))
    for j in range(j0 + 1, len(y)):
        ref[j] = ref[j - 1] + 0.5 * hy * (uy[j - 1] + uy[j])
    for j in range(j0 - 1, -1, -1):
        ref[j] = ref[j + 1] - 0.5 * hy * (uy[j + 1] + uy[j])
    assert np.count_nonzero(uy == 0.0) > 1
    assert fld.u[:, 0].tobytes() == ref.tobytes()


def test_strip_gradient_stencils():
    grid = strip_grid(64, 33, 1.0, 2 * np.pi)
    x, y = np.meshgrid(grid.x, grid.y)
    w_x, w_y = grid.gradient(np.sin(x) + y**2)
    assert np.max(np.abs(w_y - 2 * y)) < 1e-12          # exact on quadratics, edges included
    assert np.max(np.abs(w_x - np.cos(x))) <= grid.hx**2 / 6


def test_reconstruct_is_strip_only(disc_field_alpha1):
    with pytest.raises(ValueError):
        reconstruct_u(disc_field_alpha1)


def test_cross_derivative_consistency(strip_field_cos):
    fld = strip_field_cos
    x, y = fld.grid.x, fld.grid.y
    hx, hy = x[1] - x[0], y[1] - y[0]
    ux = (np.roll(fld.u, -1, axis=1) - np.roll(fld.u, 1, axis=1)) / (2 * hx)
    vy = np.gradient(fld.v, hy, axis=0, edge_order=2)
    assert np.max(np.abs(ux - vy)[1:-1]) < 5e-3


def test_incompatible_edges():
    with pytest.raises(IncompatibleBoundary):
        solve_strip(BoundarySpec.make(constant=1.0), BoundarySpec.make(constant=0.5),
                    0.5, DomainSpec.strip(32, 17))
    top, bottom = BoundarySpec.make(0.2, cos={1: 0.5}), BoundarySpec.make(0.3, cos={1: 0.5})
    with pytest.raises(IncompatibleBoundary) as info:
        solve_strip(top, bottom, 0.5, DomainSpec.strip(32, 17))
    assert info.value.data == {"top_mean": 0.2, "bottom_mean": 0.3}
    top, bottom = BoundarySpec.make(0.2, cos={1: 1.0}), BoundarySpec.make(0.2 + 1e-9, cos={1: 1.0})
    with pytest.raises(IncompatibleBoundary):
        solve_strip(top, bottom, 0.5, DomainSpec.strip(32, 17))


def test_edges_whose_means_agree_to_roundoff_are_compatible():
    top, bottom = BoundarySpec.make(0.1 + 0.2, cos={1: 5.0}), BoundarySpec.make(0.3, cos={1: 5.0})
    assert top.constant != bottom.constant
    assert solve_strip(top, bottom, 0.5, DomainSpec.strip(32, 17)).converged


def test_a_strip_field_builds_u_on_first_read_as_reconstruct_u_does():
    spec = BoundarySpec.make(constant=0.1, cos={1: 0.5})
    fld = solve_strip(spec, spec, 0.05, DomainSpec.strip(64, 33))
    assert "u" not in vars(fld)
    defect = fld.diagnostics["closure_defect"]
    eager = reconstruct_u(SolutionField(fld.domain, fld.a, np.zeros_like(fld.v), fld.v.copy(),
                                        converged=True, residual_norm=0.0))
    u = fld.u
    assert u is fld.u                                   # built once, then kept
    assert u.tobytes() == eager.u.tobytes()
    assert fld.diagnostics["closure_defect"] == defect == eager.diagnostics["closure_defect"]


def test_solve_strip_checks_the_closure_of_u(monkeypatch):
    from slfib import elliptic

    spec = BoundarySpec.make(constant=0.1, cos={1: 0.5})
    assert solve_strip(spec, spec, 0.05, DomainSpec.strip(64, 33)).diagnostics[
        "closure_defect"] > 0.0
    monkeypatch.setattr(elliptic, "CLOSURE_DEFECT_TOL", 0.0)
    with pytest.raises(MonodromyDefect):
        solve_strip(spec, spec, 0.05, DomainSpec.strip(64, 33))


def test_reconstruct_u_rejects_a_field_whose_u_does_not_close():
    # v = y: u_x = v_y = 1, so every row of u gains P around the period
    fld = field_from_callables(DomainSpec.strip(32, 17), 0.5, lambda x, y: 0 * x,
                               lambda x, y: y + 0 * x)
    with pytest.raises(MonodromyDefect) as info:
        reconstruct_u(fld)
    assert info.value.data["defect"] == pytest.approx(2 * np.pi, rel=1e-12)


def test_monotone_in_edge_data():
    dom = DomainSpec.strip(48, 25)
    lo = solve_strip(BoundarySpec.make(0.2, cos={1: 0.3}),
                     BoundarySpec.make(0.2, cos={1: 0.3}), 0.5, dom)
    hi = solve_strip(BoundarySpec.make(0.6, cos={1: 0.3}),
                     BoundarySpec.make(0.6, cos={1: 0.3}), 0.5, dom)
    assert np.all(hi.v[1:-1] > lo.v[1:-1])


def test_disc_monotone_in_alpha():
    dom = DomainSpec.disc(24, 48)
    lo = solve_disc(BoundarySpec.make(cos={1: 0.0, 3: -1.0}), 1.0, dom)
    hi = solve_disc(BoundarySpec.make(cos={1: 1.0, 3: -1.0}), 1.0, dom)
    assert np.all(hi.v[:-1] > lo.v[:-1])
    assert hi.v_center > lo.v_center


def test_apriori_bounds(strip_field_cos):
    fld = strip_field_cos
    x = fld.grid.x
    edges = np.concatenate([fld.v[0], fld.v[-1]])
    assert abs(np.max(np.abs(fld.v)) - np.max(np.abs(edges))) < 1e-8
    hx = x[1] - x[0]
    vx = (np.roll(fld.v, -1, axis=1) - np.roll(fld.v, 1, axis=1)) / (2 * hx)
    interior_max = np.max(np.abs(vx[1:-1]))
    edge_max = max(np.max(np.abs(vx[0])), np.max(np.abs(vx[-1])))
    assert interior_max <= edge_max + 1e-8


def test_limit_affine_is_level_independent():
    spec = BoundarySpec.make(cos={1: 1.5})
    fld = solve_disc_limit(spec, DomainSpec.disc(20, 40))
    assert np.max(np.abs(fld.v - 1.5)) < 1e-10
    assert fld.is_limit and fld.a == 1e-4
    assert max(fld.cauchy_increments) < 1e-10


def test_continuation_failure_names_level(monkeypatch):
    import slfib.elliptic as ell

    levels = []

    def boom(boundary, a, *args, **kwargs):
        levels.append(a)
        raise SolverDiverged("no", residual=1.0)

    monkeypatch.setattr(ell, "solve_disc", boom)
    with pytest.raises(ContinuationFailed) as err:
        ell.solve_disc_limit(BoundarySpec.make(cos={1: 1.0}), DomainSpec.disc(20, 40))
    # a failure at a = 1 has no kept level to retry from
    assert levels == [1.0] and err.value.data["a"] == 1.0


def _diverging(monkeypatch, times, below=1.0):
    """Diverge solve_disc at its first ``times`` levels a < ``below``; returns every a tried."""
    import slfib.elliptic as ell

    tried, real = [], ell.solve_disc

    def solve(boundary, a, *args, **kwargs):
        tried.append(a)
        if a < below and sum(b < below for b in tried) <= times:
            raise SolverDiverged("forced", residual=1.0)
        return real(boundary, a, *args, **kwargs)

    monkeypatch.setattr(ell, "solve_disc", solve)
    return tried


def test_a_diverged_level_is_retried_with_half_the_log_step(monkeypatch):
    from slfib.elliptic import MAX_STEP_RATIO

    tried = _diverging(monkeypatch, times=1)
    fld = solve_disc_limit(*disc_family().boundary(1.25), DomainSpec.disc(20, 40))
    # the first step, to a = MAX_STEP_RATIO, diverges; the retry takes half its log-step
    assert tried[:3] == [1.0, MAX_STEP_RATIO, MAX_STEP_RATIO ** 0.5]
    assert fld.diagnostics["retries"] == (MAX_STEP_RATIO,)
    levels = kept_levels(fld)
    assert levels[1]["a"] == MAX_STEP_RATIO ** 0.5
    # the next kept level doubles the log-step back to the longest
    assert levels[2]["a"] == max(MAX_STEP_RATIO ** 1.5, DEFAULT_A_MIN)
    assert all(lev["converged"] for lev in levels)


def test_a_diverged_clamped_step_is_retried_with_half_of_the_step_taken(monkeypatch):
    from slfib.elliptic import MAX_STEP_RATIO

    # the step from MAX_STEP_RATIO to a_min is clamped, shorter than MAX_STEP_RATIO
    tried = _diverging(monkeypatch, times=1, below=1.5 * DEFAULT_A_MIN)
    fld = solve_disc_limit(*disc_family().boundary(1.25), DomainSpec.disc(20, 40))
    retry = (MAX_STEP_RATIO * DEFAULT_A_MIN) ** 0.5
    assert tried == [1.0, MAX_STEP_RATIO, DEFAULT_A_MIN, pytest.approx(retry, rel=1e-14),
                     DEFAULT_A_MIN]
    assert fld.diagnostics["retries"] == (DEFAULT_A_MIN,)
    assert len(kept_levels(fld)) == 4


def test_a_level_that_keeps_diverging_ends_the_continuation(monkeypatch):
    from slfib.elliptic import MAX_STEP_RATIO, STEP_HALVINGS

    tried = _diverging(monkeypatch, times=STEP_HALVINGS + 1)
    with pytest.raises(ContinuationFailed) as err:
        solve_disc_limit(*disc_family().boundary(1.25), DomainSpec.disc(20, 40))
    # the longest step, then STEP_HALVINGS halvings of its log-step, all from a = 1
    ratios = [MAX_STEP_RATIO ** (0.5 ** k) for k in range(STEP_HALVINGS + 1)]
    assert tried[0] == 1.0 and tried[1:] == pytest.approx(ratios, rel=1e-14)
    assert err.value.data["a"] == tried[-1]


def test_limit_strip_cauchy_decays():
    top = BoundarySpec.make(constant=0.2, cos={1: 0.5})
    fld = solve_strip_limit(top, top, DomainSpec.strip(48, 25))
    inc = fld.cauchy_increments
    assert inc[-1] < inc[0]
    assert fld.is_limit


def test_a_strip_continuation_builds_u_only_when_it_is_read(monkeypatch):
    from slfib import elliptic

    calls = []
    eager = elliptic.reconstruct_u
    monkeypatch.setattr(elliptic, "reconstruct_u", lambda fld: calls.append(fld) or eager(fld))
    top = BoundarySpec.make(constant=0.2, cos={1: 0.5})
    fld = solve_strip_limit(top, top, DomainSpec.strip(48, 25))
    assert calls == [] and "u" not in vars(fld)
    assert "cauchy_u" not in fld.diagnostics
    assert len(fld.cauchy_increments) == len(fld.diagnostics["levels"]) - 1
    fld.u
    assert calls == [fld]


def test_dump_roundtrip_strip(tmp_path, strip_field_cos):
    path = tmp_path / "strip.csv"
    save_field(strip_field_cos, path)
    back = load_field(path)
    assert np.max(np.abs(back.v - strip_field_cos.v)) == 0.0
    assert np.max(np.abs(back.u - strip_field_cos.u)) == 0.0
    assert back.boundary["top"] == strip_field_cos.boundary["top"]
    # determinism: a second write is bit-identical
    path2 = tmp_path / "strip2.csv"
    save_field(strip_field_cos, path2)
    assert path.read_bytes() == path2.read_bytes()
    # save -> load -> save is byte-identical
    save_field(back, path2)
    assert path.read_bytes() == path2.read_bytes()


def test_dump_roundtrip_disc(tmp_path, disc_field_alpha1):
    path = tmp_path / "disc.csv"
    save_field(disc_field_alpha1, path)
    back = load_field(path)
    assert np.max(np.abs(back.f - disc_field_alpha1.f)) == 0.0
    assert back.f_center == disc_field_alpha1.f_center
    u1, v1 = back.uv(0.3, 0.2)
    u2, v2 = disc_field_alpha1.uv(0.3, 0.2)
    assert abs(u1 - u2) < 1e-14 and abs(v1 - v2) < 1e-14
    # save -> load -> save is byte-identical
    path2 = tmp_path / "disc2.csv"
    save_field(back, path2)
    assert path.read_bytes() == path2.read_bytes()


@pytest.mark.parametrize("lines, error", [
    (lambda lines: ["null", *lines[1:]], "the dump's header is not a JSON object"),
    (lambda lines: ["[1, 2]", *lines[1:]], "the dump's header is not a JSON object"),
    (lambda lines: lines[:2], "the dump has no body rows"),
    (lambda lines: [*lines[:2], "", "  "], "the dump has no body rows"),
], ids=["null-header", "list-header", "no-body", "blank-body"])
def test_malformed_dump_raises_one_line_naming_it(lines, error, tmp_path, strip_field_cos):
    import warnings

    good, bad = tmp_path / "good.csv", tmp_path / "bad.csv"
    save_field(strip_field_cos, good)
    bad.write_text("\n".join(lines(good.read_text().splitlines())) + "\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")                # NumPy's loadtxt warns on no data
        with pytest.raises(ValueError) as exc:
            load_field(bad)
    assert str(exc.value) == f"{bad}: {error}"


def test_a_fields_kind_is_its_domains(tmp_path, disc_field_alpha1, strip_field_cos):
    for fld in (disc_field_alpha1, strip_field_cos):
        path = tmp_path / f"{fld.kind}.csv"
        save_field(fld, path)
        back = load_field(path)
        assert fld.kind == back.kind == back.domain.kind == fld.domain.kind
    domain = DomainSpec.strip(32, 17)
    assert field_from_callables(domain, 0.5, lambda x, y: 0 * x, lambda x, y: 0 * x).kind \
        == domain.kind == "periodic-strip"
    assert disc_field_alpha1.kind == "disc"
    with pytest.raises(AttributeError):
        disc_field_alpha1.kind = "periodic-strip"


def test_interpolation_matches_nodes(disc_field_alpha1, strip_field_cos):
    for fld in (disc_field_alpha1, strip_field_cos):
        xg, yg, u, v = fld.node_arrays()
        iu, iv = fld.uv(xg, yg)
        assert np.max(np.abs(iu - u)) < 1e-12
        assert np.max(np.abs(iv - v)) < 1e-12
    cu, cv = disc_field_alpha1.uv(0.0, 0.0)
    assert abs(cu - disc_field_alpha1.u_center) < 1e-12
    assert abs(cv - disc_field_alpha1.v_center) < 1e-12


@pytest.mark.parametrize("n_r, n_theta", [(32, 64), (64, 128)])
def test_disc_gradient_is_exact_on_affine_potentials(n_r, n_theta):
    grid = disc_grid(n_r, n_theta)
    x, y = grid.nodes()
    w = 0.7 * x - 1.3 * y + 0.25
    w_y, w_x, *_ = grid.extract_uv(w[:-1], w[-1])
    assert w_x.shape == w_y.shape == x.shape
    assert np.max(np.abs(w_x - 0.7)) < 1e-12          # every ring, the boundary included
    assert np.max(np.abs(w_y + 1.3)) < 1e-12


# Jacobians and the factor order

def _differenced(residual, x, step=1e-7):
    """Central differences of ``residual`` in every unknown of x, column by column."""
    cols = []
    for k in range(x.size):
        e = np.zeros(x.size)
        e[k] = step
        cols.append((residual(x + e.reshape(x.shape)) - residual(x - e.reshape(x.shape))).ravel()
                    / (2 * step))
    return np.column_stack(cols)


# Reference Jacobians and floor scales, computed the way the solver computed them
# before a quotient's Jacobian was built on its own folded pattern: the full grid's
# Jacobian entry by entry, then restricted to the quotient's rows and folded by its
# unfold map.  Rows and columns are box nodes in row-major order, the disc's border
# unknown g last.

def _box_rows(q, n_cols):
    """The full grid's row-major node of each box node of the quotient q."""
    k = np.arange(q.shape[0] * q.shape[1])
    return k // q.shape[1] * n_cols + k % q.shape[1]


def _unfold_matrix(q):
    """The unfold map of the quotient q as a sparse matrix: full row-major nodes x box nodes."""
    import scipy.sparse as sp

    cols = []
    for k in range(q.shape[0] * q.shape[1]):
        e = np.zeros(q.shape[0] * q.shape[1])
        e[k] = 1.0
        cols.append(sp.csc_matrix(q.unfold(e.reshape(q.shape)).reshape(-1, 1)))
    return sp.hstack(cols).tocsr()


def _disc_reference(grid, q, x, phi, a):
    """(J, |J||z| row sums, bound) of the disc quotient q at x, from the full grid's operators.

    The bound is the residual's forward-error bound of each box node, summed from
    |S| and |L| as matrices.
    """
    import scipy.sparse as sp

    ops = grid.ops64()
    n, nb, m = grid.pos.size, x.size, grid.M
    ghost = q.unknowns > nb
    # L: the lift from (box values, phi) to the operators' columns, factor order, g, phi
    unfold = _unfold_matrix(q)
    lift = sp.vstack([unfold[np.argsort(grid.pos)], unfold[:m].mean(axis=0)]).tocsr()
    lift = sp.block_diag([lift, sp.identity(m)]).tocsr()
    zq = np.append(x.ravel(), phi)
    z = lift @ zq
    fx, fxx = ops["x"] @ z, ops["xx"] @ z
    y2 = np.zeros(n + 1)
    y2[grid.pos] = grid.nodes()[1][:-1].ravel() ** 2
    qq = fx * fx + y2 + a * a
    w, dw_fxx = qq**-0.5, -fx * qq**-1.5 * fxx
    jac = (sp.diags(dw_fxx) @ ops["x"] + sp.diags(w) @ ops["xx"] + ops["yy"]).tocsr()
    rows = np.append(grid.pos[_box_rows(q, m)], np.full(int(ghost), n))
    square = jac[rows][:, : n + 1]
    # the bordered system's columns: the box values' reflections, then g as its own unknown
    cols = sp.vstack([unfold[np.argsort(grid.pos)], sp.csr_matrix((1, nb))])
    if ghost:
        cols = sp.hstack([cols, sp.csr_matrix(([1.0], ([n], [0])), shape=(n + 1, 1))])
    prefold = abs(square) @ np.abs(z[: n + 1])
    rows = rows[:nb]
    lifted = abs(lift) @ np.abs(zq)
    sx, sxx, syy = (abs(ops[name][rows]) @ lifted for name in ("x", "xx", "yy"))
    bound = np.abs(dw_fxx[rows]) * sx + w[rows] * sxx + syy
    return (square @ cols).tocsr(), prefold, bound


def _strip_reference(grid, q, x, top, bot, a):
    """(J, |J||z| row sums, bound) of the strip quotient q at x, node by node."""
    import scipy.sparse as sp

    ny, nx = grid.shape
    hx2, hy2 = grid.hx**2, grid.hy**2
    V = np.vstack([bot, q.unfold(x), top])
    entries = []                       # (row, column, value), duplicates summed
    bound = np.zeros(ny * nx)

    def face(i, j):                    # between nodes (i, j) and (i, j + 1) of V
        left, right = V[i, j % nx], V[i, (j + 1) % nx]
        mid = 0.5 * (left + right)
        qq = mid * mid + grid.y[i] ** 2 + a * a
        w, half_dw_d = qq**-0.5, -0.5 * mid * qq**-1.5 * (right - left)
        return w + half_dw_d, -w + half_dw_d, (w + abs(half_dw_d)) * (abs(left) + abs(right))

    for i in range(1, ny + 1):
        for j in range(nx):
            p = (i - 1) * nx + j
            plus, minus = face(i, j), face(i, j - 1)
            entries += [(p, p, (plus[1] - minus[0]) / hx2 - 4.0 / hy2),
                        (p, (i - 1) * nx + (j + 1) % nx, plus[0] / hx2),
                        (p, (i - 1) * nx + (j - 1) % nx, -minus[1] / hx2)]
            entries += [(p, (k - 1) * nx + j, 2.0 / hy2) for k in (i - 1, i + 1) if 1 <= k <= ny]
            bound[p] = ((plus[2] + minus[2]) / hx2
                        + (abs(V[i - 1, j]) + 2 * abs(V[i, j]) + abs(V[i + 1, j])) * 2.0 / hy2)
    r, c, v = zip(*entries)
    jac = sp.csr_matrix((v, (r, c)), shape=(ny * nx, ny * nx))
    rows = _box_rows(q, nx)
    prefold = abs(jac[rows]) @ np.abs(V[1:-1].ravel())
    return (jac[rows] @ _unfold_matrix(q)).tocsr(), prefold, bound[rows]


def _reference(q, x, edges, a):
    """_disc_reference or _strip_reference of the quotient q: edges (phi,) or (top, bottom)."""
    if len(edges) == 1:
        return _disc_reference(disc_grid(q.N, q.M), q, x, *edges, a)
    return _strip_reference(strip_grid(q.n_x, q.n_y, q.R, q.P), q, x, *edges, a)


def _box_order(q, jac):
    """A quotient's Jacobian, rows and columns in box order, border unknowns last."""
    perm = np.append(q.pos, np.arange(q.pos.size, q.unknowns))
    return jac.tocsr()[perm][:, perm]


@pytest.mark.parametrize("a", [0.5, 1e-3])
@pytest.mark.parametrize("kind", ["disc", "strip"])
def test_jacobian_matches_central_differences(kind, a):
    rng = np.random.default_rng(1)
    if kind == "disc":
        grid = disc_grid(16, 16)
        spec = BoundarySpec.make(0.2, cos={1: 1.0, 3: -1.0}, sin={2: 0.3})
        edges = (spec.sample(grid.theta),)
        x = grid.harmonic_extension(spec) + 1e-2 * rng.standard_normal((15, 16))
    else:
        grid = strip_grid(16, 17, 1.0, 2 * np.pi)
        top = BoundarySpec.make(0.3, cos={1: 0.5}).sample_x(grid.x, 2 * np.pi)
        bot = BoundarySpec.make(0.3, sin={1: 0.4}).sample_x(grid.x, 2 * np.pi)
        edges = (top, bot)
        x = 0.3 + 0.2 * rng.standard_normal((15, 16))
    system = grid.quotient((0, 0))                   # data of no reflection: the full grid
    data, scale = system.jacobian(x, *edges, a)
    jac = _matrix(system, data)
    full = _box_order(system, jac).toarray()
    n = x.size
    # on the disc, the Schur complement of the bordered Jacobian's g row and column
    # eliminates g and is the Jacobian of the residual in f_int
    ana = full[:n, :n] - np.outer(full[:n, n], full[n, :n]) / full[n, n] if kind == "disc" \
        else full
    num = _differenced(lambda f: grid.residual(f, *edges, a), x)
    assert jac.has_canonical_format
    assert np.max(np.abs(ana - num)) <= 1e-7 * np.max(np.abs(ana))
    # the floor's scale: the residual's forward-error bound, at least the full |J||z|
    _, prefold, bound = _reference(system, x, edges, a)
    assert scale == pytest.approx(np.max(bound), rel=1e-13)
    assert scale >= np.max(prefold)


@pytest.mark.parametrize("kind, n_x, n_y", [
    ("disc", 16, 16), ("disc", 17, 20), ("disc", 24, 44), ("disc", 31, 100),
    ("strip", 16, 17), ("strip", 17, 19), ("strip", 48, 25), ("strip", 100, 51)])
def test_factor_order_is_a_permutation(kind, n_x, n_y):
    if kind == "disc":
        grid = disc_grid(n_x, n_y)
        grid.ops64()
        unknowns = (n_x - 1) * n_y + 1               # the border unknown g sits last
        order = np.append(grid.pos, unknowns - 1)
    else:
        grid = strip_grid(n_x, n_y, 1.0, 2 * np.pi)
        unknowns = (n_y - 2) * n_x
        order = grid.pos
    assert np.array_equal(np.sort(order), np.arange(unknowns))


@pytest.fixture(scope="module")
def jacobian_128():
    grid = disc_grid(128, 256)
    spec = na_potential_circle(0.5)
    phi = spec.sample(grid.theta)
    system = grid.quotient((0, 0))                   # the full grid's system
    return _matrix(system, system.jacobian(grid.harmonic_extension(spec), phi, 0.5)[0])


def test_factor_order_fill_is_below_minimum_degree(jacobian_128):
    import scipy.sparse.linalg as spla

    lu = spla.splu(jacobian_128, permc_spec="NATURAL")
    # L.nnz + U.nnz of the MMD_AT_PLUS_A factor of the same Jacobian when the
    # pole ghost was a dense ring-1 block instead of a border unknown
    assert lu.L.nnz + lu.U.nnz < 2_835_724


def test_factor_order_solve_matches_minimum_degree(jacobian_128):
    import scipy.sparse.linalg as spla

    b = np.random.default_rng(2).standard_normal(jacobian_128.shape[0])
    got = spla.splu(jacobian_128, permc_spec="NATURAL").solve(b)
    ref = spla.splu(jacobian_128, permc_spec="MMD_AT_PLUS_A").solve(b)
    assert np.max(np.abs(got - ref)) <= 1e-11 * np.max(np.abs(ref))


def test_fill_is_recorded_per_factorisation():
    fld = solve_disc_limit(BoundarySpec.make(cos={1: 1.0, 3: -1.0}), DomainSpec.disc(24, 48))
    levels = fld.diagnostics["levels"]
    assert sum(lev["factorizations"] for lev in levels) >= 1
    for lev in levels:
        assert len(lev["fill"]) == lev["factorizations"]
        assert all(fill > 23 * 48 for fill in lev["fill"])
    assert fld.diagnostics["fill"] == levels[-1]["fill"]


# -- grid-sequenced cold starts ------------------------------------------------

def test_prolongation_is_exact_on_cubic_rays_of_resolved_harmonics():
    from slfib.elliptic import _prolong

    n, m = 16, 32                                # the coarse grid; the fine one is (32, 64)

    def sample(n_r, n_theta):
        xi = np.arange(1, n_r)[:, None] / n_r
        theta = 2 * np.pi * np.arange(n_theta) / n_theta
        ray = xi * (1 - xi) * (xi + 0.3)         # a cubic vanishing at the pole and the rim
        return ray * (np.cos(theta) - 0.5 * np.sin(3 * theta) + 0.25 * np.cos(m // 2 * theta))

    assert np.max(np.abs(_prolong(sample(n, m)) - sample(2 * n, 2 * m))) < 1e-14


def test_cold_start_falls_back_to_the_harmonic_extension(monkeypatch):
    import slfib.elliptic as ell

    spec, a, domain = na_potential_circle(0.05), 0.05, DomainSpec.disc(64, 128)
    grid = disc_grid(64, 128)
    ref = solve_disc(spec, a, domain, initial=grid.harmonic_extension(spec))

    def coarse_diverges(boundary, level, dom=None, **kwargs):
        if dom is not None and dom.n_x < 64:
            raise SolverDiverged("no", residual=1.0)
        return solve_disc(boundary, level, dom, **kwargs)

    monkeypatch.setattr(ell, "solve_disc", coarse_diverges)
    fld = solve_disc(spec, a, domain)
    assert fld.diagnostics["coarse"] == ()
    for name in ("f", "u", "v"):
        assert np.array_equal(getattr(fld, name), getattr(ref, name))
    assert (fld.f_center, fld.u_center, fld.v_center) == (ref.f_center, ref.u_center,
                                                          ref.v_center)
    assert fld.residual_norm == ref.residual_norm
    assert fld.diagnostics["history"] == ref.diagnostics["history"]


@pytest.mark.parametrize("n_x, n_y", [(24, 48), (33, 64), (40, 52)])
def test_grids_that_do_not_halve_make_no_coarse_solves(n_x, n_y):
    spec = BoundarySpec.make(cos={1: 1.0, 3: -1.0})
    fld = solve_disc(spec, 0.5, DomainSpec.disc(n_x, n_y))
    assert fld.converged and fld.diagnostics["coarse"] == ()


@pytest.mark.parametrize("a", [0.5, 0.05, 1e-3])
def test_sequenced_start_matches_the_harmonic_start(a):
    spec, domain = na_potential_circle(a), DomainSpec.disc(64, 128)
    ref = solve_disc(spec, a, domain, initial=disc_grid(64, 128).harmonic_extension(spec))
    fld = solve_disc(spec, a, domain)
    assert [(c["n_x"], c["n_y"]) for c in fld.diagnostics["coarse"]] == [(16, 32), (32, 64)]
    assert all(c["converged"] for c in fld.diagnostics["coarse"])
    assert ref.diagnostics["coarse"] == ()
    assert fld.converged and fld.residual_norm <= fld.diagnostics["tolerance"]
    assert np.max(np.abs(fld.f - ref.f)) <= 1e-10
    assert np.max(np.abs(fld.v - ref.v)) <= 1e-10
    assert fld.diagnostics["factorizations"] <= ref.diagnostics["factorizations"]


def test_sequenced_start_keeps_affine_data_exact():
    spec = BoundarySpec.make(0.3, cos={1: 2.0}, sin={1: -0.7})
    fld = solve_disc(spec, 1e-3, DomainSpec.disc(64, 128))
    assert [c["newton_iterations"] for c in fld.diagnostics["coarse"]] == [0, 0]
    assert fld.diagnostics["newton_iterations"] == 0
    assert fld.diagnostics["factorizations"] == 0
    assert np.max(np.abs(fld.v - 2.0)) < 1e-10 and np.max(np.abs(fld.u + 0.7)) < 1e-10


def test_limit_lists_the_coarse_solves_of_its_first_level():
    fld = solve_disc_limit(BoundarySpec.make(cos={1: 1.0, 3: -1.0}), DomainSpec.disc(32, 64))
    coarse = fld.diagnostics["coarse"]
    assert [(c["a"], c["n_x"], c["n_y"]) for c in coarse] == [(1.0, 16, 32)]
    # the coarse solves stay out of the level records
    assert all("n_x" not in lev for lev in fld.diagnostics["levels"])


def test_dump_roundtrip_keeps_the_coarse_solves(tmp_path, disc_field_alpha1):
    coarse = disc_field_alpha1.diagnostics["coarse"]
    assert [(c["n_x"], c["n_y"]) for c in coarse] == [(24, 48)]
    path = tmp_path / "disc.csv"
    save_field(disc_field_alpha1, path)
    back = load_field(path)
    assert back.diagnostics["coarse"] == coarse
    assert isinstance(back.diagnostics["coarse"], tuple)
    assert isinstance(back.diagnostics["coarse"][0]["fill"], tuple)


def test_chord_step_that_reaches_the_tolerance_is_kept():
    import scipy.sparse as sp

    from slfib.elliptic import CHORD_CONTRACTION, _newton

    # the Jacobian is 2.5 times the slope, so every step leaves 0.6 of the
    # residual, above CHORD_CONTRACTION; the first chord step, from 1.5e-10,
    # lands at 9e-11, below NEWTON_TOL
    def eval_res(x):
        return x.copy()

    def factorize(x):
        return _plain_lu(sp.diags(np.full(x.size, 2.5)).tocsc(), 2.5 * np.max(np.abs(x)))

    _, norm, iters, diag = _newton(np.full(3, 2.5e-10), eval_res, factorize, None)
    history = diag["history"]
    assert history[2] / history[1] > CHORD_CONTRACTION
    assert norm == history[-1] < NEWTON_TOL == diag["tolerance"]
    assert not diag["stagnated"]
    assert (iters, diag["factorizations"], diag["chord_steps"]) == (2, 1, 1)


def test_no_residual_between_a_damped_line_search_and_the_next_factorisation():
    import scipy.sparse as sp

    from slfib.elliptic import _newton

    # Newton on arctan from x = 3 overshoots, so its first step is damped
    events = []

    def eval_res(x):
        events.append(("residual", float(x[0])))
        return np.arctan(x)

    def factorize(x):
        events.append(("factor", float(x[0])))
        return _plain_lu(sp.diags(1.0 / (1.0 + x * x)).tocsc(), np.max(np.abs(x) / (1.0 + x * x)))

    _, norm, _, diag = _newton(np.full(1, 3.0), eval_res, factorize, None)
    assert norm < NEWTON_TOL and not diag["stagnated"]
    damped = 0
    for k, (kind, x_k) in enumerate(events):
        if kind != "factor":
            continue
        after = []                   # the residual evaluations up to the next factorisation
        for kind_next, x in events[k + 1:]:
            if kind_next == "factor":
                break
            after.append(x)
        # the line search evaluates at x_k + lam * delta, lam = 1, 1/2, 1/4, ...
        delta = -np.arctan(x_k) * (1.0 + x_k * x_k)
        searched = 0
        while searched < len(after) and \
                (after[searched] - x_k) / delta == pytest.approx(2.0**-searched, rel=1e-12):
            searched += 1
        if searched >= 2:            # a damped step: no chord trial before the next factor
            damped += 1
            assert len(after) == searched
    assert damped >= 1 and damped == diag["refactors"]["damped"]
    assert sum(diag["refactors"].values()) == diag["factorizations"]


@pytest.mark.parametrize("kernel, counts", [("superlu", (1, 0)), ("band", (11, 10))])
def test_band_factors_refactor_once_the_chord_rate_would_not_reach_the_tolerance(kernel, counts):
    from slfib.elliptic import BAND_HORIZON, _LU, _newton

    # every step, chord or Newton, leaves 0.4 of the residual: a kept chord
    # step from norm predicts norm * 0.4^BAND_HORIZON after BAND_HORIZON more
    def eval_res(x):
        return x.copy()

    def factorize(x):
        return _LU(lambda b: 0.6 * b, np.arange(x.size), x.size, kernel, None, x.size,
                   np.max(np.abs(x)))

    _, norm, iters, diag = _newton(np.ones(3), eval_res, factorize, None)
    history = np.array(diag["history"])
    assert norm < NEWTON_TOL and np.allclose(history[1:] / history[:-1], 0.4)
    assert (diag["factorizations"], diag["refactors"]["horizon"]) == counts
    assert iters == diag["factorizations"] + diag["chord_steps"] == 26
    if kernel == "band":
        # factor and chord step alternate while norm * 0.4^BAND_HORIZON is above the
        # tolerance after the chord step; the last such step is iteration 2 * horizon
        last = 2 * diag["refactors"]["horizon"]
        assert history[last] * 0.4**BAND_HORIZON > NEWTON_TOL
        assert history[last + 2] * 0.4**BAND_HORIZON <= NEWTON_TOL


@pytest.mark.parametrize("alpha", [0.22, 0.25, 0.28, 0.30, 0.32])
def test_the_continuation_converges_every_level_near_the_lower_bifurcation(alpha):
    # a quartering ladder's Newton stalls at a = 2.44e-4 for alpha = 0.3 on this grid
    fld = solve_disc_limit(*disc_family().boundary(alpha), DomainSpec.disc(32, 64))
    assert all(lev["converged"] for lev in kept_levels(fld))


@pytest.mark.parametrize("kind", ["disc", "strip"])
def test_the_continuation_agrees_with_a_quartering_ladder_at_the_cli_grids(kind):
    if kind == "disc":
        data, domain = disc_family().boundary(1.25), DomainSpec.disc(128, 256)
        fld = solve_disc_limit(*data, domain)
    else:
        data, domain = (BoundarySpec.make(cos={1: 0.5}),) * 2, DomainSpec.strip(256, 129)
        fld = solve_strip_limit(*data, domain)
    ref = ladder(data, domain)[-1]
    assert fld.a == ref.a == DEFAULT_A_MIN
    for name in ("u", "v"):
        assert np.max(np.abs(getattr(fld, name) - getattr(ref, name))) <= 1e-10


def test_disc_family_continuation_refactors_before_a_slow_chord_run():
    fields = ladder(disc_family().boundary(2.2), DomainSpec.disc(32, 64))
    assert len(fields) == 8 and all(fld.converged for fld in fields)
    # a level whose chord steps contract by just under CHORD_CONTRACTION refactors
    # instead of running 30 chord steps
    assert max(fld.diagnostics["newton_iterations"] for fld in fields) <= 12
    assert fields[-1].v_center == pytest.approx(3.36329415949, abs=1e-9)


# -- solves on the symmetry quotient ---------------------------------------------

def _strip_family_edge():
    return BoundarySpec.make(-0.16, cos={1: 0.5})


QUOTIENT_PROBLEMS = {
    # (solve, unknowns of the quotient): odd in x, even in x with the ghost, the strip quarter
    "disc-odd": (lambda: solve_disc(*disc_family().boundary(1.25), 0.05, DomainSpec.disc(32, 64)),
                 31 * 16),
    "disc-even": (lambda: solve_disc(na_potential_circle(0.05), 0.05, DomainSpec.disc(32, 64)),
                  31 * 17 + 1),
    "strip": (lambda: solve_strip(_strip_family_edge(), _strip_family_edge(), 0.5,
                                  DomainSpec.strip(64, 33)), 16 * 33),
}


@pytest.mark.parametrize("name", list(QUOTIENT_PROBLEMS))
def test_quotient_solution_solves_the_full_grid(name):
    solve, unknowns = QUOTIENT_PROBLEMS[name]
    fld = solve()
    assert fld.diagnostics["unknowns"] == unknowns
    if fld.kind == "disc":
        grid = disc_grid(fld.domain.n_x, fld.domain.n_y)
        interior, edges = fld.f[:-1], (fld.f[-1],)
        q = grid.quotient(grid.reflections(fld.boundary["circle"]))
    else:
        grid = strip_grid(fld.domain.n_x, fld.domain.n_y, fld.domain.R, fld.domain.P)
        interior, edges = fld.v[1:-1], (fld.v[-1], fld.v[0])
        q = grid.quotient(grid.reflections(fld.boundary["top"], fld.boundary["bottom"]))
    res = grid.residual(interior, *edges, fld.a)
    assert res.shape == grid.shape
    assert fld.converged and np.max(np.abs(res)) <= fld.diagnostics["tolerance"]
    # the floor's scale at the solution: the forward-error bound, at least the full
    # grid's |J||z| summed over the quotient's rows before the fold
    _, scale = q.jacobian(q.fold(interior), *edges, fld.a)
    _, prefold, bound = _reference(q, q.fold(interior), edges, fld.a)
    assert scale == pytest.approx(np.max(bound), rel=1e-13)
    assert scale >= np.max(prefold)


def test_odd_data_vanish_on_the_vertical_and_at_the_pole():
    fld = QUOTIENT_PROBLEMS["disc-odd"][0]()
    m = fld.domain.n_y
    assert np.all(fld.f[:-1, m // 4] == 0.0) and np.all(fld.f[:-1, 3 * m // 4] == 0.0)
    assert fld.f_center == 0.0


@pytest.mark.parametrize("kind, edges, unknowns", [
    ("disc", (BoundarySpec.make(cos={1: 1.0, 3: -1.0}),), 31 * 16),
    ("disc", (BoundarySpec.make(0.3, cos={2: 1.0, 4: -0.5}),), 31 * 17 + 1),
    ("disc", (BoundarySpec.make(0.3, cos={1: 1.0, 2: 0.5}),), 31 * 33 + 1),
    ("disc", (BoundarySpec.make(cos={1: 1.0, 3: -1.0}, sin={2: 0.1}),), 31 * 64 + 1),
    ("strip", (BoundarySpec.make(0.2, cos={1: 0.5}),) * 2, 16 * 33),
    ("strip", (BoundarySpec.make(0.2, cos={1: 0.5}, sin={2: 0.1}),) * 2, 16 * 64),
    ("strip", (BoundarySpec.make(0.2, cos={1: 0.5}), BoundarySpec.make(0.2, cos={2: 0.3})),
     31 * 33),
    ("strip", (BoundarySpec.make(0.2, cos={1: 0.5}), BoundarySpec.make(0.2, sin={1: 0.3})),
     31 * 64),
], ids=["disc-odd", "disc-even", "disc-y", "disc-sine", "strip-xy", "strip-y", "strip-x",
        "strip-none"])
def test_unknowns_follow_the_data_reflections(kind, edges, unknowns):
    if kind == "disc":
        fld = solve_disc(*edges, 0.5, DomainSpec.disc(32, 64))
    else:
        fld = solve_strip(*edges, 0.5, DomainSpec.strip(64, 33))
    assert fld.converged and fld.diagnostics["unknowns"] == unknowns


@pytest.mark.parametrize("kind", ["disc", "strip"])
def test_a_small_sine_term_moves_the_field_little(kind):
    # the sine term sends the solve to the full grid; the field moves by about its size
    if kind == "disc":
        spec, = disc_family().boundary(1.25)
        ref = solve_disc(spec, 0.05, DomainSpec.disc(32, 64))
        fld = solve_disc(BoundarySpec.make(spec.constant, dict(spec.cos_coeffs), {1: 1e-6}),
                         0.05, DomainSpec.disc(32, 64))
    else:
        edge = _strip_family_edge()
        nudged = BoundarySpec.make(edge.constant, dict(edge.cos_coeffs), {1: 1e-6})
        ref = solve_strip(edge, edge, 0.5, DomainSpec.strip(64, 33))
        fld = solve_strip(nudged, nudged, 0.5, DomainSpec.strip(64, 33))
    assert fld.diagnostics["unknowns"] > ref.diagnostics["unknowns"]
    assert 0 < np.max(np.abs(fld.v - ref.v)) <= 1e-5


@pytest.mark.parametrize("case", ["disc-odd", "disc-even", "strip-xy", "strip-y"])
def test_quotient_jacobian_matches_central_differences(case):
    rng = np.random.default_rng(3)
    a = 0.05
    if case.startswith("disc"):
        grid = disc_grid(16, 16)
        spec = (BoundarySpec.make(cos={1: 1.0, 3: -1.0}) if case == "disc-odd"
                else BoundarySpec.make(0.2, cos={2: 1.0}))
        phi = spec.sample(grid.theta)
        q = grid.quotient(grid.reflections(spec))
        x = q.fold(grid.harmonic_extension(spec)) + 1e-2 * rng.standard_normal(q.shape)
        args = (phi, a)
    else:
        grid = strip_grid(16, 17, 1.0, 2 * np.pi)
        edge = BoundarySpec.make(0.3, cos={1: 0.5}, sin={2: 0.2} if case == "strip-y" else None)
        top = bot = edge.sample_x(grid.x, 2 * np.pi)
        q = grid.quotient(grid.reflections(edge, edge))
        x = 0.3 + 0.2 * rng.standard_normal(q.shape)
        args = (top, bot, a)
    data, scale = q.jacobian(x, *args)
    jac = _matrix(q, data)
    n = x.size
    full = _box_order(q, jac).toarray()
    if jac.shape[0] > n:                     # eliminate the border unknown g
        full = full[:n, :n] - np.outer(full[:n, n], full[n, :n]) / full[n, n]
    num = _differenced(lambda y: q.residual(y, *args), x)
    assert jac.has_canonical_format and jac.shape[0] == q.unknowns
    assert np.max(np.abs(full - num)) <= 1e-7 * np.max(np.abs(full))
    # the round-off floor's scale is the forward-error bound on the quotient's rows,
    # and at least the full grid's |J||z| summed over them before the fold
    _, prefold, bound = _reference(q, x, args[:-1], a)
    assert scale == pytest.approx(np.max(bound), rel=1e-13)
    assert scale >= np.max(prefold)


@pytest.mark.parametrize("n_r, n_theta", [(32, 64), (64, 128)])
@pytest.mark.parametrize("spec", [
    BoundarySpec.make(cos={1: 1.0, 3: -1.0}),
    BoundarySpec.make(0.3, cos={2: 1.0, 4: -0.5}),
    BoundarySpec.make(0.3, cos={1: 1.0, 2: 0.5}),
], ids=["odd", "even", "y"])
def test_quotient_residual_is_the_full_grids_on_its_box(spec, n_r, n_theta):
    # the quotient's one product against the full grid's lift and three products,
    # at an iterate far from any solution
    grid = disc_grid(n_r, n_theta)
    q = grid.quotient(grid.reflections(spec))
    assert q._stacked is not None and grid._stacked is None
    phi = spec.sample(grid.theta)
    x = q.fold(grid.harmonic_extension(spec))
    x = x + 1e-2 * np.random.default_rng(5).standard_normal(q.shape)
    res = q.residual(x, phi, 0.05)
    full = grid.residual(q.unfold(x), phi, 0.05)
    assert res.shape == q.shape
    assert np.max(np.abs(res - q.fold(full))) <= 1e-13 * np.max(np.abs(res))


# -- the band LU of narrow systems -----------------------------------------------

def _iterate(kind, n_x, n_y, *edges):
    """A system of the data's reflections, a start on it and the sampled edges."""
    if kind == "disc":
        grid = disc_grid(n_x, n_y)
        q = grid.quotient(grid.reflections(*edges))
        return q, q.fold(grid.harmonic_extension(*edges)), (edges[0].sample(grid.theta),)
    grid = strip_grid(n_x, n_y, 1.0, 2 * np.pi)
    top, bot = (edge.sample_x(grid.x, 2 * np.pi) for edge in edges)
    w = (grid.y[1:-1, None] + 1.0) / 2.0
    q = grid.quotient(grid.reflections(*edges))
    return q, q.fold(bot * (1 - w) + top * w), (top, bot)


def _system(kind, n_x, n_y, *edges):
    """A system of the data's reflections and its Jacobian (data, scale) at a = 0.05."""
    q, x, sampled = _iterate(kind, n_x, n_y, *edges)
    return q, q.jacobian(x, *sampled, 0.05)


_EDGE_Y_SINE = BoundarySpec.make(-0.16, cos={1: 0.5}, sin={2: 0.1})
BAND_SYSTEMS = {
    # (kind, n_x, n_y, edges): odd in x; even in x with the ghost; even in y only; no
    # reflection; the strip even in x and y, in x only, in y only
    "disc-odd": ("disc", 32, 64, BoundarySpec.make(cos={1: 1.0, 3: -1.0})),
    "disc-even": ("disc", 32, 64, BoundarySpec.make(0.3, cos={2: 1.0, 4: -0.5})),
    "disc-y": ("disc", 32, 64, BoundarySpec.make(0.3, cos={1: 1.0, 2: 0.5})),
    "disc-full": ("disc", 32, 64, BoundarySpec.make(cos={1: 1.0, 3: -1.0}, sin={2: 0.1})),
    "strip-xy": ("strip", 64, 33, _strip_family_edge(), _strip_family_edge()),
    "strip-x": ("strip", 64, 33, _strip_family_edge(), BoundarySpec.make(-0.16, cos={2: 0.3})),
    "strip-y": ("strip", 64, 33, _EDGE_Y_SINE, _EDGE_Y_SINE),
}


@pytest.mark.parametrize("name", list(BAND_SYSTEMS))
def test_jacobian_is_the_full_grids_folded_onto_the_quotient(name):
    # the entries filled on the quotient's own pattern against the full grid's
    # Jacobian, restricted to the quotient's rows and folded by its unfold map
    q, x, edges = _iterate(*BAND_SYSTEMS[name])
    data, _ = q.jacobian(x, *edges, 0.05)
    got = _box_order(q, _matrix(q, data))
    ref, _, _ = _reference(q, x, edges, 0.05)
    assert abs(got - ref).max() <= 1e-12 * abs(ref).max()
    # the same pattern: every entry of the folded Jacobian is one of pattern's
    ones = _box_order(q, _matrix(q, np.ones(data.size)))
    ref.eliminate_zeros()
    assert ones.multiply(abs(ref) > 0).nnz == ref.nnz


@pytest.mark.parametrize("name", list(BAND_SYSTEMS))
def test_band_solve_matches_superlu(name, monkeypatch):
    from slfib import elliptic

    q, jac = _system(*BAND_SYSTEMS[name])
    rhs = np.random.default_rng(4).standard_normal(q.pos.size)
    n = q.pattern[1].size - 1
    monkeypatch.setattr(elliptic, "BAND_MAX", n)   # the band LU for every system
    banded = q.factor(*jac)
    monkeypatch.setattr(elliptic, "BAND_MAX", 0)   # SuperLU for every system
    superlu = q.factor(*jac)
    assert (banded.kernel, superlu.kernel) == ("band", "superlu")
    _, kl, ku, _ = q._band
    assert banded.fill == (2 * kl + ku + 1) * n
    got, ref = banded.solve(rhs), superlu.solve(rhs)
    assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))


@pytest.mark.parametrize("system, half_bandwidth, kernel", [
    (("disc", 32, 64, BoundarySpec.make(cos={1: 1.0, 3: -1.0})), 17, "band"),
    (("disc", 64, 128, BoundarySpec.make(cos={1: 1.0, 3: -1.0})), 33, "band"),
    (("disc", 64, 128, na_potential_circle(0.05)), 34, "band"),
    (("strip", 64, 33, _strip_family_edge(), _strip_family_edge()), 16, "band"),
    (("strip", 128, 65, _strip_family_edge(), _strip_family_edge()), 32, "band"),
    (("disc", 128, 256, na_potential_circle(0.05)), 66, "superlu"),
    (BAND_SYSTEMS["disc-full"], 127, "superlu"),
    (BAND_SYSTEMS["strip-y"], 64, "superlu"),
    (("strip", 64, 33, _EDGE_Y_SINE, BoundarySpec.make(-0.16, cos={2: 0.3})), 64, "superlu"),
], ids=["disc-32-quarter", "disc-64-quarter", "disc-64-even-quarter", "strip-64-quarter",
        "strip-128-quarter", "disc-128-even-quarter", "disc-32-full", "strip-64-y",
        "strip-64-full"])
def test_band_selection(system, half_bandwidth, kernel):
    q, jac = _system(*system)
    lu = q.factor(*jac)
    assert (lu.kernel, lu.half_bandwidth) == (kernel, half_bandwidth)
    layout = q._band
    _, kl, ku, _ = layout
    assert max(kl, ku) == half_bandwidth
    assert q.factor(*jac).half_bandwidth == half_bandwidth and q._band is layout   # kept


@pytest.mark.parametrize("kind", ["disc", "strip"])
def test_superlu_everywhere_agrees_with_the_band_path(kind, monkeypatch):
    from slfib import elliptic

    if kind == "disc":
        def solve():
            return solve_disc_limit(*disc_family().boundary(1.25), DomainSpec.disc(32, 64))
    else:
        def solve():
            edge = _strip_family_edge()
            return solve_strip_limit(edge, edge, DomainSpec.strip(64, 33))
    banded = solve()
    monkeypatch.setattr(elliptic, "BAND_MAX", 0)
    superlu = solve()
    assert {lev["factor"] for lev in banded.diagnostics["levels"]} == {"band"}
    assert {lev["factor"] for lev in superlu.diagnostics["levels"]} == {"superlu"}
    tol = max(banded.diagnostics["tolerance"], superlu.diagnostics["tolerance"])
    assert banded.converged and superlu.converged
    for name in ("u", "v"):
        assert np.max(np.abs(getattr(banded, name) - getattr(superlu, name))) <= tol


def test_a_quotient_does_not_inherit_its_grids_band():
    from slfib.elliptic import DiscGrid

    grid = DiscGrid(32, 64)                   # uncached: none of its quotients exists yet
    lus = []
    for name in ("disc-full", "disc-odd"):    # the full grid builds its band layout first
        spec = BAND_SYSTEMS[name][3]
        q = grid.quotient(grid.reflections(spec))
        lus.append(q.factor(*q.jacobian(q.fold(grid.harmonic_extension(spec)),
                                        spec.sample(grid.theta), 0.05)))
    assert max(grid.quotient((0, 0))._band[1:3]) == 127   # kept on the full grid's system
    assert [(lu.kernel, lu.half_bandwidth) for lu in lus] == [("superlu", 127), ("band", 17)]


def test_a_warm_strip_solve_builds_no_sparse_matrix(monkeypatch):
    import scipy.sparse as sp

    from slfib import elliptic

    edge = _strip_family_edge()
    domain = DomainSpec.strip(64, 33)
    cold = solve_strip(edge, edge, 0.05, domain)      # builds the grid and its quarter
    calls = []

    class Counting:
        def __getattr__(self, name):
            return getattr(sp, name)

        def csc_matrix(self, *args, **kwargs):
            calls.append(kwargs.get("shape"))
            return sp.csc_matrix(*args, **kwargs)

    monkeypatch.setattr(elliptic, "sp", Counting())
    warm = solve_strip(edge, edge, 0.04, domain, initial=cold.v[1:-1])
    assert warm.converged and warm.diagnostics["factor"] == "band"
    assert warm.diagnostics["factorizations"] >= 1
    assert calls == []


def test_a_warm_disc_solve_builds_no_sparse_matrix(monkeypatch):
    import scipy.sparse as sp

    from slfib import elliptic

    domain = DomainSpec.disc(32, 64)
    spec, = disc_family().boundary(1.25)              # odd in x: the quarter
    cold = solve_disc(spec, 0.05, domain)             # builds the grid and its quarter
    used = []

    class Recording:                                  # every use of scipy.sparse by elliptic
        def __getattr__(self, name):
            used.append(name)
            return getattr(sp, name)

    monkeypatch.setattr(elliptic, "sp", Recording())
    warm = solve_disc(spec, 0.04, domain, initial=cold.f[:-1])
    assert warm.converged and warm.diagnostics["factor"] == "band"
    assert warm.diagnostics["unknowns"] == 31 * 16
    assert warm.diagnostics["factorizations"] >= 1
    assert used == []
