"""The three benchmark workloads: inputs from a seed, one pass, checks.

Each workload calls slfib the way ``slfib solve`` and ``slfib sweep`` do.
``setup`` builds the grids (and the disc operators) and the inputs;
``run_pass`` is the timed unit of work, with a fresh SolverCache per
pass; ``check`` runs outside the timed region and returns the failed
conditions.  Seed 0 is the unperturbed family point; any other seed
moves the inputs inside the family without changing the work's size.
"""

import hashlib
import math
import random
from dataclasses import dataclass, field

import numpy as np

from slfib import elliptic, fibrations, models, singularities

# -- disc_oracle --------------------------------------------------------------

ORACLE_RESOLUTION = (128, 256)
ORACLE_LEVELS = (0.5, 0.05, 1e-3)
ORACLE_SPREAD = 0.05             # seeds scale each level by exp(U(-0.05, 0.05))
# Max node error against na_oracle_grid per level over the a the seeds
# reach (largest at the ends of the range), times 1.1.  These record
# today's accuracy, including the first-order loss at small a, so that a
# change costing accuracy fails.
ORACLE_CEIL_U = (1.7e-4, 8.1e-3, 5.6e-2)
ORACLE_CEIL_V = (3.7e-4, 4.3e-3, 8.9e-3)

# -- disc_bifurcation ---------------------------------------------------------

BIF_RESOLUTION = (32, 64)
BIF_BRACKET = 20.0               # find_alpha0_alpha1's default bracket (-20, 20)
BIF_SPREAD = 0.02                # seeds scale the bracket by exp(U(-0.02, 0.02))
# Roots of the seed-0 pass.  The discrete roots do not depend on the
# bracket, and bisection to ROOT_TOL = 1e-6 lands within 5e-7 of them;
# 1e-5 also admits a different root search, solver tolerance or
# precision (field changes near 1e-10).  A change of grid, schedule or
# continuation depth moves the roots by far more and fails this check.
BIF_ALPHA0 = 0.17611533403396606
BIF_ALPHA1 = 2.2415325045585632
BIF_ROOT_TOL = 1e-5

# -- strip_band ---------------------------------------------------------------

STRIP_RESOLUTION = (64, 33)
STRIP_T = 0.5
STRIP_SPREAD = 0.1               # seeds scale t by exp(U(-0.1, 0.1))
# CURVE_TOL of fibrations at the seed: each edge is bisected to 1e-5 and
# v(x, y) -> -v(x + pi, y) maps the alpha probe onto the beta probe
# exactly on this grid, so |alpha + beta| <= 1e-5.
STRIP_SYMMETRY_TOL = 1e-5
# At b = 0 the data t cos x are odd about x = pi/2, so the zeros sit on
# the grid nodes pi/2 and 3 pi/2; detect_axis_zeros refines to 1e-8.
STRIP_ZERO_TOL = 1e-7


@dataclass
class Outcome:
    """What one pass produced, plus the counts its metrics need."""

    values: dict                      # named scalar results
    fields: list                      # fields whose values must repeat exactly
    solves: int                       # field solves made by the pass
    report: dict = None               # analyze_field report
    cache: object = None              # the pass's SolverCache
    search_misses: int = 0            # cache misses during the root search
    roots: int = 0

    def digest(self):
        """Hash of every returned number, for the bit-identity check."""
        h = hashlib.sha256()
        for name in sorted(self.values):
            h.update(f"{name}={self.values[name]!r};".encode())
        for fld in self.fields:
            for arr in (fld.u, fld.v, fld.f):
                if arr is not None:
                    h.update(np.ascontiguousarray(arr, dtype=float).tobytes())
            h.update(repr((fld.u_center, fld.v_center, fld.f_center)).encode())
        if self.report is not None:
            h.update(repr([(r.x_location, r.type, r.multiplicity)
                           for r in self.report["records"]]).encode())
        return h.hexdigest()


@dataclass
class Inputs:
    params: dict
    specs: list = field(default_factory=list)
    domain: object = None


def _factor(rng, spread):
    return math.exp(rng.uniform(-spread, spread)) if rng else 1.0


def _rng(seed):
    return random.Random(seed) if seed else None


# -- set-up ---------------------------------------------------------------------

def _disc_domain(resolution):
    domain = elliptic.DomainSpec.disc(*resolution)
    elliptic.disc_grid(domain.n_x, domain.n_y).ops64()
    return domain


def setup_disc_oracle(seed):
    rng = _rng(seed)
    levels = [a * _factor(rng, ORACLE_SPREAD) for a in ORACLE_LEVELS]
    domain = _disc_domain(ORACLE_RESOLUTION)
    specs = [models.na_potential_circle(a) for a in levels]
    return Inputs({"levels": levels}, specs, domain)


def setup_disc_bifurcation(seed):
    hi = BIF_BRACKET * _factor(_rng(seed), BIF_SPREAD)
    _disc_domain(BIF_RESOLUTION)
    # hi / 16 is one of the bisection midpoints (0, hi/2, hi/4, ...) that
    # both root searches probe, so its level-zero field is in the cache
    return Inputs({"bracket": (-hi, hi), "alpha_analyze": hi / 16})


def setup_strip_band(seed):
    t = STRIP_T * _factor(_rng(seed), STRIP_SPREAD)
    nx, ny = STRIP_RESOLUTION
    domain = elliptic.DomainSpec.strip(nx, ny)
    elliptic.strip_grid(domain.n_x, domain.n_y, domain.R, domain.P)
    return Inputs({"t": t}, domain=domain)


# -- passes -------------------------------------------------------------------

def pass_disc_oracle(inp):
    fields = [elliptic.solve_disc(spec, a, inp.domain)
              for a, spec in zip(inp.params["levels"], inp.specs)]
    return Outcome({}, fields, solves=len(fields))


def pass_disc_bifurcation(inp):
    cache = fibrations.SolverCache()
    alpha0, alpha1 = fibrations.find_alpha0_alpha1(
        resolution=BIF_RESOLUTION, bracket=inp.params["bracket"], cache=cache)
    search_misses = cache.misses
    fld = fibrations.solve_family_member(fibrations.disc_family(), 0.0,
                                         inp.params["alpha_analyze"], BIF_RESOLUTION,
                                         cache=cache)
    report = singularities.analyze_field(fld)
    return Outcome({"alpha0": alpha0, "alpha1": alpha1}, [fld], cache.misses, report,
                   cache, search_misses, roots=2)


def pass_strip_band(inp):
    cache = fibrations.SolverCache()
    t = inp.params["t"]
    (_, alpha, beta), = fibrations.alpha_beta_curves([t], resolution=STRIP_RESOLUTION,
                                                     cache=cache)
    search_misses = cache.misses
    fld = fibrations.solve_family_member(fibrations.strip_family(t), 0.0, 0.0,
                                         STRIP_RESOLUTION, cache=cache)
    report = singularities.analyze_field(fld)
    return Outcome({"alpha": alpha, "beta": beta}, [fld], cache.misses, report,
                   cache, search_misses, roots=2)


# -- checks ---------------------------------------------------------------------

def oracle_errors(inp, out):
    """Per level: max |u - u_oracle| and |v - v_oracle| over nodes and centre."""
    errs = []
    for a, fld in zip(inp.params["levels"], out.fields):
        xg, yg, u, v = fld.node_arrays()
        uo, vo = models.na_oracle_grid(a, xg, yg)
        uc, vc = models.na_oracle(a, 0.0, 0.0)
        errs.append((max(float(np.max(np.abs(u - uo))), abs(fld.u_center - uc)),
                     max(float(np.max(np.abs(v - vo))), abs(fld.v_center - vc))))
    return errs


def check_disc_oracle(inp, out):
    failed = []
    for k, (eu, ev) in enumerate(oracle_errors(inp, out)):
        if not eu <= ORACLE_CEIL_U[k]:
            failed.append(f"level {k}: u error {eu:.3e} above {ORACLE_CEIL_U[k]:.1e}")
        if not ev <= ORACLE_CEIL_V[k]:
            failed.append(f"level {k}: v error {ev:.3e} above {ORACLE_CEIL_V[k]:.1e}")
    return failed


def _interior(report):
    return [r for r in report["records"] if not r.boundary]


def check_disc_bifurcation(inp, out):
    failed = []
    a0, a1 = out.values["alpha0"], out.values["alpha1"]
    if not a0 < a1:
        failed.append(f"alpha0 {a0!r} not below alpha1 {a1!r}")
    for name, got, ref in (("alpha0", a0, BIF_ALPHA0), ("alpha1", a1, BIF_ALPHA1)):
        if not abs(got - ref) <= BIF_ROOT_TOL:
            failed.append(f"{name} {got!r} off the reference {ref!r}")
    points = _interior(out.report)
    if len(points) != 2 or any(r.multiplicity != 1 for r in points):
        failed.append(f"expected two interior points of multiplicity 1, got "
                      f"{[(r.x_location, r.multiplicity) for r in points]}")
    if not out.report["parity_ok"]:
        failed.append("parity check failed")
    return failed


def check_strip_band(inp, out):
    failed = []
    alpha, beta = out.values["alpha"], out.values["beta"]
    if not alpha <= beta:
        failed.append(f"alpha {alpha!r} above beta {beta!r}")
    if not abs(alpha + beta) <= STRIP_SYMMETRY_TOL:
        failed.append(f"|alpha + beta| = {abs(alpha + beta):.3e} breaks beta = -alpha")
    points = sorted((r.x_location, r.type) for r in _interior(out.report))
    want = [(0.5 * math.pi, "decreasing"), (1.5 * math.pi, "increasing")]
    if len(points) != 2 or any(
            kind != want_kind or not abs(x - want_x) <= STRIP_ZERO_TOL
            for (x, kind), (want_x, want_kind) in zip(points, want)):
        failed.append(f"b = 0 singular points {points}, expected {want}")
    if not out.report["parity_ok"]:
        failed.append("parity check failed")
    return failed


WORKLOADS = {
    "disc_oracle": (setup_disc_oracle, pass_disc_oracle, check_disc_oracle),
    "disc_bifurcation": (setup_disc_bifurcation, pass_disc_bifurcation,
                         check_disc_bifurcation),
    "strip_band": (setup_strip_band, pass_strip_band, check_strip_band),
}
