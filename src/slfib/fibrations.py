"""Assembly of the solver-backed fibration families and their discriminants.

Two concrete families are built.

Disc sweep: potential data phi_alpha = alpha cos(theta) - cos(3 theta) on
the unit circle, fibres indexed by (a, alpha, beta) where beta only
translates Im z3.  At level zero the family bifurcates at two parameter
values: alpha0, where v(0,0) crosses zero and a fused double singular
point appears at the origin, and alpha1, where v(1,0) crosses zero and
the singular points exit through the domain boundary.  The discriminant
is the ribbon {0} x [alpha0, alpha1) x R.

Strip sweep: edge data b + t cos(x) with period 2 pi on both edges,
fibres indexed by (a, b, c).  For t > 0 the level-zero fibres carry
singular points for b in the band [alpha(t), beta(t)], where alpha(t)
and beta(t) are the roots in b of v(0,0) and v(pi,0); at t = 0 the band
degenerates to the codimension-two line b = 0.

All parameter searches use bisection on solver probes, justified by the
strict monotonicity of v in the boundary data.  Solved fields are cached
in memory (and on disk when SLFIB_CACHE_DIR is set).  A probe that
misses the cache starts from solved neighbours in the family parameter
when they are cached: one Newton solve at the final level replaces the
continuation in a.  Bisection always holds solved b1 < b < b2, and the
field depends continuously on the data, so the first start is the linear
interpolant of the two fields; each neighbour on its own, shifted by the
harmonic extension of the data difference, follows, the closer first.
The continuation runs only for the first probe of a search or when no
start leads to a converged field (see solve_family_member).
"""

import hashlib
import os
import tempfile
from collections import OrderedDict
from dataclasses import dataclass

import numpy as np

from .elliptic import (
    SOLVER_VERSION,
    BoundarySpec,
    DomainSpec,
    disc_grid,
    geometric_schedule,
    level_record,
    load_field,
    save_field,
    solve_disc,
    solve_disc_limit,
    solve_strip,
    solve_strip_limit,
)
from .errors import BracketFailed, OutsideTotalSpace, SolverDiverged
from .singularities import detect_axis_zeros

DEFAULT_DISC_RESOLUTION = (64, 128)
DEFAULT_STRIP_RESOLUTION = (128, 65)
DEFAULT_SCHEDULE = geometric_schedule(1.0, 0.25)
ROOT_TOL = 1e-6
CURVE_TOL = 1e-5
CACHE_ENV = "SLFIB_CACHE_DIR"
BISECT_MAX_ITER = 200
BRACKET_MAX = 1024.0             # _grown_bracket doubles its half-width up to this
REFINE_WINDOW = 1e-4             # refine_band_edge's first half-width about the coarse root


@dataclass(frozen=True)
class FiberCoordinates:
    """Base coordinates of a solver-backed fibre."""

    a: float
    b: float
    c: float


@dataclass(frozen=True)
class DiscriminantRibbon:
    """Codimension-one discriminant component at level a = 0."""

    a_plane: float
    b_interval: tuple
    c_range: str                      # "all-reals" for both families here
    endpoint_kind: tuple              # kind at (b_lo, b_hi)
    counts: tuple                     # singular points per fibre: (exterior, edge, interior)
    degenerate: bool = False

    def width(self):
        return self.b_interval[1] - self.b_interval[0]


@dataclass(frozen=True)
class FamilySpec:
    """One of the two concrete sweep families."""

    kind: str                         # "disc-sweep" | "strip-sweep"
    t: float = 0.0                    # strip deformation parameter
    R: float = 1.0
    P: float = 2.0 * np.pi

    def __post_init__(self):
        if self.kind not in ("disc-sweep", "strip-sweep"):
            raise ValueError(f"unknown family kind {self.kind!r}")
        if self.kind == "strip-sweep" and abs(self.P - 2.0 * np.pi) > 1e-12:
            raise ValueError("the strip sweep family is defined at period 2 pi")

    def boundary(self, b):
        """Boundary data at family parameter b (alpha for the disc sweep)."""
        if self.kind == "disc-sweep":
            return BoundarySpec.make(cos={1: b, 3: -1.0})
        spec = BoundarySpec.make(constant=b, cos={1: self.t} if self.t else None)
        return spec, spec


def disc_family():
    return FamilySpec("disc-sweep")


def strip_family(t):
    return FamilySpec("strip-sweep", t=float(t))


# ---------------------------------------------------------------------------
# solver cache

class SolverCache:
    """LRU cache of solved fields, optionally persisted to SLFIB_CACHE_DIR.

    Keys are prefixed with the solver's SOLVER_VERSION, so a disk entry
    written by another solver version misses.  Disk entries are written
    to a temporary file in the cache directory and renamed into place,
    so processes sharing the directory never read a partial file.

    ``hits`` counts the fields served from memory or from disk and
    ``misses`` the solves that ran.  Family fields are keyed
    (lane, b), so ``nearest`` reads a lane's solved fields straight off
    the in-memory entries; of the solves that had such a neighbour,
    ``warm_starts`` counts those that started from one and
    ``warm_fallbacks`` those that ran the full schedule instead.
    """

    def __init__(self, maxsize=48):
        self.maxsize = maxsize
        self._store = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.warm_starts = 0
        self.warm_fallbacks = 0

    def _disk_path(self, key):
        root = os.environ.get(CACHE_ENV)
        if not root:
            return None
        os.makedirs(root, exist_ok=True)
        digest = hashlib.sha256(repr(key).encode()).hexdigest()[:24]
        return os.path.join(root, f"field-{digest}.csv")

    def get_or_solve(self, key, solve_fn):
        key = (SOLVER_VERSION, key)
        if key in self._store:
            self.hits += 1
            self._store.move_to_end(key)
            return self._store[key]
        path = self._disk_path(key)
        fld = None
        if path and os.path.exists(path):
            fld = load_field(path)
            self.hits += 1
        if fld is None:
            self.misses += 1
            fld = solve_fn()
            if path:
                _save_atomic(fld, path)
        self._store[key] = fld
        while len(self._store) > self.maxsize:
            self._store.popitem(last=False)
        return fld

    def nearest(self, lane, b):
        """The in-memory fields of ``lane`` nearest to b below and above it.

        Returns up to two (b', field) pairs, the one closer to b first.
        """
        below = above = None
        for (version, (key_lane, key_b)), fld in self._store.items():
            if version != SOLVER_VERSION or key_lane != lane:
                continue
            if key_b < b and (below is None or key_b > below[0]):
                below = (key_b, fld)
            elif key_b > b and (above is None or key_b < above[0]):
                above = (key_b, fld)
        return sorted((s for s in (below, above) if s is not None),
                      key=lambda s: abs(s[0] - b))


def _save_atomic(fld, path):
    fd, tmp = tempfile.mkstemp(dir=os.path.dirname(path), suffix=".tmp")
    os.close(fd)
    try:
        save_field(fld, tmp)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


_shared_cache = SolverCache()


def solve_family_member(family, a, b, resolution=None, schedule=None, cache=None):
    """Solve (or fetch) the family field at level a and parameter b.

    A field is cached under its lane, the family kind, t, R, P, level a,
    resolution and (at a = 0) schedule, and its parameter b.  On a miss
    the probe is warm-started in b: the Dirichlet problem at a != 0 has a
    unique solution, so a start built from solved neighbours in the same
    lane runs one Newton solve at the lane's final level (``schedule[-1]``
    at a = 0, else a).  The starts are tried in this order, and the first
    converged field is kept:

    - with a solved b1 < b and b2 > b, the linear interpolant
      (1 - w) F1 + w F2 of their interiors, w = (b - b1) / (b2 - b1);
      both families' data are affine in b, so it carries the data at b;
    - each neighbour b' on its own, the closer first, plus the harmonic
      extension of the data difference ((b - b') r cos(theta) on the
      disc, the constant b - b' on the strip).

    A kept field records its seed as ``diagnostics["warm_seed"]``, the
    pair (b1, b2) for the interpolant and b' for a one-sided start, and,
    at a = 0, its one level under ``diagnostics["levels"]``, with no
    Cauchy increments.  With no neighbour, or when every attempt diverges
    or stagnates, the probe runs the full continuation along the schedule.
    """
    cache = cache or _shared_cache
    schedule = tuple(schedule) if schedule is not None else DEFAULT_SCHEDULE
    b = float(b)
    level = schedule[-1] if a == 0.0 else a      # the level a warm start solves at
    if family.kind == "disc-sweep":
        res = resolution or DEFAULT_DISC_RESOLUTION
        domain = DomainSpec.disc(*res)
        spec = family.boundary(b)

        def cold():
            if a == 0.0:
                return solve_disc_limit(spec, domain, schedule)
            return solve_disc(spec, a, domain)

        def interior(fld):
            return fld.f[:-1]

        def shift(db):                    # harmonic extension of db cos(theta)
            grid = disc_grid(*res)
            return db * grid.r[:-1, None] * np.cos(grid.theta)

        def warm(initial):
            return solve_disc(spec, level, domain, initial=initial)
    else:
        res = resolution or DEFAULT_STRIP_RESOLUTION
        domain = DomainSpec.strip(res[0], res[1], family.R, family.P)
        top, bottom = family.boundary(b)

        def cold():
            if a == 0.0:
                return solve_strip_limit(top, bottom, domain, schedule)
            return solve_strip(top, bottom, a, domain)

        def interior(fld):
            return fld.v[1:-1]

        def shift(db):                    # harmonic extension of the constant db
            return db

        def warm(initial):
            return solve_strip(top, bottom, level, domain, initial=initial)

    lane = (family.kind, family.t, family.R, family.P, round(float(a), 15), res,
            schedule if a == 0 else None)

    def starts(seeds):
        if len(seeds) == 2:
            (b1, f1), (b2, f2) = sorted(seeds, key=lambda s: s[0])
            w = (b - b1) / (b2 - b1)
            yield (b1, b2), (1.0 - w) * interior(f1) + w * interior(f2)
        for seed_b, seed in seeds:
            yield seed_b, interior(seed) + shift(b - seed_b)

    def solve():
        seeds = cache.nearest(lane, b)
        for seed_id, initial in starts(seeds):
            try:
                fld = warm(initial)
            except SolverDiverged:
                continue
            if fld.converged:
                cache.warm_starts += 1
                if a == 0.0:
                    fld.is_limit = True
                    fld.diagnostics["levels"] = (level_record(fld),)
                fld.diagnostics["warm_seed"] = seed_id
                return fld
        if seeds:
            cache.warm_fallbacks += 1
        return cold()

    return cache.get_or_solve((lane, b), solve)


# ---------------------------------------------------------------------------
# probes and root searches

def _probe(family, a, point, resolution, schedule, cache):
    """The map b -> v at ``point`` of the family field at level a."""
    x, y = point
    centre = family.kind == "disc-sweep" and x == 0.0 and y == 0.0

    def probe(b):
        fld = solve_family_member(family, a, b, resolution, schedule, cache)
        # v only: a probe never reads u, so it builds no u interpolant
        return float(fld.v_center if centre else fld._eval("v", x, y))

    return probe


def vhat_probe(a, alpha, point, resolution=None, schedule=None, cache=None):
    """Interpolated v of the disc-family field at a point of the closed disc."""
    x, y = point
    if np.hypot(x, y) > 1.0 + 1e-12:
        raise OutsideTotalSpace("probe point outside the closed disc", x=x, y=y)
    return _probe(disc_family(), a, point, resolution, schedule, cache)(alpha)


def _bisect(fn, lo, hi, tol):
    flo = fn(lo)
    fhi = fn(hi)
    if flo == 0.0:
        return lo
    if fhi == 0.0:
        return hi
    if (flo < 0.0) == (fhi < 0.0):
        raise BracketFailed("no sign change over the bracket", lo=lo, hi=hi,
                            f_lo=flo, f_hi=fhi)
    for _ in range(BISECT_MAX_ITER):
        mid = 0.5 * (lo + hi)
        if hi - lo < tol:
            return mid
        fm = fn(mid)
        if fm == 0.0:
            return mid
        if (fm < 0.0) == (flo < 0.0):
            lo, flo = mid, fm
        else:
            hi = mid
    return 0.5 * (lo + hi)


def find_alpha0_alpha1(schedule=None, resolution=None, bracket=(-20.0, 20.0),
                       tol=ROOT_TOL, cache=None):
    """The two bifurcation values of the disc sweep at level zero.

    alpha0 is the unique root of alpha -> v(0,0) and alpha1 of
    alpha -> v(1,0); both probes are strictly increasing in alpha.
    """
    fam = disc_family()
    alpha0 = _bisect(_probe(fam, 0.0, (0.0, 0.0), resolution, schedule, cache),
                     bracket[0], bracket[1], tol)
    alpha1 = _bisect(_probe(fam, 0.0, (1.0, 0.0), resolution, schedule, cache),
                     bracket[0], bracket[1], tol)
    if not alpha0 < alpha1:
        raise BracketFailed("bifurcation values out of order",
                            alpha0=alpha0, alpha1=alpha1)
    return alpha0, alpha1


def _grown_bracket(fn, tol, b0=2.0):
    b = b0
    while b <= BRACKET_MAX:
        try:
            return _bisect(fn, -b, b, tol)
        except BracketFailed:
            b *= 2.0
    raise BracketFailed("no sign change up to the maximal bracket", b_max=BRACKET_MAX)


def project_to_base(p, family, resolution=None, schedule=None, cache=None,
                    tol=ROOT_TOL):
    """Base coordinates of a total-space point under the family fibration.

    The level is read off the moment map; the family parameter b is the
    unique root of the strictly increasing map b -> v_(a,b)(x, y) minus
    Re(z1 z2); the translation c is Im z3 - u_(a,b)(x, y).
    """
    z1, z2, z3 = p.z1, p.z2, p.z3
    x = z3.real
    y = (z1 * z2).imag
    target = (z1 * z2).real
    a = 0.5 * (abs(z1) ** 2 - abs(z2) ** 2)
    if family.kind == "disc-sweep":
        if x * x + y * y >= 1.0:
            raise OutsideTotalSpace("(Re z3)^2 + (Im z1 z2)^2 must be below 1",
                                    x=x, y=y)
    else:
        if abs(y) >= family.R:
            raise OutsideTotalSpace("|Im z1 z2| must be below R", y=y)

    probe = _probe(family, a, (x, y), resolution, schedule, cache)
    b = _grown_bracket(lambda b: probe(b) - target, tol)
    fld = solve_family_member(family, a, b, resolution, schedule, cache)
    if family.kind == "disc-sweep" and x == 0.0 and y == 0.0:
        u_val = float(fld.u_center)
    else:
        u_val, _ = fld.uv(x, y)
        u_val = float(u_val)
    c = z3.imag - u_val
    return FiberCoordinates(float(a), float(b), float(c))


def alpha_beta_curves(t_grid, resolution=None, schedule=None, tol=CURVE_TOL,
                      cache=None):
    """Edge curves of the strip-sweep discriminant band over a t grid.

    alpha(t) and beta(t) are the roots in b of the level-zero probes
    v(0,0) and v(pi,0); alpha <= beta because v(., 0) peaks at x = 0.
    """
    out = []
    for t in t_grid:
        fam = strip_family(t)
        alpha_t = _grown_bracket(_probe(fam, 0.0, (0.0, 0.0), resolution, schedule, cache), tol)
        beta_t = _grown_bracket(_probe(fam, 0.0, (np.pi, 0.0), resolution, schedule, cache), tol)
        out.append((float(t), alpha_t, beta_t))
    return out


def refine_band_edge(family, which, coarse, tol=1e-9, resolution=None,
                     schedule=None, cache=None):
    """Re-bisect a band-edge root to high accuracy from a coarse value.

    The bracket is [coarse - w, coarse + w], with w = REFINE_WINDOW
    doubled until the probe changes sign over it.
    """
    x0 = 0.0 if which == "alpha" else np.pi
    fn = _probe(family, 0.0, (x0, 0.0), resolution, schedule, cache)
    return coarse + _grown_bracket(lambda d: fn(coarse + d), tol, b0=REFINE_WINDOW)


def ribbon_report(family, params):
    """Discriminant ribbon data for a family.

    Disc sweep: params = (alpha0, alpha1); the lower end is a fold edge
    (a fused double point), the upper end is where the singular points
    reach the domain boundary.  Strip sweep: params = (alpha_t, beta_t);
    at t = 0 the band degenerates to the codimension-two line b = 0.
    """
    if family.kind == "disc-sweep":
        alpha0, alpha1 = params
        return DiscriminantRibbon(
            a_plane=0.0, b_interval=(float(alpha0), float(alpha1)),
            c_range="all-reals", endpoint_kind=("fold-boundary", "domain-boundary"),
            counts=(0, 1, 2))
    alpha_t, beta_t = params
    degenerate = abs(beta_t - alpha_t) < 1e-7
    return DiscriminantRibbon(
        a_plane=0.0, b_interval=(float(alpha_t), float(beta_t)),
        c_range="all-reals", endpoint_kind=("fold-boundary", "fold-boundary"),
        counts=(0, 1, 2), degenerate=degenerate)


def singular_count_profile(t, b_samples=None, resolution=None, schedule=None,
                           cache=None):
    """Axis-zero counts per period across the strip-sweep band at t.

    With no explicit samples the band edges are refined to 1e-9 and the
    profile is sampled just outside, at both edges and at the midpoint,
    where the expected counts are 0 / 1 / 2 / 1 / 0.
    """
    if not 0.0 < t <= 1.0:
        raise ValueError("the profile is defined for t in (0, 1]")
    fam = strip_family(t)
    if b_samples is None:
        (_, alpha_c, beta_c), = alpha_beta_curves([t], resolution, schedule,
                                                  cache=cache)
        alpha_t = refine_band_edge(fam, "alpha", alpha_c, resolution=resolution,
                                   schedule=schedule, cache=cache)
        beta_t = refine_band_edge(fam, "beta", beta_c, resolution=resolution,
                                  schedule=schedule, cache=cache)
        width = beta_t - alpha_t
        delta = max(0.05 * width, 1e-3)
        b_samples = [alpha_t - delta, alpha_t, 0.5 * (alpha_t + beta_t),
                     beta_t, beta_t + delta]
    out = []
    for b in b_samples:
        fld = solve_family_member(fam, 0.0, b, resolution, schedule, cache)
        zeros = detect_axis_zeros(fld)
        out.append((float(b), len(zeros), tuple(zeros)))
    return out
