"""Assembly of the solver-backed fibration families and their discriminants.

A family is data (FamilySpec): a domain kind and the data tuples base and
step, with data base + b * step at parameter b.  Two such families are built.

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
strict monotonicity of v in the boundary data.  A probe reads v alone; at
a grid node or the disc pole (every probe point of both sweeps on the
default grids) it builds neither u nor an interpolant.  Solved fields are
cached in memory (and on disk when SLFIB_CACHE_DIR is set), and a probe
that misses the cache starts from its solved neighbours in b: one Newton
solve at the final level replaces the continuation in a, which runs only
when no start converges (see solve_family_member).
"""

import hashlib
import os
import tempfile
from dataclasses import dataclass

import numpy as np

from .elliptic import (
    DEFAULT_A_MIN,
    SOLVER_VERSION,
    BoundarySpec,
    DomainSpec,
    level_record,
    load_field,
    save_field,
    solve_disc,
    solve_disc_limit,
    solve_strip,
    solve_strip_limit,
)
from .errors import BracketFailed, OutsideTotalSpace, SolverDiverged

DEFAULT_DISC_RESOLUTION = (64, 128)
DEFAULT_STRIP_RESOLUTION = (128, 65)
ROOT_TOL = 1e-6
CURVE_TOL = 1e-5
CACHE_ENV = "SLFIB_CACHE_DIR"
BISECT_MAX_ITER = 200
BRACKET_MAX = 1024.0             # _grown_bracket doubles its half-width up to this
CACHE_SIZE = 48                  # fields a SolverCache keeps in memory
_ZERO = BoundarySpec.make()      # the base of solve_family_member's one-sided starts


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
    degenerate: bool


@dataclass(frozen=True)
class FamilySpec:
    """A family affine in its parameter b: data base + b * step.

    ``kind`` is a DomainSpec kind; ``base`` and ``step`` are the solver's
    data tuples of BoundarySpecs, (phi,) on the disc and (top, bottom) on
    the strip.  Equal families share their cache lane (see solve_family_member).
    """

    kind: str
    base: tuple
    step: tuple

    def __post_init__(self):
        if self.kind not in ("disc", "periodic-strip"):
            raise ValueError(f"unknown family kind {self.kind!r}")

    def domain(self, resolution):
        """The domain of the family's fields at ``resolution``."""
        return DomainSpec(self.kind, 1.0, 2.0 * np.pi, *resolution)

    def boundary(self, b):
        """The data tuple at family parameter b (alpha for the disc sweep)."""
        return _affine(self.base, b, self.step)


def _affine(base, b, step):
    """The data tuple base + b * step, coefficient by coefficient; a repeated pair is made once."""
    def plus(d0, d1):
        terms = [dict(d0.cos_coeffs), dict(d0.sin_coeffs)]
        for coeffs, pairs in zip(terms, (d1.cos_coeffs, d1.sin_coeffs)):
            coeffs.update((k, coeffs.get(k, 0.0) + b * v) for k, v in pairs)
        return BoundarySpec.make(d0.constant + b * d1.constant, *terms)

    pairs = tuple(zip(base, step))
    made = {pair: plus(*pair) for pair in dict.fromkeys(pairs)}
    return tuple(made[pair] for pair in pairs)


def disc_family():
    return FamilySpec("disc", (BoundarySpec.make(cos={3: -1.0}),),
                      (BoundarySpec.make(cos={1: 1.0}),))


def strip_family(t):
    return FamilySpec("periodic-strip", (BoundarySpec.make(cos={1: t}),) * 2,
                      (BoundarySpec.make(1.0),) * 2)


# ---------------------------------------------------------------------------
# solver cache

class SolverCache:
    """LRU cache of CACHE_SIZE solved fields, optionally persisted to SLFIB_CACHE_DIR.

    Keys are prefixed with the solver's SOLVER_VERSION, so a disk entry
    written by another solver version misses.  Disk entries are written
    to a temporary file in the cache directory and renamed into place,
    so processes sharing the directory never read a partial file.

    ``hits`` counts the fields served from memory or from disk and
    ``misses`` the solves that ran.  Family fields are keyed
    (lane, b), so ``nearest`` reads a lane's solved fields straight off
    the in-memory entries; of the solves that had such a neighbour,
    ``warm_starts`` counts those that started from one and
    ``warm_fallbacks`` those that ran the full continuation instead.
    """

    def __init__(self):
        # a plain dict in use order: iterating an OrderedDict's items hashes every key twice
        self._store = {}
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
            self._store[key] = fld = self._store.pop(key)
            return fld
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
        while len(self._store) > CACHE_SIZE:
            del self._store[next(iter(self._store))]
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


def solve_family_member(family, a, b, resolution, cache=None):
    """Solve (or fetch) the family field at level a and parameter b.

    A field is cached under its lane, the family's kind and coefficients
    as plain tuples (cheap to hash and compare), level a and resolution,
    and its parameter b.  On a miss the probe is warm-started in b: the
    Dirichlet problem at a != 0 has a unique solution, so a start built
    from solved neighbours in the same lane runs one Newton solve at the
    lane's final level (the a_min proxy DEFAULT_A_MIN at a = 0, else a).
    The starts are tried in this order, the first converged kept:

    - with a solved b1 < b and b2 > b, the linear interpolant
      (1 - w) F1 + w F2 of their interiors, w = (b - b1) / (b2 - b1);
      the data are affine in b, so it carries the data at b;
    - each neighbour b' on its own, the closer first, plus the grid's
      ``harmonic_extension`` of (b - b') * step, scaled coefficient-wise
      first: (b - b') r cos(theta) on the disc, b - b' on the strip.

    A kept field records its seed as ``diagnostics["warm_seed"]``, the
    pair (b1, b2) for the interpolant and b' for a one-sided start, and,
    at a = 0, its one level under ``diagnostics["levels"]``, with no
    Cauchy increments.  With no neighbour, or when every attempt diverges
    or stagnates, the probe runs the full continuation in a.
    """
    cache = cache or _shared_cache
    b = float(b)
    level = DEFAULT_A_MIN if a == 0.0 else a      # the level a warm start solves at
    domain = family.domain(resolution)
    # module globals, read at call time, so that a patched solver is the one called
    solve_level, solve_limit = ((solve_disc, solve_disc_limit) if family.kind == "disc"
                                else (solve_strip, solve_strip_limit))
    lane = (family.kind, *((d.constant, d.cos_coeffs, d.sin_coeffs)
                           for d in family.base + family.step),
            round(float(a), 15), resolution)

    def starts(seeds):
        grid = domain.grid()
        if len(seeds) == 2:
            (b1, f1), (b2, f2) = sorted(seeds, key=lambda s: s[0])
            w = (b - b1) / (b2 - b1)
            yield (b1, b2), (1.0 - w) * grid.interior(f1) + w * grid.interior(f2)
        for seed_b, seed in seeds:
            shift = _affine((_ZERO,) * len(family.step), b - seed_b, family.step)
            yield seed_b, grid.interior(seed) + grid.harmonic_extension(*shift)

    def solve():
        data = family.boundary(b)
        seeds = cache.nearest(lane, b)
        for seed_id, initial in starts(seeds):
            try:
                fld = solve_level(*data, level, domain, initial=initial)
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
        if a == 0.0:
            return solve_limit(*data, domain)
        return solve_level(*data, a, domain)

    return cache.get_or_solve((lane, b), solve)


# ---------------------------------------------------------------------------
# probes and root searches

def _probe(family, a, point, resolution, cache):
    """The map b -> v at ``point`` of the family field at level a, by the grid's ``reader``."""
    read = family.domain(resolution).grid().reader("v", *point)
    return lambda b: read(solve_family_member(family, a, b, resolution, cache))


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


def find_alpha0_alpha1(resolution, bracket=(-20.0, 20.0), cache=None):
    """The two bifurcation values of the disc sweep at level zero.

    alpha0 is the unique root of alpha -> v(0,0) and alpha1 of
    alpha -> v(1,0); both probes are strictly increasing in alpha.  Each
    is bisected over ``bracket`` to ROOT_TOL, read at call time.
    """
    alpha0, alpha1 = (_bisect(_probe(disc_family(), 0.0, point, resolution, cache),
                              *bracket, ROOT_TOL) for point in ((0.0, 0.0), (1.0, 0.0)))
    if not alpha0 < alpha1:
        raise BracketFailed("bifurcation values out of order",
                            alpha0=alpha0, alpha1=alpha1)
    return alpha0, alpha1


def _grown_bracket(fn, tol):
    b = 2.0
    while b <= BRACKET_MAX:
        try:
            return _bisect(fn, -b, b, tol)
        except BracketFailed:
            b *= 2.0
    raise BracketFailed("no sign change up to the maximal bracket", b_max=BRACKET_MAX)


def project_to_base(p, family, resolution, cache=None):
    """Base coordinates of a total-space point under the family fibration.

    The level is read off the moment map; the family parameter b is the
    unique root of the strictly increasing map b -> v_(a,b)(x, y) minus
    Re(z1 z2), bisected to ROOT_TOL (read at call time); the translation
    c is Im z3 - u_(a,b)(x, y), read as the probe reads v.
    """
    z1, z2, z3 = p.z1, p.z2, p.z3
    x = z3.real
    y = (z1 * z2).imag
    target = (z1 * z2).real
    a = 0.5 * (abs(z1) ** 2 - abs(z2) ** 2)
    grid = family.domain(resolution).grid()
    if grid.margin(x, y) <= 0.0:
        raise OutsideTotalSpace(f"({x!r}, {y!r}) is outside the family's domain", x=x, y=y)

    probe = _probe(family, a, (x, y), resolution, cache)
    b = _grown_bracket(lambda b: probe(b) - target, ROOT_TOL)
    fld = solve_family_member(family, a, b, resolution, cache)
    c = z3.imag - grid.reader("u", x, y)(fld)
    return FiberCoordinates(float(a), float(b), float(c))


def alpha_beta_curves(t_grid, resolution, cache=None):
    """Edge curves of the strip-sweep discriminant band over a t grid.

    alpha(t) and beta(t) are the roots in b of the level-zero probes
    v(0,0) and v(pi,0), bisected to CURVE_TOL (read at call time);
    alpha <= beta because v(., 0) peaks at x = 0.
    """
    out = []
    for t in t_grid:
        fam = strip_family(t)
        alpha_t, beta_t = (_grown_bracket(_probe(fam, 0.0, point, resolution, cache),
                                          CURVE_TOL) for point in ((0.0, 0.0), (np.pi, 0.0)))
        out.append((float(t), alpha_t, beta_t))
    return out


def ribbon_report(family, params):
    """Discriminant ribbon data for a family.

    params are the edges in b, (alpha0, alpha1) or (alpha_t, beta_t).  The
    lower end is a fold edge (a fused double point); the upper end is where
    the singular points reach the disc's boundary, or a fold edge on the strip.
    Edges within CURVE_TOL of each other (the strip's t = 0) are ``degenerate``.
    """
    lo, hi = params
    upper = "domain-boundary" if family.kind == "disc" else "fold-boundary"
    return DiscriminantRibbon(
        a_plane=0.0, b_interval=(float(lo), float(hi)), c_range="all-reals",
        endpoint_kind=("fold-boundary", upper), counts=(0, 1, 2),
        degenerate=abs(hi - lo) < CURVE_TOL)
