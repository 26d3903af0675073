"""Dirichlet solvers for the invariant graph potential equations.

Two problems are solved.

Disc: the potential f on the closed unit disc with f = phi on the unit
circle, where

    ((f_x)^2 + y^2 + a^2)^(-1/2) f_xx + 2 f_yy = 0,

and the graph functions are recovered as u = f_y, v = f_x.  The equation
is discretised in polar coordinates on a tensor grid, uniform in theta
and mildly graded toward r = 1.  Angular differences use trigonometric
denominators (2 sin h and 2 - 2 cos h), which differentiate first
harmonics exactly, so affine potentials beta*x + gamma*y + delta are
reproduced to round-off.  The pole is closed by a ghost value g equal to
the mean of the first ring, carried as one more (border) unknown with the
equation g - mean(ring 1) = 0.  Each derivative is one sparse operator,
sum_k diag(coef_k) (R_k x T_k), assembled once per grid from 3-point
radial (R_k) and angular (T_k) difference stencils over the 3 x 3 block
of nodes around each interior node; ring 0 of that block is g at every
angle, and the boundary ring is phi.  The residual and the Jacobian use
the same operators.

Strip: v directly on {|y| <= R} with period P in x and v(x, +-R) given,
where

    d/dx[ (v^2 + y^2 + a^2)^(-1/2) v_x ] + 2 v_yy = 0

in conservative form, so the discrete row integral of v is exactly
y-independent.  u is then reconstructed from v_x, v_y with u(0,0) = 0,
on the first read of a solved field's u; the periodic closure of u,
which needs v_y alone, is checked when the field is solved.

Both solvers run chord (Shamanskii) Newton with a sparse Jacobian.  Each
grid fixes one fill-reducing order of its unknowns: a nested dissection
of the index box (interior rings x angles on the disc, interior rows x
x nodes on the strip), periodic in the angle or in x, with the disc's
border unknown last.  The Jacobian is assembled straight into a CSC
pattern in that order, fixed per grid, and the system factors it with
one of two kernels.  Each system also has a band order: on the disc ring
by ring with the angles inner and the pole ghost first, on the strip
column by column with the rows inner when the box is not periodic in x,
else row by row.  When that order's half-bandwidth is at most BAND_MAX,
LAPACK's band LU (``dgbtrf``) factors the Jacobian in it; otherwise
SuperLU factors it in the nested-dissection order as given
(``permc_spec="NATURAL"``).  That factor is reused for full chord steps
as long as each one cuts the sup-norm residual to at most
CHORD_CONTRACTION times its previous value, or below the tolerance.  A
chord step that does neither is discarded; the Jacobian is then rebuilt
and factored at the current iterate and a Newton step with a sup-norm
line search is taken.  The factor is also rebuilt, with no chord trial,
after a damped Newton step and when the last chord step's rate would not
reach the tolerance within the chord steps that one band refactorisation
costs (see _newton).  At most one factor is alive at a time:
the stale one is dropped before the next is allocated, and the factor is
never stored on a field.  A continuation hands its factor from one level
to the next.

Newton solves on the representative nodes of the data's reflections
(see solve_disc and solve_strip), in one level-solve path for both
domains (_quotient_solve).  A quotient, built once per grid and
reflections (data with no reflection get the full grid's), orders its
box of representatives by nested dissection, maps node ->
(representative, sign), and evaluates residuals and Jacobians on its
own rows: the Jacobian's columns are folded into a fixed pattern once,
when the quotient is built, so each Jacobian fills that pattern
straight from per-row factors.  Starts are folded and solutions
unfolded, so fields cover the full grid.

A cold disc solve (no initial iterate) is grid-sequenced (nested
iteration): when (N, M) halves exactly onto a grid of at least 16 x 16,
the same data at the same level are first solved there, by the same
rule, and the fine Newton starts from the fine harmonic extension plus
the coarse solution's difference from the coarse harmonic extension,
prolonged trigonometrically in theta and by cubics in the ring
parameter.  The coarse grid's rings are every other fine ring, as both
grids share r(xi).  A grid that does not halve, or a coarse solve that
diverges, starts from the harmonic extension.  The strip starts cold
from the linear blend of its edge data.

Everything is computed in float64.  A residual evaluated in float64 has
a round-off floor of about eps * B, with B the sup norm of its
first-order forward-error bound (Higham, *Accuracy and Stability of
Numerical Algorithms*, 2nd ed., SIAM 2002, section 3.1): each
difference operator's error, at most eps times its stencil applied to
absolute values, weighted by the residual's sensitivity to it.  On the
disc B = max |dW/df_x * r^2 f_xx| (|S_x||L||z|) + W (|S_xx||L||z|)
+ |S_yy||L||z| over the rows, with S the operators and L the lift from
the unknowns z (see DiscGrid); on the strip the same sum runs over the
face fluxes and the row differences, edge values included.  B bounds
|| |J| |z| ||_inf from above, and at small a on fine grids eps * B
lies above NEWTON_TOL, since the coefficient (v^2 + y^2 + a^2)^(-1/2)
grows like 1/a near the singular points.  A solve is therefore
converged when the sup-norm residual of the returned field is below
max(NEWTON_TOL, ROUNDOFF_SAFETY * eps * B), the floor taken at the last
Jacobian that was factored.

The level a = 0 is reached by continuation in a from a = 1 with warm
starts and adaptive steps in log a (see _continue); the a_min field is
returned as the singular-level proxy and the sup-norm increments of v
between consecutive kept levels are recorded as a Cauchy diagnostic.
"""

import copy
import functools
import json
import math
from dataclasses import dataclass, field as dc_field

import numpy as np
import scipy.sparse as sp
# keep ``spla`` a module-level name: benchmarks/tracing.py swaps it for a traced proxy
import scipy.sparse.linalg as spla
from scipy.linalg.lapack import dgbtrf, dgbtrs   # already loaded by scipy.sparse.linalg

from ._splines import Bicubic
from .errors import (
    ContinuationFailed,
    IncompatibleBoundary,
    MonodromyDefect,
    SolverDiverged,
)

COEFF_FLOOR = 1e-16          # floor for v^2 + y^2 + a^2 before the inverse sqrt
NEWTON_TOL = 1e-10
NEWTON_MAX_ITER = 60
FLOOR_ACCEPT = 1e-8          # stagnation bound while the round-off floor is <= NEWTON_TOL
CHORD_CONTRACTION = 0.5      # a chord step must cut the residual to this fraction
ROUNDOFF_SAFETY = 0.5        # share of eps * the residual's forward-error bound taken as its floor
GRADING = 0.4                # radial grading strength toward r = 1
DEFAULT_A_MIN = 1e-4         # the a_min proxy of the singular level a = 0
MAX_STEP_RATIO = 1.0 / 256   # the longest continuation step: a_next >= a / 256
STEP_HALVINGS = 4            # halved steps in a row before a failed level ends a continuation
CLOSURE_DEFECT_TOL = 1e-6    # largest periodic closure defect of u that a strip field accepts
BOUNDARY_TOL = 1e-12         # validate: stored boundary values against the data
MAXPRIN_SLACK = 1e-8         # validate: slack of the maximum principle
# Part of every SolverCache key: change it whenever solver output changes,
# so that fields cached on disk by an older solver are not reused.
SOLVER_VERSION = "chord-newton-10"
# The chord steps that one band refactorisation costs (_LU.horizon).  Per call (2 cores,
# one BLAS thread, medians of 5 runs of 2000 calls at the a_min proxy, a = 1e-4) the
# Jacobian plus dgbtrf take 60 + 95 us on the (32, 64) disc quotient and 55 + 82 us on the
# (64, 33) strip quotient, against 20 + 21 us and 22 + 28 us for dgbtrs plus one
# residual: 3.7 and 2.8 chord steps.  H = 4 rounds the disc's, the strip's alone would
# round to 3.  A SuperLU refactorisation of the (128, 256) quarter costs 15-26 chord
# steps, so SuperLU factors have no horizon.
BAND_HORIZON = 4
# Why _newton factors: no live factor, a rejected chord step, the horizon rule, a damped step
REFACTOR_REASONS = ("no_factor", "rejected_chord", "horizon", "damped")
# The band LU's widest half-bandwidth (see _Reflections.factor).  Per factorisation
# (2 cores, one BLAS thread), dgbtrf against splu: half-bandwidth 16-17 (the (32, 64)
# and (64, 33) quarters) 0.11-0.15 ms against 0.64-0.87 ms; 32-34 (the (64, 128) and
# (128, 65) quarters) 0.8-1.6 ms against 3.1-5.0 ms; 66 (the (128, 256) even quarter)
# 16 ms against 21-24 ms, but with 13.1 MB of band storage.  Periodic full grids run
# along their period (63 or more), so 48 separates them.
BAND_MAX = 48


# ---------------------------------------------------------------------------
# boundary data and domains

@dataclass(frozen=True)
class BoundarySpec:
    """Finite trigonometric boundary data.

    Disc: a function of theta on the unit circle.  Strip: a function of
    2*pi*x/P on one edge.  Coefficient maps are harmonic index k >= 0 ->
    value, stored as sorted tuples so specs hash and compare by value, all
    finite.  Built by ``make``.
    """

    constant: float
    cos_coeffs: tuple
    sin_coeffs: tuple

    @staticmethod
    def make(constant=0.0, cos=None, sin=None):
        def norm(d):
            pairs = [(int(k), float(v)) for k, v in dict(d or {}).items()]
            if any(k < 0 for k, _ in pairs):
                raise ValueError(f"harmonic indices must be non-negative, got {dict(pairs)}")
            return tuple(sorted((k, v) for k, v in pairs if v != 0.0))

        spec = BoundarySpec(float(constant), norm(cos), norm(sin))
        values = [spec.constant] + [v for _, v in spec.cos_coeffs + spec.sin_coeffs]
        if not all(map(math.isfinite, values)):
            raise ValueError(f"boundary data must be finite, got {spec.to_json()}")
        return spec

    def sample(self, theta):
        """Evaluate at angles theta."""
        theta = np.asarray(theta, float)
        out = np.zeros_like(theta) + self.constant
        for k, coeff in self.cos_coeffs:
            out = out + coeff * np.cos(k * theta)
        for k, coeff in self.sin_coeffs:
            out = out + coeff * np.sin(k * theta)
        return out

    def sample_x(self, x, period):
        return self.sample(np.asarray(x) * (2.0 * np.pi / period))

    def to_json(self):
        return {
            "constant": self.constant,
            "cos": {str(k): v for k, v in self.cos_coeffs},
            "sin": {str(k): v for k, v in self.sin_coeffs},
        }

    @staticmethod
    def from_json(obj):
        return BoundarySpec.make(obj.get("constant", 0.0), obj.get("cos"), obj.get("sin"))


@dataclass(frozen=True)
class DomainSpec:
    """Discretised domain: unit disc or periodic strip.

    Disc: n_x = number of radial rings, n_y = number of angles (rounded
    up to a multiple of 4 so both axes and the vertical lie on grid
    rays); R is fixed at 1.  Strip: n_x = nodes per period, n_y = rows
    (rounded up to odd so y = 0 is a grid row).
    """

    kind: str
    R: float
    P: float
    n_x: int
    n_y: int

    def __post_init__(self):
        if self.kind not in ("disc", "periodic-strip"):
            raise ValueError(f"unknown domain kind {self.kind!r}")
        if not (np.isfinite(self.R) and self.R > 0 and np.isfinite(self.P) and self.P > 0):
            raise ValueError("R and P must be finite and positive")
        if self.n_x < 16 or self.n_y < 16:
            raise ValueError("resolutions must be at least 16")
        if self.kind == "disc":
            if self.R != 1.0:
                raise ValueError("disc radius is fixed at 1")
            object.__setattr__(self, "n_y", int(4 * ((self.n_y + 3) // 4)))
        else:
            if self.n_y % 2 == 0:
                object.__setattr__(self, "n_y", int(self.n_y) + 1)

    def grid(self):
        """The domain's memoised grid, a DiscGrid or a StripGrid."""
        if self.kind == "disc":
            return disc_grid(self.n_x, self.n_y)
        return strip_grid(self.n_x, self.n_y, self.R, self.P)

    @staticmethod
    def disc(n_r, n_theta):
        return DomainSpec("disc", 1.0, 2.0 * np.pi, n_r, n_theta)

    @staticmethod
    def strip(n_x, n_y, R=1.0, P=2.0 * np.pi):
        return DomainSpec("periodic-strip", R, P, n_x, n_y)


# ---------------------------------------------------------------------------
# disc grid and operators

def _nonuniform_weights(hm, hp):
    """First/second derivative 3-point weights on spacings hm, hp.

    The centre weights are defined as minus the sum of the neighbours so
    that constants are annihilated exactly in floating point.
    """
    wm = -hp / (hm * (hm + hp))
    wp = hm / (hp * (hm + hp))
    w0 = -(wm + wp)
    vm = 2.0 / (hm * (hm + hp))
    vp = 2.0 / (hp * (hm + hp))
    v0 = -(vm + vp)
    return (wm, w0, wp), (vm, v0, vp)


def _one_sided_weights(d, e):
    """Weights on nodes x0 < x1 < x2 of the first derivative at x2.

    d = x1 - x0 and e = x2 - x1.
    """
    return e / (d * (d + e)), -(d + e) / (d * e), (d + 2 * e) / (e * (d + e))


def _periodic_spline(rows, cols, period, w):
    """The bicubic interpolating spline of w on rows x cols, periodic in the columns.

    Four columns are wrapped onto each side so that it stays smooth across the seam.
    """
    pad = 4
    cols = np.concatenate([cols[-pad:] - period, cols, cols[:pad] + period])
    w = np.concatenate([w[:, -pad:], w, w[:, :pad]], axis=1)
    return Bicubic(rows, cols, w)


@functools.lru_cache(maxsize=None)
def _box_order(h, w):
    """Nested-dissection order of an h x w index box: (rows, cols) in elimination order.

    A box less than three nodes thick is taken row by row.  A wider one
    is split by its middle column (a taller one, transposed, by its
    middle row), and that separator comes after the two halves.
    """
    if min(h, w) < 3:
        return np.divmod(np.arange(h * w), w)
    if h > w:
        return _box_order(w, h)[::-1]
    m = w // 2
    (ra, ca), (rb, cb) = _box_order(h, m), _box_order(h, w - m - 1)
    return (np.concatenate([ra, rb, np.arange(h)]),
            np.concatenate([ca, cb + m + 1, np.full(h, m)]))


def _factor_order(n_rows, n_cols, periodic):
    """The nodes row * n_cols + col of an index box in elimination order.

    Periodic columns are cut open by column 0, which comes last.
    """
    if not periodic:
        rows, cols = _box_order(n_rows, n_cols)
        return rows * n_cols + cols
    rows, cols = _box_order(n_rows, n_cols - 1)
    return np.concatenate([rows * n_cols + cols + 1, np.arange(n_rows) * n_cols])


def _positions(order):
    """Inverse of a permutation: the position of each index in ``order``."""
    pos = np.empty_like(order)
    pos[order] = np.arange(order.size)
    return pos


def _fold(indices, indptr, shape, rows, col_to, col_sign):
    """(take, sub, fold, pattern): a CSC pattern's ``rows``, first columns folded.

    ``sub``, canonical, holds the rows, ``take`` their entries' numbers;
    ``fold`` adds col_sign[c] times column c of sub to column col_to[c] of
    the folded ``pattern``, (indices, indptr).
    """
    sub = sp.csc_matrix((np.arange(indices.size) + 1.0, indices, indptr), shape=shape)[rows]
    sub.sort_indices()                # canonical, so no later use reorders it in place
    n = len(rows)
    cols = np.repeat(np.arange(col_to.size), np.diff(sub.indptr[:col_to.size + 1]))
    kept = np.flatnonzero(col_sign[cols] != 0)
    keys, slot = np.unique(col_to[cols[kept]] * n + sub.indices[kept], return_inverse=True)
    fold = sp.csr_matrix((col_sign[cols[kept]], (slot, kept)), shape=(keys.size, cols.size))
    return (sub.data.astype(np.intp) - 1, sub, fold,
            (keys % n, np.searchsorted(keys // n, np.arange(n + 1))))


class _LU:
    """One LU factor of a system's Jacobian, as ``_Reflections.factor`` makes it.

    ``kernel`` is "band" or "superlu", ``half_bandwidth`` the system's in its
    band order, ``fill`` the entries the factor stores (SuperLU's L and U, or
    the band array) and ``floor`` the residual's round-off floor,
    ROUNDOFF_SAFETY * eps * scale, with scale the sup norm of the residual's
    forward-error bound at the iterate where J was taken (see the system's
    ``jacobian``).  ``horizon`` is the number of chord steps that
    one refactorisation costs, BAND_HORIZON for the band kernel and None for
    SuperLU.  ``lu_solve`` solves in the factor's order of n rows, ``index``
    holds each unknown's row there.
    """

    __slots__ = ("_lu_solve", "_index", "_n", "kernel", "half_bandwidth", "fill", "floor",
                 "horizon")

    def __init__(self, lu_solve, index, n, kernel, half_bandwidth, fill, scale):
        self._lu_solve, self._index, self._n = lu_solve, index, n
        self.kernel, self.half_bandwidth, self.fill = kernel, half_bandwidth, fill
        self.floor = ROUNDOFF_SAFETY * np.finfo(float).eps * scale
        self.horizon = BAND_HORIZON if kernel == "band" else None

    def solve(self, rhs):
        """J^-1 rhs for the unknowns: border rows get a zero right-hand side."""
        b = np.zeros(self._n)
        b[self._index] = rhs
        return self._lu_solve(b)[self._index]


class _Reflections:
    """A grid's systems on the representative nodes of its data's reflections.

    A grid's Newton systems are its quotients, one per parities of the
    data, the full grid's included (parities (0, 0)).  A quotient is a
    shallow copy of its grid with its own ``shape``, ``pos``, ``unknowns``,
    ``_src`` and ``_sgn`` (the box node and sign of each full-grid unknown),
    its square Jacobian ``pattern``, (indices, indptr) in factor order, and
    the data its ``residual`` and ``jacobian`` read, built once by the
    grid's ``_folded``.  It factors Jacobians on its pattern (``factor``)
    and keeps its band layout in ``_band`` once it is built.  The grid
    itself evaluates the full grid's residual only.  ``reader`` reads the
    grid's nodes and ``pole``.
    """

    _band = None
    pole = None                                  # the disc's centre, a point but not a node

    def reader(self, name, x, y):
        """fld -> u or v (``name``) at the point (x, y), located once here.

        At a node or the pole (exact equality) it reads the nodal value, elsewhere the interpolant.
        """
        if self.pole == (x, y):
            return lambda fld: float(getattr(fld, name + "_center"))
        xg, yg = self.nodes()
        node = np.flatnonzero((xg == x) & (yg == y))
        if node.size:
            return lambda fld: float(getattr(fld, name).flat[node[0]])
        return lambda fld: float(fld._eval(name, x, y))

    def quotient(self, sym):
        """The system for data of parities sym = (sx, sy): 1 even, -1 odd, 0 neither."""
        quotients = self.__dict__.setdefault("_quotients", {})
        if sym not in quotients:
            quotients[sym] = self._folded(sym)
        return quotients[sym]

    def fold(self, f):
        """The representatives' values of a full interior array."""
        return f[: self.shape[0], : self.shape[1]]

    def unfold(self, x):
        """The full interior array from the representatives' values."""
        return (self._sgn * x.ravel()[self._src])[self._full_pos].reshape(self._full_shape)

    def factor(self, data, scale):
        """The _LU of the Jacobian with entries ``data`` on ``pattern``, floor from scale.

        The band order puts the border unknowns first, then the box nodes in
        ``_band_order``; the unknowns' rows in it, the pattern's lower and
        upper bandwidths kl and ku there, and each entry's slot in
        (2 kl + ku + 1, n) band storage are built on the first call.  When
        the half-bandwidth max(kl, ku) is at most BAND_MAX, LAPACK's band LU
        (``dgbtrf``) factors J in band order and ``dgbtrs`` solves;
        otherwise SuperLU factors J in the factor order as given
        (``permc_spec="NATURAL"``).
        """
        indices, indptr = self.pattern
        n = indptr.size - 1
        if self._band is None:
            border = n - self.pos.size
            index = np.empty(n, np.intp)
            index[self.pos] = border + self._band_order()
            index[self.pos.size:] = np.arange(border)
            i, j = index[indices], index[np.repeat(np.arange(n), np.diff(indptr))]
            kl, ku = int(np.max(i - j)), int(np.max(j - i))
            self._band = index[self.pos], kl, ku, j * (2 * kl + ku + 1) + kl + ku + i - j
        rows, kl, ku, slot = self._band
        width = max(kl, ku)
        if width > BAND_MAX:
            lu = spla.splu(sp.csc_matrix((data, indices, indptr), shape=(n, n)),
                           permc_spec="NATURAL")
            return _LU(lu.solve, self.pos, n, "superlu", width, lu.nnz, scale)
        ldab = 2 * kl + ku + 1
        ab = np.zeros(n * ldab)
        ab[slot] = data
        lu, piv, info = dgbtrf(ab.reshape(n, ldab).T, kl, ku, overwrite_ab=1)
        if info != 0:
            raise RuntimeError(f"band LU failed: dgbtrf info {info}")
        return _LU(lambda b: dgbtrs(lu, kl, ku, b, piv, overwrite_b=1)[0], rows, n, "band",
                   width, lu.size, scale)

    def _band_order(self):
        """The band index of each node of the box: row by row, on the disc ring by ring."""
        return np.arange(self.pos.size)


class DiscGrid(_Reflections):
    """Polar tensor grid on the unit disc with its sparse difference operators.

    A disc field's geometry lives here: its nodes (rings 1..N by angles),
    cell size, margin to the boundary, axis samples and interpolant.
    ``angular`` holds the 3-point angular stencils on angles j-1, j, j+1:
    "id", "d1" (f_theta, over 2 sin h) and "d2" (f_thetatheta, over
    2 - 2 cos h), h = 2 pi / M.  ops64 builds its operators from them and
    extract_uv takes f_theta from "d1" on slices of the rings padded by one
    angle on each side.

    The grid's own residual, the full grid's, applies ops64's three
    operators to the lifted iterate (``_lift``).  A quotient's residual and
    Jacobian apply ``_stacked`` = S L, one CSR matrix that _folded builds:
    S holds the quotient's rows of those operators and L is _lift as a
    matrix, so ``_stacked``'s row t nb + k gives f_x, r^2 f_xx or 2 r^2 f_yy
    (t = 0, 1, 2) at box node k of nb from the box values, then phi.  The
    Jacobian's entries on ``pattern`` are
    (dW/df_x r^2 f_xx)[row] FX + W[row] FXX + FYY, with FX, FXX and FYY
    the folded entries of the x, xx and yy operators and row the box node
    of the entry's row: one product with ``_fill``, which holds them.
    ``_bound`` = |S| |L| gives the floor's scale (see ``jacobian``).
    """

    _stacked = None
    pole = (0.0, 0.0)

    def __init__(self, n_r, n_theta):
        self.N = int(n_r)
        self.M = int(n_theta)
        N, M = self.N, self.M
        self.shape = self._full_shape = (N - 1, M)
        xi = np.arange(1, N + 1) / N
        self.r = xi + GRADING * xi * (1 - xi)        # rings 1..N, r[N-1] = 1
        h = 2 * np.pi / M
        self.theta = h * np.arange(M)
        self.cos = np.cos(self.theta)
        self.sin = np.sin(self.theta)
        self.angular = {"id": np.array([0.0, 1.0, 0.0]),
                        "d1": np.array([-1.0, 0.0, 1.0]) / (2 * np.sin(h)),
                        "d2": np.array([1.0, -2.0, 1.0]) / (2 - 2 * np.cos(h))}

        # radial weights at interior rings 1..N-1 (array index 0..N-2)
        r_ext = np.concatenate(([0.0], self.r))      # rings 0(=centre)..N
        hm = r_ext[1:N] - r_ext[0:N - 1]
        hp = r_ext[2:N + 1] - r_ext[1:N]
        (self.wm, self.w0, self.wp), (self.vm, self.v0, self.vp) = _nonuniform_weights(hm, hp)

        # one-sided first derivative at the boundary ring (rings N-2, N-1, N)
        self.bnd_w = _one_sided_weights(self.r[N - 2] - self.r[N - 3],
                                        self.r[N - 1] - self.r[N - 2])
        self._ops = None

    def ops64(self):
        """Factor order and sparse derivative operators, built on first use.

        The unknowns are f at the interior rings, ring by ring, then the
        pole ghost g.  In factor order the interior nodes follow the
        periodic _factor_order over (interior rings x angles) and g comes
        last; ``pos`` holds each interior node's position.  ``_lift``
        puts f_int and g there and appends the boundary ring, phi.

        Returns a dict of operators on the lifted vector: "x", "xx" and
        "yy" give f_x, r^2 f_xx and 2 r^2 f_yy at the interior rings, rows
        in factor order; the row scaling r^2 desingularises the pole.  They
        are CSC matrices on one shared pattern.  Its square leading block,
        up to g's column, is the bordered Jacobian's pattern before a
        quotient folds it, and "yy" also holds the border row
        g - mean(ring 1).  The full grid's residual applies them; each
        quotient builds its own operators from them (see the class).
        """
        if self._ops is not None:
            return self._ops
        N, M = self.N, self.M
        n = (N - 1) * M
        # 3-point stencils over rings i-1..i+1 of interior ring i and angles j-1..j+1
        radial = {"id": np.tile([0.0, 1.0, 0.0], (N - 1, 1)),
                  "dr": np.column_stack([self.wm, self.w0, self.wp]),
                  "drr": np.column_stack([self.vm, self.v0, self.vp])}
        angular = self.angular                       # on angles j-1..j+1

        def stencil(*terms):
            """Values per interior node and stencil point, then ring 1's coupling to g."""
            vals, ghost = 0.0, 0.0
            for coef, rop, top in terms:
                coef = np.broadcast_to(coef, (N - 1, M))
                vals = vals + coef[:, :, None, None] * (radial[rop][:, None, :, None] * angular[top])
                ghost = ghost + coef[0] * (radial[rop][0, 0] * angular[top].sum())
            return vals, ghost

        r, c, s = self.r[: N - 1, None], self.cos, self.sin
        rr = r * r
        stencils = {
            "x": stencil((c, "dr", "id"), (-s / r, "id", "d1")),
            "xx": stencil((rr * c * c, "drr", "id"), (-2 * s * c * r, "dr", "d1"),
                          (s * s, "id", "d2"), (s * s * r, "dr", "id"), (2 * s * c, "id", "d1")),
            "yy": stencil((2 * rr * s * s, "drr", "id"), (4 * s * c * r, "dr", "d1"),
                          (2 * c * c, "id", "d2"), (2 * c * c * r, "dr", "id"),
                          (-4 * s * c, "id", "d1")),
        }
        border = {"x": np.zeros(M + 1), "xx": np.zeros(M + 1),
                  "yy": np.append(np.full(M, -1.0 / M), 1.0)}

        # stencil point -> node, numbered interior nodes, boundary ring, then g;
        # the points on ring 0 are g's coupling, summed in ``ghost``
        i, j, di, dj = np.ix_(np.arange(N - 1), np.arange(M), np.arange(3), np.arange(3))
        ring = np.broadcast_to(i + di - 1, (N - 1, M, 3, 3))
        rows = np.broadcast_to(i * M + j, ring.shape).ravel()
        cols = (ring * M + (j + dj - 1) % M).ravel()
        points = np.flatnonzero(ring.ravel() >= 0)
        g = n + M
        order = _factor_order(N - 1, M, True)
        self.pos = self._full_pos = _positions(order)
        self._src, self._sgn = order, 1.0
        place = np.concatenate([self.pos, n + 1 + np.arange(M), [n]])   # node -> _lift index
        # the pattern, each entry numbered (+ 1) by its source: a stencil point,
        # ring 1's coupling to g, or the border row
        ids = sp.csc_matrix(
            (np.append(points, 9 * n + np.arange(2 * M + 1)) + 1.0,
             (place[np.concatenate([rows[points], np.arange(M), np.full(M + 1, g)])],
              place[np.concatenate([cols[points], np.full(M, g), np.append(np.arange(M), g)])])),
            shape=(n + 1, n + 1 + M))
        source = ids.data.astype(np.intp) - 1
        self._ops = {name: sp.csc_matrix((np.concatenate([vals, ghost, border[name]],
                                                         axis=None)[source],
                                          ids.indices, ids.indptr), shape=ids.shape)
                     for name, (vals, ghost) in stencils.items()}
        y = np.repeat(self.r[: N - 1], M) * np.tile(self.sin, N - 1)
        self._node_y2 = y * y                                   # y^2 per interior node
        return self._ops

    @staticmethod
    def reflections(spec):
        """The parities (sx, sy) of potential data; see solve_disc."""
        odd = [k % 2 for k, _ in spec.cos_coeffs]
        sx = -1 if spec.constant == 0.0 and all(odd) else 0 if any(odd) else 1
        return (0, 0) if spec.sin_coeffs else (sx, 1)

    def _folded(self, sym):
        """The quotient on 0 <= theta <= pi, on 0 <= theta <= pi/2 when sx != 0 too.

        Data with sine terms (sym = (0, 0)) get the full grid, the box periodic in theta.
        """
        ops = self.ops64()
        N, M, n, (sx, sy) = self.N, self.M, self.pos.size, sym
        rep = np.minimum(np.arange(M), -np.arange(M) % M) if sy else np.arange(M)
        flip = (rep > M // 4) & (sx != 0)         # x -> -x maps theta to pi - theta
        sign, rep = np.where(flip, sx, 1.0), np.where(flip, M // 2 - rep, rep)
        width = M // 4 + (sx > 0) if sx else M // 2 + 1 if sy else M
        sign[rep == width] = 0.0                  # odd in x: theta = +-pi/2
        rep[rep == width] = 0
        box = _factor_order(N - 1, width, not sy)
        nb = box.size
        view = copy.copy(self)
        view.shape, view.pos, view._band = (N - 1, width), _positions(box), None
        view._src = (np.arange(N - 1)[:, None] * width + rep).ravel()[self._src]
        view._sgn = np.tile(sign, N - 1)[self._src]
        rows = np.append(self.pos[box // width * M + box % width], n)[: nb + (sx >= 0)]
        view.unknowns = rows.size
        view._node_y2 = self._node_y2.reshape(N - 1, M)[:, :width].ravel()
        take, sub, fold, view.pattern = _fold(
            ops["x"].indices, ops["x"].indptr, ops["x"].shape, rows,
            np.append(view.pos[view._src], nb), np.append(view._sgn, float(sx >= 0)))
        # FX, FXX and FYY: the operators' entries folded onto pattern, one row each
        entries = np.vstack([fold @ ops[name].data[take[: fold.shape[1]]]
                             for name in ("x", "xx", "yy")])
        del fold
        # _stacked = S L and _bound = |S| |L| from one complex product, built as
        # (L^T S^T)^T so that sub's CSC arrays serve as S^T's.  S holds the box's rows of
        # x, xx and yy, row t nb + k operator t's at box node k (g's row is the
        # Jacobian's only).  L is _lift as a matrix: each full-grid unknown its box value
        # times its sign, g the mean of ring 1, then phi.  Row j of S^T carries
        # S + i |S| s_j, with s_j the sign of every entry of L's row j (g's weights are
        # all positive or all zero), so the real part of the product is S L and the
        # imaginary part |S| |L|, on the one pattern of |S| |L|, whose index arrays the
        # two share.  Each factor goes before the next copy is made, to bound the
        # build's peak memory.
        ring1 = self._full_pos[:M]
        keep = sub.indices < nb
        take = take[keep]
        s_data = np.empty((take.size, 3), complex)
        for t, name in enumerate(("x", "xx", "yy")):
            s_data.real[:, t] = ops[name].data[take]
        del take
        lifted = np.repeat(np.arange(sub.shape[1], dtype=np.int32), np.diff(sub.indptr))[keep]
        np.multiply(np.abs(s_data.real), np.append(view._sgn, np.ones(1 + M))[lifted][:, None],
                    out=s_data.imag)
        del lifted
        cols = np.empty((s_data.shape[0], 3), np.int32)
        cols[:] = box[sub.indices[keep]][:, None] + nb * np.arange(3)
        s_t = sp.csr_matrix((s_data.ravel(), cols.ravel(),
                             3 * np.append(0, np.cumsum(keep))[sub.indptr]),
                            shape=(sub.shape[1], 3 * nb))
        del sub, keep, s_data, cols
        l_t = sp.csr_matrix(
            (np.concatenate([view._sgn, view._sgn[ring1] / M, np.ones(M)]),
             (np.concatenate([view._src, view._src[ring1], nb + np.arange(M)]),
              np.concatenate([np.arange(n), np.full(M, n), n + 1 + np.arange(M)]))),
            shape=(nb + M, n + 1 + M))
        product = l_t @ s_t
        del l_t, s_t
        product = product.T.tocsr()
        index = product.indices, product.indptr
        view._stacked = sp.csr_matrix((product.data.real.copy(), *index), shape=product.shape)
        view._bound = sp.csr_matrix((product.data.imag.copy(), *index), shape=product.shape)
        del product
        # _fill: entry e of the Jacobian is FX[e] u[row] + FXX[e] u[nb + row] + FYY[e] u[2 nb]
        # with u = (dW/df_x r^2 f_xx, W, 1) and row its row's box node.  g's row
        # (position nb) has none of x and xx, so it reads any node's factors, node 0's.
        row = np.append(box, 0).astype(np.int32)[view.pattern[0]]
        cols = np.column_stack([row, nb + row, np.full_like(row, 2 * nb)])
        view._fill = sp.csr_matrix(
            (entries.T.ravel(), cols.ravel(), 3 * np.arange(row.size + 1, dtype=np.int32)),
            shape=(row.size, 2 * nb + 1))
        view._fill.eliminate_zeros()              # x's stencils are sparser than the pattern
        return view

    def _lift(self, f_int, phi):
        """The full grid's unknowns from f_int's box, g = the exact mean of ring 1, then phi."""
        if self._ops is None:
            self.ops64()
        n = self._full_pos.size
        z = np.empty(n + 1 + self.M)
        z[:n] = self._sgn * f_int.ravel()[self._src]
        z[n] = math.fsum(z[self._full_pos[: self.M]]) / self.M
        z[n + 1:] = phi
        return z

    def residual(self, f_int, phi, a):
        """Scaled residual r^2 (W f_xx + 2 f_yy) at the nodes of f_int's box.

        A quotient takes f_x, r^2 f_xx and 2 r^2 f_yy of every box node from one
        product, ``_stacked`` @ (box values, phi).  The grid itself lifts f_int and
        applies ops64's three operators.
        """
        if self._stacked is None:
            z = self._lift(f_int, phi)
            fx, fxx, fyy = ((self._ops[name] @ z)[self.pos] for name in ("x", "xx", "yy"))
        else:
            fx, fxx, fyy = (self._stacked @ np.concatenate([f_int.ravel(), phi])).reshape(3, -1)
        w = 1.0 / np.sqrt(np.maximum(fx * fx + self._node_y2 + a * a, COEFF_FLOOR))
        return (w * fxx + fyy).reshape(f_int.shape)

    def jacobian(self, f_int, phi, a):
        """A quotient's bordered Jacobian on ``pattern`` and its floor's scale: (data, scale).

        f_x and r^2 f_xx come from the residual's one product with ``_stacked``,
        and the data fill the fixed folded entries row by row (see the class).
        scale is the sup norm over the box of the residual's forward-error bound,
        |dW/df_x r^2 f_xx| (|S_x||L||z|) + W (|S_xx||L||z|) + |S_yy||L||z| with
        z = (box values, phi), from one product with ``_bound``.  It is at least
        || |J| |z| ||_inf over the box's rows of the full grid's Jacobian, by the
        triangle inequality.  On the full grid the Schur complement of g's row
        and column is the Jacobian of ``residual``.
        """
        z = np.concatenate([f_int.ravel(), phi])
        fx, fxx, _ = (self._stacked @ z).reshape(3, -1)
        q = fx * fx + self._node_y2 + a * a
        qe = np.maximum(q, COEFF_FLOOR)
        w = 1.0 / np.sqrt(qe)
        dw_fxx = np.where(q > COEFF_FLOOR, -fx * fxx, 0.0) * (w / qe)
        data = self._fill @ np.concatenate([dw_fxx, w, [1.0]])
        bound, bxx, byy = (self._bound @ np.abs(z)).reshape(3, -1)
        bound *= np.abs(dw_fxx)
        bound += w * bxx
        bound += byy
        return data, float(np.max(bound))

    # -- field geometry and derived fields ---------------------------------

    def nodes(self):
        """Cartesian coordinates (x, y) of the nodes, rings by angles."""
        return self.r[:, None] * self.cos, self.r[:, None] * self.sin

    def cell(self):
        """The widest radial spacing, the pole's included."""
        return float(max(np.max(np.diff(self.r)), self.r[0]))

    def margin(self, x, y):
        """The distance from (x, y) to the unit circle, negative outside."""
        return 1.0 - np.hypot(np.asarray(x, float), np.asarray(y, float))

    def axis(self, w, centre):
        """Positions and values of nodal w on y = 0, from -1 through the centre to 1."""
        return (np.concatenate([-self.r[::-1], [0.0], self.r]),
                np.concatenate([w[::-1, self.M // 2], [centre], w[:, 0]]))

    def interpolant(self, w, centre):
        """(x, y) -> the bicubic interpolant in (r, theta) of nodal w, centre at the pole."""
        spline = _periodic_spline(np.concatenate([[0.0], self.r]), self.theta, 2 * np.pi,
                                  np.vstack([np.full(self.M, centre), w]))
        return lambda x, y: spline.ev(np.hypot(x, y), np.mod(np.arctan2(y, x), 2.0 * np.pi))

    def interior(self, fld):                     # the iterate of a solve: f off the boundary ring
        return fld.f[:-1]

    def extract_uv(self, f_int, phi):
        """u = f_y and v = f_x on all rings, plus the centre values.

        The radial derivative is central at the interior rings, the pole
        ghost standing in for ring 0, and one-sided on the boundary ring.
        """
        N, M = self.N, self.M
        f_c = math.fsum(f_int[0]) / M               # exact: 0 on a ring odd in x
        padded = np.empty((N + 1, M + 2))           # rings 0..N, one angle wrapped on each side
        padded[0, 1:-1] = f_c
        padded[1:N, 1:-1] = f_int
        padded[N, 1:-1] = phi
        padded[:, 0], padded[:, -1] = padded[:, M], padded[:, 1]
        rings = padded[:, 1:-1]
        f_r = np.empty((N, M))
        f_r[:-1] = (self.wm[:, None] * rings[:-2] + self.w0[:, None] * rings[1:-1]
                    + self.wp[:, None] * rings[2:])
        f_r[-1] = np.dot(self.bnd_w, rings[-3:])
        w_minus, _, w_plus = self.angular["d1"]
        f_t = padded[1:, 2:] * w_plus + padded[1:, :-2] * w_minus
        c, s, r = self.cos, self.sin, self.r[:, None]
        u = s * f_r + c / r * f_t
        v = c * f_r - s / r * f_t
        ring1 = f_int[0] - f_c
        k = 2.0 / (self.M * self.r[0])
        return u, v, float(k * (ring1 @ self.sin)), float(k * (ring1 @ self.cos)), f_c

    def harmonic_extension(self, spec):
        """Initial guess: the harmonic function matching the boundary data."""
        f = np.full((self.N - 1, self.M), spec.constant)
        r = self.r[: self.N - 1][:, None]
        for k, coeff in spec.cos_coeffs:
            f = f + coeff * r**k * np.cos(k * self.theta)[None, :]
        for k, coeff in spec.sin_coeffs:
            f = f + coeff * r**k * np.sin(k * self.theta)[None, :]
        return f


@functools.lru_cache(maxsize=None)
def disc_grid(n_r, n_theta):
    return DiscGrid(n_r, n_theta)


def _prolong(c):
    """Interior values on the (N, M) disc grid of c, given on the (N/2, M/2) one.

    c holds the interior rings of the (N/2, M/2) grid and vanishes on
    its boundary ring; its pole value is the mean of its first ring,
    as for the pole ghost.  Coarse ring i is fine ring 2i and coarse
    angle j is fine angle 2j.  Each ring is interpolated trigonometrically
    in theta (the rFFT zero-padded, its Nyquist term split evenly
    between +-M/4), then each ray by the cubic through the four
    nearest coarse rings in xi, pole and boundary included.
    """
    n, m = c.shape[0] + 1, c.shape[1]              # the coarse (N, M)
    spec = np.zeros((n + 1, m + 1), complex)
    spec[1:n, : m // 2 + 1] = 2.0 * np.fft.rfft(c, axis=1)
    spec[:, m // 2] *= 0.5
    spec[0, 0] = 2 * m * np.mean(c[0])             # the pole, constant in theta
    p = np.fft.irfft(spec, n=2 * m, axis=1)        # coarse rings 0..n, fine angles
    mid = np.empty((n, 2 * m))                     # values halfway between coarse rings
    mid[1:-1] = (9.0 * (p[1:-2] + p[2:-1]) - p[:-3] - p[3:]) / 16.0
    mid[0] = (5.0 * p[0] + 15.0 * p[1] - 5.0 * p[2] + p[3]) / 16.0
    mid[-1] = (p[-4] - 5.0 * p[-3] + 15.0 * p[-2] + 5.0 * p[-1]) / 16.0
    out = np.empty((2 * n - 1, 2 * m))
    out[0::2] = mid
    out[1::2] = p[1:-1]
    return out


# ---------------------------------------------------------------------------
# strip grid

class StripGrid(_Reflections):
    """Uniform periodic-in-x grid on the strip |y| <= R.

    A strip field's geometry lives here, as a disc field's on DiscGrid.
    The unknowns are v at the interior rows, row by row.  Their factor
    order is _factor_order over (interior rows x x nodes), periodic in x;
    ``pos`` holds each node's position.  The full grid's five-point
    Jacobian pattern is fixed in that order (``_unfolded``): its entry e is
    coefficient ``_source[e]`` of the centre, right and left couplings of
    every node, then the constant coupling across rows.  A quotient folds
    it once into ``pattern`` and keeps ``_select``, the one matrix from the
    flux derivatives of its box's faces to the folded entries (see
    ``jacobian``).  Residual and coefficients are read off the box widened
    by one node, gathered through ``_halo``.
    """

    def __init__(self, n_x, n_y, R, P):
        self.n_x = int(n_x)
        self.n_y = int(n_y)
        self.R = float(R)
        self.P = float(P)
        self.hx = self.P / self.n_x
        self.hy = 2 * self.R / (self.n_y - 1)
        self.x = self.hx * np.arange(self.n_x)
        self.y = -self.R + self.hy * np.arange(self.n_y)
        self.shape = self._full_shape = (ny, nx) = (self.n_y - 2, self.n_x)
        n = ny * nx
        order = _factor_order(ny, nx, True)
        self.pos = self._full_pos = _positions(order)
        self._src, self._sgn = order, 1.0
        self._halo = self._halo_index(np.arange(n), ny, nx)
        self._y2 = self.y[1:-1, None] ** 2
        k = np.arange(n).reshape(ny, nx)
        rows = np.concatenate([k, k, k, k[:-1], k[1:]], axis=None)
        cols = np.concatenate([k, np.roll(k, -1, axis=1), np.roll(k, 1, axis=1), k[1:], k[:-1]],
                              axis=None)
        source = np.concatenate([k, k + n, k + 2 * n, np.full(2 * (n - nx), 3 * n)], axis=None)
        # entry numbers + 1 through the COO -> CSC conversion
        ids = sp.csc_matrix((source + 1.0, (self.pos[rows], self.pos[cols])), shape=(n, n))
        self._unfolded = ids.indices, ids.indptr
        self._source = ids.data.astype(np.intp) - 1

    def nodes(self):
        """Cartesian coordinates (x, y) of the nodes, rows bottom to top."""
        return np.meshgrid(self.x, self.y)

    def cell(self):
        return float(max(self.x[1] - self.x[0], self.y[1] - self.y[0]))

    def margin(self, x, y):
        """The distance from (x, y) to the strip's edges, negative outside."""
        return self.R - np.abs(np.asarray(y, float))

    def axis(self, w, centre):
        """Positions and values of nodal w on y = 0 over [0, P], the seam value repeated."""
        j0 = (self.n_y - 1) // 2
        return np.append(self.x, self.P), np.append(w[j0], w[j0, 0])

    def interpolant(self, w, centre):
        """(x, y) -> the bicubic interpolant of nodal w, periodic in x; ``centre`` is unused."""
        spline = _periodic_spline(self.y, self.x, self.P, w)
        return lambda x, y: spline.ev(y, np.mod(x, self.P))

    def gradient(self, w):
        """(w_x, w_y) of an array on the grid's nodes, rows bottom to top.

        w_x is the periodic central difference; w_y is np.gradient's,
        central inside and second-order one-sided on the edge rows.
        """
        return ((np.roll(w, -1, axis=1) - np.roll(w, 1, axis=1)) / (2 * self.hx),
                np.gradient(w, self.hy, axis=0, edge_order=2))

    def interior(self, fld):                     # the iterate of a solve: v off the edge rows
        return fld.v[1:-1]

    def harmonic_extension(self, top, bottom):
        """Initial guess: the edges' linear blend in y, harmonic when both are constant."""
        w = (self.y[1:-1, None] + self.R) / (2 * self.R)
        return (bottom.sample_x(self.x, self.P)[None, :] * (1 - w)
                + top.sample_x(self.x, self.P)[None, :] * w)

    def _halo_index(self, src, n_rows, n_cols):
        """Index into [bottom edge, box values, top edge] of the box widened by one node."""
        m = np.arange(self.n_x)
        ext = np.vstack([m, m.size + src.reshape(-1, m.size), m.size + n_rows * n_cols + m])
        return ext[np.ix_(np.arange(n_rows + 2), np.arange(-1, n_cols + 1) % m.size)]

    @staticmethod
    def reflections(top, bottom):
        """The parities (sx, sy) of edge data; see solve_strip."""
        return (int(not (top.sin_coeffs or bottom.sin_coeffs)), int(top == bottom))

    def _folded(self, sym):
        """The quotient on 0 <= x <= P/2 when sx = 1 and on y <= 0 when sy = 1.

        Edges with no reflection (sym = (0, 0)) get the full grid.
        """
        sx, sy = sym
        ny, nx = self._full_shape
        n_rows, n_cols = (ny // 2 + 1 if sy else ny), (nx // 2 + 1 if sx else nx)
        i, j = np.arange(ny), np.arange(nx)
        src = ((np.minimum(i, ny - 1 - i) if sy else i)[:, None] * n_cols
               + (np.minimum(j, -j % nx) if sx else j)).ravel()
        box = _factor_order(n_rows, n_cols, not sx)
        view = copy.copy(self)
        view.shape, view.pos, view._src = (n_rows, n_cols), _positions(box), src[self._src]
        view._band = None
        view._halo = self._halo_index(src, n_rows, n_cols)
        view._y2, view.unknowns = self.y[1:n_rows + 1, None] ** 2, box.size
        take, _, fold, view.pattern = _fold(*self._unfolded, (ny * nx,) * 2,
                                            self.pos[box // n_cols * nx + box % n_cols],
                                            view.pos[view._src], np.ones(ny * nx))
        # _select: each entry from the faces' flux derivatives in the right node and in
        # the left node (see jacobian), n_rows x (n_cols + 1) each, then a 1.  Node (r, c)
        # has faces r (n_cols + 1) + c (left) and that + 1 (right) of each block.
        kind, node = np.divmod(self._source[take], ny * nx)
        left = node // nx * (n_cols + 1) + node % nx
        right, faces, hx2, hy2 = left + 1, n_rows * (n_cols + 1), self.hx**2, self.hy**2
        entry = np.arange(take.size)
        centre, edge = entry[kind == 0], entry[kind == 3]
        terms = [(entry[kind == 1], right[kind == 1], 1.0 / hx2),      # the right neighbour
                 (entry[kind == 2], faces + left[kind == 2], -1.0 / hx2),   # the left one
                 (centre, faces + right[kind == 0], 1.0 / hx2),         # the centre
                 (centre, left[kind == 0], -1.0 / hx2),
                 (centre, np.full(centre.size, 2 * faces), -4.0 / hy2),
                 (edge, np.full(edge.size, 2 * faces), 2.0 / hy2)]      # across rows
        select = sp.csr_matrix(
            (np.concatenate([np.full(e.size, c) for e, _, c in terms]),
             (np.concatenate([e for e, _, _ in terms]), np.concatenate([k for _, k, _ in terms]))),
            shape=(take.size, 2 * faces + 1))
        view._select = (fold @ select).tocsr()
        return view

    def _band_order(self):
        """The band index of each node of the box.

        Column by column, the rows inner, when the box is not periodic in x, as a
        quotient even in x is not; row by row when it is.
        """
        n_rows, n_cols = self.shape
        if n_cols == self.n_x:
            return super()._band_order()
        return np.arange(n_rows * n_cols).reshape(n_cols, n_rows).T.ravel()

    def _faces(self, V, a):
        """Per face x + hx/2 of the block's interior rows: v there, v difference, q."""
        mid = 0.5 * (V[1:-1, :-1] + V[1:-1, 1:])
        return mid, V[1:-1, 1:] - V[1:-1, :-1], mid * mid + self._y2 + a * a

    def residual(self, v_int, top, bot, a):
        """Conservative-form residual at the nodes of v_int's box."""
        V = np.concatenate([bot, v_int.ravel(), top])[self._halo]
        _, d, q = self._faces(V, a)
        flux = d / np.sqrt(np.maximum(q, COEFF_FLOOR))
        rx = (flux[:, 1:] - flux[:, :-1]) / (self.hx * self.hx)
        ry = (V[2:, 1:-1] - 2 * V[1:-1, 1:-1] + V[:-2, 1:-1]) * (2 / (self.hy * self.hy))
        return (rx + ry).reshape(v_int.shape)

    def jacobian(self, v_int, top, bot, a):
        """A quotient's Jacobian on ``pattern`` and its floor's scale: (data, scale).

        data = ``_select`` @ (the faces' flux derivatives, 1).  scale is the sup norm of
        the residual's forward-error bound: each face flux W d, with d the
        difference of the face's nodes v_l and v_r and W its coefficient at
        their mean, contributes (W + |dW/dv d| / 2)(|v_l| + |v_r|) / hx^2
        to both of its nodes, and each row difference (|v_below| + 2 |v| +
        |v_above|) 2 / hy^2, edge values included.  It is at least
        || |J| |z| ||_inf over the box's rows of the full grid's Jacobian, by
        the triangle inequality.
        """
        V = np.concatenate([bot, v_int.ravel(), top])[self._halo]
        mid, d, q = self._faces(V, a)
        qe = np.maximum(q, COEFF_FLOOR)
        w = qe**-0.5
        half_dw_d = 0.5 * np.where(q > COEFF_FLOOR, -mid * qe**-1.5, 0.0) * d
        # face flux w * d: derivative w + half_dw_d in the right node, -w + half_dw_d in the left
        data = self._select @ np.concatenate([w + half_dw_d, half_dw_d - w, 1.0], axis=None)
        A = np.abs(V)
        face = (w + np.abs(half_dw_d)) * (A[1:-1, :-1] + A[1:-1, 1:])
        bound = face[:, 1:] + face[:, :-1] + (A[2:, 1:-1] + 2.0 * A[1:-1, 1:-1] + A[:-2, 1:-1]) \
            * (2.0 * self.hx**2 / self.hy**2)
        return data, float(np.max(bound)) / self.hx**2


@functools.lru_cache(maxsize=None)
def strip_grid(n_x, n_y, R, P):
    return StripGrid(n_x, n_y, R, P)


# ---------------------------------------------------------------------------
# Newton driver

class FactorSlot:
    """Holds the one live _LU of a solve, or of a whole continuation, as ``lu``."""

    __slots__ = ("lu",)

    def __init__(self):
        self.lu = None


def _newton(x0, eval_res, factorize, factor):
    """Chord Newton with sup-norm line search.

    Each iteration first tries a full chord step with the _LU held in
    ``factor`` (a FactorSlot; a fresh one when None), which may come from
    an earlier iterate or an earlier continuation level.  The step is
    kept if it cuts the sup-norm residual to at most CHORD_CONTRACTION
    times its previous value, or below the tolerance, since a step that
    converges needs no new factor.  Otherwise it is discarded, the slot
    is emptied, ``factorize(x)`` puts the _LU of the Jacobian at the
    current iterate into the slot, and a Newton step is taken with a
    halving line search.  Emptying the slot before the Jacobian is built
    keeps at most one factor alive; the caller keeps the slot, and with
    it the last factor, for the next solve.

    Two rules refactor at the next iteration with no chord trial:

    - the horizon rule: after a kept chord step that cut the residual by
      the rate rho, when norm * rho^H is still above the tolerance.  H is
      the factor's ``horizon``, the chord steps one refactorisation costs
      (BAND_HORIZON = 4 for the band LU; SuperLU factors have none).  The
      chord steps left would cost more than a new factor (Kelley,
      *Solving Nonlinear Equations with Newton's Method*, SIAM 2003);
    - after a damped Newton step (line-search lambda < 1), whose factor
      was taken where the linear model was poor.

    The live factor stays in the slot until then, so the convergence test
    keeps its floor.

    The solve is converged once the sup-norm residual is below the
    tolerance max(NEWTON_TOL, floor), with the live factor's round-off
    floor (none before the first factor).  Below that floor float64
    residuals are round-off, and iterating further only refactors
    without progress.

    Every kept step counts as an iteration, as does a Newton step whose
    line search failed.  A run of steps that fail to cut the residual by
    10% stalls the solve, as does reaching NEWTON_MAX_ITER.  A stalled
    iterate is converged when it is below the tolerance, is returned as
    stagnated (not converged) when it is below the stagnation bound
    FLOOR_ACCEPT / NEWTON_TOL * max(NEWTON_TOL, floor), and raises
    SolverDiverged otherwise.  The bound is FLOOR_ACCEPT while the floor
    is at most NEWTON_TOL and keeps the same margin over the tolerance
    above it.  Returns (x, residual norm, iterations, diagnostics) with
    the residual history, ``stagnated``, the ``tolerance`` applied, the
    counts ``factorizations`` and ``chord_steps``, ``refactors`` (the
    factorisations by reason: ``no_factor``, ``rejected_chord``,
    ``horizon`` and ``damped``), the ``fill`` of each factorisation, and
    the live factor's ``factor`` (its kernel, None without one) and
    ``half_bandwidth``.
    """
    factor = factor if factor is not None else FactorSlot()
    x = np.asarray(x0, float)
    res = eval_res(x)
    norm = float(np.max(np.abs(res)))
    history = [norm]
    fill = []
    stall = 0
    chord_steps = 0
    refactors = dict.fromkeys(REFACTOR_REASONS, 0)
    refactor = None                  # the reason the next iteration refactors, if it must

    def tolerance():
        return max(NEWTON_TOL, factor.lu.floor) if factor.lu is not None else NEWTON_TOL

    def outcome(iters, stagnated):
        lu = factor.lu
        return x, norm, iters, {"history": tuple(history), "stagnated": stagnated,
                                "tolerance": tolerance(), "fill": tuple(fill),
                                "factorizations": sum(refactors.values()),
                                "chord_steps": chord_steps, "refactors": refactors,
                                "factor": lu and lu.kernel,
                                "half_bandwidth": lu and lu.half_bandwidth}

    def stalled(iters, reason):
        if norm < tolerance():
            return outcome(iters, False)
        if norm < FLOOR_ACCEPT / NEWTON_TOL * tolerance():
            return outcome(iters, True)
        raise SolverDiverged(reason, residual=norm, iterations=iters)

    for it in range(NEWTON_MAX_ITER):
        if norm < tolerance():
            return outcome(it, False)
        accepted = False
        rhs = -res.ravel()
        reason = refactor or (None if factor.lu is not None else "no_factor")
        refactor = None
        if reason is None:
            x_new = x + factor.lu.solve(rhs).reshape(x.shape)
            res_new = eval_res(x_new)
            norm_new = float(np.max(np.abs(res_new)))
            if norm_new <= CHORD_CONTRACTION * norm or norm_new < tolerance():
                rate = norm_new / norm
                x, res, norm = x_new, res_new, norm_new
                accepted = True
                chord_steps += 1
                horizon = factor.lu.horizon
                if horizon is not None and norm * rate ** horizon > tolerance():
                    refactor = "horizon"
            else:
                reason = "rejected_chord"
        if not accepted:
            factor.lu = None                 # the stale factor goes before the next is built
            factor.lu = factorize(x)
            refactors[reason] += 1
            fill.append(factor.lu.fill)
            delta = factor.lu.solve(rhs).reshape(x.shape)
            lam = 1.0
            while lam >= 2.0**-14:
                x_new = x + lam * delta
                res_new = eval_res(x_new)
                norm_new = float(np.max(np.abs(res_new)))
                if norm_new <= (1.0 - 1e-4 * lam) * norm:
                    x, res, norm = x_new, res_new, norm_new
                    accepted = True
                    if lam < 1.0:
                        refactor = "damped"
                    break
                lam *= 0.5
        history.append(norm)
        if not accepted or norm > 0.9 * history[-2]:
            stall += 1
        else:
            stall = 0
        if not accepted and stall >= 2 or stall >= 4:
            return stalled(it + 1, "newton stalled")
    return stalled(NEWTON_MAX_ITER, "newton iteration budget exhausted")


def _checked_level(a, limit):
    """|a| for a finite nonzero level a: solutions at a and -a coincide."""
    if a == 0.0 or not math.isfinite(a):
        raise ValueError(f"level a must be finite and nonzero, got {a} "
                         f"(a = 0 is reached through {limit})")
    return abs(float(a))


def _quotient_solve(grid, sym, start, edges, a, factor):
    """One level of solve_disc or solve_strip: fold, _newton on ``grid.quotient(sym)``, unfold.

    ``edges`` are the sampled data the grid's residual takes: (phi,) or (top, bottom).
    Returns the full interior solution and the SolutionField entries every
    solved field shares: ``converged``, the full grid's ``residual_norm`` and
    ``diagnostics`` (``newton_iterations``, ``unknowns`` and _newton's).
    """
    system = grid.quotient(sym)
    x, _, iters, diag = _newton(
        system.fold(start), lambda x: system.residual(x, *edges, a),
        lambda x: system.factor(*system.jacobian(x, *edges, a)), factor=factor)
    sol = system.unfold(x)
    # on a quotient the mirrored rows' residuals differ from the solved ones by round-off
    norm = float(np.max(np.abs(grid.residual(sol, *edges, a))))
    return sol, {"converged": not diag["stagnated"], "residual_norm": norm,
                 "diagnostics": {"newton_iterations": iters, "unknowns": system.unknowns,
                                 **diag}}


# ---------------------------------------------------------------------------
# solution container

@dataclass
class SolutionField:
    """A solved (or synthetic) graph field on a disc or strip domain.

    Disc grids have shape (n_r, n_theta) over rings 1..n_r (the last ring
    is the boundary circle) plus explicit centre values.  Strip grids
    have shape (n_y, n_x), rows ordered bottom (y = -R) to top.  The
    field's geometry (nodes, domain test, interpolants) lives on its
    ``grid``, the domain's.

    A strip field made with ``u=None`` (solve_strip's) builds u from v
    by reconstruct_u only when a caller reads it, and keeps it.
    """

    domain: DomainSpec
    a: float
    u: np.ndarray
    v: np.ndarray
    converged: bool
    residual_norm: float
    f: np.ndarray = None
    f_center: float = 0.0
    u_center: float = 0.0
    v_center: float = 0.0
    boundary: dict = dc_field(default_factory=dict)
    is_limit: bool = False
    cauchy_increments: tuple = ()
    diagnostics: dict = dc_field(default_factory=dict)

    def __post_init__(self):
        self._interp = {}
        if self.u is None and self.kind == "periodic-strip":
            del self.u                   # __getattr__ builds it on first read

    def __getattr__(self, name):
        # reached only when normal lookup fails: a strip field's u not read yet
        if name != "u":
            raise AttributeError(name)
        return reconstruct_u(self).u

    @property
    def kind(self):
        """The domain's kind, "disc" or "periodic-strip"; read-only."""
        return self.domain.kind

    @property
    def grid(self):
        """The domain's grid, which holds the field's geometry."""
        return self.domain.grid()

    def node_arrays(self):
        """Cartesian node coordinates and the u, v grids."""
        return (*self.grid.nodes(), self.u, self.v)

    def contains(self, x, y):
        return self.grid.margin(x, y) >= -1e-12

    def _eval(self, name, x, y):
        """The interpolant of u or v (``name``) at points (x, y), built on first use."""
        if name not in self._interp:
            self._interp[name] = self.grid.interpolant(getattr(self, name),
                                                       getattr(self, name + "_center"))
        x, y = np.broadcast_arrays(np.asarray(x, float), np.asarray(y, float))
        return self._interp[name](x.ravel(), y.ravel()).reshape(x.shape)

    def uv(self, x, y):
        return self._eval("u", x, y), self._eval("v", x, y)

    # -- diagnostics ---------------------------------------------------------

    def validate(self):
        """Check the container invariants; raises AssertionError on failure."""
        g = self.grid
        if self.kind == "disc":
            phi = self.boundary["circle"].sample(g.theta)
            assert np.max(np.abs(self.f[-1] - phi)) <= BOUNDARY_TOL, "boundary mismatch"
            v_bnd = self.v[-1]
            interior = self.v[:-1]
        else:
            top = self.boundary["top"].sample_x(g.x, self.domain.P)
            bot = self.boundary["bottom"].sample_x(g.x, self.domain.P)
            assert np.max(np.abs(self.v[-1] - top)) <= BOUNDARY_TOL, "top boundary mismatch"
            assert np.max(np.abs(self.v[0] - bot)) <= BOUNDARY_TOL, "bottom boundary mismatch"
            v_bnd = np.concatenate([self.v[0], self.v[-1]])
            interior = self.v[1:-1]
            j0 = (self.domain.n_y - 1) // 2
            assert abs(self.u[j0, 0]) <= 1e-12, "u(0,0) normalisation broken"
        assert interior.max() <= v_bnd.max() + MAXPRIN_SLACK, "maximum principle violated"
        assert interior.min() >= v_bnd.min() - MAXPRIN_SLACK, "minimum principle violated"
        return True


# ---------------------------------------------------------------------------
# synthetic fields: a test constructor for fields with known zeros and
# exact references.  It stays in the package so that a fresh interpreter
# with only the source tree on its path can build one too.

def field_from_callables(domain, a, u_fn, v_fn):
    """Sample callables u(x, y), v(x, y) into a SolutionField container."""
    xg, yg = domain.grid().nodes()
    disc = dict(f=np.zeros(xg.shape), u_center=float(u_fn(0.0, 0.0)),
                v_center=float(v_fn(0.0, 0.0))) if domain.kind == "disc" else {}
    return SolutionField(domain, float(a), np.asarray(u_fn(xg, yg), float),
                         np.asarray(v_fn(xg, yg), float), converged=True, residual_norm=0.0,
                         is_limit=float(a) == 0.0, **disc)


# ---------------------------------------------------------------------------
# continuation

def level_record(fld):
    """A level solve's a, residual norm, convergence, tolerance, counts, fill and kernel."""
    return {"a": float(fld.a), "residual_norm": fld.residual_norm,
            "converged": fld.converged,
            **{k: fld.diagnostics[k] for k in
               ("tolerance", "newton_iterations", "factorizations", "chord_steps",
                "refactors", "fill", "factor", "half_bandwidth")}}


def _continue(solve_level):
    """Continuation in a from a = 1 down to the a_min proxy DEFAULT_A_MIN.

    ``solve_level(a, initial, factor)`` solves one level, warm-started
    from the grid's ``interior`` of the last kept level's field and sharing
    one FactorSlot with every level.  Each step multiplies a by a ratio,
    at least MAX_STEP_RATIO, and the last step is clamped onto DEFAULT_A_MIN.
    A level that raises SolverDiverged is retried from the last kept level
    with no factor and half the log-step it took (a square root); each
    kept level doubles the log-step again, up to the longest (Allgower &
    Georg, *Introduction to Numerical Continuation Methods*, SIAM 2003,
    ch. 6).  A stagnated level is kept: retrying cannot remove a round-off
    stall.  ContinuationFailed names a level that diverges at a = 1 or
    after STEP_HALVINGS halvings in a row.

    The returned field records the Cauchy increments of v between kept
    levels (``cauchy_increments``; u is not read, so a strip level's u is
    never built here) and the diagnostics ``levels`` (each kept level's
    a, residual norm, tolerance and counts), ``retries`` (the levels that
    diverged) and ``coarse`` (the coarse solves, see solve_disc, that
    only a cold first level makes).
    """
    factor = FactorSlot()
    fld = prev = None
    increments, levels, retries, coarse = [], [], [], []
    a_k, ratio, halvings = 1.0, MAX_STEP_RATIO, 0
    while True:
        try:
            nxt = solve_level(a_k, prev, factor)
        except SolverDiverged as exc:
            if fld is None or halvings == STEP_HALVINGS:
                raise ContinuationFailed(f"continuation step failed at a={a_k}",
                                         a=a_k, residual=exc.data.get("residual")) from exc
            retries.append(a_k)
            halvings += 1
            ratio = math.sqrt(a_k / kept)      # half the log-step taken, clamped or not
            factor.lu = None                   # taken at the iterates that diverged
        else:
            if fld is not None:
                increments.append(float(np.max(np.abs(nxt.v - fld.v))))
            levels.append(level_record(nxt))
            coarse.extend(nxt.diagnostics.get("coarse", ()))
            fld, prev, kept = nxt, nxt.grid.interior(nxt), a_k
            if kept == DEFAULT_A_MIN:
                break
            halvings = 0
            ratio = max(ratio * ratio, MAX_STEP_RATIO)
        a_k = max(kept * ratio, DEFAULT_A_MIN)
    fld.is_limit = True
    fld.cauchy_increments = tuple(increments)
    fld.diagnostics["levels"] = tuple(levels)
    fld.diagnostics["retries"] = tuple(retries)
    fld.diagnostics["coarse"] = tuple(coarse)
    return fld


# ---------------------------------------------------------------------------
# disc solver

def _cold_start(grid, boundary, a):
    """Initial iterate of a cold disc solve, and the coarse solves behind it.

    When the grid halves exactly (N even, M a multiple of 8, both halves
    at least 16), the same data at the same level are solved on the
    (N/2, M/2) grid, itself cold, with its own FactorSlot; the start is
    the harmonic extension H plus the prolonged coarse correction
    f_2h - H_2h.  Otherwise, or when the coarse solve raises
    SolverDiverged, the start is H.  Returns the start and the coarse
    solves' level records with their (n_x, n_y), coarsest first.
    """
    start = grid.harmonic_extension(boundary)
    n, m = grid.N // 2, grid.M // 2
    if grid.N % 2 or grid.M % 8 or min(n, m) < 16:
        return start, ()
    try:
        coarse = solve_disc(boundary, a, DomainSpec.disc(n, m))
    except SolverDiverged:
        return start, ()
    start += _prolong(coarse.f[:-1] - disc_grid(n, m).harmonic_extension(boundary))
    return start, (*coarse.diagnostics["coarse"], {**level_record(coarse), "n_x": n, "n_y": m})


def solve_disc(boundary, a, domain, initial=None, factor=None):
    """Solve the disc problem at level a != 0 with Dirichlet potential data.

    ``initial`` is the interior iterate to start from.  Without it the
    solve is cold and grid-sequenced as ``_cold_start`` describes, and
    ``diagnostics["coarse"]`` lists the coarse solves, () when there were
    none.  They finish, and drop their factors, before the fine Newton
    starts.

    Data without sine terms are even in y.  Odd cosines alone are also
    odd in x (f = 0 on theta = +-pi/2 and at the pole: the ghost drops
    out), a constant plus even cosines even in x (the ghost stays).
    ``diagnostics["unknowns"]`` counts the unknowns Newton solved for.

    The tolerance is _newton's.  ``factor`` is a FactorSlot whose LU factor
    Newton may reuse and replaces; a continuation passes it to every level.
    """
    a = _checked_level(a, "solve_disc_limit")
    grid = domain.grid()
    phi = boundary.sample(grid.theta)
    f0, coarse = (initial, ()) if initial is not None else _cold_start(grid, boundary, a)
    f_sol, solved = _quotient_solve(grid, grid.reflections(boundary), f0, (phi,), a, factor)
    u, v, u_c, v_c, f_c = grid.extract_uv(f_sol, phi)
    solved["diagnostics"]["coarse"] = coarse
    return SolutionField(domain, a, u, v, f=np.vstack([f_sol, phi[None, :]]), f_center=f_c,
                         u_center=u_c, v_center=v_c, boundary={"circle": boundary}, **solved)


def solve_disc_limit(boundary, domain):
    """The disc field at the a_min proxy, by continuation in a from a = 1 (see _continue)."""
    return _continue(
        lambda a_k, initial, factor: solve_disc(boundary, a_k, domain, initial=initial,
                                                factor=factor))


# ---------------------------------------------------------------------------
# strip solver

def solve_strip(top, bottom, a, domain, initial=None, factor=None):
    """Solve the strip problem at level a != 0 with edge data for v.

    Edges without sine terms are even in x, equal edges even in y.
    ``diagnostics["unknowns"]``, the tolerance and ``factor`` are as for solve_disc.
    The periodic closure of u is checked here (see reconstruct_u) and its
    defect recorded as ``diagnostics["closure_defect"]``; u itself is
    built only when a caller reads it, by reconstruct_u.
    """
    a = _checked_level(a, "solve_strip_limit")
    # |constant| + sum |coefficients| bounds each edge's sup norm
    scale = max(1.0, *(abs(e.constant) + sum(abs(c) for _, c in e.cos_coeffs + e.sin_coeffs)
                       for e in (top, bottom)))
    if abs(top.constant - bottom.constant) > 1e-12 * scale:
        raise IncompatibleBoundary("edge data must have equal means",
                                   top_mean=top.constant, bottom_mean=bottom.constant)
    grid = domain.grid()
    top_v = top.sample_x(grid.x, domain.P)
    bot_v = bottom.sample_x(grid.x, domain.P)
    v0 = initial if initial is not None else grid.harmonic_extension(top, bottom)
    v_sol, solved = _quotient_solve(grid, grid.reflections(top, bottom), v0, (top_v, bot_v), a,
                                 factor)
    v_full = np.vstack([bot_v, v_sol, top_v])
    solved["diagnostics"]["closure_defect"] = _closure_defect(grid, v_full)
    return SolutionField(domain, a, None, v_full, boundary={"top": top, "bottom": bottom},
                         **solved)


def solve_strip_limit(top, bottom, domain):
    """The strip field at the a_min proxy, by continuation in a from a = 1 (see _continue)."""
    return _continue(
        lambda a_k, initial, factor: solve_strip(top, bottom, a_k, domain, initial=initial,
                                                 factor=factor))


def _closure_defect(grid, v):
    """The largest periodic closure defect hx * sum(v_y) over the rows of u.

    Row j of u integrates u_x = v_y around the period, so it closes when
    row j of v_y sums to zero.  That sum is the y-derivative of v's row
    sums, by the np.gradient stencil of ``StripGrid.gradient``.  A defect
    above CLOSURE_DEFECT_TOL signals an unconverged v or incompatible data
    and raises MonodromyDefect.
    """
    v_y_sums = np.gradient(v.sum(axis=1), grid.hy, edge_order=2)
    worst = float(np.max(np.abs(grid.hx * v_y_sums)))
    if worst > CLOSURE_DEFECT_TOL:
        raise MonodromyDefect("periodic closure of u failed", defect=worst)
    return worst


def reconstruct_u(field):
    """Rebuild u from v on a strip via u_x = v_y and the x = 0 column.

    u(0, y) comes from integrating u_y = -(1/2)(v^2+y^2+a^2)^(-1/2) v_x up
    the column x = 0 from the anchor u(0,0) = 0, then each row integrates
    u_x = v_y.  The worst periodic closure defect of the rows is recorded
    as ``diagnostics["closure_defect"]`` (see _closure_defect).
    """
    if field.kind != "periodic-strip":
        raise ValueError("reconstruct_u applies to strip fields")
    grid = field.grid
    v = field.v
    hx, hy, y = grid.hx, grid.hy, grid.y
    a = field.a
    vx, vy = grid.gradient(v)
    worst = _closure_defect(grid, v)

    q = v**2 + y[:, None] ** 2 + a * a
    uy = -0.5 * vx / np.sqrt(np.maximum(q, COEFF_FLOOR))
    j0 = (field.domain.n_y - 1) // 2
    steps = 0.5 * hy * (uy[1:, 0] + uy[:-1, 0])  # trapezoid per cell of the column
    # running sums outward from u(0, 0) = 0, each seeded with 0.0 so that a zero
    # sum keeps the sign an outward loop gives it
    up = np.cumsum(np.concatenate(([0.0], steps[j0:])))
    down = np.cumsum(np.concatenate(([0.0], -steps[:j0][::-1])))
    u0 = np.concatenate((down[:0:-1], up))

    u = np.empty_like(v)
    u[:, 0] = u0
    incr = 0.5 * hx * (vy + np.roll(vy, -1, axis=1))  # trapezoid per cell
    u[:, 1:] = u0[:, None] + np.cumsum(incr[:, :-1], axis=1)

    field.u = u
    field.diagnostics["closure_defect"] = worst
    field._interp.pop("u", None)
    return field


# ---------------------------------------------------------------------------
# field dump input/output

def save_field(field, path):
    """Write the dump: one JSON header line, then a CSV body.

    Disc rows: centre first, then rings inner to outer, angles ascending;
    columns x, y, f, u, v.  Strip rows: y ascending then x ascending;
    columns x, y, u, v.  The header also carries the diagnostics and the
    Cauchy increments of v, one per continuation step: the steps are few
    and long (up to a factor 1 / MAX_STEP_RATIO in a), so an increment
    measures the change over a whole step, not a rate in a.
    """
    header = {
        "kind": field.kind,
        "a": field.a,
        "R": field.domain.R,
        "P": field.domain.P,
        "n_x": field.domain.n_x,
        "n_y": field.domain.n_y,
        "boundary": {k: spec.to_json() for k, spec in field.boundary.items()},
        "residual_norm": field.residual_norm,
        "converged": bool(field.converged),
        "is_limit": bool(field.is_limit),
        "cauchy_increments": list(field.cauchy_increments),
        "diagnostics": field.diagnostics,
    }
    names = "xyfuv" if field.kind == "disc" else "xyuv"
    lines = [json.dumps(header, sort_keys=True), ",".join(names)]
    if field.kind == "disc":
        lines.append("0.0,0.0," + ",".join(
            repr(float(v)) for v in (field.f_center, field.u_center, field.v_center)))
    cols = dict(zip("xy", field.grid.nodes()), f=field.f, u=field.u, v=field.v)
    flat = [np.asarray(cols[name], float).ravel() for name in names]
    for row in zip(*flat):
        lines.append(",".join(repr(val) for val in map(float, row)))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def _tuples(obj):
    """A JSON value with every list, at any depth, back as the tuple it was."""
    if isinstance(obj, list):
        return tuple(_tuples(v) for v in obj)
    if isinstance(obj, dict):
        return {k: _tuples(v) for k, v in obj.items()}
    return obj


def load_field(path):
    """Rebuild a SolutionField from a dump written by save_field.

    A malformed dump (a header that is not a JSON object or lacks a key,
    no body rows, a row of the wrong length, a body that does not fill the
    header's grid) raises a one-line ValueError that names the path.
    """
    with open(path) as fh:
        try:
            header = json.loads(fh.readline())
            names = fh.readline().strip().split(",")
            lines = [line for line in fh if line.strip()]
            if not isinstance(header, dict):
                raise ValueError("the dump's header is not a JSON object")
            if not lines:
                raise ValueError("the dump has no body rows")
            body = np.loadtxt(lines, delimiter=",", ndmin=2)
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from None
    try:
        boundary = {k: BoundarySpec.from_json(o) for k, o in header["boundary"].items()}
        common = dict(boundary=boundary, converged=header["converged"],
                      residual_norm=header["residual_norm"], is_limit=header["is_limit"],
                      cauchy_increments=tuple(header.get("cauchy_increments", ())),
                      diagnostics=_tuples(header.get("diagnostics", {})))
        domain = DomainSpec(header["kind"], header["R"], header["P"], header["n_x"],
                            header["n_y"])
        a = header["a"]
    except KeyError as exc:
        raise ValueError(f"{path}: the dump's header lacks the key {exc}") from None
    shape = domain.grid().nodes()[0].shape
    rows = math.prod(shape) + (domain.kind == "disc")     # a disc dump leads with its centre
    if body.shape != (rows, len(names)):
        raise ValueError(f"{path}: the header's {domain.kind} grid needs {rows} rows of "
                         f"{len(names)} values, the body has {body.shape[0]} rows of "
                         f"{body.shape[1]}")
    if domain.kind == "disc":
        common.update({f"{name}_center": float(val) for name, val in zip(names[2:], body[0, 2:])})
        body = body[1:]
    arrays = {name: body[:, k].reshape(shape) for k, name in enumerate(names) if k >= 2}
    return SolutionField(domain, a, **arrays, **common)
