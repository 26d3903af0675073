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
y-independent.  u is then reconstructed from v_x, v_y with u(0,0) = 0.

Both solvers run chord (Shamanskii) Newton with a sparse Jacobian.  Each
grid fixes one fill-reducing order of its unknowns: a nested dissection
of the index box (interior rings x angles on the disc, interior rows x
x nodes on the strip), periodic in the angle or in x, with the disc's
border unknown last.  The Jacobian is assembled straight into a CSC
pattern in that order, fixed per grid, and SuperLU factors it as given
(``permc_spec="NATURAL"``); each solve is mapped back to the unknowns.
That factor is reused for full chord steps as long as each one cuts the
sup-norm residual to at most CHORD_CONTRACTION times its previous value,
or below the tolerance.  A chord step that does neither is discarded;
the Jacobian is then rebuilt and factored at the current iterate and a
damped Newton step with a sup-norm line search is taken.  At most one
factor is alive at a time: the stale one is dropped before the next is
allocated, and the factor is never stored on a field.  A continuation
hands its factor from one level to the next.

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
a round-off floor of about eps * || |J| |x| ||_inf, which at small a on
fine grids lies above NEWTON_TOL, since the coefficient
(v^2 + y^2 + a^2)^(-1/2) grows like 1/a near the singular points.  A
solve is therefore converged when the sup-norm residual of the returned
field is below max(NEWTON_TOL, ROUNDOFF_SAFETY * eps * || |J| |x| ||_inf),
the floor taken from the last Jacobian that was factored; an explicit
``tol`` replaces this rule.

The level a = 0 is reached by geometric continuation a_k -> a_min with
warm starts; the a_min field is returned as the singular-level proxy and
the sup-norm increments between consecutive steps are recorded as a
Cauchy diagnostic.
"""

import json
from dataclasses import dataclass, field as dc_field

import numpy as np
import scipy.sparse as sp
# keep ``spla`` a module-level name: benchmarks/tracing.py swaps it for a traced proxy
import scipy.sparse.linalg as spla

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
ROUNDOFF_SAFETY = 0.5        # share of eps * || |J| |x| ||_inf taken as the residual floor
GRADING = 0.4                # radial grading strength toward r = 1
DEFAULT_A_MIN = 1e-4
CLOSURE_DEFECT_TOL = 1e-6    # largest periodic closure defect of u that reconstruct_u accepts
BOUNDARY_TOL = 1e-12         # validate: stored boundary values against the data
MAXPRIN_SLACK = 1e-8         # validate: slack of the maximum principle
# Part of every SolverCache key: change it whenever solver output changes,
# so that fields cached on disk by an older solver are not reused.
SOLVER_VERSION = "chord-newton-4"


# ---------------------------------------------------------------------------
# boundary data and domains

@dataclass(frozen=True)
class BoundarySpec:
    """Finite trigonometric boundary data.

    Disc: a function of theta on the unit circle.  Strip: a function of
    2*pi*x/P on one edge.  Coefficient maps are harmonic index -> value,
    stored as sorted tuples so specs hash and compare by value.
    """

    constant: float = 0.0
    cos_coeffs: tuple = ()
    sin_coeffs: tuple = ()

    @staticmethod
    def make(constant=0.0, cos=None, sin=None):
        def norm(d):
            if not d:
                return ()
            items = dict(d).items()
            return tuple(sorted((int(k), float(v)) for k, v in items if float(v) != 0.0))

        return BoundarySpec(float(constant), norm(cos), norm(sin))

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

    def max_abs(self):
        thetas = np.linspace(0.0, 2.0 * np.pi, 4096, endpoint=False)
        return float(np.max(np.abs(self.sample(thetas))))

    def key(self):
        return (self.constant, self.cos_coeffs, self.sin_coeffs)

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
    R: float = 1.0
    P: float = 2.0 * np.pi
    n_x: int = 128
    n_y: int = 128

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

    @staticmethod
    def disc(n_r=128, n_theta=256):
        return DomainSpec("disc", 1.0, 2.0 * np.pi, n_r, n_theta)

    @staticmethod
    def strip(n_x=256, n_y=129, R=1.0, P=2.0 * np.pi):
        return DomainSpec("periodic-strip", R, P, n_x, n_y)


def geometric_schedule(a_start=1.0, factor=0.5, a_min=DEFAULT_A_MIN):
    """Decreasing level schedule a_start * factor^k, clamped to end at a_min."""
    if not (0 < factor < 1 and 0 < a_min <= a_start):
        raise ValueError("need 0 < factor < 1 and 0 < a_min <= a_start")
    out = []
    a = float(a_start)
    while a > a_min * (1 + 1e-12):
        out.append(a)
        a *= factor
    out.append(float(a_min))
    return tuple(out)


# ---------------------------------------------------------------------------
# disc grid and operators

_GRID_CACHE = {}


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

    d = x1 - x0 and e = x2 - x1; mirrored, they give the derivative at x0.
    """
    return e / (d * (d + e)), -(d + e) / (d * e), (d + 2 * e) / (e * (d + e))


def _periodic_order(n_rows, n_cols):
    """Nested-dissection order of an index box periodic in its columns.

    Returns the nodes row * n_cols + col in elimination order.  Column 0
    cuts the cycle open and comes last; the other columns form a box
    whose first separator, its middle column, is the second cut.  A box
    less than three nodes thick is taken row by row.  A wider one is
    split by its middle column (a taller one, transposed, by its middle
    row), and that separator comes after the two halves.  A box's order
    depends only on its shape, so each shape is ordered once.
    """
    memo = {}

    def box(h, w):                               # (rows, cols) of an h x w box
        if (h, w) not in memo:
            if min(h, w) < 3:
                memo[h, w] = np.divmod(np.arange(h * w), w)
            elif h > w:
                memo[h, w] = box(w, h)[::-1]
            else:
                m = w // 2
                (ra, ca), (rb, cb) = box(h, m), box(h, w - m - 1)
                memo[h, w] = (np.concatenate([ra, rb, np.arange(h)]),
                              np.concatenate([ca, cb + m + 1, np.full(h, m)]))
        return memo[h, w]

    rows, cols = box(n_rows, n_cols - 1)
    return np.concatenate([rows * n_cols + cols + 1, np.arange(n_rows) * n_cols])


def _positions(order):
    """Inverse of a permutation: the position of each index in ``order``."""
    pos = np.empty_like(order)
    pos[order] = np.arange(order.size)
    return pos


class DiscGrid:
    """Polar tensor grid on the unit disc with its sparse difference operators."""

    def __init__(self, n_r, n_theta):
        self.N = int(n_r)
        self.M = int(n_theta)
        N, M = self.N, self.M
        xi = np.arange(1, N + 1) / N
        self.r = xi + GRADING * xi * (1 - xi)        # rings 1..N, r[N-1] = 1
        h = 2 * np.pi / M
        self.theta = h * np.arange(M)
        self.cos = np.cos(self.theta)
        self.sin = np.sin(self.theta)
        shift = sp.eye(M, k=1) + sp.eye(M, k=1 - M)  # (shift f)_j = f_(j+1 mod M)
        self.angular = {
            "id": sp.eye(M),
            "d1": (shift - shift.T) / (2 * np.sin(h)),
            "d2": (shift + shift.T - 2 * sp.eye(M)) / (2 - 2 * np.cos(h)),
        }

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
        pole ghost g.  In factor order the interior nodes follow
        _periodic_order over (interior rings x angles) and g comes last;
        ``pos`` holds each interior node's position.  ``_lift`` puts
        f_int and g there and appends the boundary ring, phi.

        Returns a dict of operators on the lifted vector: "x", "xx" and
        "yy" give f_x, r^2 f_xx and 2 r^2 f_yy at the interior rings, rows
        in factor order; the row scaling r^2 desingularises the pole.  They
        are CSC matrices on one shared pattern.  Its square leading block,
        up to g's column, is the pattern of the bordered Jacobian, and
        "yy" also holds the border row g - mean(ring 1).
        """
        if self._ops is not None:
            return self._ops
        N, M = self.N, self.M
        n = (N - 1) * M
        # 3-point stencils over rings i-1..i+1 of interior ring i and angles j-1..j+1
        radial = {"id": np.tile([0.0, 1.0, 0.0], (N - 1, 1)),
                  "dr": np.column_stack([self.wm, self.w0, self.wp]),
                  "drr": np.column_stack([self.vm, self.v0, self.vp])}
        # row 1 of each circulant holds its stencil in columns 0..2
        angular = {name: op.tocsr()[1, :3].toarray().ravel() for name, op in self.angular.items()}

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
        order = np.append(_periodic_order(N - 1, M), n)
        self.pos = _positions(order)[:n]
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
        self._y2 = np.append(y * y, 0.0)[order]      # y^2 per row in factor order
        return self._ops

    def _lift(self, f_int, phi):
        """The unknowns in factor order, f_int then g = the mean of ring 1, then phi."""
        if self._ops is None:
            self.ops64()
        n = self.pos.size
        z = np.empty(n + 1 + self.M)
        z[self.pos] = f_int.ravel()
        z[n] = np.mean(f_int[0])
        z[n + 1:] = phi
        return z

    def _coefficient(self, z, a):
        """f_x and q = f_x^2 + y^2 + a^2 per row in factor order."""
        fx = self._ops["x"] @ z
        return fx, fx * fx + self._y2 + a * a

    def residual(self, f_int, phi, a):
        """Scaled residual r^2 (W f_xx + 2 f_yy) at interior rings."""
        z = self._lift(f_int, phi)
        _, q = self._coefficient(z, a)
        w = 1.0 / np.sqrt(np.maximum(q, COEFF_FLOOR))
        res = w * (self._ops["xx"] @ z) + self._ops["yy"] @ z
        return res[self.pos].reshape(self.N - 1, self.M)

    def jacobian(self, f_int, phi, a):
        """The bordered Jacobian in factor order, as ``_newton`` takes it.

        Returns (J, pos, z): J over the interior unknowns and g, in the
        grid's factor order, its data one gather-multiply-add over the
        shared pattern's square block; ``pos``; and the lifted iterate
        up to g.  The Schur complement of g's row and column is the
        Jacobian of ``residual`` in f_int.
        """
        z = self._lift(f_int, phi)
        x, xx, yy = (self._ops[name] for name in ("x", "xx", "yy"))
        fx, q = self._coefficient(z, a)
        qe = np.maximum(q, COEFF_FLOOR)
        w = 1.0 / np.sqrt(qe)
        dw = np.where(q > COEFF_FLOOR, -fx * qe**-1.5, 0.0)
        m = q.size
        k = xx.indptr[m]                             # entries in the square block
        rows = xx.indices[:k]
        data = ((dw * (xx @ z))[rows] * x.data[:k] + w[rows] * xx.data[:k] + yy.data[:k])
        return sp.csc_matrix((data, rows, xx.indptr[:m + 1]), shape=(m, m)), self.pos, z[:m]

    # -- derived fields ----------------------------------------------------

    def extract_uv(self, f_int, phi):
        """u = f_y and v = f_x on all rings, plus the centre values.

        The radial derivative is central at the interior rings, the pole
        ghost standing in for ring 0, and one-sided on the boundary ring.
        """
        f_c = float(np.mean(f_int[0]))
        rings = np.vstack([np.full(self.M, f_c), f_int, phi])    # rings 0..N
        f_r = np.vstack([self.wm[:, None] * rings[:-2] + self.w0[:, None] * rings[1:-1]
                         + self.wp[:, None] * rings[2:], np.dot(self.bnd_w, rings[-3:])])
        f_t = rings[1:] @ self.angular["d1"].T
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


def disc_grid(n_r, n_theta):
    key = ("disc", n_r, n_theta)
    grid = _GRID_CACHE.get(key)
    if grid is None:
        grid = _GRID_CACHE[key] = DiscGrid(n_r, n_theta)
    return grid


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

class StripGrid:
    """Uniform periodic-in-x grid on the strip |y| <= R.

    The unknowns are v at the interior rows, row by row.  Their factor
    order is _periodic_order over (interior rows x x nodes); ``pos``
    holds each node's position.  The Jacobian's five-point pattern is
    fixed in that order: its entry e is coefficient ``_source[e]`` of the
    centre, right and left couplings of every node, then the constant
    coupling across rows.
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
        n = (self.n_y - 2) * self.n_x
        self.pos = _positions(_periodic_order(self.n_y - 2, self.n_x))
        k = np.arange(n).reshape(self.n_y - 2, self.n_x)
        rows = np.concatenate([k, k, k, k[:-1], k[1:]], axis=None)
        cols = np.concatenate([k, np.roll(k, -1, axis=1), np.roll(k, 1, axis=1), k[1:], k[:-1]],
                              axis=None)
        source = np.concatenate([k, k + n, k + 2 * n, np.full(2 * (n - self.n_x), 3 * n)],
                                axis=None)
        # entry numbers + 1 through the COO -> CSC conversion
        ids = sp.csc_matrix((source + 1.0, (self.pos[rows], self.pos[cols])), shape=(n, n))
        self._pattern = ids.indices, ids.indptr
        self._source = ids.data.astype(np.intp) - 1

    def _faces(self, v_int, top, bot, a):
        """v at all rows, and per node the face x + hx/2: v there, v difference, q."""
        V = np.vstack([bot[None, :], v_int, top[None, :]])
        right = np.roll(V, -1, axis=1)
        mid = 0.5 * (V + right)
        return V, mid, right - V, mid * mid + self.y[:, None] ** 2 + a * a

    def residual(self, v_int, top, bot, a):
        """Conservative-form residual on interior rows."""
        V, _, d, q = self._faces(v_int, top, bot, a)
        flux = d / np.sqrt(np.maximum(q, COEFF_FLOOR))
        rx = (flux - np.roll(flux, 1, axis=1)) / (self.hx * self.hx)
        ry = (V[2:] - 2 * V[1:-1] + V[:-2]) * (2 / (self.hy * self.hy))
        return rx[1:-1] + ry

    def jacobian(self, v_int, top, bot, a):
        """The Jacobian in factor order, as ``_newton`` takes it: (J, pos, z).

        z is v_int in factor order.
        """
        hx2 = self.hx * self.hx
        hy2 = self.hy * self.hy
        _, mid, d, q = self._faces(v_int, top, bot, a)
        qe = np.maximum(q, COEFF_FLOOR)
        w = qe**-0.5
        half_dw_d = 0.5 * np.where(q > COEFF_FLOOR, -mid * qe**-1.5, 0.0) * d
        # face flux w * d: derivative w + half_dw_d in the right node, -w + half_dw_d in the left
        right, left = (w + half_dw_d)[1:-1], (-w + half_dw_d)[1:-1]
        c_xp = right / hx2
        c_xm = -np.roll(left, 1, axis=1) / hx2
        c_0 = (left - np.roll(right, 1, axis=1)) / hx2 - 4.0 / hy2
        coeffs = np.concatenate([c_0, c_xp, c_xm, 2.0 / hy2], axis=None)
        n = self.pos.size
        z = np.empty(n)
        z[self.pos] = v_int.ravel()
        return sp.csc_matrix((coeffs[self._source], *self._pattern), shape=(n, n)), self.pos, z


def strip_grid(n_x, n_y, R, P):
    key = ("strip", n_x, n_y, R, P)
    grid = _GRID_CACHE.get(key)
    if grid is None:
        grid = _GRID_CACHE[key] = StripGrid(n_x, n_y, R, P)
    return grid


# ---------------------------------------------------------------------------
# Newton driver

class FactorSlot:
    """Holds the one live LU factor of a solve, or of a whole continuation.

    ``lu`` factors, as given, a Jacobian that its grid assembled in the
    grid's fixed factor order, border unknowns last; ``pos`` is the
    position of each unknown in that order.  ``floor`` is
    the residual's round-off floor, ROUNDOFF_SAFETY * eps * || |J| |x| ||_inf,
    taken when that factor's Jacobian J was factored at the iterate x.
    """

    __slots__ = ("lu", "pos", "floor")

    def __init__(self):
        self.lu = None
        self.pos = None
        self.floor = 0.0

    def solve(self, rhs):
        """J^-1 rhs for the unknowns: border rows get a zero right-hand side."""
        b = np.zeros(self.lu.shape[0])
        b[self.pos] = rhs
        return self.lu.solve(b)[self.pos]


def _newton(x0, eval_res, build_jac, tol=None, max_iter=NEWTON_MAX_ITER, factor=None):
    """Chord Newton with sup-norm line search.

    Each iteration first tries a full chord step with the factor held in
    ``factor`` (a FactorSlot; a fresh one when None), which may come from
    an earlier iterate or an earlier continuation level.  The step is
    kept if it cuts the sup-norm residual to at most CHORD_CONTRACTION
    times its previous value, or below the tolerance, since a step that
    converges needs no new factor.  Otherwise it is discarded, the slot
    is emptied, the Jacobian at the current iterate is factored by
    ``spla.splu`` into the slot, and a damped Newton step is taken with
    a halving line search.  Emptying the slot before ``splu`` keeps at
    most one factor alive; the caller keeps the slot, and with it the
    last factor, for the next solve.

    ``build_jac(x)`` returns the Jacobian at x as a triple (J, pos, z):
    J in the grid's factor order, which SuperLU keeps
    (``permc_spec="NATURAL"``); pos, where each unknown sits in it, with
    any border unknowns after the others; and z, the iterate there with
    its border values.  A border row's right-hand side is zero, as its
    equation holds at every iterate, and each solve is read back at pos.
    A plain sparse matrix stands for J over the unknowns in their own
    order.

    The solve is converged once the sup-norm residual is below the
    tolerance: ``tol`` when given, else max(NEWTON_TOL, floor) with the
    slot's round-off floor, which is recomputed at every factorisation.
    Below that floor float64 residuals are round-off, and iterating
    further only refactors without progress.

    Every kept step counts as an iteration, as does a Newton step whose
    line search failed.  A run of steps that fail to cut the residual by
    10% stalls the solve, as does running out of iterations.  A stalled
    iterate is converged when it is below the tolerance, is returned as
    stagnated (not converged) when it is below the stagnation bound
    FLOOR_ACCEPT / NEWTON_TOL * max(NEWTON_TOL, floor), and raises
    SolverDiverged otherwise.  The bound is FLOOR_ACCEPT while the floor
    is at most NEWTON_TOL and keeps the same margin over the tolerance
    above it.  Returns (x, residual norm, iterations, diagnostics) with
    the residual history, ``stagnated``, the ``tolerance`` applied, the
    counts ``factorizations`` and ``chord_steps``, and the ``fill`` of
    each factorisation: the entries SuperLU stores for L and U.
    """
    factor = factor if factor is not None else FactorSlot()
    x = np.asarray(x0, float)
    res = eval_res(x)
    norm = float(np.max(np.abs(res)))
    history = [norm]
    fill = []
    stall = 0
    counts = {"factorizations": 0, "chord_steps": 0}

    def tolerance():
        return tol if tol is not None else max(NEWTON_TOL, factor.floor)

    def outcome(iters, stagnated):
        return x, norm, iters, {"history": tuple(history), "stagnated": stagnated,
                                "tolerance": tolerance(), "fill": tuple(fill), **counts}

    def stalled(iters, reason):
        if norm < tolerance():
            return outcome(iters, False)
        if norm < FLOOR_ACCEPT / NEWTON_TOL * max(NEWTON_TOL, factor.floor):
            return outcome(iters, True)
        raise SolverDiverged(reason, residual=norm, iterations=iters)

    for it in range(max_iter):
        if norm < tolerance():
            return outcome(it, False)
        accepted = False
        rhs = -res.ravel()
        if factor.lu is not None:
            x_new = x + factor.solve(rhs).reshape(x.shape)
            res_new = eval_res(x_new)
            norm_new = float(np.max(np.abs(res_new)))
            if norm_new <= CHORD_CONTRACTION * norm or norm_new < tolerance():
                x, res, norm = x_new, res_new, norm_new
                accepted = True
                counts["chord_steps"] += 1
        if not accepted:
            factor.lu = None
            jac = build_jac(x)
            jac, factor.pos, z = jac if isinstance(jac, tuple) else (jac, slice(None), x.ravel())
            factor.floor = float(ROUNDOFF_SAFETY * np.finfo(float).eps
                                 * np.max(abs(jac) @ np.abs(z)))
            factor.lu = spla.splu(jac, permc_spec="NATURAL")
            counts["factorizations"] += 1
            fill.append(factor.lu.nnz)
            delta = factor.solve(rhs).reshape(x.shape)
            lam = 1.0
            while lam >= 2.0**-14:
                x_new = x + lam * delta
                res_new = eval_res(x_new)
                norm_new = float(np.max(np.abs(res_new)))
                if norm_new <= (1.0 - 1e-4 * lam) * norm:
                    x, res, norm = x_new, res_new, norm_new
                    accepted = True
                    break
                lam *= 0.5
        history.append(norm)
        if not accepted or norm > 0.9 * history[-2]:
            stall += 1
        else:
            stall = 0
        if not accepted and stall >= 2 or stall >= 4:
            return stalled(it + 1, "newton stalled")
    return stalled(max_iter, "newton iteration budget exhausted")


# ---------------------------------------------------------------------------
# solution container

@dataclass
class SolutionField:
    """A solved (or synthetic) graph field on a disc or strip domain.

    Disc grids have shape (n_r, n_theta) over rings 1..n_r (the last ring
    is the boundary circle) plus explicit centre values.  Strip grids
    have shape (n_y, n_x), rows ordered bottom (y = -R) to top.
    """

    kind: str
    domain: DomainSpec
    a: float
    u: np.ndarray
    v: np.ndarray
    f: np.ndarray = None
    f_center: float = 0.0
    u_center: float = 0.0
    v_center: float = 0.0
    boundary: dict = dc_field(default_factory=dict)
    converged: bool = False
    residual_norm: float = np.inf
    is_limit: bool = False
    cauchy_increments: tuple = ()
    diagnostics: dict = dc_field(default_factory=dict)

    def __post_init__(self):
        self._interp = {}

    # -- geometry ----------------------------------------------------------

    def grid_axes(self):
        if self.kind == "disc":
            g = disc_grid(self.domain.n_x, self.domain.n_y)
            return g.r, g.theta
        g = strip_grid(self.domain.n_x, self.domain.n_y, self.domain.R, self.domain.P)
        return g.x, g.y

    def node_arrays(self):
        """Cartesian node coordinates and the u, v grids."""
        if self.kind == "disc":
            r, th = self.grid_axes()
            xg = r[:, None] * np.cos(th)[None, :]
            yg = r[:, None] * np.sin(th)[None, :]
            return xg, yg, self.u, self.v
        x, y = self.grid_axes()
        xg = np.broadcast_to(x[None, :], self.v.shape)
        yg = np.broadcast_to(y[:, None], self.v.shape)
        return xg, yg, self.u, self.v

    def interior_mask(self):
        mask = np.zeros(self.v.shape, dtype=bool)
        if self.kind == "disc":
            mask[:-1, :] = True
        else:
            mask[1:-1, :] = True
        return mask

    def cell_scale(self):
        if self.kind == "disc":
            r, th = self.grid_axes()
            return float(max(np.max(np.diff(r)), r[0]))
        x, y = self.grid_axes()
        return float(max(x[1] - x[0], y[1] - y[0]))

    def contains(self, x, y):
        x = np.asarray(x, float)
        y = np.asarray(y, float)
        if self.kind == "disc":
            return np.hypot(x, y) <= 1.0 + 1e-12
        return np.abs(y) <= self.domain.R + 1e-12

    @property
    def is_singular_level(self):
        return self.is_limit or self.a == 0.0

    # -- interpolation -----------------------------------------------------

    def _interpolator(self, grid, center_value):
        # local: scipy.interpolate loads scipy.optimize, which a solve never needs
        from scipy.interpolate import RectBivariateSpline

        pad = 4  # wrap columns so the periodic coordinate stays smooth
        if self.kind == "disc":
            r, th = self.grid_axes()
            th_ext = np.concatenate([th[-pad:] - 2 * np.pi, th, th[:pad] + 2 * np.pi])
            vals = np.concatenate([grid[:, -pad:], grid, grid[:, :pad]], axis=1)
            r_ext = np.concatenate([[0.0], r])
            centre_row = np.full((1, vals.shape[1]), center_value)
            vals = np.concatenate([centre_row, vals], axis=0)
            return RectBivariateSpline(r_ext, th_ext, vals, kx=3, ky=3, s=0)
        x, y = self.grid_axes()
        x_ext = np.concatenate([x[-pad:] - self.domain.P, x, x[:pad] + self.domain.P])
        vals = np.concatenate([grid[:, -pad:], grid, grid[:, :pad]], axis=1)
        return RectBivariateSpline(y, x_ext, vals, kx=3, ky=3, s=0)

    def _get_interp(self, name):
        if name not in self._interp:
            grid = getattr(self, name)
            center = {"u": self.u_center, "v": self.v_center}[name]
            self._interp[name] = self._interpolator(grid, center)
        return self._interp[name]

    def _eval(self, name, x, y):
        x = np.asarray(x, float)
        y = np.asarray(y, float)
        shape = np.broadcast(x, y).shape
        x = np.broadcast_to(x, shape).ravel()
        y = np.broadcast_to(y, shape).ravel()
        if self.kind == "disc":
            out = self._get_interp(name).ev(np.hypot(x, y),
                                            np.mod(np.arctan2(y, x), 2.0 * np.pi))
        else:
            out = self._get_interp(name).ev(y, np.mod(x, self.domain.P))
        return out.reshape(shape)

    def uv(self, x, y):
        return self._eval("u", x, y), self._eval("v", x, y)

    # -- axis sampling -------------------------------------------------------

    def axis_samples(self):
        """Positions x and values (u, v) along the y = 0 axis segment."""
        if self.kind == "disc":
            r, _ = self.grid_axes()
            jpi = self.domain.n_y // 2
            xs = np.concatenate([-r[::-1], [0.0], r])
            vs = np.concatenate([self.v[::-1, jpi], [self.v_center], self.v[:, 0]])
            us = np.concatenate([self.u[::-1, jpi], [self.u_center], self.u[:, 0]])
            return xs, us, vs
        x, y = self.grid_axes()
        j0 = (self.domain.n_y - 1) // 2
        xs = np.concatenate([x, [self.domain.P]])
        vs = np.concatenate([self.v[j0], [self.v[j0, 0]]])
        us = np.concatenate([self.u[j0], [self.u[j0, 0]]])
        return xs, us, vs

    # -- diagnostics ---------------------------------------------------------

    def cartesian_gradient(self, grid):
        """(d/dx, d/dy) of a ring-grid scalar via polar transforms (disc only)."""
        if self.kind != "disc":
            raise ValueError("cartesian_gradient is for disc fields")
        g = disc_grid(self.domain.n_x, self.domain.n_y)
        r = g.r
        gr = np.empty_like(grid)
        # central at rings 2..N-1, one-sided away from the pole and at the boundary
        gr[1:-1] = g.wm[1:, None] * grid[:-2] + g.w0[1:, None] * grid[1:-1] \
            + g.wp[1:, None] * grid[2:]
        first = _one_sided_weights(r[2] - r[1], r[1] - r[0])
        gr[0] = -(first[0] * grid[2] + first[1] * grid[1] + first[2] * grid[0])
        gr[-1] = g.bnd_w[0] * grid[-3] + g.bnd_w[1] * grid[-2] + g.bnd_w[2] * grid[-1]
        gth = grid @ g.angular["d1"].T
        c, s = g.cos[None, :], g.sin[None, :]
        rr = r[:, None]
        gx = c * gr - (s / rr) * gth
        gy = s * gr + (c / rr) * gth
        return gx, gy

    def validate(self):
        """Check the container invariants; raises AssertionError on failure."""
        if self.kind == "disc":
            g = disc_grid(self.domain.n_x, self.domain.n_y)
            phi = self.boundary["circle"].sample(g.theta)
            assert np.max(np.abs(self.f[-1] - phi)) <= BOUNDARY_TOL, "boundary mismatch"
            v_bnd = self.v[-1]
            interior = self.v[:-1]
        else:
            g = strip_grid(self.domain.n_x, self.domain.n_y, self.domain.R, self.domain.P)
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
# synthetic fields (used by analysis tests and the CLI classify path)

def field_from_callables(domain, a, u_fn, v_fn, is_limit=None):
    """Sample callables u(x, y), v(x, y) into a SolutionField container."""
    if domain.kind == "disc":
        g = disc_grid(domain.n_x, domain.n_y)
        xg = g.r[:, None] * g.cos[None, :]
        yg = g.r[:, None] * g.sin[None, :]
        u = np.asarray(u_fn(xg, yg), float)
        v = np.asarray(v_fn(xg, yg), float)
        fld = SolutionField("disc", domain, float(a), u, v,
                            f=np.zeros_like(u), boundary={},
                            u_center=float(u_fn(0.0, 0.0)),
                            v_center=float(v_fn(0.0, 0.0)),
                            converged=True, residual_norm=0.0)
    else:
        g = strip_grid(domain.n_x, domain.n_y, domain.R, domain.P)
        xg, yg = np.meshgrid(g.x, g.y)
        u = np.asarray(u_fn(xg, yg), float)
        v = np.asarray(v_fn(xg, yg), float)
        fld = SolutionField("periodic-strip", domain, float(a), u, v,
                            boundary={}, converged=True, residual_norm=0.0)
    fld.is_limit = bool(is_limit) if is_limit is not None else (float(a) == 0.0)
    return fld


# ---------------------------------------------------------------------------
# continuation

def level_record(fld):
    """A level solve's a, residual norm, convergence, tolerance, counts and fill."""
    return {"a": float(fld.a), "residual_norm": fld.residual_norm,
            "converged": fld.converged,
            **{k: fld.diagnostics[k] for k in
               ("tolerance", "newton_iterations", "factorizations", "chord_steps", "fill")}}


def _continue(schedule, solve_level, interior):
    """Solve along a decreasing level schedule; returns the a_min proxy.

    ``solve_level(a, initial, factor)`` solves one level, warm-started
    from ``interior`` of the previous level's field and sharing one
    FactorSlot with every level.  The returned field records the Cauchy
    increments of u and v between consecutive levels and, under
    ``diagnostics["levels"]``, each level's a, residual norm, tolerance
    and counts; ``diagnostics["coarse"]`` gathers the levels' coarse
    solves (see solve_disc), which only a cold first level makes.
    """
    schedule = tuple(schedule) if schedule is not None else geometric_schedule()
    if len(schedule) == 0 or any(s <= 0 for s in schedule) or \
            any(schedule[i + 1] >= schedule[i] for i in range(len(schedule) - 1)):
        raise ValueError("schedule must be a decreasing positive sequence")
    factor = FactorSlot()
    fld = None
    prev = None
    increments_u, increments_v, levels, coarse = [], [], [], []
    for a_k in schedule:
        try:
            nxt = solve_level(a_k, prev, factor)
        except SolverDiverged as exc:
            raise ContinuationFailed(f"continuation step failed at a={a_k}",
                                     a=a_k, residual=exc.data.get("residual")) from exc
        if fld is not None:
            increments_u.append(float(np.max(np.abs(nxt.u - fld.u))))
            increments_v.append(float(np.max(np.abs(nxt.v - fld.v))))
        levels.append(level_record(nxt))
        coarse.extend(nxt.diagnostics.get("coarse", ()))
        fld = nxt
        prev = interior(fld)
    fld.is_limit = True
    fld.cauchy_increments = tuple(increments_v)
    fld.diagnostics["cauchy_u"] = tuple(increments_u)
    fld.diagnostics["cauchy_v"] = tuple(increments_v)
    fld.diagnostics["schedule"] = tuple(float(s) for s in schedule)
    fld.diagnostics["levels"] = tuple(levels)
    fld.diagnostics["coarse"] = tuple(coarse)
    return fld


# ---------------------------------------------------------------------------
# disc solver

def _cold_start(grid, boundary, a):
    """Initial iterate of a cold disc solve, and the coarse solves behind it.

    When the grid halves exactly (N even, M a multiple of 8, both halves
    at least 16), the same data at the same level are solved on the
    (N/2, M/2) grid, itself cold, with the default tolerance and its own
    FactorSlot; the start is the harmonic extension H plus the prolonged
    coarse correction f_2h - H_2h.  Otherwise, or when the coarse solve
    raises SolverDiverged, the start is H.  Returns the start and the
    coarse solves' level records with their (n_x, n_y), coarsest first.
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


def solve_disc(boundary, a, domain=None, initial=None, tol=None, factor=None):
    """Solve the disc problem at level a != 0 with Dirichlet potential data.

    ``initial`` is the interior iterate to start from.  Without it the
    solve is cold and grid-sequenced as ``_cold_start`` describes, and
    ``diagnostics["coarse"]`` lists the coarse solves, () when there were
    none.  They finish, and drop their factors, before the fine Newton
    starts.

    ``tol`` is the residual tolerance; None applies the round-off rule of
    ``_newton``.  ``factor`` is a FactorSlot whose LU factor Newton may
    reuse and replaces; a continuation passes the same slot to every level.
    """
    if a == 0.0:
        raise ValueError("level a = 0 is reached through solve_disc_limit")
    a = abs(float(a))  # solutions at a and -a coincide
    domain = domain or DomainSpec.disc()
    grid = disc_grid(domain.n_x, domain.n_y)
    phi = boundary.sample(grid.theta)
    f0, coarse = (initial, ()) if initial is not None else _cold_start(grid, boundary, a)
    f_sol, norm, iters, diag = _newton(
        f0, lambda f_int: grid.residual(f_int, phi, a),
        lambda f_int: grid.jacobian(f_int, phi, a), tol=tol, factor=factor)
    u, v, u_c, v_c, f_c = grid.extract_uv(f_sol, phi)
    f_full = np.vstack([f_sol, phi[None, :]])
    return SolutionField(
        "disc", domain, a, u, v, f=f_full, f_center=f_c, u_center=u_c, v_center=v_c,
        boundary={"circle": boundary}, converged=not diag["stagnated"], residual_norm=norm,
        diagnostics={"newton_iterations": iters, **diag, "coarse": coarse},
    )


def solve_disc_limit(boundary, domain=None, schedule=None, tol=None):
    """Continuation along a decreasing level schedule; returns the a_min proxy."""
    domain = domain or DomainSpec.disc()
    return _continue(
        schedule,
        lambda a_k, initial, factor: solve_disc(boundary, a_k, domain, initial=initial,
                                                tol=tol, factor=factor),
        lambda fld: fld.f[:-1])


# ---------------------------------------------------------------------------
# strip solver

def solve_strip(top, bottom, a, domain=None, initial=None, tol=None, factor=None):
    """Solve the strip problem at level a != 0 with edge data for v.

    ``tol`` and ``factor`` are as for solve_disc.
    """
    if a == 0.0:
        raise ValueError("level a = 0 is reached through solve_strip_limit")
    a = abs(float(a))
    scale = max(1.0, top.max_abs(), bottom.max_abs())
    if abs(top.constant - bottom.constant) > 1e-12 * scale:
        raise IncompatibleBoundary("edge data must have equal means",
                                   top_mean=top.constant, bottom_mean=bottom.constant)
    domain = domain or DomainSpec.strip()
    grid = strip_grid(domain.n_x, domain.n_y, domain.R, domain.P)
    top_v = top.sample_x(grid.x, domain.P)
    bot_v = bottom.sample_x(grid.x, domain.P)
    if initial is not None:
        v0 = initial
    else:
        # linear blend between the edges
        w = (grid.y[1:-1, None] + domain.R) / (2 * domain.R)
        v0 = bot_v[None, :] * (1 - w) + top_v[None, :] * w
    v_sol, norm, iters, diag = _newton(
        v0, lambda v_int: grid.residual(v_int, top_v, bot_v, a),
        lambda v_int: grid.jacobian(v_int, top_v, bot_v, a), tol=tol, factor=factor)
    v_full = np.vstack([bot_v, v_sol, top_v])
    fld = SolutionField(
        "periodic-strip", domain, a, np.zeros_like(v_full), v_full,
        boundary={"top": top, "bottom": bottom}, converged=not diag["stagnated"],
        residual_norm=norm, diagnostics={"newton_iterations": iters, **diag},
    )
    return reconstruct_u(fld)


def solve_strip_limit(top, bottom, domain=None, schedule=None, tol=None):
    """Continuation wrapper for the strip problem down to the a_min proxy."""
    domain = domain or DomainSpec.strip()
    return _continue(
        schedule,
        lambda a_k, initial, factor: solve_strip(top, bottom, a_k, domain, initial=initial,
                                                 tol=tol, factor=factor),
        lambda fld: fld.v[1:-1])


def reconstruct_u(field):
    """Rebuild u from v on a strip via u_x = v_y and the x = 0 column.

    u(0, y) comes from integrating u_y = -(1/2)(v^2+y^2+a^2)^(-1/2) v_x up
    the column x = 0 from the anchor u(0,0) = 0, then each row integrates
    u_x = v_y.  The periodic closure defect of every row is recorded; a
    defect above CLOSURE_DEFECT_TOL signals an unconverged v or
    incompatible data.
    """
    if field.kind != "periodic-strip":
        raise ValueError("reconstruct_u applies to strip fields")
    grid = strip_grid(field.domain.n_x, field.domain.n_y, field.domain.R, field.domain.P)
    v = field.v
    hx, hy, y = grid.hx, grid.hy, grid.y
    a = field.a
    vx = (np.roll(v, -1, axis=1) - np.roll(v, 1, axis=1)) / (2 * hx)
    vy = np.gradient(v, hy, axis=0, edge_order=2)

    defects = hx * vy.sum(axis=1)
    worst = float(np.max(np.abs(defects)))
    if worst > CLOSURE_DEFECT_TOL:
        raise MonodromyDefect("periodic closure of u failed", defect=worst)

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


def mean_flux(field, row):
    """Periodic trapezoid mean of v along a grid row of a strip field."""
    if field.kind != "periodic-strip":
        raise ValueError("mean_flux applies to strip fields")
    return float(np.mean(field.v[row]))


# ---------------------------------------------------------------------------
# field dump input/output

def save_field(field, path):
    """Write the dump: one JSON header line, then a CSV body.

    Disc rows: centre first, then rings inner to outer, angles ascending;
    columns x, y, f, u, v.  Strip rows: y ascending then x ascending;
    columns x, y, u, v.  The header also carries the Cauchy increments
    and the diagnostics.
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
    lines = [json.dumps(header, sort_keys=True)]
    if field.kind == "disc":
        lines.append("x,y,f,u,v")
        lines.append("0.0,0.0," + ",".join(
            repr(float(v)) for v in (field.f_center, field.u_center, field.v_center)))
        xg, yg, u, v = field.node_arrays()
        cols = (xg, yg, field.f, u, v)
    else:
        lines.append("x,y,u,v")
        xg, yg, u, v = field.node_arrays()
        cols = (xg, yg, u, v)
    flat = [np.asarray(c, float).ravel() for c in cols]
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
    """Rebuild a SolutionField from a dump written by save_field."""
    with open(path) as fh:
        header = json.loads(fh.readline())
        names = fh.readline().strip().split(",")
        body = np.loadtxt(fh, delimiter=",").reshape(-1, len(names))
    kind = header["kind"]
    boundary = {k: BoundarySpec.from_json(o) for k, o in header["boundary"].items()}
    diagnostics = _tuples(header.get("diagnostics", {}))
    common = dict(boundary=boundary, converged=header["converged"],
                  residual_norm=header["residual_norm"], is_limit=header["is_limit"],
                  cauchy_increments=tuple(header.get("cauchy_increments", ())),
                  diagnostics=diagnostics)
    if kind == "disc":
        domain = DomainSpec.disc(header["n_x"], header["n_y"])
        n, m = domain.n_x, domain.n_y
        f_c, u_c, v_c = body[0, 2], body[0, 3], body[0, 4]
        rows = body[1:]
        f = rows[:, 2].reshape(n, m)
        u = rows[:, 3].reshape(n, m)
        v = rows[:, 4].reshape(n, m)
        return SolutionField(kind, domain, header["a"], u, v, f=f, f_center=float(f_c),
                             u_center=float(u_c), v_center=float(v_c), **common)
    domain = DomainSpec.strip(header["n_x"], header["n_y"], header["R"], header["P"])
    u = body[:, 2].reshape(domain.n_y, domain.n_x)
    v = body[:, 3].reshape(domain.n_y, domain.n_x)
    return SolutionField(kind, domain, header["a"], u, v, **common)
