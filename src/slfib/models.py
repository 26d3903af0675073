"""Closed-form fibrations and the algebraic slice oracle.

The central object is the one-parameter family of special Lagrangian
3-folds

    N_a = { |z1|^2 - a = |z2|^2 + a = |z3|^2 + |a|,
            Im(z1 z2 z3) = 0,  Re(z1 z2 z3) >= 0 },

written in the invariant chart x = Re z3, y = Im(z1 z2) as a graph
(u, v) = (Im z3, Re(z1 z2)).  On N_a the pair (u, v) satisfies the
algebraic system

    v^2 + y^2 = (x^2 + u^2 + |a|)^2 - a^2,       u v = -x y,

with the sign pattern sign(v) = sign(x), sign(u) = -sign(y).  The oracle
solves this system to near machine precision and is used throughout the
test suite as an independent reference for the PDE solvers.

Also here: the quadratic torus fibration of C^3 with trivalent-graph
discriminant, and the two piecewise-smooth fibrations F, F' whose fibres
are translates of N_a (F) and of its image under z1 -> -z1 (F').
"""

from dataclasses import dataclass

import numpy as np

from .errors import OracleDiverged

_ORACLE_BISECT_STEPS = 90
_ORACLE_NEWTON_STEPS = 4
_ORACLE_TOL = 1e-13
_CIRCLE_QUADRATURE = 8192        # nodes of na_potential_circle's FFT quadrature
_CIRCLE_COEFF_FLOOR = 1e-13      # smaller potential coefficients are dropped


@dataclass(frozen=True)
class BaseCoordHL:
    """Image point of the quadratic torus fibration of C^3."""

    t1: float
    t2: float
    t3: float


@dataclass(frozen=True)
class BaseCoordF:
    """Base point (a, c) of the piecewise-smooth fibrations F and F'."""

    a: float
    c: complex


def hl_map(p):
    """Quadratic fibration (|z1|^2-|z2|^2, |z1|^2-|z3|^2, Im(z1 z2 z3))."""
    z1, z2, z3 = p.z1, p.z2, p.z3
    return BaseCoordHL(
        abs(z1) ** 2 - abs(z2) ** 2,
        abs(z1) ** 2 - abs(z3) ** 2,
        (z1 * z2 * z3).imag,
    )


def hl_discriminant_contains(b, tol):
    """Whether b lies within tol of the trivalent discriminant graph.

    The graph is the union of the three rays {(s,s,0)}, {(0,-s,0)},
    {(0,0,-s)} for s >= 0.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    t = np.array([b.t1, b.t2, b.t3], dtype=float)

    def dist_to_ray(direction):
        d = np.asarray(direction, dtype=float)
        d = d / np.linalg.norm(d)
        s = max(0.0, float(t @ d))
        return float(np.linalg.norm(t - s * d))

    return (
        dist_to_ray((1.0, 1.0, 0.0)) <= tol
        or dist_to_ray((0.0, -1.0, 0.0)) <= tol
        or dist_to_ray((0.0, 0.0, -1.0)) <= tol
    )


def u_slice(a, s):
    """Axis value u_a(0, s) = -s (|a| + sqrt(s^2 + a^2))^{-1/2}."""
    s = np.asarray(s, dtype=float)
    denom = np.sqrt(abs(a) + np.hypot(s, a))
    with np.errstate(invalid="ignore", divide="ignore"):
        out = np.where(denom > 0.0, -s / np.where(denom > 0.0, denom, 1.0), 0.0)
    return out if out.ndim else float(out)


def v_slice(a, s):
    """Axis value v_a(s, 0) = s (s^2 + 2|a|)^{1/2}."""
    return s * np.sqrt(s * s + 2.0 * abs(a))


def na_slice_formulas(a, s, which):
    """Closed-form axis slices of the graph functions.

    which="u" returns u_a(0, s); which="v" returns v_a(s, 0).
    """
    if which == "u":
        return float(u_slice(a, s))
    if which == "v":
        return float(v_slice(a, s))
    raise ValueError(f"unknown axis selector {which!r}")


def holo_disc_area(a):
    """Area 2*pi*|a| of the holomorphic disc bounded in the a-level fibre."""
    return 2.0 * np.pi * abs(a)


def na_oracle_grid(a, x, y):
    """Vectorised slice oracle over broadcastable coordinate arrays.

    Solves the slice system at every point; returns (u, v) arrays.

    Off the axes the system reduces, via u v = -x y, to one strictly
    monotone scalar equation in s = u^2:

        g(s) = (x^2 + s + |a|)^2 - a^2 - y^2 - x^2 y^2 / s = 0,

    which is bracketed by geometric growth and solved by bisection, then
    polished with a couple of damped Newton steps on the 2x2 system.  On
    the axes the closed forms are exact.
    """
    a = abs(float(a))  # the graph functions are even in a
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    x, y = np.broadcast_arrays(x, y)
    u = np.zeros(x.shape)
    v = np.zeros(x.shape)

    # Branch selection.  Near the x axis (|y| well under x^2 + 2a, which
    # sets the scale of u^2's validity) the closed slice form plus the
    # exact uv = -xy correction is accurate to O(y^2) and avoids pushing
    # the scalar reduction below floating-point range.  Products x*y that
    # underflow to zero are routed to the axis of the smaller coordinate.
    xy = x * y
    near_x = (y == 0.0) | (np.abs(y) <= 1e-8 * (x * x + 2 * a)) | \
        ((xy == 0.0) & (np.abs(x) >= np.abs(y)))
    near_y = ~near_x & ((x == 0.0) | (xy == 0.0))
    generic = ~(near_x | near_y)

    vx = v_slice(a, x[near_x])
    v[near_x] = vx
    with np.errstate(invalid="ignore", divide="ignore"):
        u[near_x] = np.where(vx != 0.0, -xy[near_x] / np.where(vx != 0.0, vx, 1.0), 0.0)
    uy = u_slice(a, y[near_y])
    u[near_y] = uy
    with np.errstate(invalid="ignore", divide="ignore"):
        v[near_y] = np.where(uy != 0.0, -xy[near_y] / np.where(uy != 0.0, uy, 1.0), 0.0)

    if np.any(generic):
        xg = x[generic]
        yg = y[generic]
        x2 = xg * xg
        y2 = yg * yg
        xyg = xg * yg

        def g(s):
            # xy * (xy / s), not x^2 y^2 / s: x^2 y^2 underflows to zero
            # for tiny points whose root s is still representable
            with np.errstate(over="ignore", divide="ignore"):
                q = x2 + s + a
                return q * q - a * a - y2 - xyg * (xyg / s)

        # g is strictly increasing with g -> -inf at 0+ and +inf at
        # infinity; bisect in log(s) so any root magnitude is resolved
        lo = np.full(xg.shape, 1e-320)
        hi = np.maximum(1.0, np.abs(u_slice(a, yg)) ** 2 * 4.0)
        for _ in range(200):
            bad = g(hi) < 0.0
            if not bad.any():
                break
            hi[bad] *= 4.0
        else:
            raise OracleDiverged("upper bracket growth exhausted")
        if np.any(g(lo) > 0.0):
            raise OracleDiverged("no sign change at the lower bracket end")

        wlo = np.log(lo)
        whi = np.log(hi)
        for _ in range(_ORACLE_BISECT_STEPS):
            wmid = 0.5 * (wlo + whi)
            neg = g(np.exp(wmid)) < 0.0
            wlo = np.where(neg, wmid, wlo)
            whi = np.where(neg, whi, wmid)
        s = np.exp(0.5 * (wlo + whi))

        ug = -np.sign(yg) * np.sqrt(s)
        vg = -xg * yg / ug

        # Newton polish on F = (v^2+y^2-(x^2+u^2+a)^2+a^2, uv+xy)
        for _ in range(_ORACLE_NEWTON_STEPS):
            q = x2 + ug * ug + a
            f1 = vg * vg + y2 - q * q + a * a
            f2 = ug * vg + xg * yg
            j11 = -4.0 * ug * q
            j12 = 2.0 * vg
            j21 = vg
            j22 = ug
            det = j11 * j22 - j12 * j21
            safe = np.abs(det) > 1e-300
            du = np.where(safe, (f1 * j22 - f2 * j12) / det, 0.0)
            dv = np.where(safe, (j11 * f2 - j21 * f1) / det, 0.0)
            # damp so the polish can never leave the sign quadrant
            du = np.clip(du, -0.5 * np.abs(ug), 0.5 * np.abs(ug))
            dv = np.clip(dv, -0.5 * np.abs(vg), 0.5 * np.abs(vg))
            ug = ug - du
            vg = vg - dv

        q = x2 + ug * ug + a
        res = np.maximum(
            np.abs(vg * vg + y2 - q * q + a * a),
            np.abs(ug * vg + xg * yg),
        )
        scale = np.maximum(1.0, q * q)
        if np.any(res > 1e-9 * scale):
            raise OracleDiverged(
                "oracle residual above tolerance",
                worst=float(np.max(res / scale)),
            )
        u[generic] = ug
        v[generic] = vg

    return u, v


def na_oracle(a, x, y):
    """Scalar slice oracle; returns the unique (u, v) at the point (x, y)."""
    u, v = na_oracle_grid(a, np.atleast_1d(float(x)), np.atleast_1d(float(y)))
    return float(u[0]), float(v[0])


class NaSlice:
    """Chartable analytic graph for a translate of the a-level fibre.

    ``negate=True`` gives the mirror family (fibres of F' rather than F):
    both graph functions change sign before the translation is applied.
    Exposes the same ``a`` / ``uv`` / ``contains`` surface as a solved
    field, so charts and tangent frames can be built on it directly.
    """

    def __init__(self, a, c=0j, negate=False):
        self.a = float(a)
        self.c = complex(c)
        self.negate = bool(negate)
        self.kind = "analytic"

    def uv(self, x, y):
        u, v = na_oracle_grid(self.a, np.asarray(x) - self.c.real, y)
        if self.negate:
            u, v = -u, -v
        return u + self.c.imag, v

    def contains(self, x, y):
        return np.isfinite(x) & np.isfinite(y)


def na_potential_circle(a):
    """Potential boundary data on the unit circle induced by the slice graph.

    The graph functions admit a potential with f_x = v and f_y = u, so on
    the circle f(theta) = integral of (-v sin + u cos) d tau.  The
    integrand is sampled, transformed, and integrated term by term; the
    result is a finite cosine series (the graph is even in x and the
    integrand is odd).  Returns a BoundarySpec for the disc solver.
    """
    from .elliptic import BoundarySpec

    n_quad = _CIRCLE_QUADRATURE
    tau = 2.0 * np.pi * np.arange(n_quad) / n_quad
    u, v = na_oracle_grid(a, np.cos(tau), np.sin(tau))
    g = -v * np.sin(tau) + u * np.cos(tau)
    spec = np.fft.rfft(g) / n_quad
    mean = abs(spec[0].real)
    if mean > 1e-10:
        raise OracleDiverged("circle potential is not single-valued", mean=mean)
    cos_coeffs = {}
    sin_coeffs = {}
    constant = 0.0
    for k in range(1, n_quad // 2):
        a_k = 2.0 * spec[k].real        # cos component of the integrand
        b_k = -2.0 * spec[k].imag       # sin component of the integrand
        c_cos = -b_k / k
        c_sin = a_k / k
        constant += b_k / k
        if abs(c_cos) >= _CIRCLE_COEFF_FLOOR:
            cos_coeffs[k] = c_cos
        if abs(c_sin) >= _CIRCLE_COEFF_FLOOR:
            sin_coeffs[k] = c_sin
    return BoundarySpec.make(constant, cos_coeffs, sin_coeffs)


def _f_base(p, sign):
    z1, z2, z3 = p.z1, p.z2, p.z3
    a = 0.5 * (abs(z1) ** 2 - abs(z2) ** 2)
    if a >= 0.0:
        if z1 == 0:
            # a >= 0 with z1 = 0 forces z2 = 0; fall through to the plain
            # z3 branch so the map stays total over float inputs
            b = z3
        else:
            b = z3 + sign * z1.conjugate() * z2.conjugate() / abs(z1)
    else:
        b = z3 + sign * z1.conjugate() * z2.conjugate() / abs(z2)
    return BaseCoordF(a, b)


def explicit_F(p):
    """Base coordinates of the first piecewise-smooth fibration."""
    return _f_base(p, -1.0)


def explicit_Fprime(p):
    """Base coordinates of the mirror fibration (z1 -> -z1 image)."""
    return _f_base(p, +1.0)
