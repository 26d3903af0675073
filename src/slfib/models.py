"""Closed-form fibrations and the algebraic slice oracle.

The central object is the one-parameter family of special Lagrangian
3-folds

    N_a = { |z1|^2 - a = |z2|^2 + a = |z3|^2 + |a|,
            Im(z1 z2 z3) = 0,  Re(z1 z2 z3) >= 0 },

written in the invariant chart x = Re z3, y = Im(z1 z2) as a graph
(u, v) = (Im z3, Re(z1 z2)).  On N_a the pair (u, v) satisfies the
algebraic system

    v^2 + y^2 = (x^2 + u^2 + |a|)^2 - a^2,       u v = -x y,

with the sign pattern sign(v) = sign(x), sign(u) = -sign(y).  With
A = x^2 + |a|, s = u^2 is a root of the cubic

    s^3 + 2 A s^2 + (A^2 - a^2 - y^2) s - x^2 y^2
        = (s + x^2) (s^2 + (x^2 + 2|a|) s - y^2),

so the system is solved in closed form by the positive root of the
quadratic factor (na_oracle_grid).  That oracle is used throughout the
test suite as an exact reference for the PDE solvers, and its exact
potential gives the disc data na_potential_circle.

Also here: the quadratic torus fibration of C^3 with trivalent-graph
discriminant, and the two piecewise-smooth fibrations F, F' whose fibres
are translates of N_a (F) and of its image under z1 -> -z1 (F').
"""

from dataclasses import dataclass

import numpy as np

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


def _b_and_root(a, x, y):
    """B = x^2 + 2|a| and sqrt(W), W = (B + sqrt(B^2 + 4 y^2)) / 2."""
    b = x * x + 2.0 * abs(float(a))
    return b, np.sqrt(0.5 * (b + np.hypot(b, 2.0 * y)))


def na_oracle_grid(a, x, y):
    """Vectorised slice oracle over broadcastable coordinate arrays.

    Returns N_a's graph functions (u, v) in closed form.  Eliminating
    v = -x y / u leaves the cubic (s + x^2) (s^2 + B s - y^2) = 0 in s = u^2,
    with B = x^2 + 2|a| (module docstring).  Its positive root is s = y^2 / W,
    W = (B + sqrt(B^2 + 4 y^2)) / 2 the positive root of W^2 - B W - y^2.
    So u = -y / sqrt(W) and v = x sqrt(W) (u = v = 0 where W = 0): both
    slice equations and the sign pattern hold identically, and nothing
    cancels.  Raises ValueError unless a, x and y are finite.
    """
    x, y = np.broadcast_arrays(np.asarray(x, dtype=float), np.asarray(y, dtype=float))
    if not (np.isfinite(a) and np.isfinite(x).all() and np.isfinite(y).all()):
        raise ValueError("the slice oracle needs finite a, x and y")
    _, root = _b_and_root(a, x, y)
    with np.errstate(invalid="ignore", divide="ignore"):
        u = np.where(root > 0.0, -y / root, 0.0)
    return u, x * root


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

    The graph functions are the gradient of the exact potential

        f = sqrt(W) (B - 2 W / 3),      f_x = v,  f_y = u,

    with B and W as in na_oracle_grid.  f is sampled on the circle,
    shifted so that f(theta = 0) = 0, and transformed; the result is a
    finite cosine series (f is even in x and in y), with coefficients
    below _CIRCLE_COEFF_FLOOR dropped.  Returns a BoundarySpec for the
    disc solver.
    """
    from .elliptic import BoundarySpec

    n_quad = _CIRCLE_QUADRATURE
    tau = 2.0 * np.pi * np.arange(n_quad) / n_quad
    b, root = _b_and_root(a, np.cos(tau), np.sin(tau))
    f = root * (b - 2.0 / 3.0 * root * root)
    spec = np.fft.rfft(f - f[0])[: n_quad // 2] / n_quad
    cos, sin = ({k: c[k] for k in np.flatnonzero(np.abs(c) >= _CIRCLE_COEFF_FLOOR) if k}
                for c in (2.0 * spec.real, -2.0 * spec.imag))
    return BoundarySpec.make(spec[0].real, cos, sin)


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
