"""Flat Calabi-Yau structure on C^3 and special Lagrangian residuals.

C^3 carries the flat Kaehler form w' = sum_k dx_k ^ dy_k and the
holomorphic volume form O' = dz1 ^ dz2 ^ dz3.  A real 3-dimensional
submanifold is special Lagrangian exactly when both w' and Im O' vanish
on its tangent planes, so the two residuals below measure the failure of
that condition on a sampled tangent frame.  ``sl_defect`` takes their
worst over random frames; it is the lab's one check of the condition,
for the algebraic models and for solved fields alike.

For U(1)-invariant graphs the chart (x, y, phase) with moment level a
parametrises points of C^3 via

    z1 z2 = v(x,y) + i y,   z3 = x + i u(x,y),   |z1|^2 - |z2|^2 = 2a,

and tangent frames are produced by central differences of that
parametrisation.
"""

import itertools
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateFrame, OutOfDomain

FD_STEP = 1e-4
SINGULAR_EXCLUSION_FACTOR = 4.0  # frames are skipped within 4h of a cone point
# sl_defect gives up after this many draws per requested frame; for
# extent >= 0.02 the cone-point exclusion takes at most about 2% of draws
SL_DRAWS_PER_FRAME = 100
_GRAM_TOL = 1e-12


@dataclass(frozen=True)
class ComplexPoint3:
    """A point of C^3."""

    z1: complex
    z2: complex
    z3: complex

    def __post_init__(self):
        for z in (self.z1, self.z2, self.z3):
            if not (np.isfinite(z.real) and np.isfinite(z.imag)):
                raise ValueError("non-finite component in ComplexPoint3")

    def as_array(self):
        return np.array([self.z1, self.z2, self.z3], dtype=complex)


@dataclass(frozen=True)
class TangentFrame:
    """Three real tangent vectors at a base point, as complex triples."""

    base: ComplexPoint3
    e1: tuple
    e2: tuple
    e3: tuple

    def vectors(self):
        return np.array([self.e1, self.e2, self.e3], dtype=complex)


@dataclass(frozen=True)
class FiberChartPoint:
    """Invariant chart coordinates (x, y, phase) at moment level a."""

    x: float
    y: float
    phase: float
    a: float


def _check_frame(vecs):
    # real Gram determinant, normalised by the vector lengths
    gram = np.real(vecs @ vecs.conj().T)
    norms = np.sqrt(np.diag(gram))
    if np.any(norms == 0.0):
        raise DegenerateFrame("zero vector in frame")
    det = np.linalg.det(gram / np.outer(norms, norms))
    if det <= _GRAM_TOL:
        raise DegenerateFrame("frame vectors are linearly dependent", gram_det=float(det))
    return norms


def omega_residual(frame):
    """Max over vector pairs of |w'(e_i, e_j)| / (|e_i| |e_j|).

    w'(e, f) = Im <e, f> for the Hermitian pairing on C^3, so the value is
    0 exactly on Lagrangian planes and 1 for a complex-line pair (e, ie).
    """
    vecs = frame.vectors()
    norms = _check_frame(vecs)
    worst = 0.0
    for i in range(3):
        for j in range(i + 1, 3):
            w = np.imag(np.vdot(vecs[i], vecs[j]))
            worst = max(worst, abs(w) / (norms[i] * norms[j]))
    return float(worst)


def imomega_residual(frame):
    """|Im(dz1^dz2^dz3)(e1,e2,e3)| / (|e1| |e2| |e3|)."""
    vecs = frame.vectors()
    norms = _check_frame(vecs)
    det = np.linalg.det(vecs)
    return float(abs(det.imag) / np.prod(norms))


def fiber_points(field, chart):
    """Map a chart point to C^3 using the field's graph functions.

    Solves |z1|^2 = a + sqrt(a^2 + v^2 + y^2) and sets z2 = (v+iy)/z1, so
    |z1|^2 - |z2|^2 = 2a holds identically.  At the degenerate radius the
    point is the cone vertex when a = 0; for a < 0 the z2-circle point is
    returned with the opposite phase convention.
    """
    a = float(field.a)
    if abs(chart.a - a) > 1e-9 * max(1.0, abs(a)):
        raise ValueError("chart level does not match the field level")
    if not np.all(field.contains(chart.x, chart.y)):
        raise OutOfDomain("chart point outside the field domain",
                          x=chart.x, y=chart.y)
    u, v = field.uv(chart.x, chart.y)
    u = float(u)
    v = float(v)
    z3 = chart.x + 1j * u
    w = v + 1j * chart.y
    # |w| by hypot, never |w|^2: squaring a tiny |w| underflows to a
    # subnormal and loses most of its digits
    rho = float(np.hypot(v, chart.y))
    if a >= 0.0:
        r2 = a + np.hypot(a, rho)
        if r2 > 0.0:
            z1 = np.sqrt(r2) * np.exp(1j * chart.phase)
            z2 = w / z1
        else:
            z1 = 0.0 + 0.0j
            z2 = 0.0 + 0.0j
    else:
        # conjugate form |z1| = |w| / sqrt(s), |z2| = sqrt(s): stable where
        # the positive root nearly cancels, and z2 keeps full precision
        # when |z1| is subnormal.  w's direction comes from its angle: w / rho
        # is not of unit length when rho is subnormal
        s = abs(a) + np.hypot(a, rho)
        unit = np.exp(1j * np.arctan2(chart.y, v)) if rho > 0.0 else 1.0 + 0.0j
        z1 = rho / np.sqrt(s) * np.exp(1j * chart.phase)
        z2 = unit * np.sqrt(s) * np.exp(-1j * chart.phase)
    return ComplexPoint3(complex(z1), complex(z2), complex(z3))


def frame_from_chart(field, chart):
    """Tangent frame at a chart point by central differences in (x, y, phase).

    The step is FD_STEP in each coordinate.
    """
    h = FD_STEP

    def p(x, y, phase):
        pt = fiber_points(field, FiberChartPoint(x, y, phase, chart.a))
        return pt.as_array()

    x, y, ph = chart.x, chart.y, chart.phase
    ex = (p(x + h, y, ph) - p(x - h, y, ph)) / (2.0 * h)
    ey = (p(x, y + h, ph) - p(x, y - h, ph)) / (2.0 * h)
    ep = (p(x, y, ph + h) - p(x, y, ph - h)) / (2.0 * h)
    base = fiber_points(field, chart)
    return TangentFrame(base, tuple(ex), tuple(ey), tuple(ep))


def near_cone_point(field, x, y):
    """Whether (x, y) lies in the exclusion ball of a cone point.

    Cone points exist only at level a = 0, where the graph functions stop
    being differentiable; residual checks are skipped within a ball of
    radius 4h around them, h = FD_STEP.
    """
    if abs(field.a) > 1e-12:
        return False
    u, v = field.uv(x, y)
    rad = SINGULAR_EXCLUSION_FACTOR * FD_STEP
    return bool(np.hypot(float(v), y) < rad) and abs(y) < rad


def chart_points(field, rng, extent):
    """Endless chart points of the field's level, drawn from ``rng``.

    Each draws x, then y, uniform in [-extent, extent], then a phase
    uniform in [0, 2 pi).
    """
    while True:
        x = rng.uniform(-extent, extent)
        y = rng.uniform(-extent, extent)
        yield FiberChartPoint(x, y, rng.uniform(0.0, 2.0 * np.pi), field.a)


def sl_defect(field, frames, rng, extent):
    """(worst omega_residual, worst imomega_residual) over ``frames`` frames.

    The frames sit at chart_points outside the cone points' exclusion
    balls; after SL_DRAWS_PER_FRAME draws per frame a ValueError says how
    many were found.
    """
    worst_omega = worst_imomega = 0.0
    tried = 0
    draws = SL_DRAWS_PER_FRAME * frames
    for chart in itertools.islice(chart_points(field, rng, extent), draws):
        if near_cone_point(field, chart.x, chart.y):
            continue
        frame = frame_from_chart(field, chart)
        worst_omega = max(worst_omega, omega_residual(frame))
        worst_imomega = max(worst_imomega, imomega_residual(frame))
        tried += 1
        if tried == frames:
            break
    if tried < frames:
        raise ValueError(f"only {tried} of {frames} frames in {draws} draws: "
                         "the rest fell within the cone-point exclusion ball")
    return worst_omega, worst_imomega
