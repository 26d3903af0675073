"""Flat Calabi-Yau structure on C^3 and special Lagrangian residuals.

C^3 carries the flat Kaehler form w' = sum_k dx_k ^ dy_k and the
holomorphic volume form O' = dz1 ^ dz2 ^ dz3.  A real 3-dimensional
submanifold is special Lagrangian exactly when both w' and Im O' vanish
on its tangent planes, so the two residuals below measure the failure of
that condition on a sampled tangent frame.

For U(1)-invariant graphs the chart (x, y, phase) with moment level a
parametrises points of C^3 via

    z1 z2 = v(x,y) + i y,   z3 = x + i u(x,y),   |z1|^2 - |z2|^2 = 2a,

and tangent frames are produced by central differences of that
parametrisation.
"""

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateFrame, OutOfDomain

FD_STEP = 1e-4
SINGULAR_EXCLUSION_FACTOR = 4.0  # frames are skipped within 4h of a cone point
EXCLUDE_RADIUS_CELLS = 1.0       # field_equation_residual's exclusion radius, in cells
SINGULAR_V_THRESHOLD = 1e-6      # |v| below this marks an axis node as singular
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
    m = v * v + chart.y * chart.y
    if a >= 0.0:
        r2 = a + np.sqrt(a * a + m)
    else:
        # conjugate form: stable where the positive root nearly cancels
        r2 = m / (abs(a) + np.sqrt(a * a + m)) if m > 0.0 else 0.0
    if r2 > 0.0:
        z1 = np.sqrt(r2) * np.exp(1j * chart.phase)
        z2 = w / z1
    elif a < 0.0:
        z1 = 0.0 + 0.0j
        z2 = np.sqrt(-2.0 * a) * np.exp(-1j * chart.phase)
    else:
        z1 = 0.0 + 0.0j
        z2 = 0.0 + 0.0j
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


def field_equation_residual(field):
    """Max interior residual of the two first-order graph equations.

    The equations are u_x = v_y and v_x = -2 sqrt(v^2 + y^2 + a^2) u_y,
    evaluated with second-order central differences on the field's grid.
    At level a = 0, nodes within EXCLUDE_RADIUS_CELLS grid cells of an
    axis point with |v| below SINGULAR_V_THRESHOLD are excluded, since
    the graph functions need not be differentiable there.  On disc grids the
    two rings nearest the pole and the ring adjacent to the boundary are
    also excluded: the derived grids switch stencils there and the
    crossover rings carry first-order artefacts rather than field error.
    """
    xg, yg, u, v = field.node_arrays()
    a = field.a
    if field.kind == "disc":
        ux, uy = field.cartesian_gradient(u)
        vx, vy = field.cartesian_gradient(v)
    else:
        dx = xg[0, 1] - xg[0, 0]
        dy = yg[1, 0] - yg[0, 0]
        ux = (np.roll(u, -1, axis=1) - np.roll(u, 1, axis=1)) / (2 * dx)
        vx = (np.roll(v, -1, axis=1) - np.roll(v, 1, axis=1)) / (2 * dx)
        uy = np.gradient(u, dy, axis=0, edge_order=2)
        vy = np.gradient(v, dy, axis=0, edge_order=2)

    r1 = np.abs(ux - vy)
    r2 = np.abs(vx + 2.0 * np.sqrt(v * v + yg * yg + a * a) * uy)
    mask = field.interior_mask()
    if field.kind == "disc":
        mask[:2, :] = False
        mask[-2:, :] = False

    if abs(a) < 1e-12:
        cell = field.cell_scale()
        radius = EXCLUDE_RADIUS_CELLS * cell
        singular = (np.abs(v) < SINGULAR_V_THRESHOLD) & (np.abs(yg) <= radius)
        for sx, sy in zip(xg[singular], yg[singular]):
            dist = np.hypot(xg - sx, yg - sy)
            mask = mask & (dist > radius)

    if not mask.any():
        return 0.0
    return float(max(r1[mask].max(), r2[mask].max()))
