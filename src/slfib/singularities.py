"""Detection and classification of singular points of graph fields.

A singular point of a level-zero field (u, v) is an axis point (b, 0)
with v(b, 0) = 0.  Against the reflected field u'(x,y) = u(x,-y),
v'(x,y) = -v(x,-y), every such point is a zero of (u,v) - (u',v'), and
its multiplicity is the winding number of that difference field on a
small circle around the point: a positive integer.  The type labels
record the sign of v(., 0) on either side:

    (-, +) increasing   (+, -) decreasing
    (-, -) maximum      (+, +) minimum

Increasing/decreasing types force odd multiplicity, maximum/minimum
types force even multiplicity.

The domain's shape comes from ``field.grid``, whose ``margin`` bounds
the winding circles and marks the disc's boundary zeros.
"""

from dataclasses import dataclass, asdict

import numpy as np

from ._splines import axis_spline
from .errors import (
    CircleHitsZero,
    NonisolatedSingularities,
    ProbeTooClose,
    WindingUnresolved,
)

TANGENTIAL_THRESHOLD = 1e-6
SAME_ZERO_TOL = 1e-7               # _sign_label: nearer zeros are the probed one
PROBE_SIGN_FLOOR = 1e-9
MIN_CIRCLE_NORM = 1e-7
WINDING_DEFECT = 0.1
MIN_CIRCLE_SAMPLES = 128
CIRCLE_MARGIN = 1e-9               # a winding circle stays this far inside the domain
MAX_CIRCLE_SAMPLES = 2**16

TYPES = ("increasing", "decreasing", "maximum", "minimum")


@dataclass
class SingularPointRecord:
    """One detected singular point of an axis field."""

    x_location: float
    type: str                           # one of TYPES, or None at the boundary
    multiplicity: int                   # positive integer; None when undefined
    winding_samples: int
    radius_used: float
    boundary: bool = False

    def to_json(self):
        d = asdict(self)
        if self.boundary:
            d["multiplicity"] = "undefined-at-boundary"
        return d

    def parity_ok(self):
        if self.multiplicity is None or self.type is None:
            return True
        if self.type in ("increasing", "decreasing"):
            return self.multiplicity % 2 == 1
        return self.multiplicity % 2 == 0


def _axis_spline(field):
    """The cubic spline of v(., 0) and its knots, kept in the field's interpolant cache."""
    if "axis" not in field._interp:
        xs, vs = field.grid.axis(field.v, field.v_center)
        field._interp["axis"] = axis_spline(xs, vs, field.kind == "periodic-strip"), xs
    return field._interp["axis"]


def _axis_gap(field, x, z):
    """The distance from x to z along the axis, around the period on the strip."""
    gap = abs(z - x)
    return min(gap, field.domain.P - gap) if field.kind == "periodic-strip" else gap


def detect_axis_zeros(field):
    """Locate the zeros of the cubic-interpolated v(., 0).

    The axis spline is piecewise cubic, so its zeros are the exact roots
    of its pieces.  Tangential zeros (no sign change) are its critical
    points with |v| below TANGENTIAL_THRESHOLD.  Zeros closer together
    than twice the median axis spacing merge into a single location (a
    fused even-multiplicity point seen at finite level-proxy accuracy);
    |v| < TANGENTIAL_THRESHOLD on a longer stretch is nonisolated.
    Returns (interior, boundary): the sorted interior locations and the
    sorted boundary zeros, x = -1 or 1 (disc only; empty on the strip).
    """
    if not field.is_limit:
        raise ValueError("axis zero detection expects a singular-level field")

    spline, xs = _axis_spline(field)
    lo, hi = float(xs[0]), float(xs[-1])
    cluster_tol = 2.0 * float(np.median(np.diff(xs)))
    # solve reports NaN for a piece that vanishes identically
    roots, up, down, critical = (r[~np.isnan(r)] for r in (
        *spline.solve([0.0, TANGENTIAL_THRESHOLD, -TANGENTIAL_THRESHOLD]),
        spline.derivative().solve([0.0])[0]))
    # |v| stays on one side of the threshold between consecutive crossings
    cuts = np.unique(np.concatenate([[lo, hi], up, down]))
    below = np.abs(spline(0.5 * (cuts[:-1] + cuts[1:]))) < TANGENTIAL_THRESHOLD
    if np.any(below & (np.diff(cuts) > cluster_tol)):
        raise NonisolatedSingularities("v below threshold along a stretch of the axis")

    zeros = list(roots)
    for x0 in critical[np.abs(spline(critical)) < TANGENTIAL_THRESHOLD]:
        if all(abs(x0 - z) > cluster_tol for z in zeros):
            zeros.append(x0)

    zeros.sort()
    merged = []
    for z in zeros:
        if merged and z - merged[-1][-1] <= cluster_tol:
            merged[-1].append(z)
        else:
            merged.append([z])
    if field.kind == "periodic-strip" and len(merged) > 1:
        # wrap-around cluster across the period seam
        period = field.domain.P
        if (merged[0][0] - lo) + (hi - merged[-1][-1]) <= cluster_tol:
            first = merged.pop(0)
            merged[-1].extend([z + period for z in first])
    locations = [float(np.mean(group)) for group in merged]

    boundary_zeros = []
    if field.kind == "disc":
        edge = max(cluster_tol, 1e-6)
        boundary_zeros = [float(np.sign(z)) for z in locations if field.grid.margin(z, 0.0) < edge]
        locations = [z for z in locations if field.grid.margin(z, 0.0) >= edge]
        for xb in (-1.0, 1.0):
            if abs(float(spline(xb))) < TANGENTIAL_THRESHOLD and xb not in boundary_zeros:
                boundary_zeros.append(xb)
        boundary_zeros.sort()
    else:
        locations = [z % field.domain.P for z in locations]
        locations.sort()

    return locations, boundary_zeros


def _sign_label(field, spline, xs, x_location, zeros):
    """Sign-pattern label of v(., 0) on the two sides of the isolated zero x_location.

    The probes sit halfway to the nearest other zero or to the end of the
    axis segment (a quarter period on the strip).
    """
    edge_gap = (field.domain.P / 4.0 if field.kind == "periodic-strip"
                else min(x_location - xs[0], xs[-1] - x_location))
    probe_eps = 0.5 * min([_axis_gap(field, x_location, z) for z in zeros
                           if abs(z - x_location) > SAME_ZERO_TOL] + [edge_gap])
    # the probes stay on the disc's axis; the strip's spline wraps them into the period
    left = float(spline(x_location - probe_eps))
    right = float(spline(x_location + probe_eps))
    if min(abs(left), abs(right)) < PROBE_SIGN_FLOOR:
        raise ProbeTooClose("cannot read a sign at the probe points",
                            left=left, right=right, eps=probe_eps)
    if left < 0 and right > 0:
        return "increasing"
    if left > 0 and right < 0:
        return "decreasing"
    if left < 0 and right < 0:
        return "maximum"
    return "minimum"


def _angle_steps(du, dv):
    """Wrapped angle increments of (du, dv) around a closed loop of samples."""
    ang = np.arctan2(dv, du)
    inc = np.roll(ang, -1) - ang
    return (inc + np.pi) % (2.0 * np.pi) - np.pi


def _difference_on_circle(field, x0, radius, m):
    phis = np.linspace(0.0, 2.0 * np.pi, m, endpoint=False)
    cx = x0 + radius * np.cos(phis)
    cy = radius * np.sin(phis)
    # the circle and its reflection in one evaluation
    u, v = field.uv(np.concatenate([cx, cx]), np.concatenate([cy, -cy]))
    return u[:m] - u[m:], v[:m] + v[m:]


def winding_multiplicity(field, x_location, radius):
    """Winding number of the reflected-difference field about an axis zero.

    Samples the difference field on the circle, accumulates wrapped angle
    increments and divides by 2 pi.  The sample count doubles (from
    MIN_CIRCLE_SAMPLES up to MAX_CIRCLE_SAMPLES) and the radius shrinks
    when samples come too close to zero, the total fails to settle on an
    integer or the circle is not CIRCLE_MARGIN inside ``field.grid``'s domain.
    """
    rad = float(radius)
    for shrink in range(6):
        if not 0 < rad < field.grid.margin(x_location, 0.0) - CIRCLE_MARGIN:
            rad *= 0.6
            continue
        m = MIN_CIRCLE_SAMPLES
        while m <= MAX_CIRCLE_SAMPLES:
            du, dv = _difference_on_circle(field, x_location, rad, m)
            norms = np.hypot(du, dv)
            if norms.min() <= MIN_CIRCLE_NORM:
                break  # shrink the radius
            inc = _angle_steps(du, dv)
            if np.max(np.abs(inc)) > 0.75 * np.pi:
                m *= 2  # a step this large cannot be trusted
                continue
            total = float(inc.sum() / (2.0 * np.pi))
            nearest = round(total)
            if abs(total - nearest) < WINDING_DEFECT:
                return int(nearest), m, rad
            m *= 2
        rad *= 0.6
    du, dv = _difference_on_circle(field, x_location, rad, MIN_CIRCLE_SAMPLES)
    if np.hypot(du, dv).min() <= MIN_CIRCLE_NORM:
        raise CircleHitsZero("difference field vanishes on every tried circle",
                             x=x_location, radius=rad)
    raise WindingUnresolved("angle accumulation did not settle", x=x_location,
                            radius=rad)


def bound_check(records, l):
    """Total multiplicity bound: sum of interior multiplicities <= l - 1."""
    if l < 1:
        raise ValueError("l must be at least 1")
    total = sum(r.multiplicity for r in records
                if not r.boundary and r.multiplicity is not None)
    return total <= l - 1


def boundary_extrema_count(spec):
    """Number of local maxima of phi - phi' on the unit circle.

    phi is the disc potential data ``spec`` and phi' the data of the
    reflected field, phi'(theta) = -phi(-theta), so phi - phi' keeps the
    constant and cosine parts doubled and drops the sine part.
    """
    thetas = np.linspace(0.0, 2.0 * np.pi, 8192, endpoint=False)
    g = 2.0 * (spec.constant + sum(c * np.cos(k * thetas) for k, c in spec.cos_coeffs))
    g = np.asarray(g, float)
    if np.max(np.abs(g)) == 0.0:
        return 0
    left = np.roll(g, 1)
    right = np.roll(g, -1)
    return int(np.sum((g > left) & (g >= right)))


def analyze_field(field):
    """Full singularity report: records, the l value and the bound verdict.

    l is the boundary extrema count of a disc field's circle data; a strip
    field has none, so its l is None and its report has no bound verdict.
    """
    interior, boundary = detect_axis_zeros(field)
    spline, xs = _axis_spline(field)
    records = []
    scale = 1.0 if field.kind == "disc" else field.domain.P / (2.0 * np.pi)
    for z in interior:
        gaps = [_axis_gap(field, z, w) for w in interior + boundary if w != z]
        radius = min(0.45 * min(gaps + [field.grid.margin(z, 0.0)]), 0.3 * scale)
        radius = max(radius, 4.0 * field.grid.cell())
        label = _sign_label(field, spline, xs, z, interior)
        mult, samples, rad = winding_multiplicity(field, z, radius)
        records.append(SingularPointRecord(z, label, mult, samples, rad))
    for xb in boundary:
        records.append(SingularPointRecord(float(xb), None, None, 0, 0.0, boundary=True))
    circle = (field.boundary or {}).get("circle")
    l = boundary_extrema_count(circle) if circle is not None else None
    report = {"records": records, "l": l, "parity_ok": all(r.parity_ok() for r in records)}
    if l is not None:
        report["bound_ok"] = bound_check(records, l)
    return report
