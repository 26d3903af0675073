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
"""

from dataclasses import dataclass, asdict

import numpy as np

from .errors import (
    CircleHitsZero,
    IdenticalFields,
    NonisolatedSingularities,
    ProbeTooClose,
    WindingUnresolved,
)

TANGENTIAL_THRESHOLD = 1e-6
ZERO_REFINE_TOL = 1e-8
PROBE_SIGN_FLOOR = 1e-9
MIN_CIRCLE_NORM = 1e-7
WINDING_DEFECT = 0.1
MIN_CIRCLE_SAMPLES = 128
MAX_CIRCLE_SAMPLES = 2**16
BILINEAR_REFINE_ITERS = 40

TYPES = ("increasing", "decreasing", "maximum", "minimum")


@dataclass
class SingularPointRecord:
    """One detected singular point of an axis field."""

    x_location: float
    type: str = None                    # one of TYPES, or None at the boundary
    multiplicity: int = None            # positive integer; None when undefined
    winding_samples: int = 0
    radius_used: float = 0.0
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
    # local: importing slfib should not load scipy.interpolate and scipy.optimize
    from scipy.interpolate import CubicSpline

    xs, us, vs = field.axis_samples()
    if field.kind == "periodic-strip":
        return CubicSpline(xs, vs, bc_type="periodic"), xs
    return CubicSpline(xs, vs), xs


def is_axis_degenerate(field):
    """Whether the boundary data force v to vanish along the whole axis.

    This happens exactly when the field coincides with its own reflection:
    pure-sine potential data on the disc, or strip edges with
    bottom = -top.  Such fields are singular along the axis and their
    singular points are nonisolated.
    """
    b = field.boundary or {}
    if field.kind == "disc" and "circle" in b:
        spec = b["circle"]
        return spec.constant == 0.0 and not spec.cos_coeffs
    if field.kind == "periodic-strip" and "top" in b and "bottom" in b:
        top, bot = b["top"], b["bottom"]
        return (bot.constant == -top.constant
                and bot.cos_coeffs == tuple((k, -c) for k, c in top.cos_coeffs)
                and bot.sin_coeffs == tuple((k, -c) for k, c in top.sin_coeffs))
    return False


def detect_axis_zeros(field, include_boundary=False):
    """Locate the zeros of the cubic-interpolated v(., 0).

    Sign changes are refined by bracketed root finding to 1e-8;
    tangential zeros (no sign change) are local minima of |v| below
    TANGENTIAL_THRESHOLD.  Zeros closer together than twice the median
    axis spacing merge into a single location (a fused even-multiplicity
    point seen at finite level-proxy accuracy).  Returns sorted interior
    locations; with ``include_boundary`` a second list of boundary zeros
    (disc only).
    """
    if not field.is_singular_level:
        raise ValueError("axis zero detection expects a singular-level field")
    if is_axis_degenerate(field):
        raise NonisolatedSingularities("field equals its own reflection")
    # local, like minimize_scalar below: only an analysis needs the root finder
    from scipy.optimize import brentq

    spline, xs = _axis_spline(field)
    lo, hi = float(xs[0]), float(xs[-1])
    dense = np.linspace(lo, hi, max(2048, 16 * len(xs)))
    vals = spline(dense)
    if np.max(np.abs(vals)) < TANGENTIAL_THRESHOLD:
        raise NonisolatedSingularities("v below threshold along the whole axis")
    cluster_tol = 2.0 * float(np.median(np.diff(xs)))

    zeros = []
    sign = np.sign(vals)
    # walk sign changes on the dense sample; refine each bracket
    nz = np.nonzero(sign)[0]
    for k in range(len(nz) - 1):
        i, j = nz[k], nz[k + 1]
        if sign[i] != sign[j]:
            zeros.append(brentq(spline, dense[i], dense[j], xtol=ZERO_REFINE_TOL))
    # tangential zeros: refine every local minimum of |v| and keep those
    # whose refined value drops under the threshold (a narrow dip can sit
    # entirely between dense samples, so the raw samples cannot be used
    # to pre-filter)
    from scipy.optimize import minimize_scalar

    periodic = field.kind == "periodic-strip"
    period = hi - lo
    mag = np.abs(vals)
    if periodic:
        # the scan wraps: a minimum sitting at the seam x = 0 is real
        m = mag[:-1]
        candidates = np.nonzero((m <= np.roll(m, 1)) & (m <= np.roll(m, -1)))[0]
    else:
        inner = np.arange(1, len(dense) - 1)
        candidates = inner[(mag[inner] <= mag[inner - 1]) & (mag[inner] <= mag[inner + 1])]

    def value_at(t):
        return abs(float(spline(lo + (t - lo) % period if periodic else t)))

    step = dense[1] - dense[0]
    for i in candidates:
        res = minimize_scalar(value_at, bounds=(dense[i] - step, dense[i] + step),
                              method="bounded",
                              options={"xatol": ZERO_REFINE_TOL / 10})
        if abs(float(res.fun)) < TANGENTIAL_THRESHOLD:
            x0 = float(res.x)
            if periodic:
                x0 = lo + (x0 - lo) % period
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
        locations, interior_locs = [], locations
        for z in interior_locs:
            if 1.0 - abs(z) < max(cluster_tol, 1e-6):
                boundary_zeros.append(float(np.sign(z)))
            else:
                locations.append(z)
        for xb in (-1.0, 1.0):
            if abs(float(spline(xb))) < TANGENTIAL_THRESHOLD and xb not in boundary_zeros:
                boundary_zeros.append(xb)
        boundary_zeros.sort()
    else:
        locations = [z % field.domain.P for z in locations]
        locations.sort()

    if include_boundary:
        return locations, boundary_zeros
    return locations


def classify_type(field, x_location):
    """Sign-pattern label of v(., 0) on the two sides of an isolated zero."""
    spline, xs = _axis_spline(field)
    return _sign_label(field, spline, xs, x_location, detect_axis_zeros(field))


def _sign_label(field, spline, xs, x_location, zeros):
    """The label of classify_type from the axis spline and the interior axis zeros.

    The probes sit halfway to the nearest other zero or to the end of the
    axis segment (a quarter period on the strip).
    """
    others = [z for z in zeros if abs(z - x_location) > 10 * ZERO_REFINE_TOL]
    if field.kind == "periodic-strip":
        period = field.domain.P
        gaps = [min(abs(z - x_location), period - abs(z - x_location)) for z in others]
        edge_gap = period / 4.0
    else:
        gaps = [abs(z - x_location) for z in others]
        edge_gap = min(x_location - xs[0], xs[-1] - x_location)
    probe_eps = 0.5 * min(gaps + [edge_gap])
    if field.kind == "periodic-strip":
        period = field.domain.P
        left = float(spline((x_location - probe_eps) % period))
        right = float(spline((x_location + probe_eps) % period))
    else:
        left = float(spline(max(x_location - probe_eps, xs[0])))
        right = float(spline(min(x_location + probe_eps, xs[-1])))
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
    """Wrapped angle increments of (du, dv) around closed loops along the last axis."""
    ang = np.arctan2(dv, du)
    inc = np.roll(ang, -1, axis=-1) - ang
    return (inc + np.pi) % (2.0 * np.pi) - np.pi


def _difference_on_circle(field, x0, radius, m):
    phis = np.linspace(0.0, 2.0 * np.pi, m, endpoint=False)
    cx = x0 + radius * np.cos(phis)
    cy = radius * np.sin(phis)
    u1, v1 = field.uv(cx, cy)
    u2, v2 = field.uv(cx, -cy)
    return u1 - u2, v1 + v2


def winding_multiplicity(field, x_location, radius):
    """Winding number of the reflected-difference field about an axis zero.

    Samples the difference field on the circle, accumulates wrapped angle
    increments and divides by 2 pi.  The sample count doubles (from
    MIN_CIRCLE_SAMPLES up to MAX_CIRCLE_SAMPLES) and the radius shrinks
    when samples come too close to zero or the total fails to settle on
    an integer.
    """
    rad = float(radius)
    for shrink in range(6):
        if not _circle_in_domain(field, x_location, rad):
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


def _circle_in_domain(field, x0, radius):
    if radius <= 0:
        return False
    if field.kind == "disc":
        return abs(x0) + radius < 1.0 - 1e-9
    return radius < field.domain.R - 1e-12


def count_zeros_between(field1, field2):
    """Count and locate zeros of the difference of two fields.

    Sweeps grid cells with a four-corner degree test on
    (u1 - u2, v1 - v2) and refines each hit by bisection on the bilinear
    model of the cell.  Returns (count, locations).
    """
    if field1.v.shape != field2.v.shape or field1.kind != field2.kind:
        raise ValueError("fields must share a grid")
    if abs(field1.a - field2.a) > 1e-12 * max(1.0, abs(field1.a)):
        raise ValueError("fields must share the level a")
    du = field1.u - field2.u
    dv = field1.v - field2.v
    if max(np.max(np.abs(du)), np.max(np.abs(dv))) < 1e-12:
        raise IdenticalFields("difference below round-off")
    xg, yg, _, _ = field1.node_arrays()

    def corners(arr):
        # cell (i, j) in cycle order (i, j), (i, j+1), (i+1, j+1), (i+1, j); both
        # grids wrap in their second index (theta or periodic x)
        right = np.roll(arr, -1, axis=1)
        return np.stack([arr[:-1], right[:-1], right[1:], arr[1:]], axis=-1)

    cu, cv = corners(du), corners(dv)
    # a strictly one-signed component rules the cell out
    one_signed = (np.all(cu > 0, axis=-1) | np.all(cu < 0, axis=-1)
                  | np.all(cv > 0, axis=-1) | np.all(cv < 0, axis=-1))
    winding = np.rint(_angle_steps(cu, cv).sum(axis=-1) / (2.0 * np.pi))
    hits = np.argwhere(~one_signed & (winding != 0))

    cx, cy = corners(xg), corners(yg)
    locations = []
    dedupe = 0.25 * field1.cell_scale()
    for i, j in hits:
        s, t = _bilinear_zero(cu[i, j], cv[i, j])
        loc = (float(_bilinear(cx[i, j], s, t)), float(_bilinear(cy[i, j], s, t)))
        # a zero on a shared cell edge registers in both cells: keep one
        if all(np.hypot(loc[0] - p[0], loc[1] - p[1]) > dedupe for p in locations):
            locations.append(loc)
    return len(locations), locations


def _bilinear(corners, s, t):
    c00, c10, c11, c01 = corners  # cycle order (0,0), (1,0), (1,1), (0,1)
    return (c00 * (1 - s) * (1 - t) + c10 * s * (1 - t)
            + c11 * s * t + c01 * (1 - s) * t)


def _bilinear_zero(cu, cv):
    """2-D bisection on the bilinear surrogate over the unit square."""
    s_lo, s_hi, t_lo, t_hi = 0.0, 1.0, 0.0, 1.0

    def deg(sl, sh, tl, th):
        ss = np.array([sl, sh, sh, sl])
        tt = np.array([tl, tl, th, th])
        inc = _angle_steps(_bilinear(cu, ss, tt), _bilinear(cv, ss, tt))
        return round(float(inc.sum() / (2.0 * np.pi)))

    for _ in range(BILINEAR_REFINE_ITERS):
        sm = 0.5 * (s_lo + s_hi)
        tm = 0.5 * (t_lo + t_hi)
        quads = [(s_lo, sm, t_lo, tm), (sm, s_hi, t_lo, tm),
                 (s_lo, sm, tm, t_hi), (sm, s_hi, tm, t_hi)]
        for q in quads:
            if deg(*q) != 0:
                s_lo, s_hi, t_lo, t_hi = q
                break
        else:
            break  # degree spread over sub-cells; return the centre
    return 0.5 * (s_lo + s_hi), 0.5 * (t_lo + t_hi)


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


def analyze_field(field, l=None):
    """Full singularity report: records, the l value and the bound verdict."""
    interior, boundary = detect_axis_zeros(field, include_boundary=True)
    spline, xs = _axis_spline(field)
    records = []
    scale = 1.0 if field.kind == "disc" else field.domain.P / (2.0 * np.pi)
    for z in interior:
        others = [w for w in interior if w != z] + [b for b in boundary]
        if field.kind == "disc":
            gaps = [abs(w - z) for w in others] + [1.0 - abs(z)]
        else:
            period = field.domain.P
            gaps = [min(abs(w - z), period - abs(w - z)) for w in others] + [field.domain.R]
        radius = min(0.45 * min(gaps), 0.3 * scale)
        radius = max(radius, 4.0 * field.cell_scale())
        label = _sign_label(field, spline, xs, z, interior)
        mult, samples, rad = winding_multiplicity(field, z, radius)
        records.append(SingularPointRecord(z, label, mult, samples, rad))
    for xb in boundary:
        records.append(SingularPointRecord(float(xb), None, None, 0, 0.0, boundary=True))
    report = {
        "records": records,
        "l": l,
        "parity_ok": all(r.parity_ok() for r in records),
    }
    if l is None and field.kind == "disc" and "circle" in (field.boundary or {}):
        report["l"] = boundary_extrema_count(field.boundary["circle"])
    if report["l"] is not None:
        report["bound_ok"] = bound_check(records, report["l"])
    return report
