"""Cubic splines: the axis spline of ``singularities`` and the field interpolant of ``elliptic``.

They reproduce SciPy's ``CubicSpline`` (not-a-knot or periodic, with
PPoly's root rules) and ``RectBivariateSpline(kx=3, ky=3, s=0).ev`` to
round-off without importing ``scipy.interpolate``, which loads
``scipy.optimize`` and ``scipy.special``.  Node slopes come from
``CubicSpline``'s own tridiagonal systems, solved by LAPACK's ``dgtsv``
as ``solve_banded((1, 1), ...)`` solves them, node axis last.  Every
node set has at least four nodes.
"""

import numpy as np
from scipy.linalg.lapack import dgtsv      # loaded with scipy.sparse.linalg already

ROOT_MARGIN = 1e-9    # relative: a root's residual is far smaller than its piece's size


def _tridiagonal(lower, diag, upper, rhs):
    """The solutions of the tridiagonal system for every right-hand side along rhs's last axis."""
    x, info = dgtsv(lower, diag, upper, rhs.reshape(-1, rhs.shape[-1]).T, overwrite_b=True)[3:]
    if info:
        raise np.linalg.LinAlgError("singular spline system")
    return x.T.reshape(rhs.shape)


def _not_a_knot_slopes(x, y):
    """Node slopes of the not-a-knot cubic splines through (x, y), nodes along y's last axis."""
    h = np.diff(x)
    slope = (y[..., 1:] - y[..., :-1]) / h
    d0, d1 = x[2] - x[0], x[-1] - x[-3]
    inner = h[1:] * slope[..., :-1]
    inner += h[:-1] * slope[..., 1:]
    first = ((h[0] + 2 * d0) * h[1] * slope[..., :1] + h[0] ** 2 * slope[..., 1:2]) / d0
    last = (h[-1] ** 2 * slope[..., -2:-1] + (2 * d1 + h[-1]) * h[-2] * slope[..., -1:]) / d1
    rhs = np.concatenate([first, 3 * inner, last], axis=-1)
    diag = np.concatenate([h[1:2], 2 * (h[:-1] + h[1:]), h[-2:-1]])
    return _tridiagonal(np.concatenate([h[1:], [d1]]), diag, np.concatenate([[d0], h[:-1]]), rhs)


def _periodic_slopes(x, y):
    """Node slopes of the periodic cubic spline through (x, y), y[0] == y[-1].

    The cyclic system of the n - 1 distinct nodes is condensed onto the
    tridiagonal one of the first n - 2: two solves, then the last slope.
    """
    h = np.diff(x)
    slope = np.diff(y) / h
    rhs = np.zeros((2, len(x) - 2))
    rhs[0, 1:] = 3 * (h[1:-1] * slope[:-2] + h[:-2] * slope[1:-1])
    rhs[0, 0] = 3 * (h[0] * slope[-1] + h[-1] * slope[0])
    rhs[1, 0], rhs[1, -1] = -h[0], -h[-3]
    diag = np.concatenate([[2 * (h[-1] + h[0])], 2 * (h[:-2] + h[1:-1])])
    s1, s2 = _tridiagonal(h[1:-1], diag, np.concatenate([h[-1:], h[:-3]]), rhs)
    last = ((3 * (h[-1] * slope[-2] + h[-2] * slope[-1]) - h[-2] * s1[0] - h[-1] * s1[-1])
            / (2 * (h[-1] + h[-2]) + h[-2] * s2[0] + h[-1] * s2[-1]))
    return np.concatenate([s1 + last * s2, [last, s1[0] + last * s2[0]]])


def _value(c, s):
    """sum c[k] s^(3-k), summed as PPoly sums it (lowest power first)."""
    return c[3] + c[2] * s + c[1] * (s * s) + c[0] * (s * s * s)


def _piece_roots(c, order, y):
    """The real roots in s of the pieces c[:, i] = y[i], as PPoly finds them.

    ``order`` is each piece's: that of its leading nonzero coefficient,
    -1 if there is none.  Returns (m, 3) roots, NaN-padded, before PPoly's
    Newton step, and the pieces that equal y throughout.  A cubic's roots
    are its companion matrix's real eigenvalues, sorted; a quadratic's
    come from the cancellation-free formula, in PPoly's order.
    """
    a = c[3] - y
    out = np.full((a.size, 3), np.nan)
    for k in set(order.tolist()) - {-1, 0}:
        i = order == k
        if k == 1:
            out[i, 0] = -a[i] / c[2, i]
        elif k == 2:
            a0, a1, a2 = c[1, i], c[2, i], a[i]
            d = a1 * a1 - 4 * a0 * a2
            real = d >= 0
            d = np.sqrt(np.where(real, d, 0.0))
            with np.errstate(divide="ignore", invalid="ignore"):
                near = np.where(a1 < 0, (2 * a2) / (-a1 + d), (-a1 - d) / (2 * a0))
                far = np.where(a1 < 0, (-a1 + d) / (2 * a0), (2 * a2) / (-a1 - d))
            double = d == 0
            near[double] = far[double] = -a1[double] / (2 * a0[double])
            out[i, :2] = np.where(real[:, None], np.column_stack([near, far]), np.nan)
        else:
            comp = np.zeros((np.count_nonzero(i), 3, 3))
            comp[:, 1, 0] = comp[:, 2, 1] = 1.0
            comp[:, :, 2] = -np.stack([a[i], c[2, i], c[1, i]], axis=1) / c[0, i, None]
            w = np.linalg.eigvals(comp)
            w = np.take_along_axis(w, np.argsort(w.real, axis=1, kind="stable"), axis=1)
            out[i] = np.where(w.imag == 0, w.real, np.nan)
    return out, (order <= 0) & (a == 0)


class PiecewiseCubic:
    """Pieces c (4, n - 1) on knots x in SciPy PPoly's power form, highest power first.

    Evaluation extrapolates with the end pieces, or, with a period, wraps
    into [x[0], x[-1]] first: CubicSpline's not-a-knot and periodic
    rules.  Roots never extrapolate.
    """

    def __init__(self, x, c, period):
        self.x, self.c, self.period = x, c, period
        h = np.diff(x)
        nonzero = c != 0
        self._order = np.where(nonzero.any(axis=0), 3 - nonzero.argmax(axis=0), -1)
        # a piece's values lie between its least and greatest Bernstein coefficient
        bernstein = np.stack([c[3], c[3] + c[2] * h / 3,
                              c[3] + (2 * c[2] * h + c[1] * h * h) / 3, _value(c, h)])
        self._ends = bernstein[3, :-1]
        self._lo, self._hi = bernstein.min(axis=0), bernstein.max(axis=0)
        self._margin = ROOT_MARGIN * np.abs(bernstein).max(axis=0)

    def __call__(self, t):
        x = self.x
        t = np.asarray(t, float)
        if self.period:
            t = x[0] + (t - x[0]) % self.period
        i = x[1:-1].searchsorted(t, "right")
        return _value(self.c[:, i], t - x[i])

    def derivative(self):
        """The derivative's pieces, as ``PPoly.derivative()`` computes them."""
        c = self.c
        d = np.stack([np.zeros_like(c[0]), c[0] * 3.0, c[1] * 2.0, c[2]])
        return PiecewiseCubic(self.x, d, self.period)

    def solve(self, levels):
        """For each level y, the x where the pieces equal y: ``PPoly.solve(y, extrapolate=False)``.

        Each root is refined by one Newton step and kept if it lies on its
        piece's closed interval.  A root equal to the one reported just
        before it is dropped, so a root on a knot is reported once.  A
        sign change across a knot reports the knot, and a piece that
        equals y throughout reports its start, then NaN.  A piece is
        searched only if y lies between its Bernstein coefficients, up to
        ROOT_MARGIN of their size.
        """
        x, c = self.x, self.c
        ys = np.asarray(levels, float)[:, None]
        margin = self._margin + ROOT_MARGIN * np.abs(ys)
        lev, pieces = np.nonzero((self._lo - ys <= margin) & (self._hi - ys >= -margin))
        y = ys[lev]
        s, identical = _piece_roots(c[:, pieces], self._order[pieces], y[:, 0])
        cp = c[:, pieces, None]
        f = _value(cp, s) - y
        df = cp[2] + cp[1] * s * 2.0 + cp[0] * (s * s) * 3.0
        with np.errstate(divide="ignore", invalid="ignore"):
            step = f / df
        s = np.where((df != 0) & (np.abs(step) < np.abs(s)), s - step, s)
        r = s + x[pieces, None]
        ok = (r >= x[pieces, None]) & (r <= x[pieces + 1, None])
        # each report's key orders it by level, piece and slot within the piece
        stride = 4 * x.size
        base = stride * lev + 4 * pieces
        ends, starts = self._ends - ys, c[3, 1:] - ys
        jl, jp = np.nonzero((ends < 0) & (starts > 0) | (ends > 0) & (starts < 0))
        zero = base[identical]
        keys = np.concatenate([(base[:, None] + np.arange(1, 4))[ok], stride * jl + 4 * (jp + 1),
                               zero + 1, zero + 2])
        values = np.concatenate([r[ok], x[jp + 1], x[pieces[identical]],
                                 np.full(zero.size, np.nan)])
        order = np.argsort(keys, kind="stable")
        keys, values = keys[order], values[order]
        level = keys // stride
        # a report equal to the one before is dropped, but a vanishing piece reports its start
        kept = np.ones(values.size, bool)
        kept[1:] = (values[1:] != values[:-1]) | (level[1:] != level[:-1])
        if zero.size:
            kept |= np.isin(keys, zero + 1)
        return np.split(values[kept], level[kept].searchsorted(np.arange(1, ys.size)))


def axis_spline(x, y, periodic):
    """``CubicSpline(x, y, bc_type="periodic" if periodic else "not-a-knot")``."""
    x, y = np.asarray(x, float), np.asarray(y, float)
    if not np.isfinite(y).all():
        raise ValueError("the axis values must be finite")
    d = _periodic_slopes(x, y) if periodic else _not_a_knot_slopes(x, y)
    # CubicHermiteSpline's pieces through the values and slopes
    h = np.diff(x)
    secant = np.diff(y) / h
    t = (d[:-1] + d[1:] - 2 * secant) / h
    c = np.stack([t / h, (secant - d[:-1]) / h - t, d[:-1], y[:-1]])
    return PiecewiseCubic(x, c, x[-1] - x[0] if periodic else None)


class Bicubic:
    """``RectBivariateSpline(rows, cols, w, kx=3, ky=3, s=0)``'s ``ev``.

    FITPACK's interpolating bicubic is the tensor product of not-a-knot
    cubic splines, so on each cell it is the bicubic Hermite patch of
    the corners' values w, column slopes w_c, row slopes w_r and cross
    slopes w_rc: one solve along the rows for every column gives w_r,
    one along the columns the column slopes of w and of w_r.  ``nodal``
    holds (w, w_c, w_r, w_rc) node by node, rows first.  Arguments
    outside the grid's range are clamped to it, as FITPACK clamps them.
    """

    def __init__(self, rows, cols, w):
        self.rows, self.cols = rows, cols
        self._widths = np.diff(rows), np.diff(cols)
        values = np.stack([w, _not_a_knot_slopes(rows, w.T).T])
        (w_c, w_rc), (w, w_r) = _not_a_knot_slopes(cols, values), values
        self.nodal = np.stack([w, w_c, w_r, w_rc]).reshape(4, -1)
        self._corners = np.array([0, 1, cols.size, cols.size + 1])[:, None]

    def ev(self, r, c):
        """The interpolant at the points (r[k], c[k]) of two 1-D arrays."""
        rows, cols = self.rows, self.cols
        i = rows[1:-1].searchsorted(r, "right")
        j = cols[1:-1].searchsorted(c, "right")
        h = np.stack([self._widths[0][i], self._widths[1][j]])
        u = np.stack([np.minimum(np.maximum(r, rows[0]), rows[-1]) - rows[i],
                      np.minimum(np.maximum(c, cols[0]), cols[-1]) - cols[j]]) / h
        # the cubic Hermite weights [row, column] x [start, end] x [value, slope]
        u1 = u - 1
        q = u * u1 * h
        end = u * u * (3 - 2 * u)
        row, col = np.stack([1 - end, q * u1, end, q * u], axis=1).reshape(2, 2, 2, -1)
        # the corners' (w, w_c, w_r, w_rc) as [row slope, column slope, row end, column end]
        g = self.nodal.take(i * cols.size + j + self._corners, axis=1).reshape(2, 2, 2, 2, -1)
        return np.einsum("pqabn,apn,bqn->n", g, row, col)
