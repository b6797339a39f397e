"""Finite-difference machinery on uniform box grids.

Stencils of order ``ORDER``, centered in the interior and one-sided at the
boundary, generated by Fornberg's weight algorithm.  The module also decides
where a stencil residual is trusted and how far: ``interior`` is the one
definition of the nodes a residual is read on, and ``richardson_tolerance``
turns the residual on every other node into a bound for the fine grid.  Two
numpy kernels stand in for scipy's splines: the not-a-knot quintic
interpolant (the spline ``scipy.interpolate.make_interp_spline(x, y, k=5)``
builds), solved for many columns at once by ``quintic_coefficients``,
evaluated by ``quintic_resample`` and taken as a tensor product over a box
grid by ``TensorQuintic``; and ``cumulative_quadrature`` (a sixth-order
running integral on a uniform grid).
"""

from functools import lru_cache

import numpy as np

from .errors import GridMismatchError

ORDER = 4  # accuracy order of every stencil
# nodes per side whose first-derivative stencil is one-sided; a residual that
# nests derivative passes is trusted one node further in (EDGE + 1)
EDGE = ORDER // 2


def fornberg_weights(x, x0, m):
    """Weights of the m-th derivative at x0 from samples at nodes x."""
    x = np.asarray(x, dtype=float)
    n = len(x)
    c = np.zeros((n, m + 1))
    c[0, 0] = 1.0
    c1 = 1.0
    c4 = x[0] - x0
    for i in range(1, n):
        mn = min(i, m)
        c2 = 1.0
        c5 = c4
        c4 = x[i] - x0
        for j in range(i):
            c3 = x[i] - x[j]
            c2 *= c3
            if j == i - 1:
                for k in range(mn, 0, -1):
                    c[i, k] = c1 * (k * c[i - 1, k - 1] - c5 * c[i - 1, k]) / c2
                c[i, 0] = -c1 * c5 * c[i - 1, 0] / c2
            for k in range(mn, 0, -1):
                c[j, k] = (c4 * c[j, k] - k * c[j, k - 1]) / c3
            c[j, 0] = c4 * c[j, 0] / c3
        c1 = c2
    return c[:, m]


@lru_cache(maxsize=None)
def diff_matrix(n, spacing, deriv):
    """Dense n x n differentiation matrix, one-sided at the boundary."""
    width = deriv + ORDER  # stencil size giving order ORDER
    if n < width:
        raise GridMismatchError(f"need at least {width} nodes for this stencil, got {n}")
    x = np.arange(n) * float(spacing)
    d = np.zeros((n, n))
    half = width // 2
    for i in range(n):
        lo = min(max(i - half + (1 - width % 2), 0), n - width)
        idx = np.arange(lo, lo + width)
        d[i, idx] = fornberg_weights(x[idx], x[i], deriv)
    return d


def apply_diff(values, axis, spacing, deriv):
    """Apply the 1D differentiation matrix along one axis of an array."""
    values = np.asarray(values, dtype=float)
    d = diff_matrix(values.shape[axis], float(spacing), deriv)
    moved = np.moveaxis(values, axis, 0)
    out = np.tensordot(d, moved, axes=(1, 0))
    return np.moveaxis(out, 0, axis)


def hessian_field(values, spacings):
    """Discrete Hessian of a scalar grid function, shape (*grid, m, m).

    Diagonal entries use second-derivative stencils; the mixed entries are
    compositions of first-derivative matrices.
    """
    values = np.asarray(values, dtype=float)
    m = values.ndim
    hess = np.empty(values.shape + (m, m))
    for a in range(m):
        hess[..., a, a] = apply_diff(values, a, spacings[a], 2)
        for b in range(a + 1, m):
            mixed = apply_diff(apply_diff(values, a, spacings[a], 1), b, spacings[b], 1)
            hess[..., a, b] = mixed
            hess[..., b, a] = mixed
    return hess


def gradient_field(values, spacings):
    """Discrete gradient, shape (*grid, m)."""
    values = np.asarray(values, dtype=float)
    return np.stack(
        [apply_diff(values, a, spacings[a], 1) for a in range(values.ndim)], axis=-1
    )


def interior(shape, width):
    """Slices dropping ``width`` boundary nodes on each side of every axis.

    The nodes a stencil residual is read on.  Raises ``GridMismatchError``
    when an axis has 2 width nodes or fewer, so that no residual is ever
    read on boundary stencils alone or on no node at all.
    """
    if min(shape) <= 2 * width:
        raise GridMismatchError(
            f"an axis of {min(shape)} nodes has no interior past {width} boundary nodes"
        )
    return (slice(width, -width),) * len(shape)


def richardson_tolerance(coarse_value, order=ORDER, floor=1e-12):
    """Estimate the fine-grid truncation scale from a coarse-grid residual.

    The coarse grid keeps every other node (``HessianPotential.coarsened``).
    For a quantity vanishing in the continuum at rate h^order, the coarse
    residual is ~ 2^order times the fine one, so the fine-grid scale is
    coarse / 2^order.
    """
    return max(abs(float(coarse_value)) / 2 ** order, floor)


def _quintic_basis(knots, spans, x, derivs=0):
    """Derivatives 0 ... derivs of the six quintic B-splines nonzero at x.

    ``knots`` is (c, K), ``spans`` and ``x`` are (c, p) with
    knots[l] <= x <= knots[l + 1] and knots[l] < knots[l + 1] for l = spans.
    Returns (derivs + 1, c, p, 6): entry [k, ..., r] is the k-th derivative of
    B_{l-5+r}.  Cox-de Boor recursion (Piegl & Tiller, The NURBS Book,
    algorithm A2.2), and the derivative of a degree-j B-spline as j times
    the difference of its two degree-(j - 1) neighbours over their knot
    spans (eq. 2.7 there), vectorised over all points and B-splines.
    """
    flat = knots.ravel()
    at = spans + knots.shape[1] * np.arange(knots.shape[0])[:, None]  # knots[c, l]
    left = np.stack([x - flat[at + 1 - j] for j in range(1, 6)])  # x - knots[l + 1 - j]
    right = np.stack([flat[at + j] - x for j in range(1, 6)])  # knots[l + j] - x
    basis = [np.ones((1,) + x.shape)]  # basis[j]: the j + 1 B-splines of degree j
    widths = [None]  # widths[j][r]: the knot span of B-spline r of degree j - 1
    for j in range(1, 6):
        widths.append(right[:j] + left[j - 1::-1])
        temp = basis[-1] / widths[j]
        new = np.zeros((j + 1,) + x.shape)
        new[:j] += right[:j] * temp
        new[1:] += left[j - 1::-1] * temp
        basis.append(new)
    ders = [basis[5]]
    for k in range(1, derivs + 1):
        # derivative k of degree 5 from derivative k - 1 of degree 5 - k, ...
        d = basis[5 - k]
        for j in range(6 - k, 6):
            scaled = j * d / widths[j]
            d = np.zeros((j + 1,) + x.shape)
            d[1:] += scaled
            d[:j] -= scaled
        ders.append(d)
    # contiguous in the B-spline index, which fixes einsum's summation order
    return np.ascontiguousarray(np.moveaxis(np.stack(ders), 1, -1))


def quintic_coefficients(x, y):
    """Knots and B-spline coefficients of the not-a-knot quintic of every column.

    ``y`` is (n, c) and ``x`` is (n, c) or, for nodes shared by all columns,
    (n, 1), with each column of ``x`` strictly increasing and n >= 6.
    Returns knots (c, n + 6) or (1, n + 6) and coefficients (c, n): column j
    is the spline that ``make_interp_spline(x[:, j], y[:, j], k=5)`` builds,
    with knots x_0 six times, x_3 ... x_{n-4}, x_{n-1} six times.

    The collocation matrix of each column has at most six nonzeros per row
    within five diagonals of the main one.  It is totally positive, so
    Gaussian elimination without pivoting is stable (de Boor & Pinkus,
    Linear Algebra Appl. 1977); it runs once over the rows, on all columns
    at the same time, and once in all for shared nodes.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    n, cols = x.shape
    if n < 6:
        raise GridMismatchError(f"need at least 6 nodes for a quintic interpolant, got {n}")
    xt = np.ascontiguousarray(x.T)
    knots = np.concatenate(
        [np.repeat(xt[:, :1], 6, axis=1), xt[:, 3:-3], np.repeat(xt[:, -1:], 6, axis=1)],
        axis=1,
    )
    # node i lies in knot span clip(i + 3, 5, n - 1); row i of the collocation
    # matrix is nonzero in columns first[i] ... first[i] + 5
    spans = np.clip(np.arange(n) + 3, 5, n - 1)
    first = spans - 5
    basis = _quintic_basis(knots, np.broadcast_to(spans, xt.shape), xt)[0]
    # band storage: band[:, i, 5 + k - i] = A[i, k]
    band = np.zeros((cols, n, 11))
    rows = np.arange(n)[:, None]
    band[:, rows, first[:, None] - rows + 5 + np.arange(6)] = basis
    coef = y.T.copy()
    for r in range(n - 1):
        pivot = band[:, r, 5:]
        for d in range(1, min(5, n - 1 - r) + 1):
            if first[r + d] > r:  # A[r + d, r] = 0, and first[] never decreases
                break
            factor = band[:, r + d, 5 - d] / pivot[:, 0]
            band[:, r + d, 5 - d:11 - d] -= factor[:, None] * pivot
            coef[:, r + d] -= factor * coef[:, r]
    for r in range(n - 1, -1, -1):
        hi = min(n, r + 6)
        row = np.broadcast_to(band[:, r, 6:5 + hi - r], coef[:, r + 1:hi].shape)
        coef[:, r] -= np.einsum("ck,ck->c", row, coef[:, r + 1:hi])
        coef[:, r] /= band[:, r, 5]
    return knots, coef


def quintic_resample(x, y, x_new):
    """Evaluate the not-a-knot quintic interpolant of every column at x_new.

    ``x`` and ``y`` are (n, c) as in ``quintic_coefficients``, with nodes
    per column; ``x_new`` is (q,) in any order.  Returns (q, c): column j is the spline of column j
    evaluated at x_new, where points outside [x[0, j], x[-1, j]] extrapolate
    its end pieces as scipy's ``make_interp_spline`` does.
    """
    knots, coef = quintic_coefficients(x, y)
    x_new = np.asarray(x_new, dtype=float)
    cols, n = coef.shape
    # span of each x_new per column: 5 + the number of interior knots <= it,
    # counted along x_new in increasing order
    interior = knots[:, 6:n]
    q = len(x_new)
    order = np.argsort(x_new, kind="stable")
    slots = np.searchsorted(x_new[order], interior, side="left") + (q + 1) * np.arange(cols)[:, None]
    counts = np.bincount(slots.ravel(), minlength=cols * (q + 1)).reshape(cols, q + 1)
    new_spans = np.empty((cols, q), dtype=int)
    new_spans[:, order] = np.minimum(5 + np.cumsum(counts, axis=1)[:, :q], n - 1)
    values = _quintic_basis(knots, new_spans, np.broadcast_to(x_new, (cols, q)))[0]
    picked = np.take_along_axis(
        coef, (new_spans[..., None] - 5 + np.arange(6)).reshape(cols, -1), axis=1
    )
    return np.einsum("cqk,cqk->qc", values, picked.reshape(cols, q, 6))


class TensorQuintic:
    """Tensor-product not-a-knot quintic interpolant on a box grid.

    Along each axis it is the spline of ``quintic_coefficients``, so in one
    variable it is ``make_interp_spline(x, y, k=5)`` and in two it is the
    spline of FITPACK's ``RectBivariateSpline(x, y, z, kx=5, ky=5, s=0)``,
    which has the same knots.  The coefficients are solved one axis at a
    time; evaluation at scattered points gives values, gradients and
    Hessians.
    """

    def __init__(self, axes, values):
        coef = np.asarray(values, dtype=float)
        self.knots = []
        for a, ax in enumerate(axes):
            ax = np.asarray(ax, dtype=float)
            moved = np.moveaxis(coef, a, 0)
            columns = moved.reshape(len(ax), -1)
            knots, solved = quintic_coefficients(ax[:, None], columns)
            self.knots.append(knots)
            coef = np.moveaxis(solved.T.reshape(moved.shape), 0, a)
        self.coef = coef

    def _bases(self, points, derivs):
        """Per axis, the derivatives of the six B-splines nonzero at each point,
        and the coefficient patch those B-splines multiply."""
        points = np.asarray(points, dtype=float)
        m = self.coef.ndim
        bases, index = [], []
        for a in range(m):
            knots = self.knots[a]
            n = self.coef.shape[a]
            x = points[:, a]
            # the last knot span whose left knot is <= x, within [5, n - 1]
            spans = 5 + np.searchsorted(knots[0, 6:n], x, side="right")
            bases.append(_quintic_basis(knots, spans[None], x[None], derivs)[:, 0])
            window = spans[:, None] - 5 + np.arange(6)
            index.append(window.reshape((len(x),) + (1,) * a + (6,) + (1,) * (m - 1 - a)))
        return bases, self.coef[tuple(index)]

    @staticmethod
    def _contract(patch, bases, orders):
        for a in reversed(range(len(bases))):
            patch = np.einsum("p...k,pk->p...", patch, bases[a][orders[a]])
        return patch

    def __call__(self, points):
        """Values at ``points`` (p, m)."""
        bases, patch = self._bases(points, 0)
        return self._contract(patch, bases, (0,) * len(bases))

    def jet(self, points):
        """Values (p,), gradients (p, m) and Hessians (p, m, m) at ``points`` (p, m)."""
        bases, patch = self._bases(points, 2)
        m = len(bases)
        unit = np.eye(m, dtype=int)
        value = self._contract(patch, bases, (0,) * m)
        grad = np.stack([self._contract(patch, bases, unit[a]) for a in range(m)], axis=-1)
        hess = np.empty((len(value), m, m))
        for a in range(m):
            for b in range(a, m):
                hess[:, a, b] = hess[:, b, a] = self._contract(patch, bases, unit[a] + unit[b])
        return value, grad, hess


@lru_cache(maxsize=None)
def cumulative_quadrature(n, spacing):
    """(n, n) matrix C with (C f)_i = integral of f from node 0 to node i.

    Uniform grid of n >= 6 nodes.  The integral over each cell is the exact
    integral of the degree-5 interpolant through the six nodes nearest that
    cell (k - 2 ... k + 3 for cell [k, k + 1], shifted inward at the ends),
    so C integrates polynomials of degree <= 5 exactly and its error is
    O(h^6).  The cached matrix is read-only.
    """
    if n < 6:
        raise GridMismatchError(f"need at least 6 nodes for the quadrature, got {n}")
    moments = 1.0 / np.arange(1.0, 7.0)  # integral of s^p over [0, 1]
    cells = np.zeros((n - 1, n))
    for k in range(n - 1):
        lo = min(max(k - 2, 0), n - 6)
        nodes = np.arange(lo, lo + 6) - float(k)
        weights = np.linalg.solve(np.vander(nodes, increasing=True).T, moments)
        cells[k, lo:lo + 6] = weights * float(spacing)
    cumulative = np.zeros((n, n))
    np.cumsum(cells, axis=0, out=cumulative[1:])
    cumulative.flags.writeable = False
    return cumulative
