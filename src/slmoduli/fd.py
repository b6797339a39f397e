"""Finite-difference machinery on uniform box grids.

Stencils of order ``ORDER``, centered in the interior and one-sided at the
boundary, generated by Fornberg's weight algorithm (Math. Comp. 51, 1988)
as one weight table per derivative order at unit spacing, times h^-deriv
where it is applied.  ``apply_diff`` applies a table as a banded kernel,
shifted slices along the axis accumulated in increasing node order, so each
node's arithmetic is fixed by its index and the number of nodes alone; it
also returns the derivative on a node range read from a window of the axis,
bit for bit the full-axis result there.  The taps of each node range are
kept, so a slab walk that asks for the same ranges again pays for them once.
``diff_matrix`` is the same table as a dense matrix, cached per size and
spacing and read-only.  The module also decides where a stencil residual is
trusted and how far: ``interior`` is the one definition of the nodes a
residual is read on, ``two_grid_bound`` turns the residual on every other
node into a bound for the fine grid, and
``roundoff_floor`` is the roundoff below which no such bound may fall.
Numpy kernels stand in for scipy's splines: the not-a-knot quintic
interpolant (``scipy.interpolate.make_interp_spline(x, y, k=5)``), solved
for many columns on shared nodes by ``quintic_coefficients``, the one spline
solve, differentiated at those nodes by ``quintic_derivatives`` and taken as
a tensor product on a uniform box grid by ``TensorQuintic`` (evaluated in
blocks of ``POINT_BLOCK`` points, and in closed form away from the
not-a-knot ends); the local quintic Hermite interpolant of columns with their
own nodes, from values and two derivatives there (``hermite_resample``); and
``cumulative_quadrature`` (a sixth-order running integral on a uniform grid,
a banded sum of six cell weights followed by a cumulative sum).
"""

from functools import lru_cache

import numpy as np

from .errors import GridMismatchError

ORDER = 4  # accuracy order of every stencil
POINT_BLOCK = 1024  # points per block of TensorQuintic evaluation
# nodes per side whose stencils are one-sided; a residual that nests
# derivative passes is trusted one node further in (EDGE + 1)
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
def _stencil(deriv):
    """Weight table of the derivative of order ``deriv`` at unit spacing:
    (head, centre, tail); at spacing h each weight is times h^-deriv.

    From Fornberg's algorithm on the integer node offsets.  Row r of
    ``head`` (EDGE, deriv + ORDER) gives node r from nodes 0 ... deriv + ORDER - 1;
    row r of ``tail`` gives node n - EDGE + r from the last deriv + ORDER nodes;
    ``centre`` (2 EDGE + 1,) is the 5-point centred stencil of every other node.
    The one-sided rule of the second derivative has six nodes, and on a
    centred window its sixth tap is exactly 0, so no node needs it.  In each
    row the weight of the node itself is minus the sum of the others, so a
    row takes constants to 0 exactly.  The table does not depend on the
    number of nodes.
    """
    def row(offsets):
        weights = fornberg_weights(offsets, 0.0, deriv)
        own = offsets == 0
        weights[own] = -np.sum(weights[~own])
        weights.flags.writeable = False
        return weights

    width = deriv + ORDER
    head = np.stack([row(np.arange(width) - r) for r in range(EDGE)])
    tail = np.stack([row(np.arange(width) - width + EDGE - r) for r in range(EDGE)])
    head.flags.writeable = tail.flags.writeable = False
    return head, row(np.arange(-EDGE, EDGE + 1)), tail


def _pieces(n, deriv, start, stop):
    """Nodes [start, stop) of an n-node axis as pieces that share their taps.

    Each piece is (lo, hi, taps) for its nodes [lo, hi): one piece per head
    or tail node, and one for the centre.  A tap is (weight, read_lo, read_hi):
    the piece's nodes in turn take ``weight`` (unit spacing) times the value
    at axis nodes read_lo ... read_hi - 1.  Taps come in increasing node order,
    the node's own tap (read range equal to the piece) among them.
    """
    width = deriv + ORDER
    if n < width:
        raise GridMismatchError(f"need at least {width} nodes for this stencil, got {n}")
    if not 0 <= start <= stop <= n:
        raise ValueError(f"nodes [{start}, {stop}) do not lie on an axis of {n} nodes")
    head, centre, tail = _stencil(deriv)
    pieces = [(r, r + 1, [(w, t, t + 1) for t, w in enumerate(head[r])])
              for r in range(start, min(stop, EDGE))]
    lo, hi = max(start, EDGE), min(stop, n - EDGE)
    if lo < hi:
        pieces.append((lo, hi, [(w, lo + t - EDGE, hi + t - EDGE)
                                for t, w in enumerate(centre)]))
    pieces += [(i, i + 1, [(w, n - width + t, n - width + t + 1)
                           for t, w in enumerate(tail[i - n + EDGE])])
               for i in range(max(start, n - EDGE), stop)]
    return pieces


@lru_cache(maxsize=2048)
def _plan(n, deriv, start, stop):
    """The pieces of ``_pieces`` without each node's own tap, and their reach.

    Memoized per node range, since a slab walk asks for the same ranges
    again and again; the entries are tuples, so no caller can change them.
    The cache holds the node ranges of every walk of the six curvature jobs
    of the benchmark (about 1,200), so repeating them builds no taps: with
    1,024 entries each repeat rebuilt about 950, and the churn of their small
    tuples fragmented the heap.
    """
    pieces = _pieces(n, deriv, start, stop)
    reads = [tap[1:] for _, _, taps in pieces for tap in taps]
    reach = (min(r[0] for r in reads), max(r[1] for r in reads)) if reads else (start, start)
    others = tuple((lo, hi, tuple(tap for tap in taps if tap[1:] != (lo, hi)))
                   for lo, hi, taps in pieces)
    return others, reach


def stencil_reach(n, deriv, start, stop):
    """Axis nodes [lo, hi) that the stencils of nodes [start, stop) read.

    ``apply_diff`` with ``nodes=(start, stop)`` needs ``values`` to hold at
    least these nodes of the axis.
    """
    return _plan(n, deriv, start, stop)[1]


@lru_cache(maxsize=None)
def diff_matrix(n, spacing, deriv):
    """Dense n x n differentiation matrix, one-sided at the boundary.

    Assembled from the weight table of ``apply_diff``: row i holds the
    weights of node i, and the product with it is ``apply_diff`` up to
    roundoff.  Read-only, since every later call of the same size shares it.
    """
    scale = float(spacing) ** -deriv
    d = np.zeros((n, n))
    for lo, hi, taps in _pieces(n, deriv, 0, n):
        for weight, read_lo, read_hi in taps:
            d[np.arange(lo, hi), np.arange(read_lo, read_hi)] = weight * scale
    d.flags.writeable = False
    return d


def apply_diff(values, axis, spacing, deriv, nodes=None, n=None, first=0):
    """Derivative of order ``deriv`` along one axis of a grid function.

    ``values`` holds the axis nodes first ... first + values.shape[axis] - 1
    of an axis of ``n`` nodes (default: all of them, first = 0), and the
    result is the derivative on the axis nodes ``nodes`` = (start, stop)
    (default (0, n)); the held nodes must cover ``stencil_reach`` of that
    range.  Each node is a banded stencil from ``_stencil`` times
    spacing^-deriv: the head rows one-sided on the first deriv + ORDER nodes,
    the tail rows on the last ones, every other node the 5-point centred
    stencil.

    A node's derivative is the sum, over the other nodes of its stencil, of
    weight times (value there - value at the node); the table's own weights
    make it the plain weighted sum.  On smooth data the differences are
    small, so a pass adds roundoff near that of its result rather than that
    of its input.  The terms are applied as shifted slices along the axis
    and accumulated straight into the result in a fixed order, with one
    scratch buffer: the term of the lowest node, then the term of each next
    node added in turn.  So the arithmetic of a node depends only on its
    index and the number of nodes: the derivative on a range read from a
    window equals, bit for bit, the same nodes of the full-axis derivative,
    whatever the other axes hold.
    """
    values = np.asarray(values, dtype=float)
    held = values.shape[axis]
    n = held if n is None else n
    start, stop = (0, n) if nodes is None else nodes
    pieces, (lo, hi) = _plan(n, deriv, start, stop)
    scale = float(spacing) ** -deriv
    if lo < first or hi > first + held:
        raise ValueError(f"nodes [{first}, {first + held}) do not cover the reach "
                         f"[{lo}, {hi}) of nodes [{start}, {stop})")
    before = (slice(None),) * (axis % values.ndim)
    shape = list(values.shape)
    shape[axis] = stop - start
    out = np.empty(shape)
    scratch = np.empty(shape)
    for piece_lo, piece_hi, others in pieces:
        target = before + (slice(piece_lo - start, piece_hi - start),)
        acc, term = out[target], scratch[target]
        own = values[before + (slice(piece_lo - first, piece_hi - first),)]
        for t, (weight, read_lo, read_hi) in enumerate(others):
            into = term if t else acc
            np.subtract(values[before + (slice(read_lo - first, read_hi - first),)], own,
                        out=into)
            np.multiply(into, weight * scale, out=into)
            if t:
                np.add(acc, term, out=acc)
    return out


def hessian_field(values, spacings, nodes=None, n=None, first=0):
    """Discrete Hessian of a scalar grid function, shape (*grid, m, m).

    Diagonal entries use second-derivative stencils; the mixed entries are
    compositions of first-derivative stencils.  As in ``apply_diff``,
    ``values`` holds nodes first ... first + values.shape[0] - 1 of grid axis
    0, an axis of ``n`` nodes (default: all of them, first = 0), and the
    result is the Hessian on the axis-0 nodes ``nodes`` = (start, stop)
    (default (0, n)), bitwise the same rows of the full-grid Hessian.  The held
    nodes must cover ``stencil_reach(n, 2, start, stop)``, which holds the
    first-derivative reach.
    """
    values = np.asarray(values, dtype=float)
    m = values.ndim
    n = values.shape[0] if n is None else n
    start, stop = (0, n) if nodes is None else nodes
    rows = values[start - first:stop - first]

    def diff(axis, deriv):
        if axis == 0:
            return apply_diff(values, 0, spacings[0], deriv, nodes=(start, stop), n=n,
                              first=first)
        return apply_diff(rows, axis, spacings[axis], deriv)

    hess = np.empty(rows.shape + (m, m))
    for a in range(m):
        hess[..., a, a] = diff(a, 2)
        for b in range(a + 1, m):
            mixed = apply_diff(diff(a, 1), b, spacings[b], 1)
            hess[..., a, b] = mixed
            hess[..., b, a] = mixed
    return hess


def gradient_field(values, spacings):
    """Discrete gradient, shape (*grid, m)."""
    values = np.asarray(values, dtype=float)
    return np.stack(
        [apply_diff(values, a, spacings[a], 1) for a in range(values.ndim)], axis=-1
    )


def is_uniform(ax):
    """Whether the nodes ``ax`` rise by equal steps, to 1e-10 of a step."""
    steps = np.diff(ax)
    return len(steps) > 0 and steps[0] > 0 and np.max(np.abs(steps - steps[0])) <= 1e-10 * steps[0]


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


def roundoff_floor(scale, spacing, deriv):
    """Largest roundoff of one ``apply_diff`` pass of order ``deriv`` on data of
    size ``scale`` (max |value|): eps * scale times the largest sum of |weights|
    of a stencil row at ``spacing``.

    Values rounded to within eps * scale move a derivative by up to this
    much, which grows as spacing^-deriv; a residual of that size is roundoff,
    not truncation, so a two-grid bound must not fall below it (Higham,
    Accuracy and Stability of Numerical Algorithms, on the roundoff of
    difference quotients).
    """
    head, centre, tail = _stencil(deriv)
    heaviest = max(np.max(np.sum(np.abs(head), axis=1)), np.sum(np.abs(centre)),
                   np.max(np.sum(np.abs(tail), axis=1))) * float(spacing) ** -deriv
    return float(np.finfo(float).eps * abs(scale) * heaviest)


def two_grid_bound(coarse_value, floor):
    """Every two-grid bound of the package: 10 x the Richardson estimate of the
    fine-grid truncation scale, never below ``floor``, the fine grid's roundoff.

    The coarse grid keeps every other node (``HessianPotential.coarsened``).
    For a quantity vanishing in the continuum at rate h^ORDER, the coarse
    residual is ~ 2^ORDER times the fine one, so the fine-grid scale is
    coarse / 2^ORDER.
    """
    return 10.0 * max(abs(float(coarse_value)) / 2 ** ORDER, floor)


def _quintic_basis(knots, spans, x, derivs=0):
    """Derivatives 0 ... derivs of the six quintic B-splines nonzero at x.

    ``knots`` is (K,), ``spans`` and ``x`` are (p,) with
    knots[l] <= x <= knots[l + 1] and knots[l] < knots[l + 1] for l = spans.
    Returns (derivs + 1, p, 6): entry [k, ..., r] is the k-th derivative of
    B_{l-5+r}.  Cox-de Boor recursion (Piegl & Tiller, The NURBS Book,
    algorithm A2.2), and the derivative of a degree-j B-spline as j times
    the difference of its two degree-(j - 1) neighbours over their knot
    spans (eq. 2.7 there), vectorised over all points and B-splines.
    """
    left = np.stack([x - knots[spans + 1 - j] for j in range(1, 6)])  # x - knots[l + 1 - j]
    right = np.stack([knots[spans + j] - x for j in range(1, 6)])  # knots[l + j] - x
    # derivative k of degree 5 starts from degree 5 - k and steps up through
    # the knot spans of degrees 6 - k ... 5, so only those levels are kept
    lowest = 5 - derivs
    basis = {}  # basis[j]: the j + 1 B-splines of degree j, for j >= lowest
    widths = {}  # widths[j][r]: the knot span of B-spline r of degree j - 1, for j > lowest
    level = np.ones((1,) + x.shape)
    for j in range(1, 6):
        if j - 1 >= lowest:
            basis[j - 1] = level
        width = right[:j] + left[j - 1::-1]
        if j > lowest:
            widths[j] = width
        temp = level / width
        level = np.zeros((j + 1,) + x.shape)
        level[:j] += right[:j] * temp
        level[1:] += left[j - 1::-1] * temp
    basis[5] = level
    del left, right, width, temp
    # contiguous in the B-spline index, which fixes einsum's summation order
    ders = np.empty((derivs + 1,) + x.shape + (6,))
    ders[0] = np.moveaxis(basis.pop(5), 0, -1)
    for k in range(1, derivs + 1):
        d = basis.pop(5 - k)
        for j in range(6 - k, 6):
            scaled = j * d / widths[j]
            d = np.zeros((j + 1,) + x.shape)
            d[1:] += scaled
            d[:j] -= scaled
        ders[k] = np.moveaxis(d, 0, -1)
    return ders


# _HORNER[5 - j, r] t^j, summed over j, is the r-th of the six quintic
# B-splines nonzero on a span of uniform knots, at the offset t in [0, 1] from
# its left knot in units of the knot spacing: the cardinal basis matrix of
# the uniform quintic (Qin, "General matrix representations for B-splines",
# Visual Computer 16, 2000), highest power first.
_HORNER = np.array([[1, 26, 66, 26, 1, 0], [-5, -50, 0, 50, 5, 0],
                    [10, 20, -60, 20, 10, 0], [-10, 20, 0, -20, 10, 0],
                    [5, -20, 30, -20, 5, 0], [-1, 5, -10, 10, -5, 1]])[::-1] / 120.0
_HORNER.flags.writeable = False


def _uniform_quintic_basis(t):
    """``_quintic_basis`` on spans whose twelve surrounding knots are uniform.

    ``t`` (p,) is each point's offset from its span's left knot over the knot
    spacing.  Returns (p, 6): the t-powers times ``_HORNER``, by Horner's
    rule from the highest power, elementwise along the points, so a point's
    numbers depend on its t alone.
    """
    rows = _HORNER[:, :, None]
    acc = rows[0] * t
    acc += rows[1]
    for row in rows[2:]:
        acc *= t
        acc += row
    # contiguous in the B-spline index, which fixes einsum's summation order
    return np.ascontiguousarray(acc.T)


def quintic_coefficients(x, y):
    """Knots and B-spline coefficients of the not-a-knot quintic of every column.

    ``x`` (n,) are strictly increasing nodes shared by all columns of ``y``
    (n, c), n >= 6.  Returns knots (n + 6,) and coefficients (n, c): column j
    is the spline that ``make_interp_spline(x, y[:, j], k=5)`` builds, with
    knots x_0 six times, x_3 ... x_{n-4}, x_{n-1} six times.

    The collocation matrix has at most six nonzeros per row within five
    diagonals of the main one.  It is totally positive, so Gaussian
    elimination without pivoting is stable (de Boor & Pinkus, Linear Algebra
    Appl. 1977); it runs once over the rows, on all columns at the same time.
    """
    x = np.asarray(x, dtype=float)
    n = len(x)
    if n < 6:
        raise GridMismatchError(f"need at least 6 nodes for a quintic interpolant, got {n}")
    knots = np.concatenate([np.repeat(x[:1], 6), x[3:-3], np.repeat(x[-1:], 6)])
    # node i lies in knot span clip(i + 3, 5, n - 1); row i of the collocation
    # matrix is nonzero in columns first[i] ... first[i] + 5
    spans = np.clip(np.arange(n) + 3, 5, n - 1)
    first = spans - 5
    # band storage: band[i, 5 + k - i] = A[i, k]
    band = np.zeros((n, 11))
    rows = np.arange(n)[:, None]
    band[rows, first[:, None] - rows + 5 + np.arange(6)] = _quintic_basis(knots, spans, x)[0]
    coef = np.array(y, dtype=float)
    for r in range(n - 1):
        pivot = band[r, 5:]
        for d in range(1, min(5, n - 1 - r) + 1):
            if first[r + d] > r:  # A[r + d, r] = 0, and first[] never decreases
                break
            factor = band[r + d, 5 - d] / pivot[0]
            band[r + d, 5 - d:11 - d] -= factor * pivot
            coef[r + d] -= factor * coef[r]
    for r in range(n - 1, -1, -1):
        hi = min(n, r + 6)
        coef[r] -= np.einsum("k,k...->...", band[r, 6:5 + hi - r], coef[r + 1:hi])
        coef[r] /= band[r, 5]
    return knots, coef


def quintic_derivatives(x, y):
    """First and second derivatives of the not-a-knot quintic of every column
    at its nodes ``x`` (n,), shared by all columns of ``y`` (n, c).

    Returns two (n, c) arrays: column j of the k-th is
    ``make_interp_spline(x, y[:, j], k=5)`` differentiated k times at x.  The
    B-spline derivatives at the nodes are taken by one ``_quintic_basis``
    call, and each node's derivatives are accumulated as six coefficient
    rows, one B-spline at a time, so no (n, c, 6) block is formed.
    """
    x = np.asarray(x, dtype=float)
    knots, coef = quintic_coefficients(x, y)
    # node i lies in knot span clip(i + 3, 5, n - 1), as in quintic_coefficients
    spans = np.clip(np.arange(len(x)) + 3, 5, len(x) - 1)
    ders = _quintic_basis(knots, spans, x, 2)
    first, second = (ders[k, :, :1] * coef[spans - 5] for k in (1, 2))
    for r in range(1, 6):
        rows = coef[spans - 5 + r]
        first += ders[1, :, r:r + 1] * rows
        second += ders[2, :, r:r + 1] * rows
    return first, second


def hermite_resample(s, h, dh, ddh, s_new):
    """The local quintic Hermite interpolant of every column at s_new (q,).

    ``s`` (n, c) are each column's strictly increasing nodes, ``h``, ``dh``
    and ``ddh`` (n, c) its values, first and second derivatives there.
    Returns (q, c): at each point, the one quintic with the six data of the
    two nodes around it (of the end interval past the ends), so the result
    is C2 and exact on quintics; its power coefficients in the offset t from
    the left node over the interval's width, by Horner's rule.  Column by
    column, in work arrays allocated once, so the loop allocates nothing.
    """
    s_new = np.asarray(s_new, dtype=float)
    (n, cols), q = s.shape, len(s_new)
    out = np.empty((q, cols))
    # the coefficients of t^5 ... t of an interval of width w from its
    # data: h_(i+1) - h_i, then w dh and w^2 ddh at its right and left nodes
    to_power = np.array([[6, -3, 0.5, -3, -0.5], [-15, 7, -1, 8, 1.5], [10, -4, 0.5, -6, -1.5],
                         [0, 0, 0, 0, 0.5], [0, 0, 0, 1, 0]])
    w, w2, data, coef = np.empty(n - 1), np.empty(n - 1), np.empty((5, n - 1)), np.empty((n - 1, 5))
    rise, slope, bend, left_slope, left_bend = data
    picked, i, t, node = np.empty((q, 5)), np.empty(q, dtype=np.intp), np.empty(q), np.empty(q)
    for j in range(cols):
        x, y, dy, ddy = s[:, j], h[:, j], dh[:, j], ddh[:, j]
        np.subtract(x[1:], x[:-1], out=w)
        np.subtract(y[1:], y[:-1], out=rise)
        np.multiply(w, dy[1:], out=slope)
        np.multiply(w, dy[:-1], out=left_slope)
        np.multiply(w, w, out=w2)
        np.multiply(w2, ddy[1:], out=bend)
        np.multiply(w2, ddy[:-1], out=left_bend)
        np.einsum("ab,bk->ka", to_power, data, out=coef)
        # each point's interval: the interior nodes at or below it
        i[:] = np.searchsorted(x[1:-1], s_new, side="right")
        np.subtract(s_new, np.take(x, i, out=node), out=t)
        t /= np.take(w, i, out=node)
        np.take(coef, i, axis=0, out=picked)
        acc = out[:, j]
        np.multiply(picked[:, 0], t, out=acc)
        for k in range(1, 5):
            acc += picked[:, k]
            acc *= t
        acc += np.take(y, i, out=node)
    return out


class TensorQuintic:
    """Tensor-product not-a-knot quintic interpolant on a uniform box grid.

    Along each axis it is the spline of ``quintic_coefficients``, so in one
    variable it is ``make_interp_spline(x, y, k=5)`` and in two it is the
    spline of FITPACK's ``RectBivariateSpline(x, y, z, kx=5, ky=5, s=0)``,
    which has the same knots.  The coefficients are solved one axis at a
    time and evaluated at scattered points.  On a span at least five knots from either not-a-knot end the
    six B-splines are the fixed quintics of ``_uniform_quintic_basis``; only
    points in the end spans take the Cox-de Boor recursion.  The points are
    evaluated in blocks of ``POINT_BLOCK``, so the B-spline values,
    coefficient patches and contraction temporaries are held for one block
    at a time.  Every step treats the points independently, so a point's
    numbers do not depend on its block.
    """

    def __init__(self, axes, values):
        coef = np.asarray(values, dtype=float)
        self.knots, self.spacings = [], []
        for a, ax in enumerate(axes):
            ax = np.asarray(ax, dtype=float)
            moved = np.moveaxis(coef, a, 0)
            columns = moved.reshape(len(ax), -1)
            if not is_uniform(ax):
                raise GridMismatchError("tensor quintic axes must be uniform")
            knots, solved = quintic_coefficients(ax, columns)
            self.knots.append(knots)
            self.spacings.append((ax[-1] - ax[0]) / (len(ax) - 1))
            coef = np.moveaxis(solved.reshape(moved.shape), 0, a)
        self.coef = coef
        # patches[i_1, ..., i_m] is the 6 x ... x 6 block of coefficients from
        # index i_a on axis a, the patch of a point in spans i_a + 5
        self.patches = np.lib.stride_tricks.sliding_window_view(coef, (6,) * coef.ndim)

    def _bases(self, points):
        """Per axis, the six B-splines nonzero at each point, and the
        coefficient patch they multiply."""
        points = np.asarray(points, dtype=float)
        bases, first = [], []
        for a in range(self.coef.ndim):
            knots = self.knots[a]
            n = self.coef.shape[a]
            x = points[:, a]
            # the last knot span whose left knot is <= x, within [5, n - 1]
            spans = 5 + np.searchsorted(knots[6:n], x, side="right")
            basis = _uniform_quintic_basis((x - knots[spans]) / self.spacings[a])
            # knots l - 5 ... l + 6 around span l are uniform for 11 <= l <= n - 7;
            # the points of the other spans take the recursion instead
            ends = np.flatnonzero((spans < 11) | (spans > n - 7))
            if ends.size:
                basis[ends] = _quintic_basis(knots, spans[ends], x[ends])[0]
            bases.append(basis)
            first.append(spans - 5)
        return bases, self.patches[tuple(first)]

    def __call__(self, points):
        """Values at ``points`` (p, m): the patch of each point contracted with
        its B-splines, from the last axis to the first."""
        points = np.asarray(points, dtype=float)
        value = np.empty(len(points))
        for lo in range(0, len(points), POINT_BLOCK):
            bases, patch = self._bases(points[lo:lo + POINT_BLOCK])
            for basis in reversed(bases):
                patch = np.einsum("p...k,pk->p...", patch, basis)
            value[lo:lo + POINT_BLOCK] = patch
        return value


def _lagrange_integrals(offset):
    """Unit-spacing weights of nodes 0 ... 5 for the cell [offset, offset + 1]:
    the integral over it of each node's Lagrange basis polynomial, exact in
    integers (numerator and denominator times 60 = lcm(1, ..., 6)) and
    rounded once by the division."""
    weights = []
    for i in range(6):
        coef, denominator = [1], 60  # prod_{j != i} (s - j), lowest power first
        for j in range(6):
            if j != i:
                coef = [a - j * b for a, b in zip([0] + coef, coef + [0])]
                denominator *= i - j
        numerator = sum(c * 60 // (k + 1) * ((offset + 1) ** (k + 1) - offset ** (k + 1))
                        for k, c in enumerate(coef))
        weights.append(numerator / denominator)
    return weights


@lru_cache(maxsize=None)
def _cell_weights(n):
    """First node (n - 1,) and unit-spacing weights (n - 1, 6) of the six nodes
    nearest each cell [k, k + 1] of ``cumulative_quadrature``, both read-only.

    A cell's weights depend only on its offset k - first from its first node,
    0 ... 4, so each offset's are computed once (``_lagrange_integrals``)."""
    if n < 6:
        raise GridMismatchError(f"need at least 6 nodes for the quadrature, got {n}")
    first = np.clip(np.arange(n - 1) - 2, 0, n - 6)
    table = np.array([_lagrange_integrals(offset) for offset in range(5)])
    weights = table[np.arange(n - 1) - first]
    first.flags.writeable = weights.flags.writeable = False
    return first, weights


def cumulative_quadrature(values, spacing, axis=0):
    """Running integral of ``values`` along ``axis`` from its first node.

    Uniform grid of n >= 6 nodes along ``axis``.  The integral over each
    cell is the exact integral of the degree-5 interpolant through the six
    nodes nearest that cell (k - 2 ... k + 3 for cell [k, k + 1], shifted
    inward at the ends), so polynomials of degree <= 5 integrate exactly and
    the error is O(h^6).  The six weights of each cell are applied as a
    banded sum and the cells added up by ``np.cumsum``; only the unit-spacing
    weights are kept between calls, each times ``spacing`` where it is used.
    """
    values = np.moveaxis(np.asarray(values, dtype=float), axis, 0)
    first, weights = _cell_weights(values.shape[0])
    column = (len(first),) + (1,) * (values.ndim - 1)
    out = np.zeros(values.shape)
    cells = out[1:]
    for j in range(6):
        cells += (weights[:, j] * spacing).reshape(column) * values[first + j]
    np.cumsum(cells, axis=0, out=cells)
    return np.moveaxis(out, 0, axis)
