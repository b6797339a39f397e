"""The augmented moduli space M x T^m built from a Hessian potential.

In the (u, x) coordinates the metric is the block form
sum phi_jk (du_j du_k + dx_j dx_k) with Kahler form -sum dv_k ^ dx_k and
holomorphic form dw_1 ^ ... ^ dw_m, w_j = u_j + i x_j.  The Kahler form is
closed by construction: dv_k = d(d_k phi) is exact.  The module computes the
Nijenhuis integrability residual of charts given by a period matrix function
lambda(t), the holomorphic-norm field, the Ricci form by the log-det identity
with the Christoffel-symbol oracle on the metric's two blocks as a second
route, and the m = 2 Gibbons-Hawking cross-check.  Every residual is read on
``fd.interior``: the three of a potential on one ``read_region``, the
Gibbons-Hawking curvature past EDGE + 1, all with their roundoff measured on
``roughened`` data; the Nijenhuis residual past EDGE boundary nodes.  The module
runs on numpy alone: the Gibbons-Hawking harmonic conjugate integrates with
the sixth-order ``fd.cumulative_quadrature``.
"""

import random
from dataclasses import dataclass

import numpy as np

from .errors import InputError, MetricError
from .fd import (EDGE, apply_diff, cumulative_quadrature, hessian_field, interior,
                 roundoff_floor, stencil_reach, two_grid_bound)
from .hessian import HessianPotential, hessian_det, hessian_det_field, row_blocks

SLAB_ROWS = 4  # nodes of grid axis 0 per slab of the Christoffel walk
METRIC_ROWS = 8  # nodes of grid axis 0 per metric build of the Christoffel walk


@dataclass
class SemiflatManifold:
    """Kahler data on M x T^m derived from a convex potential.

    Holds the potential and det of its Hessian per node, which must be
    positive; no (*grid, m, m) field is kept.  The metric of any rows of
    grid axis 0 is built on demand by ``metric_blocks``.
    """

    potential: HessianPotential
    metric_det: np.ndarray  # det of the metric block per node

    def __post_init__(self):
        if np.min(self.metric_det) <= 0:
            raise MetricError("metric determinant must be positive")

    def metric_blocks(self, lo=0, hi=None):
        """The blocks (H, H) of the metric blockdiag(H, H), stacked (rows,
        *grid[1:], 2, m, m), on nodes [lo, hi) of u-grid axis 0 (default: the
        whole grid); H is ``HessianPotential.hessian`` of those rows, from the
        potential on their stencils' reach, so bitwise that of the full field.
        """
        h = self.potential.hessian(lo, hi)
        return np.stack([h, h], axis=-3)


def build_semiflat(pot):
    """Assemble the semiflat manifold from a strictly convex potential.

    The metric block is the discrete Hessian; the manifold holds its
    determinant, ``hessian.hessian_det_field``, which raises on convexity
    loss and walks rows of the Hessian, so no grid-sized (*, m, m) field is
    formed.  No closedness residual is taken: the Kahler form
    -sum dv_k ^ dx_k is built from the exact forms dv_k = d(d_k phi), and the
    first-derivative stencils on different axes commute on every grid
    function, so its discrete closedness residual is roundoff.
    """
    return SemiflatManifold(pot, hessian_det_field(pot))


def read_region(shape):
    """The nodes every semiflat residual is read on: ``fd.interior`` past
    max(EDGE + 1, n // 8) nodes, n the smallest axis (the oracle nests three
    one-sided passes near the boundary); on 65, 129, 257, ... nodes it is
    the same box as on every other node."""
    return interior(shape, max(EDGE + 1, min(shape) // 8))


def roughened(pot):
    """``pot`` with ``_rough`` values: the data as rounding may leave it, so the
    change of a residual from ``pot`` to it is roundoff."""
    return HessianPotential(pot.axes, _rough(pot.values), pot.c)


def _rough(values):
    """``values`` times 1 + eps * xi, xi uniform on [-1, 1) from a fixed seed.
    The bits come from the standard library, since numpy.random would add
    5 MB of resident memory."""
    bits = np.frombuffer(random.Random(0).randbytes(8 * values.size), dtype=np.uint64)
    xi = ((bits >> np.uint64(11)) * 2.0 ** -52 - 1.0).reshape(values.shape)
    return values * (1.0 + np.finfo(float).eps * xi)


def _read(fields, sf, *twins):
    """(max |f| over the fields ``fields(sf)`` yields, then max |f - g| to
    those of each twin, a manifold on the same grid), in one lock-step walk."""
    tops = [(np.max(np.abs(f)), *(np.max(np.abs(f - g)) for g in others))
            for f, *others in zip(*map(fields, (sf, *twins)))]
    return tuple(float(max(column)) for column in zip(*tops))


def holomorphic_norm_field(sf, *twins):
    """Variation of the pointwise squared-norm ratio of the holomorphic m-form.

    The ratio equals 1/det(Hess phi) up to a fixed dimensional factor; its
    constancy is equivalent to the Monge-Ampere condition.  Returns max/min
    - 1 of the ratio on ``read_region``, then for each twin, a manifold on
    the same grid, how far max/min can move when each ratio moves by up to
    d, its largest change from ``sf`` to the twin: d / min * (1 + max / min),
    to first order.
    """
    region = read_region(sf.metric_det.shape)
    norm = 1.0 / sf.metric_det[region]
    top, bottom = np.max(norm), np.min(norm)
    changes = (np.max(np.abs(1.0 / twin.metric_det[region] - norm)) for twin in twins)
    return (float(top / bottom - 1.0),
            *(float(change / bottom * (1.0 + top / bottom)) for change in changes))


def ricci_form(sf, lo=0, hi=None):
    """R_jk = -1/2 d^2/du_j du_k log det(Hess phi) (Kahler log-det identity) on
    nodes [lo, hi) of u-grid axis 0 (default: the whole grid).

    log det is taken on the nodes the stencils of those rows read, and the
    Hessian is the window form of ``fd.hessian_field``, so the rows are
    bitwise those of the full field.
    """
    det = sf.metric_det
    n = det.shape[0]
    hi = n if hi is None else hi
    first, last = stencil_reach(n, 2, lo, hi)
    return -0.5 * hessian_field(np.log(det[first:last]), sf.potential.spacings, (lo, hi),
                                n, first)


def ricci_form_max(sf, *twins):
    """max |R_jk| of ``ricci_form`` on ``read_region``, then its changes (``_read``).

    Taken on blocks of nodes of grid axis 0 (``hessian.row_blocks``), so no
    grid-sized (*, m, m) tensor is formed; a max is exact, so the value is
    bitwise that of the full field.
    """
    return _read(_ricci_fields, sf, *twins)


def _ricci_fields(sf):
    shape = sf.metric_det.shape
    region = read_region(shape)
    for _, ric in row_blocks(lambda lo, hi: ricci_form(sf, lo, hi), shape, region[0].start,
                             shape[0] - region[0].start):
        yield ric[(slice(None),) + region[1:]]


def ricci_agreement(sf, *twins):
    """max deviation between the log-det Ricci form and the oracle's u-u block,
    and between its x-x and u-u blocks, on ``read_region`` (``_read``).

    The oracle walks the rows once (``_oracle_interior``; it forms no mixed
    u-x block, which is 0) and ``ricci_form`` is taken on ``METRIC_ROWS``
    rows at a time as it goes: no grid-sized tensor is formed, and the value
    is bitwise the full-array one.
    """
    return _read(_agreement_fields, sf, *twins)


def _agreement_fields(sf):
    shape = sf.metric_det.shape
    width = read_region(shape)[0].start
    kahler_rows = _RowWindow(lambda lo, hi: ricci_form(sf, lo, hi), shape[0] - width,
                             METRIC_ROWS)
    for index, ric in _oracle_interior(sf.metric_blocks, shape, sf.potential.spacings, width):
        rows = index[0]
        uu = ric[..., 0, :, :]
        yield uu - kahler_rows(rows.start, rows.stop)[(slice(None),) + index[1:]]
        yield ric[..., 1, :, :] - uu


def _oracle_interior(blocks, shape, spacings, width):
    """The oracle's Ricci blocks on ``interior(shape, width)``, one slab at a time.

    ``blocks(lo, hi)`` builds the blocks of a metric blockdiag(A, B), A on
    the p grid directions and B on p Killing ones, stacked (rows,
    *grid[1:], 2, p, p), on nodes [lo, hi) of grid axis 0.  ``_ricci_walk``
    walks the interior rows once, so the blocks are built once on each node
    the nested stencils read and on no other.
    Yields (index, ric) per slab: ``index`` selects its interior nodes of a
    grid field, ``ric`` (*, 2, p, p) holds R_ij and R_ab on them.
    """
    core = interior(shape, width)
    others = (slice(None),) + core[1:]
    for lo, hi, ric in _ricci_walk(blocks, spacings, shape[0], width, shape[0] - width):
        yield (slice(lo, hi),) + core[1:], ric[others]


def ricci_from_metric(blocks, spacings):
    """R_ij and R_ab, stacked (*grid, 2, p, p), of the metric blockdiag(A, B)
    given as its stacked blocks (*grid, 2, p, p) on a box grid, A on the p
    grid directions and B on p Killing ones: ``_ricci_walk`` down the whole
    of grid axis 0.  No command calls it: it holds the blocks and R on the
    whole grid, which the commands never form.
    """
    blocks = np.asarray(blocks, dtype=float)
    n = blocks.shape[0]
    ric = np.empty(blocks.shape)
    for lo, hi, rows in _ricci_walk(lambda lo, hi: blocks[lo:hi], spacings, n, 0, n):
        ric[lo:hi] = rows
    return ric


class _RowWindow:
    """Fields on a window of grid axis 0 that slides forward, each node built once.

    ``build(lo, hi)`` returns the field on axis-0 nodes [lo, hi).  Calling
    the window with (lo, hi), neither end below that of the call before,
    returns the field on those nodes as a view of its buffer, valid until
    the next call.  Nodes it holds are not built again; the others are built
    at least ``chunk`` at a time, up to node ``end``, and the held nodes from
    lo on move to the front of the buffer.
    """

    def __init__(self, build, end, chunk=1):
        self.build, self.end, self.chunk = build, end, chunk
        self.lo = self.hi = 0
        self.buffer = None

    def __call__(self, lo, hi):
        if hi > self.hi:
            kept = max(self.hi - lo, 0)
            top = min(max(hi, lo + kept + self.chunk), self.end)
            fresh = self.build(lo + kept, top)
            held = self.buffer
            if held is None or len(held) < top - lo:
                self.buffer = np.empty((top - lo,) + fresh.shape[1:])
            if kept:
                self.buffer[:kept] = held[lo - self.lo:self.hi - self.lo]
            self.buffer[kept:top - lo] = fresh
            self.lo, self.hi = lo, top
        return self.buffer[lo - self.lo:hi - self.lo]


def _ricci_walk(metric, spacings, n, start, stop):
    """R_ij and R_ab of blockdiag(A, B) on nodes [start, stop) of an n-node
    grid axis 0, walked once.

    Yields (lo, hi, ric) for consecutive slabs [lo, hi) of ``SLAB_ROWS``
    nodes, ``ric`` (*, 2, p, p) the ``_block_ricci`` of the slab.
    ``metric(lo, hi)`` gives the stacked blocks (*, 2, p, p) on axis-0 nodes
    [lo, hi); it is asked for ``METRIC_ROWS`` nodes at a time, never beyond
    the reach of the reach of [start, stop).  Two windows slide along the
    axis: the blocks on the reach of the first-derivative stencils of the
    rows whose Gamma is new, and ``_block_christoffel`` on the reach of the
    slab, whose halo the next slab shares, so each node's blocks, their
    inverses and Gamma are built once.
    """
    if start >= stop:
        return
    reach = stencil_reach(n, 1, start, stop)
    metric_rows = _RowWindow(metric, stencil_reach(n, 1, *reach)[1], METRIC_ROWS)

    def gamma(lo, hi):
        first, last = stencil_reach(n, 1, lo, hi)
        return _block_christoffel(metric_rows(first, last), spacings, n, first, lo, hi)

    gamma_rows = _RowWindow(gamma, reach[1])
    for lo in range(start, stop, SLAB_ROWS):
        hi = min(lo + SLAB_ROWS, stop)
        first, last = stencil_reach(n, 1, lo, hi)
        yield lo, hi, _block_ricci(gamma_rows(first, last), spacings, n, first, lo, hi)


def _block_christoffel(blocks, spacings, n, first, lo, hi):
    """The Christoffel symbols of blockdiag(A, B) that are not 0, on nodes
    [lo, hi) of grid axis 0; ``blocks`` (*, 2, p, p) holds A and B on axis
    nodes first, first + 1, ... of n.

    With grid indices i, j, k, l and Killing ones a, b, g, on which nothing
    depends, all but these and Gamma^a_bi = Gamma^a_ib vanish:

        Gamma^i_jk = 1/2 A^il (d_j A_lk + d_k A_lj - d_l A_jk),
        Gamma^i_ab = -1/2 A^il d_l B_ab,
        Gamma^a_ib = 1/2 B^ag d_i B_gb,

    returned (*, p, 3, p, p) as [..., i, 0, j, k], [..., i, 1, a, b] and
    [..., i, 2, a, b].
    """
    p = blocks.ndim - 3
    held = blocks[lo - first:hi - first]
    d = np.empty(held.shape + (p,))  # d[..., s, i, j, k] = d_k of block s at [i, j]
    d[..., 0] = apply_diff(blocks, 0, spacings[0], 1, nodes=(lo, hi), n=n, first=first)
    for axis in range(1, p):
        d[..., axis] = apply_diff(held, axis, spacings[axis], 1)
    da, db = d[..., 0, :, :, :], d[..., 1, :, :, :]
    sums = da.swapaxes(-1, -2) + da  # d_j A_lk + d_k A_lj - d_l A_jk at [l, j, k]
    sums -= np.moveaxis(da, -1, -3)
    a_inv, b_inv = _inverse(held[..., 0, :, :]), _inverse(held[..., 1, :, :])
    gamma = np.empty(held.shape[:-3] + (p, 3, p, p))
    _products([(a_inv[..., :, l, None, None], sums[..., None, l, :, :]) for l in range(p)],
              gamma[..., 0, :, :])
    _products([(a_inv[..., :, l, None, None], db[..., None, :, :, l]) for l in range(p)],
              gamma[..., 1, :, :])
    _products([(b_inv[..., None, :, g, None], db[..., g, :, None, :].swapaxes(-1, -3))
               for g in range(p)], gamma[..., 2, :, :])
    gamma *= np.array([0.5, -0.5, 0.5])[:, None, None]
    return gamma


def _block_ricci(gamma, spacings, n, first, start, stop):
    """R_jk and R_ab, stacked (*, 2, p, p), on nodes [start, stop) of grid
    axis 0 from the ``_block_christoffel`` window ``gamma`` on axis nodes
    first, first + 1, ... of n.  With c_j = Gamma^i_ij + Gamma^a_aj, the
    terms that are not 0 of R_bd = d_a Gamma^a_db - d_d Gamma^a_ab
    + Gamma^a_ae Gamma^e_db - Gamma^a_de Gamma^e_ab (summed over a, d = 0
    along Killing directions; no Riemann tensor is formed) give

        R_jk = d_i Gamma^i_kj - d_k c_j + c_l Gamma^l_kj - Gamma^i_kl Gamma^l_ij
               - Gamma^a_kb Gamma^b_ja,
        R_ab = d_i Gamma^i_ba + c_l Gamma^l_ba - Gamma^i_bg Gamma^g_ia
               - Gamma^g_lb Gamma^l_ga,

    and R_ia = 0.  One stencil pass per grid axis i takes d_i of Gamma^i_jk,
    Gamma^i_ab and c_j stacked; the derivative terms are added axis by axis,
    then the quadratic ones in the order above.
    """
    p = gamma.ndim - 4
    slab = slice(start - first, stop - first)
    c = np.zeros(gamma.shape[:-4] + (p,))
    for i in range(p):
        c += gamma[..., i, 0, i, :]
    for a in range(p):
        c += gamma[..., :, 2, a, a]

    def raised(rows, axis):  # (Gamma^axis_jk, Gamma^axis_ab, c_j) on the rows, flat
        block = gamma[rows, ..., axis, :2, :, :]
        return np.concatenate([block.reshape(block.shape[:-3] + (-1,)), c[rows]], axis=-1)

    grads = [apply_diff(raised(slice(None), 0), 0, spacings[0], 1, nodes=(start, stop), n=n,
                        first=first)]
    grads += [apply_diff(raised(slab, axis), axis, spacings[axis], 1) for axis in range(1, p)]
    g = gamma[slab]
    ga, gb, gk, cs = g[..., 0, :, :], g[..., 1, :, :], g[..., 2, :, :], c[slab]
    ric = np.zeros(g.shape[:-4] + (2, p, p))
    grid, killing = ric[..., 0, :, :], ric[..., 1, :, :]
    for axis, grad in enumerate(grads):
        grid += grad[..., :p * p].reshape(grid.shape).swapaxes(-1, -2)
        grid[..., axis] -= grad[..., 2 * p * p:]
        killing += grad[..., p * p:2 * p * p].reshape(grid.shape).swapaxes(-1, -2)
    pairs = [(i, j) for i in range(p) for j in range(p)]
    grid += _products([(cs[..., l, None, None], ga[..., l, :, :].swapaxes(-1, -2))
                       for l in range(p)])
    grid -= _products([(ga[..., l, i, :, None], ga[..., i, None, :, l]) for i, l in pairs])
    grid -= _products([(gk[..., :, b, a, None], gk[..., None, :, a, b]) for a, b in pairs])
    killing += _products([(cs[..., l, None, None], gb[..., l, :, :].swapaxes(-1, -2))
                          for l in range(p)])
    killing -= _products([(gk[..., i, g, :, None], gb[..., i, None, :, g]) for i, g in pairs])
    killing -= _products([(gb[..., l, g, :, None], gk[..., l, g, None, :]) for l, g in pairs])
    return ric


def _products(pairs, out=None):
    """The sum of a * b over ``pairs``, added in turn, into ``out`` if given: the
    contractions of the block walk, several times faster than ``np.einsum``
    on its small (*, p, p) stacks."""
    (a, b), *rest = pairs
    out = np.multiply(a, b, out=out)
    for a, b in rest:
        out += a * b
    return out


def _inverse(mat):
    """Inverse of each symmetric matrix of a stack (*, m, m): the adjugate over
    ``hessian.hessian_det`` for m <= 2, LAPACK's for m >= 3."""
    m = mat.shape[-1]
    if m > 2:
        return np.linalg.inv(mat)
    if m == 1:
        return 1.0 / mat
    adjugate = mat[..., ::-1, ::-1] * np.array([[1.0, -1.0], [-1.0, 1.0]])
    return adjugate / hessian_det(mat)[..., None, None]


def nijenhuis_residual(lam_fn, axes):
    """Max norm of the Nijenhuis tensor of the chart structure on (t, x).

    The almost complex structure sends d/dt_j to sum_i lambda_ij d/dx_i; it is
    integrable precisely when lambda is the Jacobian of some u(t).
    """
    axes = [np.asarray(ax, dtype=float) for ax in axes]
    m = len(axes)
    pts = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1)
    lam = lam_fn(pts)
    if np.min(np.abs(np.linalg.det(lam))) < 1e-12:
        raise InputError("lambda(t) is singular somewhere on the chart")
    d = 2 * m
    j = np.zeros(pts.shape[:-1] + (d, d))
    j[..., :m, m:] = -np.linalg.inv(lam)
    j[..., m:, :m] = lam
    spacings = [float(ax[1] - ax[0]) for ax in axes]
    dj = np.zeros(j.shape + (d,))
    for axis in range(m):
        dj[..., axis] = apply_diff(j, axis, spacings[axis], 1)
    # N^e_{ab} = J^e_d (d_a J^d_b - d_b J^d_a) - (J^d_a d_d J^e_b - J^d_b d_d J^e_a)
    curl = np.einsum("...ed,...dba->...eab", j, dj) - np.einsum(
        "...ed,...dab->...eab", j, dj
    )
    drag = np.einsum("...da,...ebd->...eab", j, dj) - np.einsum(
        "...db,...ead->...eab", j, dj
    )
    nij = curl - drag
    return float(np.max(np.abs(nij[interior(pts.shape[:-1], EDGE)])))


def hessian_chart(fn_hess):
    """Wrap a Hessian-valued function of t as a vectorized lambda(t)."""

    def lam(pts):
        pts = np.asarray(pts, dtype=float)
        flat = pts.reshape(-1, pts.shape[-1])
        out = np.stack([np.asarray(fn_hess(t), dtype=float) for t in flat])
        return out.reshape(pts.shape[:-1] + out.shape[-2:])

    return lam


@dataclass
class GibbonsHawkingMetric:
    """The metric of V on a (y1, y2) grid; W, the harmonic conjugate (dA = *dV),
    is built from V on construction.  A ``coarsened`` or ``roughened`` metric
    is not gated again, so its harmonic_* entries are None."""

    axes: list
    potential_v: np.ndarray
    harmonic_residual: float = None
    harmonic_tol: float = None

    def __post_init__(self):
        self.spacings = [float(ax[1] - ax[0]) for ax in self.axes]
        self.conjugate_w = _harmonic_conjugate(self.potential_v, self.spacings)

    def blocks(self, lo=0, hi=None):
        """The blocks of g = V (dy1^2 + dy2^2 + dy3^2) + V^{-1} (dtau + W dy3)^2,
        A = V I_2 on (y1, y2) and B = [[V + W^2 / V, W / V], [W / V, 1 / V]] on
        (y3, tau), det B = 1, stacked (rows, n_2, 2, 2, 2) on nodes [lo, hi)
        of grid axis 0 (default: the whole grid)."""
        v, w = self.potential_v[lo:hi], self.conjugate_w[lo:hi]
        zero, ratio = np.zeros(v.shape), w / v
        return np.stack([v, zero, zero, v, v + w ** 2 / v, ratio, ratio, 1.0 / v],
                        axis=-1).reshape(v.shape + (2, 2, 2))

    def coarsened(self):
        """The metric of V on every other node of each axis."""
        return GibbonsHawkingMetric([ax[::2] for ax in self.axes], self.potential_v[::2, ::2])

    def roughened(self):
        """The metric of ``_rough`` V, as ``roughened`` is of a potential."""
        return GibbonsHawkingMetric(self.axes, _rough(self.potential_v))


def gh_metric(v_values, axes):
    """Gibbons-Hawking 4-metric from a positive harmonic function of (y1, y2).

    V is harmonic when max |Laplacian V| is below ``harmonic_tol``, the
    two-grid bound (``fd.two_grid_bound``) from the Laplacian on every other
    node, and never below 10 times its roundoff floor (``fd.roundoff_floor``
    of the two second-derivative passes), which an exactly harmonic V reaches
    on fine grids.
    """
    axes = [np.asarray(ax, dtype=float) for ax in axes]
    v = np.asarray(v_values, dtype=float)
    if v.shape != (len(axes[0]), len(axes[1])):
        raise InputError("V must be sampled on the (y1, y2) grid")
    spacings = [float(ax[1] - ax[0]) for ax in axes]
    harmonic_residual = _laplacian_max(v, spacings)
    coarse = _laplacian_max(v[::2, ::2], [float(ax[2] - ax[0]) for ax in axes])
    scale = np.max(np.abs(v))
    harmonic_tol = two_grid_bound(coarse, sum(roundoff_floor(scale, h, 2) for h in spacings))
    if harmonic_residual > harmonic_tol:
        raise InputError(f"V is not harmonic: ||Laplacian||_inf = {harmonic_residual:.3e} "
                         f"above {harmonic_tol:.3e}")
    if not np.min(v) > 0:  # a NaN fails this test too
        raise InputError("V must be positive on the whole domain")
    return GibbonsHawkingMetric(axes, v, harmonic_residual, harmonic_tol)


def gh_ricci_max(gh, *twins):
    """max |Ric| of a ``GibbonsHawkingMetric``, stencil error of a Ricci-flat
    metric, past EDGE + 1 boundary nodes (``_read``).  The oracle walks each
    metric's rows once (``_oracle_interior``) and forms R_ij and R_ab (the
    mixed block is 0): no grid-sized metric or Ricci."""
    return _read(lambda metric: (ric for _, ric in _oracle_interior(
        metric.blocks, metric.potential_v.shape, metric.spacings, EDGE + 1)), gh, *twins)


def _laplacian_max(v, spacings):
    """max |V_11 + V_22| over the whole grid."""
    laplacian = apply_diff(v, 0, spacings[0], 2)
    laplacian += apply_diff(v, 1, spacings[1], 2)
    return float(max(np.max(laplacian), -np.min(laplacian)))


def _harmonic_conjugate(v, spacings):
    """W with dW = -V_2 dy1 + V_1 dy2 and W = 0 at the first corner.

    W(y1, y2) = int_0^y1 -V_2(s, 0) ds + int_0^y2 V_1(y1, t) dt, both with the
    sixth-order cumulative quadrature; V_2 is taken on column 0 alone.
    """
    w = cumulative_quadrature(apply_diff(v, 0, spacings[0], 1), spacings[1], axis=1)
    n = v.shape[1]
    v2 = apply_diff(v[:, :stencil_reach(n, 1, 0, 1)[1]], 1, spacings[1], 1, nodes=(0, 1), n=n)
    w += cumulative_quadrature(-v2[:, 0], spacings[0])[:, None]
    return w
