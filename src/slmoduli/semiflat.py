"""The augmented moduli space M x T^m built from a Hessian potential.

In the (u, x) coordinates the metric is the block form
sum phi_jk (du_j du_k + dx_j dx_k) with Kahler form -sum dv_k ^ dx_k and
holomorphic form dw_1 ^ ... ^ dw_m, w_j = u_j + i x_j.  The Kahler form is
closed by construction: dv_k = d(d_k phi) is exact.  The module computes the
Nijenhuis integrability residual of charts given by a period matrix function
lambda(t), the holomorphic-norm field, the Ricci form by the log-det identity
with a Christoffel-symbol oracle as an independent second route, and the
m = 2 Gibbons-Hawking cross-check.  Every residual is read on
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
from .hessian import HessianPotential, hessian_det_field, row_blocks

SLAB_ROWS = 4  # nodes of grid axis 0 per slab of the Christoffel walk
METRIC_ROWS = 8  # nodes of grid axis 0 per metric build of the Christoffel walk


@dataclass
class SemiflatManifold:
    """Kahler data on M x T^m derived from a convex potential.

    Holds the potential and det of its Hessian per node, which must be
    positive; no (*grid, m, m) field is kept.  The metric of any rows of
    grid axis 0 is built on demand by ``full_metric``.
    """

    potential: HessianPotential
    metric_det: np.ndarray  # det of the metric block per node

    def __post_init__(self):
        if np.min(self.metric_det) <= 0:
            raise MetricError("metric determinant must be positive")

    @property
    def m(self):
        return self.potential.dim

    def full_metric(self, lo=0, hi=None):
        """Real 2m x 2m metric field blockdiag(H, H) on nodes [lo, hi) of u-grid
        axis 0 (default: the whole grid).

        H is ``HessianPotential.hessian`` of those rows, from the potential on
        their stencils' reach, so the rows are bitwise those of the full field.
        """
        m = self.m
        h = self.potential.hessian(lo, hi)
        g = np.zeros(h.shape[:-2] + (2 * m, 2 * m))
        g[..., :m, :m] = h
        g[..., m:, m:] = h
        return g


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
    """max deviation between the log-det Ricci form and the oracle, and
    between the oracle's x-x and u-u blocks, on ``read_region`` (``_read``).

    The mixed u-x block is exactly 0.0 (g_ux is an exact zero, which
    ``np.linalg.inv`` and every mixed term of the contraction keep), so it
    is not read.  The oracle walks the rows once (``_oracle_interior``) and
    ``ricci_form`` is taken on ``METRIC_ROWS`` rows at a time as it goes: no
    grid-sized tensor is formed, and the value is bitwise the full-array one.
    """
    return _read(_agreement_fields, sf, *twins)


def _agreement_fields(sf):
    m = sf.m
    shape = sf.metric_det.shape
    width = read_region(shape)[0].start
    kahler_rows = _RowWindow(lambda lo, hi: ricci_form(sf, lo, hi), shape[0] - width,
                             METRIC_ROWS)
    for index, oracle in _oracle_interior(sf.full_metric, shape, sf.potential.spacings, width):
        rows = index[0]
        uu = oracle[..., :m, :m]
        yield uu - kahler_rows(rows.start, rows.stop)[(slice(None),) + index[1:]]
        yield oracle[..., m:, m:] - uu


def _oracle_interior(metric, shape, spacings, width):
    """The oracle's Ricci tensor on ``interior(shape, width)``, one slab at a time.

    ``metric(lo, hi)`` builds the metric field on nodes [lo, hi) of grid
    axis 0.  The interior rows are walked once by ``_ricci_walk``, in slabs
    of ``SLAB_ROWS`` nodes from the first interior row, so the metric is
    built once on each node the nested stencils read and on no other.
    Yields (index, ric) for each slab: ``index`` selects the slab's
    interior nodes of a grid field, ``ric`` is the tensor on them.
    """
    core = interior(shape, width)
    others = (slice(None),) + core[1:]
    for lo, hi, ric in _ricci_walk(metric, spacings, shape[0], width, shape[0] - width):
        yield (slice(lo, hi),) + core[1:], ric[others]


def ricci_from_metric(components, spacings):
    """Numerical Ricci tensor of a metric field on a box grid.

    The grid axes correspond to the first p coordinates; the remaining
    coordinates are Killing directions (derivatives vanish).  All derivatives
    use the shared fourth-order stencils.  The Riemann tensor is never
    formed: from the Christoffel symbols Gamma^a_{bc},

        R_bd = sum_a R^a_{bad}
             = sum_a d_a Gamma^a_{db} - d_d Gamma^a_{ab}
                     + Gamma^a_{ae} Gamma^e_{db} - Gamma^a_{de} Gamma^e_{ab},

    with d_a = 0 for a >= p.  The stencils are linear, so this is the discrete
    operator of the full R^a_{bcd} contraction.  Per a, the terms are added
    in this order: -d_d Gamma^a_{ab} for each grid axis d, then
    d_a Gamma^a_{db}, then the two quadratic terms; the terms of a = 0 ... d - 1
    are summed in turn.

    The grid is walked once by ``_ricci_walk``, in slabs of ``SLAB_ROWS``
    nodes, carrying the Christoffel symbols of the rows two neighbouring
    slabs share, so the metric derivatives, g^{-1} and Gamma are formed once
    on each node.  Beyond the input and the result, the tracemalloc peak is
    about one (SLAB_ROWS + 4)-row (*, d, d, d) Gamma window plus, on the
    SLAB_ROWS rows each slab adds, Gamma and the two (*, d, d, p) arrays of
    the metric derivatives and g^{ae} d_b g_{ec} on the p grid slots.
    ``fd.apply_diff`` gives each node the same arithmetic on a slab as on the
    full grid, so the result is bitwise the full-array assembly kept in
    tests/test_semiflat.py.
    """
    components = np.asarray(components, dtype=float)
    n = components.shape[0]
    ric = np.empty(components.shape)
    for lo, hi, rows in _ricci_walk(lambda lo, hi: components[lo:hi], spacings, n, 0, n):
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
    """R on nodes [start, stop) of an n-node grid axis 0, walked once.

    Yields (lo, hi, ric) for consecutive slabs [lo, hi) of ``SLAB_ROWS``
    nodes, ``ric`` the Ricci tensor on the slab.  ``metric(lo, hi)`` gives
    the metric on axis-0 nodes [lo, hi); it is asked for ``METRIC_ROWS``
    nodes at a time, never beyond the reach of the reach of [start, stop).
    Two windows slide along the axis: the metric on the reach of the
    first-derivative stencils of the rows whose Gamma is new, and Gamma on
    the reach of the slab.  Consecutive slabs share the halo of their
    reaches (4 rows inside the grid), which the Gamma window carries over,
    so each node's metric, derivatives, inverse and Gamma are built once.
    Gamma^a_{ab} is a view of the Gamma window.
    """
    if start >= stop:
        return
    reach = stencil_reach(n, 1, start, stop)
    metric_rows = _RowWindow(metric, stencil_reach(n, 1, *reach)[1], METRIC_ROWS)

    def christoffel(lo, hi):
        first, last = stencil_reach(n, 1, lo, hi)
        return _christoffel(metric_rows(first, last), spacings, n, first, lo, hi)

    gamma_rows = _RowWindow(christoffel, reach[1])
    for lo in range(start, stop, SLAB_ROWS):
        hi = min(lo + SLAB_ROWS, stop)
        first, last = stencil_reach(n, 1, lo, hi)
        yield lo, hi, _ricci_slab(gamma_rows(first, last), spacings, n, first, lo, hi)


def _ricci_slab(gamma, spacings, n, first, start, stop):
    """R_bd on nodes [start, stop) of grid axis 0 from Gamma held on nodes
    first, first + 1, ... of the n-node axis, at least the reach of the
    slab's first-derivative stencils."""
    p = gamma.ndim - 3
    d = gamma.shape[-1]
    slab = slice(start - first, stop - first)
    diagonal = np.einsum("...aab->...ab", gamma)  # Gamma^a_{ab}, not summed over a
    # grads[axis][..., 0, a, b] = d_axis Gamma^a_{ab} and grads[axis][..., 1, :, :] =
    # d_axis Gamma^axis_{..}: one stencil pass per axis, of both stacked
    grads = [apply_diff(np.stack([diagonal, gamma[..., 0, :, :]], axis=-3), 0, spacings[0], 1,
                        nodes=(start, stop), n=n, first=first)]
    grads += [apply_diff(np.stack([diagonal[slab], gamma[slab, ..., axis, :, :]], axis=-3),
                         axis, spacings[axis], 1) for axis in range(1, p)]
    gamma_slab = gamma[slab]
    # [..., e, d * d + b] = Gamma^e_{db}
    gamma_rows = gamma_slab.reshape(gamma_slab.shape[:-3] + (d, d * d))
    ric = np.zeros(gamma_slab.shape[:-1])
    for a in range(d):
        term = np.zeros(ric.shape)  # R^a_{bad}, indexed [b, d]
        for axis in range(p):
            term[..., axis] -= grads[axis][..., 0, a, :]
        if a < p:  # d_a Gamma^a_{db}
            np.add(grads[a][..., 1, :, :].swapaxes(-1, -2), term, out=term)
        # Gamma^a_{ae} Gamma^e_{db} and Gamma^a_{de} Gamma^e_{ab} as batched matmul
        term += (diagonal[slab, ..., a, None, :] @ gamma_rows).reshape(ric.shape).swapaxes(-1, -2)
        term -= (gamma_slab[..., a, :, :] @ gamma_slab[..., :, a, :]).swapaxes(-1, -2)
        ric += term
    return ric


def _christoffel(components, spacings, n, first, lo, hi):
    """Gamma^a_{bc} = 1/2 g^{ae} (d_b g_{ec} + d_c g_{eb} - d_e g_{bc}) on nodes
    [lo, hi) of grid axis 0; ``components`` holds axis nodes first, first + 1,
    ... of n.

    d_e = 0 along the Killing directions, so the metric derivatives are held
    and contracted on the p grid slots only: g^{ae} d_b g_{ec} for b < p and
    g^{ae} d_e g_{bc} summed over e < p.  Gamma is built in place from the
    negated second, with the first added into its [b < p] and [c < p] slices.
    """
    p = components.ndim - 2
    held = components[lo - first:hi - first]
    dg = np.empty(held.shape + (p,))  # dg[..., i, j, k] = d_k g_ij
    dg[..., 0] = apply_diff(components, 0, spacings[0], 1, nodes=(lo, hi), n=n, first=first)
    for axis in range(1, p):
        dg[..., axis] = apply_diff(held, axis, spacings[axis], 1)
    ginv = np.linalg.inv(held)
    raised = np.einsum("...ae,...ecb->...abc", ginv, dg)  # g^{ae} d_b g_{ec}, b < p
    gamma = np.einsum("...ae,...bce->...abc", ginv[..., :p], dg)  # g^{ae} d_e g_{bc}
    del dg, ginv
    np.negative(gamma, out=gamma)
    gamma[..., :p, :] += raised
    gamma[..., :, :p] += raised.swapaxes(-1, -2)
    del raised
    gamma *= 0.5
    return gamma


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

    def components(self, lo=0, hi=None):
        """g = V (dy1^2 + dy2^2 + dy3^2) + V^{-1} (dtau + W dy3)^2 on nodes
        [lo, hi) of grid axis 0 (default: the whole grid), (rows, n_2, 4, 4)
        in (y1, y2, y3, tau)."""
        v, w = self.potential_v[lo:hi], self.conjugate_w[lo:hi]
        g = np.zeros(v.shape + (4, 4))
        g[..., 0, 0] = v
        g[..., 1, 1] = v
        g[..., 2, 2] = v + w ** 2 / v
        g[..., 2, 3] = g[..., 3, 2] = w / v
        g[..., 3, 3] = 1.0 / v
        return g

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
    metric's rows once (``_oracle_interior``): no grid-sized metric or Ricci."""
    return _read(lambda metric: (ric for _, ric in _oracle_interior(
        metric.components, metric.potential_v.shape, metric.spacings, EDGE + 1)), gh, *twins)


def _laplacian_max(v, spacings):
    """max |V_11 + V_22| over the whole grid."""
    return float(np.max(np.abs(apply_diff(v, 0, spacings[0], 2)
                               + apply_diff(v, 1, spacings[1], 2))))


def _harmonic_conjugate(v, spacings):
    """W with dW = -V_2 dy1 + V_1 dy2 and W = 0 at the first corner.

    W(y1, y2) = int_0^y1 -V_2(s, 0) ds + int_0^y2 V_1(y1, t) dt, both with the
    sixth-order cumulative quadrature.
    """
    v1 = apply_diff(v, 0, spacings[0], 1)
    v2 = apply_diff(v, 1, spacings[1], 1)
    w = cumulative_quadrature(v1, spacings[1], axis=1)
    w += cumulative_quadrature(-v2[:, 0], spacings[0])[:, None]
    return w
