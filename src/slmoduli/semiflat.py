"""The augmented moduli space M x T^m built from a Hessian potential.

In the (u, x) coordinates the metric is the block form
sum phi_jk (du_j du_k + dx_j dx_k) with Kahler form -sum dv_k ^ dx_k and
holomorphic form dw_1 ^ ... ^ dw_m, w_j = u_j + i x_j.  The Kahler form is
closed by construction: dv_k = d(d_k phi) is exact.  The module computes the
Nijenhuis integrability residual of charts given by a period matrix function
lambda(t), the holomorphic-norm field, the Ricci form by the log-det identity
with a Christoffel-symbol oracle as an independent second route, and the
m = 2 Gibbons-Hawking cross-check.  Every residual is read on
``fd.interior``: EDGE boundary nodes are dropped for a single derivative
pass, EDGE + 1 for the nested passes of a curvature.  The module runs on
numpy alone: the Gibbons-Hawking harmonic conjugate integrates with the
sixth-order ``fd.cumulative_quadrature``.
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import InputError, MetricError
from .fd import (EDGE, apply_diff, cumulative_quadrature, hessian_field, interior,
                 stencil_reach)
from .hessian import HessianPotential, hessian_metric

SLAB_ROWS = 16  # nodes of grid axis 0 per slab of ricci_from_metric


@dataclass
class SemiflatManifold:
    """Kahler data on M x T^m derived from a convex potential."""

    potential: HessianPotential
    metric_block: np.ndarray  # (*u-grid, m, m), both blocks identical

    @property
    def m(self):
        return self.potential.dim

    @cached_property
    def metric_det(self):
        """det of the metric block per node; must be positive.

        Taken on first use and kept, so ``metric_block`` must not be
        reassigned after that.
        """
        det = np.linalg.det(self.metric_block)
        if np.min(det) <= 0:
            raise MetricError("metric determinant must be positive")
        return det

    def full_metric(self):
        """Real 2m x 2m metric field blockdiag(H, H) over the u-grid."""
        m = self.m
        h = self.metric_block
        g = np.zeros(h.shape[:-2] + (2 * m, 2 * m))
        g[..., :m, :m] = h
        g[..., m:, m:] = h
        return g


def build_semiflat(pot):
    """Assemble the semiflat manifold from a strictly convex potential.

    The metric block is the discrete Hessian (``hessian_metric``, which raises
    on convexity loss).  No closedness residual is taken: the Kahler form
    -sum dv_k ^ dx_k is built from the exact forms dv_k = d(d_k phi), and the
    first-derivative stencils on different axes commute on every grid
    function, so its discrete closedness residual is roundoff.
    """
    return SemiflatManifold(pot, hessian_metric(pot))


def holomorphic_norm_field(sf):
    """Pointwise squared-norm ratio of the holomorphic m-form, up to a constant.

    Equals 1/det(Hess phi) up to a fixed dimensional factor; constancy is
    equivalent to the Monge-Ampere condition.
    """
    norm = 1.0 / sf.metric_det
    core = norm[interior(norm.shape, EDGE)]
    variation = float(np.max(core) / np.min(core) - 1.0)
    return {"field": norm, "variation": variation}


def ricci_form(sf):
    """R_jk = -1/2 d^2/du_j du_k log det(Hess phi) (Kahler log-det identity)."""
    return -0.5 * hessian_field(np.log(sf.metric_det), sf.potential.spacings)


def ricci_agreement(sf, kahler):
    """max interior deviation between the log-det Ricci ``kahler`` and the oracle.

    ``kahler`` is ``ricci_form(sf)``, which the caller already holds.  Also
    checks that the oracle's x-x block repeats its u-u block.  The mixed u-x
    block is not read: it is exactly 0.0, because g_ux is an exact zero,
    ``np.linalg.inv`` keeps the zero blocks of blockdiag(H, H), and every
    mixed term of the contraction has a zero factor.  The boundary layer it
    drops, max(EDGE + 1, n // 8) nodes for the smallest axis of n nodes, grows
    with the grid because the oracle stacks three one-sided derivative passes
    near the boundary.
    """
    m = sf.m
    shape = sf.potential.values.shape
    core = interior(shape, max(EDGE + 1, min(shape) // 8))
    g = sf.full_metric()
    oracle = ricci_from_metric(g, sf.potential.spacings)
    dev = np.max(np.abs(oracle[core + (slice(None, m), slice(None, m))]
                        - kahler[core]))
    block = np.max(np.abs(oracle[core + (slice(m, None), slice(m, None))]
                          - oracle[core + (slice(None, m), slice(None, m))]))
    return float(max(dev, block))


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

    Grid axis 0 is walked in slabs of ``SLAB_ROWS`` nodes.  For each slab the
    metric derivatives, g^{-1} and Gamma are formed on the slab and the reach
    of its first-derivative stencils along axis 0 (``fd.stencil_reach``, two
    nodes per side inside the grid), and R on the slab alone.  Only the input
    and the result are full-grid arrays; the tracemalloc peak is the result,
    N d^2 doubles for N grid nodes, plus about three (SLAB_ROWS + 4)-row
    (*, d, d, d) arrays: at 257^2 and d = 4 about 17 MB, half of N d^3
    doubles.  ``fd.apply_diff`` gives each node the same arithmetic on a slab
    as on the full grid, so the result is bitwise that of the full-array
    assembly kept in tests/test_semiflat.py.
    """
    components = np.asarray(components, dtype=float)
    n = components.shape[0]
    ric = np.zeros(components.shape)
    for start in range(0, n, SLAB_ROWS):
        stop = min(start + SLAB_ROWS, n)
        _ricci_slab(components, spacings, start, stop, ric[start:stop])
    return ric


def _ricci_slab(components, spacings, start, stop, out):
    """Add R_bd on nodes [start, stop) of grid axis 0 into ``out``."""
    p = components.ndim - 2
    d = components.shape[-1]
    n = components.shape[0]
    lo, hi = stencil_reach(n, 1, start, stop)
    slab = slice(start - lo, stop - lo)

    def grad(held, axis):
        """d_axis on the slab of a field held on nodes [lo, hi) of axis 0."""
        if axis == 0:
            return apply_diff(held, 0, spacings[0], 1, nodes=(start, stop), n=n, first=lo)
        return apply_diff(held[slab], axis, spacings[axis], 1)

    gamma = _christoffel(components, spacings, lo, hi)
    diagonal = np.einsum("...aab->...ab", gamma)  # Gamma^a_{ab}, not summed over a
    diagonal_grad = [grad(diagonal, axis) for axis in range(p)]
    for a in range(d):
        term = np.zeros(out.shape)  # R^a_{bad}, indexed [b, d]
        for axis in range(p):
            term[..., axis] -= diagonal_grad[axis][..., a, :]
        if a < p:
            d_gamma = grad(gamma[..., a, :, :], a)  # d_a Gamma^a_{db}
            np.add(d_gamma.swapaxes(-1, -2), term, out=term)
        term += np.einsum("...e,...edb->...bd", diagonal[slab, ..., a, :], gamma[slab])
        term -= np.einsum("...de,...eb->...bd", gamma[slab, ..., a, :, :],
                          gamma[slab, ..., :, a, :])
        out += term


def _christoffel(components, spacings, lo, hi):
    """Gamma^a_{bc} = 1/2 g^{ae} (d_b g_{ec} + d_c g_{eb} - d_e g_{bc}) on nodes
    [lo, hi) of grid axis 0, with d_e = 0 along the Killing directions."""
    p = components.ndim - 2
    d = components.shape[-1]
    held = components[lo:hi]
    dg = np.zeros(held.shape + (d,))  # dg[..., i, j, k] = d_k g_ij
    dg[..., 0] = apply_diff(components, 0, spacings[0], 1, nodes=(lo, hi))
    for axis in range(1, p):
        dg[..., axis] = apply_diff(held, axis, spacings[axis], 1)
    ginv = np.linalg.inv(held)
    raised = np.einsum("...ae,...ecb->...abc", ginv, dg)  # g^{ae} d_b g_{ec}
    metric_grad = np.einsum("...ae,...bce->...abc", ginv, dg)  # g^{ae} d_e g_{bc}
    del dg, ginv
    gamma = raised + np.swapaxes(raised, -1, -2)
    del raised
    gamma -= metric_grad
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
    axes: list
    potential_v: np.ndarray
    conjugate_w: np.ndarray
    components: np.ndarray  # (*grid, 4, 4) in (y1, y2, y3, tau)
    ricci_max: float
    harmonic_residual: float


def gh_metric(v_values, axes, tol=1e-8):
    """Gibbons-Hawking 4-metric from a positive harmonic function of (y1, y2).

    g = V (dy1^2 + dy2^2 + dy3^2) + V^{-1} (dtau + W dy3)^2 where W is the
    harmonic conjugate of V, so that the connection satisfies dA = *dV.
    Returns the assembled metric and its max |Ricci| via the Christoffel
    oracle; the construction is Ricci-flat, so the residual is pure stencil
    error, read past EDGE + 1 boundary nodes.
    """
    axes = [np.asarray(ax, dtype=float) for ax in axes]
    v = np.asarray(v_values, dtype=float)
    if v.shape != (len(axes[0]), len(axes[1])):
        raise InputError("V must be sampled on the (y1, y2) grid")
    spacings = [float(ax[1] - ax[0]) for ax in axes]
    lap = apply_diff(v, 0, spacings[0], 2) + apply_diff(v, 1, spacings[1], 2)
    harmonic_residual = float(np.max(np.abs(lap)))
    if harmonic_residual > tol:
        raise InputError(
            f"V is not harmonic: ||Laplacian||_inf = {harmonic_residual:.3e}"
        )
    if np.min(v) <= 0:
        raise InputError("V must be positive on the whole domain")
    w = _harmonic_conjugate(v, spacings)
    g = np.zeros(v.shape + (4, 4))
    g[..., 0, 0] = v
    g[..., 1, 1] = v
    g[..., 2, 2] = v + w ** 2 / v
    g[..., 2, 3] = g[..., 3, 2] = w / v
    g[..., 3, 3] = 1.0 / v
    ric = ricci_from_metric(g, spacings)
    core = ric[interior(v.shape, EDGE + 1)]
    return GibbonsHawkingMetric(
        axes, v, w, g, float(np.max(np.abs(core))), harmonic_residual
    )


def _harmonic_conjugate(v, spacings):
    """W with dW = -V_2 dy1 + V_1 dy2 and W = 0 at the first corner.

    W(y1, y2) = int_0^y1 -V_2(s, 0) ds + int_0^y2 V_1(y1, t) dt, both with the
    sixth-order cumulative quadrature.
    """
    v1 = apply_diff(v, 0, spacings[0], 1)
    v2 = apply_diff(v, 1, spacings[1], 1)
    c0 = cumulative_quadrature(v.shape[0], spacings[0])
    c1 = cumulative_quadrature(v.shape[1], spacings[1])
    return (c0 @ -v2[:, 0])[:, None] + v1 @ c1.T
