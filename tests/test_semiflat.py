"""Semiflat Kahler structure, curvature double-entry, integrability, GH."""

import tracemalloc

import numpy as np
import pytest

from slmoduli import cli, semiflat
from slmoduli.errors import InputError, MetricError
from slmoduli.fd import (EDGE, apply_diff, interior, roundoff_floor, stencil_reach,
                         two_grid_bound)
from slmoduli.hessian import HessianPotential, solve_ma_dirichlet
from slmoduli.semiflat import (
    METRIC_ROWS,
    SLAB_ROWS,
    SemiflatManifold,
    build_semiflat,
    gh_metric,
    gh_ricci_max,
    hessian_chart,
    holomorphic_norm_field,
    nijenhuis_residual,
    ricci_agreement,
    ricci_form,
    ricci_from_metric,
)


def _quartic_potential(n=65):
    axes = [np.linspace(-1, 1, n)] * 2
    return HessianPotential.from_function(
        axes, lambda a, b: a ** 4 / 12 + a ** 2 / 2 + b ** 2 / 2, c=1.0
    )


def full_metric(sf, lo=0, hi=None):
    """Real 2m x 2m metric field blockdiag(H, H) of a semiflat manifold on
    nodes [lo, hi) of u-grid axis 0 (default: the whole grid)."""
    m = sf.potential.dim
    h = sf.potential.hessian(lo, hi)
    g = np.zeros(h.shape[:-2] + (2 * m, 2 * m))
    g[..., :m, :m] = h
    g[..., m:, m:] = h
    return g


def gh_components(gh, lo=0, hi=None):
    """g = V (dy1^2 + dy2^2 + dy3^2) + V^{-1} (dtau + W dy3)^2 of a
    ``GibbonsHawkingMetric`` on nodes [lo, hi) of grid axis 0, (rows, n_2, 4, 4)
    in (y1, y2, y3, tau)."""
    v, w = gh.potential_v[lo:hi], gh.conjugate_w[lo:hi]
    g = np.zeros(v.shape + (4, 4))
    g[..., 0, 0] = v
    g[..., 1, 1] = v
    g[..., 2, 2] = v + w ** 2 / v
    g[..., 2, 3] = g[..., 3, 2] = w / v
    g[..., 3, 3] = 1.0 / v
    return g


def _block_diagonal(blocks):
    """blockdiag(A, B) of the stacked (*, 2, p, p) blocks of the oracle."""
    p = blocks.shape[-1]
    g = np.zeros(blocks.shape[:-3] + (2 * p, 2 * p))
    g[..., :p, :p] = blocks[..., 0, :, :]
    g[..., p:, p:] = blocks[..., 1, :, :]
    return g


def test_full_metric_block_structure_and_hermitian():
    sf = build_semiflat(_quartic_potential(33))
    g = full_metric(sf)
    assert g.shape[-2:] == (4, 4)
    assert np.max(np.abs(g[..., :2, 2:])) == 0.0
    assert np.max(np.abs(g[..., 2:, :2])) == 0.0
    # blockdiag(H, H) is J-invariant for the standard structure in (u, x)
    assert np.array_equal(g[..., :2, :2], g[..., 2:, 2:])
    # the blocks the oracle's slabs read, on any rows
    assert np.array_equal(_block_diagonal(sf.metric_blocks()), g)
    assert np.array_equal(sf.metric_blocks(5, 12), sf.metric_blocks()[5:12])


def test_holomorphic_norm_constant_iff_ma():
    axes = [np.linspace(0, 1, 65)] * 2
    pot = solve_ma_dirichlet(axes, lambda a, b: np.cosh(a) + np.cosh(b), c=1.0)
    sf = build_semiflat(pot)
    assert holomorphic_norm_field(sf)[0] < 1e-8
    sfq = build_semiflat(_quartic_potential())
    assert holomorphic_norm_field(sfq)[0] > 0.5


def test_ricci_form_flat_for_ma_solution():
    axes = [np.linspace(0, 1, 65)] * 2
    pot = solve_ma_dirichlet(axes, lambda a, b: np.cosh(a) + np.cosh(b), c=1.0)
    sf = build_semiflat(pot)
    ric = ricci_form(sf)
    assert np.max(np.abs(ric[3:-3, 3:-3])) < 1e-6


def test_ricci_form_quartic_closed_form():
    # log det = log(1 + u1^2): R_11 = -1/2 (log(1+u1^2))'' and R_22 = R_12 = 0
    sf = build_semiflat(_quartic_potential())
    ric = ricci_form(sf)
    u1 = sf.potential.axes[0][:, None] * np.ones(65)[None, :]
    exact = -0.5 * 2.0 * (1.0 - u1 ** 2) / (1.0 + u1 ** 2) ** 2
    tr = (slice(3, -3),) * 2
    assert np.max(np.abs(ric[tr][..., 0, 0] - exact[tr])) < 1e-5
    assert np.max(np.abs(ric[tr][..., 1, 1])) < 1e-8
    assert np.max(np.abs(ric[tr][..., 0, 1])) < 1e-8


@pytest.mark.parametrize("name", ["quartic", "exp"])
def test_ricci_form_rows_are_bitwise_the_full_field(name):
    # head, tail and middle rows, one row, and the whole axis, each computed
    # from the log det on its stencils' reach only
    if name == "quartic":
        pot = _quartic_potential(65)
    else:
        pot = HessianPotential.from_function([np.linspace(0, 1, 65)], np.exp)
    sf = build_semiflat(pot)
    full = ricci_form(sf)
    for lo, hi in [(0, 3), (60, 65), (30, 38), (7, 8), (0, 65)]:
        rows = ricci_form(sf, lo, hi)
        assert rows.shape == full[lo:hi].shape
        assert rows.tobytes() == full[lo:hi].tobytes()
    core = semiflat.read_region(full.shape[:-2])
    assert semiflat.ricci_form_max(sf) == (float(np.max(np.abs(full[core]))),)


def test_ricci_double_entry_agreement():
    def agreement(n):
        return ricci_agreement(build_semiflat(_quartic_potential(n)))[0]

    assert agreement(65) < two_grid_bound(agreement(33), 1e-12)


def test_ricci_agreement_1d_exponential():
    pot = HessianPotential.from_function([np.linspace(0, 1, 65)], lambda u: np.exp(u))
    sf = build_semiflat(pot)
    # log det = u: Ricci vanishes while the norm variation is order one
    ric = ricci_form(sf)
    assert np.max(np.abs(ric[3:-3])) < 1e-5
    assert holomorphic_norm_field(sf)[0] > 1.0
    assert ricci_agreement(sf)[0] < 1e-3


def test_ricci_from_metric_round_sphere():
    # 2-sphere of radius a: g = blockdiag(a^2, a^2 sin^2 theta) with p = 1,
    # phi a Killing direction, and Ric = g / a^2
    a = 2.0
    theta = np.linspace(0.6, np.pi - 0.6, 101)
    blocks = np.zeros((101, 2, 1, 1))
    blocks[:, 0, 0, 0] = a ** 2
    blocks[:, 1, 0, 0] = (a * np.sin(theta)) ** 2
    ric = ricci_from_metric(blocks, [float(theta[1] - theta[0])])
    expected = blocks / a ** 2
    assert np.max(np.abs(ric[5:-5] - expected[5:-5])) < 1e-5


def _ricci_via_riemann(components, spacings):
    """Reference: build R^a_{bcd} from the Christoffel symbols, then trace it."""
    p = components.ndim - 2
    d = components.shape[-1]

    def derivatives(tensor):
        out = np.zeros(tensor.shape + (d,))
        for axis in range(p):
            out[..., axis] = apply_diff(tensor, axis, spacings[axis], 1)
        return out

    ginv = np.linalg.inv(components)
    dg = derivatives(components)
    gamma = 0.5 * (
        np.einsum("...ad,...dcb->...abc", ginv, dg)
        + np.einsum("...ad,...dbc->...abc", ginv, dg)
        - np.einsum("...ad,...bcd->...abc", ginv, dg)
    )
    dgamma = derivatives(gamma)
    # R^a_{bcd} = d_c Gamma^a_{db} - d_d Gamma^a_{cb} + Gamma^a_{ce} Gamma^e_{db}
    #           - Gamma^a_{de} Gamma^e_{cb}
    riem = (
        np.einsum("...adbc->...abcd", dgamma)
        - np.einsum("...acbd->...abcd", dgamma)
        + np.einsum("...ace,...edb->...abcd", gamma, gamma)
        - np.einsum("...ade,...ecb->...abcd", gamma, gamma)
    )
    return np.einsum("...abad->...bd", riem)


def _gh(n):
    axes = [np.linspace(0, 1, n)] * 2
    y1, y2 = np.meshgrid(*axes, indexing="ij")
    return gh_metric(2.0 + y1 + 0.3 * (y1 ** 2 - y2 ** 2), axes)


@pytest.mark.parametrize("metric", ["semiflat", "gh"])
def test_ricci_from_metric_matches_riemann_contraction(metric):
    # the two generic references agree: the contracted Christoffel assembly
    # and the trace of the full Riemann tensor
    if metric == "semiflat":
        sf = build_semiflat(_quartic_potential(65))
        g, spacings = full_metric(sf), sf.potential.spacings
    else:
        gh = _gh(65)
        g, spacings = gh_components(gh), gh.spacings
    assert g.shape == (65, 65, 4, 4)
    ref = _ricci_via_riemann(g, spacings)
    ric = _ricci_full_arrays(g, spacings)
    assert np.max(np.abs(ric - ref)) <= 1e-10 * np.max(np.abs(ref))


def test_ricci_from_metric_hyperbolic_plane():
    # H^2 x T^2: g = blockdiag((dx^2 + dy^2) / y^2, I_2); the hyperbolic plane
    # has constant curvature -1, so R_ij = -g_ij, and the flat torus R_ab = 0
    x = np.linspace(-0.5, 0.5, 65)
    y = np.linspace(1.0, 2.0, 65)
    _, yy = np.meshgrid(x, y, indexing="ij")
    blocks = np.zeros((65, 65, 2, 2, 2))
    blocks[..., 0, 0, 0] = blocks[..., 0, 1, 1] = 1.0 / yy ** 2
    blocks[..., 1, :, :] = np.eye(2)
    ric = ricci_from_metric(blocks, [float(x[1] - x[0]), float(y[1] - y[0])])
    core = (slice(5, -5),) * 2
    assert np.max(np.abs(ric[core][..., 0, :, :] + blocks[core][..., 0, :, :])) < 1e-5
    assert np.max(np.abs(ric[core][..., 1, :, :])) < 1e-5


def _ricci_full_arrays(components, spacings):
    """The generic reference: the Ricci tensor of any d x d metric field
    whose last d - p coordinates are Killing directions, assembled from its
    Christoffel symbols as full (*grid, ...) arrays and inverted by LAPACK.

    It holds d_k g_ij on the p grid slots k, g^{ae} d_b g_{ec} and Gamma at
    once, and contracts R_bd = d_a Gamma^a_db - d_d Gamma^a_ab
    + Gamma^a_ae Gamma^e_db - Gamma^a_de Gamma^e_ab with no Riemann tensor.
    """
    components = np.asarray(components, dtype=float)
    p = components.ndim - 2
    d = components.shape[-1]
    # dg[..., i, j, k] = d_k g_ij for the grid directions k < p
    dg = np.empty(components.shape + (p,))
    for axis in range(p):
        dg[..., axis] = apply_diff(components, axis, spacings[axis], 1)
    # Gamma^a_{bc} = 1/2 g^{ae} (d_b g_{ec} + d_c g_{eb} - d_e g_{bc})
    ginv = np.linalg.inv(components)
    raised = np.einsum("...ae,...ecb->...abc", ginv, dg)  # g^{ae} d_b g_{ec}, b < p
    gamma = -np.einsum("...ae,...bce->...abc", ginv[..., :p], dg)  # -g^{ae} d_e g_{bc}
    del dg, ginv
    gamma[..., :p, :] += raised
    gamma[..., :, :p] += raised.swapaxes(-1, -2)
    del raised
    gamma *= 0.5
    diagonal = np.einsum("...aab->...ab", gamma)  # Gamma^a_{ab}, not summed over a
    diagonal_grad = [apply_diff(diagonal, axis, spacings[axis], 1) for axis in range(p)]
    gamma_rows = gamma.reshape(components.shape[:-2] + (d, d * d))
    ric = np.zeros(components.shape)
    for a in range(d):
        term = np.zeros(components.shape)  # R^a_{bad}, indexed [b, d]
        for axis in range(p):
            term[..., axis] -= diagonal_grad[axis][..., a, :]
        if a < p:
            d_gamma = apply_diff(gamma[..., a, :, :], a, spacings[a], 1)  # d_a Gamma^a_{db}
            term = d_gamma.swapaxes(-1, -2) + term
        term += (diagonal[..., a, None, :] @ gamma_rows).reshape(components.shape).swapaxes(-1, -2)
        term -= (gamma[..., a, :, :] @ gamma[..., :, a, :]).swapaxes(-1, -2)
        ric += term
    return ric


def _block_metric(name):
    """(blocks, spacings) of the oracle: the semiflat manifold of m = 1, 2, 3
    variables ("semiflat" is the quartic one, and "hessian" one on a 65 x 49
    grid), Gibbons-Hawking, or random symmetric positive-definite 3 x 3
    blocks A and B on a 10^3 grid."""
    if name == "gh":
        gh = _gh(65)
        return gh.blocks(), gh.spacings
    if name == "random_spd":
        a = np.random.default_rng(3).standard_normal((10, 10, 10, 2, 3, 3))
        return np.einsum("...ij,...kj->...ik", a, a) + 3.0 * np.eye(3), [0.1, 0.2, 0.3]
    pot = {"exp": lambda: HessianPotential.from_function([np.linspace(0, 1, 65)], np.exp),
           "quartic": lambda: _quartic_potential(65),
           "semiflat": lambda: _quartic_potential(65),
           "hessian": lambda: HessianPotential.from_function(
               [np.linspace(-1, 1, 65), np.linspace(0.5, 1.5, 49)],
               lambda a, b: np.cosh(a) + b ** 3 / 6 + 0.2 * a * b),
           "three": _three_variable_potential}[name]()
    return build_semiflat(pot).metric_blocks(), pot.spacings


@pytest.mark.parametrize("name", ["semiflat", "gh", "hessian", "exp", "random_spd"])
def test_ricci_from_metric_bitwise_matches_full_array_assembly(name):
    blocks, spacings = _block_metric(name)
    assert np.array_equal(ricci_from_metric(blocks, spacings),
                          _block_ricci_full_arrays(blocks, spacings))


@pytest.mark.parametrize("rows", [1, 3, 8])
@pytest.mark.parametrize("name", ["exp", "random_spd"])
def test_ricci_from_metric_slab_height_keeps_the_bits(monkeypatch, name, rows):
    # slab edges at every node, metric builds longer and shorter than a slab,
    # and at p = 3 a grid of several slabs
    blocks, spacings = _block_metric(name)
    monkeypatch.setattr(semiflat, "SLAB_ROWS", rows)
    monkeypatch.setattr(semiflat, "METRIC_ROWS", {1: 1, 3: 5, 8: 2}[rows])
    assert np.array_equal(ricci_from_metric(blocks, spacings),
                          _block_ricci_full_arrays(blocks, spacings))


def _counted_inverses(monkeypatch):
    """The number of rows of each stack ``semiflat._inverse`` is given, in turn."""
    inverted = []
    original = semiflat._inverse

    def counted(mat):
        inverted.append(mat.shape[0])
        return original(mat)

    monkeypatch.setattr(semiflat, "_inverse", counted)
    return inverted


@pytest.mark.parametrize("name", ["semiflat", "gh", "hessian", "exp", "random_spd", "three"])
def test_each_row_reaches_the_inverse_once_per_walk(monkeypatch, name):
    # the Christoffel symbols of the halo rows two slabs share are carried
    # over, not built again: the inverted rows of one walk are the rows its
    # nested stencils read, A and B each once
    blocks, spacings = _block_metric(name)
    inverted = _counted_inverses(monkeypatch)
    ricci_from_metric(blocks, spacings)
    assert sum(inverted) == 2 * blocks.shape[0]


@pytest.mark.parametrize("name", ["semiflat", "gh", "hessian", "exp", "random_spd"])
def test_ricci_walk_on_a_window_is_bitwise_the_full_rows(monkeypatch, name):
    # ranges at either end of axis 0 and in the middle, as the oracle walks
    # its interior: the blocks are asked for no node beyond the reach of the
    # reach of the range, A and B of each node of the first reach are
    # inverted once, and the rows are bitwise those of the full-array assembly
    blocks, spacings = _block_metric(name)
    n = blocks.shape[0]
    full = _block_ricci_full_arrays(blocks, spacings)
    inverted = _counted_inverses(monkeypatch)
    for start, stop in [(0, 2), (n - 3, n), (n // 2 - 1, n // 2 + 2), (n // 4, n - n // 4)]:
        lo, hi = stencil_reach(n, 1, *stencil_reach(n, 1, start, stop))
        asked = []

        def metric(first, last):
            asked.append((first, last))
            return blocks[first:last]

        inverted.clear()
        slabs = list(semiflat._ricci_walk(metric, spacings, n, start, stop))
        assert lo <= min(a for a, _ in asked) and max(b for _, b in asked) <= hi
        assert sum(inverted) == 2 * np.subtract(*stencil_reach(n, 1, start, stop)[::-1])
        assert [a for a, _, _ in slabs] == list(range(start, stop, SLAB_ROWS))
        got = np.concatenate([rows for _, _, rows in slabs])
        assert got.tobytes() == full[start:stop].tobytes()


def _inverse_full_arrays(mat):
    """Each symmetric m x m matrix inverted as the block walk does: 1 / a,
    [[c, -b], [-b, a]] / (a c - b^2), or LAPACK's for m >= 3."""
    m = mat.shape[-1]
    if m == 1:
        return 1.0 / mat
    if m > 2:
        return np.linalg.inv(mat)
    det = mat[..., 0, 0] * mat[..., 1, 1]
    det -= mat[..., 0, 1] * mat[..., 0, 1]
    inv = np.empty(mat.shape)
    inv[..., 0, 0] = mat[..., 1, 1] / det
    inv[..., 1, 1] = mat[..., 0, 0] / det
    inv[..., 0, 1] = inv[..., 1, 0] = -mat[..., 0, 1] / det
    return inv


def _sum_in_turn(terms):
    """t_0 + t_1 + ..., added left to right."""
    total = terms[0].copy()
    for term in terms[1:]:
        total += term
    return total


def _block_ricci_full_arrays(blocks, spacings):
    """The oracle's block walk as whole-grid arrays, in its contraction
    order, to pin the bits: R_jk and R_ab, stacked (*grid, 2, p, p), of the
    metric blockdiag(A, B) given as stacked blocks (*grid, 2, p, p).

    Gamma^i_jk, Gamma^i_ab and Gamma^a_ib are held as one (*grid, p, 3, p, p)
    array, [..., i, s] the class s; each contraction is a sum of products
    of the broadcast factors, added term by term.  The walk builds the same
    symbols slab by slab and must return exactly the same floating-point
    numbers.
    """
    p = blocks.ndim - 3
    ps = range(p)
    pairs = [(i, j) for i in ps for j in ps]
    d = np.empty(blocks.shape + (p,))  # d[..., s, i, j, k] = d_k of block s at [i, j]
    for axis in ps:
        d[..., axis] = apply_diff(blocks, axis, spacings[axis], 1)
    da, db = d[..., 0, :, :, :], d[..., 1, :, :, :]
    sums = da.swapaxes(-1, -2) + da  # d_j A_lk + d_k A_lj - d_l A_jk at [l, j, k]
    sums -= np.moveaxis(da, -1, -3)
    a_inv = _inverse_full_arrays(blocks[..., 0, :, :])
    b_inv = _inverse_full_arrays(blocks[..., 1, :, :])
    gamma = np.empty(blocks.shape[:-3] + (p, 3, p, p))
    # Gamma^i_jk, Gamma^i_ab and Gamma^a_ib before their factors 1/2, -1/2, 1/2
    gamma[..., 0, :, :] = _sum_in_turn([a_inv[..., :, l, None, None] * sums[..., None, l, :, :]
                                        for l in ps])
    gamma[..., 1, :, :] = _sum_in_turn([a_inv[..., :, l, None, None] * db[..., None, :, :, l]
                                        for l in ps])
    gamma[..., 2, :, :] = _sum_in_turn([b_inv[..., g][..., None, :, None]
                                        * np.moveaxis(db[..., g, :, :], -1, -2)[..., :, None, :]
                                        for g in ps])
    gamma *= np.array([0.5, -0.5, 0.5])[:, None, None]
    c = np.zeros(blocks.shape[:-3] + (p,))  # c_j = Gamma^i_ij + Gamma^a_aj
    for i in ps:
        c += gamma[..., i, 0, i, :]
    for a in ps:
        c += gamma[..., :, 2, a, a]
    ga, gb, gk = gamma[..., 0, :, :], gamma[..., 1, :, :], gamma[..., 2, :, :]
    ric = np.zeros(blocks.shape)
    grid, killing = ric[..., 0, :, :], ric[..., 1, :, :]
    for axis in ps:
        block = gamma[..., axis, :2, :, :]
        grad = apply_diff(np.concatenate([block.reshape(block.shape[:-3] + (-1,)), c], axis=-1),
                          axis, spacings[axis], 1)
        grid += grad[..., :p * p].reshape(grid.shape).swapaxes(-1, -2)  # d_i Gamma^i_kj
        grid[..., axis] -= grad[..., 2 * p * p:]  # -d_k c_j
        killing += grad[..., p * p:2 * p * p].reshape(grid.shape).swapaxes(-1, -2)
    grid += _sum_in_turn([c[..., l, None, None] * ga[..., l, :, :].swapaxes(-1, -2) for l in ps])
    grid -= _sum_in_turn([ga[..., l, i, :][..., :, None] * ga[..., i, :, l][..., None, :]
                          for i, l in pairs])
    grid -= _sum_in_turn([gk[..., :, b, a][..., :, None] * gk[..., :, a, b][..., None, :]
                          for a, b in pairs])
    killing += _sum_in_turn([c[..., l, None, None] * gb[..., l, :, :].swapaxes(-1, -2)
                             for l in ps])
    killing -= _sum_in_turn([gk[..., i, g, :][..., :, None] * gb[..., i, :, g][..., None, :]
                             for i, g in pairs])
    killing -= _sum_in_turn([gb[..., l, g, :][..., :, None] * gk[..., l, g, :][..., None, :]
                             for l, g in pairs])
    return ric


def _agreement_full_arrays(sf, kahler):
    """ricci_agreement as the formula on whole-grid arrays."""
    shape = sf.potential.values.shape
    core = interior(shape, max(EDGE + 1, min(shape) // 8))
    oracle = _block_ricci_full_arrays(sf.metric_blocks(), sf.potential.spacings)[core]
    dev = np.max(np.abs(oracle[..., 0, :, :] - kahler[core]))
    block = np.max(np.abs(oracle[..., 1, :, :] - oracle[..., 0, :, :]))
    return float(max(dev, block))


@pytest.mark.parametrize("name", ["quartic", "exp"])
def test_ricci_agreement_is_bitwise_the_full_array_formula(name):
    if name == "quartic":
        pot = _quartic_potential(65)
    else:
        pot = HessianPotential.from_function([np.linspace(0, 1, 65)], np.exp)
    sf = build_semiflat(pot)
    assert ricci_agreement(sf) == (_agreement_full_arrays(sf, ricci_form(sf)),)


def _semiflat_fields_full_arrays(sf):
    """The fields the semiflat residuals read, as whole-grid arrays on the
    read region: the Kahler Ricci form, and the oracle's deviation from it
    and from its own u-u block."""
    core = semiflat.read_region(sf.potential.values.shape)
    kahler = ricci_form(sf)[core]
    oracle = _block_ricci_full_arrays(sf.metric_blocks(), sf.potential.spacings)[core]
    uu = oracle[..., 0, :, :]
    return kahler, np.concatenate([uu - kahler, oracle[..., 1, :, :] - uu])


@pytest.mark.parametrize("name", ["quartic", "exp"])
def test_roundoff_changes_are_those_of_the_full_arrays(name):
    # the floor of each two-grid check reads the same fields as its residual,
    # on the same rows, from the potential and from its rounding-sized
    # perturbation, which is seeded
    if name == "quartic":
        pot = _quartic_potential(65)
    else:
        pot = HessianPotential.from_function([np.linspace(0, 1, 65)], np.exp)
    rough_pot = semiflat.roughened(pot)
    assert rough_pot.values.tobytes() == semiflat.roughened(pot).values.tobytes()
    change = np.abs(rough_pot.values - pot.values)
    assert 0 < np.max(change) and np.all(change <= 2 * np.finfo(float).eps * np.abs(pot.values))
    sf, rough = build_semiflat(pot), build_semiflat(rough_pot)
    (kahler, deviation), (kahler_r, deviation_r) = map(_semiflat_fields_full_arrays, (sf, rough))
    # each residual reads its value and its change in one lock-step walk
    assert semiflat.ricci_form_max(sf, rough) == (float(np.max(np.abs(kahler))),
                                                  float(np.max(np.abs(kahler - kahler_r))))
    assert ricci_agreement(sf, rough) == (float(np.max(np.abs(deviation))),
                                          float(np.max(np.abs(deviation - deviation_r))))
    norm = 1.0 / sf.metric_det[semiflat.read_region(pot.values.shape)]
    step = np.max(np.abs(1.0 / rough.metric_det[semiflat.read_region(pot.values.shape)] - norm))
    value, change = holomorphic_norm_field(sf, rough)
    assert (value,) == holomorphic_norm_field(sf)
    assert change == pytest.approx(step / np.min(norm) * (1.0 + np.max(norm) / np.min(norm)),
                                   rel=1e-12)


def test_oracle_walk_builds_no_metric_for_boundary_layer_slabs():
    # at 129^2 the agreement width 129 // 8 = 16 leaves rows [16, 113) to
    # walk; the metric blocks are built once on each node their nested
    # stencils read, [12, 117), in consecutive ranges: what the first slab
    # reads, then at most METRIC_ROWS nodes at a time, and on no node of the
    # boundary layer beyond; each slab holds R_ij and R_ab on its rows
    n = 129
    sf = build_semiflat(_quartic_potential(n))
    built = []

    def metric(lo, hi):
        built.append((lo, hi))
        return sf.metric_blocks(lo, hi)

    width = n // 8
    slabs = list(semiflat._oracle_interior(metric, (n, n), sf.potential.spacings, width))
    reach = stencil_reach(n, 1, *stencil_reach(n, 1, width, n - width))
    assert reach == (12, 117)
    assert [lo for lo, _ in built] == [reach[0]] + [hi for _, hi in built[:-1]]
    assert built[-1][1] == reach[1]
    assert built[0] == stencil_reach(n, 1, *stencil_reach(n, 1, width, width + SLAB_ROWS))
    assert max(hi - lo for lo, hi in built[1:]) <= METRIC_ROWS
    rows = [r for index, _ in slabs for r in range(index[0].start, index[0].stop)]
    assert rows == list(range(width, n - width))
    assert all(index[0].stop - index[0].start <= SLAB_ROWS for index, _ in slabs)
    assert all(ric.shape == (index[0].stop - index[0].start, n - 2 * width, 2, 2, 2)
               for index, ric in slabs)


@pytest.mark.parametrize("shape", [(65, 65), (50, 37)])
def test_gh_ricci_max_is_bitwise_the_full_array_formula(shape):
    axes = [np.linspace(0, 1, shape[0]), np.linspace(0, 0.8, shape[1])]
    y1, y2 = np.meshgrid(*axes, indexing="ij")
    gh = gh_metric(2.0 + y1 + 0.3 * (y1 ** 2 - y2 ** 2), axes)
    spacings = [float(ax[1] - ax[0]) for ax in axes]
    ric = _block_ricci_full_arrays(gh.blocks(), spacings)
    assert gh_ricci_max(gh) == (float(np.max(np.abs(ric[interior(shape, EDGE + 1)]))),)
    assert np.array_equal(gh.blocks(3, 9), gh.blocks()[3:9])
    assert np.array_equal(_block_diagonal(gh.blocks()), gh_components(gh))


def _three_variable_potential():
    axes = [np.linspace(-0.5, 0.5, 17), np.linspace(0.5, 1.5, 15), np.linspace(0.0, 1.0, 13)]
    return HessianPotential.from_function(
        axes, lambda a, b, c: a ** 2 / (2 * b) + b ** 3 / 6 + np.cosh(c) + 0.1 * a * c)


@pytest.mark.parametrize("name", ["exp", "quartic", "three", "gh"])
def test_block_walk_matches_ricci_from_metric(name):
    # the blocks of the generic d x d reference on blockdiag(A, B), with its
    # mixed block exactly 0, on every node; the two routes add the same terms
    # in other orders and invert by other routines, so they differ by
    # roundoff: below that of a second derivative of data of the metric's
    # scale, max |g| max |g^-1|, on the finest axis
    blocks, spacings = _block_metric(name)
    p = blocks.shape[-1]
    g = _block_diagonal(blocks)
    ref = _ricci_full_arrays(g, spacings)
    assert np.all(ref[..., :p, p:] == 0.0) and np.all(ref[..., p:, :p] == 0.0)
    ric = ricci_from_metric(blocks, spacings)
    scale = np.max(np.abs(g)) * np.max(np.abs(np.linalg.inv(g)))
    floor = roundoff_floor(scale, min(spacings), 2)
    assert np.max(np.abs(ric[..., 0, :, :] - ref[..., :p, :p])) <= floor
    assert np.max(np.abs(ric[..., 1, :, :] - ref[..., p:, p:])) <= floor
    assert np.max(np.abs(ref)) > 1e3 * floor  # the floor is not the size of R


@pytest.mark.parametrize("rows", [1, 3, 8])
@pytest.mark.parametrize("name", ["exp", "three", "gh"])
def test_block_walk_on_a_window_is_bitwise_the_full_rows(monkeypatch, name, rows):
    # slab edges at every node, metric builds longer and shorter than a slab,
    # ranges at either end of axis 0 and in the middle: the blocks are asked
    # for no node beyond the reach of the reach of the range, and the rows
    # are bitwise those of the full-array block assembly
    blocks, spacings = _block_metric(name)
    monkeypatch.setattr(semiflat, "SLAB_ROWS", rows)
    monkeypatch.setattr(semiflat, "METRIC_ROWS", {1: 1, 3: 5, 8: 2}[rows])
    n = blocks.shape[0]
    full = _block_ricci_full_arrays(blocks, spacings)
    for start, stop in [(0, 2), (n - 3, n), (n // 2 - 1, n // 2 + 2), (n // 4, n - n // 4),
                        (0, n)]:
        lo, hi = stencil_reach(n, 1, *stencil_reach(n, 1, start, stop))
        asked = []

        def metric(first, last):
            asked.append((first, last))
            return blocks[first:last]

        slabs = list(semiflat._ricci_walk(metric, spacings, n, start, stop))
        assert lo <= min(a for a, _ in asked) and max(b for _, b in asked) <= hi
        assert [a for a, _, _ in slabs] == list(range(start, stop, rows))
        got = np.concatenate([ric for _, _, ric in slabs])
        assert got.tobytes() == full[start:stop].tobytes()


def _traced_peak(fn, *args):
    fn(*args)  # warm the stencil and quadrature caches
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_curvature_oracles_hold_no_grid_sized_tensor():
    # at 257^2 a whole-grid (*grid, 4, 4) metric and Ricci tensor alone come
    # to 2 N d^2 doubles; the slab walk stays under 0.75 N d^2
    n, d = 257, 4
    bound = 0.75 * n * n * d ** 2 * 8
    sf = build_semiflat(_quartic_potential(n))
    assert _traced_peak(ricci_agreement, sf) < bound
    axes = [np.linspace(0, 1, n)] * 2
    y1, y2 = np.meshgrid(*axes, indexing="ij")
    v = 2.0 + y1 + 0.3 * (y1 ** 2 - y2 ** 2)
    assert _traced_peak(gh_metric, v, axes) < bound


def test_semiflat_oracle_job_holds_less_than_one_grid_sized_tensor(tmp_path):
    # the whole semiflat --oracle job at 257^2: the potential, its Hessian
    # determinant (the Hessian itself is only built by rows), the Kahler Ricci
    # maximum and the fine and coarse block walks of the oracle peak at 0.334
    # of one (*grid, d, d) tensor
    n, d = 257, 4
    config = {"potential": {"axes": [[-0.5, 0.5, n], [0.5, 1.5, n]],
                            "expr": "u1**2 / (2 * u2) + u2**3 / 6", "c": 1.0}}
    peak = _traced_peak(cli.run_semiflat, config, tmp_path, True)
    assert peak < 0.37 * n * n * d ** 2 * 8


def test_gh_job_holds_less_than_one_grid_sized_tensor(tmp_path):
    # the whole gh job at 257^2: V on the grid, its harmonicity gate (the
    # Laplacian summed in place) and conjugate W (V_2 on column 0 only), and
    # the fine and coarse block walks peak at 0.321 of one (*grid, d, d)
    # tensor
    n, d = 257, 4
    config = {"V": "2 + y1 + 0.3 * (y1**2 - y2**2)", "n": n}
    peak = _traced_peak(cli.run_gh, config, tmp_path, False)
    assert peak < 0.35 * n * n * d ** 2 * 8


def test_ricci_from_metric_memory_is_output_plus_slabs():
    n, p = 129, 2
    blocks, spacings = build_semiflat(_quartic_potential(n)).metric_blocks(), [2.0 / (n - 1)] * 2
    peak = _traced_peak(ricci_from_metric, blocks, spacings)
    # the (*grid, 2, p, p) result plus the walk's two windows: the (*, p, 3,
    # p, p) Christoffel symbols on a slab and its stencil reach, and the
    # blocks on METRIC_ROWS nodes and their nested reach; and, on the
    # SLAB_ROWS rows each slab adds, Gamma, the (*, 2, p, p, p) block
    # derivatives, two (*, p, p, p) arrays of their sums and one of a
    # product, and the (*, 2, p, p) stencil output and scratch and inverses;
    # the peak is about 1.01 times their sum
    output = n * n * 2 * p ** 2 * 8
    windows = ((SLAB_ROWS + 2 * EDGE) * 3 * p ** 3 + (METRIC_ROWS + 4 * EDGE) * 2 * p ** 2) * n * 8
    fresh = SLAB_ROWS * n * (3 * p ** 3 + 2 * p ** 3 + 3 * p ** 3 + 3 * 2 * p ** 2) * 8
    assert peak < output + 1.2 * (windows + fresh)


def test_metric_error_on_degenerate_block():
    # the manifold holds det Hess phi per node and refuses one that is not
    # positive, before any residual reads it
    pot = _quartic_potential(33)
    det = build_semiflat(pot).metric_det
    for bad in (0.0 * det, np.where(np.arange(33)[:, None] == 0, -det, det)):
        with pytest.raises(MetricError):
            SemiflatManifold(pot, bad)


def test_nijenhuis_vanishes_for_hessian_chart():
    axes = [np.linspace(0.1, 1.1, 33)] * 2

    def hess(t):
        t1, t2 = t
        return np.array([[t1 ** 2 + 2.0, 1.0], [1.0, 2.0 + np.exp(t2)]])

    fine = nijenhuis_residual(hessian_chart(hess), axes)
    coarse = nijenhuis_residual(
        hessian_chart(hess), [np.linspace(0.1, 1.1, 17)] * 2
    )
    assert fine < two_grid_bound(coarse, 1e-12)


def test_nijenhuis_flags_nonintegrable_chart():
    axes = [np.linspace(0.1, 1.1, 33)] * 2

    def bad(t):
        t1, _ = t
        return np.array([[2.0, t1], [0.0, 2.0]])

    assert nijenhuis_residual(hessian_chart(bad), axes) > 1e-2


def test_nijenhuis_rejects_singular_chart():
    axes = [np.linspace(-1, 1, 33)] * 2

    def singular(t):
        t1, _ = t
        return np.array([[t1, 0.0], [0.0, 1.0]])

    with pytest.raises(InputError):
        nijenhuis_residual(hessian_chart(singular), axes)


def test_gh_metric_ricci_flat():
    axes = [np.linspace(0, 1, 49)] * 2
    y1, _ = np.meshgrid(*axes, indexing="ij")
    gh = gh_metric(2.0 + y1, axes)
    axes_c = [np.linspace(0, 1, 25)] * 2
    y1c, _ = np.meshgrid(*axes_c, indexing="ij")
    ghc = gh_metric(2.0 + y1c, axes_c)
    assert gh_ricci_max(gh)[0] < two_grid_bound(gh_ricci_max(ghc)[0], 1e-12)
    assert gh.harmonic_residual < 1e-8


def test_gh_coarse_and_rough_metrics_rebuild_w_from_v():
    # the coarse grid of gh's two-grid bound, and its roughened copy: W is
    # rebuilt from V there, V is perturbed by the xi of semiflat.roughened,
    # and neither is gated again
    axes = [np.linspace(0, 1, 33)] * 2
    y1, y2 = np.meshgrid(*axes, indexing="ij")
    gh = gh_metric(2.0 + y1 + 0.3 * (y1 ** 2 - y2 ** 2), axes)
    coarse = gh.coarsened()
    reference = gh_metric(gh.potential_v[::2, ::2], [ax[::2] for ax in axes])
    assert np.array_equal(coarse.conjugate_w, reference.conjugate_w)
    assert coarse.harmonic_residual is None and coarse.harmonic_tol is None
    rough = coarse.roughened()
    potential = HessianPotential(coarse.axes, coarse.potential_v)
    assert np.array_equal(rough.potential_v, semiflat.roughened(potential).values)
    change = np.max(np.abs(rough.potential_v / coarse.potential_v - 1.0))
    assert 0.0 < change <= 2 * np.finfo(float).eps  # eps, and the rounding of the ratio
    value, change = gh_ricci_max(coarse, rough)
    assert (value,) == gh_ricci_max(coarse)
    assert 0.0 < change < 1e-3 * value


def test_gh_metric_harmonic_conjugate():
    # V = 2 + y1 has conjugate W = y2 up to a constant
    axes = [np.linspace(0, 1, 33)] * 2
    y1, y2 = np.meshgrid(*axes, indexing="ij")
    gh = gh_metric(2.0 + y1, axes)
    assert np.max(np.abs(gh.conjugate_w - y2)) < 1e-8
    # V = 3 + e^y1 cos y2 has conjugate W = e^y1 sin y2; the error is that of
    # the fourth-order stencils for V_1 and V_2, which nears order 4 from below
    errors = {}
    for n in (33, 65):
        axes = [np.linspace(0, 1, n)] * 2
        y1, y2 = np.meshgrid(*axes, indexing="ij")
        gh = gh_metric(3.0 + np.exp(y1) * np.cos(y2), axes)
        error = gh.conjugate_w - np.exp(y1) * np.sin(y2)
        errors[n] = np.max(np.abs(error - error[0, 0]))
    assert errors[65] < 1e-7
    assert np.log2(errors[33] / errors[65]) > 3.9


def test_gh_metric_rejects_nonharmonic_or_nonpositive():
    axes = [np.linspace(0, 1, 33)] * 2
    y1, _ = np.meshgrid(*axes, indexing="ij")
    with pytest.raises(InputError):
        gh_metric(2.0 + y1 ** 3, axes)
    with pytest.raises(InputError):
        gh_metric(y1 - 0.5, axes)
    v = 2.0 + y1
    v[0, 0] = np.nan  # not positive either
    with pytest.raises(InputError, match="positive"):
        gh_metric(v, axes)


def _plane_v(n, fn):
    axes = [np.linspace(0, 1, n)] * 2
    return fn(*np.meshgrid(*axes, indexing="ij")), axes


@pytest.mark.parametrize("n", [33, 65])
def test_gh_gate_takes_harmonic_v_with_stencil_error(n):
    # ||Laplacian V|| is 2.1e-6 at 33^2 and 1.3e-7 at 65^2, fourth-order
    # stencil error that a fixed 1e-8 gate refused
    gh = gh_metric(*_plane_v(n, lambda y1, y2: 3.0 + np.exp(y1) * np.cos(y2)))
    assert 1e-8 < gh.harmonic_residual < gh.harmonic_tol


@pytest.mark.parametrize("n", [33, 65, 129, 257])
@pytest.mark.parametrize("name", ["quadratic", "bumped"])
def test_gh_gate_refuses_nonharmonic_v(name, n):
    # Laplacian 2 and 2e-3: the two-grid estimate keeps them, so 10 x coarse
    # / 16 stays below the fine residual at every size
    if name == "quadratic":
        v = _plane_v(n, lambda y1, y2: 2.0 + y1 ** 2 + 0.0 * y2)
    else:
        v = _plane_v(n, lambda y1, y2: 3.0 + np.exp(y1) * np.cos(y2) + 1e-3 * y1 ** 2)
    with pytest.raises(InputError, match="not harmonic"):
        gh_metric(*v)


@pytest.mark.parametrize("n", [129, 257])
@pytest.mark.parametrize("b", [0.1, 0.311317, 0.5])
def test_gh_gate_takes_the_exactly_harmonic_quadratic(n, b):
    # the benchmark's V = 2 + y1 + b (y1^2 - y2^2): its discrete Laplacian is
    # pure roundoff, growing as h^-2, which a two-grid bound alone refuses at
    # 257^2 (6.7e-10 fine against 10 x 1.5e-10 / 16 for b = 0.311317); the
    # roundoff floor keeps it
    gh = gh_metric(*_plane_v(n, lambda y1, y2: 2.0 + y1 + b * (y1 ** 2 - y2 ** 2)))
    assert gh.harmonic_residual < gh.harmonic_tol
