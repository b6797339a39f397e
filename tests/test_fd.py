"""The stencil kernel against its matrices and on node ranges, stencil
interiors, and the numpy spline and quadrature kernels against scipy and
exact integrals."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.interpolate import RectBivariateSpline, make_interp_spline

from slmoduli import fd
from slmoduli.errors import GridMismatchError
from slmoduli.fd import (TensorQuintic, apply_diff, cumulative_quadrature, diff_matrix,
                         interior, quintic_resample, quintic_slopes, stencil_reach)


@pytest.mark.parametrize("width", [2, 3, 8])
def test_interior_needs_more_than_two_widths(width):
    core = interior((2 * width + 1, 40), width)
    assert core == (slice(width, -width),) * 2
    assert np.zeros((2 * width + 1, 40))[core].shape == (1, 40 - 2 * width)
    with pytest.raises(GridMismatchError):
        interior((40, 2 * width), width)


def test_stencils_refuse_too_few_nodes():
    diff_matrix(6, 0.1, 2)
    apply_diff(np.ones((3, 5)), 1, 0.1, 1)
    with pytest.raises(GridMismatchError):
        diff_matrix(5, 0.1, 2)
    with pytest.raises(GridMismatchError):
        apply_diff(np.ones((3, 5)), 1, 0.1, 2)
    with pytest.raises(GridMismatchError):
        apply_diff(np.ones((4, 9)), 0, 0.1, 1)
    with pytest.raises(GridMismatchError):
        cumulative_quadrature(np.ones(5), 0.1)


@pytest.mark.parametrize("n", [6, 7, 33, 257])
@pytest.mark.parametrize("deriv", [1, 2])
def test_apply_diff_matches_diff_matrix(n, deriv):
    rng = np.random.default_rng(n + deriv)
    spacing = 1.7 / (n - 1)
    d = diff_matrix(n, spacing, deriv)
    for axis in range(3):
        shape = [3, 4, 5]
        shape[axis] = n
        values = rng.normal(size=shape)
        want = np.moveaxis(np.tensordot(d, np.moveaxis(values, axis, 0), axes=(1, 0)), 0, axis)
        got = apply_diff(values, axis, spacing, deriv)
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want)), axis
        # each stencil takes constants to exactly 0
        assert not np.any(apply_diff(np.full(shape, 3.7), axis, spacing, deriv))


@settings(max_examples=60, deadline=None)
@given(data=st.data(), n=st.integers(6, 40), axis=st.integers(-3, 2),
       deriv=st.sampled_from([1, 2]))
def test_apply_diff_on_a_window_is_bitwise_the_full_axis(data, n, axis, deriv):
    start = data.draw(st.integers(0, n), label="start")
    stop = data.draw(st.integers(start, n), label="stop")
    lo, hi = stencil_reach(n, deriv, start, stop)
    first = data.draw(st.integers(0, lo), label="first")
    last = data.draw(st.integers(hi, n), label="last")
    shape = [2, 3, 4]
    shape[axis] = n
    values = np.random.default_rng(n).normal(size=shape)
    spacing = 1.0 / (n - 1)
    full = np.take(apply_diff(values, axis, spacing, deriv), np.arange(start, stop), axis=axis)
    window = np.take(values, np.arange(first, last), axis=axis)
    got = apply_diff(window, axis, spacing, deriv, nodes=(start, stop), n=n, first=first)
    assert got.shape == full.shape
    assert got.tobytes() == full.tobytes()
    if first < lo or last > hi:
        return
    # a window that misses a node the stencils read is refused
    with pytest.raises(ValueError):
        apply_diff(np.take(window, np.arange(1, last - first), axis=axis), axis, spacing,
                   deriv, nodes=(start, stop), n=n, first=first + 1)


@pytest.mark.parametrize("shape", [(17,), (17, 9), (12, 7, 8)])
def test_hessian_field_on_a_window_is_bitwise_the_full_rows(shape):
    values = np.random.default_rng(len(shape)).normal(size=shape)
    spacings = [0.1, 0.2, 0.3][:len(shape)]
    n = shape[0]
    full = fd.hessian_field(values, spacings)
    for start, stop in [(0, 2), (n - 3, n), (5, 8), (0, n)]:
        lo, hi = stencil_reach(n, 2, start, stop)
        got = fd.hessian_field(values[lo:hi], spacings, (start, stop), n, lo)
        assert got.shape == full[start:stop].shape
        assert got.tobytes() == full[start:stop].tobytes()


@pytest.mark.parametrize("n", [9, 33, 257])
def test_quintic_resample_matches_scipy_not_a_knot(n):
    rng = np.random.default_rng(n)
    cols = 12
    x = np.cumsum(rng.uniform(0.2, 1.0, (n, cols)), axis=0) + rng.normal(size=cols)
    y = rng.normal(size=(n, cols)) * np.linspace(1.0, 50.0, cols)
    # a grid past every column's ends plus the nodes of column 0, shuffled
    x_new = np.concatenate([np.linspace(np.min(x) - 0.5, np.max(x) + 0.5, 2 * n + 1), x[:, 0]])
    rng.shuffle(x_new)
    got = quintic_resample(x, y, x_new)
    want = np.stack(
        [make_interp_spline(x[:, j], y[:, j], k=5)(x_new) for j in range(cols)], axis=1
    )
    assert got.shape == (len(x_new), cols)
    inside = (x_new[:, None] >= x[0]) & (x_new[:, None] <= x[-1])
    assert np.max(np.abs(got - want)[inside]) <= 1e-12 * np.max(np.abs(y))
    # extrapolated end pieces grow like |x|^5; compare them relative to size
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


@pytest.mark.parametrize("block", [1, 7, 13])
def test_quintic_resample_column_blocks_keep_the_bits(monkeypatch, block):
    rng = np.random.default_rng(block)
    n, cols = 33, 12
    x = np.cumsum(rng.uniform(0.2, 1.0, (n, cols)), axis=0)
    y = rng.normal(size=(n, cols))
    x_new = np.linspace(np.min(x) - 0.5, np.max(x) + 0.5, 41)
    monkeypatch.setattr(fd, "RESAMPLE_COLUMNS", cols)
    whole = quintic_resample(x, y, x_new)
    monkeypatch.setattr(fd, "RESAMPLE_COLUMNS", block)
    assert quintic_resample(x, y, x_new).tobytes() == whole.tobytes()
    # shared nodes: one band matrix, one block
    assert np.array_equal(quintic_resample(x[:, :1], y, x_new),
                          quintic_resample(np.repeat(x[:, :1], cols, axis=1), y, x_new))


def test_quintic_resample_interpolates_and_needs_six_nodes():
    x = np.linspace(0.0, 1.0, 11)[:, None] ** 2 + np.array([0.0, 0.5])
    y = np.sin(3 * x)
    for j in range(2):
        col = quintic_resample(x, y, x[:, j])[:, j]
        assert np.max(np.abs(col - y[:, j])) < 1e-13
    with pytest.raises(ValueError):
        quintic_resample(x[:5], y[:5], x[:5, 0])


@pytest.mark.parametrize("shape", [(6, 9), (33, 17), (129, 129)])
def test_tensor_quintic_matches_scipy(shape):
    rng = np.random.default_rng(shape[0])
    x = np.linspace(-1.0, 1.0, shape[0])
    y = np.linspace(0.5, 2.0, shape[1])
    z = np.cosh(x[:, None] + 0.3 * y[None, :]) + 0.1 * rng.normal(size=shape)
    # random points plus grid nodes and both ends of each axis
    pts = np.stack([rng.uniform(-1.0, 1.0, 400), rng.uniform(0.5, 2.0, 400)], axis=1)
    pts[:shape[0], 0] = x[:400]
    pts[-2:] = [[x[0], y[0]], [x[-1], y[-1]]]
    value = TensorQuintic([x, y], z)(pts)
    want = RectBivariateSpline(x, y, z, kx=5, ky=5, s=0).ev(pts[:, 0], pts[:, 1])
    assert np.max(np.abs(value - want)) <= 1e-13 * np.max(np.abs(want))
    # in one variable it is make_interp_spline's quintic, and its slopes at
    # the nodes are that spline's derivative there, column by column
    value = TensorQuintic([x], z[:, 0])(pts[:, :1])
    want = make_interp_spline(x, z[:, 0], k=5)(pts[:, 0])
    assert np.max(np.abs(value - want)) <= 1e-13 * np.max(np.abs(want))
    slopes = quintic_slopes(x, z)
    want = np.stack([make_interp_spline(x, z[:, j], k=5)(x, 1) for j in range(shape[1])], axis=1)
    assert slopes.shape == z.shape
    assert np.max(np.abs(slopes - want)) <= 1e-12 * np.max(np.abs(want))


@pytest.mark.parametrize("m", [1, 2])
@pytest.mark.parametrize("k", [1, 2])
def test_tensor_quintic_point_blocks_keep_the_bits(monkeypatch, m, k):
    rng = np.random.default_rng(10 * m + k)
    axes = [np.linspace(-1.0, 1.0, 17), np.linspace(0.5, 2.0, 13)][:m]
    spline = TensorQuintic(axes, rng.normal(size=[len(ax) for ax in axes]))
    lo = np.array([ax[0] for ax in axes])
    hi = np.array([ax[-1] for ax in axes])
    for p in (k * fd.POINT_BLOCK - 1, k * fd.POINT_BLOCK, k * fd.POINT_BLOCK + 1):
        pts = rng.uniform(lo, hi, (p, m))
        blocked = spline(pts)
        with monkeypatch.context() as patch:
            patch.setattr(fd, "POINT_BLOCK", p)
            whole = spline(pts)
        assert blocked.shape == whole.shape == (p,)
        assert blocked.tobytes() == whole.tobytes()


def test_uniform_span_closed_form_matches_the_recursion():
    # on spans whose twelve surrounding knots are uniform, the cardinal
    # quintics are the Cox-de Boor ones
    h = 0.0625
    knots = (np.arange(40.0) * h - 1.0)[None]
    rng = np.random.default_rng(5)
    spans = rng.integers(5, 34, 500)
    t = rng.uniform(0.0, 1.0, 500)
    t[:3] = [0.0, 1.0, 0.5]
    x = knots[0, spans] + t * h
    want = fd._quintic_basis(knots, spans[None], x[None])[0, 0]
    got = fd._uniform_quintic_basis((x - knots[0, spans]) / h)
    assert got.shape == want.shape == (500, 6)
    assert np.max(np.abs(got - want)) <= 1e-14


def test_tensor_quintic_refuses_non_uniform_axes():
    x = np.linspace(0.0, 1.0, 9) ** 2
    with pytest.raises(GridMismatchError):
        TensorQuintic([x], np.sin(x))


@pytest.mark.parametrize("n", [6, 7, 33])
def test_cumulative_quadrature_exact_to_degree_five(n):
    h = 0.3
    nodes = np.arange(n) * h - 1.0
    powers = np.stack([nodes ** p for p in range(6)])
    exact = np.stack([(nodes ** (p + 1) - nodes[0] ** (p + 1)) / (p + 1) for p in range(6)])
    # all six powers as the rows of one array, integrated along axis 1, and
    # each power on its own, with the same numbers
    stacked = cumulative_quadrature(powers, h, axis=1)
    for p in range(6):
        assert np.max(np.abs(stacked[p] - exact[p])) <= 1e-13 * max(1.0, np.max(np.abs(exact[p])))
        assert np.array_equal(cumulative_quadrature(powers[p], h), stacked[p])
    # only the six weights of each cell are kept between calls
    first, weights = fd._cell_weights(n, h)
    assert weights.shape == (n - 1, 6) and not weights.flags.writeable
    assert not first.flags.writeable


def test_cumulative_quadrature_sixth_order():
    errors = {}
    for n in (33, 65):
        x = np.linspace(0.0, 1.0, n)
        errors[n] = np.max(np.abs(cumulative_quadrature(np.exp(x), x[1]) - (np.exp(x) - 1.0)))
    assert np.log2(errors[33] / errors[65]) > 5.5
