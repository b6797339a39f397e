"""Stencil interiors, and the numpy spline and quadrature kernels against scipy
and exact integrals."""

import numpy as np
import pytest
from scipy.interpolate import make_interp_spline

from slmoduli.errors import GridMismatchError
from slmoduli.fd import cumulative_quadrature, diff_matrix, interior, quintic_resample


@pytest.mark.parametrize("width", [2, 3, 8])
def test_interior_needs_more_than_two_widths(width):
    core = interior((2 * width + 1, 40), width)
    assert core == (slice(width, -width),) * 2
    assert np.zeros((2 * width + 1, 40))[core].shape == (1, 40 - 2 * width)
    with pytest.raises(GridMismatchError):
        interior((40, 2 * width), width)


def test_stencils_refuse_too_few_nodes():
    diff_matrix(6, 0.1, 2)
    with pytest.raises(GridMismatchError):
        diff_matrix(5, 0.1, 2)
    with pytest.raises(GridMismatchError):
        cumulative_quadrature(5, 0.1)


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


def test_quintic_resample_interpolates_and_needs_six_nodes():
    x = np.linspace(0.0, 1.0, 11)[:, None] ** 2 + np.array([0.0, 0.5])
    y = np.sin(3 * x)
    for j in range(2):
        col = quintic_resample(x, y, x[:, j])[:, j]
        assert np.max(np.abs(col - y[:, j])) < 1e-13
    with pytest.raises(ValueError):
        quintic_resample(x[:5], y[:5], x[:5, 0])


@pytest.mark.parametrize("n", [6, 7, 33])
def test_cumulative_quadrature_exact_to_degree_five(n):
    h = 0.3
    c = cumulative_quadrature(n, h)
    nodes = np.arange(n) * h - 1.0
    for p in range(6):
        exact = (nodes ** (p + 1) - nodes[0] ** (p + 1)) / (p + 1)
        assert np.max(np.abs(c @ nodes ** p - exact)) <= 1e-13 * max(1.0, np.max(np.abs(exact)))
    assert not c.flags.writeable


def test_cumulative_quadrature_sixth_order():
    errors = {}
    for n in (33, 65):
        x = np.linspace(0.0, 1.0, n)
        errors[n] = np.max(np.abs(cumulative_quadrature(n, x[1]) @ np.exp(x) - (np.exp(x) - 1.0)))
    assert np.log2(errors[33] / errors[65]) > 5.5
