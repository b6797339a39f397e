"""Exterior calculus substrate: derivative, wedge, star, cycles."""

from math import comb

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from slmoduli.errors import DegreeError, GridMismatchError, MetricError
from slmoduli.forms import (
    CycleBasis,
    FormField,
    GridTorus,
    MetricField,
    exterior_derivative,
    hodge_star,
    integrate_top,
    l2_inner,
    spectral_derivative,
    wedge,
)
from slmoduli.multilinear import complement_table, index_tuples, minor_matrix


def test_grid_torus_geometry():
    torus = GridTorus((16, 32), (1.0, 2.0))
    assert torus.dim == 2
    assert torus.spacings == (1.0 / 16, 2.0 / 32)
    assert np.isclose(torus.cell_volume, (1.0 / 16) * (2.0 / 32))
    axes = torus.axes()
    assert axes[0][0] == 0.0 and np.isclose(axes[1][-1], 2.0 - 2.0 / 32)


def test_grid_torus_rejects_bad_input():
    with pytest.raises(GridMismatchError):
        GridTorus((4, 16))
    with pytest.raises(GridMismatchError):
        GridTorus((16,), (1.0, 1.0))
    with pytest.raises(GridMismatchError):
        GridTorus((16,), (-1.0,))


def test_spectral_derivative_exact_on_trig():
    torus = GridTorus((32,))
    (x,) = torus.meshgrid()
    f = np.sin(2 * np.pi * 3 * x) + np.cos(2 * np.pi * 5 * x)
    df = 2 * np.pi * (3 * np.cos(2 * np.pi * 3 * x) - 5 * np.sin(2 * np.pi * 5 * x))
    got = spectral_derivative(f, 0, 1.0)
    assert np.max(np.abs(got - df)) < 1e-10


def test_exterior_derivative_nilpotent():
    torus = GridTorus((16, 16, 16))
    x, y, z = torus.meshgrid()
    f = FormField.from_scalar(torus, np.sin(2 * np.pi * x) * np.cos(2 * np.pi * y))
    df = exterior_derivative(f)
    ddf = exterior_derivative(df)
    assert ddf.norm_inf() < 1e-9


def test_exterior_derivative_matches_gradient():
    torus = GridTorus((32, 32))
    x, y = torus.meshgrid()
    f = FormField.from_scalar(torus, np.sin(2 * np.pi * x) * np.sin(2 * np.pi * y))
    df = exterior_derivative(f)
    expected_x = 2 * np.pi * np.cos(2 * np.pi * x) * np.sin(2 * np.pi * y)
    expected_y = 2 * np.pi * np.sin(2 * np.pi * x) * np.cos(2 * np.pi * y)
    assert np.max(np.abs(df.coeffs[..., 0] - expected_x)) < 1e-9
    assert np.max(np.abs(df.coeffs[..., 1] - expected_y)) < 1e-9


def test_wedge_antisymmetry_and_degree():
    torus = GridTorus((8, 8, 8))
    rng = np.random.default_rng(7)
    a = FormField(torus, 1, rng.normal(size=torus.shape + (3,)))
    b = FormField(torus, 1, rng.normal(size=torus.shape + (3,)))
    ab = wedge(a, b)
    ba = wedge(b, a)
    assert ab.degree == 2
    assert np.max(np.abs(ab.coeffs + ba.coeffs)) < 1e-12
    assert wedge(a, a).norm_inf() < 1e-12
    top = wedge(ab, a)
    with pytest.raises(DegreeError):
        wedge(top, a)


def test_hodge_star_flat_torus():
    torus = GridTorus((8, 8))
    g = MetricField.euclidean(torus)
    dx = FormField.constant(torus, 1, [1.0, 0.0])
    sdx = hodge_star(dx, g)
    assert np.allclose(sdx.coeffs[..., 1], 1.0)
    assert np.allclose(sdx.coeffs[..., 0], 0.0)
    # non-diagonal constant metric: star a = sqrt(det g) ((g^-1 a)_0 dy - (g^-1 a)_1 dx)
    mat = np.array([[2.0, 0.7], [0.7, 1.5]])
    a = np.array([0.3, -1.2])
    raised = np.linalg.solve(mat, a)
    expected = np.sqrt(np.linalg.det(mat)) * np.array([-raised[1], raised[0]])
    star = hodge_star(FormField.constant(torus, 1, a), MetricField(torus, mat))
    assert np.max(np.abs(star.coeffs - expected)) < 1e-14


def test_constant_form_is_a_read_only_view():
    torus = GridTorus((8, 8, 8))
    values = np.array([0.5, -1.0, 2.0])
    form = FormField.constant(torus, 1, values)
    assert form.coeffs.shape == torus.shape + (3,)
    assert not form.coeffs.flags.writeable
    # one coefficient vector, broadcast over the nodes: no bytes per node
    assert not form.coeffs.flags.owndata
    assert form.coeffs.strides[:3] == (0, 0, 0)
    with pytest.raises(ValueError):
        form.coeffs[0, 0, 0, 0] = 1.0
    assert np.array_equal((form + form).coeffs, np.broadcast_to(2 * values, form.coeffs.shape))


def _sum_then_scale_star(a, g):
    """The Hodge star summed per component in its own array, then scaled."""
    d, k = a.torus.dim, a.degree
    ginv = np.linalg.inv(g.components)
    sqrt_det = np.sqrt(np.linalg.det(g.components))
    k_tuples = index_tuples(d, k)
    out = np.zeros(a.torus.shape + (comb(d, d - k),))
    for ii, comp_pos, sign in complement_table(d, k):
        raised = np.zeros(a.torus.shape)
        for jj, tj in enumerate(k_tuples):
            raised += minor_matrix(ginv, k_tuples[ii], tj) * a.coeffs[..., jj]
        out[..., comp_pos] += sign * sqrt_det * raised
    return out


@pytest.mark.parametrize("d", [2, 3, 4])
def test_hodge_star_equals_sum_then_scale(d):
    rng = np.random.default_rng(20 + d)
    torus = GridTorus((8,) * d)
    mat = rng.normal(size=(d, d))
    g = MetricField(torus, mat @ mat.T + d * np.eye(d))
    assert np.count_nonzero(g.components - np.diag(np.diag(g.components)))
    for k in range(d + 1):
        a = _random_form(torus, k, rng)
        # == holds for values; only the sign of an exact zero may differ
        assert np.array_equal(hodge_star(a, g).coeffs, _sum_then_scale_star(a, g)), k


def test_hodge_star_involution_sign():
    rng = np.random.default_rng(3)
    torus = GridTorus((8, 8, 8))
    mat = rng.normal(size=(3, 3))
    g = MetricField(torus, mat @ mat.T + 3 * np.eye(3))
    for k in (0, 1, 2, 3):
        a = FormField(torus, k, rng.normal(size=torus.shape + (comb(3, k),)))
        ss = hodge_star(hodge_star(a, g), g)
        sign = (-1.0) ** (k * (3 - k))
        assert np.max(np.abs(ss.coeffs - sign * a.coeffs)) < 1e-10


def _random_form(torus, degree, rng):
    return FormField(torus, degree, rng.normal(size=torus.shape + (comb(torus.dim, degree),)))


@settings(max_examples=40, deadline=None)
@given(data=st.data(), seed=st.integers(0, 2 ** 16))
def test_wedge_graded_commutativity(data, seed):
    d = data.draw(st.sampled_from([2, 3]))
    k = data.draw(st.integers(0, d))
    l = data.draw(st.integers(0, d - k))
    rng = np.random.default_rng(seed)
    torus = GridTorus((8,) * d)
    a, b = _random_form(torus, k, rng), _random_form(torus, l, rng)
    ab, ba = wedge(a, b), wedge(b, a)
    assert ab.degree == ba.degree == k + l
    assert np.max(np.abs(ab.coeffs - (-1.0) ** (k * l) * ba.coeffs)) < 1e-12


@settings(max_examples=40, deadline=None)
@given(data=st.data(), seed=st.integers(0, 2 ** 16))
def test_hodge_star_squared_sign(data, seed):
    d = data.draw(st.sampled_from([2, 3]))
    k = data.draw(st.integers(0, d))
    rng = np.random.default_rng(seed)
    torus = GridTorus((8,) * d)
    mat = rng.normal(size=(d, d))
    g = MetricField(torus, mat @ mat.T + d * np.eye(d))
    a = _random_form(torus, k, rng)
    ss = hodge_star(hodge_star(a, g), g)
    sign = (-1.0) ** (k * (d - k))
    assert np.max(np.abs(ss.coeffs - sign * a.coeffs)) < 1e-10 * max(1.0, a.norm_inf())


def test_l2_inner_is_symmetric_positive():
    rng = np.random.default_rng(11)
    torus = GridTorus((8, 8))
    g = MetricField.euclidean(torus)
    a = FormField(torus, 1, rng.normal(size=torus.shape + (2,)))
    b = FormField(torus, 1, rng.normal(size=torus.shape + (2,)))
    assert np.isclose(l2_inner(a, b, g), l2_inner(b, a, g))
    assert l2_inner(a, a, g) > 0


def test_metric_field_validation():
    torus = GridTorus((8, 8))
    with pytest.raises(MetricError):
        MetricField(torus, np.array([[1.0, 0.5], [0.2, 1.0]]))
    with pytest.raises(MetricError):
        MetricField(torus, np.array([[1.0, 0.0], [0.0, -1.0]]))
    # a flat-torus metric is one matrix, never a copy per node
    with pytest.raises(GridMismatchError):
        MetricField(torus, np.broadcast_to(np.eye(2), torus.shape + (2, 2)))


def test_cycle_basis_duality():
    torus = GridTorus((8, 8, 8), (1.0, 2.0, 3.0))
    basis = CycleBasis(torus)
    for i in range(3):
        for j in range(3):
            loop = basis.integrate_loop(basis.alphas[j], i)
            assert abs(loop - (1.0 if i == j else 0.0)) < 1e-12
            pairing = integrate_top(wedge(basis.alphas[i], basis.betas[j]))
            assert abs(pairing - (1.0 if i == j else 0.0)) < 1e-12
            slab = basis.integrate_slab(basis.betas[j], i)
            assert abs(slab - (1.0 if i == j else 0.0)) < 1e-12
