"""Hessian potentials: metric, Legendre duality, partial reduction, solver."""

import dataclasses
import sys
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from slmoduli.errors import ConvergenceError, ConvexityError, DomainError, InputError
from slmoduli import fd, hessian
from slmoduli.fd import diff_matrix, hessian_field, interior, quintic_slopes, two_grid_bound
from slmoduli.hessian import (
    HessianPotential,
    eigenvalue_range,
    fenchel_residual,
    hessian_det,
    hessian_det_field,
    hessian_metric,
    involution_residual,
    legendre_transform,
    load_potential,
    mirror_swap,
    partial_legendre_2d,
    save_potential,
    solve_ma_dirichlet,
)

from legendre_bounds import interpolation_tolerance


def _quadratic(axes, mat):
    mat = np.asarray(mat, dtype=float)

    def fn(*mesh):
        u = np.stack(mesh, axis=-1)
        return 0.5 * np.einsum("...a,ab,...b->...", u, mat, u)

    return HessianPotential.from_function(axes, fn)


def test_hessian_of_quadratic_is_exact():
    mat = np.array([[2.0, 0.5], [0.5, 1.0]])
    pot = _quadratic([np.linspace(-1, 1, 33)] * 2, mat)
    hess = hessian_metric(pot)
    assert np.max(np.abs(hess - mat)) < 1e-10


def test_convexity_violation_reports_node():
    pot = HessianPotential.from_function(
        [np.linspace(-1, 1, 33)], lambda u: -(u ** 2)
    )
    # the gate of legendre_transform raises on every call: no value is kept
    for gate in (hessian_metric, legendre_transform, legendre_transform):
        with pytest.raises(ConvexityError) as err:
            gate(pot)
        assert err.value.node is not None


def _dipped(n, row, depth):
    """A convex quadratic with a Gaussian dip centred on node (row, n // 3)."""
    axes = [np.linspace(-1, 1, n), np.linspace(-1, 1, n + 4)]
    centre = (axes[0][row], axes[1][n // 3])
    return HessianPotential.from_function(axes, lambda a, b: (
        a ** 2 + 0.5 * a * b + b ** 2
        - depth * np.exp(-((a - centre[0]) ** 2 + (b - centre[1]) ** 2) / 0.01)))


def _full_field_gate(pot):
    """The convexity gate read off the whole Hessian field: (min, max) eigenvalue
    on the interior, or the error message and the first node of the least."""
    core = interior(pot.values.shape, fd.EDGE)
    lowest, highest = eigenvalue_range(pot.hessian()[core])
    least = np.min(lowest)
    if least > hessian.CONVEXITY_TOL:
        return float(least), float(np.max(highest))
    node = np.unravel_index(np.argmin(lowest), lowest.shape)
    return (f"potential fails strict convexity (min eigenvalue {least:.3e})",
            tuple(int(i) + fd.EDGE for i in node))


@pytest.mark.parametrize("case", [(65, 40, 0.0), (65, 40, 0.005), (65, 40, 1.0),
                                  (97, 70, 1.0), (33, 3, 1.0)])
def test_eigenvalue_bounds_by_rows_are_the_full_field_gate(monkeypatch, case):
    # the gate walks blocks of rows (here 16) and never forms the whole
    # field; its bounds, or its error with the first node of the least
    # eigenvalue, are bitwise those of the full-field gate
    monkeypatch.setattr(hessian, "HESSIAN_NODES", 16 * (case[0] + 4))
    pot = _dipped(*case)
    expected = _full_field_gate(pot)
    rows = []
    original = hessian.hessian_field

    def recorded(*args, **kwargs):
        out = original(*args, **kwargs)
        rows.append(out.shape[0])
        return out

    monkeypatch.setattr(hessian, "hessian_field", recorded)
    try:
        got = pot.eigenvalue_bounds
    except ConvexityError as exc:
        got = (str(exc), exc.node)
    assert got == expected
    assert max(rows) <= 16


def test_eigenvalue_bounds_of_a_tied_field_point_at_the_first_node():
    # a constant potential: every interior node ties for the least eigenvalue,
    # an exact 0, and the first of them is in the first block
    pot = HessianPotential([np.linspace(-1, 1, 81)] * 2, np.ones((81, 81)))
    with pytest.raises(ConvexityError) as err:
        pot.eigenvalue_bounds
    assert err.value.node == (2, 2)


def test_ma_residual_and_hessian_metric_fail_at_the_gate_node():
    pot = _dipped(65, 40, 1.0)
    with pytest.raises(ConvexityError) as err:
        pot.eigenvalue_bounds
    for gate in (hessian_det_field, hessian_metric):
        with pytest.raises(ConvexityError) as again:
            gate(pot)
        assert again.value.node == err.value.node
        assert str(again.value) == str(err.value)


def test_ma_residual_by_row_blocks_is_bitwise_the_full_field(monkeypatch):
    # 257^2 takes five row blocks of HESSIAN_NODES grid nodes; the
    # determinant of each is that of the matching rows of the whole field
    n = 257
    pot = HessianPotential.from_function(
        [np.linspace(-1, 1, n), np.linspace(0.5, 1.5, n)],
        lambda a, b: np.cosh(a) + b ** 3 / 6 + 0.2 * a * b, c=1.5)
    pot.eigenvalue_bounds
    blocks = []
    original = hessian.hessian_field

    def recorded(*args, **kwargs):
        out = original(*args, **kwargs)
        blocks.append(out.shape[0])
        return out

    monkeypatch.setattr(hessian, "hessian_field", recorded)
    residual = hessian_det_field(pot) - pot.c
    assert len(blocks) >= 5 and sum(blocks) == n
    monkeypatch.setattr(hessian, "hessian_field", original)
    assert residual.tobytes() == (hessian_det(pot.hessian()) - pot.c).tobytes()


def test_nonuniform_axes_rejected():
    with pytest.raises(InputError):
        HessianPotential([np.array([0.0, 0.1, 0.3])], np.zeros(3))


@pytest.mark.parametrize("axis", [np.zeros(3), np.linspace(1.0, 0.0, 3)])
def test_axes_without_extent_rejected(axis):
    # a zero-width axis puts a zero spacing under every stencil, and the
    # tensor quintic searches a decreasing axis as if it increased
    with pytest.raises(InputError, match="strictly increasing"):
        HessianPotential([axis], np.zeros(3))


@pytest.mark.parametrize("c", [0.0, -1.0])
def test_non_positive_constant_rejected(c):
    with pytest.raises(InputError, match="positive"):
        HessianPotential([np.linspace(0.0, 1.0, 3)], np.zeros(3), c=c)
    with pytest.raises(InputError, match="positive"):
        solve_ma_dirichlet([np.linspace(0.0, 1.0, 9)] * 2, lambda a, b: (a ** 2 + b ** 2) / 2, c=c)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_potential_rejected(bad):
    values = np.zeros(3)
    values[1] = bad
    with pytest.raises(InputError, match="finite"):
        HessianPotential([np.linspace(0.0, 1.0, 3)], values)
    with pytest.raises(InputError, match="finite"):
        HessianPotential([np.linspace(0.0, 1.0, 3)], np.zeros(3), c=bad)


def test_ma_residual_closed_form():
    # phi = u1^4/12 + u1^2/2 + u2^2/2: det Hess = 1 + u1^2
    axes = [np.linspace(-1, 1, 33)] * 2
    pot = HessianPotential.from_function(
        axes, lambda a, b: a ** 4 / 12 + a ** 2 / 2 + b ** 2 / 2
    )
    res = hessian_det_field(pot) - 1.0
    u1 = axes[0][:, None] * np.ones_like(axes[1])[None, :]
    assert np.max(np.abs(res - u1 ** 2)) < 1e-8


def _symmetric_stack(rng, scale, count=64):
    """Symmetric 2x2 matrices of norm about ``scale``: definite, indefinite,
    clamped (an eigenvalue at or below 1e-6) and isotropic (b = 0, a = c)."""
    lam = scale * rng.normal(size=(count, 2))
    lam[::4, 0] = rng.choice([0.0, 1e-7, 1e-6, 2e-6, -1e-7], size=len(lam[::4]))
    lam[1::4] = np.abs(lam[1::4])
    theta = rng.uniform(0.0, np.pi, count)
    cos, sin = np.cos(theta), np.sin(theta)
    hess = np.empty((count, 2, 2))
    hess[:, 0, 0] = lam[:, 0] * cos ** 2 + lam[:, 1] * sin ** 2
    hess[:, 1, 1] = lam[:, 0] * sin ** 2 + lam[:, 1] * cos ** 2
    hess[:, 0, 1] = hess[:, 1, 0] = (lam[:, 0] - lam[:, 1]) * cos * sin
    iso = slice(2, None, 8)
    hess[iso] = lam[iso, :1, None] * np.eye(2)
    return hess


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), exponent=st.floats(-8.0, 8.0))
def test_closed_form_2x2_algebra_matches_lapack(seed, exponent):
    hess = _symmetric_stack(np.random.default_rng(seed), 10.0 ** exponent)
    eigval, eigvec = np.linalg.eigh(hess)
    size = np.max(np.abs(eigval), axis=-1)
    lo, hi = eigenvalue_range(hess)
    assert np.all(np.abs(lo - eigval[:, 0]) <= 1e-14 * size)
    assert np.all(np.abs(hi - eigval[:, 1]) <= 1e-14 * size)
    assert np.all(np.abs(hessian_det(hess) - np.linalg.det(hess)) <= 1e-14 * size ** 2)
    # eigenvalues clamped at 1e-6, as the eigh reconstruction of the solver did
    clamped = np.einsum("...ab,...b,...cb->...ac", eigvec, np.maximum(eigval, 1e-6), eigvec)
    k11, k22, k12 = hessian._clamped_cofactors(hess)
    bound = 1e-14 * np.maximum(size, 1e-6)
    for got, want in ((k11, clamped[:, 1, 1]), (k22, clamped[:, 0, 0]),
                      (k12, clamped[:, 0, 1])):
        assert np.all(np.abs(got - want) <= bound)
    # m = 1: the entry itself
    lo, hi = eigenvalue_range(hess[:, :1, :1])
    assert np.array_equal(lo, hess[:, 0, 0]) and np.array_equal(hi, hess[:, 0, 0])
    assert np.array_equal(hessian_det(hess[:, :1, :1]), hess[:, 0, 0])


def test_clamped_cofactors_of_isotropic_nodes():
    hess = np.array([3.0, 1e-6, 1e-7, 0.0, -2.0])[:, None, None] * np.eye(2)
    k11, k22, k12 = hessian._clamped_cofactors(hess)
    assert np.array_equal(k11, [3.0, 1e-6, 1e-6, 1e-6, 1e-6])
    assert np.array_equal(k22, k11)
    assert np.array_equal(k12, np.zeros(5))


def test_hessian_algebra_refuses_three_variables():
    # the line conjugates take no tensor spline, so the transform runs in
    # three variables; the residuals read the tensor quintic and the solver
    # is m = 2, so they refuse; the eigenvalues and determinants of m >= 3
    # are LAPACK's
    axes = [np.linspace(-1, 1, 9)] * 3
    pot = HessianPotential.from_function(axes, lambda a, b, c: (a ** 2 + b ** 2 + c ** 2) / 2)
    pair = legendre_transform(pot)
    assert np.max(np.abs(pair.dual.values - pot.values)) < 1e-12
    with pytest.raises(InputError, match="m <= 2"):
        fenchel_residual(pot, pair.dual)
    with pytest.raises(InputError, match="m <= 2"):
        involution_residual(pot, legendre_transform(pair.dual).dual)
    with pytest.raises(InputError):
        solve_ma_dirichlet(axes, lambda *u: sum(x ** 2 for x in u) / 2)


def test_legendre_transform_is_one_line_conjugate_per_axis(monkeypatch):
    # the full transform is the line conjugate on u_1, then on u_2 of the
    # negated result; the partial reduction is the first of these passes
    n = 129
    axes = [np.linspace(-1, 1, n)] * 2
    pot = HessianPotential.from_function(axes, lambda a, b: (a ** 2 + b ** 2) / 2
                                         + 0.1 * np.cosh(a))
    calls = []
    kernel = hessian._conjugate_lines
    monkeypatch.setattr(hessian, "_conjugate_lines",
                        lambda values, axis, u: calls.append(axis) or kernel(values, axis, u))
    pair = legendre_transform(pot)
    back = legendre_transform(pair.dual)
    partial_legendre_2d(pot)
    assert calls == [0, 1, 0, 1, 0]
    assert fenchel_residual(pot, pair.dual) < 1e-14
    assert involution_residual(pot, back.dual) < 10.0 * interpolation_tolerance(pot)


def test_self_dual_quadratic():
    pot = _quadratic([np.linspace(-1, 1, 33)] * 2, np.eye(2))
    pair = legendre_transform(pot)
    assert np.max(np.abs(pair.dual.values - pot.values)) < 1e-10
    assert fenchel_residual(pot, pair.dual) < 1e-10


def test_legendre_quadratic_inverse_matrix():
    mat = np.array([[2.0, 0.5], [0.5, 1.5]])
    pot = _quadratic([np.linspace(-1, 1, 33)] * 2, mat)
    # the dual box lies inside the gradient image, a sheared parallelogram
    pair = legendre_transform(pot)
    inv = np.linalg.inv(mat)
    dual_hess = hessian_metric(pair.dual)
    assert np.max(np.abs(dual_hess - inv)) < 1e-7


def test_legendre_involution_smooth_potential():
    axes = [np.linspace(-1, 1, 33)] * 2
    pot = HessianPotential.from_function(
        axes, lambda a, b: 0.5 * (a ** 2 + b ** 2) + 0.1 * np.cosh(a + 0.5 * b)
    )
    pair = legendre_transform(pot)
    back = legendre_transform(pair.dual)
    assert involution_residual(pot, back.dual) < 10.0 * interpolation_tolerance(pot)


def test_legendre_1d():
    axes = [np.linspace(-1, 1, 65)]
    pot = HessianPotential.from_function(axes, lambda u: np.cosh(u))
    pair = legendre_transform(pot)
    # psi(v) = v arcsinh(v) - sqrt(1 + v^2)
    v = pair.dual.axes[0]
    exact = v * np.arcsinh(v) - np.sqrt(1.0 + v ** 2)
    assert np.max(np.abs(pair.dual.values - exact)) < 1e-6


@settings(max_examples=40, deadline=None)
@given(
    m=st.sampled_from([1, 2]),
    diag=st.tuples(st.floats(0.5, 2.0), st.floats(0.5, 2.0)),
    corr=st.floats(-0.15, 0.15),
    shift=st.tuples(st.floats(-0.5, 0.5), st.floats(-0.5, 0.5)),
)
def test_legendre_involution_random_quadratics(m, diag, corr, shift):
    mat = np.diag(diag[:m])
    if m == 2:
        mat[0, 1] = mat[1, 0] = corr * np.sqrt(diag[0] * diag[1])
    lin = np.array(shift[:m])

    def fn(*mesh):
        u = np.stack(mesh, axis=-1)
        return 0.5 * np.einsum("...a,ab,...b->...", u, mat, u) + u @ lin

    pot = HessianPotential.from_function([np.linspace(-1, 1, 33 if m == 1 else 17)] * m, fn)
    pair = legendre_transform(pot)
    # the quintic spline is exact on a quadratic, and every maximiser
    # A^-1 (v - b) of the dual box lies in the u-box: the dual is the closed form
    v = pair.dual.points()
    inv = np.linalg.inv(mat)
    exact = 0.5 * np.einsum("...a,ab,...b->...", v - lin, inv, v - lin)
    assert np.max(np.abs(pair.dual.values - exact)) < 1e-10
    back = legendre_transform(pair.dual)
    assert involution_residual(pot, back.dual) < 1e-9


def test_legendre_involution_correlated_potentials():
    # quadratics with correlation up to 1/2 plus a cosh term: a dual box on
    # the bounding box of the gradient image reaches past the image, where
    # the dual has kinks at the box corners, and the convexity gate of the
    # back transform refused 15 of these 20 draws
    rng = np.random.default_rng(3)
    axes = [np.linspace(-1.0, 1.0, 33)] * 2
    for trial in range(20):
        mat = rng.uniform(0.8, 2.0) * np.eye(2)
        mat[0, 1] = mat[1, 0] = rng.uniform(-0.5, 0.5) * mat[0, 0]
        amp = rng.uniform(0.0, 0.15)
        vec = rng.normal(size=2)
        vec /= np.linalg.norm(vec)

        def fn(*mesh):
            u = np.stack(mesh, axis=-1)
            return 0.5 * np.einsum("...a,ab,...b->...", u, mat, u) + amp * np.cosh(u @ vec)

        pot = HessianPotential.from_function(axes, fn)
        pair = legendre_transform(pot)
        back = legendre_transform(pair.dual)
        assert involution_residual(pot, back.dual) < 10.0 * interpolation_tolerance(pot), trial


def test_dual_box_must_fit_in_the_gradient_image():
    # d phi / d u1 = u1 + u2 / 2 reaches 0.5 on the face u1 = -1 and only
    # -0.5 on the face u1 = 1, so no slope interval is common to every line
    # along u1
    pot = HessianPotential.from_function([np.linspace(-1, 1, 17), np.linspace(-3, 3, 17)],
                                         lambda a, b: (a ** 2 + b ** 2) / 2 + a * b / 2)
    for transform in (legendre_transform, partial_legendre_2d):
        with pytest.raises(DomainError, match="along u_1"):
            transform(pot)


def test_dual_box_is_the_slope_interval_of_the_partial_reduction(monkeypatch):
    # one rule picks every dual axis and the s-axis of the partial
    # reduction: the max of the spline slopes on the low face to their min
    # on the high face.  Pass 1 reads the slopes of phi along u_1; pass 2
    # those of the running conjugate -psi_1 along u_2, which for this
    # non-separable phi span more than phi's own slopes along u_2
    axes = [np.linspace(-1, 1, 33), np.linspace(0.5, 1.5, 33)]
    pot = HessianPotential.from_function(axes, lambda a, b: a ** 2 / (2 * b) + b ** 3 / 6)
    calls = []
    inscribed = hessian._inscribed_axis
    monkeypatch.setattr(hessian, "_inscribed_axis",
                        lambda *args: calls.append(args) or inscribed(*args))
    box = legendre_transform(pot).dual.axes
    partial_legendre_2d(pot)
    assert [axis for _, axis in calls] == [0, 1, 0]
    slopes = quintic_slopes(axes[0], pot.values)
    assert (box[0][0], box[0][-1]) == (np.max(slopes[0]), np.min(slopes[-1]))
    assert np.array_equal(calls[0][0], calls[2][0])
    running = calls[1][0]
    assert (box[1][0], box[1][-1]) == (np.max(running[0]), np.min(running[-1]))
    own = quintic_slopes(axes[1], pot.values.T)
    assert box[1][0] < np.max(own[0]) and box[1][-1] > np.min(own[-1])


def test_fenchel_residual_detects_wrong_dual():
    pot = _quadratic([np.linspace(-1, 1, 33)] * 2, np.eye(2))
    wrong = HessianPotential(pot.axes, 2.0 * pot.values)
    assert fenchel_residual(pot, wrong) > 0.1


@pytest.mark.parametrize("m", [1, 2])
def test_coarsened_keeps_every_other_node_and_c(m):
    axes = [np.linspace(0.0, 1.0, 9), np.linspace(-1.0, 2.0, 13)][:m]
    pot = HessianPotential.from_function(axes, lambda *u: sum(np.exp(x) for x in u), c=1.7)
    coarse = pot.coarsened()
    assert coarse.c == pot.c
    assert [len(ax) for ax in coarse.axes] == [5, 7][:m]
    for ax, fine in zip(coarse.axes, pot.axes):
        assert np.array_equal(ax, fine[::2])
    assert np.array_equal(coarse.values, pot.values[(slice(None, None, 2),) * m])


def test_gradient_image_axes_cover_range():
    pot = _quadratic([np.linspace(-1, 1, 33)] * 2, 2.0 * np.eye(2))
    axes = legendre_transform(pot).dual.axes
    assert np.isclose(axes[0][0], -2.0, atol=1e-8)
    assert np.isclose(axes[0][-1], 2.0, atol=1e-8)


def test_mirror_swap_pair_involution():
    pot = _quadratic([np.linspace(-1, 1, 33)] * 2, np.array([[2.0, 0.0], [0.0, 1.0]]))
    pair = legendre_transform(pot)
    double = mirror_swap(mirror_swap(pair))
    assert np.max(np.abs(double.primal.values - pair.primal.values)) < 1e-15
    assert np.max(np.abs(mirror_swap(pair).primal.values - pair.dual.values)) < 1e-15
    with pytest.raises(InputError):
        mirror_swap(3.0)


def test_mirror_swap_rejects_unrelated_object_with_swap():
    class Swappable:
        def swap(self):
            return self

    with pytest.raises(InputError):
        mirror_swap(Swappable())


def test_partial_legendre_quadratic_harmonic():
    pot = _quadratic([np.linspace(-1, 1, 65)] * 2, np.eye(2))
    assert partial_legendre_2d(pot)[0] < 1e-8


def test_partial_legendre_rescales_constant():
    # det Hess = 4; after rescaling by sqrt(c) the reduction is harmonic
    pot = _quadratic([np.linspace(-1, 1, 65)] * 2, 2.0 * np.eye(2))
    pot.c = 4.0
    assert partial_legendre_2d(pot)[0] < 1e-8


def test_partial_legendre_detects_non_ma():
    axes = [np.linspace(-1, 1, 65)] * 2
    pot = HessianPotential.from_function(
        axes, lambda a, b: a ** 4 / 12 + a ** 2 / 2 + b ** 2 / 2, c=1.0
    )
    # closed form: h_ss + h_u2u2 = -u1^2 / (1 + u1^2), max magnitude 1/2
    assert 0.3 < partial_legendre_2d(pot)[0] < 0.6


def _traced_peak(fn, *args):
    fn(*args)  # warm the stencil and difference-matrix caches
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_partial_legendre_resamples_in_column_blocks():
    # with all 257 columns in one block the reduction peaks near 21 MB; in
    # column blocks it stays within a dozen grid-sized arrays
    n = 257
    axes = [np.linspace(-0.5, 0.5, n), np.linspace(0.5, 1.5, n)]
    pot = HessianPotential.from_function(
        axes, lambda a, b: a ** 2 / (2 * b) + b ** 3 / 6, c=1.0
    )
    assert _traced_peak(partial_legendre_2d, pot) < 12 * n * n * 8


def test_chart_jobs_hold_no_per_point_spline_work_or_unbuilt_krylov_vectors():
    # evaluated on all points at once, the tensor quintic holds about 80
    # doubles per point (the Fenchel residual peaked near 68 N doubles at
    # 129^2); in blocks of fd.POINT_BLOCK = 1024 points it peaks near 14.4 N.
    # The transform, line conjugates resampled in column blocks, peaks near
    # 14.3 N (17.5 N with the blocked spline Newton polish it replaced, which
    # took 105 N on all points at once).  A GMRES basis with room for a whole cycle
    # holds 41 N doubles (the solver peaked near 95 N, and near 50 N while
    # it also held the grid Hessian and a meshgrid); with a 10-vector
    # restart, the residual-proportional forcing term, the Jacobian summed
    # in place and no grid-sized step kept across Newton steps it peaks near
    # 22.4 N (38 N with a 40-vector restart and every early step solved to
    # 1e-7)
    n = 129
    axes = [np.linspace(-1, 1, n)] * 2
    pot = HessianPotential.from_function(axes, lambda a, b: (a ** 2 + b ** 2) / 2
                                         + 0.1 * np.cosh(a))
    dual = legendre_transform(pot).dual
    # a fresh potential each call, so the traced call takes its own Hessian
    assert _traced_peak(lambda p: legendre_transform(dataclasses.replace(p)), pot) < 20 * n * n * 8
    assert _traced_peak(fenchel_residual, pot, dual) < 18 * n * n * 8
    assert _traced_peak(solve_ma_dirichlet, axes,
                        lambda a, b: np.cosh(a) + np.cosh(b)) < 24 * n * n * 8


def test_krylov_basis_never_exceeds_one_restart_cycle(monkeypatch):
    # the Krylov list of each cycle, read off spsolve's frame whenever it
    # applies the preconditioner; the exact-solution data need more than one
    # cycle in some Newton step, so a full cycle is seen
    real = hessian.spsolve
    bases = {}

    def spsolve(A, b, precond, rtol):
        def watched(r):
            basis = sys._getframe(1).f_locals.get("basis")
            if basis is not None:
                bases[id(basis)] = basis
            return precond(r)

        return real(A, b, watched, rtol)

    monkeypatch.setattr(hessian, "spsolve", spsolve)
    axes = [np.linspace(-0.5, 0.5, 65), np.linspace(0.5, 1.5, 65)]
    pot = solve_ma_dirichlet(axes, lambda a, b: a ** 2 / (2 * b) + b ** 3 / 6, c=1.0)
    assert max(pot.info["krylov_iterations"]) > hessian._GMRES_RESTART + 1
    assert max(len(basis) for basis in bases.values()) == hessian._GMRES_RESTART + 1


@pytest.mark.parametrize("data", ["cosh", "exact"])
def test_forcing_term_keeps_the_newton_steps_and_the_solution(monkeypatch, data):
    # the residual-proportional forcing term against linear solves to rtol
    # 1e-12: the same Newton count, and the same solution to 1e-12
    n = 65
    if data == "cosh":
        axes = [np.linspace(0.0, 1.0, n)] * 2

        def boundary(a, b):
            return np.cosh(a) + np.cosh(b)
    else:
        axes = [np.linspace(-0.5, 0.5, n), np.linspace(0.5, 1.5, n)]

        def boundary(a, b):
            return a ** 2 / (2 * b) + b ** 3 / 6
    pot = solve_ma_dirichlet(axes, boundary, c=1.0)
    real = hessian.spsolve
    monkeypatch.setattr(hessian, "spsolve",
                        lambda A, b, precond, rtol: real(A, b, precond, 1e-12))
    tight = solve_ma_dirichlet(axes, boundary, c=1.0)
    assert pot.info["iterations"] == tight.info["iterations"]
    assert np.max(np.abs(pot.values - tight.values)) <= 1e-12
    # the loose solves take fewer Jacobian products
    assert sum(pot.info["krylov_iterations"]) < sum(tight.info["krylov_iterations"])


def test_partial_legendre_rejects_slopes_that_fall():
    # every second difference along u1 is positive, yet the quintic through
    # the kink at u1 = 0.45 overshoots and its slopes fall between two
    # nodes, so the curve (s, h) is no function of s to resample
    axes = [np.linspace(0, 1, 9)] * 2
    u1 = np.abs(axes[0] - 0.45) + 0.01 * axes[0] ** 2
    pot = HessianPotential(axes, u1[:, None] + axes[1][None, :] ** 2 / 2)
    assert np.min(np.diff(pot.values, 2, axis=0)) > 0
    assert np.min(np.diff(quintic_slopes(axes[0], pot.values), axis=0)) < 0
    with pytest.raises(ConvexityError, match="along u_1"):
        partial_legendre_2d(pot)


def test_partial_legendre_requires_2d():
    pot = HessianPotential.from_function([np.linspace(-1, 1, 33)], lambda u: u ** 2)
    with pytest.raises(InputError):
        partial_legendre_2d(pot)


def test_solver_checks_its_input_before_solving(monkeypatch):
    # a zero-width axis gave RuntimeWarnings and then an IndexError, and a
    # decreasing axis ran the whole solve before it was refused
    monkeypatch.setattr(hessian, "_sine_basis", None)  # any solve work fails
    grid = [np.linspace(0, 1, 9)] * 2
    cases = [([np.zeros(9), np.linspace(0, 1, 9)], {}),
             ([np.linspace(1, 0, 9)] * 2, {}),
             ([np.linspace(0, 1, 9), np.linspace(0, 1, 9) ** 2], {}),
             (grid, {"boundary": np.zeros((9, 8))}),
             (grid, {"c": 0.0}),
             (grid, {"c": np.inf})]
    for axes, options in cases:
        options = {"boundary": lambda a, b: (a ** 2 + b ** 2) / 2, **options}
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InputError):
                solve_ma_dirichlet(axes, **options)


def test_solver_recovers_quadratic_exactly():
    axes = [np.linspace(0.0, 1.0, 65)] * 2
    pot = solve_ma_dirichlet(axes, lambda a, b: 0.5 * (a ** 2 + b ** 2), c=1.0)
    mesh = np.meshgrid(*axes, indexing="ij")
    exact = 0.5 * (mesh[0] ** 2 + mesh[1] ** 2)
    assert np.max(np.abs(pot.values - exact)) < 1e-6
    assert pot.info["iterations"] <= 15


def test_solver_quadratic_convergence_on_cosh_data():
    axes = [np.linspace(0.0, 1.0, 65)] * 2
    pot = solve_ma_dirichlet(axes, lambda a, b: np.cosh(a) + np.cosh(b), c=1.0)
    hist = pot.info["residuals"]
    assert pot.info["iterations"] <= 10
    assert hist[-1] < 1e-8
    # quadratic tail: the last full step squares the residual scale
    assert hist[-1] < hist[-2] ** 1.5


def test_solver_info_is_a_dataclass_field():
    axes = [np.linspace(0.0, 1.0, 17)] * 2
    pot = solve_ma_dirichlet(axes, lambda a, b: 0.5 * (a ** 2 + b ** 2), c=1.0)
    assert "info" in {f.name for f in dataclasses.fields(HessianPotential)}
    assert set(pot.info) == {"iterations", "residuals", "krylov_iterations",
                             "interior_residual"}
    assert len(pot.info["krylov_iterations"]) == pot.info["iterations"]
    assert "info" not in repr(pot)
    assert HessianPotential(axes, pot.values).info is None


@pytest.mark.parametrize("n", [17, 65])
def test_solver_interior_residual_is_the_ma_residual_of_its_result(n):
    # the residual the stopping test read is det - c of the returned
    # potential inside the Dirichlet ring, bitwise that of the row-block walk
    axes = [np.linspace(0.0, 1.0, n)] * 2
    pot = solve_ma_dirichlet(axes, lambda a, b: np.cosh(a) + np.cosh(b), c=1.3)
    inner = pot.info["interior_residual"]
    assert inner.tobytes() == (hessian_det_field(pot) - 1.3)[1:-1, 1:-1].tobytes()
    assert np.max(np.abs(inner)) == pot.info["residuals"][-1]


def test_solver_respects_max_iter(monkeypatch):
    monkeypatch.setattr(hessian, "NEWTON_STEPS", 1)
    axes = [np.linspace(0.0, 1.0, 33)] * 2
    with pytest.raises(ConvergenceError, match="after 1 iterations"):
        solve_ma_dirichlet(axes, lambda a, b: np.cosh(a) + np.cosh(b), c=1.0)


def test_solver_rejects_bad_input():
    with pytest.raises(InputError):
        solve_ma_dirichlet([np.linspace(0, 1, 9)] * 3, lambda *m: m[0])
    with pytest.raises(InputError):
        solve_ma_dirichlet([np.linspace(0, 1, 9)] * 2, np.zeros((5, 5)))


@pytest.mark.parametrize("n", [33, 129])
def test_solver_reproduces_quadratic_to_roundoff(n):
    # the fourth-order stencils are exact on a quadratic, so the only error
    # left is the linear solves'
    axes = [np.linspace(0.0, 1.0, n)] * 2
    pot = solve_ma_dirichlet(axes, lambda a, b: 0.5 * (a ** 2 + b ** 2), c=1.0)
    mesh = np.meshgrid(*axes, indexing="ij")
    exact = 0.5 * (mesh[0] ** 2 + mesh[1] ** 2)
    assert np.max(np.abs(pot.values - exact)) <= 1e-12


def _direct_newton_reference(axes, boundary, c=1.0, tol=1e-8):
    """Newton whose fourth-order Jacobian is assembled and factorised by SuperLU.

    Full steps and no eigenvalue clamp, which is what the solver does on
    strictly convex data.  Returns the solution and the Newton step count.
    """
    from scipy import sparse
    from scipy.sparse.linalg import spsolve as superlu

    shape = tuple(len(ax) for ax in axes)
    spacings = tuple(float(ax[1] - ax[0]) for ax in axes)
    d = [{k: diff_matrix(n, h, k) for k in (1, 2)} for n, h in zip(shape, spacings)]
    op11 = sparse.kron(d[0][2], np.eye(shape[1]), format="csr")
    op22 = sparse.kron(np.eye(shape[0]), d[1][2], format="csr")
    op12 = sparse.kron(d[0][1], d[1][1], format="csr")
    interior = np.zeros(shape, dtype=bool)
    interior[1:-1, 1:-1] = True
    idx = np.flatnonzero(interior)
    phi = np.where(interior, 0.0, boundary(*np.meshgrid(*axes, indexing="ij")))
    lap = op11 + op22
    rhs = 2.0 * np.sqrt(c) - (lap @ phi.ravel())[idx]
    phi.ravel()[idx] = superlu(lap[idx][:, idx].tocsc(), rhs)
    for iteration in range(20):
        hess = hessian_field(phi, spacings)
        res = (np.linalg.det(hess) - c).ravel()[idx]
        if np.max(np.abs(res)) < tol:
            return phi, iteration
        jac = (sparse.diags(hess[..., 1, 1].ravel()) @ op11
               + sparse.diags(hess[..., 0, 0].ravel()) @ op22
               - 2.0 * sparse.diags(hess[..., 0, 1].ravel()) @ op12).tocsr()
        phi.ravel()[idx] -= superlu(jac[idx][:, idx].tocsc(), res)
    raise AssertionError("reference Newton did not converge")


def test_solver_matches_direct_newton_reference():
    axes = [np.linspace(0.0, 1.0, 65)] * 2

    def boundary(a, b):
        return np.cosh(a) + np.cosh(b)

    ref, ref_iterations = _direct_newton_reference(axes, boundary)
    pot = solve_ma_dirichlet(axes, boundary, c=1.0)
    assert pot.info["iterations"] == ref_iterations
    assert np.max(np.abs(pot.values - ref)) < 1e-10


def _failing_spsolve(fail_at):
    """``hessian.spsolve`` asking its GMRES for rtol 0, which no residual
    reaches, on linear solve number fail_at."""
    real = hessian.spsolve
    calls = []

    def spsolve(A, b, precond, rtol):
        calls.append(1)
        return real(A, b, precond, 0.0 if len(calls) == fail_at + 1 else rtol)

    return spsolve


@pytest.mark.parametrize("fail_at", [0, 1])
def test_gmres_failure_raises_convergence_error(monkeypatch, fail_at):
    # call k is Newton step k + 1; the history holds the residuals before it
    monkeypatch.setattr(hessian, "spsolve", _failing_spsolve(fail_at))
    axes = [np.linspace(0.0, 1.0, 17)] * 2
    with pytest.raises(ConvergenceError) as err:
        solve_ma_dirichlet(axes, lambda a, b: np.cosh(a) + np.cosh(b), c=1.0)
    assert "GMRES" in str(err.value)
    assert len(err.value.history) == fail_at + 1


@pytest.mark.parametrize("preconditioned", [False, True])
def test_gmres_matches_dense_solve(preconditioned):
    rng = np.random.default_rng(5)
    n = 120
    mat = np.diag(rng.uniform(1.0, 10.0, n)) + rng.normal(size=(n, n)) / np.sqrt(n)
    b = rng.normal(size=n)
    precond = (lambda r: r / np.diag(mat)) if preconditioned else (lambda r: r)
    rtol = 1e-10
    x = hessian.spsolve(hessian._Operator(mat.shape, lambda v: mat @ v), b, precond, rtol)
    assert np.linalg.norm(b - mat @ x) <= rtol * np.linalg.norm(b)
    exact = np.linalg.solve(mat, b)
    bound = np.linalg.cond(mat) * rtol * np.linalg.norm(exact)
    assert np.linalg.norm(x - exact) <= bound


@pytest.mark.parametrize("n", [33, 65])
@pytest.mark.parametrize("data", ["cosh", "exact"])
def test_solver_gmres_iterations_are_bounded(monkeypatch, n, data):
    # the sine-transform preconditioner leaves out the mixed cofactor and the
    # variation of the cofactors; on these data a linear solve to the
    # residual-proportional forcing term still takes at most 20 Jacobian
    # products (39 when every early step was solved to rtol 1e-7)
    real = hessian.spsolve
    applications = []

    def spsolve(A, b, precond, rtol):
        count = [0]

        def matvec(x):
            count[0] += 1
            return A @ x

        x = real(hessian._Operator(A.shape, matvec), b, precond, rtol)
        applications.append(count[0])
        return x

    monkeypatch.setattr(hessian, "spsolve", spsolve)
    if data == "cosh":
        axes = [np.linspace(0.0, 1.0, n)] * 2
        pot = solve_ma_dirichlet(axes, lambda a, b: np.cosh(a) + np.cosh(b), c=1.0)
    else:
        # det Hess = 1 exactly
        axes = [np.linspace(-0.5, 0.5, n), np.linspace(0.5, 1.5, n)]
        pot = solve_ma_dirichlet(axes, lambda a, b: a ** 2 / (2 * b) + b ** 3 / 6, c=1.0)
    assert len(applications) == pot.info["iterations"]
    # iterations plus one true residual per cycle
    assert max(applications) <= 45


@pytest.mark.parametrize("data", ["cosh", "quadratic"])
def test_solver_runs_one_linear_solve_per_newton_step(monkeypatch, data):
    # the start is the sine-transform solve of the 3-point Poisson problem,
    # so GMRES runs for the Newton steps alone
    real = hessian.spsolve
    calls = []

    def spsolve(A, b, precond, rtol):
        calls.append(1)
        return real(A, b, precond, rtol)

    monkeypatch.setattr(hessian, "spsolve", spsolve)
    axes = [np.linspace(0.0, 1.0, 33)] * 2
    if data == "cosh":
        pot = solve_ma_dirichlet(axes, lambda a, b: 1.05 * (np.cosh(a) + np.cosh(b)), c=1.0)
    else:
        pot = solve_ma_dirichlet(axes, lambda a, b: (a ** 2 + b ** 2) / 2, c=1.3)
    assert pot.info["iterations"] > 0
    assert len(calls) == pot.info["iterations"]


@pytest.mark.parametrize("parity", [0, 1])
@given(data=st.data())
@settings(max_examples=50, deadline=None)
def test_median_is_bitwise_np_median(parity, data):
    size = 2 * data.draw(st.integers(0, 40)) + parity or 2
    values = np.array(data.draw(st.lists(st.floats(allow_nan=False, allow_infinity=False),
                                         min_size=size, max_size=size)))
    got = hessian._median(values)
    assert type(got) is np.float64
    assert got.tobytes() == np.median(values).tobytes()
    assert hessian._median(values.reshape(1, -1)).tobytes() == got.tobytes()


def test_potential_csv_roundtrip(tmp_path):
    # every float written by repr reads back bitwise, signed zeros,
    # subnormals and the ends of the exponent range included, with and
    # without c; blank and whitespace-only lines anywhere are ignored
    pot = _quadratic([np.linspace(-1, 1, 17), np.linspace(0, 2, 9)], np.eye(2))
    special = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308 / 3,
               1e300, -1e300, 1e-300, -1e-300, 0.1, 1 / 3, np.nextafter(1.0, 2.0)]
    pot.values.flat[:len(special)] = special
    path = tmp_path / "pot.csv"
    for c in (1.0, None, 0.7):
        for blank in (False, True):
            pot.c = c
            save_potential(pot, path)
            if blank:
                lines = path.read_text().splitlines()
                path.write_text("\n" + "\n  \n".join(lines) + "\n\t\n\n")
            back = load_potential(path)
            assert back.c == c
            assert back.values.tobytes() == pot.values.tobytes()
            assert np.signbit(back.values.flat[1])
            for a, b in zip(back.axes, pot.axes):
                assert a.tobytes() == b.tobytes()


_HEADER = "m,2\naxis,0.0,1.0,3\naxis,0.0,1.0,2\n"
_VALUES = "".join(f"{float(i)!r}\n" for i in range(6))


@pytest.mark.parametrize("content, reason", [
    (b"\xff\xfe" + _HEADER.encode() + _VALUES.encode(), "cannot read"),
    (_HEADER.encode() + b"1.0\n\xff\n" + _VALUES[4:].encode(), "cannot read"),
    ("m,x\n", "malformed"),
    ("m,0\n5.0\n", "malformed"),  # no grid axis
    ("m,-1\n5.0\n", "malformed"),
    ("q,2\naxis,0.0,1.0,3\naxis,0.0,1.0,2\n" + _VALUES, "malformed"),  # not m
    ("m,2\naxis,0.0,1.0,3\nc,0.0,1.0,2\n" + _VALUES, "malformed"),  # not an axis
    ("m,2,3\n" + _HEADER[4:] + _VALUES, "malformed"),
    ("m,2\naxis,0,1\naxis,0,1,2\n" + _VALUES, "malformed"),
    (_HEADER, "malformed"),  # no values
    (_HEADER + "c,1.0\n\n", "malformed"),  # no values after c
    (_HEADER + "c,x\n" + _VALUES, "malformed"),
    (_HEADER + "c,1.0,2.0\n" + _VALUES, "malformed"),
    (_HEADER + _VALUES[:-4], "malformed"),  # too few values
    (_HEADER + _VALUES + "6.0\n", "malformed"),  # too many
    (_HEADER + "abc\n" + _VALUES[4:], "malformed"),
    (_HEADER + "# 0.0\n" + _VALUES, "malformed"),  # no comments
    (_HEADER + "0.0 1.0\n" + _VALUES[8:], "malformed"),  # two numbers on a line
    (_HEADER + "0.0 1.0\n2.0 3.0\n4.0 5.0\n", "malformed"),  # a 2-D block
    (_HEADER + "0.0,1.0\n" + _VALUES[8:], "malformed"),
    (_HEADER + "nan\n" + _VALUES[4:], "malformed"),  # not finite
    (_HEADER + "c,inf\n" + _VALUES, "malformed"),
])
def test_potential_file_refusals(tmp_path, content, reason):
    path = tmp_path / "bad.csv"
    if isinstance(content, bytes):
        path.write_bytes(content)
    else:
        path.write_text(content)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # refused without a numpy warning
        with pytest.raises(InputError, match=f"^{reason} potential file"):
            load_potential(path)


def test_malformed_potential_file(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("m,2\naxis,0,1,5\n")  # the header stops
    with pytest.raises(InputError, match="^malformed potential file"):
        load_potential(path)


def test_missing_potential_file(tmp_path):
    with pytest.raises(InputError, match="^cannot read potential file"):
        load_potential(tmp_path / "absent.csv")


def test_load_potential_holds_no_object_per_node(tmp_path):
    # a Python float and a stripped line per node held about 14 N doubles at
    # 129^2; the value block parsed in C holds little more than the values
    n = 129
    axes = [np.linspace(-1, 1, n)] * 2
    path = tmp_path / "pot.csv"
    save_potential(HessianPotential.from_function(axes, lambda a, b: a * a + b * b, 1.0),
                   path)
    assert _traced_peak(load_potential, path) < 3 * n * n * 8


def test_richardson_tolerance_scaling():
    # 10 x the coarse value over 2^4, never below 10 x the floor
    assert two_grid_bound(16.0, 1e-12) == pytest.approx(10.0)
    assert two_grid_bound(0.0, 1e-12) == pytest.approx(1e-11)
    assert two_grid_bound(-16.0, 2.0) == 20.0
    assert two_grid_bound(0.0, 3e-9) == 3e-8
