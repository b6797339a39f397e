"""Hessian potentials: metric, Legendre duality, partial reduction, solver."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from slmoduli.errors import ConvergenceError, ConvexityError, InputError
from slmoduli import hessian
from slmoduli.fd import diff_matrix, hessian_field, richardson_tolerance
from slmoduli.hessian import (
    HessianPotential,
    fenchel_residual,
    gradient_image_axes,
    hessian_metric,
    interpolation_tolerance,
    legendre_transform,
    load_potential,
    ma_residual,
    mirror_swap,
    partial_legendre_2d,
    save_potential,
    solve_ma_dirichlet,
)


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
    with pytest.raises(ConvexityError) as err:
        hessian_metric(pot)
    assert err.value.node is not None


def test_nonuniform_axes_rejected():
    with pytest.raises(InputError):
        HessianPotential([np.array([0.0, 0.1, 0.3])], np.zeros(3))


def test_ma_residual_closed_form():
    # phi = u1^4/12 + u1^2/2 + u2^2/2: det Hess = 1 + u1^2
    axes = [np.linspace(-1, 1, 33)] * 2
    pot = HessianPotential.from_function(
        axes, lambda a, b: a ** 4 / 12 + a ** 2 / 2 + b ** 2 / 2
    )
    res = ma_residual(pot, 1.0)
    u1 = axes[0][:, None] * np.ones_like(axes[1])[None, :]
    assert np.max(np.abs(res - u1 ** 2)) < 1e-8


def test_self_dual_quadratic():
    pot = _quadratic([np.linspace(-1, 1, 33)] * 2, np.eye(2))
    pair = legendre_transform(pot, v_axes=pot.axes)
    assert np.max(np.abs(pair.dual.values - pot.values)) < 1e-10
    assert pair.pairing_residual < 1e-10


def test_legendre_quadratic_inverse_matrix():
    mat = np.array([[2.0, 0.5], [0.5, 1.5]])
    pot = _quadratic([np.linspace(-1, 1, 33)] * 2, mat)
    # shrink the dual box into the gradient image (a sheared parallelogram)
    v_axes = gradient_image_axes(pot, margin=0.25)
    pair = legendre_transform(pot, v_axes=v_axes)
    inv = np.linalg.inv(mat)
    dual_hess = hessian_metric(pair.dual)
    assert np.max(np.abs(dual_hess - inv)) < 1e-7


def test_legendre_involution_smooth_potential():
    axes = [np.linspace(-1, 1, 33)] * 2
    pot = HessianPotential.from_function(
        axes, lambda a, b: 0.5 * (a ** 2 + b ** 2) + 0.1 * np.cosh(a + 0.5 * b)
    )
    pair = legendre_transform(pot)
    back = legendre_transform(pair.dual, v_axes=pot.axes)
    err = np.max(np.abs(back.dual.values - pot.values))
    assert err < 10.0 * interpolation_tolerance(pot)


def test_legendre_1d():
    axes = [np.linspace(-1, 1, 65)]
    pot = HessianPotential.from_function(axes, lambda u: np.cosh(u))
    pair = legendre_transform(pot)
    # psi(v) = v arcsinh(v) - sqrt(1 + v^2)
    v = pair.dual.axes[0]
    exact = v * np.arcsinh(v) - np.sqrt(1.0 + v ** 2)
    assert np.max(np.abs(pair.dual.values - exact)) < 1e-6


def _brute_force_argmax(pot, v_axes):
    """Reference: max of <u, v> - phi(u) over every (v-node, u-node) pair."""
    pts = pot.points().reshape(-1, pot.dim)
    v = np.stack(np.meshgrid(*v_axes, indexing="ij"), axis=-1).reshape(-1, pot.dim)
    scores = v @ pts.T - pot.values.reshape(-1)[None, :]
    order = np.sort(scores, axis=1)
    return pts[np.argmax(scores, axis=1)], order[:, -1], order[:, -1] - order[:, -2]


def _random_convex(rng, m, n):
    mat = rng.normal(size=(m, m))
    mat = mat @ mat.T + 0.3 * np.eye(m)
    lin = rng.normal(size=m)
    amp = rng.uniform(0.0, 0.3)
    vec = rng.normal(size=m)

    def fn(*mesh):
        u = np.stack(mesh, axis=-1)
        return (0.5 * np.einsum("...a,ab,...b->...", u, mat, u) + u @ lin
                + amp * np.cosh(u @ vec))

    return HessianPotential.from_function([np.linspace(-1, 1, n)] * m, fn)


@pytest.mark.parametrize("m", [1, 2])
def test_separable_argmax_matches_brute_force(m):
    rng = np.random.default_rng(11 + m)
    for _ in range(10):
        pot = _random_convex(rng, m, int(rng.integers(9, 26)))
        v_axes = gradient_image_axes(pot, margin=rng.uniform(0.0, 0.3))
        pair = legendre_transform(pot, v_axes=v_axes, refine=False)
        ref_pts, ref_max, ref_gap = _brute_force_argmax(pot, v_axes)
        argmax = pair.argmax_points.reshape(-1, m)
        psi = pair.dual.values.reshape(-1)
        assert np.max(np.abs(psi - ref_max)) < 1e-13
        # the same node wherever the maximum is not a near tie
        unique = ref_gap > 1e-12
        assert np.array_equal(argmax[unique], ref_pts[unique])
        # and the objective at the returned node is the grid conjugate
        idx = tuple(np.rint((argmax[:, a] - pot.axes[a][0]) / pot.spacings[a]).astype(int)
                    for a in range(m))
        v = np.stack(np.meshgrid(*v_axes, indexing="ij"), axis=-1).reshape(-1, m)
        at_argmax = np.sum(argmax * v, axis=1) - pot.values[idx]
        assert np.max(np.abs(at_argmax - psi)) < 1e-13


def test_polished_conjugate_not_below_grid_conjugate():
    # the draws of acceptance criterion 07; without the guard the polished
    # back-transform fell below the grid value by up to 2.7e-3
    rng = np.random.default_rng(77)
    for trial in range(50):
        m = 1 if trial % 2 == 0 else 2
        n = 65 if m == 1 else 33
        axes = [np.linspace(-1.0, 1.0, n)] * m
        scale = rng.uniform(0.8, 2.0)
        mat = scale * np.eye(m)
        if m == 2:
            s = rng.uniform(-0.15, 0.15) * scale
            mat = mat + np.array([[0.0, s], [s, 0.0]])
        amp = rng.uniform(0.0, 0.15)
        vec = rng.normal(size=m)
        vec /= max(np.linalg.norm(vec), 1e-9)

        def fn(*mesh):
            u = np.stack(mesh, axis=-1)
            return 0.5 * np.einsum("...a,ab,...b->...", u, mat, u) + amp * np.cosh(u @ vec)

        pot = HessianPotential.from_function(axes, fn)
        v_axes = gradient_image_axes(pot, margin=0.2)
        dual = legendre_transform(pot, v_axes=v_axes).dual
        # forward transform and back-transform of the dual, as in the criterion
        for primal, target in ((pot, v_axes), (dual, pot.axes)):
            grid = legendre_transform(primal, v_axes=target, refine=False).dual.values
            polished = legendre_transform(primal, v_axes=target).dual.values
            assert np.min(polished - grid) >= -1e-12, trial


def test_polish_step_skips_only_nodes_without_a_definite_hessian():
    hess = np.array([[[2.0, 0.5], [0.5, 1.0]],
                     [[1.0, 1.0], [1.0, 1.0]],  # singular
                     [[1.0, 0.0], [0.0, -1.0]],  # indefinite
                     [[3.0, -1.0], [-1.0, 2.0]]])
    rhs = np.array([[1.0, -2.0], [0.5, 0.5], [1.0, 1.0], [-0.3, 0.7]])
    # one batched solve of these systems fails for all of them
    with pytest.raises(np.linalg.LinAlgError):
        np.linalg.solve(hess, rhs[..., None])
    step = hessian._newton_step(hess, rhs)
    definite = [0, 3]
    want = np.linalg.solve(hess[definite], rhs[definite][..., None])[..., 0]
    assert np.max(np.abs(step[definite] - want)) < 1e-15
    assert np.all(step[[1, 2]] == 0.0)
    step = hessian._newton_step(np.array([[[2.0]], [[0.0]], [[-1.0]]]), np.ones((3, 1)))
    assert np.array_equal(step, [[0.5], [0.0], [0.0]])


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
    v_axes = gradient_image_axes(pot, margin=0.2)
    pair = legendre_transform(pot, v_axes=v_axes)
    # the quintic spline is exact on a quadratic: wherever the maximiser
    # A^-1 (v - b) lies in the box the dual is the closed form
    v = np.stack(np.meshgrid(*v_axes, indexing="ij"), axis=-1)
    inv = np.linalg.inv(mat)
    exact = 0.5 * np.einsum("...a,ab,...b->...", v - lin, inv, v - lin)
    attained = np.all(np.abs((v - lin) @ inv) <= 1.0, axis=-1)
    assert np.max(np.abs(pair.dual.values - exact)[attained]) < 1e-10
    # involution where the gradient stays one dual spacing inside the v-box
    back = legendre_transform(pair.dual, v_axes=pot.axes)
    grad = pot.gradient()
    lo = np.array([ax[1] for ax in v_axes])
    hi = np.array([ax[-2] for ax in v_axes])
    inside = np.all((grad >= lo) & (grad <= hi), axis=-1)
    assert np.max(np.abs(back.dual.values - pot.values)[inside]) < 1e-9


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
    axes = gradient_image_axes(pot)
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
    result = partial_legendre_2d(pot)
    assert result["laplace_residual"] < 1e-8


def test_partial_legendre_rescales_constant():
    # det Hess = 4; after rescaling by sqrt(c) the reduction is harmonic
    pot = _quadratic([np.linspace(-1, 1, 65)] * 2, 2.0 * np.eye(2))
    pot.c = 4.0
    result = partial_legendre_2d(pot)
    assert result["laplace_residual"] < 1e-8


def test_partial_legendre_detects_non_ma():
    axes = [np.linspace(-1, 1, 65)] * 2
    pot = HessianPotential.from_function(
        axes, lambda a, b: a ** 4 / 12 + a ** 2 / 2 + b ** 2 / 2, c=1.0
    )
    result = partial_legendre_2d(pot)
    # closed form: h_ss + h_u2u2 = -u1^2 / (1 + u1^2), max magnitude 1/2
    assert 0.3 < result["laplace_residual"] < 0.6


def test_partial_legendre_rejects_slopes_that_fall():
    # every second-derivative stencil is positive, yet the first-derivative
    # stencil falls between two nodes, so no slope interpolant exists
    u1 = np.array([0.0035851, 0.00847496, 0.03305565, 0.06944083, 0.11705026,
                   0.17834205, 0.27254194, 0.38586992, 0.50263173])
    axes = [np.linspace(0, 1, 9)] * 2
    pot = HessianPotential(axes, u1[:, None] + axes[1][None, :] ** 2 / 2)
    assert np.min(hessian_field(pot.values, pot.spacings)[..., 0, 0]) > 0
    with pytest.raises(ConvexityError):
        partial_legendre_2d(pot)


def test_partial_legendre_requires_2d():
    pot = HessianPotential.from_function([np.linspace(-1, 1, 33)], lambda u: u ** 2)
    with pytest.raises(InputError):
        partial_legendre_2d(pot)


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
    assert set(pot.info) == {"iterations", "residuals"}
    assert "info" not in repr(pot)
    assert HessianPotential(axes, pot.values).info is None


def test_solver_respects_max_iter():
    axes = [np.linspace(0.0, 1.0, 33)] * 2
    with pytest.raises(ConvergenceError):
        solve_ma_dirichlet(
            axes, lambda a, b: np.cosh(a) + np.cosh(b), c=1.0, max_iter=1
        )


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
    # call 0 is the Poisson initial guess, call 1 the first Newton step
    monkeypatch.setattr(hessian, "spsolve", _failing_spsolve(fail_at))
    axes = [np.linspace(0.0, 1.0, 17)] * 2
    with pytest.raises(ConvergenceError) as err:
        solve_ma_dirichlet(axes, lambda a, b: np.cosh(a) + np.cosh(b), c=1.0)
    assert "GMRES" in str(err.value)
    assert len(err.value.history) == fail_at


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
    # variation of the cofactors; on these data a linear solve still takes
    # at most 38 iterations, within one restart cycle
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
    assert len(applications) == pot.info["iterations"] + 1
    # iterations plus one true residual per cycle
    assert max(applications) <= 45
    assert applications[0] <= 20  # the Poisson start


def test_potential_csv_roundtrip(tmp_path):
    pot = _quadratic([np.linspace(-1, 1, 17), np.linspace(0, 2, 9)], np.eye(2))
    pot.c = 1.0
    path = tmp_path / "pot.csv"
    save_potential(pot, path)
    back = load_potential(path)
    assert back.c == 1.0
    assert np.max(np.abs(back.values - pot.values)) < 1e-12
    for a, b in zip(back.axes, pot.axes):
        assert np.max(np.abs(a - b)) < 1e-12


def test_malformed_potential_file(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("m,2\naxis,0,1,5\n")
    with pytest.raises(InputError):
        load_potential(path)


def test_richardson_tolerance_scaling():
    assert richardson_tolerance(16.0) == pytest.approx(1.0)
    assert richardson_tolerance(0.0) == pytest.approx(1e-12)
    assert richardson_tolerance(8.0, order=3) == pytest.approx(1.0)
