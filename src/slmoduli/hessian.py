"""Hessian potentials on a box chart: metrics, Legendre duality, Monge-Ampere.

A potential is a strictly convex scalar on a uniform box grid.  The module
computes its Hessian metric, the Monge-Ampere residual det(Hess) - c, the
discrete Legendre transform (one separable per-axis pass that returns the
grid conjugate together with its argmax node, optionally sharpened by a
spline Newton refinement started from that node), the mirror role-swap, the
2D partial Legendre reduction to the Laplace equation, and a damped
Newton-Krylov Dirichlet solver for det(Hess phi) = c in two variables.  The
solver applies its fourth-order Jacobian as 1D matrix products without
assembling it and solves each Newton step by a numpy GMRES, preconditioned
by sine-transform inversion of a constant-coefficient second-order operator;
nothing is factorised.  The Legendre polish and the Fenchel residual
evaluate the tensor quintic ``fd.TensorQuintic``, and the partial Legendre
reduction resamples with ``fd.quintic_resample``, so the module runs on
numpy alone.  Convexity and every residual are read on ``fd.interior``, and
``HessianPotential.coarsened`` is the coarse grid of every two-grid bound.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import ConvergenceError, ConvexityError, DomainError, InputError
from .family import ModuliChart
from .fd import (EDGE, TensorQuintic, apply_diff, diff_matrix, gradient_field, hessian_field,
                 interior, quintic_resample)

# smallest Hessian eigenvalue on the interior that counts as strictly convex
CONVEXITY_TOL = 1e-10


@dataclass
class HessianPotential:
    """Scalar potential phi on a uniform box grid in u-space."""

    axes: list
    values: np.ndarray
    c: float = None
    info: dict = field(default=None, repr=False)  # solver diagnostics, if any

    def __post_init__(self):
        self.axes = [np.asarray(ax, dtype=float) for ax in self.axes]
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape != tuple(len(ax) for ax in self.axes):
            raise InputError("potential values do not match the grid axes")
        for ax in self.axes:
            steps = np.diff(ax)
            if len(steps) == 0 or np.max(np.abs(steps - steps[0])) > 1e-10 * abs(steps[0]):
                raise InputError("grid axes must be uniform and non-trivial")

    @classmethod
    def from_function(cls, axes, fn, c=None):
        mesh = np.meshgrid(*[np.asarray(a, dtype=float) for a in axes], indexing="ij")
        return cls(axes, fn(*mesh), c)

    @property
    def dim(self):
        return len(self.axes)

    @property
    def spacings(self):
        return tuple(float(ax[1] - ax[0]) for ax in self.axes)

    def meshgrid(self):
        return np.meshgrid(*self.axes, indexing="ij")

    def points(self):
        return np.stack(self.meshgrid(), axis=-1)

    def hessian(self):
        return hessian_field(self.values, self.spacings)

    def gradient(self):
        return gradient_field(self.values, self.spacings)

    def coarsened(self):
        """The potential on every other node of each axis, with the same c.

        The coarse grid of every two-grid bound (``fd.richardson_tolerance``).
        """
        return HessianPotential([ax[::2] for ax in self.axes],
                                self.values[(slice(None, None, 2),) * self.dim], self.c)

    def spline(self):
        """Quintic interpolant of the potential (m = 1 or 2), an ``fd.TensorQuintic``."""
        if self.dim > 2:
            raise InputError("spline interpolation supports m <= 2")
        return TensorQuintic(self.axes, self.values)


def hessian_metric(pot):
    """Discrete Hessian matrix field; raises if convexity fails at an interior node."""
    hess = pot.hessian()
    core = interior(pot.values.shape, EDGE)
    eigs = np.linalg.eigvalsh(hess[core])
    if np.min(eigs) <= CONVEXITY_TOL:
        flat = np.argmin(eigs.min(axis=-1))
        node = np.unravel_index(flat, hess[core].shape[:-2])
        raise ConvexityError(
            f"potential fails strict convexity (min eigenvalue {np.min(eigs):.3e})",
            node=tuple(int(i) + EDGE for i in node),
        )
    return hess


def ma_residual(pot, c):
    """det(discrete Hessian) - c per node."""
    return np.linalg.det(hessian_metric(pot)) - float(c)


def _conjugate_axis(values, u_nodes, v_nodes):
    """Exact conjugate of the piecewise-linear interpolant along one axis.

    ``values`` has the conjugation variable on axis 0; the sup over the PL
    interpolant is attained at a grid node, so a max over nodes is exact.
    A running max over the u-nodes keeps the work array at the size of the
    result.  Returns the conjugate values and the (first) argmax node index.
    """
    v = v_nodes.reshape((-1,) + (1,) * (values.ndim - 1))
    best = v * u_nodes[0] - values[0]
    arg = np.zeros(best.shape, dtype=np.intp)
    for i in range(1, len(u_nodes)):
        score = v * u_nodes[i] - values[i]
        better = score > best
        best[better] = score[better]
        arg[better] = i
    return best, arg


@dataclass
class LegendrePair:
    """A potential, its convex conjugate, and the Fenchel pairing residual."""

    primal: HessianPotential
    dual: HessianPotential
    pairing_residual: float
    argmax_points: np.ndarray = field(default=None, repr=False)

    def swapped(self):
        return LegendrePair(
            self.dual, self.primal, self.pairing_residual, None
        )


def gradient_image_axes(pot, margin=0.0):
    """Per-axis ranges of the discrete gradient map, as uniform v-axes.

    Each v-axis has as many nodes as the u-axis it comes from.
    """
    grad = pot.gradient()
    axes = []
    for a in range(pot.dim):
        lo = float(np.min(grad[..., a]))
        hi = float(np.max(grad[..., a]))
        pad = margin * (hi - lo)
        axes.append(np.linspace(lo + pad, hi - pad, len(pot.axes[a])))
    return axes


def legendre_transform(pot, v_axes=None, refine=True):
    """psi(v) = sup_u (<u, v> - phi(u)) on a regular v-grid.

    The sup is taken exactly over the piecewise-linear interpolant by one
    separable pass (``_grid_conjugate``), which also yields the maximising
    node of every v-node.  With ``refine`` that node starts a projected
    Newton polish on a quintic spline of phi, which restores smooth-order
    accuracy; both values are lower bounds of the sup over the box, so the
    larger one is kept at each v-node.
    """
    hessian_metric(pot)  # convexity is a precondition
    if v_axes is None:
        v_axes = gradient_image_axes(pot)
    v_axes = [np.asarray(ax, dtype=float) for ax in v_axes]
    psi, argmax = _grid_conjugate(pot, v_axes)
    if refine:
        fine, fine_argmax = _refine_conjugate(pot, v_axes, argmax)
        better = fine > psi
        psi = np.where(better, fine, psi)
        argmax = np.where(better[..., None], fine_argmax, argmax)
    dual_c = None if pot.c is None else 1.0 / pot.c
    dual = HessianPotential(v_axes, psi, dual_c)
    residual = fenchel_residual(pot, dual)
    return LegendrePair(pot, dual, residual, argmax)


def _grid_conjugate(pot, v_axes):
    """Grid conjugate and grid argmax point of every v-node, in one pass.

    max_u (<u, v> - phi(u)) over the grid separates into per-axis maxima:
    after axis a the work array holds v_1..v_a and u_(a+1)..u_m.  The argmax
    index of axis a depends on exactly those, so reading the indices back
    from the last axis to the first gives the maximising node of each v-node.
    """
    work = pot.values
    args = []
    for a in range(pot.dim):
        conj, arg = _conjugate_axis(np.moveaxis(work, a, 0), pot.axes[a], v_axes[a])
        work = np.moveaxis(-conj, 0, a)  # keep negated until the last axis
        args.append(np.moveaxis(arg, 0, a))
    psi = -work
    v_index = np.indices(psi.shape, sparse=True)
    index = [None] * pot.dim
    for a in reversed(range(pot.dim)):
        index[a] = args[a][tuple(v_index[:a + 1]) + tuple(index[a + 1:])]
    argmax = np.stack([ax[i] for ax, i in zip(pot.axes, index)], axis=-1)
    return psi, argmax


def _refine_conjugate(pot, v_axes, argmax, steps=40):
    """Projected Newton polish of the conjugate on a quintic spline of phi.

    A node stops once its step falls below 1e-14; roundoff in the spline
    derivatives keeps a few nodes moving at that scale until ``steps``.  A
    node whose spline Hessian is not positive definite takes no step, so it
    keeps its grid argmax and the caller's grid-value guard applies there.
    """
    spl = pot.spline()
    lo = np.array([ax[0] for ax in pot.axes])
    hi = np.array([ax[-1] for ax in pot.axes])
    v_mesh = np.stack(np.meshgrid(*v_axes, indexing="ij"), axis=-1)
    v = v_mesh.reshape(-1, pot.dim)
    u = argmax.reshape(-1, pot.dim).copy()
    active = np.arange(len(u))  # the nodes whose last step was at least 1e-14
    for _ in range(steps):
        _, grad, hess = spl.jet(u[active])
        new = np.clip(u[active] + _newton_step(hess, v[active] - grad), lo, hi)
        moved = np.max(np.abs(new - u[active]), axis=1) >= 1e-14
        u[active] = new
        active = active[moved]
        if not active.size:
            break
    psi = np.sum(u * v, axis=1) - spl(u)
    return psi.reshape(v_mesh.shape[:-1]), u.reshape(v_mesh.shape)


def _newton_step(hess, rhs):
    """Solve hess step = rhs per point for (p, m, m) Hessians with m = 1 or 2.

    In closed form; the step is zero where the Hessian is not positive
    definite.
    """
    h11 = hess[:, 0, 0]
    if hess.shape[1] == 1:
        definite = h11 > 0.0
        step = rhs / np.where(definite, h11, 1.0)[:, None]
    else:
        h12, h22 = hess[:, 0, 1], hess[:, 1, 1]
        det = h11 * h22 - h12 * h12
        definite = (h11 > 0.0) & (det > 0.0)
        det = np.where(definite, det, 1.0)
        step = np.stack([h22 * rhs[:, 0] - h12 * rhs[:, 1],
                         h11 * rhs[:, 1] - h12 * rhs[:, 0]], axis=-1) / det[:, None]
    return np.where(definite[:, None], step, 0.0)


def fenchel_residual(primal, dual):
    """max |phi(u) + psi(grad phi(u)) - <u, grad phi(u)>| over interior nodes.

    Only nodes whose gradient lands inside the dual grid contribute.
    """
    grad = primal.gradient()
    core = interior(primal.values.shape, EDGE)
    u = primal.points()[core].reshape(-1, primal.dim)
    v = grad[core].reshape(-1, primal.dim)
    phi = primal.values[core].reshape(-1)
    lo = np.array([ax[0] for ax in dual.axes])
    hi = np.array([ax[-1] for ax in dual.axes])
    inside = np.all((v >= lo) & (v <= hi), axis=1)
    if not np.any(inside):
        return float("nan")
    psi = dual.spline()(v[inside])
    gap = phi[inside] + psi - np.sum(u[inside] * v[inside], axis=1)
    return float(np.max(np.abs(gap)))


def interpolation_tolerance(pot, dual_axes=None):
    """Error scale of the piecewise-linear conjugation route.

    Classical bound: the PL interpolant deviates by M h^2 / 8 with M the
    curvature; conjugation maps curvature M to 1/M, so both grids contribute.
    """
    hess = hessian_metric(pot)
    eigs = np.linalg.eigvalsh(hess[interior(pot.values.shape, EDGE)])
    m_max = float(np.max(eigs))
    m_min = float(np.min(eigs))
    h_u = max(pot.spacings)
    if dual_axes is None:
        dual_axes = gradient_image_axes(pot)
    h_v = max(float(ax[1] - ax[0]) for ax in dual_axes)
    return (m_max * h_u ** 2 + h_v ** 2 / m_min) / 8.0


def mirror_swap(obj):
    """Exchange (u, lambda, phi) with (v, mu, psi); an involution."""
    if isinstance(obj, LegendrePair):
        return obj.swapped()
    if isinstance(obj, ModuliChart):
        return obj.swap()
    raise InputError(f"mirror_swap does not apply to {type(obj).__name__}")


def partial_legendre_2d(pot):
    """Per-slice Legendre transform in u_1 and the Laplace residual of h.

    Coordinates (s, u_2) with s = d phi / d u_1 and h = u_1 s - phi.  For a
    unit-determinant potential h is harmonic; in general
    h_ss + h_{u2 u2} = (1 - det Hess phi) / phi_11, which bounds the residual
    away from zero for non-Monge-Ampere input.  The target constant is
    normalized to 1 by rescaling phi with c^{1/2} first.  The residual is
    read past EDGE + 1 boundary nodes, since the Laplacian of h nests a
    second derivative in a first one.
    """
    if pot.dim != 2:
        raise InputError("partial Legendre reduction is specific to m = 2")
    values = pot.values
    if pot.c is not None and abs(pot.c - 1.0) > 1e-14:
        if pot.c <= 0:
            raise InputError("Monge-Ampere constant must be positive")
        values = values / np.sqrt(pot.c)
    work = HessianPotential(pot.axes, values)
    slopes = apply_diff(values, 0, work.spacings[0], 1)
    # quintic_resample also needs each slice's slopes strictly increasing
    if (np.min(apply_diff(values, 0, work.spacings[0], 2)) <= 0
            or np.min(np.diff(slopes, axis=0)) <= 0):
        raise ConvexityError("a u_1 slice fails strict convexity")
    h_nodes = work.axes[0][:, None] * slopes - values
    s_lo = float(np.max(slopes[0, :]))
    s_hi = float(np.min(slopes[-1, :]))
    if s_hi <= s_lo:
        raise DomainError("slices have no common slope interval")
    s_axis = np.linspace(s_lo, s_hi, len(work.axes[0]))
    h = quintic_resample(slopes, h_nodes, s_axis)
    ds = float(s_axis[1] - s_axis[0])
    laplacian = apply_diff(h, 0, ds, 2) + apply_diff(h, 1, work.spacings[1], 2)
    core = laplacian[interior(laplacian.shape, EDGE + 1)]
    return {
        "s_axis": s_axis,
        "u2_axis": work.axes[1],
        "h": h,
        "laplacian": laplacian,
        "laplace_residual": float(np.max(np.abs(core))),
    }


# GMRES restart length and number of restart cycles.  With the sine-transform
# preconditioner a linear solve takes 9 to 34 iterations on cosh data at 33 to
# 257 nodes per axis.  The first Newton step for the exact solution
# u1^2/(2 u2) + u2^3/6, whose cofactors vary across the box, takes 38 / 70 /
# 115 iterations at 65 / 129 / 257 nodes per axis.
_GMRES_RESTART = 40
_GMRES_CYCLES = 5


@dataclass(frozen=True)
class _Operator:
    """A linear map of flat vectors of ``shape[1]`` entries, applied by ``A @ x``."""

    shape: tuple
    matvec: object

    def __matmul__(self, x):
        return self.matvec(x)


def spsolve(A, b, precond, rtol):
    """Solve A x = b by restarted GMRES, right-preconditioned by ``precond``.

    The linear step of ``solve_ma_dirichlet``.  ``A`` is an ``_Operator`` and
    ``precond`` a callable applying an approximate inverse of it.  GMRES
    (Saad & Schultz, SIAM J. Sci. Stat. Comput. 7, 1986) builds each Krylov
    basis by modified Gram-Schmidt and reduces the Hessenberg matrix by
    Givens rotations.  With right preconditioning its least-squares residual
    is, in exact arithmetic, the true one, so a cycle ends once that reaches
    rtol ||b||_2; the true residual is then recomputed.  Returns x with
    ||b - A x||_2 <= rtol ||b||_2, or raises ``ConvergenceError`` after
    ``_GMRES_CYCLES`` cycles of ``_GMRES_RESTART`` iterations.

    The name is kept for the benchmark tracer, which counts the calls of
    ``hessian.spsolve`` as linear solves and reads ``A.shape[0]`` as the
    number of unknowns.
    """
    target = rtol * np.linalg.norm(b)
    x = np.zeros_like(b)
    r = b
    rnorm = np.linalg.norm(r)
    for _ in range(_GMRES_CYCLES):
        if rnorm <= target:
            return x
        basis = np.empty((_GMRES_RESTART + 1, len(b)))
        upper = np.zeros((_GMRES_RESTART + 1, _GMRES_RESTART))  # Hessenberg, then R
        cos, sin = np.zeros(_GMRES_RESTART), np.zeros(_GMRES_RESTART)
        g = np.zeros(_GMRES_RESTART + 1)
        g[0] = rnorm
        basis[0] = r / rnorm
        for k in range(_GMRES_RESTART):
            w = A @ precond(basis[k])
            for i in range(k + 1):
                upper[i, k] = basis[i] @ w
                w -= upper[i, k] * basis[i]
            below = np.linalg.norm(w)
            if below > 0.0:
                basis[k + 1] = w / below
            for i in range(k):
                upper[i, k], upper[i + 1, k] = (cos[i] * upper[i, k] + sin[i] * upper[i + 1, k],
                                                cos[i] * upper[i + 1, k] - sin[i] * upper[i, k])
            rho = np.hypot(upper[k, k], below)
            cos[k], sin[k] = upper[k, k] / rho, below / rho
            upper[k, k] = rho
            g[k], g[k + 1] = cos[k] * g[k], -sin[k] * g[k]
            if abs(g[k + 1]) <= target or below == 0.0:
                break
        y = np.linalg.solve(np.triu(upper[:k + 1, :k + 1]), g[:k + 1])
        x = x + precond(y @ basis[:k + 1])
        r = b - A @ x
        rnorm = np.linalg.norm(r)
    if rnorm <= target:
        return x
    raise ConvergenceError(
        f"GMRES did not reach rtol {rtol:.1e} (residual {rnorm / np.linalg.norm(b):.1e})"
    )


def _clamped_cofactors(hess, clamp):
    """Cofactor coefficients of det for 2x2 Hessians, eigenvalue-clamped."""
    eigval, eigvec = np.linalg.eigh(hess)
    eigval = np.maximum(eigval, clamp)
    clamped = np.einsum("...ab,...b,...cb->...ac", eigvec, eigval, eigvec)
    return clamped[..., 1, 1], clamped[..., 0, 0], clamped[..., 0, 1]


def _sine_basis(m, spacing):
    """Eigenvectors and eigenvalues of the 3-point Dirichlet second difference.

    The m x m matrix tridiag(1, -2, 1) / spacing^2 on the interior nodes of an
    axis is diagonalised by the DST-I matrix S, which is symmetric and its own
    inverse; its eigenvalues are -4 sin^2(j pi / (2 (m + 1))) / spacing^2.
    """
    j = np.arange(1, m + 1)
    s = np.sqrt(2.0 / (m + 1)) * np.sin(np.pi * np.outer(j, j) / (m + 1))
    return s, -4.0 * np.sin(0.5 * np.pi * j / (m + 1)) ** 2 / spacing ** 2


def _separable_inverse(sines, k11, k22):
    """Inverse of k11 D2 (x) I + k22 I (x) D2 by fast diagonalisation.

    Lynch, Rice & Thomas, Numer. Math. 6 (1964): with D2 = S diag(lam) S on
    each axis, the inverse is two products with S per side around a
    pointwise division.
    """
    (s0, lam0), (s1, lam1) = sines
    denom = k11 * lam0[:, None] + k22 * lam1[None, :]
    shape = denom.shape

    def apply(r):
        return (s0 @ ((s0 @ r.reshape(shape) @ s1) / denom) @ s1).ravel()

    return apply


def solve_ma_dirichlet(axes, boundary, c=1.0, tol=1e-8, max_iter=50,
                       damping=1.0, clamp=1e-6):
    """Damped Newton-Krylov for det(Hess phi) = c with Dirichlet boundary data.

    ``boundary`` is a callable (u1, u2) -> value or a full grid array whose
    boundary ring is used.  The residual and the Jacobian use the fourth-order
    stencils of ``fd``.  The Jacobian is the cofactor operator
    k11 d11 + k22 d22 - 2 k12 d12; it is never assembled, but applied to the
    interior array X as the 1D products D2x X, X D2y^T and D1x X D1y^T of the
    interior rows and columns of ``fd.diff_matrix``, with Hessian eigenvalues
    clamped from below so that it stays elliptic away from convexity.  Each
    Newton step solves it by GMRES (``spsolve``) to the forcing term
    eta_k = 1e-3 min(1e-4, ||F_k||_inf) (Eisenstat & Walker), which keeps the
    convergence quadratic.  The preconditioner is the separable operator
    k11 D2 (x) I + k22 I (x) D2 with the 3-point second difference D2 and the
    median clamped cofactors, inverted by sine transforms
    (``_separable_inverse``).  The initial guess solves the fourth-order
    Poisson problem Laplace(phi) = 2 sqrt(c) to rtol 1e-14, preconditioned
    by the same inverse with unit coefficients.  Nothing is factorised.
    """
    axes = [np.asarray(ax, dtype=float) for ax in axes]
    if len(axes) != 2:
        raise InputError("the Monge-Ampere solver is restricted to m = 2")
    shape = (len(axes[0]), len(axes[1]))
    mesh = np.meshgrid(*axes, indexing="ij")
    if callable(boundary):
        bvals = boundary(*mesh)
    else:
        bvals = np.asarray(boundary, dtype=float)
        if bvals.shape != shape:
            raise InputError("boundary array must cover the full grid")
    interior = (slice(1, -1), slice(1, -1))
    inner_shape = (shape[0] - 2, shape[1] - 2)
    unknowns = inner_shape[0] * inner_shape[1]

    spacings = (float(axes[0][1] - axes[0][0]), float(axes[1][1] - axes[1][0]))
    d1x, d2x = (diff_matrix(shape[0], spacings[0], k) for k in (1, 2))
    d1y, d2y = (diff_matrix(shape[1], spacings[1], k) for k in (1, 2))
    # interior rows and columns: a correction vanishes on the Dirichlet ring
    d1x_r, d2x_r, d1y_r, d2y_r = (np.ascontiguousarray(d[interior])
                                  for d in (d1x, d2x, d1y, d2y))
    sines = [_sine_basis(m, h) for m, h in zip(inner_shape, spacings)]

    def second_derivatives(x):
        grid = x.reshape(inner_shape)
        return d2x_r @ grid, grid @ d2y_r.T, d1x_r @ grid @ d1y_r.T

    def laplacian(x):
        grid = x.reshape(inner_shape)
        return (d2x_r @ grid + grid @ d2y_r.T).ravel()

    # initial guess: Poisson solve Laplace(phi) = 2 sqrt(c) with the given
    # Dirichlet data, which matches the boundary without introducing kinks
    phi = np.array(bvals, dtype=float)
    phi[interior] = 0.0
    lap_boundary = (d2x @ phi + phi @ d2y.T)[interior]
    rhs0 = (2.0 * np.sqrt(c) - lap_boundary).ravel()
    phi[interior] = spsolve(_Operator((unknowns, unknowns), laplacian), rhs0,
                            _separable_inverse(sines, 1.0, 1.0), 1e-14).reshape(inner_shape)

    def residual_of(p):
        hess = hessian_field(p, spacings)
        return np.linalg.det(hess) - c, hess

    res, hess = residual_of(phi)
    history = [float(np.max(np.abs(res[interior])))]
    for iteration in range(max_iter):
        if history[-1] < tol:
            return HessianPotential(
                axes, phi, c, info={"iterations": iteration, "residuals": history}
            )
        k11, k22, k12 = _clamped_cofactors(hess[interior], clamp)

        def jacobian(x, k11=k11, k22=k22, k12=k12):
            dxx, dyy, dxy = second_derivatives(x)
            return (k11 * dxx + k22 * dyy - 2.0 * k12 * dxy).ravel()

        precond = _separable_inverse(sines, np.median(k11), np.median(k22))
        eta = 1e-3 * min(1e-4, history[-1])
        try:
            step = spsolve(_Operator((unknowns, unknowns), jacobian),
                           -res[interior].ravel(), precond, eta)
        except ConvergenceError as exc:
            raise ConvergenceError(f"{exc} at residual {history[-1]:.3e}", history) from None
        delta = np.zeros(shape)
        delta[interior] = step.reshape(inner_shape)
        alpha = damping
        base = history[-1]
        while True:
            trial = phi + alpha * delta
            trial_res, trial_hess = residual_of(trial)
            norm = float(np.max(np.abs(trial_res[interior])))
            if norm < base:
                break
            if alpha < 1e-3:
                raise ConvergenceError(
                    f"line search failed at residual {base:.3e}", history
                )
            alpha *= 0.5
        phi, res, hess = trial, trial_res, trial_hess
        history.append(norm)
        if len(history) > 5 and norm > 0.999 * history[-5]:
            raise ConvergenceError(
                f"Newton stagnation at residual {norm:.3e}", history
            )
    if history[-1] < tol:
        return HessianPotential(
            axes, phi, c, info={"iterations": max_iter, "residuals": history}
        )
    raise ConvergenceError(
        f"no convergence after {max_iter} iterations "
        f"(residual {history[-1]:.3e})",
        history,
    )


def save_potential(pot, path):
    """CSV grid dump: header rows (m, axes, c), then one node value per row."""
    with open(path, "w") as fh:
        fh.write(f"m,{pot.dim}\n")
        for ax in pot.axes:
            fh.write(f"axis,{float(ax[0])!r},{float(ax[-1])!r},{len(ax)}\n")
        if pot.c is not None:
            fh.write(f"c,{float(pot.c)!r}\n")
        for value in pot.values.ravel():
            fh.write(f"{float(value)!r}\n")


def load_potential(path):
    try:
        with open(path) as fh:
            lines = [ln.strip() for ln in fh if ln.strip()]
    except (OSError, UnicodeDecodeError) as exc:
        raise InputError(f"cannot read potential file {path}: {exc}") from exc
    try:
        m = int(lines[0].split(",")[1])
        axes = []
        cursor = 1
        for _ in range(m):
            _, lo, hi, n = lines[cursor].split(",")
            axes.append(np.linspace(float(lo), float(hi), int(n)))
            cursor += 1
        c = None
        if lines[cursor].startswith("c,"):
            c = float(lines[cursor].split(",")[1])
            cursor += 1
        values = np.array([float(ln) for ln in lines[cursor:]])
        shape = tuple(len(ax) for ax in axes)
        return HessianPotential(axes, values.reshape(shape), c)
    except (IndexError, ValueError) as exc:
        raise InputError(f"malformed potential file {path}: {exc}") from exc
