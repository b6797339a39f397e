"""Hessian potentials on a box chart: metrics, Legendre duality, Monge-Ampere.

A potential is a strictly convex scalar on a uniform box grid.  The module
computes its Hessian metric, the Monge-Ampere residual det(Hess) - c, the
discrete Legendre transform (one separable per-axis pass that returns the
grid conjugate together with its argmax node, optionally sharpened by a
spline Newton refinement started from that node), the mirror role-swap, the
2D partial Legendre reduction to the Laplace equation, and a damped
Newton-Krylov Dirichlet solver for det(Hess phi) = c in two variables.  The
solver applies its fourth-order Jacobian without assembling it and solves
each Newton step by GMRES, preconditioned with an LU of the second-order
9-point operator; the only matrices it factorises have at most 9 nonzeros
per row.  Convexity and every residual are read on ``fd.interior``, and
``HessianPotential.coarsened`` is the coarse grid of every two-grid bound.

scipy is imported inside the functions that use it (the spline interpolants
of the Legendre refinement, the sparse operators of the solver and
``spsolve``), so importing this module loads numpy only.  The partial
Legendre reduction never loads it: it resamples with ``fd.quintic_resample``.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import ConvergenceError, ConvexityError, DomainError, InputError
from .family import ModuliChart
from .fd import (EDGE, apply_diff, diff_matrix, gradient_field, hessian_field, interior,
                 quintic_resample)

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
        """Quintic interpolant of the potential (m = 1 or 2)."""
        from scipy.interpolate import RectBivariateSpline, make_interp_spline

        if self.dim == 1:
            return make_interp_spline(self.axes[0], self.values, k=5)
        if self.dim == 2:
            return RectBivariateSpline(self.axes[0], self.axes[1], self.values, kx=5, ky=5)
        raise InputError("spline interpolation supports m <= 2")


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
    """Projected Newton polish of the conjugate on a quintic spline of phi."""
    spl = pot.spline()
    lo = np.array([ax[0] for ax in pot.axes])
    hi = np.array([ax[-1] for ax in pot.axes])
    v_mesh = np.stack(np.meshgrid(*v_axes, indexing="ij"), axis=-1)
    v = v_mesh.reshape(-1, pot.dim)
    u = argmax.reshape(-1, pot.dim).copy()
    for _ in range(steps):
        grad = _spline_gradient(spl, u, pot.dim)
        hess = _spline_hessian(spl, u, pot.dim)
        try:
            step = np.linalg.solve(hess, (v - grad)[..., None])[..., 0]
        except np.linalg.LinAlgError:
            break
        new = np.clip(u + step, lo, hi)
        if np.max(np.abs(new - u)) < 1e-14:
            u = new
            break
        u = new
    phi_u = _spline_eval(spl, u, pot.dim)
    psi = np.sum(u * v, axis=1) - phi_u
    return psi.reshape(v_mesh.shape[:-1]), u.reshape(v_mesh.shape)


def _spline_eval(spl, u, m):
    if m == 1:
        return spl(u[:, 0])
    return spl.ev(u[:, 0], u[:, 1])


def _spline_gradient(spl, u, m):
    if m == 1:
        return spl(u[:, 0], 1)[:, None]
    return np.stack([spl.ev(u[:, 0], u[:, 1], dx=1),
                     spl.ev(u[:, 0], u[:, 1], dy=1)], axis=-1)


def _spline_hessian(spl, u, m):
    if m == 1:
        return spl(u[:, 0], 2)[:, None, None]
    h11 = spl.ev(u[:, 0], u[:, 1], dx=2)
    h12 = spl.ev(u[:, 0], u[:, 1], dx=1, dy=1)
    h22 = spl.ev(u[:, 0], u[:, 1], dy=2)
    hess = np.empty((len(u), m, m))
    hess[:, 0, 0] = h11
    hess[:, 0, 1] = hess[:, 1, 0] = h12
    hess[:, 1, 1] = h22
    return hess


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
    spl = dual.spline()
    psi = _spline_eval(spl, v[inside], dual.dim)
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


# GMRES restart length and number of restart cycles.  With the second-order
# preconditioner GMRES needs 9 to 15 iterations at 129 and at 257 nodes per axis.
_GMRES_RESTART = 40
_GMRES_CYCLES = 5


def spsolve(A, b, precond, rtol):
    """Solve A x = b by GMRES, preconditioned by an LU of ``precond``.

    The linear step of ``solve_ma_dirichlet``.  ``A`` is a sparse matrix or a
    ``LinearOperator``; ``precond`` is a sparse low-order approximation of it,
    factorised once per call by SuperLU and applied as a left preconditioner.
    Returns x with ||b - A x||_2 <= rtol ||b||_2, or raises
    ``ConvergenceError``.  A module-level name, so the linear solves can be
    wrapped and counted from outside; scipy is loaded on the first call.
    """
    from scipy.sparse.linalg import LinearOperator, gmres, splu

    lu = splu(precond.tocsc(), permc_spec="MMD_AT_PLUS_A")
    M = LinearOperator(A.shape, matvec=lu.solve, dtype=float)
    x, info = gmres(A, b, rtol=rtol, atol=0.0, restart=_GMRES_RESTART,
                    maxiter=_GMRES_CYCLES, M=M)
    if info != 0:
        raise ConvergenceError(f"GMRES did not reach rtol {rtol:.1e} (info {info})")
    return x


def _clamped_cofactors(hess, clamp):
    """Cofactor coefficients of det for 2x2 Hessians, eigenvalue-clamped."""
    eigval, eigvec = np.linalg.eigh(hess)
    eigval = np.maximum(eigval, clamp)
    clamped = np.einsum("...ab,...b,...cb->...ac", eigvec, eigval, eigvec)
    return clamped[..., 1, 1], clamped[..., 0, 0], clamped[..., 0, 1]


def _second_order(n, spacing):
    """Centred 3-point first and second differences on the n - 2 interior nodes.

    Rows and columns are the interior nodes; the dropped boundary columns are
    the Dirichlet nodes, where a correction vanishes.
    """
    from scipy import sparse

    m = n - 2
    d1 = sparse.diags([-1.0, 1.0], [-1, 1], shape=(m, m)) / (2.0 * spacing)
    d2 = sparse.diags([1.0, -2.0, 1.0], [-1, 0, 1], shape=(m, m)) / spacing ** 2
    return d1, d2


def solve_ma_dirichlet(axes, boundary, c=1.0, tol=1e-8, max_iter=50,
                       damping=1.0, clamp=1e-6):
    """Damped Newton-Krylov for det(Hess phi) = c with Dirichlet boundary data.

    ``boundary`` is a callable (u1, u2) -> value or a full grid array whose
    boundary ring is used.  The residual and the Jacobian use the fourth-order
    stencils of ``fd``.  The Jacobian is the cofactor operator
    k11 d11 + k22 d22 - 2 k12 d12; it is never assembled, but applied from
    three interior-restricted operators built once per solve, with Hessian
    eigenvalues clamped from below so that it stays elliptic away from
    convexity.  Each Newton step solves it by GMRES (``spsolve``),
    preconditioned by an LU of the second-order 9-point discretisation of
    the same cofactor operator, to the forcing term
    eta_k = 1e-3 min(1e-4, ||F_k||_inf) (Eisenstat & Walker), which keeps the
    convergence quadratic.  The initial guess solves the fourth-order Poisson
    problem Laplace(phi) = 2 sqrt(c) to rtol 1e-14, preconditioned by the
    5-point Laplacian.  Neither fourth-order operator is ever factorised.
    """
    from scipy import sparse
    from scipy.sparse.linalg import LinearOperator

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

    spacings = (float(axes[0][1] - axes[0][0]), float(axes[1][1] - axes[1][0]))
    d1x, d2x = (diff_matrix(shape[0], spacings[0], k) for k in (1, 2))
    d1y, d2y = (diff_matrix(shape[1], spacings[1], k) for k in (1, 2))
    eye0 = sparse.identity(inner_shape[0], format="csr")
    eye1 = sparse.identity(inner_shape[1], format="csr")

    def restricted(d):
        return sparse.csr_matrix(d[interior])

    # interior rows and columns of the fourth-order operators: the interior
    # is a tensor product, so each restriction is a Kronecker product of
    # restricted 1D matrices
    i11 = sparse.kron(restricted(d2x), eye1, format="csr")
    i22 = sparse.kron(eye0, restricted(d2y), format="csr")
    i12 = sparse.kron(restricted(d1x), restricted(d1y), format="csr")
    s1x, s2x = _second_order(shape[0], spacings[0])
    s1y, s2y = _second_order(shape[1], spacings[1])
    p11 = sparse.kron(s2x, eye1, format="csr")
    p22 = sparse.kron(eye0, s2y, format="csr")
    p12 = sparse.kron(s1x, s1y, format="csr")

    # initial guess: Poisson solve Laplace(phi) = 2 sqrt(c) with the given
    # Dirichlet data, which matches the boundary without introducing kinks
    phi = np.array(bvals, dtype=float)
    phi[interior] = 0.0
    lap_boundary = (d2x @ phi + phi @ d2y.T)[interior]
    rhs0 = (2.0 * np.sqrt(c) - lap_boundary).ravel()
    phi[interior] = spsolve(i11 + i22, rhs0, p11 + p22, 1e-14).reshape(inner_shape)

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
        k11, k22, k12 = (k.ravel() for k in _clamped_cofactors(hess[interior], clamp))
        jac = LinearOperator(
            i11.shape, dtype=float,
            matvec=lambda x: k11 * (i11 @ x) + k22 * (i22 @ x) - 2.0 * k12 * (i12 @ x),
        )
        precond = (sparse.diags(k11) @ p11 + sparse.diags(k22) @ p22
                   - 2.0 * sparse.diags(k12) @ p12)
        eta = 1e-3 * min(1e-4, history[-1])
        try:
            step = spsolve(jac, -res[interior].ravel(), precond, eta)
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
    with open(path) as fh:
        lines = [ln.strip() for ln in fh if ln.strip()]
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
