"""Hessian potentials on a box chart: metrics, Legendre duality, Monge-Ampere.

A potential is a strictly convex scalar on a uniform box grid.  Behind the
convexity gate ``eigenvalue_bounds`` the module computes its Hessian metric
and, by row blocks, det Hess phi (the one route to it).  One kernel
conjugates along one grid axis (``_conjugate_lines``): the slopes of each
line's quintic spline at its nodes, resampled onto the slope interval that
every line spans (``_inscribed_axis``).  The Legendre transform is that
kernel on axes 1 ... m in turn, and the 2D partial Legendre reduction to
the Laplace equation is its first pass.  Also here: the mirror role-swap,
and a line-searched Newton-Krylov Dirichlet solver for
det(Hess phi) = c in two variables, started from a sine-transform Poisson
solve, with its fourth-order Jacobian applied as 1D matrix products and each
step solved by a numpy GMRES preconditioned by sine-transform inversion;
nothing is factorised.  The splines are ``fd.quintic_slopes``,
``fd.quintic_resample`` and ``fd.TensorQuintic``, so the module runs on
numpy alone.  The algebra of 2x2 symmetric Hessians (eigenvalue range,
determinant, clamped cofactors) is closed form; m >= 3 takes LAPACK's.
Convexity and every residual are read on ``fd.interior``, and
``HessianPotential.coarsened`` is the coarse grid of every two-grid bound.
"""

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import ConvergenceError, ConvexityError, DomainError, InputError
from .fd import (EDGE, TensorQuintic, apply_diff, diff_matrix, gradient_field, hessian_field,
                 interior, quintic_resample, quintic_slopes, roundoff_floor, stencil_reach)

# smallest Hessian eigenvalue on the interior that counts as strictly convex
CONVEXITY_TOL = 1e-10
HESSIAN_NODES = 2 ** 14  # grid nodes per block of a row walk (``row_blocks``)


@dataclass
class HessianPotential:
    """Scalar potential phi on a strictly increasing uniform box grid in u-space,
    with an optional Monge-Ampere constant c > 0."""

    axes: list
    values: np.ndarray
    c: float = None
    info: dict = field(default=None, repr=False)  # solver diagnostics, if any

    def __post_init__(self):
        self.axes = [np.asarray(ax, dtype=float) for ax in self.axes]
        self.values = np.asarray(self.values, dtype=float)
        if not self.axes:
            raise InputError("a potential needs at least one grid axis")
        if self.values.shape != tuple(len(ax) for ax in self.axes):
            raise InputError("potential values do not match the grid axes")
        for ax in self.axes:
            steps = np.diff(ax)
            if (len(steps) == 0 or not steps[0] > 0
                    or np.max(np.abs(steps - steps[0])) > 1e-10 * steps[0]):
                raise InputError("grid axes must be uniform and strictly increasing")
        # a NaN shows in the minimum and the maximum, -inf and +inf in one of them
        if not (np.isfinite(np.min(self.values)) and np.isfinite(np.max(self.values))):
            raise InputError("potential values must be finite")
        if self.c is not None and not 0 < self.c < np.inf:
            raise InputError(f"the Monge-Ampere constant c must be positive and finite, "
                             f"got {self.c}")

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

    def points(self):
        return np.stack(np.meshgrid(*self.axes, indexing="ij"), axis=-1)

    def hessian(self, lo=0, hi=None):
        """Discrete Hessian on nodes [lo, hi) of grid axis 0 (default: the
        whole grid), (hi - lo, *grid[1:], m, m).

        Taken from the values on the stencils' reach of those rows with the
        window form of ``fd.hessian_field``, so the rows are bitwise those of
        the full field.
        """
        n = self.values.shape[0]
        hi = n if hi is None else hi
        first, last = stencil_reach(n, 2, lo, hi)
        return hessian_field(self.values[first:last], self.spacings, (lo, hi), n, first)

    @cached_property
    def eigenvalue_bounds(self):
        """(min, max) Hessian eigenvalue on ``fd.interior``, the convexity gate.

        Kept on first use, so ``values`` must not change after.  Raises
        ``ConvexityError`` at the first node of the least eigenvalue unless
        that exceeds ``CONVEXITY_TOL``.  The Hessian is taken on the interior
        rows by ``row_blocks``, so no grid-sized field is formed on larger
        grids.  Each block is reduced on its own: a minimum or maximum is
        exact, and the first node of the least eigenvalue lies in the first
        block that attains it, so the bounds and the error node are those of
        the whole field.
        """
        shape = self.values.shape
        lows, highs, nodes = [], [], []
        # at least one block, so that a grid too small for the stencils raises
        # their error, as the full field does
        for lo, hess in row_blocks(self.hessian, shape, EDGE, max(shape[0] - EDGE, EDGE + 1)):
            lowest, highest = eigenvalue_range(hess[(slice(None),) + interior(shape, EDGE)[1:]])
            lows.append(np.min(lowest))
            highs.append(np.max(highest))
            node = np.unravel_index(np.argmin(lowest), lowest.shape)
            nodes.append((lo + int(node[0]),) + tuple(int(i) + EDGE for i in node[1:]))
        least = np.min(lows)
        if least <= CONVEXITY_TOL:
            raise ConvexityError(
                f"potential fails strict convexity (min eigenvalue {least:.3e})",
                node=nodes[lows.index(least)],
            )
        return float(least), float(np.max(highs))

    def gradient(self):
        return gradient_field(self.values, self.spacings)

    def coarsened(self):
        """The potential on every other node of each axis, with the same c.

        The coarse grid of every two-grid bound (``fd.two_grid_bound``).
        """
        return HessianPotential([ax[::2] for ax in self.axes],
                                self.values[(slice(None, None, 2),) * self.dim], self.c)

    @cached_property
    def spline(self):
        """Quintic interpolant of the potential (m = 1 or 2), an
        ``fd.TensorQuintic``; kept on first use, as ``eigenvalue_bounds`` is."""
        if self.dim > 2:
            raise InputError("spline interpolation supports m <= 2")
        return TensorQuintic(self.axes, self.values)


def eigenvalue_range(hess):
    """Smallest and largest eigenvalue of each symmetric m x m matrix.

    For m = 2 they are mean -+ hypot((a - c) / 2, b), mean = (a + c) / 2, of
    [[a, b], [b, c]]: no LAPACK call, no copy.  m >= 3 takes ``eigvalsh``.
    """
    if hess.shape[-1] == 1:
        return hess[..., 0, 0], hess[..., 0, 0]
    if hess.shape[-1] > 2:
        eig = np.linalg.eigvalsh(hess)
        return eig[..., 0], eig[..., -1]
    a, b, c = hess[..., 0, 0], hess[..., 0, 1], hess[..., 1, 1]
    mean = 0.5 * (a + c)
    radius = np.hypot(0.5 * (a - c), b)
    return mean - radius, mean + radius


def hessian_det(hess):
    """det of each symmetric m x m matrix: a c - b^2 for m = 2, LAPACK's for m >= 3."""
    if hess.shape[-1] == 1:
        return hess[..., 0, 0].copy()
    if hess.shape[-1] > 2:
        return np.linalg.det(hess)
    det = hess[..., 0, 0] * hess[..., 1, 1]
    det -= hess[..., 0, 1] * hess[..., 0, 1]
    return det


def row_blocks(build, shape, start=0, stop=None):
    """(lo, build(lo, hi)) for consecutive blocks [lo, hi) of nodes [start,
    stop) of grid axis 0 (default: the whole axis) of a grid of ``shape``.

    A block has as many nodes as hold ``HESSIAN_NODES`` grid nodes, and at
    least one.
    """
    stop = shape[0] if stop is None else stop
    rows = max(1, HESSIAN_NODES * shape[0] // int(np.prod(shape)))
    for lo in range(start, stop, rows):
        yield lo, build(lo, min(lo + rows, stop))


def hessian_metric(pot):
    """Discrete Hessian matrix field behind the convexity gate ``pot.eigenvalue_bounds``."""
    pot.eigenvalue_bounds  # convexity is a precondition
    return pot.hessian()


def hessian_det_field(pot):
    """det Hess phi on every grid node, behind the convexity gate ``pot.eigenvalue_bounds``.

    The Hessian is taken by ``row_blocks``, so no grid-sized (*, m, m) field
    is formed; its rows, and so the determinant, are bitwise those of the
    full field.
    """
    pot.eigenvalue_bounds  # convexity is a precondition
    det = np.empty(pot.values.shape)
    for lo, hess in row_blocks(pot.hessian, pot.values.shape):
        det[lo:lo + len(hess)] = hessian_det(hess)
    return det


@dataclass
class LegendrePair:
    """A potential and its convex conjugate."""

    primal: HessianPotential
    dual: HessianPotential


def _inscribed_axis(slopes, axis):
    """As many uniform nodes as ``slopes`` (nodes, lines) has rows, from the
    max of its first row to the min of its last: the slope interval that
    every line along ``axis`` spans; ``DomainError`` if that is empty."""
    lo = float(np.max(slopes[0]))
    hi = float(np.min(slopes[-1]))
    if hi <= lo:
        raise DomainError(f"no slope interval common to every line along u_{axis + 1}: d phi / d "
                          f"u_{axis + 1} is {lo:.6g} on the low face, {hi:.6g} on the high face")
    return np.linspace(lo, hi, len(slopes))


def _conjugate_lines(values, axis, u):
    """The conjugate of ``values`` along one grid axis with nodes ``u``, line by line.

    On each line f the slopes s of its not-a-knot quintic at the nodes
    (``fd.quintic_slopes``) give h = u s - f there, and the curve (s, h) is
    resampled onto the slope interval that every line spans
    (``_inscribed_axis``) by ``fd.quintic_resample``.  Returns that s-axis
    and the conjugate, s in place of u on ``axis``.  ``ConvexityError`` if
    the slopes of a line do not rise, as resampling needs.
    """
    lines = np.moveaxis(values, axis, 0)
    shape = lines.shape
    lines = lines.reshape(len(u), -1)
    slopes = quintic_slopes(u, lines)
    if not np.all(slopes[1:] > slopes[:-1]):
        raise ConvexityError(f"a line along u_{axis + 1} fails strict convexity")
    s_axis = _inscribed_axis(slopes, axis)
    h = u[:, None] * slopes
    h -= lines
    return s_axis, np.moveaxis(quintic_resample(slopes, h, s_axis).reshape(shape), 0, axis)


def legendre_transform(pot):
    """psi(v) = sup_u (<u, v> - phi(u)) as m one-dimensional conjugates.

    The sup over a box factors into sups over one variable at a time
    (Rockafellar, Convex Analysis, section 26): pass a conjugates along u_a
    (``_conjugate_lines``), and since sup over u_a of u_a v_a + psi_(a-1)
    is the conjugate of -psi_(a-1), every pass after the first conjugates
    the negated result of the one before.  Pass 1's dual axis is inscribed in
    the slopes of phi along u_1; each later one in the slopes of the running
    conjugate, so every dual node's maximiser lies in the u-box.  The Fenchel
    pairing residual is not taken here; a caller that reads it calls
    ``fenchel_residual``.
    """
    pot.eigenvalue_bounds  # convexity is a precondition
    work, v_axes = pot.values, []
    for a, u in enumerate(pot.axes):
        v, work = _conjugate_lines(-work if a else work, a, u)
        v_axes.append(v)
    dual_c = None if pot.c is None else 1.0 / pot.c
    return LegendrePair(pot, HessianPotential(v_axes, np.ascontiguousarray(work), dual_c))


def fenchel_residual(primal, dual, edge=EDGE):
    """max |phi(u) + psi(grad phi(u)) - <u, grad phi(u)>| over the nodes of
    ``primal`` past ``edge`` boundary nodes.

    Only nodes whose gradient lands inside the dual grid contribute.  The
    gap is symmetric in the pair, so it can be read on either's nodes.
    """
    grad = primal.gradient()
    core = interior(primal.values.shape, edge)
    u = primal.points()[core].reshape(-1, primal.dim)
    v = grad[core].reshape(-1, primal.dim)
    phi = primal.values[core].reshape(-1)
    lo = np.array([ax[0] for ax in dual.axes])
    hi = np.array([ax[-1] for ax in dual.axes])
    inside = np.all((v >= lo) & (v <= hi), axis=1)
    if not np.any(inside):
        return float("nan")
    psi = dual.spline(v[inside])
    gap = phi[inside] + psi - np.sum(u[inside] * v[inside], axis=1)
    return float(np.max(np.abs(gap)))


def involution_residual(pot, back):
    """max |psi** - phi| on the grid of ``back``, the conjugate of pot's dual;
    phi is read off pot's spline, as that grid is not pot's."""
    points = back.points().reshape(-1, back.dim)
    return float(np.max(np.abs(back.values.ravel() - pot.spline(points))))


def legendre_floor(primal, dual):
    """Roundoff floor of the Fenchel and involution residuals of a primal and
    its dual, eps (max |phi| + max |psi| + sum_a max |u_a| max |v_a|): the
    rounding of the values the gap phi + psi - <u, v> sums, which no
    derivative amplifies (Higham, Accuracy and Stability of Numerical Algorithms)."""
    pairing = sum(np.max(np.abs(u)) * np.max(np.abs(v)) for u, v in zip(primal.axes, dual.axes))
    return float(np.finfo(float).eps * (np.max(np.abs(primal.values))
                                        + np.max(np.abs(dual.values)) + pairing))


def mirror_swap(obj):
    """Exchange (u, lambda, phi) with (v, mu, psi); an involution that shares
    the arrays.  A ``family.ModuliChart`` swaps itself, and ``family`` is
    imported only for an object that is not a ``LegendrePair``, so the grid
    layer loads no fiber module."""
    if isinstance(obj, LegendrePair):
        return LegendrePair(obj.dual, obj.primal)
    from .family import ModuliChart

    if isinstance(obj, ModuliChart):
        return obj.mirrored()
    raise InputError(f"mirror_swap does not apply to {type(obj).__name__}")


def partial_legendre_2d(pot):
    """Laplace residual of the per-slice Legendre transform h in u_1, and its
    roundoff floor.

    Coordinates (s, u_2) with s = d phi / d u_1 and h = u_1 s - phi: the
    conjugate along u_1 alone, the first pass of ``legendre_transform``
    (``_conjugate_lines``).  For a unit-determinant potential h is harmonic;
    in general h_ss + h_{u2 u2} = (1 - det Hess phi) / phi_11, which bounds
    the residual away from zero for non-Monge-Ampere input.  The target
    constant is normalized to 1 by rescaling phi with c^{1/2} first.  The
    residual is read past EDGE + 1 boundary nodes, since the Laplacian of h
    nests a second derivative in a first one.  Returns max |h_ss + h_{u2 u2}|
    there and the ``fd.roundoff_floor`` of the two second-derivative passes
    at scale max |h|, which an exactly harmonic h reaches on fine grids.
    """
    if pot.dim != 2:
        raise InputError("partial Legendre reduction is specific to m = 2")
    values = pot.values
    if pot.c is not None and abs(pot.c - 1.0) > 1e-14:
        values = values / np.sqrt(pot.c)
    s_axis, h = _conjugate_lines(values, 0, pot.axes[0])
    ds = float(s_axis[1] - s_axis[0])
    laplacian = apply_diff(h, 0, ds, 2)
    laplacian += apply_diff(h, 1, pot.spacings[1], 2)
    core = laplacian[interior(laplacian.shape, EDGE + 1)]
    scale = max(np.max(h), -np.min(h))
    floor = roundoff_floor(scale, ds, 2) + roundoff_floor(scale, pot.spacings[1], 2)
    return float(max(np.max(core), -np.min(core))), floor


# GMRES restart length and number of restart cycles: a cycle holds at most
# _GMRES_RESTART + 1 Krylov vectors, and a linear solve takes at most 200
# iterations.  With the sine-transform preconditioner and the forcing term of
# ``solve_ma_dirichlet`` a Newton step takes 4 to 16 Jacobian products (its
# iterations plus one true residual per cycle) on cosh data at 33 to 257
# nodes per axis, the last step the most.  For the exact solution
# u1^2/(2 u2) + u2^3/6, whose cofactors vary across the box, a step takes 6
# to 26; its first step takes 7 / 8 / 8 at 65 / 129 / 257 nodes per axis.
_GMRES_RESTART = 10
_GMRES_CYCLES = 20
# the forcing term eta_k = _FORCING min(_FORCING_CAP, ||F_k||_inf) of
# ``solve_ma_dirichlet``
_FORCING = 0.1
_FORCING_CAP = 0.1
NEWTON_TOL = 1e-8  # ``solve_ma_dirichlet`` stops once max |det Hess phi - c| is below this
NEWTON_STEPS = 50  # ... and raises ConvergenceError after this many Newton steps


@dataclass
class _Operator:
    """A linear map of flat vectors of ``shape[1]`` entries, applied by ``A @ x``;
    ``applications`` counts the products taken."""

    shape: tuple
    matvec: object
    applications: int = 0

    def __matmul__(self, x):
        self.applications += 1
        return self.matvec(x)


def spsolve(A, b, precond, rtol):
    """Solve A x = b by restarted GMRES, right-preconditioned by ``precond``.

    The linear step of ``solve_ma_dirichlet``.  ``A`` is an ``_Operator`` and
    ``precond`` a callable applying an approximate inverse of it.  GMRES
    (Saad & Schultz, SIAM J. Sci. Stat. Comput. 7, 1986) builds each Krylov
    basis by modified Gram-Schmidt and reduces the Hessenberg matrix by
    Givens rotations; it holds only the basis vectors it has built, at most
    ``_GMRES_RESTART + 1``, and drops them before the update of x and the
    true residual, so neither is taken beside a full basis.  With right
    preconditioning its least-squares residual is, in exact arithmetic, the
    true one, so a cycle ends once that reaches rtol ||b||_2; the true
    residual is then recomputed.  Returns x with ||b - A x||_2 <= rtol ||b||_2,
    or raises ``ConvergenceError`` after ``_GMRES_CYCLES`` cycles of
    ``_GMRES_RESTART`` iterations.

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
        basis = [r / rnorm]  # the Krylov vectors built so far
        upper = np.zeros((_GMRES_RESTART + 1, _GMRES_RESTART))  # Hessenberg, then R
        cos, sin = np.zeros(_GMRES_RESTART), np.zeros(_GMRES_RESTART)
        g = np.zeros(_GMRES_RESTART + 1)
        g[0] = rnorm
        for k in range(_GMRES_RESTART):
            w = A @ precond(basis[k])
            for i in range(k + 1):
                upper[i, k] = basis[i] @ w
                w -= upper[i, k] * basis[i]
            below = np.linalg.norm(w)
            if below > 0.0:
                w /= below
                basis.append(w)
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
        # y @ basis[:k + 1], one vector at a time so no second copy of the
        # basis is stacked
        update = y[0] * basis[0]
        for i in range(1, k + 1):
            update += y[i] * basis[i]
        del basis, w
        x += precond(update)
        r = b - A @ x
        rnorm = np.linalg.norm(r)
    if rnorm <= target:
        return x
    raise ConvergenceError(
        f"GMRES did not reach rtol {rtol:.1e} (residual {rnorm / np.linalg.norm(b):.1e})"
    )


def _median(values):
    """``np.median`` of finite values, bitwise, without importing ``numpy.ma``.

    The same partition and mean as ``np.median``: the middle element, or
    the mean of the two middle elements of an even count.
    """
    values = np.ravel(values)
    mid = len(values) // 2
    part = np.partition(values, (mid - 1, mid))
    return np.mean(part[mid - 1 + len(values) % 2:mid + 1])


def _clamped_cofactors(hess):
    """Cofactor coefficients (k11, k22, k12) of det for 2x2 Hessians whose
    eigenvalues are clamped from below at floor = 1e-6.

    The clamped matrix is H + sum over eigenvalues lam < floor of
    (floor - lam) P_lam, with the spectral projectors P_lo = (hi I - H) / (hi - lo)
    and P_hi = (H - lo I) / (hi - lo).  Where only the lower eigenvalue is
    clamped that is H + r (hi I - H) with r = (floor - lo) / (hi - lo) in
    (0, 1]; where both are, floor I; elsewhere H itself.  An isotropic node
    (hi = lo) is therefore max(lo, floor) I.
    """
    floor = 1e-6
    lo, hi = eigenvalue_range(hess)
    clamped = lo < floor
    r = np.zeros_like(lo)
    np.divide(floor - lo, hi - lo, out=r, where=clamped & (hi >= floor))
    a, b, c = hess[..., 0, 0], hess[..., 0, 1], hess[..., 1, 1]
    k11 = c + r * (hi - c)
    k22 = a + r * (hi - a)
    k12 = b - r * b
    both = hi < floor
    k11[both] = k22[both] = floor
    k12[both] = 0.0
    return k11, k22, k12


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


def solve_ma_dirichlet(axes, boundary, c=1.0):
    """Line-searched Newton-Krylov for det(Hess phi) = c with Dirichlet data.

    ``boundary`` is a callable (u1, u2) -> value, whose grid is freed once
    checked and copied, or a full grid array; its boundary ring is used.  The
    residual and the Jacobian use the fourth-order stencils of ``fd``.  The Jacobian is the cofactor operator
    k11 d11 + k22 d22 - 2 k12 d12; it is never assembled, but applied to the
    interior array X as the 1D products D2x X, X D2y^T and D1x X D1y^T of the
    interior rows and columns of ``fd.diff_matrix``, scaled and summed in
    place in those three buffers, with Hessian eigenvalues clamped from
    below at 1e-6 so that it stays elliptic away from convexity.  Each Newton
    step solves it by GMRES restarted every ``_GMRES_RESTART`` iterations
    (``spsolve``) to the forcing term eta_k = _FORCING min(_FORCING_CAP,
    ||F_k||_inf), a relative linear residual proportional to the nonlinear
    one, which keeps the convergence quadratic (Eisenstat & Walker, SIAM J.
    Sci. Comput. 17, 1996) without oversolving the early steps.  The
    preconditioner is the separable operator k11 D2 (x) I + k22 I (x) D2 with
    the 3-point second difference D2 and the median clamped cofactors,
    inverted by sine transforms (``_separable_inverse``; axes of equal length
    and spacing share one sine matrix).  The initial guess solves the 3-point
    Poisson problem Laplace(phi) = 2 sqrt(c) exactly by the same inverse with
    unit coefficients, so ``spsolve`` runs once per Newton step.  The line
    search halves alpha from 1 until the max-norm residual falls.  Nothing is
    factorised, and no correction outlives the Newton step that made it.  Input
    that fails the checks of a ``HessianPotential`` (axes, boundary values,
    c) raises ``InputError`` before the solve.

    ``info`` holds the Newton ``iterations``, the max-norm ``residuals``, the
    ``krylov_iterations`` of each Newton step (its Jacobian products: one per
    Krylov vector built and one true residual per restart cycle) and the
    result's ``interior_residual`` det(Hess phi) - c inside the ring.
    """
    axes = [np.asarray(ax, dtype=float) for ax in axes]
    if len(axes) != 2:
        raise InputError("the Monge-Ampere solver is restricted to m = 2")
    if callable(boundary):
        boundary = boundary(*np.meshgrid(*axes, indexing="ij"))
    phi = HessianPotential(axes, boundary, c).values.copy()  # checked before any solve work
    del boundary  # a callable's grid is freed before the solve
    shape = phi.shape
    interior = (slice(1, -1), slice(1, -1))
    inner_shape = (shape[0] - 2, shape[1] - 2)
    unknowns = inner_shape[0] * inner_shape[1]

    spacings = (float(axes[0][1] - axes[0][0]), float(axes[1][1] - axes[1][0]))
    d1x, d2x = (diff_matrix(shape[0], spacings[0], k) for k in (1, 2))
    d1y, d2y = (diff_matrix(shape[1], spacings[1], k) for k in (1, 2))
    # views of the interior rows and columns: a correction vanishes on the
    # Dirichlet ring
    d1x_r, d2x_r, d1y_r, d2y_r = (d[interior] for d in (d1x, d2x, d1y, d2y))
    bases = {key: _sine_basis(*key) for key in set(zip(inner_shape, spacings))}
    sines = [bases[key] for key in zip(inner_shape, spacings)]

    # initial guess: the 3-point Poisson problem Laplace(phi) = 2 sqrt(c) with
    # the given Dirichlet data, which matches the boundary without kinks
    phi[interior] = 0.0
    ring = ((phi[:-2, 1:-1] + phi[2:, 1:-1]) / spacings[0] ** 2
            + (phi[1:-1, :-2] + phi[1:-1, 2:]) / spacings[1] ** 2)
    phi[interior] = _separable_inverse(sines, 1.0, 1.0)(
        (2.0 * np.sqrt(c) - ring).ravel()).reshape(inner_shape)
    del ring

    def residual_of(p):
        """The residual and the clamped cofactors on the interior nodes; the
        grid Hessian is dropped here, so GMRES holds only the cofactors."""
        hess = hessian_field(p, spacings)[interior]
        return hessian_det(hess) - c, _clamped_cofactors(hess)

    def solved(iterations):
        return HessianPotential(axes, phi, c, info={
            "iterations": iterations, "residuals": history, "krylov_iterations": krylov,
            "interior_residual": res})

    res, cofactors = residual_of(phi)
    history = [float(np.max(np.abs(res)))]
    krylov = []
    for iteration in range(NEWTON_STEPS):
        if history[-1] < NEWTON_TOL:
            return solved(iteration)
        k11, k22, k12 = cofactors

        def apply_jacobian(x, k11=k11, k22=k22, k12=k12):
            # k11 dxx + k22 dyy - (2 k12) dxy, bitwise, in the three buffers
            grid = x.reshape(inner_shape)
            dxy = d1x_r @ grid @ d1y_r.T
            dxy *= 2.0 * k12
            dxx = d2x_r @ grid
            dxx *= k11
            dyy = grid @ d2y_r.T
            dyy *= k22
            dxx += dyy
            dxx -= dxy
            return dxx.ravel()

        precond = _separable_inverse(sines, _median(k11), _median(k22))
        eta = _FORCING * min(_FORCING_CAP, history[-1])
        jacobian = _Operator((unknowns, unknowns), apply_jacobian)
        # -F in place: res is not read again before the line search replaces it
        np.negative(res, out=res)
        try:
            step = spsolve(jacobian, res.ravel(), precond, eta)
        except ConvergenceError as exc:
            raise ConvergenceError(f"{exc} at residual {history[-1]:.3e}", history) from None
        krylov.append(jacobian.applications)
        step = step.reshape(inner_shape)
        alpha = 1.0
        base = history[-1]
        while True:
            # phi + alpha * delta for the correction delta that vanishes on
            # the ring, with no grid-sized delta
            trial = phi.copy()
            trial[interior] += alpha * step
            trial_res, trial_cofactors = residual_of(trial)
            norm = float(np.max(np.abs(trial_res)))
            if norm < base:
                break
            if alpha < 1e-3:
                raise ConvergenceError(
                    f"line search failed at residual {base:.3e}", history
                )
            alpha *= 0.5
        phi, res, cofactors = trial, trial_res, trial_cofactors
        del step
        history.append(norm)
        if len(history) > 5 and norm > 0.999 * history[-5]:
            raise ConvergenceError(
                f"Newton stagnation at residual {norm:.3e}", history
            )
    if history[-1] < NEWTON_TOL:
        return solved(NEWTON_STEPS)
    raise ConvergenceError(
        f"no convergence after {NEWTON_STEPS} iterations "
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
    """Read a ``save_potential`` CSV back into a ``HessianPotential``.

    UTF-8 lines ``m,<m>``, m lines ``axis,<lo>,<hi>,<n>``, an optional
    ``c,<c>``, then one node value per line in C order; blank lines are
    ignored.  The values are parsed by numpy in C, with no object per node.
    Raises ``InputError``: "cannot read" for a missing or non-UTF-8 file;
    "malformed" for an unexpected header line, m < 1, a value line that is
    not one float (``#`` included), or an empty or miscounted value block.
    """
    try:
        with open(path, encoding="utf-8") as fh:
            return _read_potential(fh)
    # a UnicodeDecodeError is a ValueError, so it is caught first
    except (OSError, UnicodeDecodeError) as exc:
        raise InputError(f"cannot read potential file {path}: {exc}") from exc
    except ValueError as exc:
        raise InputError(f"malformed potential file {path}: {exc}") from exc


def _read_potential(fh):
    """The potential of an open ``save_potential`` CSV (``load_potential``)."""
    (m,) = _header(fh, "m")
    axes = []
    for _ in range(int(m)):
        lo, hi, n = _header(fh, "axis")
        axes.append(np.linspace(float(lo), float(hi), int(n)))
    c = None
    line, at = _next_line(fh)
    if line.startswith("c,"):
        c = float(line.removeprefix("c,"))
        _, at = _next_line(fh)  # an empty value block raises here, not in loadtxt
    fh.seek(at)
    values = np.loadtxt(fh, dtype=float, ndmin=1, comments=None)
    if values.ndim != 1:
        raise ValueError(f"a value line holds {values.shape[1]} numbers")
    return HessianPotential(axes, values.reshape(tuple(len(ax) for ax in axes)), c)


def _header(fh, label):
    """The fields after ``label`` on the next non-blank line of ``fh``."""
    line, _ = _next_line(fh)
    name, *fields = line.split(",")
    if name != label:
        raise ValueError(f"expected a {label} line, got {line!r}")
    return fields


def _next_line(fh):
    """The next non-blank line of ``fh``, stripped, and the position before it."""
    while True:
        at = fh.tell()
        line = fh.readline()
        if not line:
            raise ValueError("the file ends before the node values")
        if line.strip():
            return line.strip(), at


# The grid layer loads as one unit.  ``semiflat`` copies ``fd.apply_diff`` and
# ``fd.hessian_field`` into its namespace when it is imported, so code that
# replaces an ``fd`` function at every binding it finds (perfbench's tracer)
# must find semiflat already loaded; imported later, semiflat would copy the
# replacement and keep it after the original is restored.
from . import semiflat  # noqa: E402,F401
