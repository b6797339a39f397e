"""Affine special Lagrangian torus families in flat T^{2n}.

A family is the affine fibration (s, t) -> P s + Q t + r over an m-dimensional
moduli chart.  On a flat torus the contraction 1-forms theta_j = iota(Q_j)
omega and (n-1)-forms phi_j = iota(Q_j) Omega_1, pulled back to a fiber, are
constant and independent of t.  So the period matrices lambda, mu, the L^2
Gram matrix of the theta_j and the fiber volume are computed once per family
in closed form from ``ConstantForm`` algebra.  Constant forms are closed and
co-closed exactly, so the gridded forms are built only for the McLean
identity phi_j = star theta_j on a fiber grid with the constant induced
metric.  The module also integrates the moduli coordinates u, v (closedness
of the period 1-forms is a precondition), tabulates the embedding
t -> (u(t), v(t)), and reports the residuals certifying the structural
identities: symmetry of lambda^T mu and the L^2 metric identity.
"""

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .cymodel import FlatCalabiYauModel, resolve_model, std_model
from .errors import DegeneracyError, DomainError, InputError, MetricError
from .forms import (
    FormField,
    GridTorus,
    MetricField,
    hodge_star,
)
from .multilinear import complement_table

DEFAULT_FIBER_RESOLUTION = 8


@dataclass
class AffineSLagFamily:
    """f(s, t) = P s + Q t + r with integer-lattice fiber frame P.

    The fiber is parametrised by s in the unit torus [0, 1)^n, so a constant
    n-form on it integrates to its coefficient.
    """

    model: FlatCalabiYauModel
    P: np.ndarray
    Q: np.ndarray
    r: np.ndarray = None
    phase: object = "auto"  # "auto" or angle in radians

    def __post_init__(self):
        d = self.model.ambient_dim
        self.P = np.asarray(self.P, dtype=float)
        self.Q = np.asarray(self.Q, dtype=float)
        if self.P.shape != (d, self.model.n):
            raise InputError(f"fiber frame P must be {d} x {self.model.n}")
        if self.Q.ndim != 2 or self.Q.shape[0] != d:
            raise InputError(f"moduli frame Q must have {d} rows")
        if np.linalg.matrix_rank(self.P) < self.model.n:
            raise DegeneracyError("fiber frame columns are linearly dependent")
        if self.r is None:
            self.r = np.zeros(d)
        self.r = np.asarray(self.r, dtype=float)

    @property
    def n(self):
        return self.model.n

    @property
    def moduli_dim(self):
        return self.Q.shape[1]

    def calibration_angle(self):
        """Phase gamma applied to the complex n-form before splitting.

        "auto" picks gamma so that Re(e^{i gamma} Omega^c) restricts to zero
        on the fiber and the imaginary part restricts positively (orientation).
        """
        if self.phase != "auto":
            return float(self.phase)
        top = complex(self.model.omega_c().pullback(self.P).coeffs[0])
        if abs(top) < 1e-14:
            raise DegeneracyError("complex form restricts to zero on the fiber")
        return float(np.pi / 2 - np.angle(top))

    def calibrated_omega_c(self):
        gamma = self.calibration_angle()
        omega_c = self.model.omega_c()
        return np.exp(1j * gamma) * omega_c

    def fiber_torus(self, resolution=DEFAULT_FIBER_RESOLUTION):
        return GridTorus((resolution,) * self.n)

    def fiber_metric_matrix(self):
        """Induced metric G = P^T g P on the fiber; raises unless positive definite."""
        g = self.P.T @ self.model.ambient_metric() @ self.P
        if np.min(np.linalg.eigvalsh(g)) <= 0.0:
            raise MetricError("induced fiber metric is not positive definite")
        return g

    def fiber_metric(self, torus):
        """Induced metric P^T g P as the constant metric of the fiber grid."""
        return MetricField(torus, self.fiber_metric_matrix())

    def fiber_restriction_residuals(self):
        """(||omega restricted||_inf, ||Omega_1 restricted||_inf) on a fiber.

        Exact multilinear contraction with the columns of P; both vanish for a
        special Lagrangian fiber.
        """
        omega_res = self.model.omega.pullback(self.P).norm_inf()
        omega1_res = self.calibrated_omega_c().real().pullback(self.P).norm_inf()
        return omega_res, omega1_res

    def contraction_coefficients(self):
        """(Theta, Phi): column j holds the fiber coefficients of theta_j, phi_j.

        theta_j = iota(Q_j) omega and phi_j = iota(Q_j) Omega_1, both pulled
        back by P; Theta is n x m, Phi is C(n, n-1) x m.
        """
        omega1 = self.calibrated_omega_c().real()
        theta = [self.model.omega.contract(q).pullback(self.P).coeffs for q in self.Q.T]
        phi = [omega1.contract(q).pullback(self.P).coeffs for q in self.Q.T]
        return np.array(theta, dtype=float).T, np.array(phi, dtype=float).T

    def contraction_one_form(self, j, torus):
        """theta_j as a constant 1-form field on the fiber grid."""
        return FormField.constant(torus, 1, self.contraction_coefficients()[0][:, j])

    def contraction_nminus1_form(self, j, torus):
        """phi_j as a constant (n-1)-form field on the fiber grid."""
        return FormField.constant(torus, self.n - 1, self.contraction_coefficients()[1][:, j])

    def fiber_volume(self):
        """Calibrated volume of a fiber: the coefficient of Omega_2 restricted by P."""
        return float(self.calibrated_omega_c().imag().pullback(self.P).coeffs[0])

    def mclean_check(self, j, torus):
        """||phi_j - star theta_j||_inf on a fiber grid.

        theta_j and phi_j are constant, so d theta_j = d star theta_j = 0
        exactly and McLean's identity is the only thing left to check.
        """
        theta = self.contraction_one_form(j, torus)
        phi = self.contraction_nminus1_form(j, torus)
        return (phi - hodge_star(theta, self.fiber_metric(torus))).norm_inf()

    def period_matrices(self):
        """lambda_ij = int_{A_i} theta_j and mu_ij = int_{B_i} phi_j.

        A_i is the loop along s_i, so lambda = Theta.  B_i is the slab
        {s_i = 0} with the sign of ds_i ^ ds_(complement of i), so mu_ij is
        that sign times the coefficient of phi_j on the complement of i.
        """
        if self.moduli_dim != self.n:
            raise InputError(
                "period matrices need moduli dimension equal to b_1 of the fiber"
            )
        theta, phi = self.contraction_coefficients()
        mu = np.empty_like(theta)
        for i, comp, sign in complement_table(self.n, 1):
            mu[i] = sign * phi[comp]
        return PeriodMatrices(theta, mu)

    def mclean_metric(self):
        """L^2 Gram matrix of the theta_j and its deviation from lambda^T mu.

        For constant forms on the unit fiber torus the Gram matrix is
        Theta^T G^{-1} Theta sqrt(det G) with G the induced fiber metric.
        """
        pm = self.period_matrices()
        g = self.fiber_metric_matrix()
        gram = pm.lam.T @ np.linalg.solve(g, pm.lam) * np.sqrt(np.linalg.det(g))
        return gram, float(np.max(np.abs(gram - pm.lam.T @ pm.mu)))

    def lambda_function(self):
        """t -> lambda(t); constant for affine families."""
        lam = self.period_matrices().lam
        return lambda t: np.broadcast_to(lam, np.shape(t)[:-1] + lam.shape).copy()

    def mu_function(self):
        mu = self.period_matrices().mu
        return lambda t: np.broadcast_to(mu, np.shape(t)[:-1] + mu.shape).copy()


@dataclass
class PeriodMatrices:
    """lambda and mu at one moduli point; lambda must be invertible."""

    lam: np.ndarray
    mu: np.ndarray

    def __post_init__(self):
        self.lam = np.asarray(self.lam, dtype=float)
        self.mu = np.asarray(self.mu, dtype=float)
        if abs(np.linalg.det(self.lam)) < 1e-12:
            raise DegeneracyError("period matrix lambda is singular")

    def recombine(self, z):
        """Replace A_i by the integer recombination sum_j Z_ij A_j."""
        z = np.asarray(z, dtype=float)
        if abs(abs(np.linalg.det(z)) - 1.0) > 1e-9:
            raise InputError("basis recombination must be unimodular")
        return PeriodMatrices(z @ self.lam, np.linalg.inv(z).T @ self.mu)


def lagrangian_residual(pm):
    """||lambda^T mu - mu^T lambda||_inf; zero certifies the Lagrangian embedding."""
    s = pm.lam.T @ pm.mu
    return float(np.max(np.abs(s - s.T)))


def closedness_loop_residual(lam_fn, loop, n_quad=128):
    """max_i |oint xi_i| along a closed polyline, composite trapezoid rule."""
    loop = np.asarray(loop, dtype=float)
    if loop.ndim != 2 or loop.shape[0] < 2:
        raise InputError("loop must be a polyline of moduli points")
    if np.max(np.abs(loop[0] - loop[-1])) > 1e-12:
        raise InputError("polyline is not closed")
    m = loop.shape[1]
    total = np.zeros(m)
    tau = np.linspace(0.0, 1.0, n_quad + 1)
    for a, b in zip(loop[:-1], loop[1:]):
        pts = a[None, :] + tau[:, None] * (b - a)[None, :]
        lam = lam_fn(pts)  # (n_quad+1, m, m)
        integrand = lam @ (b - a)
        total += np.trapezoid(integrand, tau, axis=0)
    return float(np.max(np.abs(total)))


@dataclass
class ModuliChart:
    """u, v and the period matrices tabulated over a box grid in t-space."""

    axes: list
    u: np.ndarray
    v: np.ndarray
    lam: np.ndarray
    mu: np.ndarray
    basepoint: tuple

    @property
    def moduli_dim(self):
        return len(self.axes)

    def points(self):
        mesh = np.meshgrid(*self.axes, indexing="ij")
        return np.stack(mesh, axis=-1)

    def swap(self):
        """Exchange the roles of (u, lambda) and (v, mu)."""
        return ModuliChart(
            self.axes,
            self.v.copy(),
            self.u.copy(),
            self.mu.copy(),
            self.lam.copy(),
            self.basepoint,
        )


def _staircase_integral(field, axes, basepoint, order):
    """Path integral of sum_j M_ij dt_j along axis-ordered staircase paths.

    ``field`` maps points (..., m) to matrices (..., m, m).  The path from the
    basepoint to a node runs along the axes in ``order``, later axes held at
    their basepoint values until reached.
    """
    m = len(axes)
    shape = tuple(len(ax) for ax in axes)
    out = np.zeros(shape + (m,))
    done = []
    for axis in order:
        # sample on the sub-grid of processed axes plus the current one
        grids = []
        for j in range(m):
            if j in done or j == axis:
                grids.append(np.asarray(axes[j]))
            else:
                grids.append(np.asarray([axes[j][basepoint[j]]]))
        mesh = np.meshgrid(*grids, indexing="ij")
        pts = np.stack(mesh, axis=-1)
        mat = field(pts)  # (..., m, m), rows i, columns j
        integrand = mat[..., :, axis]
        t_ax = np.asarray(axes[axis])
        # cumulative trapezoid along the current axis, anchored at basepoint
        scaled = _cumtrapz(integrand, t_ax, axis=axis)
        anchor = np.take(scaled, basepoint[axis], axis=axis)
        seg = scaled - np.expand_dims(anchor, axis)
        # broadcast over the axes not yet reached
        reps = [1] * (m + 1)
        for j in range(m):
            if seg.shape[j] == 1:
                reps[j] = shape[j]
        out += np.tile(seg, reps)
        done.append(axis)
    return out


def _cumtrapz(values, x, axis):
    dx = np.diff(x)
    pair_means = 0.5 * (np.take(values, range(1, len(x)), axis=axis)
                        + np.take(values, range(0, len(x) - 1), axis=axis))
    shape = [1] * values.ndim
    shape[axis] = len(dx)
    increments = pair_means * dx.reshape(shape)
    zero = np.zeros(np.take(values, [0], axis=axis).shape)
    return np.concatenate([zero, np.cumsum(increments, axis=axis)], axis=axis)


def moduli_coordinates(fam_or_fns, axes, basepoint=None, order=None,
                       closedness_tol=1e-8):
    """Integrate du = lambda dt, dv = mu dt over a box grid from a basepoint.

    Accepts either a family or a pair (lambda_fn, mu_fn).  Closedness of the
    period 1-forms is a checked precondition: the generating rectangles of the
    grid must have loop residual below ``closedness_tol``.
    """
    if isinstance(fam_or_fns, AffineSLagFamily):
        lam_fn = fam_or_fns.lambda_function()
        mu_fn = fam_or_fns.mu_function()
    else:
        lam_fn, mu_fn = fam_or_fns
    axes = [np.asarray(ax, dtype=float) for ax in axes]
    m = len(axes)
    if basepoint is None:
        basepoint = (0,) * m
    if order is None:
        order = list(range(m))
    _check_grid_closedness(lam_fn, axes, closedness_tol)
    u = _staircase_integral(lam_fn, axes, basepoint, order)
    v = _staircase_integral(mu_fn, axes, basepoint, order)
    pts = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1)
    return ModuliChart(axes, u, v, lam_fn(pts), mu_fn(pts), tuple(basepoint))


def _check_grid_closedness(lam_fn, axes, tol):
    m = len(axes)
    if m < 2:
        return
    base = np.array([ax[0] for ax in axes])
    for a in range(m):
        for b in range(a + 1, m):
            corner = base.copy()
            pts = [base.copy() for _ in range(5)]
            pts[1][a] = axes[a][-1]
            pts[2][a] = axes[a][-1]
            pts[2][b] = axes[b][-1]
            pts[3][b] = axes[b][-1]
            res = closedness_loop_residual(lam_fn, np.array(pts))
            if res > tol:
                raise DomainError(
                    f"period 1-forms are not closed on the chart "
                    f"(axes {a},{b} rectangle residual {res:.3e}); "
                    "path integration would be path-dependent"
                )


def embed_F(chart, spot_checks=32, rng=None):
    """Tabulated embedding t -> (u(t), v(t)) with an injectivity spot check."""
    m = chart.moduli_dim
    table = np.concatenate([chart.u, chart.v], axis=-1)
    flat_u = chart.u.reshape(-1, m)
    rng = rng or np.random.default_rng(0)
    k = len(flat_u)
    for _ in range(spot_checks):
        i, j = rng.integers(0, k, size=2)
        if i != j and np.max(np.abs(flat_u[i] - flat_u[j])) < 1e-12:
            raise DegeneracyError("u-chart fails injectivity spot check")
    return table


def specialness_scan(fam, axes):
    """Tabulate the cohomology-torus volumes and fiber volume over t.

    Constancy of sqrt(det(mu lambda^{-1})) certifies the special embedding;
    constancy of the fiber volume must always hold.  The volumes are read
    from ``lambda_function`` and ``mu_function``, the period matrices that
    ``moduli_coordinates`` integrates; the fiber volume, Lagrangian residual
    and L^2 metric residual of an affine family hold for every t.
    """
    pts = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1)
    flat = pts.reshape(-1, pts.shape[-1])
    ratio = fam.mu_function()(flat) @ np.linalg.inv(fam.lambda_function()(flat))
    vol_h1 = np.sqrt(np.abs(np.linalg.det(ratio)))
    vol_hn1 = np.sqrt(np.abs(np.linalg.det(np.linalg.inv(ratio))))
    vol_fiber = np.full(len(flat), fam.fiber_volume())
    lag = np.full(len(flat), lagrangian_residual(fam.period_matrices()))
    metric_res = np.full(len(flat), fam.mclean_metric()[1])

    def variation(values):
        scale = max(np.max(np.abs(values)), 1e-300)
        return float((np.max(values) - np.min(values)) / scale)

    return {
        "points": flat,
        "vol_h1": vol_h1,
        "vol_hn1": vol_hn1,
        "vol_fiber": vol_fiber,
        "lag_residual": lag,
        "metric_residual": metric_res,
        "vol_h1_variation": variation(vol_h1),
        "vol_hn1_variation": variation(vol_hn1),
        "vol_fiber_variation": variation(vol_fiber),
    }


def scan_to_csv(scan, path):
    pts = scan["points"]
    m = pts.shape[1]
    header = ",".join(
        [f"t_{i + 1}" for i in range(m)]
        + ["vol_H1", "vol_Hn1", "vol_fiber", "lag_residual", "metric_residual"]
    )
    with open(path, "w") as fh:
        fh.write(header + "\n")
        for i in range(len(pts)):
            row = list(pts[i]) + [
                scan["vol_h1"][i],
                scan["vol_hn1"][i],
                scan["vol_fiber"][i],
                scan["lag_residual"][i],
                scan["metric_residual"][i],
            ]
            fh.write(",".join(repr(float(x)) for x in row) + "\n")


def std_family(n):
    """Fibers = x-planes, moduli flow along the y-axes of the standard model."""
    model = std_model(n)
    p = np.vstack([np.eye(n), np.zeros((n, n))])
    q = np.vstack([np.zeros((n, n)), np.eye(n)])
    return AffineSLagFamily(model, p, q)


def tilt_family(k):
    """Lines of slope k in T^2 with automatically calibrated phase."""
    model = std_model(1)
    p = np.array([[1.0], [float(k)]])
    q = np.array([[0.0], [1.0]])
    return AffineSLagFamily(model, p, q)


def random_family(rng, n=2, max_entry=3):
    """Random integer Lagrangian fiber frame [I; S] with S symmetric.

    The moduli frame is a random real matrix resampled until lambda is well
    conditioned; the calibration phase is automatic, so every draw is a valid
    special Lagrangian family.
    """
    model = std_model(n)
    while True:
        s = rng.integers(-max_entry, max_entry + 1, size=(n, n))
        s = np.triu(s) + np.triu(s, 1).T
        p = np.vstack([np.eye(n), s.astype(float)])
        q = rng.normal(size=(2 * n, n))
        try:
            fam = AffineSLagFamily(model, p, q)
            pm = fam.period_matrices()
        except DegeneracyError:
            continue
        if abs(np.linalg.det(pm.lam)) > 0.1:
            return fam


def family_from_shorthand(name):
    """Expand "std:n" / "tilt:1:k" shorthand into a family."""
    parts = str(name).split(":")
    try:
        if parts[0] == "std" and len(parts) == 2:
            return std_family(int(parts[1]))
        if parts[0] == "tilt" and len(parts) == 3 and parts[1] == "1":
            return tilt_family(float(parts[2]))
    except ValueError as exc:
        raise InputError(f"bad family shorthand {name!r}: {exc}") from None
    raise InputError(f"unknown family shorthand {name!r}")


def save_family(fam, path, model_ref=None):
    """Write ``fam`` as JSON that ``load_family`` reads back.

    The file names its model by ``model_ref`` ("std:<n>" or the path of a
    model file), so a reference is required.  ``load_family`` resolves a
    relative model path against the directory of the family file.
    """
    if model_ref is None:
        raise InputError("save_family needs a model_ref ('std:<n>' or a model file path)")
    data = {
        "model": model_ref,
        "P": fam.P.tolist(),
        "Q": fam.Q.tolist(),
        "r": fam.r.tolist(),
        "phase": fam.phase,
    }
    with open(path, "w") as fh:
        json.dump(data, fh, indent=2, sort_keys=True)


def load_family(path):
    try:
        with open(path) as fh:
            data = json.load(fh)
        model = resolve_model(data["model"], Path(path).parent)
        return AffineSLagFamily(
            model,
            np.asarray(data["P"], dtype=float),
            np.asarray(data["Q"], dtype=float),
            np.asarray(data.get("r", np.zeros(model.ambient_dim)), dtype=float),
            data.get("phase", "auto"),
        )
    except OSError as exc:
        raise InputError(f"cannot read family file {path}: {exc}") from exc
    except (KeyError, TypeError, ValueError) as exc:
        raise InputError(f"malformed family file {path}: {exc}") from exc
