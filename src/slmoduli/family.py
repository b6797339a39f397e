"""Affine special Lagrangian torus families in flat T^{2n}.

A family is the affine fibration (s, t) -> P s + Q t + r over an m-dimensional
moduli chart.  On a flat torus the contraction 1-forms theta_j = iota(Q_j)
omega and (n-1)-forms phi_j = iota(Q_j) Omega_1, pulled back to a fiber, are
constant and independent of t.  So the period matrices lambda, mu, the L^2
Gram matrix of the theta_j, the fiber volume and the cohomology-torus volumes
are computed once per family in closed form from ``ConstantForm`` algebra.
Constant forms are closed and co-closed exactly, so the gridded forms are
built only for the McLean identity phi_j = star theta_j, on one fixed fiber
grid with the constant induced metric, as a constant form's star does not
depend on the grid.  Since lambda and mu are constant, the moduli
coordinates of du = lambda dt, dv = mu dt are linear in t, u = (t - t0)
lambda^T and v = (t - t0) mu^T; the module tabulates the embedding
t -> (u(t), v(t)) and reports the residuals certifying the structural
identities: symmetry of lambda^T mu and the L^2 metric identity.
"""

import json
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np

from .cymodel import FlatCalabiYauModel, resolve_model, std_model
from .errors import DegeneracyError, InputError, MetricError
from .forms import MIN_RESOLUTION, FormField, GridTorus, MetricField, hodge_star
from .multilinear import complement_table


@dataclass
class AffineSLagFamily:
    """f(s, t) = P s + Q t + r with integer-lattice fiber frame P.

    The fiber is parametrised by s in the unit torus [0, 1)^n, so a constant
    n-form on it integrates to its coefficient.  Derived constants are kept
    (arrays read-only) on first use, so the frames and the phase must not be
    reassigned after.
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

    @cached_property
    def calibrated_forms(self):
        """(Omega_1, Omega_2): real and imaginary parts of e^{i gamma} Omega^c."""
        omega_c = np.exp(1j * self.calibration_angle()) * self.model.omega_c()
        return omega_c.real(), omega_c.imag()

    @cached_property
    def fiber_metric_matrix(self):
        """Induced metric G = P^T g P on the fiber; raises unless positive definite."""
        g = self.P.T @ self.model.ambient_metric @ self.P
        if np.min(np.linalg.eigvalsh(g)) <= 0.0:
            raise MetricError("induced fiber metric is not positive definite")
        g.flags.writeable = False
        return g

    def fiber_metric(self, torus):
        """Induced metric P^T g P as the constant metric of the fiber grid."""
        return MetricField(torus, self.fiber_metric_matrix)

    def fiber_restriction_residuals(self):
        """(||omega restricted||_inf, ||Omega_1 restricted||_inf) on a fiber.

        Exact multilinear contraction with the columns of P; both vanish for a
        special Lagrangian fiber.
        """
        omega_res = self.model.omega.pullback(self.P).norm_inf()
        omega1_res = self.calibrated_forms[0].pullback(self.P).norm_inf()
        return omega_res, omega1_res

    @cached_property
    def contraction_coefficients(self):
        """(Theta, Phi): column j holds the fiber coefficients of theta_j, phi_j.

        theta_j = iota(Q_j) omega and phi_j = iota(Q_j) Omega_1, both pulled
        back by P; Theta is n x m, Phi is C(n, n-1) x m.
        """
        omega1 = self.calibrated_forms[0]
        theta = [self.model.omega.contract(q).pullback(self.P).coeffs for q in self.Q.T]
        phi = [omega1.contract(q).pullback(self.P).coeffs for q in self.Q.T]
        theta, phi = np.array(theta, dtype=float).T, np.array(phi, dtype=float).T
        theta.flags.writeable = phi.flags.writeable = False
        return theta, phi

    def fiber_volume(self):
        """Calibrated volume of a fiber: the coefficient of Omega_2 restricted by P."""
        return float(self.calibrated_forms[1].pullback(self.P).coeffs[0])

    def mclean_check(self, j):
        """||phi_j - star theta_j||_inf on a fiber grid of MIN_RESOLUTION^n nodes.

        theta_j and phi_j are constant, so d theta_j = d star theta_j = 0
        exactly, McLean's identity is the only thing left to check, and the
        residual does not depend on the grid.  theta_j enters the gridded
        star as a broadcast view, and phi_j is subtracted in place from the
        star's output, so the check holds one node-sized form.
        """
        torus = GridTorus((MIN_RESOLUTION,) * self.n)
        theta, phi = self.contraction_coefficients
        theta = FormField.constant(torus, 1, theta[:, j])
        residual = hodge_star(theta, self.fiber_metric(torus)).coeffs
        residual -= phi[:, j]
        return float(np.abs(residual, out=residual).max())

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
        theta, phi = self.contraction_coefficients
        mu = np.empty_like(theta)
        for i, comp, sign in complement_table(self.n, 1):
            mu[i] = sign * phi[comp]
        return PeriodMatrices(theta, mu)

    def mclean_metric(self, pm=None):
        """L^2 Gram matrix of the theta_j and its deviation from lambda^T mu.

        For constant forms on the unit fiber torus the Gram matrix is
        Theta^T G^{-1} Theta sqrt(det G) with G the induced fiber metric.
        ``pm`` is the family's ``period_matrices()``, taken here if not given.
        """
        pm = self.period_matrices() if pm is None else pm
        g = self.fiber_metric_matrix
        gram = pm.lam.T @ np.linalg.solve(g, pm.lam) * np.sqrt(np.linalg.det(g))
        return gram, float(np.max(np.abs(gram - pm.lam.T @ pm.mu)))


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


def closedness_loop_residual(lam_fn, loop):
    """max_i |oint xi_i| along a closed polyline, 128 trapezoid panels per segment."""
    loop = np.asarray(loop, dtype=float)
    if loop.ndim != 2 or loop.shape[0] < 2:
        raise InputError("loop must be a polyline of moduli points")
    if np.max(np.abs(loop[0] - loop[-1])) > 1e-12:
        raise InputError("polyline is not closed")
    m = loop.shape[1]
    total = np.zeros(m)
    tau = np.linspace(0.0, 1.0, 129)
    for a, b in zip(loop[:-1], loop[1:]):
        pts = a[None, :] + tau[:, None] * (b - a)[None, :]
        lam = lam_fn(pts)  # (129, m, m)
        integrand = lam @ (b - a)
        total += np.trapezoid(integrand, tau, axis=0)
    return float(np.max(np.abs(total)))


@dataclass
class ModuliChart:
    """u, v (zero at the first node) over a box grid in t; lambda, mu are m x m."""

    axes: list
    u: np.ndarray
    v: np.ndarray
    lam: np.ndarray
    mu: np.ndarray

    @property
    def moduli_dim(self):
        return len(self.axes)

    def points(self):
        mesh = np.meshgrid(*self.axes, indexing="ij")
        return np.stack(mesh, axis=-1)

    def mirrored(self):
        """The mirror chart: (u, lambda) exchanged with (v, mu), sharing the arrays."""
        return ModuliChart(self.axes, self.v, self.u, self.mu, self.lam)


def moduli_coordinates(fam, axes):
    """du = lambda dt, dv = mu dt from the first node of a box grid: lambda
    and mu are constant, so u = (t - t0) lambda^T and v = (t - t0) mu^T."""
    axes = [np.asarray(ax, dtype=float) for ax in axes]
    pts = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1)
    pm = fam.period_matrices()
    offsets = pts - pts[(0,) * len(axes)]
    return ModuliChart(axes, offsets @ pm.lam.T, offsets @ pm.mu.T, pm.lam, pm.mu)


def embed_F(chart):
    """Tabulated embedding t -> (u(t), v(t)), refused unless u separates the nodes.

    Two distinct nodes differ by a dt of length at least h, the smallest gap
    between the nodes of an axis, so u = (t - t0) lambda^T moves by at least
    sigma_min(lambda) h / sqrt(m) in the max norm; a bound below 1e-12 raises
    DegeneracyError.  A chart of one node is injective.
    """
    gaps = [np.min(np.diff(np.sort(ax))) for ax in chart.axes if len(ax) > 1]
    if gaps:
        sigma_min = np.linalg.svd(chart.lam, compute_uv=False)[-1]
        separation = sigma_min * min(gaps) / np.sqrt(chart.moduli_dim)
        if not separation >= 1e-12:
            raise DegeneracyError(f"u-chart does not separate the grid nodes: "
                                  f"sigma_min(lambda) h / sqrt(m) = {separation:.3g}")
    return np.concatenate([chart.u, chart.v], axis=-1)


def specialness_scan(fam, axes, pm=None):
    """The flattened points of a box grid in t and the volumes over it.

    The volumes of H^1 and H^{n-1}, sqrt|det(mu lambda^{-1})| and its inverse,
    and the calibrated fiber volume are constants of an affine family, one
    number each for the whole chart.  ``pm`` is the family's
    ``period_matrices()``, taken here if not given.
    """
    points = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, len(axes))
    pm = fam.period_matrices() if pm is None else pm
    ratio = pm.mu @ np.linalg.inv(pm.lam)
    return {
        "points": points,
        "vol_h1": float(np.sqrt(np.abs(np.linalg.det(ratio)))),
        "vol_hn1": float(np.sqrt(np.abs(np.linalg.det(np.linalg.inv(ratio))))),
        "vol_fiber": fam.fiber_volume(),
    }


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
