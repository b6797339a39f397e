"""Flat Calabi-Yau models: constant forms on R^{2n} modulo a lattice.

The structural data is a symplectic 2-form omega together with the real and
imaginary parts of a complex n-form, all with constant coefficients.  The
validator checks the defining algebraic conditions numerically: symplectic
non-degeneracy, decomposability of the complex form, the annihilation
identities against omega, proportionality of the top wedge to omega^n, and
positivity of the induced hermitian form.  Closedness holds identically for
constant forms and is recorded as such.
"""

import json
from dataclasses import dataclass, field
from math import comb
from pathlib import Path

import numpy as np

from .errors import DegeneracyError, InputError
from .multilinear import (
    contract_coeffs,
    index_tuples,
    pullback_coeffs,
    wedge_coeffs,
)


@dataclass
class ConstantForm:
    """A constant-coefficient k-form on R^d."""

    dim: int
    degree: int
    coeffs: np.ndarray

    def __post_init__(self):
        self.coeffs = np.asarray(self.coeffs)
        # degree > dim is the zero form with an empty coefficient array
        if self.degree < 0:
            raise InputError(f"negative degree {self.degree}")
        if self.coeffs.shape != (comb(self.dim, self.degree),):
            raise InputError(
                f"expected {comb(self.dim, self.degree)} coefficients, "
                f"got shape {self.coeffs.shape}"
            )

    @classmethod
    def zero(cls, dim, degree, dtype=float):
        return cls(dim, degree, np.zeros(comb(dim, degree), dtype=dtype))

    @classmethod
    def basis_covector(cls, dim, axis, dtype=float):
        c = np.zeros(dim, dtype=dtype)
        c[axis] = 1.0
        return cls(dim, 1, c)

    def wedge(self, other):
        if other.dim != self.dim:
            raise InputError("wedge of forms in different dimensions")
        coeffs = wedge_coeffs(
            self.coeffs, other.coeffs, self.dim, self.degree, other.degree
        )
        return ConstantForm(self.dim, self.degree + other.degree, coeffs)

    def contract(self, vector):
        return ConstantForm(
            self.dim,
            self.degree - 1,
            contract_coeffs(vector, self.coeffs, self.dim, self.degree),
        )

    def pullback(self, matrix):
        """Pull back through the linear map s -> matrix @ s."""
        matrix = np.asarray(matrix)
        return ConstantForm(
            matrix.shape[1], self.degree, pullback_coeffs(self.coeffs, matrix, self.degree)
        )

    def norm_inf(self):
        return float(np.max(np.abs(self.coeffs))) if self.coeffs.size else 0.0

    def conj(self):
        return ConstantForm(self.dim, self.degree, np.conj(self.coeffs))

    def real(self):
        return ConstantForm(self.dim, self.degree, self.coeffs.real.copy())

    def imag(self):
        return ConstantForm(self.dim, self.degree, self.coeffs.imag.copy())

    def as_matrix(self):
        """Antisymmetric matrix of a 2-form."""
        if self.degree != 2:
            raise InputError("as_matrix applies to 2-forms")
        m = np.zeros((self.dim, self.dim), dtype=self.coeffs.dtype)
        for pos, (i, j) in enumerate(index_tuples(self.dim, 2)):
            m[i, j] = self.coeffs[pos]
            m[j, i] = -self.coeffs[pos]
        return m

    def __add__(self, other):
        return ConstantForm(self.dim, self.degree, self.coeffs + other.coeffs)

    def __sub__(self, other):
        return ConstantForm(self.dim, self.degree, self.coeffs - other.coeffs)

    def __mul__(self, scalar):
        return ConstantForm(self.dim, self.degree, self.coeffs * scalar)

    __rmul__ = __mul__


def wedge_power(form, power):
    out = form
    for _ in range(power - 1):
        out = out.wedge(form)
    return out


@dataclass
class FlatCalabiYauModel:
    """Constant (omega, Omega_1, Omega_2) on R^{2n} plus a lattice."""

    n: int
    lattice: np.ndarray
    omega: ConstantForm
    omega1: ConstantForm
    omega2: ConstantForm

    def __post_init__(self):
        if not 1 <= self.n <= 3:
            raise InputError("complex dimension n must be 1, 2 or 3")
        self.lattice = np.asarray(self.lattice, dtype=float)
        if self.lattice.shape != (2 * self.n, 2 * self.n):
            raise InputError("lattice basis must be a 2n x 2n matrix")
        if abs(np.linalg.det(self.lattice)) < 1e-12:
            raise DegeneracyError("lattice basis is singular")
        for form, deg in ((self.omega, 2), (self.omega1, self.n), (self.omega2, self.n)):
            if form.dim != 2 * self.n or form.degree != deg:
                raise InputError("model form has wrong dimension or degree")

    @property
    def ambient_dim(self):
        return 2 * self.n

    def omega_c(self):
        return ConstantForm(
            self.ambient_dim, self.n, self.omega1.coeffs + 1j * self.omega2.coeffs
        )

    def ambient_metric(self):
        """Metric g(X, Y) = omega(X, JY) from the induced complex structure."""
        j = complex_structure_matrix(self.omega_c())
        w = self.omega.as_matrix()
        g = w @ j
        return 0.5 * (g + g.T)


def annihilator_space(omega_c, tol=1e-10):
    """Basis of complex covectors theta with omega_c ^ theta = 0.

    Decomposability of a degree-n form on R^{2n} holds iff the null space has
    complex dimension exactly n.
    """
    d = omega_c.dim
    if omega_c.norm_inf() == 0.0:
        raise DegeneracyError("annihilator of the zero form is undefined")
    columns = []
    for a in range(d):
        theta = ConstantForm.basis_covector(d, a, dtype=complex)
        columns.append(omega_c.wedge(theta).coeffs)
    m = np.array(columns).T  # (n+1)-form coefficients x covector components
    _, s, vh = np.linalg.svd(m)
    cutoff = tol * (s[0] if s.size and s[0] > 0 else 1.0)
    rank = int(np.sum(s > cutoff))
    return [vh[i].conj() for i in range(rank, d)]


def complex_structure_matrix(omega_c, tol=1e-10):
    """Real matrix J on tangent vectors with the annihilator as (1,0) covectors."""
    basis = annihilator_space(omega_c, tol)
    d = omega_c.dim
    if len(basis) != d // 2:
        raise DegeneracyError(
            f"annihilator dimension {len(basis)} != {d // 2}; form not decomposable"
        )
    theta = np.array(basis)
    s = np.vstack([theta, theta.conj()])
    eig = np.diag([1j] * (d // 2) + [-1j] * (d // 2))
    j = np.linalg.solve(s, eig @ s)
    if np.max(np.abs(j.imag)) > 1e-8:
        raise DegeneracyError("induced complex structure is not real")
    return j.real


@dataclass
class AxiomCheck:
    name: str
    passed: bool
    residual: float
    detail: dict = field(default_factory=dict)


@dataclass
class AxiomReport:
    checks: list

    @property
    def all_passed(self):
        return all(c.passed for c in self.checks)

    def __getitem__(self, name):
        for c in self.checks:
            if c.name == name:
                return c
        raise KeyError(name)

    def to_dict(self):
        return {
            c.name: {"pass": c.passed, "residual": c.residual, **c.detail}
            for c in self.checks
        }


def validate_axioms(model, tol=1e-10):
    """Check the five structural conditions plus positivity, one report each.

    The top-wedge proportionality is reported as a single complex constant
    kappa (phase compared against i^{n^2} up to sign) rather than asserted
    against a literal normalization.
    """
    n = model.n
    omega_n = wedge_power(model.omega, n) if n > 1 else model.omega
    top = complex(omega_n.coeffs[0])
    checks = []

    # non-degeneracy of omega
    res_i = abs(top)
    checks.append(AxiomCheck("nondegenerate", res_i > tol, res_i))

    # decomposability via annihilator rank
    omega_c = model.omega_c()
    try:
        ann = annihilator_space(omega_c, max(tol, 1e-12))
        ann_dim = len(ann)
    except DegeneracyError:
        ann_dim = -1
    checks.append(
        AxiomCheck(
            "decomposable",
            ann_dim == n and omega_c.norm_inf() > tol,
            float(abs(ann_dim - n)),
            {"annihilator_dim": ann_dim},
        )
    )

    # annihilation identities Omega_i ^ omega = 0
    if n + 2 <= 2 * n:
        res1 = model.omega1.wedge(model.omega).norm_inf()
        res2 = model.omega2.wedge(model.omega).norm_inf()
    else:  # n = 1: degree overflow, identity holds trivially
        res1 = res2 = 0.0
    res_iii = max(res1, res2)
    checks.append(AxiomCheck("annihilation", res_iii < tol, res_iii))

    # proportionality of Omega^c ^ conj(Omega^c) to omega^n
    kappa_check = _proportionality_check(model, omega_c, top, tol)
    checks.append(kappa_check)

    # closedness: identically true for constant coefficients
    checks.append(AxiomCheck("closed", True, 0.0, {"by_construction": True}))

    # positivity of the induced hermitian form
    checks.append(_positivity_check(model, omega_c, tol))
    return AxiomReport(checks)


def _proportionality_check(model, omega_c, top, tol):
    n = model.n
    prod = omega_c.wedge(omega_c.conj())
    if abs(top) < tol:
        return AxiomCheck("proportional", False, float("inf"))
    kappa = complex(prod.coeffs[0]) / top
    if abs(kappa) < tol:
        return AxiomCheck("proportional", False, abs(kappa), {"kappa": str(kappa)})
    phase = kappa / abs(kappa)
    expected = 1j ** (n * n)
    phase_residual = min(abs(phase - expected), abs(phase + expected))
    return AxiomCheck(
        "proportional",
        phase_residual < max(tol, 1e-10),
        phase_residual,
        {"kappa": str(kappa)},
    )


def _positivity_check(model, omega_c, tol):
    try:
        g = model.ambient_metric()
    except DegeneracyError as exc:
        return AxiomCheck("positive", False, float("inf"), {"reason": str(exc)})
    eigs = np.linalg.eigvalsh(g)
    return AxiomCheck("positive", float(np.min(eigs)) > tol, float(np.min(eigs)))


def std_model(n):
    """The standard flat model on T^{2n}, coordinates (x_1..x_n, y_1..y_n).

    omega = sum dx_j ^ dy_j and the complex form is i dz_1 ^ ... ^ dz_n with
    z_j = x_j + i y_j, so the x-plane fibers are calibrated.
    """
    d = 2 * n
    omega = ConstantForm.zero(d, 2)
    for j in range(n):
        omega = omega + ConstantForm.basis_covector(d, j).wedge(
            ConstantForm.basis_covector(d, n + j)
        )
    omega_c = ConstantForm(d, 0, np.array([1j]))
    for j in range(n):
        dz = ConstantForm.basis_covector(d, j, dtype=complex) + 1j * ConstantForm.basis_covector(
            d, n + j, dtype=complex
        )
        omega_c = omega_c.wedge(dz)
    return FlatCalabiYauModel(
        n, np.eye(d), omega, omega_c.real(), omega_c.imag()
    )


def _form_to_dict(form):
    keys = [",".join(str(i + 1) for i in t) for t in index_tuples(form.dim, form.degree)]
    return {
        "degree": form.degree,
        "coeffs": {k: float(c) for k, c in zip(keys, form.coeffs) if c != 0.0},
    }


def _form_from_dict(dim, data):
    degree = int(data["degree"])
    pos = {t: i for i, t in enumerate(index_tuples(dim, degree))}
    coeffs = np.zeros(comb(dim, degree))
    for key, value in data.get("coeffs", {}).items():
        tup = tuple(sorted(int(s) - 1 for s in str(key).split(","))) if key else ()
        if tup not in pos:
            raise InputError(f"bad index tuple {key!r} for degree {degree}")
        coeffs[pos[tup]] = float(value)
    return ConstantForm(dim, degree, coeffs)


def save_model(model, path):
    data = {
        "n": model.n,
        "lattice": model.lattice.tolist(),
        "omega": _form_to_dict(model.omega),
        "omega1": _form_to_dict(model.omega1),
        "omega2": _form_to_dict(model.omega2),
    }
    with open(path, "w") as fh:
        json.dump(data, fh, indent=2, sort_keys=True)


def load_model(path):
    try:
        with open(path) as fh:
            data = json.load(fh)
        n = int(data["n"])
        d = 2 * n
        return FlatCalabiYauModel(
            n,
            np.asarray(data["lattice"], dtype=float),
            _form_from_dict(d, data["omega"]),
            _form_from_dict(d, data["omega1"]),
            _form_from_dict(d, data["omega2"]),
        )
    except OSError as exc:
        raise InputError(f"cannot read model file {path}: {exc}") from exc
    except (KeyError, TypeError, ValueError) as exc:
        raise InputError(f"malformed model file {path}: {exc}") from exc


def resolve_model(ref, base="."):
    """The model named by "std:<n>" or by a model file path relative to ``base``."""
    if not isinstance(ref, str):
        raise InputError(f"a model reference is 'std:<n>' or a path, not {ref!r}")
    if ref.startswith("std:"):
        try:
            return std_model(int(ref[len("std:"):]))
        except ValueError as exc:
            raise InputError(f"bad model shorthand {ref!r}: {exc}") from None
    return load_model(Path(base) / ref)
