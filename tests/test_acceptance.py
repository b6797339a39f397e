"""Acceptance suite: the thirteen primary checks, one report line each.

Every check prints a single PASS/FAIL line (bypassing capture so the lines
appear in plain ``pytest`` output) and then asserts.  Tolerances are either
the stated absolute bounds or derived two-grid stencil tolerances: a
fourth-order quantity measured on a half-resolution grid overestimates the
fine-grid value by 2^4, so ``10 * coarse / 16`` bounds the fine residual with
an order of magnitude to spare.  Quantities produced by the Newton solver are
additionally floored by the propagated solver tolerance.
"""

import sys

import numpy as np
import pytest

from slmoduli.cymodel import ConstantForm, FlatCalabiYauModel, std_model, validate_axioms
from slmoduli.family import (
    AffineSLagFamily,
    closedness_loop_residual,
    lagrangian_residual,
    moduli_coordinates,
    random_family,
    specialness_scan,
    std_family,
    tilt_family,
)
from slmoduli.fd import two_grid_bound
from slmoduli.forms import MIN_RESOLUTION, FormField, GridTorus, l2_inner
from slmoduli.hessian import (
    HessianPotential,
    hessian_det_field,
    involution_residual,
    legendre_transform,
    mirror_swap,
    partial_legendre_2d,
    solve_ma_dirichlet,
)
from slmoduli.semiflat import (
    build_semiflat,
    gh_metric,
    gh_ricci_max,
    hessian_chart,
    holomorphic_norm_field,
    nijenhuis_residual,
    ricci_agreement,
    ricci_form,
)

from legendre_bounds import interpolation_tolerance

FIBER_RES = 64


def _report(num, label, ok, detail):
    verdict = "PASS" if ok else "FAIL"
    print(f"[criterion {num:02d}] {verdict} {label}: {detail}", file=sys.__stdout__)
    assert ok, f"criterion {num}: {label} ({detail})"


def _builtin_families():
    return [
        ("std:1", std_family(1)),
        ("std:2", std_family(2)),
        ("std:3", std_family(3)),
        ("tilt:1:1", tilt_family(1)),
        ("tilt:1:2", tilt_family(2)),
        ("tilt:1:3", tilt_family(3)),
    ]


def _quartic(n=65):
    return HessianPotential.from_function(
        [np.linspace(-1, 1, n)] * 2,
        lambda a, b: a ** 4 / 12 + a ** 2 / 2 + b ** 2 / 2,
        c=1.0,
    )


@pytest.fixture(scope="module")
def cosh_solutions():
    """Dirichlet solves of det Hess = 1 with cosh boundary data, two grids."""
    out = {}
    for n in (33, 65):
        out[n] = solve_ma_dirichlet(
            [np.linspace(0.0, 1.0, n)] * 2,
            lambda a, b: np.cosh(a) + np.cosh(b),
            c=1.0,
        )
    return out


def test_criterion_01_axiom_suite():
    worst = 0.0
    for n in (1, 2, 3):
        report = validate_axioms(std_model(n), tol=1e-12)
        assert report.all_passed, report.to_dict()
        for name in ("annihilation", "proportional"):
            worst = max(worst, report[name].residual)
    # manufactured violations of the first three structural conditions
    model = std_model(2)
    degenerate = ConstantForm.basis_covector(4, 0).wedge(
        ConstantForm.basis_covector(4, 2)
    )
    broken_i = FlatCalabiYauModel(2, np.eye(4), degenerate, model.omega1, model.omega2)
    spoil_ii = degenerate + ConstantForm.basis_covector(4, 1).wedge(
        ConstantForm.basis_covector(4, 3)
    )
    broken_ii = FlatCalabiYauModel(
        2, np.eye(4), model.omega, model.omega1 + spoil_ii, model.omega2
    )
    broken_iii = FlatCalabiYauModel(
        2, np.eye(4), model.omega, model.omega1 + 0.5 * degenerate, model.omega2
    )
    detected = (
        not validate_axioms(broken_i, tol=1e-12)["nondegenerate"].passed
        and not validate_axioms(broken_ii, tol=1e-12)["decomposable"].passed
        and not validate_axioms(broken_iii, tol=1e-12)["annihilation"].passed
    )
    _report(
        1,
        "flat-model axiom suite",
        worst < 1e-12 and detected,
        f"max residual {worst:.1e} < 1e-12, three violations detected",
    )


def test_criterion_02_harmonic_contraction_forms():
    worst = 0.0
    for name, fam in _builtin_families():
        for j in range(fam.moduli_dim):
            worst = max(worst, fam.mclean_check(j))
    _report(
        2,
        "phi_j = star theta_j for the constant (so harmonic) contraction forms",
        worst < 1e-8,
        f"max residual {worst:.1e} < 1e-8 on {MIN_RESOLUTION}-per-axis grids",
    )


def test_criterion_03_closed_period_forms():
    rng = np.random.default_rng(31)
    worst = 0.0
    for name, fam in _builtin_families():
        m = fam.moduli_dim

        def lam_fn(pts, lam=fam.period_matrices().lam):
            return np.broadcast_to(lam, np.shape(pts)[:-1] + lam.shape)

        for _ in range(10):
            a = rng.uniform(-1.0, 1.0, size=m)
            b = a + rng.uniform(0.2, 1.0, size=m)
            loop = [a.copy() for _ in range(5)]
            loop[1][0] = b[0]
            loop[2][0] = b[0]
            if m > 1:
                loop[2][1] = b[1]
                loop[3][1] = b[1]
            worst = max(worst, closedness_loop_residual(lam_fn, np.array(loop)))

    def bad_lam(pts):
        pts = np.asarray(pts)
        out = np.zeros(pts.shape[:-1] + (2, 2))
        out[..., 0, 0] = 1.0
        out[..., 1, 1] = 1.0
        out[..., 0, 1] = pts[..., 0]
        return out

    square = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0], [0.0, 0.0]])
    power = closedness_loop_residual(bad_lam, square)
    _report(
        3,
        "period 1-forms closed on rectangular loops",
        worst < 1e-8 and power > 1e-3,
        f"max loop residual {worst:.1e} < 1e-8; "
        f"non-symmetric chart residual {power:.1e} > 1e-3",
    )


def test_criterion_04_l2_metric_identity():
    worst = grid_worst = 0.0
    for name, fam in _builtin_families():
        gram, deviation = fam.mclean_metric()
        worst = max(worst, deviation)
        # the gridded L2 pairing of the contraction 1-forms gives the same Gram
        torus = GridTorus((FIBER_RES,) * fam.n)
        g = fam.fiber_metric(torus)
        theta = fam.contraction_coefficients[0]
        thetas = [FormField.constant(torus, 1, theta[:, j]) for j in range(fam.moduli_dim)]
        grid_gram = np.array([[l2_inner(a, b, g) for b in thetas] for a in thetas])
        grid_worst = max(grid_worst, float(np.max(np.abs(grid_gram - gram))))
    gram, _ = tilt_family(1).mclean_metric()
    tilt_err = abs(gram[0, 0] - 1.0 / np.sqrt(2.0))
    _report(
        4,
        "L2 metric equals the period-matrix product",
        worst < 1e-8 and grid_worst < 1e-8 and tilt_err < 1e-8,
        f"max deviation {worst:.1e} < 1e-8; gridded L2 Gram off by {grid_worst:.1e} "
        f"< 1e-8 on {FIBER_RES}-per-axis grids; "
        f"slope-1 entry off 1/sqrt(2) by {tilt_err:.1e}",
    )


def test_criterion_05_symmetric_period_pairing():
    rng = np.random.default_rng(55)
    worst = 0.0
    for _ in range(20):
        fam = random_family(rng, n=2)
        worst = max(worst, lagrangian_residual(fam.period_matrices()))
    _report(
        5,
        "lambda^T mu symmetric over random families",
        worst < 1e-10,
        f"max asymmetry {worst:.1e} < 1e-10 over 20 draws",
    )


def test_criterion_06_constant_determinant_suite(cosh_solutions):
    # (a) Monge-Ampere residuals of a Legendre pair on both grids
    def pair_residuals(pot):
        primal = float(np.max(np.abs((hessian_det_field(pot) - pot.c)[2:-2, 2:-2])))
        pair = legendre_transform(pot)
        dual = float(np.max(np.abs((hessian_det_field(pair.dual) - 1.0 / pot.c)[2:-2, 2:-2])))
        return primal, dual

    coarse = pair_residuals(cosh_solutions[33])
    fine = pair_residuals(cosh_solutions[65])
    tols = [10.0 * max(c / 16.0, 1e-8) for c in coarse]
    ok_a = fine[0] < tols[0] and fine[1] < tols[1]

    # (b) the calibration identity: the calibrated fiber volume is the
    # Riemannian one, sqrt(det G), on every built-in family
    def calibration_gap(fam):
        scan = specialness_scan(fam, [np.linspace(0.0, 1.0, 5)] * fam.moduli_dim)
        return abs(scan["vol_fiber"] - np.sqrt(np.linalg.det(fam.fiber_metric_matrix)))

    worst = max(calibration_gap(fam) for name, fam in _builtin_families())
    # (c) negative control: a phase that does not calibrate the fiber breaks it
    slope_one = tilt_family(1)
    control = calibration_gap(AffineSLagFamily(slope_one.model, slope_one.P, slope_one.Q,
                                               phase=0.3))
    _report(
        6,
        "constant determinant: pair residuals and the calibration identity",
        ok_a and worst < 1e-10 and control > 1e-10,
        f"pair residuals {fine[0]:.1e}/{fine[1]:.1e} < {tols[0]:.1e}/{tols[1]:.1e}; "
        f"|vol_fiber - sqrt(det G)| {worst:.1e} < 1e-10; "
        f"off-calibration phase 0.3 misses by {control:.1e} > 1e-10",
    )


def test_criterion_07_legendre_involution():
    rng = np.random.default_rng(77)
    worst_ratio = 0.0
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
            quad = 0.5 * np.einsum("...a,ab,...b->...", u, mat, u)
            return quad + amp * np.cosh(u @ vec)

        pot = HessianPotential.from_function(axes, fn)
        back = legendre_transform(legendre_transform(pot).dual)
        err = involution_residual(pot, back.dual)
        worst_ratio = max(worst_ratio, err / (10.0 * interpolation_tolerance(pot)))

    quad = HessianPotential.from_function(
        [np.linspace(-1, 1, 33)] * 2, lambda a, b: 0.5 * (a ** 2 + b ** 2)
    )
    self_dual = legendre_transform(quad)
    self_err = float(np.max(np.abs(self_dual.dual.values - quad.values)))
    _report(
        7,
        "Legendre transform is an involution",
        worst_ratio < 1.0 and self_err < 1e-10,
        f"worst error / (10 x interpolation tolerance) = {worst_ratio:.1e} < 1 "
        f"over 50 draws; self-dual error {self_err:.1e} < 1e-10",
    )


def test_criterion_08_solver_recovers_quadratic():
    axes = [np.linspace(0.0, 1.0, 65)] * 2
    pot = solve_ma_dirichlet(axes, lambda a, b: 0.5 * (a ** 2 + b ** 2), c=1.0)
    mesh = np.meshgrid(*axes, indexing="ij")
    err = float(np.max(np.abs(pot.values - 0.5 * (mesh[0] ** 2 + mesh[1] ** 2))))
    steps = pot.info["iterations"]
    _report(
        8,
        "Dirichlet solver recovers the quadratic",
        err < 1e-6 and steps <= 15,
        f"error {err:.1e} < 1e-6 in {steps} Newton steps (<= 15)",
    )


def test_criterion_09_partial_legendre_reduction(cosh_solutions):
    fine, _ = partial_legendre_2d(cosh_solutions[65])
    coarse, _ = partial_legendre_2d(cosh_solutions[33])
    tol = two_grid_bound(coarse, 1e-12)
    quartic_res, _ = partial_legendre_2d(_quartic())
    # closed form for the quartic: h_ss + h_{u2 u2} = -u1^2/(1+u1^2), peak 1/2
    ok = fine < tol and 0.3 < quartic_res < 0.6
    _report(
        9,
        "partial Legendre reduction is harmonic iff Monge-Ampere",
        ok,
        f"solution residual {fine:.1e} < {tol:.1e}; "
        f"quartic residual {quartic_res:.2f} near the predicted 0.50",
    )


def test_criterion_10_integrability():
    axes_f = [np.linspace(0.1, 1.1, 33)] * 2
    axes_c = [np.linspace(0.1, 1.1, 17)] * 2

    def hess(t):
        t1, t2 = t
        return np.array([[t1 ** 2 + 2.0, 1.0], [1.0, 2.0 + np.exp(t2)]])

    fine = nijenhuis_residual(hessian_chart(hess), axes_f)
    coarse = nijenhuis_residual(hessian_chart(hess), axes_c)
    tol = two_grid_bound(coarse, 1e-12)

    def bad(t):
        t1, _ = t
        return np.array([[2.0, t1], [0.0, 2.0]])

    power = nijenhuis_residual(hessian_chart(bad), axes_f)
    _report(
        10,
        "Nijenhuis tensor vanishes for Hessian charts",
        fine < tol and power > 1e-2,
        f"residual {fine:.1e} < {tol:.1e}; non-integrable chart {power:.1e} > 1e-2",
    )


def test_criterion_11_ricci_flat_iff_ma(cosh_solutions):
    trim = (slice(3, -3),) * 2
    stats = {}
    for n in (33, 65):
        sf = build_semiflat(cosh_solutions[n])
        stats[n] = (
            holomorphic_norm_field(sf)[0],
            float(np.max(np.abs(ricci_form(sf)[trim]))),
        )
    ma_res = float(np.max(np.abs((hessian_det_field(cosh_solutions[65]) - 1.0)[2:-2, 2:-2])))
    h = cosh_solutions[65].spacings[0]
    # solver floor: |det - c| propagates directly into the norm field and is
    # amplified by 1/h^2 by the curvature stencils
    tol_var = 10.0 * max(stats[33][0] / 16.0, ma_res)
    tol_ric = 10.0 * max(stats[33][1] / 16.0, ma_res / h ** 2)
    ok_ma = stats[65][0] < tol_var and stats[65][1] < tol_ric

    sfq = build_semiflat(_quartic())
    var_q = holomorphic_norm_field(sfq)[0]
    ric_q = float(np.max(np.abs(ricci_form(sfq)[trim])))
    ok_quartic = var_q > tol_var and ric_q > tol_ric

    ric1 = {}
    for n in (33, 65):
        sf1 = build_semiflat(
            HessianPotential.from_function([np.linspace(0, 1, n)], lambda u: np.exp(u))
        )
        ric1[n] = float(np.max(np.abs(ricci_form(sf1)[3:-3])))
        var1 = holomorphic_norm_field(sf1)[0]
    tol_ric1 = two_grid_bound(ric1[33], 1e-12)
    ok_separating = ric1[65] < tol_ric1 and var1 > 1.0
    _report(
        11,
        "holomorphic norm constant and Ricci flat iff Monge-Ampere",
        ok_ma and ok_quartic and ok_separating,
        f"solution: variation {stats[65][0]:.1e} < {tol_var:.1e}, "
        f"Ricci {stats[65][1]:.1e} < {tol_ric:.1e}; quartic exceeds both "
        f"({var_q:.1e}, {ric_q:.1e}); exp(u): Ricci {ric1[65]:.1e} < "
        f"{tol_ric1:.1e} with variation {var1:.2f} > 1",
    )


def test_criterion_12_ricci_double_entry():
    suite = [
        ("quartic", 2, lambda a, b: a ** 4 / 12 + a ** 2 / 2 + b ** 2 / 2, (-1.0, 1.0)),
        ("cosh", 2, lambda a, b: np.cosh(a) + np.cosh(b), (0.0, 1.0)),
        ("coupled", 2,
         lambda a, b: 0.5 * (1.5 * a ** 2 + b ** 2) + 0.3 * a * b
         + (a ** 4 + b ** 4) / 20.0, (0.0, 1.0)),
        ("exp", 1, lambda u: np.exp(u), (0.0, 1.0)),
    ]
    worst_ratio = 0.0
    for name, m, fn, (lo, hi) in suite:
        values = {}
        for n in (33, 65):
            pot = HessianPotential.from_function([np.linspace(lo, hi, n)] * m, fn)
            values[n] = ricci_agreement(build_semiflat(pot))[0]
        tol = two_grid_bound(values[33], 1e-12)
        worst_ratio = max(worst_ratio, values[65] / tol)

    gh_values = {}
    for n in (25, 49):
        axes = [np.linspace(0.0, 1.0, n)] * 2
        y1, _ = np.meshgrid(*axes, indexing="ij")
        gh_values[n] = gh_ricci_max(gh_metric(2.0 + y1, axes))[0]
    gh_tol = two_grid_bound(gh_values[25], 1e-12)
    _report(
        12,
        "log-det Ricci matches the Christoffel oracle; ansatz metric Ricci flat",
        worst_ratio < 1.0 and gh_values[49] < gh_tol,
        f"worst agreement / tolerance = {worst_ratio:.1e} < 1 over 4 potentials; "
        f"ansatz Ricci {gh_values[49]:.1e} < {gh_tol:.1e}",
    )


def test_criterion_13_mirror_swap_involution():
    worst = 0.0
    for name, fam in _builtin_families():
        axes = [np.linspace(0.0, 1.0, 5)] * fam.moduli_dim
        chart = moduli_coordinates(fam, axes)
        double = mirror_swap(mirror_swap(chart))
        worst = max(
            worst,
            float(np.max(np.abs(double.u - chart.u))),
            float(np.max(np.abs(double.v - chart.v))),
            float(np.max(np.abs(double.lam - chart.lam))),
            float(np.max(np.abs(double.mu - chart.mu))),
        )
    pot = HessianPotential.from_function(
        [np.linspace(-1, 1, 33)] * 2, lambda a, b: 0.5 * (2 * a ** 2 + b ** 2)
    )
    pair = legendre_transform(pot)
    double_pair = mirror_swap(mirror_swap(pair))
    worst = max(
        worst,
        float(np.max(np.abs(double_pair.primal.values - pair.primal.values))),
        float(np.max(np.abs(double_pair.dual.values - pair.dual.values))),
    )
    _report(
        13,
        "double role swap returns the original chart and pair",
        worst < 1e-8,
        f"max deviation {worst:.1e} < 1e-8 over built-in families",
    )
