"""Affine fiber families: periods, moduli coordinates, scans, persistence."""

import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from slmoduli.errors import DegeneracyError, InputError
from slmoduli.family import (
    AffineSLagFamily,
    PeriodMatrices,
    closedness_loop_residual,
    embed_F,
    family_from_shorthand,
    lagrangian_residual,
    load_family,
    moduli_coordinates,
    random_family,
    save_family,
    specialness_scan,
    std_family,
    tilt_family,
)
from slmoduli.cli import main
from slmoduli.cymodel import save_model, std_model
from slmoduli.forms import CycleBasis, FormField, integrate_top
from slmoduli.hessian import mirror_swap


def test_std_family_periods_are_minus_identity():
    for n in (1, 2, 3):
        fam = std_family(n)
        pm = fam.period_matrices()
        assert np.max(np.abs(pm.lam + np.eye(n))) < 1e-12
        assert np.max(np.abs(pm.mu + np.eye(n))) < 1e-12


def test_tilt_family_periods():
    for k in (1, 2, 3):
        fam = tilt_family(k)
        pm = fam.period_matrices()
        assert abs(pm.lam[0, 0] + 1.0) < 1e-12
        assert abs(pm.mu[0, 0] + 1.0 / np.sqrt(1.0 + k * k)) < 1e-12


def test_fiber_restriction_residuals_vanish():
    for fam in (std_family(2), tilt_family(2)):
        omega_res, omega1_res = fam.fiber_restriction_residuals()
        assert omega_res < 1e-14
        assert omega1_res < 1e-14


def test_auto_phase_positivity():
    fam = tilt_family(1)
    # calibration volume must be positive for the chosen orientation
    assert fam.fiber_volume() > 0


def _reference_periods(fam, torus):
    """lambda, mu and the fiber volume by integrating gridded constant forms."""
    basis = CycleBasis(torus)
    omega1, omega2 = fam.calibrated_forms
    m = fam.moduli_dim
    lam = np.zeros((m, m))
    mu = np.zeros((m, m))
    for j in range(m):
        theta = fam.model.omega.contract(fam.Q[:, j]).pullback(fam.P)
        phi = omega1.contract(fam.Q[:, j]).pullback(fam.P)
        theta = FormField.constant(torus, 1, theta.coeffs.real)
        phi = FormField.constant(torus, fam.n - 1, phi.coeffs.real)
        for i in range(m):
            lam[i, j] = basis.integrate_loop(theta, i)
            mu[i, j] = basis.integrate_slab(phi, i)
    volume = integrate_top(FormField.constant(torus, fam.n, omega2.pullback(fam.P).coeffs.real))
    return lam, mu, volume


def _reference_families():
    fams = [std_family(n) for n in (1, 2, 3)] + [tilt_family(k) for k in (1, 2, 3)]
    for n, seed in ((2, 3), (3, 4)):
        rng = np.random.default_rng(seed)
        fams += [random_family(rng, n=n) for _ in range(3)]
    return fams


@pytest.mark.parametrize("resolution", [8, 16])
def test_closed_form_periods_match_gridded_reference(resolution):
    for fam in _reference_families():
        lam, mu, volume = _reference_periods(fam, fam.fiber_torus(resolution))
        pm = fam.period_matrices()
        for closed, ref in ((pm.lam, lam), (pm.mu, mu)):
            assert np.max(np.abs(closed - ref)) <= 1e-12 * np.max(np.abs(ref))
        assert abs(fam.fiber_volume() - volume) <= 1e-12 * abs(volume)


def _unimodular(ops, n):
    """Integer matrix and its exact inverse from elementary row operations."""
    z = np.eye(n)
    z_inv = np.eye(n)
    for kind, a, b, k in ops:
        a, b = a % n, b % n
        e = np.eye(n)
        e_inv = np.eye(n)
        if kind == "add" and a != b:
            e[a, b] = k
            e_inv[a, b] = -k
        elif kind == "swap":
            e[[a, b]] = e[[b, a]]
            e_inv = e.T
        elif kind == "negate":
            e[a, a] = e_inv[a, a] = -1.0
        z = e @ z
        z_inv = z_inv @ e_inv
    return z, z_inv


@settings(max_examples=40, deadline=None)
@given(
    n=st.sampled_from([2, 3]),
    seed=st.integers(0, 2 ** 16),
    ops=st.lists(
        st.tuples(st.sampled_from(["add", "swap", "negate"]), st.integers(0, 2),
                  st.integers(0, 2), st.integers(-3, 3)),
        max_size=6,
    ),
)
def test_recombination_invariance(n, seed, ops):
    pm = random_family(np.random.default_rng(seed), n=n).period_matrices()
    z, z_inv = _unimodular(ops, n)
    assert np.array_equal(z @ z_inv, np.eye(n))
    moved = pm.recombine(z)
    scale = np.max(np.abs(moved.lam).T @ np.abs(moved.mu))
    assert lagrangian_residual(moved) < 1e-10 * scale
    back = moved.recombine(z_inv)
    scale = np.max(np.abs(z_inv)) * np.max(np.abs(z)) * n
    assert np.max(np.abs(back.lam - pm.lam)) < 1e-10 * scale * np.max(np.abs(pm.lam))
    assert np.max(np.abs(back.mu - pm.mu)) < 1e-10 * scale * np.max(np.abs(pm.mu))


def test_mclean_check_holds_one_node_sized_form():
    fam = std_family(3)
    torus = fam.fiber_torus(32)
    fam.mclean_check(0, torus)  # the family's constants are derived once
    tracemalloc.start()
    try:
        residuals = [fam.mclean_check(j, torus) for j in range(3)]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert max(residuals) < 1e-14
    # the star's output, 3 coefficients per node, and one term of its sum
    assert peak <= 1.5 * 32 ** 3 * 3 * 8


@pytest.mark.parametrize("family", ["std:3", "@random"])
def test_family_scan_report_does_not_depend_on_fiber_resolution(tmp_path, family):
    if family == "@random":
        family = str(tmp_path / "family.json")
        save_family(random_family(np.random.default_rng(23), n=3), family, model_ref="std:3")
    outputs = []
    for resolution in (8, 16, 32):
        cfg = tmp_path / f"cfg{resolution}.json"
        cfg.write_text(json.dumps({"family": family, "grid": {"n": 2},
                                   "fiber_resolution": resolution}))
        out = tmp_path / f"out{resolution}"
        assert main(["family-scan", "--config", str(cfg), "--out", str(out)]) == 0
        outputs.append((out / "report.json").read_bytes())
    assert outputs[0] == outputs[1] == outputs[2]


def test_mclean_metric_tilt_value():
    fam = tilt_family(1)
    gram, residual = fam.mclean_metric()
    assert residual < 1e-12
    assert abs(gram[0, 0] - 1.0 / np.sqrt(2.0)) < 1e-12


def test_random_families_are_lagrangian():
    rng = np.random.default_rng(42)
    for _ in range(5):
        fam = random_family(rng)
        pm = fam.period_matrices()
        assert lagrangian_residual(pm) < 1e-12
        omega_res, omega1_res = fam.fiber_restriction_residuals()
        assert max(omega_res, omega1_res) < 1e-12


def test_period_matrix_recombination_preserves_symmetry():
    rng = np.random.default_rng(9)
    fam = random_family(rng)
    pm = fam.period_matrices()
    z = np.array([[1.0, 1.0], [0.0, 1.0]])
    assert lagrangian_residual(pm.recombine(z)) < 1e-12
    with pytest.raises(InputError):
        pm.recombine(2.0 * np.eye(2))


def test_singular_lambda_rejected():
    with pytest.raises(DegeneracyError):
        PeriodMatrices(np.zeros((2, 2)), np.eye(2))


def test_closedness_loop_residual_constant_lambda():
    lam = np.array([[2.0, 1.0], [1.0, 3.0]])

    def lam_fn(pts):
        return np.broadcast_to(lam, np.shape(pts)[:-1] + (2, 2)).copy()

    loop = np.array(
        [[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0], [0.0, 0.0]]
    )
    assert closedness_loop_residual(lam_fn, loop) < 1e-12
    with pytest.raises(InputError):
        closedness_loop_residual(lam_fn, loop[:-1])


def test_nonsymmetric_lambda_has_nonzero_loop_integral():
    def lam_fn(pts):
        pts = np.asarray(pts)
        out = np.zeros(pts.shape[:-1] + (2, 2))
        out[..., 0, 0] = 1.0
        out[..., 1, 1] = 1.0
        out[..., 0, 1] = pts[..., 0]  # d(xi_0) = dt_1 ^ dt_2 != 0
        return out

    loop = np.array(
        [[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0], [0.0, 0.0]]
    )
    assert closedness_loop_residual(lam_fn, loop) > 0.5


def test_moduli_coordinates_linear_for_affine():
    fam = std_family(2)
    axes = [np.linspace(0.0, 1.0, 9)] * 2
    chart = moduli_coordinates(fam, axes)
    pts = chart.points()
    # constant lambda = mu = -I integrates to u = v = -(t - t0)
    assert np.max(np.abs(chart.u + pts)) < 1e-12
    assert np.max(np.abs(chart.v + pts)) < 1e-12


def test_mirror_swap_chart_involution():
    fam = std_family(2)
    axes = [np.linspace(0.0, 1.0, 9)] * 2
    chart = moduli_coordinates(fam, axes)
    double = mirror_swap(mirror_swap(chart))
    assert np.max(np.abs(double.u - chart.u)) < 1e-15
    assert np.max(np.abs(double.v - chart.v)) < 1e-15
    swapped = mirror_swap(chart)
    assert np.max(np.abs(swapped.u - chart.v)) < 1e-15
    # the swap exchanges references to the two constant matrices
    assert swapped.lam is chart.mu and swapped.mu is chart.lam
    assert chart.lam.shape == chart.mu.shape == (2, 2)


def test_embedding_table_shape_and_injectivity():
    fam = std_family(2)
    axes = [np.linspace(0.0, 1.0, 9)] * 2
    chart = moduli_coordinates(fam, axes)
    table = embed_F(chart)
    assert table.shape == (9, 9, 4)
    assert np.array_equal(table, np.concatenate([chart.u, chart.v], axis=-1))
    # the refusal bound, sigma_min(lambda) h / sqrt(m), holds on every pair
    u = chart.u.reshape(-1, 2)
    gaps = np.max(np.abs(u[:, None] - u[None]), axis=-1)
    assert np.min(gaps[~np.eye(len(u), dtype=bool)]) >= 1 / 8 / np.sqrt(2)
    # a zero-width range makes distinct nodes coincide, and so does a range
    # narrower than 1e-12 up to roundoff; one node is a point
    for axes in ([np.zeros(3), np.linspace(0.0, 1.0, 3)], [np.linspace(0.0, 1e-13, 2)] * 2):
        with pytest.raises(DegeneracyError):
            embed_F(moduli_coordinates(fam, axes))
    assert embed_F(moduli_coordinates(fam, [np.zeros(1)] * 2)).shape == (1, 1, 4)


def test_specialness_scan_constant_volumes():
    # one number per volume for the whole chart; the calibrated fiber volume
    # is the Riemannian one, sqrt(det G): 1 for std:2, sqrt(1 + 2^2) for tilt:1:2
    for fam, volume in ((std_family(2), 1.0), (tilt_family(2), np.sqrt(5.0))):
        axes = [np.linspace(0.0, 1.0, 4)] * fam.moduli_dim
        scan = specialness_scan(fam, axes)
        assert scan["points"].shape == (4 ** fam.moduli_dim, fam.moduli_dim)
        assert abs(scan["vol_fiber"] - volume) < 1e-12
        assert abs(scan["vol_h1"] * scan["vol_hn1"] - 1.0) < 1e-12


def test_family_shorthand_and_errors():
    assert family_from_shorthand("std:2").n == 2
    assert family_from_shorthand("tilt:1:3").n == 1
    with pytest.raises(InputError):
        family_from_shorthand("weird:4")


def test_family_validation():
    model = std_model(2)
    with pytest.raises(InputError):
        AffineSLagFamily(model, np.eye(3), np.eye(4, 2))
    with pytest.raises(DegeneracyError):
        AffineSLagFamily(model, np.zeros((4, 2)), np.eye(4, 2))


def test_family_roundtrip_through_saved_model(tmp_path):
    fam = tilt_family(2)
    model_path = tmp_path / "model.json"
    save_model(fam.model, model_path)
    path = tmp_path / "family.json"
    save_family(fam, path, model_ref=str(model_path))
    back = load_family(path)
    for name in ("P", "Q", "r"):
        assert np.array_equal(getattr(back, name), getattr(fam, name)), name
    assert back.phase == fam.phase
    assert np.max(np.abs(back.period_matrices().lam - fam.period_matrices().lam)) < 1e-15


def test_relative_model_path_resolves_against_family_file(tmp_path, monkeypatch):
    fam = tilt_family(2)
    sub = tmp_path / "sub"
    sub.mkdir()
    save_model(fam.model, sub / "model.json")
    save_family(fam, sub / "family.json", model_ref="model.json")
    monkeypatch.chdir(tmp_path)
    back = load_family("sub/family.json")
    assert np.array_equal(back.P, fam.P)


@pytest.mark.parametrize("text", ['{"model": "std:x", "P": [[1]], "Q": [[1]]}', '{"model":'])
def test_malformed_family_file(tmp_path, text):
    path = tmp_path / "family.json"
    path.write_text(text)
    with pytest.raises(InputError):
        load_family(path)


def test_save_family_refuses_without_model_ref(tmp_path):
    path = tmp_path / "family.json"
    with pytest.raises(InputError):
        save_family(std_family(2), path)
    assert not path.exists()


def test_family_json_roundtrip(tmp_path):
    fam = tilt_family(2)
    path = tmp_path / "family.json"
    save_family(fam, path, model_ref="std:1")
    back = load_family(path)
    assert np.max(np.abs(back.P - fam.P)) < 1e-15
    pm_a = fam.period_matrices()
    pm_b = back.period_matrices()
    assert np.max(np.abs(pm_a.mu - pm_b.mu)) < 1e-15
