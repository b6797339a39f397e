"""Flat model structure: constant forms, axiom validation, persistence."""

import numpy as np
import pytest

from slmoduli.cymodel import (
    ConstantForm,
    FlatCalabiYauModel,
    annihilator_space,
    complex_structure_matrix,
    load_model,
    save_model,
    std_model,
    validate_axioms,
    wedge_power,
)
from slmoduli.errors import DegeneracyError, InputError


def test_constant_form_wedge_contract():
    dx = ConstantForm.basis_covector(4, 0)
    dy = ConstantForm.basis_covector(4, 2)
    two = dx.wedge(dy)
    assert two.degree == 2
    # iota(e_0)(dx ^ dy) = dy
    e0 = np.array([1.0, 0.0, 0.0, 0.0])
    assert np.allclose(two.contract(e0).coeffs, dy.coeffs)
    # iota(e_2)(dx ^ dy) = -dx
    e2 = np.array([0.0, 0.0, 1.0, 0.0])
    assert np.allclose(two.contract(e2).coeffs, -dx.coeffs)


def test_constant_form_pullback_composes():
    rng = np.random.default_rng(2)
    a = ConstantForm(4, 2, rng.normal(size=6))
    m1 = rng.normal(size=(4, 3))
    m2 = rng.normal(size=(3, 2))
    direct = a.pullback(m1 @ m2)
    staged = a.pullback(m1).pullback(m2)
    assert np.max(np.abs(direct.coeffs - staged.coeffs)) < 1e-12


def test_degree_above_dimension_is_zero_form():
    top = ConstantForm(2, 2, np.array([1.0]))
    over = top.pullback(np.array([[1.0], [2.0]]))  # 2-form on a line
    assert over.coeffs.size == 0
    assert over.norm_inf() == 0.0


def test_std_model_axioms_pass():
    for n in (1, 2, 3):
        report = validate_axioms(std_model(n), tol=1e-12)
        assert report.all_passed, report.to_dict()


def test_axiom_report_structure():
    report = validate_axioms(std_model(2))
    names = {c.name for c in report.checks}
    assert names == {
        "nondegenerate",
        "decomposable",
        "annihilation",
        "proportional",
        "positive",
    }
    assert "kappa" in report["proportional"].detail
    assert set(report.to_dict()) == names


def test_broken_nondegeneracy_detected():
    model = std_model(2)
    # omega = dx1 ^ dy1 only: omega^2 = 0
    omega = ConstantForm.basis_covector(4, 0).wedge(ConstantForm.basis_covector(4, 2))
    broken = FlatCalabiYauModel(2, np.eye(4), omega, model.omega1, model.omega2)
    report = validate_axioms(broken, tol=1e-12)
    assert not report["nondegenerate"].passed


def test_broken_decomposability_detected():
    model = std_model(2)
    # add an indecomposable 2-form to Omega_1
    spoil = ConstantForm.basis_covector(4, 0).wedge(
        ConstantForm.basis_covector(4, 2)
    ) + ConstantForm.basis_covector(4, 1).wedge(ConstantForm.basis_covector(4, 3))
    broken = FlatCalabiYauModel(
        2, np.eye(4), model.omega, model.omega1 + spoil, model.omega2
    )
    report = validate_axioms(broken, tol=1e-12)
    assert not report["decomposable"].passed


def test_broken_annihilation_detected():
    model = std_model(2)
    # rotate the fiber of Omega^c so that Omega_1 ^ omega no longer vanishes
    spoil = ConstantForm.basis_covector(4, 0).wedge(ConstantForm.basis_covector(4, 2))
    broken = FlatCalabiYauModel(
        2, np.eye(4), model.omega, model.omega1 + 0.5 * spoil, model.omega2
    )
    report = validate_axioms(broken, tol=1e-12)
    assert not report["annihilation"].passed


def test_annihilator_space_dimension():
    for n in (1, 2, 3):
        model = std_model(n)
        basis = annihilator_space(model.omega_c())
        assert len(basis) == n
        for theta in basis:
            prod = model.omega_c().wedge(ConstantForm(2 * n, 1, theta))
            assert prod.norm_inf() < 1e-10


def test_complex_structure_squares_to_minus_one():
    for n in (1, 2, 3):
        j = complex_structure_matrix(std_model(n).omega_c())
        assert np.max(np.abs(j @ j + np.eye(2 * n))) < 1e-10


def test_ambient_metric_is_euclidean_for_std():
    for n in (1, 2, 3):
        g = std_model(n).ambient_metric
        assert np.max(np.abs(g - np.eye(2 * n))) < 1e-10


def test_wedge_power_matches_factorial_volume():
    model = std_model(3)
    top = wedge_power(model.omega, 3)
    # omega^n = n! dx1 dy1 dx2 dy2 ... reordered to ascending: sign bookkeeping
    assert abs(abs(top.coeffs[0]) - 6.0) < 1e-12


def test_model_validation_errors():
    model = std_model(2)
    with pytest.raises(InputError):
        FlatCalabiYauModel(4, np.eye(8), model.omega, model.omega1, model.omega2)
    with pytest.raises(DegeneracyError):
        FlatCalabiYauModel(2, np.zeros((4, 4)), model.omega, model.omega1, model.omega2)
    with pytest.raises(DegeneracyError):
        annihilator_space(ConstantForm.zero(4, 2))


def test_model_json_roundtrip(tmp_path):
    model = std_model(2)
    path = tmp_path / "model.json"
    save_model(model, path)
    back = load_model(path)
    assert back.n == 2
    for a, b in (
        (model.omega, back.omega),
        (model.omega1, back.omega1),
        (model.omega2, back.omega2),
    ):
        assert np.max(np.abs(a.coeffs - b.coeffs)) < 1e-15
    assert validate_axioms(back, tol=1e-12).all_passed


def test_malformed_model_file(tmp_path):
    path = tmp_path / "bad.json"
    for text in ('{"n": 2, "lattice": [[1]]}', '{"n": 2,'):
        path.write_text(text)
        with pytest.raises(InputError):
            load_model(path)
