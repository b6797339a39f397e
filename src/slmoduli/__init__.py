"""Numerical toolkit for the geometry of special Lagrangian moduli spaces
on flat torus models: exterior calculus on grid tori, flat Calabi-Yau model
validation, affine special Lagrangian families and their period matrices,
Hessian potentials with Legendre duality and Monge-Ampere solves, and the
semiflat Kahler metric on the augmented moduli space.

The exports load with the layer that defines them, on first access: the
fiber layer (``cymodel``, ``forms``, ``family``) and the grid layer
(``fd``, ``hessian``, ``semiflat``) are imported only when a name of theirs
is read, so ``import slmoduli`` compiles neither.
"""

import importlib

# Every export and the module that defines it.
_EXPORTS = {
    **dict.fromkeys(
        ["AxiomReport", "ConstantForm", "FlatCalabiYauModel", "annihilator_space",
         "load_model", "resolve_model", "save_model", "std_model", "validate_axioms"],
        "cymodel"),
    **dict.fromkeys(
        ["AffineSLagFamily", "ModuliChart", "PeriodMatrices", "closedness_loop_residual",
         "embed_F", "family_from_shorthand", "lagrangian_residual", "load_family",
         "moduli_coordinates", "random_family", "save_family", "specialness_scan",
         "std_family", "tilt_family"],
        "family"),
    **dict.fromkeys(
        ["CycleBasis", "FormField", "GridTorus", "MetricField", "exterior_derivative",
         "hodge_star", "integrate_top", "l2_inner", "wedge"],
        "forms"),
    **dict.fromkeys(
        ["HessianPotential", "LegendrePair", "hessian_metric", "legendre_transform",
         "load_potential", "mirror_swap", "partial_legendre_2d", "save_potential",
         "solve_ma_dirichlet"],
        "hessian"),
    **dict.fromkeys(
        ["SemiflatManifold", "build_semiflat", "gh_metric", "gh_ricci_max", "hessian_chart",
         "holomorphic_norm_field", "nijenhuis_residual", "ricci_agreement", "ricci_form",
         "ricci_form_max"],
        "semiflat"),
}

__all__ = sorted(_EXPORTS)
__version__ = "0.1.0"


def __getattr__(name):
    # Read through to the defining module on every access, never cached here:
    # a binding in this namespace would be one more copy of the function for
    # code that replaces it on its module (a test's monkeypatch, a tracer).
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{_EXPORTS[name]}"), name)


def __dir__():
    return sorted(set(globals()) | set(__all__))
