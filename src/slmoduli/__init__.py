"""Numerical toolkit for the geometry of special Lagrangian moduli spaces
on flat torus models: exterior calculus on grid tori, flat Calabi-Yau model
validation, affine special Lagrangian families and their period matrices,
Hessian potentials with Legendre duality and Monge-Ampere solves, and the
semiflat Kahler metric on the augmented moduli space.
"""

from .cymodel import (
    AxiomReport,
    ConstantForm,
    FlatCalabiYauModel,
    annihilator_space,
    load_model,
    resolve_model,
    save_model,
    std_model,
    validate_axioms,
)
from .family import (
    AffineSLagFamily,
    ModuliChart,
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
from .forms import (
    CycleBasis,
    FormField,
    GridTorus,
    MetricField,
    exterior_derivative,
    hodge_star,
    integrate_top,
    l2_inner,
    wedge,
)
from .hessian import (
    HessianPotential,
    LegendrePair,
    hessian_metric,
    legendre_transform,
    load_potential,
    mirror_swap,
    partial_legendre_2d,
    save_potential,
    solve_ma_dirichlet,
)
from .semiflat import (
    SemiflatManifold,
    build_semiflat,
    gh_metric,
    gh_ricci_max,
    hessian_chart,
    holomorphic_norm_field,
    nijenhuis_residual,
    ricci_agreement,
    ricci_form,
    ricci_form_max,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
