"""Batch front door: parse configs, dispatch to modules, emit reports.

Every run writes ``report.json`` into the output directory with one entry per
claim the command certifies ("slag_restriction", "mclean", "prop2", "thm3",
"prop3", "prop4", "prop5", "ricci_flat", "ricci_oracle", ...), plus CSV field
dumps.  Exit status: 0 if every asserted check passed, 1 if a check failed
(the report is still written), 2 for configuration or input errors, including
input the mathematics rejects (a non-convex potential, a solver that cannot
converge); then the report carries an ``error`` entry with the exception type
and message.  Timestamps go to a sidecar ``run.log`` so that reports are
byte-identical across reruns.
"""

import argparse
import ast
import datetime
import json
import operator
import sys
from pathlib import Path

import numpy as np

from . import hessian as hes_mod
from .cymodel import resolve_model, validate_axioms
from .errors import (
    ConvergenceError,
    ConvexityError,
    DegeneracyError,
    DegreeError,
    DomainError,
    GridMismatchError,
    InputError,
    MetricError,
)
from .family import (
    embed_F,
    family_from_shorthand,
    lagrangian_residual,
    load_family,
    moduli_coordinates,
    scan_to_csv,
    specialness_scan,
)
from .fd import EDGE, interior, richardson_tolerance
from .hessian import (
    HessianPotential,
    legendre_transform,
    load_potential,
    ma_residual,
    partial_legendre_2d,
    save_potential,
    solve_ma_dirichlet,
)
from .semiflat import (
    build_semiflat,
    gh_metric,
    holomorphic_norm_field,
    ricci_agreement,
    ricci_form,
)

COMMANDS = (
    "cy-validate",
    "family-scan",
    "embed",
    "legendre",
    "ma-solve",
    "partial-legendre",
    "semiflat",
    "gh",
)

# Errors that mean "this input cannot be processed": exit 2, never a traceback.
# The config, model, family and potential loaders turn every OSError of
# reading their file into InputError.
_INPUT_ERRORS = (
    InputError,
    KeyError,
    ConvexityError,
    ConvergenceError,
    DegeneracyError,
    DomainError,
    MetricError,
    GridMismatchError,
    DegreeError,
)

# Everything a config expression may name besides its grid variables.
_EXPR_NAMES = {
    "pi": np.pi,
    "sin": np.sin,
    "cos": np.cos,
    "exp": np.exp,
    "cosh": np.cosh,
    "sinh": np.sinh,
    "sqrt": np.sqrt,
    "log": np.log,
    "abs": np.abs,
}


def _power(base, exponent):
    # an integer power of integers can grow without bound; take it in floats
    if isinstance(base, int) and isinstance(exponent, int):
        return float(base) ** exponent
    return base ** exponent


_EXPR_OPERATORS = {
    ast.Add: operator.add,
    ast.Sub: operator.sub,
    ast.Mult: operator.mul,
    ast.Div: operator.truediv,
    ast.Pow: _power,
}


def _eval_expression(expr, **variables):
    """Evaluate a config expression over the grid variables.

    The syntax tree is walked against a whitelist: numeric constants, the
    names in ``_EXPR_NAMES`` and ``variables``, ``+ - * / **``, unary minus
    and calls of the functions in ``_EXPR_NAMES``.  Anything else (attribute
    access, subscripts, other names or operators) raises InputError.
    A power of two integers is taken in floats, so it overflows instead of
    growing an unbounded integer.
    """
    try:
        tree = ast.parse(expr, mode="eval")
        return np.asarray(_eval_node(tree.body, {**_EXPR_NAMES, **variables}), dtype=float)
    except Exception as exc:
        raise InputError(f"cannot evaluate expression {expr!r}: {exc}") from exc


def _eval_node(node, names):
    if isinstance(node, ast.Constant) and type(node.value) in (int, float):
        return node.value
    if isinstance(node, ast.Name) and node.id in names:
        return names[node.id]
    if isinstance(node, ast.BinOp) and type(node.op) in _EXPR_OPERATORS:
        return _EXPR_OPERATORS[type(node.op)](_eval_node(node.left, names),
                                              _eval_node(node.right, names))
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
        return -_eval_node(node.operand, names)
    if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and callable(_EXPR_NAMES.get(node.func.id)) and not node.keywords):
        return _EXPR_NAMES[node.func.id](*(_eval_node(arg, names) for arg in node.args))
    raise InputError(f"{ast.unparse(node)!r} is not allowed in an expression")


def _load_config(path):
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise InputError(f"cannot read config {path}: {exc}") from exc


def _resolve_family(spec):
    if isinstance(spec, str) and (spec.startswith("std:") or spec.startswith("tilt:")):
        return family_from_shorthand(spec), spec
    fam = load_family(spec)
    return fam, str(spec)


def _resolve_potential(spec):
    if isinstance(spec, dict):
        axes = [np.linspace(lo, hi, int(n)) for lo, hi, n in spec["axes"]]
        mesh = np.meshgrid(*axes, indexing="ij")
        names = {f"u{i + 1}": mesh[i] for i in range(len(mesh))}
        values = _eval_expression(spec["expr"], **names)
        return HessianPotential(axes, np.broadcast_to(values, mesh[0].shape).copy(),
                                spec.get("c"))
    return load_potential(spec)


def _check(residual, tol):
    residual = float(residual)
    return {"residual": residual, "tol": float(tol), "pass": bool(residual < tol)}


def _two_grid_check(fine, coarse, floor):
    """Bound ``fine`` by 10 x the two-grid estimate from ``coarse`` and ``floor``."""
    return _check(fine, 10.0 * richardson_tolerance(coarse, floor=floor))


def run_cy_validate(config, tol, out, oracle):
    ref = config.get("model", "std:2")
    report = validate_axioms(resolve_model(ref), tol=min(tol, 1e-10))
    return {"model": str(ref), "axioms": report.to_dict()}, report.all_passed


def run_family_scan(config, tol, out, oracle):
    fam, ref = _resolve_family(config.get("family", "std:2"))
    m = fam.moduli_dim
    grid = config.get("grid", {})
    n = int(grid.get("n", 5))
    ranges = grid.get("ranges", [[0.0, 1.0]] * m)
    axes = [np.linspace(lo, hi, n) for lo, hi in ranges]
    resolution = int(config.get("fiber_resolution", 16))
    torus = fam.fiber_torus(resolution)

    omega_res, omega1_res = fam.fiber_restriction_residuals()
    scan = specialness_scan(fam, axes)
    scan_to_csv(scan, Path(out) / "scan.csv")
    pm = fam.period_matrices()
    checks = {
        "slag_restriction": _check(max(omega_res, omega1_res), tol),
        "mclean": _check(max(fam.mclean_check(j, torus) for j in range(m)), tol),
        "prop2": _check(fam.mclean_metric()[1], tol),
        "thm3": _check(lagrangian_residual(pm), max(tol, 1e-10)),
    }
    report = {
        "family": ref,
        "P": fam.P.tolist(),
        "Q": fam.Q.tolist(),
        "lambda": pm.lam.tolist(),
        "mu": pm.mu.tolist(),
        "checks": checks,
    }
    return report, all(c["pass"] for c in checks.values())


def run_embed(config, tol, out, oracle):
    fam, ref = _resolve_family(config.get("family", "std:2"))
    m = fam.moduli_dim
    grid = config.get("grid", {})
    n = int(grid.get("n", 9))
    ranges = grid.get("ranges", [[0.0, 1.0]] * m)
    axes = [np.linspace(lo, hi, n) for lo, hi in ranges]
    chart = moduli_coordinates(fam, axes)
    table = embed_F(chart)
    flat = table.reshape(-1, 2 * m)
    pts = chart.points().reshape(-1, m)
    with open(Path(out) / "embedding.csv", "w") as fh:
        header = [f"t_{i + 1}" for i in range(m)]
        header += [f"u_{i + 1}" for i in range(m)] + [f"v_{i + 1}" for i in range(m)]
        fh.write(",".join(header) + "\n")
        for t, row in zip(pts, flat):
            fh.write(",".join(repr(float(x)) for x in list(t) + list(row)) + "\n")
    checks = {"thm3": _check(lagrangian_residual(fam.period_matrices()), max(tol, 1e-10))}
    return {"family": ref, "checks": checks}, checks["thm3"]["pass"]


def run_legendre(config, tol, out, oracle):
    pot = _resolve_potential(config["potential"])
    pair = legendre_transform(pot)
    save_potential(pair.dual, Path(out) / "dual.csv")
    back = legendre_transform(pair.dual, v_axes=pot.axes)
    involution = float(np.max(np.abs(back.dual.values - pot.values)))
    itol = 10.0 * hes_mod.interpolation_tolerance(pot)
    checks = {
        "legendre_involution": _check(involution, itol),
        "fenchel": _check(pair.pairing_residual, max(tol, 1e-8)),
    }
    return {"checks": checks}, all(c["pass"] for c in checks.values())


def run_ma_solve(config, tol, out, oracle):
    solver = config.get("solver", {})
    domain = config.get("domain", [[0.0, 1.0], [0.0, 1.0]])
    n = int(config.get("n", 65))
    axes = [np.linspace(lo, hi, n) for lo, hi in domain]
    expr = config.get("boundary", "(u1**2 + u2**2) / 2")
    mesh = np.meshgrid(*axes, indexing="ij")
    boundary = _eval_expression(expr, u1=mesh[0], u2=mesh[1])
    pot = solve_ma_dirichlet(
        axes,
        np.broadcast_to(boundary, mesh[0].shape).copy(),
        c=float(solver.get("c", 1.0)),
        tol=float(solver.get("tol", 1e-8)),
        max_iter=int(solver.get("max_iter", 50)),
        damping=float(solver.get("damping", 1.0)),
    )
    save_potential(pot, Path(out) / "solution.csv")
    residual = ma_residual(pot, pot.c)[interior((n, n), EDGE)]
    checks = {"prop3": _check(np.max(np.abs(residual)), max(tol, 1e-6))}
    return {
        "iterations": pot.info["iterations"],
        "residual_history": pot.info["residuals"],
        "checks": checks,
    }, checks["prop3"]["pass"]


def run_partial_legendre(config, tol, out, oracle):
    pot = _resolve_potential(config["potential"])
    result = partial_legendre_2d(pot)
    coarse = partial_legendre_2d(pot.coarsened())
    checks = {"prop3": _two_grid_check(result["laplace_residual"],
                                       coarse["laplace_residual"], 1e-10)}
    return {
        "laplace_residual": result["laplace_residual"],
        "coarse_residual": coarse["laplace_residual"],
        "checks": checks,
    }, checks["prop3"]["pass"]


def run_semiflat(config, tol, out, oracle):
    pot = _resolve_potential(config["potential"])
    sf = build_semiflat(pot)
    norm = holomorphic_norm_field(sf)
    ric = ricci_form(sf)
    core = interior(pot.values.shape, EDGE + 1)
    ricci_max = float(np.max(np.abs(ric[core])))
    c = pot.c if pot.c is not None else 1.0
    ma_max = float(np.max(np.abs((sf.metric_det - float(c))[core])))
    norm_tol = max(tol, 1e-6)
    checks = {
        "prop4": _check(sf.kahler_residual, max(tol, 1e-10)),
        "prop5": _check(norm["variation"], norm_tol),
        "ricci_flat": _check(ricci_max, norm_tol),
    }
    report = {
        "ma_residual_max": ma_max,
        "norm_variation": norm["variation"],
        "ricci_max": ricci_max,
        "kahler_residual": sf.kahler_residual,
        "checks": checks,
    }
    if oracle:
        agreement = ricci_agreement(sf, ric)
        coarse_sf = build_semiflat(pot.coarsened())
        coarse_agreement = ricci_agreement(coarse_sf, ricci_form(coarse_sf))
        checks["ricci_oracle"] = _two_grid_check(agreement, coarse_agreement, 1e-8)
        report["ricci_oracle_agreement"] = agreement
        report["ricci_oracle_coarse"] = coarse_agreement
    return report, all(c["pass"] for c in checks.values())


def run_gh(config, tol, out, oracle):
    domain = config.get("domain", [[0.0, 1.0], [0.0, 1.0]])
    n = int(config.get("n", 33))
    axes = [np.linspace(lo, hi, n) for lo, hi in domain]
    mesh = np.meshgrid(*axes, indexing="ij")
    v = _eval_expression(config.get("V", "2 + y1"), y1=mesh[0], y2=mesh[1])
    gh = gh_metric(np.broadcast_to(v, mesh[0].shape).copy(), axes, tol=max(tol, 1e-8))
    checks = {"ricci_flat": _check(gh.ricci_max, max(tol, 1e-4))}
    return {
        "harmonic_residual": gh.harmonic_residual,
        "ricci_max": gh.ricci_max,
        "checks": checks,
    }, checks["ricci_flat"]["pass"]


# Every runner takes (config, tol, out, oracle) and returns (report, ok);
# only ``semiflat`` reads ``oracle``.
_RUNNERS = {
    "cy-validate": run_cy_validate,
    "family-scan": run_family_scan,
    "embed": run_embed,
    "legendre": run_legendre,
    "ma-solve": run_ma_solve,
    "partial-legendre": run_partial_legendre,
    "semiflat": run_semiflat,
    "gh": run_gh,
}


def build_parser():
    parser = argparse.ArgumentParser(
        prog="slmoduli",
        description="Special Lagrangian moduli toolkit, batch interface",
    )
    parser.add_argument("command", choices=COMMANDS)
    parser.add_argument("--config", type=str, default=None, help="JSON config path")
    parser.add_argument("--tol", type=float, default=1e-8,
                        help="residual tolerance override")
    parser.add_argument("--out", type=str, default=".", help="output directory")
    parser.add_argument("--oracle", action="store_true",
                        help="enable the Christoffel Ricci cross-check")
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    out = Path(args.out)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        print(f"error: cannot create output directory {out}: {exc}", file=sys.stderr)
        return 2
    try:
        if args.tol <= 0:
            raise InputError("tolerance must be positive")
        config = _load_config(args.config) if args.config else {}
        report, ok = _RUNNERS[args.command](config, args.tol, out, args.oracle)
        code = 0 if ok else 1
    except _INPUT_ERRORS as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        report = {"error": {"type": type(exc).__name__, "message": str(exc)}}
        code = 2
    report = {"command": args.command, "tol": args.tol, **report}
    with open(out / "report.json", "w") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")
    with open(out / "run.log", "a") as fh:
        stamp = datetime.datetime.now(datetime.timezone.utc).isoformat()
        fh.write(f"{stamp} {args.command} exit={code}\n")
    return code


if __name__ == "__main__":
    sys.exit(main())
