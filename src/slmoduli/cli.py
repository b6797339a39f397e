"""Batch front door: parse configs, dispatch to modules, emit reports.

Every run writes ``report.json`` into the output directory with one entry per
claim the command certifies ("slag_restriction", "mclean", "prop2", "thm3",
"prop3", "prop5", "ricci_flat", "ricci_oracle", ...; the semiflat Kahler form
is closed by construction), plus CSV field dumps.  Exit status: 0 if every
entry of ``checks`` (``axioms`` for cy-validate) passed, 1 if one failed
(the report is still written), 2 for configuration or input errors, including
input the mathematics rejects (a non-convex potential, a solver that cannot
converge); then the report carries an ``error`` entry with the exception type
and message.  No option moves a bound: a check on smooth data is a two-grid
check of the table ``TWO_GRID``, any other reads a named constant
(``IDENTITY_TOL``, ``SOLVER_TOL``, ``cymodel.AXIOM_TOL``).  Timestamps go to
a sidecar ``run.log`` so that reports are byte-identical across reruns.

Of the package, only ``errors`` is imported with this module.  Each runner
imports what it calls from the defining module when it runs, so a command
compiles only its own layer: ``cy-validate``, ``family-scan`` and ``embed``
never load ``fd``, ``hessian`` or ``semiflat``.  A function replaced on its
module is the one the runner calls.
"""

import argparse
import ast
import datetime
import json
import math
import operator
import sys
from pathlib import Path

import numpy as np

from .errors import (ConvergenceError, ConvexityError, DegeneracyError, DegreeError, DomainError,
                     GridMismatchError, InputError, MetricError)

IDENTITY_TOL = 1e-8  # the bound of an exact identity (cymodel.AXIOM_TOL for the axioms)
SOLVER_TOL = 1e-6  # the bound of ma-solve's prop3, the solver's own last residual

# Errors that mean "this input cannot be processed": exit 2, never a traceback.
# The config, model, family and potential loaders turn every OSError of
# reading their file into InputError.
_INPUT_ERRORS = (InputError, ConvexityError, ConvergenceError, DegeneracyError, DomainError,
                 MetricError, GridMismatchError, DegreeError)

# Everything a config expression may name besides its grid variables.
_EXPR_NAMES = {"pi": np.pi, "sin": np.sin, "cos": np.cos, "exp": np.exp, "cosh": np.cosh,
               "sinh": np.sinh, "sqrt": np.sqrt, "log": np.log, "abs": np.abs}


def _power(base, exponent):
    # an integer power of integers can grow without bound; take it in floats
    if isinstance(base, int) and isinstance(exponent, int):
        return float(base) ** exponent
    return base ** exponent


_EXPR_OPERATORS = {ast.Add: operator.add, ast.Sub: operator.sub, ast.Mult: operator.mul,
                   ast.Div: operator.truediv, ast.Pow: _power}


def _eval_expression(expr, **variables):
    """Evaluate a config expression over the grid variables.

    The syntax tree is walked against a whitelist: numeric constants, the
    names in ``_EXPR_NAMES`` and ``variables``, ``+ - * / **``, unary minus
    and calls of the functions in ``_EXPR_NAMES``.  Anything else (attribute
    access, subscripts, other names or operators) raises InputError.
    A power of two integers is taken in floats, so it overflows instead of
    growing an unbounded integer.  Values that are not finite raise
    InputError, with numpy's floating-point warnings off.
    """
    try:
        tree = ast.parse(expr, mode="eval")
        with np.errstate(all="ignore"):
            values = np.asarray(_eval_node(tree.body, {**_EXPR_NAMES, **variables}),
                                dtype=float)
    except Exception as exc:
        raise InputError(f"cannot evaluate expression {expr!r}: {exc}") from exc
    if values.size and not (np.isfinite(np.min(values)) and np.isfinite(np.max(values))):
        raise InputError(f"expression {expr!r} is not finite on the whole grid")
    return values


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
            config = json.load(fh)
    except (OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise InputError(f"cannot read config {path}: {exc}") from exc
    if not isinstance(config, dict):
        raise InputError(f"config {path} is not a JSON object")
    return config


def _resolve_family(spec):
    from .family import family_from_shorthand, load_family

    if not isinstance(spec, str):
        raise InputError(f"a family is 'std:<n>', 'tilt:1:<k>' or a path, not {spec!r}")
    if spec.startswith(("std:", "tilt:")):
        return family_from_shorthand(spec), spec
    return load_family(spec), spec


def _required(mapping, key, what):
    """``mapping[key]``, or ``InputError`` naming the key that ``what`` lacks."""
    if key not in mapping:
        raise InputError(f"{what} has no {key!r} entry")
    return mapping[key]


def _resolve_potential(spec):
    """A config's potential: a CSV path, or an object with ``axes``, ``expr``
    and an optional ``c``."""
    from .hessian import HessianPotential, load_potential

    if isinstance(spec, str):
        return load_potential(spec)
    if not isinstance(spec, dict):
        raise InputError(f"a potential is a path or an object with axes and expr, not {spec!r}")
    axes = _grid_axes(_required(spec, "axes", "the potential"), "potential.axes")
    c = None if spec.get("c") is None else _real(spec["c"], "potential.c")
    mesh = np.meshgrid(*axes, indexing="ij")
    names = {f"u{i + 1}": mesh[i] for i in range(len(mesh))}
    values = _eval_expression(_required(spec, "expr", "the potential"), **names)
    shape = tuple(len(ax) for ax in axes)
    return HessianPotential(axes, np.broadcast_to(values, shape).copy(), c)


def _grid_axes(ranges, key, n=None, n_key=None):
    """The axes ``np.linspace(lo, hi, n)`` of the config entry ``key``: a list
    of ranges [lo, hi, n], or of ranges [lo, hi] when the node count ``n`` is
    given (read from ``n_key``).

    The one reader of every grid in a config.  Endpoints must be finite real
    numbers and node counts integers of at least 1; a boolean, a string, a
    list or a fraction in their place raises ``InputError`` naming the key.
    """
    shared = n is not None
    if shared and not _is_count(n):
        raise InputError(f"{n_key} must be an integer of at least 1, got {n!r}")
    if not isinstance(ranges, list):
        raise InputError(f"{key} must be a list of ranges, got {ranges!r}")
    form = "[lo, hi]" if shared else "[lo, hi, n]"
    axes = []
    for entry in ranges:
        if not isinstance(entry, list) or len(entry) != (2 if shared else 3):
            raise InputError(f"each range of {key} is {form}, got {entry!r}")
        lo, hi, count = (*entry, n) if shared else entry
        lo, hi = (_real(end, f"each endpoint of {key}") for end in (lo, hi))
        if not _is_count(count):
            raise InputError(f"the node counts of {key} must be integers of at least 1, "
                             f"got {entry!r}")
        axes.append(np.linspace(lo, hi, count))
    return axes


def _real(value, key):
    """``value`` as a float if it is a finite int or float (a JSON boolean
    parses as a Python bool, an int), else ``InputError`` naming ``key``."""
    try:
        if not isinstance(value, bool) and isinstance(value, (int, float)) and math.isfinite(value):
            return float(value)
    except OverflowError:  # an int past the largest float
        pass
    raise InputError(f"{key} must be a finite real number, got {value!r}")


def _is_count(value):
    """An int of at least 1, not a bool."""
    return isinstance(value, int) and not isinstance(value, bool) and value >= 1


def _moduli_axes(config, m, n):
    """The t-grid of family-scan and embed: ``grid.n`` (default ``n``) nodes per range."""
    grid = config.get("grid", {})
    if not isinstance(grid, dict):
        raise InputError(f"grid must be an object, got {grid!r}")
    axes = _grid_axes(grid.get("ranges", [[0.0, 1.0]] * m), "grid.ranges",
                      grid.get("n", n), "grid.n")
    if len(axes) != m:
        raise InputError(f"grid has {len(axes)} ranges for {m} moduli")
    return axes


def _plane_axes(config, n):
    """The plane grid of gh and ma-solve: config ``n`` (default ``n``) nodes per
    side on each ``domain`` range [lo, hi], lo < hi."""
    n = config.get("n", n)
    if _is_count(n) and n < 2:
        raise InputError(f"n must be at least 2 for a grid spacing, got {n}")
    axes = _grid_axes(config.get("domain", [[0.0, 1.0]] * 2), "domain", n, "n")
    if len(axes) != 2:
        raise InputError(f"domain has {len(axes)} ranges, not 2")
    for ax in axes:
        if not ax[0] < ax[-1]:
            raise InputError(f"a domain range [lo, hi] needs lo < hi, got [{ax[0]}, {ax[-1]}]")
    return axes


def _check(residual, tol):
    residual = float(residual)
    return {"residual": residual, "tol": float(tol), "pass": bool(residual < tol)}


def legendre_two_grid(pot, keep=lambda dual: None):
    """``legendre``: fenchel and legendre_involution, closed-form floor.  The
    back transform's box lies inside the image of the dual's gradient.

    The Fenchel gap is read on the dual's nodes, values of the resampled
    conjugate.  On the primal's own nodes, which the (s, h) curves of the
    line conjugates pass through, it is superconvergent and erratic on the
    few nodes of a coarse grid.  Both grids read it past the same width,
    EDGE coarse spans from each face of the dual box, as the not-a-knot end
    spans make it largest there.
    """
    from .fd import EDGE
    from .hessian import fenchel_residual, involution_residual, legendre_floor, legendre_transform

    def residuals(primal, edge):
        dual = legendre_transform(primal).dual
        back = legendre_transform(dual).dual
        return dual, {"legendre_involution": involution_residual(primal, back),
                      "fenchel": fenchel_residual(dual, primal, edge)}

    dual, fine = residuals(pot, 2 * EDGE)
    keep(dual)
    floor = dict.fromkeys(fine, legendre_floor(pot, dual))
    del dual  # not held through the coarse transforms
    return fine, residuals(pot.coarsened(), EDGE)[1], floor


def partial_legendre_two_grid(pot, computed=False):
    """``partial-legendre``: prop3, closed-form floor.  ``computed``: pot is
    a grid read from a file, whose coarse side follows ``TWO_GRID``'s rule."""
    from .hessian import partial_legendre_2d, solve_ma_dirichlet

    grid = pot.coarsened()
    if computed and grid.c is not None:
        grid = solve_ma_dirichlet(grid.axes, grid.values, grid.c)
    (fine, floor), (coarse, _) = partial_legendre_2d(pot), partial_legendre_2d(grid)
    return {"prop3": fine}, {"prop3": coarse}, {"prop3": floor}


def semiflat_two_grid(pot, oracle=False, keep=lambda sf: None):
    """``semiflat``: prop5 (k = 2), ricci_flat and, with ``oracle``,
    ricci_oracle (k = 4), measured floors."""
    from .semiflat import (build_semiflat, holomorphic_norm_field, ricci_agreement,
                           ricci_form_max, roughened)

    residuals = {"prop5": (holomorphic_norm_field, 2), "ricci_flat": (ricci_form_max, 4)}
    if oracle:
        residuals["ricci_oracle"] = (ricci_agreement, 4)
    sf = build_semiflat(pot)
    keep(sf)
    fine = {name: residual(sf)[0] for name, (residual, _) in residuals.items()}
    del sf  # not held through the coarse walks
    coarse = build_semiflat(pot.coarsened())
    return fine, *_measured(residuals, coarse, build_semiflat(roughened(coarse.potential)))


def gh_two_grid(gh):
    """``gh``: ricci_flat (k = 4) of a ``GibbonsHawkingMetric``, measured floor."""
    from .semiflat import gh_ricci_max

    coarse = gh.coarsened()
    return ({"ricci_flat": gh_ricci_max(gh)[0]},
            *_measured({"ricci_flat": (gh_ricci_max, 4)}, coarse, coarse.roughened()))


def _measured(residuals, coarse, rough):
    """The coarse and floor maps of ``residuals``, {check: (residual, k)}:
    one lock-step walk of ``coarse`` and ``rough`` per residual."""
    walks = {name: residual(coarse, rough) for name, (residual, _) in residuals.items()}
    return ({name: value for name, (value, _) in walks.items()},
            {name: 2 ** residuals[name][1] * change for name, (_, change) in walks.items()})


# The two-grid checks, command -> entry point.  An entry point takes the
# command's fine-grid input and returns (fine, coarse, floor), maps keyed by
# check of the residual, of the same on every other node (``coarsened()``)
# and of its roundoff floor, of one of two kinds (Higham, Accuracy and
# Stability of Numerical Algorithms, on difference quotients):
# - closed form, where the residual sums values or takes one linear stencil
#   pass: ``hessian.legendre_floor``, ``partial_legendre_2d``'s roundoff_floor;
# - measured, where det, log or inverse nest inside stencils: 2^k times the
#   residual's largest change from the coarse grid to its ``roughened`` twin,
#   for k derivatives of the data, read in the coarse value's own walk.
# ``keep`` sees the fine dual or manifold before it is freed, so no fine-grid
# object is held through the coarse pass.  A grid read from a file that
# records c is computed, the output of a solve of det Hess = c (``ma-solve``
# writes one), and every other node of a discrete solution is not a coarser
# discretisation: its coarse side is ``solve_ma_dirichlet`` on the coarse
# grid, with the coarse grid's ring as Dirichlet data and the same c.  An
# expression is exact on every node, so its coarse side is the subsample.
TWO_GRID = {"legendre": legendre_two_grid, "partial-legendre": partial_legendre_two_grid,
            "semiflat": semiflat_two_grid, "gh": gh_two_grid}


def _two_grid_report(fine, coarse, floor):
    """The report's ``coarse``, ``floor`` and ``checks`` of an entry point's maps."""
    from .fd import two_grid_bound

    return {"coarse": coarse, "floor": floor, "checks": {
        name: _check(fine[name], two_grid_bound(coarse[name], floor[name])) for name in fine}}


def run_cy_validate(config, out, oracle):
    from .cymodel import resolve_model, validate_axioms

    ref = config.get("model", "std:2")
    report = validate_axioms(resolve_model(ref))
    return {"model": str(ref), "axioms": report.to_dict()}


def run_family_scan(config, out, oracle):
    from .family import lagrangian_residual, specialness_scan
    from .forms import MIN_RESOLUTION

    fam, ref = _resolve_family(config.get("family", "std:2"))
    m = fam.moduli_dim
    axes = _moduli_axes(config, m, 5)
    resolution = config.get("fiber_resolution", 16)
    if not _is_count(resolution) or resolution < MIN_RESOLUTION:
        raise InputError(f"fiber_resolution must be an integer of at least "
                         f"forms.MIN_RESOLUTION = {MIN_RESOLUTION}, got {resolution!r}")
    torus = fam.fiber_torus(resolution)

    omega_res, omega1_res = fam.fiber_restriction_residuals()
    # the family's constants, taken once and passed on
    pm = fam.period_matrices()
    mclean = fam.mclean_metric(pm)
    scan = specialness_scan(fam, axes, pm)
    checks = {
        "slag_restriction": _check(max(omega_res, omega1_res), IDENTITY_TOL),
        "mclean": _check(max(fam.mclean_check(j, torus) for j in range(m)), IDENTITY_TOL),
        "prop2": _check(mclean[1], IDENTITY_TOL),
        "thm3": _check(lagrangian_residual(pm), IDENTITY_TOL),
    }
    return {
        "family": ref,
        "P": fam.P.tolist(),
        "Q": fam.Q.tolist(),
        "lambda": pm.lam.tolist(),
        "mu": pm.mu.tolist(),
        "vol_H1": scan["vol_h1"],
        "vol_Hn1": scan["vol_hn1"],
        "vol_fiber": scan["vol_fiber"],
        "checks": checks,
    }


def run_embed(config, out, oracle):
    from .family import embed_F, lagrangian_residual, moduli_coordinates

    fam, ref = _resolve_family(config.get("family", "std:2"))
    m = fam.moduli_dim
    chart = moduli_coordinates(fam, _moduli_axes(config, m, 9))
    table = embed_F(chart)
    flat = table.reshape(-1, 2 * m)
    pts = chart.points().reshape(-1, m)
    with open(Path(out) / "embedding.csv", "w") as fh:
        header = [f"t_{i + 1}" for i in range(m)]
        header += [f"u_{i + 1}" for i in range(m)] + [f"v_{i + 1}" for i in range(m)]
        fh.write(",".join(header) + "\n")
        for t, row in zip(pts, flat):
            fh.write(",".join(repr(float(x)) for x in list(t) + list(row)) + "\n")
    checks = {"thm3": _check(lagrangian_residual(fam.period_matrices()), IDENTITY_TOL)}
    return {"family": ref, "checks": checks}


def run_legendre(config, out, oracle):
    from .hessian import save_potential

    pot = _resolve_potential(_required(config, "potential", "the config"))
    return _two_grid_report(*legendre_two_grid(
        pot, lambda dual: save_potential(dual, Path(out) / "dual.csv")))


def run_ma_solve(config, out, oracle):
    from .fd import EDGE, interior
    from .hessian import save_potential, solve_ma_dirichlet

    axes = _plane_axes(config, 65)
    solver = config.get("solver", {})
    if not isinstance(solver, dict):
        raise InputError(f"solver must be an object, got {solver!r}")
    c = _real(solver.get("c", 1.0), "solver.c")
    expr = config.get("boundary", "(u1**2 + u2**2) / 2")
    # the solver holds the only boundary grid, and drops it after its checked copy
    pot = solve_ma_dirichlet(axes, lambda u1, u2: np.broadcast_to(
        _eval_expression(expr, u1=u1, u2=u2), u1.shape), c)
    save_potential(pot, Path(out) / "solution.csv")
    pot.eigenvalue_bounds  # convexity is a precondition
    # the solver's last det - c, on the nodes inside the Dirichlet ring: one
    # node further in reads the interior(shape, EDGE) of the grid
    inner = pot.info["interior_residual"]
    residual = inner[interior(inner.shape, EDGE - 1)]
    checks = {"prop3": _check(np.max(np.abs(residual)), SOLVER_TOL)}
    return {"iterations": pot.info["iterations"], "residual_history": pot.info["residuals"],
            "krylov_iterations": pot.info["krylov_iterations"], "checks": checks}


def run_partial_legendre(config, out, oracle):
    spec = _required(config, "potential", "the config")
    return _two_grid_report(*partial_legendre_two_grid(_resolve_potential(spec),
                                                       computed=isinstance(spec, str)))


def run_semiflat(config, out, oracle):
    from .semiflat import read_region

    pot = _resolve_potential(_required(config, "potential", "the config"))
    c = 1.0 if pot.c is None else pot.c
    ma = []  # max |det Hess phi - c| of the fine manifold
    report = _two_grid_report(*semiflat_two_grid(pot, oracle, lambda sf: ma.append(
        float(np.max(np.abs(sf.metric_det[read_region(pot.values.shape)] - c))))))
    return {"ma_residual_max": ma[0], **report}


def run_gh(config, out, oracle):
    from .semiflat import gh_metric

    axes = _plane_axes(config, 33)
    mesh = np.meshgrid(*axes, indexing="ij")
    v = np.broadcast_to(_eval_expression(config.get("V", "2 + y1"), y1=mesh[0], y2=mesh[1]),
                        mesh[0].shape).copy()
    del mesh  # only V is held while the oracle walks its slabs
    gh = gh_metric(v, axes)
    return {"harmonic_residual": gh.harmonic_residual, "harmonic_tol": gh.harmonic_tol,
            **_two_grid_report(*gh_two_grid(gh))}


# Every runner takes (config, out, oracle) and returns the report; only
# ``semiflat`` reads ``oracle``.  ``main`` derives the exit code from it.
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
COMMANDS = tuple(_RUNNERS)


def build_parser():
    parser = argparse.ArgumentParser(
        prog="slmoduli",
        description="Special Lagrangian moduli toolkit, batch interface.  No option "
        "moves a bound: each check reads a two-grid bound or a named constant.",
    )
    parser.add_argument("command", choices=COMMANDS)
    parser.add_argument("--config", type=str, default=None, help="JSON config path")
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
        config = _load_config(args.config) if args.config else {}
        report = _RUNNERS[args.command](config, out, args.oracle)
        verdicts = report["axioms"] if args.command == "cy-validate" else report["checks"]
        code = 0 if all(c["pass"] for c in verdicts.values()) else 1
    except _INPUT_ERRORS as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        report = {"error": {"type": type(exc).__name__, "message": str(exc)}}
        code = 2
    report = {"command": args.command, **report}
    with open(out / "report.json", "w") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")
    with open(out / "run.log", "a") as fh:
        stamp = datetime.datetime.now(datetime.timezone.utc).isoformat()
        fh.write(f"{stamp} {args.command} exit={code}\n")
    return code


if __name__ == "__main__":
    sys.exit(main())
