"""Batch interface: every command, report shape, exit codes."""

import json
import os
import subprocess
import sys
import textwrap
import warnings
import weakref
from pathlib import Path

import numpy as np
import pytest

import slmoduli
from slmoduli import cli, cymodel, hessian, semiflat
from slmoduli.cli import COMMANDS, _eval_expression, main
from slmoduli.errors import InputError
from slmoduli.family import AffineSLagFamily
from slmoduli.fd import EDGE, interior
from slmoduli.hessian import HessianPotential, load_potential, save_potential


def _write(path, payload):
    path.write_text(json.dumps(payload))
    return str(path)


def _report(out):
    with open(out / "report.json") as fh:
        return json.load(fh)


def _count_calls(monkeypatch, owner, name):
    """Wrap ``owner.name`` for the test; returns the list that grows per call."""
    calls = []
    original = getattr(owner, name)

    def counted(*args, **kwargs):
        calls.append(None)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    return calls


def test_cy_validate_std(tmp_path):
    assert main(["cy-validate", "--out", str(tmp_path)]) == 0
    report = _report(tmp_path)
    assert report["command"] == "cy-validate"
    assert all(c["pass"] for c in report["axioms"].values())


def test_cy_validate_saved_model(tmp_path):
    from slmoduli.cymodel import save_model, std_model

    model_path = tmp_path / "model.json"
    save_model(std_model(3), model_path)
    cfg = _write(tmp_path / "cfg.json", {"model": str(model_path)})
    assert main(["cy-validate", "--config", cfg, "--out", str(tmp_path)]) == 0


def test_family_scan_std(tmp_path):
    cfg = _write(
        tmp_path / "cfg.json",
        {"family": "std:2", "grid": {"n": 3}},
    )
    assert main(["family-scan", "--config", cfg, "--out", str(tmp_path)]) == 0
    report = _report(tmp_path)
    for key in ("slag_restriction", "mclean", "prop2", "thm3"):
        assert report["checks"][key]["pass"], key
    # lambda = mu = -I and G = I: every volume is 1, reported once per family
    assert (report["vol_H1"], report["vol_Hn1"], report["vol_fiber"]) == (1.0, 1.0, 1.0)
    assert sorted(path.name for path in tmp_path.iterdir()) == ["cfg.json", "report.json",
                                                                "run.log"]


def test_family_scan_derives_each_family_constant_once(tmp_path, monkeypatch):
    # J of the model, the calibration phase and Theta/Phi of the family are
    # read by every check of the job, and derived once
    j_calls = _count_calls(monkeypatch, cymodel, "complex_structure_matrix")
    phase_calls = _count_calls(monkeypatch, AffineSLagFamily, "calibration_angle")
    coeff_calls = _count_calls(monkeypatch, AffineSLagFamily.contraction_coefficients, "func")
    cfg = _write(tmp_path / "cfg.json", {"family": "std:3", "grid": {"n": 2}})
    assert main(["family-scan", "--config", cfg, "--out", str(tmp_path)]) == 0
    assert (len(j_calls), len(phase_calls), len(coeff_calls)) == (1, 1, 1)


def test_family_scan_takes_the_period_and_gram_matrices_once(tmp_path, monkeypatch):
    # the scan and the checks read lambda, mu and the McLean Gram matrix of
    # one family; the job takes each once and passes it on
    periods = _count_calls(monkeypatch, AffineSLagFamily, "period_matrices")
    grams = _count_calls(monkeypatch, AffineSLagFamily, "mclean_metric")
    cfg = _write(tmp_path / "cfg.json", {"family": "std:3", "grid": {"n": 2}})
    assert main(["family-scan", "--config", cfg, "--out", str(tmp_path)]) == 0
    assert (len(periods), len(grams)) == (1, 1)


def test_family_scan_tilt(tmp_path):
    cfg = _write(
        tmp_path / "cfg.json",
        {"family": "tilt:1:2", "grid": {"n": 4, "ranges": [[0.0, 1.0]]}},
    )
    assert main(["family-scan", "--config", cfg, "--out", str(tmp_path)]) == 0


def test_embed_writes_table(tmp_path):
    assert main(["embed", "--out", str(tmp_path)]) == 0
    lines = (tmp_path / "embedding.csv").read_text().splitlines()
    assert lines[0] == "t_1,t_2,u_1,u_2,v_1,v_2"
    assert len(lines) == 1 + 81


def test_legendre_command(tmp_path):
    cfg = _write(
        tmp_path / "cfg.json",
        {
            "potential": {
                "axes": [[-1, 1, 33], [-1, 1, 33]],
                "expr": "(u1**2 + u2**2) / 2 + 0.1*cosh(u1)",
            }
        },
    )
    assert main(["legendre", "--config", cfg, "--out", str(tmp_path)]) == 0
    dual = load_potential(tmp_path / "dual.csv")
    assert dual.dim == 2


def test_legendre_job_takes_one_hessian_per_potential(tmp_path, monkeypatch):
    # the convexity gate of the forward and the back transform, one each, on
    # the fine grid and on the coarse grid of the two-grid bound
    fields = _count_calls(monkeypatch, hessian, "hessian_field")
    ranges = _count_calls(monkeypatch, hessian, "eigenvalue_range")
    cfg = _write(tmp_path / "cfg.json", {"potential": {
        "axes": [[-1, 1, 33], [-1, 1, 33]], "expr": "(u1**2 + u2**2) / 2 + 0.1*cosh(u1)"}})
    assert main(["legendre", "--config", cfg, "--out", str(tmp_path)]) == 0
    assert (len(fields), len(ranges)) == (4, 4)


def test_legendre_job_builds_one_spline_per_potential(tmp_path, monkeypatch):
    # the line conjugates take no tensor spline; the involution and the
    # Fenchel gap, read on the dual's nodes, both read the primal's, built
    # once on the fine grid and once on the coarse one
    builds = _count_calls(monkeypatch, hessian, "TensorQuintic")
    cfg = _write(tmp_path / "cfg.json", {"potential": {
        "axes": [[-1, 1, 33], [-1, 1, 33]], "expr": "(u1**2 + u2**2) / 2 + 0.1*cosh(u1)"}})
    assert main(["legendre", "--config", cfg, "--out", str(tmp_path)]) == 0
    assert len(builds) == 2


@pytest.mark.parametrize("alpha", [0.95, 1.0, 1.05])
def test_legendre_takes_solver_output(tmp_path, alpha):
    # the dual box lies inside the gradient image and the back transform's
    # inside the dual's; a box that reached past the image of the 129^2 cosh
    # solution gave the dual kinks at its corners, and the convexity gate of
    # the back transform refused it (min eigenvalue -0.081)
    cfg = _write(tmp_path / "ma.json", {"boundary": f"{alpha!r} * (cosh(u1) + cosh(u2))",
                                        "n": 129, "domain": [[-1, 1], [-1, 1]]})
    assert main(["ma-solve", "--config", cfg, "--out", str(tmp_path / "ma")]) == 0
    cfg = _write(tmp_path / "leg.json", {"potential": str(tmp_path / "ma" / "solution.csv")})
    assert main(["legendre", "--config", cfg, "--out", str(tmp_path)]) == 0
    checks = _report(tmp_path)["checks"]
    assert checks["legendre_involution"]["residual"] < 1e-8
    assert checks["fenchel"]["residual"] < 1e-8


def _legendre_config(n, beta):
    return {"potential": {"axes": [[-1, 1, n], [-1, 1, n]],
                          "expr": f"(u1**2 + u2**2) / 2 + {beta!r} * cosh(u1)"}}


def test_legendre_takes_the_33_node_solver_output(tmp_path):
    # the involution residual of the 33^2 cosh solution is 4.2e-7, 39 times
    # below that of its 17^2 coarse grid; a fixed 1e-8 would refuse it
    cfg = _write(tmp_path / "ma.json", {"boundary": "cosh(u1) + cosh(u2)", "n": 33,
                                        "domain": [[-1, 1], [-1, 1]]})
    assert main(["ma-solve", "--config", cfg, "--out", str(tmp_path / "ma")]) == 0
    cfg = _write(tmp_path / "leg.json", {"potential": str(tmp_path / "ma" / "solution.csv")})
    assert main(["legendre", "--config", cfg, "--out", str(tmp_path)]) == 0
    report = _report(tmp_path)
    assert report["checks"]["legendre_involution"]["residual"] > 1e-8
    assert set(report["coarse"]) == set(report["floor"]) == {"fenchel", "legendre_involution"}


def test_legendre_passes_on_its_roundoff_floor(tmp_path):
    # at 257^2 and beta = 0.05 both residuals are roundoff on both grids
    # (1.1e-15 fine, 8.9e-16 coarse): 10 coarse / 16 would be 5.6e-16, and the
    # floor eps (max |phi| + max |psi| + sum max |u_a| max |v_a|) lets it pass
    cfg = _write(tmp_path / "leg.json", _legendre_config(257, 0.05))
    assert main(["legendre", "--config", cfg, "--out", str(tmp_path)]) == 0
    report = _report(tmp_path)
    for name, check in report["checks"].items():
        assert check["residual"] > 10.0 * report["coarse"][name] / 16
        assert check["tol"] == 10.0 * report["floor"][name]


@pytest.mark.parametrize("n", [65, 129])
def test_legendre_rejects_a_shifted_dual(tmp_path, monkeypatch, n):
    # psi + 1e-9 moves the Fenchel gap and psi** by 1e-9 on both grids, so
    # neither residual falls with h; fixed bounds of 1e-8 and 10 times the
    # piecewise-linear interpolation error let both pass
    real = hessian.legendre_transform
    duals = []

    def shifted(pot):
        pair = real(pot)
        if not any(pot is dual for dual in duals):  # a forward transform
            pair.dual.values += 1e-9
            duals.append(pair.dual)
        return pair

    monkeypatch.setattr(hessian, "legendre_transform", shifted)
    cfg = _write(tmp_path / "leg.json", _legendre_config(n, 0.1))
    assert main(["legendre", "--config", cfg, "--out", str(tmp_path)]) == 1
    checks = _report(tmp_path)["checks"]
    assert not checks["fenchel"]["pass"] and not checks["legendre_involution"]["pass"]


def test_legendre_smallest_grids(tmp_path):
    # the chart potential passes at every n from 11, where the coarse grid of
    # 6 nodes is one quintic on the whole box, to 19 (beta = 0 is a
    # quadratic, exact on both grids)
    for beta in (0.0, 0.05, 0.1, 0.15):
        for n in range(11, 20):
            cfg = _write(tmp_path / "leg.json", _legendre_config(n, beta))
            assert main(["legendre", "--config", cfg, "--out", str(tmp_path)]) == 0, (beta, n)


@pytest.mark.parametrize("n", [12, 14, 16])
def test_legendre_passes_on_a_shifted_box(tmp_path, n):
    # read on the primal's nodes, the points its line conjugates pass
    # through, the Fenchel gap was superconvergent and erratic on the few
    # nodes of the coarse grid: on [-1, 1.3]^2 it read 2.9e-10 / 1.7e-10 /
    # 9.7e-11 fine against 1.0e-10 / 2.7e-10 / 1.1e-10 coarse, and the run
    # exited 1
    cfg = _write(tmp_path / "leg.json", {"potential": {
        "axes": [[-1, 1.3, n], [-1, 1.3, n]], "expr": "(u1**2 + u2**2) / 2 + 0.1 * cosh(u1)"}})
    assert main(["legendre", "--config", cfg, "--out", str(tmp_path)]) == 0


def test_legendre_passes_on_random_boxes(tmp_path):
    # convex potentials with a cosh term along a tilted direction, on boxes
    # drawn at random around the origin, at 11 to 23 nodes per axis: each
    # run's checks pass
    rng = np.random.default_rng(2024)
    for draw in range(40):
        n = int(rng.integers(11, 24))
        lo, hi = rng.uniform(-1.5, -0.5, 2), rng.uniform(0.5, 1.5, 2)
        beta, w = float(rng.uniform(0.0, 0.2)), float(rng.uniform(-0.3, 0.3))
        cfg = _write(tmp_path / "leg.json", {"potential": {
            "axes": [[float(lo[a]), float(hi[a]), n] for a in range(2)],
            "expr": f"(u1**2 + u2**2) / 2 + {beta!r} * cosh(u1 + {w!r} * u2)"}})
        assert main(["legendre", "--config", cfg, "--out", str(tmp_path)]) == 0, draw


def test_ma_solve_and_partial_legendre(tmp_path):
    cfg = _write(
        tmp_path / "ma.json", {"boundary": "cosh(u1) + cosh(u2)", "n": 65}
    )
    assert main(["ma-solve", "--config", cfg, "--out", str(tmp_path / "again")]) == 0
    assert main(["ma-solve", "--config", cfg, "--out", str(tmp_path)]) == 0
    report = _report(tmp_path)
    assert report["iterations"] <= 15
    # one GMRES count per Newton step, and reruns write the same report
    assert len(report["krylov_iterations"]) == report["iterations"]
    assert all(isinstance(count, int) and count > 0 for count in report["krylov_iterations"])
    assert (tmp_path / "report.json").read_bytes() == (tmp_path / "again" / "report.json").read_bytes()
    cfg2 = _write(
        tmp_path / "pl.json", {"potential": str(tmp_path / "solution.csv")}
    )
    assert main(["partial-legendre", "--config", cfg2, "--out", str(tmp_path)]) == 0
    assert _report(tmp_path)["checks"]["prop3"]["pass"]


def _exact_solution(n, bump=0.0):
    """The paper's exact solution u1^2/(2 u2) + u2^3/6 on an n x n grid, plus
    ``bump`` times a Gaussian at (0, 1)."""
    return {"potential": {"axes": [[-0.5, 0.5, n], [0.5, 1.5, n]], "c": 1.0,
                          "expr": f"u1**2 / (2 * u2) + u2**3 / 6 "
                                  f"+ {bump!r} * exp(-(u1**2 + (u2 - 1)**2) / 0.02)"}}


def test_partial_legendre_reports_the_two_grid_schema(tmp_path):
    # coarse and floor maps like the other two-grid commands; the floor is
    # the closed-form roundoff of the two second-derivative passes
    cfg = _write(tmp_path / "pl.json", _exact_solution(33))
    assert main(["partial-legendre", "--config", cfg, "--out", str(tmp_path)]) == 0
    report = _report(tmp_path)
    assert set(report) == {"command", "coarse", "floor", "checks"}
    fine, coarse, floor = cli.partial_legendre_two_grid(cli._resolve_potential(
        _exact_solution(33)["potential"]))
    assert (report["coarse"], report["floor"]) == (coarse, floor)
    prop3 = report["checks"]["prop3"]
    assert prop3["residual"] == fine["prop3"]
    assert prop3["tol"] == 10.0 * max(coarse["prop3"] / 16, floor["prop3"])


def test_partial_legendre_floor_is_the_roundoff_of_its_passes(tmp_path):
    # on the exact solution the Laplace residual is roundoff, which grows as
    # h^-2: 9.4e-10 at 513^2 against 2.4e-10 at 257^2, so 10 coarse / 16
    # alone would refuse it; the roundoff floor of the two second-derivative
    # passes passes it, while a 1e-6 bump, far above that floor, still fails
    cases = [(_exact_solution(513), 0), (_exact_solution(129, 1e-6), 1),
             (_exact_solution(257, 1e-6), 1)]
    for i, (config, code) in enumerate(cases):
        cfg = _write(tmp_path / f"pl{i}.json", config)
        assert main(["partial-legendre", "--config", cfg, "--out", str(tmp_path / str(i))]) == code
        report = _report(tmp_path / str(i))
        prop3 = report["checks"]["prop3"]
        if code == 0:
            assert 10.0 * report["coarse"]["prop3"] / 16 < prop3["residual"] < 1e-8 < prop3["tol"]
        else:
            assert prop3["residual"] > 1e-4


def _solve_to_csv(path, n, boundary, steps_early=0):
    """Save the Monge-Ampere solution with ``boundary`` on [0, 1]^2 and
    c = 1, stopped ``steps_early`` Newton steps before the solver's own
    stop, to ``path``."""
    axes = [np.linspace(0.0, 1.0, n)] * 2
    pot = hessian.solve_ma_dirichlet(axes, boundary, 1.0)
    if steps_early:
        history = pot.info["residuals"]
        tol = hessian.NEWTON_TOL
        hessian.NEWTON_TOL = history[-1 - steps_early] * (1 + 1e-9)
        try:
            pot = hessian.solve_ma_dirichlet(axes, boundary, 1.0)
        finally:
            hessian.NEWTON_TOL = tol
        assert pot.info["iterations"] == len(history) - 1 - steps_early
    save_potential(pot, path)
    return str(path)


@pytest.mark.parametrize("alpha", [0.95, 1.0, 1.05])
def test_partial_legendre_certifies_solver_output_by_a_coarse_solve(tmp_path, monkeypatch,
                                                                   alpha):
    # the every-other-node subsample of the 129^2 solution bounds prop3 by
    # 2.5e-7 to 5.1e-7, below its residual of 5.2e-7 to 8.9e-7; the 65^2
    # re-solve from the subsample's ring bounds it by 3.7e-6 to 4.0e-6
    csv = _solve_to_csv(tmp_path / "solution.csv", 129,
                        lambda a, b: alpha * (np.cosh(a) + np.cosh(b)))
    solves = _count_calls(monkeypatch, hessian, "solve_ma_dirichlet")
    cfg = _write(tmp_path / "pl.json", {"potential": csv})
    assert main(["partial-legendre", "--config", cfg, "--out", str(tmp_path / "pl")]) == 0
    assert len(solves) == 1
    coarse = load_potential(csv).coarsened()
    solved = hessian.solve_ma_dirichlet(coarse.axes, coarse.values, coarse.c)
    report = _report(tmp_path / "pl")
    assert report["coarse"]["prop3"] == hessian.partial_legendre_2d(solved)[0]
    assert report["coarse"]["prop3"] != hessian.partial_legendre_2d(coarse)[0]


def test_partial_legendre_subsamples_expressions_and_files_without_c(tmp_path, monkeypatch):
    # an expression is exact on every node, and a file that records no c is
    # no Monge-Ampere solution: both keep the subsample
    solves = _count_calls(monkeypatch, hessian, "solve_ma_dirichlet")
    pot = cli._resolve_potential(_exact_solution(65)["potential"])
    save_potential(HessianPotential(pot.axes, pot.values), tmp_path / "no-c.csv")
    for name, potential in (("expr", _exact_solution(65)["potential"]),
                            ("no-c", str(tmp_path / "no-c.csv"))):
        cfg = _write(tmp_path / f"{name}.json", {"potential": potential})
        assert main(["partial-legendre", "--config", cfg, "--out", str(tmp_path / name)]) == 0
        report = _report(tmp_path / name)
        assert report["coarse"]["prop3"] == hessian.partial_legendre_2d(pot.coarsened())[0]
    assert not solves


@pytest.mark.parametrize("n", [65, 129])
def test_partial_legendre_refuses_a_solve_stopped_two_steps_early(tmp_path, n):
    # two Newton steps before the stop the residual det - c is about 2e-3
    # and 7e-3; prop3 reads 2.7e-5 and 3.6e-5 against re-solve bounds of
    # 1.9e-5 and 4.0e-6.  One step before, at residual 6e-7 and 1e-5, the
    # Laplace residual is the stencil error of the finished solve and passes
    csv = _solve_to_csv(tmp_path / "early.csv", n, lambda a, b: np.cosh(a) + np.cosh(b), 2)
    cfg = _write(tmp_path / "pl.json", {"potential": csv})
    assert main(["partial-legendre", "--config", cfg, "--out", str(tmp_path / "pl")]) == 1
    assert not _report(tmp_path / "pl")["checks"]["prop3"]["pass"]


def test_ma_solve_reads_prop3_from_the_solver(tmp_path, monkeypatch):
    # after the solve only the convexity gate walks the Hessian of phi; prop3
    # is the solver's last det - c, bitwise the determinant walk's residual
    fields = _count_calls(monkeypatch, hessian, "hessian_field")
    solve = hessian.solve_ma_dirichlet
    during = []

    def solve_and_count(*args, **kwargs):
        pot = solve(*args, **kwargs)
        during.append(len(fields))
        return pot

    monkeypatch.setattr(hessian, "solve_ma_dirichlet", solve_and_count)
    cfg = _write(tmp_path / "ma.json", {"boundary": "cosh(u1) + cosh(u2)", "n": 65})
    assert main(["ma-solve", "--config", cfg, "--out", str(tmp_path)]) == 0
    assert len(fields) - during[0] == 1
    pot = load_potential(tmp_path / "solution.csv")
    residual = (hessian.hessian_det_field(pot) - pot.c)[interior(pot.values.shape, EDGE)]
    assert _report(tmp_path)["checks"]["prop3"]["residual"] == float(np.max(np.abs(residual)))


def test_ma_solve_holds_no_boundary_grid_through_the_solve(tmp_path, monkeypatch):
    # the runner hands the solver a callable, and the solver drops the grid
    # it evaluates to once it has made its checked copy: no boundary grid is
    # alive while GMRES runs
    grids, alive = [], []

    def track(values):
        grids.append(weakref.ref(values))
        return values

    solve = hessian.solve_ma_dirichlet

    def solve_tracked(axes, boundary, c):
        if callable(boundary):
            return solve(axes, lambda *mesh: track(boundary(*mesh)), c)
        return solve(axes, track(boundary), c)

    gmres = hessian.spsolve

    def gmres_tracked(*args):
        alive.append(any(ref() is not None for ref in grids))
        return gmres(*args)

    monkeypatch.setattr(hessian, "solve_ma_dirichlet", solve_tracked)
    monkeypatch.setattr(hessian, "spsolve", gmres_tracked)
    cfg = _write(tmp_path / "ma.json", {"boundary": "cosh(u1) + cosh(u2)", "n": 17})
    assert main(["ma-solve", "--config", cfg, "--out", str(tmp_path)]) == 0
    assert len(grids) == 1 and alive and not any(alive)


def test_semiflat_command_with_oracle(tmp_path):
    cfg = _write(
        tmp_path / "ma.json", {"boundary": "(u1**2 + u2**2) / 2", "n": 33}
    )
    assert main(["ma-solve", "--config", cfg, "--out", str(tmp_path)]) == 0
    cfg2 = _write(
        tmp_path / "sf.json", {"potential": str(tmp_path / "solution.csv")}
    )
    assert main(
        ["semiflat", "--config", cfg2, "--out", str(tmp_path), "--oracle"]
    ) == 0
    report = _report(tmp_path)
    assert "ricci_oracle" in report["checks"]


def test_semiflat_verdicts_on_three_variable_potentials(tmp_path):
    # m = 3 takes LAPACK's eigenvalues and determinants: 0.1 cosh(u1) breaks
    # Monge-Ampere, which prop5 and ricci_flat see, while the Christoffel
    # oracle still agrees with the log-det Ricci form; the quadratic passes
    axes = [[-1, 1, 13]] * 3
    quadratic = "(u1**2 + u2**2 + u3**2) / 2"
    cases = [({"axes": axes, "expr": quadratic + " + 0.1*cosh(u1)"}, 1,
              {"prop5", "ricci_flat"}),
             ({"axes": axes, "expr": quadratic, "c": 1.0}, 0, set())]
    for i, (potential, code, failing) in enumerate(cases):
        cfg = _write(tmp_path / f"m3-{i}.json", {"potential": potential})
        out = tmp_path / f"m3-{i}"
        assert main(["semiflat", "--oracle", "--config", cfg, "--out", str(out)]) == code
        checks = _report(out)["checks"]
        assert {name for name, check in checks.items() if not check["pass"]} == failing
        assert "ricci_oracle" in checks


def test_legendre_refuses_three_variables_before_any_transform(tmp_path, capsys, monkeypatch):
    # the residuals read the quintic spline, which takes m <= 2, so a larger
    # m is refused before the forward and back transforms run
    calls = _count_calls(monkeypatch, hessian, "legendre_transform")
    cfg = _write(tmp_path / "cfg.json", {"potential": {
        "axes": [[-1, 1, 17]] * 3, "expr": "(u1**2 + u2**2 + u3**2) / 2"}})
    out = tmp_path / "out"
    assert main(["legendre", "--config", cfg, "--out", str(out)]) == 2
    assert "Traceback" not in capsys.readouterr().err
    error = _report(out)["error"]
    assert error["type"] == "InputError"
    assert {"m", "<=", "2", "3"} <= set(error["message"].split())
    assert not (out / "dual.csv").exists()
    assert calls == []


def test_semiflat_flags_non_ma_potential(tmp_path):
    cfg = _write(
        tmp_path / "cfg.json",
        {
            "potential": {
                "axes": [[-1, 1, 33], [-1, 1, 33]],
                "expr": "u1**4/12 + u1**2/2 + u2**2/2",
                "c": 1.0,
            }
        },
    )
    assert main(["semiflat", "--config", cfg, "--out", str(tmp_path)]) == 1
    report = _report(tmp_path)
    assert not report["checks"]["prop5"]["pass"]
    assert not report["checks"]["ricci_flat"]["pass"]


def _exact(n, a, extra=""):
    """The paper's solution of det Hess = 1 on [-1/2, 1/2] x [1/2, 3/2], as a
    potential config, plus ``extra``."""
    return {"axes": [[-0.5, 0.5, n], [0.5, 1.5, n]],
            "expr": f"{a!r} * u1**2 / (2 * u2) + u2**3 / (6 * {a!r}){extra}", "c": 1.0}


@pytest.mark.parametrize("n, a", [(257, 0.8), (129, 1.25)])
def test_semiflat_passes_the_exact_solution(tmp_path, n, a):
    # at 257^2 and a = 0.8 the Kahler Ricci form is roundoff: 5.45e-6 on the
    # fine grid and 5.33e-6 on the coarse one, so the two-grid bound needs
    # its measured floor (1.42e-5) and reads 1.42e-4; with no floor it
    # would be 3.33e-6
    cfg = _write(tmp_path / "exact.json", {"potential": _exact(n, a)})
    assert main(["semiflat", "--oracle", "--config", cfg, "--out", str(tmp_path)]) == 0
    checks = _report(tmp_path)["checks"]
    assert set(checks) == {"prop5", "ricci_flat", "ricci_oracle"}
    if n == 257:
        assert 2e-6 < checks["ricci_flat"]["residual"] < 1e-5 < checks["ricci_flat"]["tol"]


@pytest.mark.parametrize("n", [65, 129])
def test_semiflat_rejects_a_bump_on_the_exact_solution(tmp_path, n):
    # a 1e-6 bump reads prop5 2.4e-4 and ricci_flat 2.0e-2 at every size,
    # so the two-grid bound never shrinks below it
    potential = _exact(n, 1.0, " + 1e-6 * exp(-(u1**2 + (u2 - 1)**2) / 0.02)")
    cfg = _write(tmp_path / "cfg.json", {"potential": potential})
    assert main(["semiflat", "--oracle", "--config", cfg, "--out", str(tmp_path)]) == 1
    checks = _report(tmp_path)["checks"]
    assert not checks["prop5"]["pass"] and not checks["ricci_flat"]["pass"]


def test_semiflat_ma_residual_from_stored_hessian(tmp_path):
    from slmoduli.cli import _resolve_potential
    from slmoduli.semiflat import read_region

    spec = {
        "axes": [[-1, 1, 33], [-0.5, 1, 29]],
        "expr": "u1**4/12 + u1**2/2 + u2**2/2 + 0.1*u1*u2",
        "c": 1.3,
    }
    cfg = _write(tmp_path / "cfg.json", {"potential": spec})
    main(["semiflat", "--config", cfg, "--out", str(tmp_path)])
    pot = _resolve_potential(spec)
    # the read region of every semiflat residual: 3 nodes in from each side
    trim = read_region(pot.values.shape)
    assert trim == (slice(3, -3),) * 2
    expected = float(np.max(np.abs((hessian.hessian_det_field(pot) - pot.c)[trim])))
    assert _report(tmp_path)["ma_residual_max"] == expected


@pytest.mark.parametrize("command, config", [
    ("gh", {"n": 33}),
    ("semiflat", {"potential": _exact(33, 1.0)}),
])
def test_measured_floor_walks_the_coarse_grid_once(tmp_path, monkeypatch, command, config):
    # the oracle walks the fine grid, then the coarse grid and its roughened
    # twin in lock step: the coarse value and its change come from one walk
    walks = _count_calls(monkeypatch, semiflat, "_oracle_interior")
    cfg = _write(tmp_path / "cfg.json", config)
    assert main([command, "--oracle", "--config", cfg, "--out", str(tmp_path)]) == 0
    assert len(walks) == 3


def test_gh_command(tmp_path):
    assert main(["gh", "--out", str(tmp_path)]) == 0
    report = _report(tmp_path)
    assert report["checks"]["ricci_flat"]["pass"]
    assert report["harmonic_residual"] < report["harmonic_tol"]


def test_gh_command_takes_a_harmonic_v_on_a_coarse_grid(tmp_path):
    # ||Laplacian V|| = 2.1e-6 is stencil error at 33^2; a fixed 1e-8 gate
    # refused it with exit 2
    cfg = _write(tmp_path / "gh.json", {"V": "3 + exp(y1) * cos(y2)", "n": 33})
    assert main(["gh", "--config", cfg, "--out", str(tmp_path)]) == 0
    report = _report(tmp_path)
    assert 1e-6 < report["harmonic_residual"] < report["harmonic_tol"]


def test_gh_passes_on_its_roundoff_floor(tmp_path):
    # at 513^2 the curvature of b = 0.1 is roundoff: 4.16e-9 fine against
    # 6.5e-10 coarse, so with no floor the bound would be 4.07e-10
    cfg = _write(tmp_path / "gh.json", {"V": "2 + y1 + 0.1 * (y1**2 - y2**2)", "n": 513})
    assert main(["gh", "--config", cfg, "--out", str(tmp_path)]) == 0
    report = _report(tmp_path)
    check = report["checks"]["ricci_flat"]
    assert check["residual"] > 10.0 * report["coarse"]["ricci_flat"] / 16
    assert check["tol"] == 10.0 * report["floor"]["ricci_flat"]


@pytest.mark.parametrize("n", [129, 257])
def test_gh_rejects_a_scaled_conjugate(tmp_path, monkeypatch, n):
    # W (1 + 1e-6) breaks dW = *dV by the same amount on every grid, so the
    # curvature does not fall with h; a fixed 1e-4 bound let it pass
    real = slmoduli.semiflat._harmonic_conjugate
    monkeypatch.setattr(slmoduli.semiflat, "_harmonic_conjugate",
                        lambda v, spacings: real(v, spacings) * (1.0 + 1e-6))
    cfg = _write(tmp_path / "gh.json", {"V": "2 + y1 + 0.3 * (y1**2 - y2**2)", "n": n})
    assert main(["gh", "--config", cfg, "--out", str(tmp_path)]) == 1
    assert not _report(tmp_path)["checks"]["ricci_flat"]["pass"]


def test_config_error_exit_code(tmp_path):
    assert main(["cy-validate", "--config", "/nonexistent.json",
                 "--out", str(tmp_path)]) == 2
    bad = _write(tmp_path / "bad.json", {"V": "os.system('true')"})
    assert main(["gh", "--config", bad, "--out", str(tmp_path)]) == 2


def _square(n):
    """A convex potential on an n x n grid, as a config."""
    return {"potential": {"axes": [[-1, 1, n], [-1, 1, n]], "expr": "(u1**2 + u2**2) / 2"}}


@pytest.mark.parametrize(
    "command, payload, error",
    [
        ("legendre",
         {"potential": {"axes": [[-1, 1, 17], [-1, 1, 17]], "expr": "-(u1**2 + u2**2)"}},
         "ConvexityError"),
        # one Newton step does not converge (the solver is patched below)
        ("ma-solve", {"boundary": "cosh(u1) + cosh(u2)", "n": 17}, "ConvergenceError"),
        ("gh", {"V": "os.system('true')"}, "InputError"),
        # grids too small for a stencil, for the trusted interior of a
        # residual, or for those of the coarse grid of a two-grid bound
        *(("partial-legendre", _square(n), "GridMismatchError") for n in (6, 9, 11)),
        ("gh", {"n": 6}, "GridMismatchError"),
        ("semiflat", _square(6), "GridMismatchError"),
        *(("semiflat --oracle", _square(n), "GridMismatchError") for n in (9, 11, 12)),
        ("ma-solve", {"n": 5}, "GridMismatchError"),
        ("legendre", _square(5), "GridMismatchError"),
        # malformed shorthand
        ("cy-validate", {"model": "std:x"}, "InputError"),
        ("embed", {"family": "std:x"}, "InputError"),
        ("family-scan", {"family": "tilt:1:abc"}, "InputError"),
        # input files that cannot be read: @dir is a directory, @unreadable a
        # file with mode 000 (a root user reads it, then its content is
        # malformed), @under_file a path below a regular file
        ("cy-validate", {"model": "@dir"}, "InputError"),
        ("legendre", {"potential": "@dir"}, "InputError"),
        ("family-scan", {"family": "@dir"}, "InputError"),
        ("cy-validate", {"model": "@unreadable"}, "InputError"),
        ("semiflat", {"potential": "@unreadable"}, "InputError"),
        ("embed", {"family": "@unreadable"}, "InputError"),
        ("partial-legendre", {"potential": "@under_file"}, "InputError"),
        # a config that is not a JSON object, and config values of the wrong
        # type or shape where a command reads them
        *((command, payload, "InputError") for command in COMMANDS for payload in ([], 5)),
        *((command, payload, "InputError") for command in ("ma-solve", "gh")
          for payload in ({"n": "abc"}, {"n": None}, {"domain": 5}, {"domain": [[0, 1]]})),
        *((command, payload, "InputError") for command in ("family-scan", "embed")
          for payload in ({"grid": {"ranges": 5}}, {"grid": {"n": "x"}}, {"grid": 5},
                          {"grid": {"ranges": [[0, 1]] * 3}})),
        *((command, {"potential": {"axes": 5, "expr": "u1"}}, "InputError")
          for command in ("legendre", "semiflat", "partial-legendre")),
        ("semiflat", {"potential": {**_square(17)["potential"], "c": "x"}}, "InputError"),
        ("ma-solve", {"solver": {"c": "x"}}, "InputError"),
        ("ma-solve", {"solver": 5}, "InputError"),
        ("family-scan", {"family": 5}, "InputError"),
        # a potential without a grid axis
        ("legendre", {"potential": {"axes": [], "expr": "1"}}, "InputError"),
        # grids with no spacing or no nodes
        *((command, {"n": n}, "InputError") for command in ("ma-solve", "gh")
          for n in (-1, 0, 1)),
        *((command, {"grid": {"n": n}}, "InputError") for command in ("family-scan", "embed")
          for n in (-1, 0)),
        # a Monge-Ampere constant that is not positive
        ("ma-solve", {"n": 17, "solver": {"c": -1}}, "InputError"),
        ("ma-solve", {"n": 17, "solver": {"c": 0}}, "InputError"),
        ("legendre", {"potential": {**_square(17)["potential"], "c": 0}}, "InputError"),
        *(("semiflat", {"potential": {**_square(17)["potential"], "c": c}}, "InputError")
          for c in (0, -1)),
        ("partial-legendre", {"potential": {**_square(17)["potential"], "c": -1}}, "InputError"),
        # grids with no extent: a zero-width or reversed domain range, and
        # potential axes that do not increase
        *((command, {"n": 17, "domain": domain}, "InputError") for command in ("ma-solve", "gh")
          for domain in ([[0, 0], [0, 1]], [[0, 1], [1, 0]])),
        ("semiflat", {"potential": {"axes": [[0, 0, 17], [-1, 1, 17]],
                                    "expr": "(u1**2 + u2**2) / 2"}}, "InputError"),
        ("legendre", {"potential": {"axes": [[1, -1, 33], [1, -1, 33]],
                                    "expr": "(u1**2 + u2**2) / 2"}}, "InputError"),
        # a config without a potential, and a potential without a grid or an
        # expression
        *((command, payload, "InputError")
          for command in ("legendre", "semiflat", "partial-legendre")
          for payload in ({}, {"potential": {"expr": "u1"}},
                          {"potential": {"axes": [[-1, 1, 17]]}})),
        # no slope interval common to every line along u1: d phi / d u1 =
        # u1 + u2 / 2 reaches 0.5 on the face u1 = -1, only -0.5 on u1 = 1
        ("legendre", {"potential": {"axes": [[-1, 1, 17], [-3, 3, 17]],
                                    "expr": "(u1**2 + u2**2) / 2 + u1 * u2 / 2"}},
         "DomainError"),
        # every semiflat check is a two-grid check: the coarse grid of 5 or 6
        # nodes has no read region past 3 boundary nodes
        *(("semiflat", _square(n), "GridMismatchError") for n in (9, 10, 11, 12)),
        # so are legendre's and gh's: a 5-node coarse grid is too small for
        # the stencils, a 6-node one has no curvature read past 3 nodes
        ("legendre", _square(10), "GridMismatchError"),
        ("gh", {"n": 12}, "GridMismatchError"),
        # a moduli range of zero width: distinct nodes of the embedding coincide
        ("embed", {"grid": {"n": 3, "ranges": [[0, 0], [0, 1]]}}, "DegeneracyError"),
        ("embed", {"family": "std:3", "grid": {"n": 3, "ranges": [[0, 0], [0, 1], [0, 1]]}},
         "DegeneracyError"),
    ],
)
def test_rejected_input_exit_code_and_report(tmp_path, capsys, monkeypatch, command, payload,
                                             error):
    command, *flags = command.split()
    if error == "ConvergenceError":
        monkeypatch.setattr(hessian, "NEWTON_STEPS", 1)
    (tmp_path / "dir").mkdir()
    unreadable = tmp_path / "unreadable"
    unreadable.write_text("{")
    unreadable.chmod(0)
    paths = {"@dir": tmp_path / "dir", "@unreadable": unreadable,
             "@under_file": unreadable / "potential.csv"}
    if isinstance(payload, dict):
        payload = {key: str(paths.get(value, value)) if isinstance(value, str) else value
                   for key, value in payload.items()}
    cfg = _write(tmp_path / "cfg.json", payload)
    assert main([command, "--config", cfg, "--out", str(tmp_path), *flags]) == 2
    # one error line: no traceback and no warning
    err = capsys.readouterr().err
    assert err.startswith("error: ") and len(err.splitlines()) == 1
    report = _strict_json((tmp_path / "report.json").read_text())
    assert report["command"] == command
    assert report["error"]["type"] == error
    assert report["error"]["message"]
    assert "checks" not in report
    log = (tmp_path / "run.log").read_text().splitlines()
    assert log[-1].endswith(f"{command} exit=2")


def _strict_json(text):
    def refuse(constant):
        raise ValueError(f"{constant} is not JSON")
    return json.loads(text, parse_constant=refuse)


@pytest.mark.parametrize(
    "command, payload",
    [
        ("gh", {"V": "sqrt(y1 - 0.5) + 2", "n": 17}),
        ("semiflat", {"potential": {"axes": [[-1, 1, 17]] * 2,
                                    "expr": "(u1**2 + u2**2) / 2 + 0*log(u1 + 0.5)"}}),
        ("semiflat", {"potential": "@nan_csv"}),
    ],
)
def test_non_finite_input_exits_2(tmp_path, capsys, command, payload):
    # a value that is not finite is refused where it enters, with one error
    # line and a report that is strict JSON
    if payload.get("potential") == "@nan_csv":
        csv = tmp_path / "nan.csv"
        save_potential(HessianPotential.from_function([np.linspace(-1, 1, 17)] * 2,
                                                      lambda a, b: (a ** 2 + b ** 2) / 2), csv)
        lines = csv.read_text().splitlines()
        csv.write_text("\n".join(lines[:-1] + ["nan"]) + "\n")
        payload = {"potential": str(csv)}
    cfg = _write(tmp_path / "cfg.json", payload)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main([command, "--config", cfg, "--out", str(tmp_path)]) == 2
    assert not caught
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: InputError: ")
    report = _strict_json((tmp_path / "report.json").read_text())
    assert report["error"]["type"] == "InputError"
    assert "checks" not in report


@pytest.mark.parametrize("command", ["family-scan", "embed"])
def test_one_node_moduli_grid_is_a_point(tmp_path, command):
    cfg = _write(tmp_path / "cfg.json", {"grid": {"n": 1}})
    assert main([command, "--config", cfg, "--out", str(tmp_path)]) == 0


def test_missing_config_key_is_named(tmp_path, monkeypatch):
    for payload, key in (({}, "'potential'"), ({"potential": {"expr": "u1"}}, "'axes'"),
                         ({"potential": {"axes": [[-1, 1, 17]]}}, "'expr'")):
        cfg = _write(tmp_path / "cfg.json", payload)
        assert main(["legendre", "--config", cfg, "--out", str(tmp_path)]) == 2
        assert _report(tmp_path)["error"]["message"].endswith(f"has no {key} entry")
    # a KeyError inside a computation is a fault of the program, not bad
    # input: it shows as a traceback, not as exit 2

    def fault(pot):
        raise KeyError("fault")

    monkeypatch.setattr(hessian, "legendre_transform", fault)
    cfg = _write(tmp_path / "cfg.json", _square(17))
    with pytest.raises(KeyError):
        main(["legendre", "--config", cfg, "--out", str(tmp_path)])


@pytest.mark.parametrize("command, payload, key", [
    # an endpoint given as a list made a 2-D "axis": a traceback (exit 1) for
    # the first two, a meaningless grid (exit 0) for the third; a fractional
    # node count was truncated (exit 0)
    ("legendre", {"potential": {"axes": [[0, 1, 9], [[], 1, 9]], "expr": "u1**2 + u2**2"}},
     "potential.axes"),
    ("gh", {"n": 9, "domain": [[[0, 1], 1], [0, 1]]}, "domain"),
    ("family-scan", {"family": "std:2", "grid": {"n": 3, "ranges": [[[0, 0.5], 1], [0, 1]]}},
     "grid.ranges"),
    ("ma-solve", {"n": 13.9}, "n"),
    # the same reader behind every grid key
    ("semiflat", {"potential": {"axes": [[0, 1, 9], [0, 1, 9.0]], "expr": "u1**2 + u2**2"}},
     "potential.axes"),
    ("partial-legendre", {"potential": {"axes": [[0, True, 9], [0, 1, 9]], "expr": "u1"}},
     "potential.axes"),
    ("embed", {"family": "std:2", "grid": {"n": True}}, "grid.n"),
    ("family-scan", {"family": "std:2", "grid": {"n": "3"}}, "grid.n"),
    ("ma-solve", {"n": 17, "domain": [[0, "1"], [0, 1]]}, "domain"),
    ("gh", {"n": 17, "domain": [[0, 1, 2], [0, 1]]}, "domain"),
    ("ma-solve", {"n": 17, "domain": [[0, 10 ** 400], [0, 1]]}, "domain"),
])
def test_grid_values_of_the_wrong_kind_name_their_key(tmp_path, capsys, command, payload, key):
    cfg = _write(tmp_path / "cfg.json", payload)
    assert main([command, "--config", cfg, "--out", str(tmp_path)]) == 2
    assert "Traceback" not in capsys.readouterr().err
    error = _report(tmp_path)["error"]
    assert error["type"] == "InputError"
    assert key in error["message"].split()


def test_number_in_place_of_a_path_is_refused(tmp_path):
    # open() would take the number for a file descriptor of the running
    # process, read it and close it
    with open(tmp_path / "held.txt", "w") as held:
        for command, key in (("family-scan", "family"), ("embed", "family"),
                             ("legendre", "potential"), ("semiflat", "potential")):
            cfg = _write(tmp_path / "cfg.json", {key: held.fileno()})
            assert main([command, "--config", cfg, "--out", str(tmp_path)]) == 2
            assert _report(tmp_path)["error"]["type"] == "InputError"
            os.fstat(held.fileno())  # still open


def test_ma_solve_reports_krylov_failure(tmp_path, capsys, monkeypatch):
    from slmoduli import hessian

    # every linear solve asks its GMRES for rtol 0, which no residual reaches
    real = hessian.spsolve
    monkeypatch.setattr(hessian, "spsolve", lambda A, b, precond, rtol: real(A, b, precond, 0.0))
    cfg = _write(tmp_path / "cfg.json", {"boundary": "cosh(u1) + cosh(u2)", "n": 17})
    assert main(["ma-solve", "--config", cfg, "--out", str(tmp_path)]) == 2
    assert "Traceback" not in capsys.readouterr().err
    report = _report(tmp_path)
    assert report["error"]["type"] == "ConvergenceError"
    assert "GMRES" in report["error"]["message"]
    assert "checks" not in report


def test_report_is_deterministic(tmp_path):
    out1 = tmp_path / "a"
    out2 = tmp_path / "b"
    assert main(["cy-validate", "--out", str(out1)]) == 0
    assert main(["cy-validate", "--out", str(out2)]) == 0
    assert (out1 / "report.json").read_bytes() == (out2 / "report.json").read_bytes()
    assert (out1 / "run.log").exists()


def test_expression_evaluator_matches_numpy():
    u1 = np.linspace(-1.0, 1.0, 7)
    u2 = np.linspace(0.5, 1.5, 7)
    got = _eval_expression("-(u1**2 + u2**2) / 2 + 0.1*cosh(u1) - sqrt(u2) * pi", u1=u1, u2=u2)
    want = -(u1 ** 2 + u2 ** 2) / 2 + 0.1 * np.cosh(u1) - np.sqrt(u2) * np.pi
    assert np.array_equal(got, want)


@pytest.mark.parametrize(
    "expr",
    [
        "().__class__.__mro__[1].__subclasses__()",  # escape through the class graph
        "u1.__class__",  # attribute access on a grid variable
        "np.exp(u1)",
        "__import__('os')",
        "sin(u1, out=u1)",
        "u1[0]",
        "lambda: u1",
        "True",
        "sin",
        "2**2000",  # constants are floats: overflow, not an unbounded integer
    ],
)
def test_expression_evaluator_rejects(expr):
    with pytest.raises(InputError):
        _eval_expression(expr, u1=np.zeros(3))


def test_expression_escape_exits_2(tmp_path, capsys):
    cfg = _write(tmp_path / "cfg.json", {"V": "().__class__.__mro__[1].__subclasses__()"})
    assert main(["gh", "--config", cfg, "--out", str(tmp_path)]) == 2
    assert "Traceback" not in capsys.readouterr().err
    assert _report(tmp_path)["error"]["type"] == "InputError"


# Runs in a fresh interpreter; prints one JSON line [stage, exit code, loaded]
# per step, ``loaded`` being the modules of the package, scipy and numpy.random
# in ``sys.modules`` after it, so a test sees which step, if any, pulls a
# module in.
_IMPORT_PROBE = textwrap.dedent("""
    import json, sys
    from pathlib import Path

    import slmoduli, slmoduli.cli

    def loaded():
        return sorted(name for name in sys.modules
                      if name.startswith("slmoduli") or name in ("scipy", "numpy.random"))

    tmp = Path(sys.argv[1])
    print(json.dumps(["import", 0, loaded()]))
    potential = {"axes": [[-1, 1, 17], [-1, 1, 17]], "expr": "(u1**2 + u2**2) / 2"}
    steps = [
        ("cy-validate", {}, []),
        ("family-scan", {"family": "std:2", "grid": {"n": 3}}, []),
        ("embed", {"grid": {"n": 3}}, []),
        ("semiflat", {"potential": potential}, ["--oracle"]),
        ("partial-legendre", {"potential": potential}, []),
        ("gh", {"n": 17}, []),
        ("ma-solve", {"n": 17}, []),
        ("legendre", {"potential": potential}, []),
    ]
    for command, config, flags in steps:
        cfg = tmp / f"{command}.json"
        cfg.write_text(json.dumps(config))
        code = slmoduli.cli.main([command, "--config", str(cfg), "--out", str(tmp / command), *flags])
        print(json.dumps([command, code, loaded()]))
""")


def _run_probe(code, tmp_path):
    """Run ``code`` in a fresh interpreter on this checkout's package."""
    src = str(Path(slmoduli.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", code, str(tmp_path)],
                          capture_output=True, text=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return proc


@pytest.fixture(scope="module")
def import_stages(tmp_path_factory):
    """Stage -> (exit code, set of loaded modules) of one ``_IMPORT_PROBE`` run."""
    proc = _run_probe(_IMPORT_PROBE, tmp_path_factory.mktemp("imports"))
    stages = {}
    for line in proc.stdout.splitlines():
        stage, code, loaded = json.loads(line)
        stages[stage] = (code, set(loaded))
    assert list(stages) == ["import", "cy-validate", "family-scan", "embed", "semiflat",
                            "partial-legendre", "gh", "ma-solve", "legendre"]
    return stages


def test_no_command_loads_scipy(import_stages):
    for stage, (code, loaded) in import_stages.items():
        assert code in (0, 1), stage
        assert "scipy" not in loaded, f"scipy was loaded by {stage}"
    assert import_stages["ma-solve"][0] == import_stages["legendre"][0] == 0


GRID_LAYER = {"slmoduli.fd", "slmoduli.hessian", "slmoduli.semiflat"}


def test_cli_import_loads_no_numerical_module(import_stages):
    assert import_stages["import"][1] == {"slmoduli", "slmoduli.cli", "slmoduli.errors"}


def test_fiber_commands_never_load_the_grid_layer(import_stages):
    # cy-validate, family-scan and embed import their own layer when they
    # run; embed's injectivity bound draws no random numbers
    code, loaded = import_stages["embed"]
    assert code == 0 and "slmoduli.family" in loaded
    assert not loaded & (GRID_LAYER | {"numpy.random"})
    assert GRID_LAYER <= import_stages["semiflat"][1]


def test_grid_commands_never_load_the_fiber_layer(tmp_path):
    # the mirror swap of a moduli chart lives with the chart, so the grid
    # layer imports nothing of family, forms, cymodel or multilinear
    probe = textwrap.dedent("""
        import json, sys
        from pathlib import Path

        import slmoduli.cli

        tmp = Path(sys.argv[1])
        potential = {"axes": [[-1, 1, 17], [-1, 1, 17]], "expr": "(u1**2 + u2**2) / 2",
                     "c": 1.0}
        codes = []
        for command, config in [("legendre", {"potential": potential}), ("ma-solve", {"n": 17}),
                                ("partial-legendre", {"potential": potential}),
                                ("semiflat", {"potential": potential}), ("gh", {"n": 17})]:
            cfg = tmp / f"{command}.json"
            cfg.write_text(json.dumps(config))
            codes.append(slmoduli.cli.main([command, "--config", str(cfg),
                                            "--out", str(tmp / command)]))
        print(json.dumps([codes, sorted(name for name in sys.modules
                                        if name.startswith("slmoduli."))]))
    """)
    codes, loaded = json.loads(_run_probe(probe, tmp_path).stdout)
    assert codes == [0] * 5
    assert set(loaded) == {"slmoduli.cli", "slmoduli.errors"} | GRID_LAYER


def test_grid_layer_loads_as_one_unit(tmp_path):
    # semiflat binds fd's functions by name, so it is loaded with hessian:
    # code that replaces an fd function at every binding finds its copies
    probe = textwrap.dedent("""
        import sys

        import slmoduli.hessian

        print("slmoduli.semiflat" in sys.modules)
    """)
    assert _run_probe(probe, tmp_path).stdout.split() == ["True"]


def test_exports_read_through_to_their_defining_module(monkeypatch):
    for name in slmoduli.__all__:
        value = getattr(slmoduli, name)
        assert value.__module__.startswith("slmoduli.") and name in dir(slmoduli)
        assert getattr(sys.modules[value.__module__], name) is value
    with pytest.raises(AttributeError):
        slmoduli.no_such_export
    # nothing is cached in the package: a function replaced on its module is
    # the one the package hands out, and the original comes back after
    assert not set(slmoduli.__all__) & set(vars(slmoduli))
    original = hessian.legendre_transform
    monkeypatch.setattr(hessian, "legendre_transform", len)
    assert slmoduli.legendre_transform is len
    monkeypatch.undo()
    assert slmoduli.legendre_transform is original


def test_ma_solve_does_not_load_numpy_ma(tmp_path):
    # np.median imports numpy.ma, a megabyte or two of resident memory; the
    # solver takes its median cofactors without it
    probe = textwrap.dedent("""
        import sys
        from pathlib import Path

        import slmoduli.cli

        tmp = Path(sys.argv[1])
        (tmp / "ma.json").write_text('{"n": 17, "boundary": "cosh(u1) + cosh(u2)"}')
        code = slmoduli.cli.main(["ma-solve", "--config", str(tmp / "ma.json"),
                                  "--out", str(tmp / "ma")])
        print(code, "numpy.ma" in sys.modules)
    """)
    assert _run_probe(probe, tmp_path).stdout.split() == ["0", "False"]


def test_chart_and_curvature_commands_make_no_stacked_lapack_call(tmp_path, monkeypatch):
    # the 2x2 Hessian eigenvalues, determinants and clamped cofactors are
    # taken in closed form; the Christoffel oracle's 4x4 inverse is not
    # among the patched routines
    def refuse(*args, **kwargs):
        raise AssertionError("stacked LAPACK call on 2x2 Hessians")

    for name in ("eigh", "eigvalsh", "det"):
        monkeypatch.setattr(np.linalg, name, refuse)
    exact = {"axes": [[-0.5, 0.5, 17], [0.5, 1.5, 17]],
             "expr": "u1**2 / (2 * u2) + u2**3 / 6", "c": 1.0}
    cosh = {"axes": [[-1, 1, 17], [-1, 1, 17]], "expr": "(u1**2 + u2**2) / 2 + 0.1*cosh(u1)"}
    runs = [("ma-solve", {"n": 17, "boundary": "cosh(u1) + cosh(u2)"}, [], {0}),
            ("legendre", {"potential": cosh}, [], {0}),
            ("partial-legendre", {"potential": exact}, [], {0}),
            ("semiflat", {"potential": exact}, ["--oracle"], {0, 1})]
    for command, config, flags, codes in runs:
        cfg = _write(tmp_path / f"{command}.json", config)
        out = tmp_path / command
        assert main([command, "--config", cfg, "--out", str(out), *flags]) in codes, command
        assert "checks" in _report(out), command


def test_ci_smoke_script_at_toy_sizes(tmp_path):
    # the console-script, memory-guard, thread-check and import steps of the CI
    # workflow, on this checkout's package through ``python -m slmoduli.cli``
    script = Path(__file__).resolve().parent.parent / "ci" / "smoke.py"
    src = str(Path(slmoduli.__file__).resolve().parent.parent)
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    cli = f"{sys.executable} -m slmoduli.cli"
    stdout = {}
    for check, extra in (("console", []), ("memory", ["--n", "33"]), ("threads", ["--n", "33"]),
                         ("imports", [])):
        proc = subprocess.run([sys.executable, str(script), check, "--slmoduli", cli,
                               "--tmp", str(tmp_path / check), *extra],
                              capture_output=True, text=True, env=env, timeout=300)
        assert proc.returncode == 0, proc.stderr
        assert "Traceback" not in proc.stderr
        stdout[check] = proc.stdout
    assert stdout["memory"].count("peak RSS") == 7
    assert stdout["threads"].count("identical at 1 and 2 BLAS threads") == 5
    assert stdout["imports"].count("none of slmoduli.fd") == 3
    assert stdout["imports"].count("none of slmoduli.family") == 5
