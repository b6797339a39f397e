"""Batch interface: every command, report shape, exit codes."""

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

import slmoduli
from slmoduli.cli import _eval_expression, main
from slmoduli.errors import InputError
from slmoduli.hessian import load_potential


def _write(path, payload):
    path.write_text(json.dumps(payload))
    return str(path)


def _report(out):
    with open(out / "report.json") as fh:
        return json.load(fh)


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
        {"family": "std:2", "grid": {"n": 3}, "fiber_resolution": 8},
    )
    assert main(["family-scan", "--config", cfg, "--out", str(tmp_path)]) == 0
    report = _report(tmp_path)
    for key in ("slag_restriction", "mclean", "prop2", "thm3"):
        assert report["checks"][key]["pass"], key
    scan = (tmp_path / "scan.csv").read_text().splitlines()
    assert scan[0].startswith("t_1,t_2,vol_H1")
    assert len(scan) == 10


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


def test_ma_solve_and_partial_legendre(tmp_path):
    cfg = _write(
        tmp_path / "ma.json", {"boundary": "cosh(u1) + cosh(u2)", "n": 65}
    )
    assert main(["ma-solve", "--config", cfg, "--out", str(tmp_path)]) == 0
    report = _report(tmp_path)
    assert report["iterations"] <= 15
    cfg2 = _write(
        tmp_path / "pl.json", {"potential": str(tmp_path / "solution.csv")}
    )
    assert main(["partial-legendre", "--config", cfg2, "--out", str(tmp_path)]) == 0
    assert _report(tmp_path)["checks"]["prop3"]["pass"]


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


def test_semiflat_ma_residual_from_stored_hessian(tmp_path):
    from slmoduli.cli import _resolve_potential
    from slmoduli.hessian import ma_residual

    spec = {
        "axes": [[-1, 1, 33], [-0.5, 1, 29]],
        "expr": "u1**4/12 + u1**2/2 + u2**2/2 + 0.1*u1*u2",
        "c": 1.3,
    }
    cfg = _write(tmp_path / "cfg.json", {"potential": spec})
    main(["semiflat", "--config", cfg, "--out", str(tmp_path)])
    pot = _resolve_potential(spec)
    trim = (slice(3, -3),) * 2
    expected = float(np.max(np.abs(ma_residual(pot, pot.c)[trim])))
    assert _report(tmp_path)["ma_residual_max"] == expected


def test_gh_command(tmp_path):
    assert main(["gh", "--out", str(tmp_path)]) == 0
    report = _report(tmp_path)
    assert report["checks"]["ricci_flat"]["pass"]


def test_config_error_exit_code(tmp_path):
    assert main(["cy-validate", "--config", "/nonexistent.json",
                 "--out", str(tmp_path)]) == 2
    assert main(["gh", "--tol", "-1", "--out", str(tmp_path)]) == 2
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
        ("ma-solve",
         {"boundary": "cosh(u1) + cosh(u2)", "n": 17, "solver": {"max_iter": 1}},
         "ConvergenceError"),
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
    ],
)
def test_rejected_input_exit_code_and_report(tmp_path, capsys, command, payload, error):
    command, *flags = command.split()
    (tmp_path / "dir").mkdir()
    unreadable = tmp_path / "unreadable"
    unreadable.write_text("{")
    unreadable.chmod(0)
    paths = {"@dir": tmp_path / "dir", "@unreadable": unreadable,
             "@under_file": unreadable / "potential.csv"}
    payload = {key: str(paths.get(value, value)) if isinstance(value, str) else value
               for key, value in payload.items()}
    cfg = _write(tmp_path / "cfg.json", payload)
    assert main([command, "--config", cfg, "--out", str(tmp_path), *flags]) == 2
    assert "Traceback" not in capsys.readouterr().err
    report = _report(tmp_path)
    assert report["command"] == command
    assert report["error"]["type"] == error
    assert report["error"]["message"]
    assert "checks" not in report
    log = (tmp_path / "run.log").read_text().splitlines()
    assert log[-1].endswith(f"{command} exit=2")


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


# Runs in a fresh interpreter; prints one line "<stage> <exit code> <scipy loaded>"
# per step, so the test sees which step, if any, pulls scipy in.
_IMPORT_PROBE = textwrap.dedent("""
    import json, sys
    from pathlib import Path

    import slmoduli, slmoduli.cli

    tmp = Path(sys.argv[1])
    print("import", 0, "scipy" in sys.modules)
    potential = {"axes": [[-1, 1, 17], [-1, 1, 17]], "expr": "(u1**2 + u2**2) / 2"}
    steps = [
        ("cy-validate", {}, []),
        ("family-scan", {"family": "std:2", "grid": {"n": 3}, "fiber_resolution": 8}, []),
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
        print(command, code, "scipy" in sys.modules)
""")


def test_no_command_loads_scipy(tmp_path):
    src = str(Path(slmoduli.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", _IMPORT_PROBE, str(tmp_path)],
                          capture_output=True, text=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    stages = {}
    for line in proc.stdout.splitlines():
        stage, code, loaded = line.split()
        stages[stage] = (int(code), loaded == "True")
    assert list(stages) == ["import", "cy-validate", "family-scan", "embed", "semiflat",
                            "partial-legendre", "gh", "ma-solve", "legendre"]
    for stage, (code, loaded) in stages.items():
        assert code in (0, 1), stage
        assert not loaded, f"scipy was loaded by {stage}"
    assert stages["ma-solve"][0] == stages["legendre"][0] == 0
