"""Console-script, memory-guard, thread and import checks of the slmoduli command line.

    python ci/smoke.py console [--slmoduli CMD] [--tmp DIR]
    python ci/smoke.py memory [--n N] [--slmoduli CMD] [--tmp DIR]
    python ci/smoke.py threads [--n N] [--slmoduli CMD] [--tmp DIR]
    python ci/smoke.py imports [--slmoduli CMD] [--tmp DIR]

``console`` checks the exit contract: a passing check exits 0 (cy-validate,
semiflat on a three-variable Monge-Ampere quadratic, and legendre on the
solution.csv of a 33 x 33 and of a 129 x 129 ma-solve with boundary
cosh(u1) + cosh(u2) on [-1, 1]^2), and a grid too small for its stencils, a
moduli grid with no nodes, a malformed model shorthand, a config that is not
a JSON object, an expression that is not finite on its grid, a Monge-Ampere
constant that is not positive, a domain range with no width, a fractional
fiber resolution or one below ``forms.MIN_RESOLUTION`` exits 2 with an error
line and no traceback.  ``memory``
runs gh, semiflat --oracle (on the paper's exact solution of det Hess = 1,
so it must pass), partial-legendre and legendre on N x N grids (default
257), then partial-legendre on the dual.csv that legendre wrote, so
the potential CSV reader runs at that size too, ma-solve at N x N with the
exact solution u1^2/(2 u2) + u2^3/6 on [-1/2, 1/2] x [1/2, 3/2] as its
boundary data, and family-scan of std:3
with its McLean check on a ``FIBER_N``^3 fiber grid; it fails when a command
exits with an unexpected code, prints a traceback, or peaks above
``LIMIT_MB`` of resident memory.  ``threads`` runs the five plane commands
under 1 and 2 BLAS threads and fails unless every output but ``run.log`` is
byte for byte the same (ma-solve is not yet thread-independent, so it is
left out).  ``imports`` runs cy-validate, family-scan and embed, then
legendre, ma-solve, partial-legendre, semiflat and gh, at toy size with
``PYTHONPROFILEIMPORTTIME=1`` and fails if a command exits non-zero or its
import profile names a module of ``FIBER_UNLOADED`` or of ``GRID_UNLOADED``:
the fiber commands never load the grid layer, nor numpy.random, and the
grid commands never load the fiber layer.  ``--slmoduli`` is the command
that runs the CLI (default ``slmoduli``, the installed console script);
``--tmp`` holds the configs and outputs (default: a new temporary
directory).  Exits 1 on the first failure.
"""

import argparse
import filecmp
import json
import os
import shlex
import subprocess
import sys
import tempfile
from pathlib import Path

LIMIT_MB = 60
FIBER_N = 80
BLAS_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
FIBER_UNLOADED = ("slmoduli.fd", "slmoduli.hessian", "slmoduli.semiflat", "numpy.random")
GRID_UNLOADED = ("slmoduli.family", "slmoduli.forms", "slmoduli.cymodel", "slmoduli.multilinear")
IMPORT_TIME = "import time:"


def _run(slmoduli, args, tmp, name, env=None):
    """Run one command; returns its exit code, its stderr and its own peak RSS in MB."""
    err_path = tmp / f"{name}.err"
    with open(err_path, "w") as err:
        proc = subprocess.Popen([*slmoduli, *args, "--out", str(tmp / name)],
                                stdout=subprocess.DEVNULL, stderr=err, env=env)
        # wait4 reaps the child with its own resource usage, not the maximum
        # over every child reaped so far
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    stderr = err_path.read_text()
    # an import-time profile is read by the caller, not echoed
    sys.stderr.writelines(line for line in stderr.splitlines(keepends=True)
                          if not line.startswith(IMPORT_TIME))
    return proc.returncode, stderr, usage.ru_maxrss / 1024


def _config(tmp, name, payload):
    path = tmp / f"{name}.json"
    path.write_text(payload if isinstance(payload, str) else json.dumps(payload))
    return str(path)


def console(slmoduli, tmp):
    quadratic = _config(tmp, "quadratic13", {"potential": {
        "axes": [[-1, 1, 13]] * 3, "expr": "(u1**2 + u2**2 + u3**2) / 2", "c": 1.0}})
    passing = [(["cy-validate"], "cy"), (["semiflat", "--config", quadratic], "sf13")]
    for n in (33, 129):
        solve = _config(tmp, f"ma{n}", {"boundary": "cosh(u1) + cosh(u2)", "n": n,
                                        "domain": [[-1, 1], [-1, 1]]})
        solution = _config(tmp, f"legendre-ma{n}",
                           {"potential": str(tmp / f"ma{n}" / "solution.csv")})
        passing += [(["ma-solve", "--config", solve], f"ma{n}"),
                    (["legendre", "--config", solution], f"legendre-ma{n}")]
    for args, name in passing:
        code, stderr, _ = _run(slmoduli, args, tmp, name)
        if code != 0 or "Traceback" in stderr:
            return f"slmoduli {args[0]} ({name}) exited {code}, not 0 without a traceback"
    for command, text, name in [("gh", '{"n": 6}', "gh6"),
                                ("ma-solve", "[]", "ma-list"),
                                ("family-scan", '{"grid": {"n": 0}}', "scan0"),
                                ("cy-validate", '{"model": "std:x"}', "cy-shorthand"),
                                ("gh", '{"V": "sqrt(y1 - 0.5) + 2", "n": 17}', "gh-sqrt"),
                                ("ma-solve", '{"n": 17, "solver": {"c": -1}}', "ma-negative-c"),
                                ("gh", '{"n": 17, "domain": [[0, 0], [0, 1]]}', "gh-flat"),
                                ("family-scan", '{"family": "std:2", "grid": {"n": 2}, '
                                 '"fiber_resolution": 8.9}', "scan-fraction"),
                                ("family-scan", '{"family": "std:2", "grid": {"n": 2}, '
                                 '"fiber_resolution": 4}', "scan-coarse")]:
        code, stderr, _ = _run(slmoduli, [command, "--config", _config(tmp, name, text)],
                               tmp, name)
        if code != 2 or "Traceback" in stderr:
            return (f"slmoduli {command} with config {text} exited {code}, "
                    "not 2 without a traceback")
    return None


def _guard_runs(tmp, n, dual):
    """(name, args, allowed exit codes) of gh, semiflat --oracle,
    partial-legendre and legendre on N x N grids, then of partial-legendre
    on ``dual``, the dual.csv of that legendre run."""
    gh = _config(tmp, f"gh{n}", {"n": n})
    exact = _config(tmp, f"exact{n}", {"potential": {
        "axes": [[-0.5, 0.5, n], [0.5, 1.5, n]], "expr": "u1**2 / (2 * u2) + u2**3 / 6",
        "c": 1.0}})
    legendre = _config(tmp, f"legendre{n}", {"potential": {
        "axes": [[-1, 1, n], [-1, 1, n]], "expr": "(u1**2 + u2**2) / 2 + 0.1*cosh(u1)"}})
    # the dual of a potential with det Hess != 1 has det Hess != 1, so its
    # Laplace residual fails prop3: exit 1 is the verdict, read from the CSV
    csv = _config(tmp, f"dual{n}", {"potential": str(dual)})
    return [("gh", ["gh", "--config", gh], {0}),
            ("semiflat", ["semiflat", "--oracle", "--config", exact], {0}),
            ("partial-legendre", ["partial-legendre", "--config", exact], {0}),
            ("legendre", ["legendre", "--config", legendre], {0}),
            ("partial-legendre-dual", ["partial-legendre", "--config", csv], {1})]


def memory(slmoduli, tmp, n):
    scan = _config(tmp, f"scan{FIBER_N}", {"family": "std:3", "fiber_resolution": FIBER_N})
    # ma-solve is not thread-independent yet, so it is guarded here and not
    # in _guard_runs, which the thread check shares
    solve = _config(tmp, f"ma{n}", {"boundary": "u1**2 / (2 * u2) + u2**3 / 6", "n": n,
                                    "domain": [[-0.5, 0.5], [0.5, 1.5]]})
    runs = [(name, args, codes, f"{n}^2", f"{name}{n}")
            for name, args, codes in _guard_runs(tmp, n, tmp / f"legendre{n}" / "dual.csv")]
    runs.append(("ma-solve", ["ma-solve", "--config", solve], {0}, f"{n}^2", f"ma{n}"))
    runs.append(("family-scan", ["family-scan", "--config", scan], {0}, f"{FIBER_N}^3",
                 f"scan{FIBER_N}"))
    for name, args, codes, size, out in runs:
        code, stderr, peak = _run(slmoduli, args, tmp, out)
        if code not in codes or "Traceback" in stderr:
            return f"slmoduli {name} at {size} exited {code}"
        print(f"slmoduli {name} at {size}: peak RSS {peak:.1f} MB (limit {LIMIT_MB} MB)")
        if peak > LIMIT_MB:
            return f"slmoduli {name} at {size} peaked at {peak:.1f} MB"
    return None


def threads(slmoduli, tmp, n):
    # the legendre run's two duals are byte-identical before the last run reads one
    for name, args, codes in _guard_runs(tmp, n, tmp / f"legendre{n}-threads1" / "dual.csv"):
        outs = []
        for count in (1, 2):
            env = {**os.environ, **dict.fromkeys(BLAS_VARIABLES, str(count))}
            code, stderr, _ = _run(slmoduli, args, tmp, f"{name}{n}-threads{count}", env)
            if code not in codes or "Traceback" in stderr:
                return f"slmoduli {name} at {n}^2 with {count} BLAS threads exited {code}"
            outs.append(tmp / f"{name}{n}-threads{count}")
        files = [sorted(p.name for p in out.iterdir() if p.name != "run.log") for out in outs]
        if files[0] != files[1]:
            return f"slmoduli {name} at {n}^2 wrote {files[0]} and {files[1]}"
        differ = [file for file in files[0]
                  if not filecmp.cmp(outs[0] / file, outs[1] / file, shallow=False)]
        if differ:
            return f"slmoduli {name} at {n}^2: {differ} differ between 1 and 2 BLAS threads"
        print(f"slmoduli {name} at {n}^2: {len(files[0])} outputs identical at 1 and 2 "
              "BLAS threads")
    return None


def imports(slmoduli, tmp):
    toy = _config(tmp, "toy-grid", {"grid": {"n": 3}, "fiber_resolution": 8})
    potential = _config(tmp, "toy-potential", {"potential": {
        "axes": [[-1, 1, 17], [-1, 1, 17]], "expr": "(u1**2 + u2**2) / 2", "c": 1.0}})
    plane = _config(tmp, "toy-plane", {"n": 17})
    runs = [(["cy-validate"], "slmoduli.cymodel", FIBER_UNLOADED),
            (["family-scan", "--config", toy], "slmoduli.cymodel", FIBER_UNLOADED),
            (["embed", "--config", toy], "slmoduli.cymodel", FIBER_UNLOADED),
            (["legendre", "--config", potential], "slmoduli.hessian", GRID_UNLOADED),
            (["ma-solve", "--config", plane], "slmoduli.hessian", GRID_UNLOADED),
            (["partial-legendre", "--config", potential], "slmoduli.hessian", GRID_UNLOADED),
            (["semiflat", "--config", potential], "slmoduli.hessian", GRID_UNLOADED),
            (["gh", "--config", plane], "slmoduli.semiflat", GRID_UNLOADED)]
    env = {**os.environ, "PYTHONPROFILEIMPORTTIME": "1"}
    for args, own, unloaded in runs:
        code, stderr, _ = _run(slmoduli, args, tmp, f"{args[0]}-imports", env)
        if code != 0 or "Traceback" in stderr:
            return f"slmoduli {args[0]} exited {code}, not 0 without a traceback"
        # each profile line ends in "| <module name>"
        names = {line.rsplit("|", 1)[-1].strip() for line in stderr.splitlines()
                 if line.startswith(IMPORT_TIME)}
        if own not in names:
            return f"slmoduli {args[0]} printed no import profile naming {own}"
        loaded = [name for name in unloaded if name in names]
        if loaded:
            return f"slmoduli {args[0]} loaded {', '.join(loaded)}"
        print(f"slmoduli {args[0]}: {len(names)} modules imported, none of "
              f"{', '.join(unloaded)}")
    return None


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("check", choices=["console", "memory", "threads", "imports"])
    parser.add_argument("--slmoduli", default="slmoduli", help="command that runs the CLI")
    parser.add_argument("--tmp", default=None, help="directory for configs and outputs")
    parser.add_argument("--n", type=int, default=257,
                        help="nodes per axis of the memory guard and the thread check")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory() as scratch:
        tmp = Path(args.tmp or scratch)
        tmp.mkdir(parents=True, exist_ok=True)
        slmoduli = shlex.split(args.slmoduli)
        if args.check == "console":
            failure = console(slmoduli, tmp)
        elif args.check == "imports":
            failure = imports(slmoduli, tmp)
        else:
            failure = {"memory": memory, "threads": threads}[args.check](slmoduli, tmp, args.n)
    if failure:
        print(f"error: {failure}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
