"""Console-script and memory-guard checks of the slmoduli command line.

    python ci/smoke.py console [--slmoduli CMD] [--tmp DIR]
    python ci/smoke.py memory [--n N] [--slmoduli CMD] [--tmp DIR]

``console`` checks the exit contract: a passing check exits 0 (cy-validate,
and semiflat on a three-variable Monge-Ampere quadratic), and a grid too
small for its stencils or a config that is not a JSON object exits 2 with an
error line and no traceback.  ``memory`` runs gh, semiflat --oracle,
partial-legendre and legendre on N x N grids (default 257) and fails when a
command exits with an unexpected code, prints a traceback, or peaks above
``LIMIT_MB`` of resident memory.  ``--slmoduli`` is the command that runs the
CLI (default ``slmoduli``, the installed console script); ``--tmp`` holds the
configs and outputs (default: a new temporary directory).  Exits 1 on the
first failure.
"""

import argparse
import json
import os
import shlex
import subprocess
import sys
import tempfile
from pathlib import Path

LIMIT_MB = 60


def _run(slmoduli, args, tmp, name):
    """Run one command; returns its exit code, its stderr and its own peak RSS in MB."""
    err_path = tmp / f"{name}.err"
    with open(err_path, "w") as err:
        proc = subprocess.Popen([*slmoduli, *args, "--out", str(tmp / name)],
                                stdout=subprocess.DEVNULL, stderr=err)
        # wait4 reaps the child with its own resource usage, not the maximum
        # over every child reaped so far
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    stderr = err_path.read_text()
    sys.stderr.write(stderr)
    return proc.returncode, stderr, usage.ru_maxrss / 1024


def _config(tmp, name, payload):
    path = tmp / f"{name}.json"
    path.write_text(payload if isinstance(payload, str) else json.dumps(payload))
    return str(path)


def console(slmoduli, tmp):
    quadratic = _config(tmp, "quadratic13", {"potential": {
        "axes": [[-1, 1, 13]] * 3, "expr": "(u1**2 + u2**2 + u3**2) / 2", "c": 1.0}})
    for args, name in [(["cy-validate"], "cy"), (["semiflat", "--config", quadratic], "sf13")]:
        code, stderr, _ = _run(slmoduli, args, tmp, name)
        if code != 0 or "Traceback" in stderr:
            return f"slmoduli {args[0]} exited {code}, not 0 without a traceback"
    for command, text, name in [("gh", '{"n": 6}', "gh6"), ("ma-solve", "[]", "ma-list")]:
        code, stderr, _ = _run(slmoduli, [command, "--config", _config(tmp, name, text)],
                               tmp, name)
        if code != 2 or "Traceback" in stderr:
            return f"slmoduli {command} with config {text} exited {code}, not 2 without a traceback"
    return None


def memory(slmoduli, tmp, n):
    gh = _config(tmp, f"gh{n}", {"n": n})
    exact = _config(tmp, f"exact{n}", {"potential": {
        "axes": [[-0.5, 0.5, n], [0.5, 1.5, n]], "expr": "u1**2 / (2 * u2) + u2**3 / 6",
        "c": 1.0}})
    legendre = _config(tmp, f"legendre{n}", {"potential": {
        "axes": [[-1, 1, n], [-1, 1, n]], "expr": "(u1**2 + u2**2) / 2 + 0.1*cosh(u1)"}})
    # the verdict of semiflat on the exact solution is not checked here, only
    # that it is a verdict (exit 0 or 1) and not an error
    runs = [(["gh", "--config", gh], {0}),
            (["semiflat", "--oracle", "--config", exact], {0, 1}),
            (["partial-legendre", "--config", exact], {0}),
            (["legendre", "--config", legendre], {0})]
    for args, codes in runs:
        code, stderr, peak = _run(slmoduli, args, tmp, f"{args[0]}{n}")
        if code not in codes or "Traceback" in stderr:
            return f"slmoduli {args[0]} at {n}^2 exited {code}"
        print(f"slmoduli {args[0]} at {n}^2: peak RSS {peak:.1f} MB (limit {LIMIT_MB} MB)")
        if peak > LIMIT_MB:
            return f"slmoduli {args[0]} at {n}^2 peaked at {peak:.1f} MB"
    return None


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("check", choices=["console", "memory"])
    parser.add_argument("--slmoduli", default="slmoduli", help="command that runs the CLI")
    parser.add_argument("--tmp", default=None, help="directory for configs and outputs")
    parser.add_argument("--n", type=int, default=257, help="nodes per axis of the memory guard")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory() as scratch:
        tmp = Path(args.tmp or scratch)
        tmp.mkdir(parents=True, exist_ok=True)
        slmoduli = shlex.split(args.slmoduli)
        if args.check == "console":
            failure = console(slmoduli, tmp)
        else:
            failure = memory(slmoduli, tmp, args.n)
    if failure:
        print(f"error: {failure}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
