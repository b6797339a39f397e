"""Benchmark of the slmoduli CLI: one command, three workloads.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload fiber --seed 1 --seconds 25 --trace 0

The workload's inputs are generated from the seed and every job goes through
the real user path, ``slmoduli.cli.main(argv)`` on generated config files.
One closed-loop client in this process runs the job list pass after pass.
With ``--trace 0`` the result holds the end-to-end metrics; ``setup_s`` is
the cold start of a fresh interpreter up to ``slmoduli.cli`` imported and the
inputs generated, sampled in sequential child processes spread over the run.
With ``--trace 1`` untraced and traced passes alternate and the result holds
the per-layer metrics of ``tracer.py``.

Human-readable detail goes to standard output first; the last line is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

import argparse
import os
import sys
from pathlib import Path

# BLAS threads are pinned before numpy is imported anywhere in the process;
# the set-up probes inherit the setting through the environment.
BLAS_THREADS = 1
if __name__ == "__main__":
    for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[_var] = str(BLAS_THREADS)

import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_SAMPLES = 5
PROBE_TIMEOUT_S = 60

sys.path.insert(0, str(HERE))
import workloads  # noqa: E402


class BenchError(Exception):
    """The benchmark cannot run here (no sources, broken probe)."""


def _import_cli():
    """Import slmoduli.cli from the checkout's ``src``, never from elsewhere."""
    if not (SRC / "slmoduli" / "cli.py").is_file():
        raise BenchError(f"no slmoduli sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import slmoduli.cli as cli

    if Path(cli.__file__).resolve().parent != (SRC / "slmoduli").resolve():
        raise BenchError(f"slmoduli.cli imported from {cli.__file__}, not {SRC}")
    return cli


def probe(args):
    """Child side of a set-up sample: import, generate, report the clock."""
    _import_cli()
    workloads.generate(args.workload, args.seed, args.workdir)
    print(json.dumps({"ready": time.monotonic()}))


def setup_sample(args, workdir):
    """One cold start: a fresh interpreter until the inputs are generated."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--probe",
           "--workload", args.workload, "--seed", str(args.seed),
           "--workdir", str(workdir)]
    start = time.monotonic()
    proc = subprocess.run(cmd, capture_output=True, text=True,
                          timeout=PROBE_TIMEOUT_S, cwd=ROOT)
    if proc.returncode != 0:
        raise BenchError(f"set-up probe failed: {proc.stderr.strip()[-500:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])["ready"] - start


def _report(job):
    try:
        with open(job.out / "report.json") as fh:
            return json.load(fh)
    except (OSError, ValueError):
        return None


def _failing_checks(report):
    checks = report.get("axioms") if report.get("command") == "cy-validate" else report.get("checks")
    return sorted(name for name, check in (checks or {}).items() if not check["pass"])


def judge(job, code, error):
    """Classify one job outcome: (failed, known_defect, reason)."""
    if error is not None:
        return True, False, f"raised {error}"
    if code == 2:
        return True, False, "exit 2 (input error)"
    report = _report(job)
    if report is None or report.get("command") != job.command:
        return True, False, "no parseable report.json"
    failing = _failing_checks(report)
    if (code == 0) != (not failing):
        return True, False, f"exit {code} disagrees with failing checks {failing}"
    missed = sorted(job.must_fail - set(failing))
    if code == job.expected and not missed:
        return False, False, "ok"
    reason = f"exit {code}, expected {job.expected}, failing checks {failing}"
    if missed:
        return True, False, f"{reason}, but not {missed}"
    if job.known_defect and code == 1 and set(failing) <= job.known_defect[1]:
        return True, True, f"known defect: {job.known_defect[0]} ({reason})"
    return True, False, reason


def run_pass(cli, jobs, tracer=None):
    """One closed-loop pass over the job list; returns (seconds, outcomes)."""
    for job in jobs:
        (job.out / "report.json").unlink(missing_ok=True)
    results = []
    start = time.perf_counter()
    for job in jobs:
        if tracer is not None:
            tracer.job = job.name
        code = error = None
        try:
            code = cli.main(job.argv())
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:  # a crash is an outcome to record, not to stop on
            error = f"{type(exc).__name__}: {exc}"
        results.append((job, code, error))
    elapsed = time.perf_counter() - start
    return elapsed, [(job, *judge(job, code, error)) for job, code, error in results]


class Tally:
    """Attempted and failed jobs over every pass of the run."""

    def __init__(self):
        self.attempted = 0
        self.failures = {}  # (job name, reason) -> [known defect, count]

    def add(self, outcomes):
        for job, failed, known, reason in outcomes:
            self.attempted += 1
            if failed:
                self.failures.setdefault((job.name, reason), [known, 0])[1] += 1

    @property
    def failed(self):
        return sum(count for _, count in self.failures.values())

    @property
    def unexpected(self):
        return [key for key, (known, _) in self.failures.items() if not known]


def _fits(deadline, last):
    """Whether another pass lasting about ``last`` seconds ends by ``deadline``."""
    return time.perf_counter() + last <= deadline


def run_untraced(cli, workload, args, tally, workdir):
    """Warm-up pass, then warm passes with the set-up samples spread between them."""
    deadline = time.perf_counter() + args.seconds
    warmup, outcomes = run_pass(cli, workload.jobs)
    tally.add(outcomes)
    passes, setup = [], []
    while True:
        if len(setup) < SETUP_SAMPLES:
            setup.append(setup_sample(args, workdir / f"probe{len(setup)}"))
        if not passes or _fits(deadline, passes[-1]):
            elapsed, outcomes = run_pass(cli, workload.jobs)
            tally.add(outcomes)
            passes.append(elapsed)
        elif len(setup) == SETUP_SAMPLES:
            return warmup, passes, setup


def run_traced(cli, workload, args, tally):
    """Warm-up pass, then untraced and traced passes in alternation."""
    import tracer as tr

    deadline = time.perf_counter() + args.seconds
    warmup, outcomes = run_pass(cli, workload.jobs)
    tally.add(outcomes)
    commands = {job.name: job.command for job in workload.jobs}
    plain, traced, layers, spans, absent = [], [], [], [], []
    while not traced or _fits(deadline, plain[-1] + traced[-1]):
        elapsed, outcomes = run_pass(cli, workload.jobs)
        tally.add(outcomes)
        plain.append(elapsed)
        with tr.Tracer(tr.TARGETS) as tracer:
            elapsed, outcomes = run_pass(cli, workload.jobs, tracer)
        tally.add(outcomes)
        traced.append(elapsed)
        layers.append(tr.summarize(tracer.spans, commands))
        spans.append(tracer.spans)
        absent = tracer.absent
    metrics = {name: {"value": statistics.median(layer[name] for layer in layers), "unit": unit}
               for name, unit in tr.metric_units().items()}
    untraced = statistics.median(plain)
    metrics["untraced.warmup_s"] = {"value": warmup, "unit": "s"}
    metrics["untraced.pass_s"] = {"value": untraced, "unit": "s"}
    metrics["trace.overhead_s"] = {"value": statistics.median(traced) - untraced, "unit": "s"}
    lines = [f"untraced pass_s {untraced:.4f} s (median, n={len(plain)})",
             f"traced pass_s {statistics.median(traced):.4f} s (median, n={len(traced)})",
             f"absent targets: {', '.join(absent) or 'none'}"]
    return metrics, lines, spans


def _write_spans(path, all_spans):
    payload = [
        [{"name": s.name, "start": s.start, "end": s.end, "parent": s.parent,
          "job": s.job, **s.counts} for s in spans]
        for spans in all_spans
    ]
    path.write_text(json.dumps(payload))


def _samples(values):
    return " ".join(f"{x:.4f}" for x in values)


def _print_detail(workload, args, tally, lines):
    print(f"workload {workload.name} seed {args.seed} "
          f"blas_threads {BLAS_THREADS} (nproc {os.cpu_count()}) closed loop, 1 client")
    for draw in workload.draws:
        print(f"draw {draw.name} = {json.dumps(draw.value)} from {draw.stated_range}")
    for line in lines:
        print(line)
    for (name, reason), (known, count) in tally.failures.items():
        kind = "known" if known else "UNEXPECTED"
        print(f"failed {kind} {name} x{count}: {reason}")
    print(f"fail_ratio {tally.failed / tally.attempted:.4f} ratio "
          f"({tally.failed} of {tally.attempted} jobs)")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--workdir", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.probe:
        probe(args)
        return 0

    run_root = ROOT / ".perfbench_run"
    workdir = run_root / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        cli = _import_cli()
        workload = workloads.generate(args.workload, args.seed, workdir / "main")
        tally = Tally()
        if args.trace:
            metrics, lines, spans = run_traced(cli, workload, args, tally)
            spans_path = run_root / f"{args.workload}-{args.seed}.spans.json"
            _write_spans(spans_path, spans)
            lines.append(f"spans written to {spans_path.relative_to(ROOT)}")
            lines += [f"{name} {m['value']:.6g} {m['unit']}" for name, m in metrics.items()]
        else:
            warmup, passes, setup = run_untraced(cli, workload, args, tally, workdir)
            metrics = {
                "setup_s": {"value": statistics.median(setup), "unit": "s"},
                "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                                / 1024.0, "unit": "MB"},
                "ok_ratio": {"value": 1.0 - tally.failed / tally.attempted, "unit": "ratio"},
            }
            lines = [
                f"setup_s {metrics['setup_s']['value']:.4f} s (median, n={len(setup)}): "
                + _samples(setup),
                f"warmup_s {warmup:.4f} s (n=1)",
                f"pass_s {statistics.median(passes):.4f} s (median, n={len(passes)}): "
                + _samples(passes),
                f"peak_rss_mb {metrics['peak_rss_mb']['value']:.1f} MB (n=1)",
                f"ok_ratio {metrics['ok_ratio']['value']:.4f} ratio (n={tally.attempted})",
            ]
    except (BenchError, subprocess.SubprocessError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    _print_detail(workload, args, tally, lines)
    print(json.dumps({
        "correct": not tally.unexpected,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
