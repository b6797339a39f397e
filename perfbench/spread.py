"""Run the benchmark over several seeds and report each metric's spread.

Run from the root of a source checkout:

    python3 perfbench/spread.py --seeds 101-110 --csv .perfbench_run/spread.csv

Each workload runs once per seed with ``--trace 0``, one run at a time.  One
CSV row per run holds the gated metrics of the result line and the ungated
``warmup_s`` and ``pass_s`` of the detail lines.  For each workload and metric
the summary gives the median and the spread: the distance between the first
and third quartile of the runs (``statistics.quantiles(values, n=4)``) over
their median.
"""

import argparse
import csv
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
import workloads  # noqa: E402

UNGATED = ("warmup_s", "pass_s")


def seed_range(text):
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def one_run(workload, seed, seconds):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    start = time.perf_counter()
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=HERE.parent)
    row = {"workload": workload, "seed": seed, "exit": proc.returncode,
           "wall_s": round(time.perf_counter() - start, 3)}
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return row
    result = json.loads(lines[-1])
    row.update(correct=result["correct"], attempted=result["attempted"], failed=result["failed"])
    row.update({name: m["value"] for name, m in result["metrics"].items()})
    for line in lines:
        name, _, rest = line.partition(" ")
        if name in UNGATED:
            row[name] = float(rest.split()[0])
    return row


def summary(rows):
    for workload in dict.fromkeys(row["workload"] for row in rows):
        runs = [row for row in rows if row["workload"] == workload]
        print(f"{workload}: {len(runs)} runs, exits {sorted({r['exit'] for r in runs})}, "
              f"max wall {max(r['wall_s'] for r in runs):.1f} s")
        names = [k for k in runs[0] if k not in ("workload", "seed", "exit", "wall_s", "correct")]
        for name in names:
            values = [r[name] for r in runs if name in r]
            if len(values) < 2:
                continue
            q1, _, q3 = statistics.quantiles(values, n=4)
            median = statistics.median(values)
            spread = (q3 - q1) / median if median else float("nan")
            print(f"  {name:12s} median {median:11.4f} spread {spread:.3f}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=seed_range, required=True, help="e.g. 101-110")
    parser.add_argument("--workloads", nargs="+", default=list(workloads.WORKLOADS))
    parser.add_argument("--seconds", type=int,
                        default=json.loads((HERE.parent / "BENCHMARK.json").read_text())["run_seconds"])
    parser.add_argument("--csv", type=Path, required=True)
    args = parser.parse_args(argv)
    rows = [one_run(w, seed, args.seconds) for w in args.workloads for seed in args.seeds]
    fields = list(dict.fromkeys(k for row in rows for k in row))
    args.csv.parent.mkdir(parents=True, exist_ok=True)
    with open(args.csv, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=fields)
        writer.writeheader()
        writer.writerows(rows)
    summary(rows)
    return 0 if all(row["exit"] == 0 and row.get("correct") for row in rows) else 1


if __name__ == "__main__":
    sys.exit(main())
