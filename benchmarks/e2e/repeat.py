"""Repeatability check: run a workload several times, compare the spread
of every end-to-end metric with its bound.

    python -m benchmarks.e2e.repeat --runs 5 [workload ...]

Each run is a fresh ``run.py`` process with its own seed (the default
seed plus the run's index), as the driver's are.  Per metric the table
shows the median and ``(max - min) / median`` against the bound in
``BENCHMARK.json``; the exit code is nonzero when a spread exceeds its
bound or a run reported a failed operation.  The interquartile distance
over the median (the driver's own statistic, ``statistics.quantiles(values,
n=4)``) is printed beside it from four runs up, for reading only.

The rule for whoever changes the benchmark: a metric that does not repeat
gets longer rounds or is demoted to a per-layer metric before its bound is
widened.  The clock metrics already carry the contract's largest bound,
because this box's loud spells need it (README, "Bounds"); there is nothing
left to widen.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from statistics import median
from typing import List

from benchmarks.e2e import DEFAULT_SEED, E2E_DIR, REPO_ROOT, load_contract
from benchmarks.e2e.stats import iqr_ratio, range_ratio


def run_once(workload: str, seed: int, seconds: int) -> dict:
    done = subprocess.run(
        [
            sys.executable, str(E2E_DIR / "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", "0",
        ],
        cwd=REPO_ROOT, capture_output=True, text=True, timeout=600,
    )
    if done.returncode != 0:
        sys.stderr.write(done.stderr[-4000:])
        raise RuntimeError(f"{workload} seed {seed} exited {done.returncode}")
    line = done.stdout.strip().splitlines()[-1]
    print(f"# {workload} seed {seed}: {line}")
    return json.loads(line)


def check(workload: str, results: List[dict], contract: dict) -> bool:
    """Print the spread table of one workload; True when it passes."""
    failed = sum(r["failed"] for r in results)
    ok = failed == 0 and all(r["correct"] for r in results)
    print(f"\n## {workload}: {len(results)} runs, {failed} failed operations")
    print(f"{'metric':24s} {'median':>14s} {'unit':>5s} {'range':>8s} "
          f"{'iqr':>8s} {'bound':>7s}")
    for spec in contract["end_to_end"]:
        values = [r["metrics"][spec["name"]]["value"] for r in results]
        spread = range_ratio(values)
        verdict = ""
        if spread > spec["bound"]:
            verdict = "  BEYOND BOUND"
            ok = False
        iqr = f"{iqr_ratio(values):8.2%}" if len(values) >= 4 else "       -"
        print(
            f"{spec['name']:24s} {median(values):14.4f} "
            f"{spec['unit']:>5s} {spread:8.2%} {iqr} {spec['bound']:7.0%}{verdict}"
        )
    return ok


def main(argv=None) -> int:
    contract = load_contract()
    names = [w["name"] for w in contract["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workloads", nargs="*", default=names, metavar="workload")
    parser.add_argument("--runs", type=int, default=5)
    args = parser.parse_args(argv)
    unknown = sorted(set(args.workloads) - set(names))
    if unknown:
        parser.error(f"unknown workload(s) {unknown}; expected {names}")

    ok = True
    for workload in args.workloads:
        results = [
            run_once(workload, DEFAULT_SEED + index, contract["run_seconds"])
            for index in range(args.runs)
        ]
        ok = check(workload, results, contract) and ok
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
