"""A/A check: two sets of runs of the same code, compared against the bounds.

Usage, from the root of a checkout::

    python3 perfbench/aa.py [--runs 5]

It runs every workload of ``BENCHMARK.json`` at its ``run_seconds``.  Set A
uses seeds 1..runs and set B seeds runs+1..2*runs; the runs of the two sets
alternate, so a drift of the host shows in both.  For every end-to-end
metric of every workload it prints each set's median, the spread of all
runs (quartile distance over median, as ``statistics.quantiles(n=4)`` gives
the quartiles) and how much worse set B's median is than set A's, each next
to the metric's bound from ``BENCHMARK.json``.  It exits with code 1 when a
spread or a shift between the sets exceeds its bound, when a run fails or
when the sets differ in their share of failed operations.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List

ROOT = Path(__file__).resolve().parent.parent
RUN_DEADLINE_S = 900.0


def spread(values: List[float]) -> float:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / median if median else float("inf")


def worse_by(first: float, second: float, better: str) -> float:
    """How much worse ``second`` is than ``first``, as a share of ``first``."""
    if not first:
        return 0.0 if not second else float("inf")
    change = (second - first) / first
    return change if better == "lower" else -change


def one_run(workload: str, seed: int, seconds: int) -> Dict[str, Any]:
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=RUN_DEADLINE_S,
    )
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise RuntimeError(
            f"{workload} seed {seed} exited {done.returncode}: {done.stderr[-2000:]}"
        )
    return json.loads(lines[-1])


def main(argv=None) -> int:
    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [workload["name"] for workload in config["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=5, help="runs per set")
    args = parser.parse_args(argv)
    if args.runs < 2:
        parser.error("--runs must be >= 2")

    results: Dict[str, Dict[str, List[Dict[str, Any]]]] = {
        workload: {"A": [], "B": []} for workload in names
    }
    for index in range(args.runs):
        for group, seed in (("A", 1 + index), ("B", 1 + args.runs + index)):
            for workload in names:
                started = time.perf_counter()
                result = one_run(workload, seed, config["run_seconds"])
                results[workload][group].append(result)
                print(
                    f"run {group}{index} {workload} seed {seed}: "
                    f"{time.perf_counter() - started:.0f} s, "
                    f"correct={result['correct']}",
                    file=sys.stderr, flush=True,
                )

    ok = True
    print(f"{'workload':16} {'metric':20} {'median A':>12} {'median B':>12} "
          f"{'spread':>7} {'B worse':>8} {'bound':>6}")
    for workload in names:
        sets = results[workload]
        shares = {
            group: sum(r["failed"] for r in runs) / sum(r["attempted"] for r in runs)
            for group, runs in sets.items()
        }
        if any(not r["correct"] for runs in sets.values() for r in runs):
            print(f"{workload}: a run failed its output checks")
            ok = False
        if shares["A"] != shares["B"]:
            print(f"{workload}: failed share differs: {shares}")
            ok = False
        for metric in config["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            a = [r["metrics"][name]["value"] for r in sets["A"]]
            b = [r["metrics"][name]["value"] for r in sets["B"]]
            width = spread(a + b)
            shift = worse_by(statistics.median(a), statistics.median(b), metric["better"])
            flags = []
            if width > bound:
                flags.append("SPREAD")
            if shift > bound:
                flags.append("SHIFT")
            if width > bound / 3:
                flags.append("(spread above a third of the bound)")
            ok = ok and not any(flag in ("SPREAD", "SHIFT") for flag in flags)
            print(
                f"{workload:16} {name:20} {statistics.median(a):12.5g} "
                f"{statistics.median(b):12.5g} {width:7.2%} {shift:8.2%} "
                f"{bound:6.0%} {' '.join(flags)}"
            )
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
