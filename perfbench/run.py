"""Run one workload of the benchmark and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload tcp_closed --seed 1 --seconds 20 --trace 0

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs the same
workload with spans around each layer's calls and prints the per-layer
metrics.  The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  A failed output
check exits with code 1; a checkout without the program's sources, or a
run past its deadline, exits with code 2 without printing a result.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import math
import os
import signal
import statistics
import sys
import time
from pathlib import Path
from typing import List

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("tcp_closed", "tcp_paced_churn", "paper_table1")
#: The whole run, set-up included, ends by this deadline.
RUN_DEADLINE_S = 170
#: Time allowed to reap what is left running when the run ends.
REAP_DEADLINE_S = 5.0
PR_SET_CHILD_SUBREAPER = 36


class RunDeadline(Exception):
    """The run went past :data:`RUN_DEADLINE_S`."""


def _deadline(signum: int, frame: object) -> None:
    raise RunDeadline(f"the run took longer than {RUN_DEADLINE_S} s")


def _adopt_orphans() -> None:
    """Make this process the child subreaper of the processes it starts, so
    one orphaned by its parent is re-parented here, not to init."""
    try:
        ctypes.CDLL(None, use_errno=True).prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0)
    except (OSError, AttributeError):
        pass


def _children() -> List[int]:
    found: List[int] = []
    for task in os.listdir("/proc/self/task"):
        try:
            with open(f"/proc/self/task/{task}/children") as handle:
                found += [int(pid) for pid in handle.read().split()]
        except OSError:
            pass
    return found


def _end_children() -> List[int]:
    """Kill and reap every process this run started that is still there
    (orphaned grandchildren included); return their pids."""
    ended: List[int] = []
    limit = time.monotonic() + REAP_DEADLINE_S
    while time.monotonic() < limit:
        for pid in _children():
            try:
                os.kill(pid, signal.SIGKILL)
            except OSError:
                pass
        try:
            pid, _ = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            break
        if pid:
            ended.append(pid)
        else:
            time.sleep(0.01)
    return ended


def _import_setup_s() -> float:
    from perfbench.table1_bench import SUBPROCESS_DEADLINE_S, run_python

    return statistics.median(
        run_python(ROOT, "import repro.cli, repro.serve", SUBPROCESS_DEADLINE_S)[0]
        for _ in range(3)
    )


def run(workload: str, seed: int, seconds: float, trace: bool):
    workdir = ROOT / ".bench_build" / "perfbench"
    workdir.mkdir(parents=True, exist_ok=True)
    if workload == "paper_table1":
        from perfbench import table1_bench

        if trace:
            return table1_bench.run_traced(ROOT, workdir, seed, _import_setup_s())
        return table1_bench.run_untraced(ROOT, seed, seconds)
    from perfbench import serve_bench

    if trace:
        return serve_bench.run_traced(
            ROOT, workdir, workload, seed, seconds, _import_setup_s()
        )
    return serve_bench.run_untraced(ROOT, workdir, workload, seed, seconds)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no program sources at {ROOT / 'src' / 'repro'}", file=sys.stderr)
        return 2
    # Everything the run builds or writes stays inside the checkout.
    os.environ["REPRO_COMPILED_CACHE"] = str(ROOT / ".bench_build" / "repro-compiled")
    os.environ["PYTHONPATH"] = str(ROOT / "src")
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    _adopt_orphans()
    signal.signal(signal.SIGALRM, _deadline)
    signal.alarm(RUN_DEADLINE_S)
    from perfbench import host

    host_before = host.ticks()
    try:
        metrics, attempted, failed, problems = run(
            args.workload, args.seed, args.seconds, bool(args.trace)
        )
    except RunDeadline as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        signal.alarm(0)
        left = _end_children()
        if left:
            print(f"ended {len(left)} process(es) left running: {left}", file=sys.stderr)
    print(
        f"host CPU during the run: "
        f"{host.stolen_share(host_before, host.ticks()):.1%} stolen",
        file=sys.stderr,
    )
    for name, (value, _) in metrics.items():
        if not math.isfinite(value):
            problems.append(f"metric {name} is not a finite number ({value})")
    for problem in problems:
        print(f"CHECK FAILED: {problem}", file=sys.stderr)
    for name, (value, unit) in metrics.items():
        print(f"{args.workload} {name} = {value:.6g} {unit}")
    print(f"{args.workload} attempted = {attempted}, failed = {failed}")
    print(json.dumps({
        "correct": not problems,
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {
            name: {"value": value if math.isfinite(value) else -1.0, "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
