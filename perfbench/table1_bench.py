"""The ``paper_table1`` workload: the paper's Table 1 recipe, in-process.

Each pass runs one trial of every kept cell through
``repro.experiments.table1.table1_cell`` at the paper's ``n = 3 * 2^16`` on
``engine="compiled"``.  The kept cells are the narrow columns (d <= 5) and
the widest column (d = 193, where the kernel's cost per ball is highest)
for k >= 24.  A run makes whole passes, at least four, until its time is
up, so every run covers the same cell mix and the rate does not depend on
where the clock stopped.
"""

from __future__ import annotations

import contextlib
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

import numpy as np

import repro.api.engine
import repro.api.executor
import repro.experiments.table1
from repro.api import ResultStore
from repro.core.compiled import load_backend
from repro.experiments.table1 import (
    PAPER_TABLE1,
    TABLE1_K_VALUES,
    TABLE1_N,
    table1_cell,
)
from repro.simulation.rng import SeedTree

from . import checks, host
from .tracing import Spans, patched

TABLE1_COLUMNS = (1, 2, 3, 5, 193)
NARROW_MAX_D = 5
WIDE_D = 193
#: The widest column keeps its cells with k >= 24 (0.06-0.5 s a trial).
#: Its cells with smaller k take 0.7-10 s a trial, and this host's speed
#: swings by a quarter over tens of seconds, so a run could time them only
#: once or twice: too few trials for a steady figure.
WIDE_MIN_K = 24
#: A run makes at least this many passes, so each cell has a quartile.
MIN_PASSES = 4
#: Fresh interpreters timed per run; ``setup_s`` is their median.
SETUP_SAMPLES = 5
SUBPROCESS_DEADLINE_S = 120.0
BUILD_DEADLINE_S = 600.0

_LOAD_BACKEND = (
    "import repro\n"
    "from repro.core.compiled import load_backend\n"
    "load_backend()\n"
)
_TIME_BACKEND_LOAD = (
    "import time\n"
    "from repro.core.compiled import load_backend\n"
    "start = time.perf_counter()\n"
    "load_backend()\n"
    "print(time.perf_counter() - start)\n"
)


def cells() -> List[Tuple[int, int]]:
    return [
        (k, d)
        for d in TABLE1_COLUMNS
        for k in TABLE1_K_VALUES
        if (k < d or k == d == 1) and (d != WIDE_D or k >= WIDE_MIN_K)
    ]


def run_python(root: Path, code: str, deadline_s: float) -> Tuple[float, str]:
    """Run ``code`` in a fresh interpreter; return (wall seconds, stdout)."""
    start = time.perf_counter()
    done = subprocess.run(
        [sys.executable, "-c", code], cwd=root, capture_output=True,
        text=True, timeout=deadline_s,
    )
    wall = time.perf_counter() - start
    if done.returncode != 0:
        raise RuntimeError(f"fresh interpreter failed: {done.stderr[-2000:]}")
    return wall, done.stdout


def ensure_backend(root: Path) -> None:
    """Build the compiled backend once per checkout (users pay this once
    per machine, so it is not part of ``setup_s``)."""
    run_python(root, _LOAD_BACKEND, BUILD_DEADLINE_S)


def setup_seconds(root: Path, samples: int = SETUP_SAMPLES) -> float:
    """Median wall time of a fresh interpreter importing ``repro`` and
    loading the already-built backend."""
    return statistics.median(
        run_python(root, _LOAD_BACKEND, SUBPROCESS_DEADLINE_S)[0]
        for _ in range(samples)
    )


def backend_load_seconds(root: Path, samples: int = 3) -> float:
    return statistics.median(
        float(run_python(root, _TIME_BACKEND_LOAD, SUBPROCESS_DEADLINE_S)[1])
        for _ in range(samples)
    )


class TrialRecorder(ResultStore):
    """Handed to ``table1_cell`` as its result store: it never hits, and it
    keeps each trial's metrics (max load, gap, messages) for the checks."""

    def __init__(self) -> None:  # no directory: nothing touches the disk
        self.outcomes: List[Any] = []

    def load(self, *args: Any) -> None:
        return None

    def store(self, spec: Any, seed: Any, engine: str, outcome: Any) -> None:
        self.outcomes.append(outcome)


@contextlib.contextmanager
def counting_balls(sums: List[int]) -> Iterator[None]:
    """Append the sum of the final loads of every trial the engine runs."""
    execute = repro.api.engine._execute

    def counted(spec: Any, seed: Any) -> Any:
        result = execute(spec, seed)
        sums.append(int(result.loads.sum()))
        return result

    repro.api.engine._execute = counted
    try:
        yield
    finally:
        repro.api.engine._execute = execute


def one_trial(
    k: int, d: int, seed: int, engine: str = "compiled",
    run_cell: Callable[..., Any] = table1_cell,
) -> Tuple[float, float, float, int]:
    """One trial of cell ``(k, d)`` through the Table 1 recipe: its max
    load, gap, messages and the sum of its final loads."""
    recorder = TrialRecorder()
    sums: List[int] = []
    with counting_balls(sums):
        cell = run_cell(
            TABLE1_N, k, d, trials=1, seed=seed, engine=engine, cache=recorder
        )
    metrics = recorder.outcomes[0].metrics
    return (float(cell.max_loads[0]), float(metrics["gap"]),
            float(metrics["messages"]), sums[0])


def run_pass(
    tree: Any, trials: List[checks.CellTrial], spans: Optional[Spans] = None,
    probe: Optional[host.SpeedProbe] = None,
) -> int:
    """One trial of every kept cell; returns how many trials failed.  With
    a ``probe``, each trial records the probe's time around it."""
    failed = 0
    run_cell = table1_cell if spans is None else spans.wrap("table1.cell", table1_cell)
    probe_s = probe.seconds() if probe is not None else 0.0
    for k, d in cells():
        seed = tree.integer_seed()
        if spans is not None:
            spans.trace = len(trials)
        ticks = host.ticks()
        start = time.perf_counter()
        try:
            max_load, gap, messages, balls = one_trial(k, d, seed, run_cell=run_cell)
        except Exception:
            traceback.print_exc(file=sys.stderr)
            failed += 1
            continue
        wall = time.perf_counter() - start
        stolen = host.stolen_share(ticks, host.ticks())
        before, probe_s = probe_s, probe.seconds() if probe is not None else 0.0
        trials.append(
            checks.CellTrial(
                k=k, d=d, n=TABLE1_N, max_load=max_load, gap=gap,
                messages=messages, balls=balls, wall_s=wall, stolen=stolen,
                probe_s=(before + probe_s) / 2,
            )
        )
    return failed


def run_untraced(
    root: Path, seed: int, seconds: float
) -> Tuple[Dict[str, Tuple[float, str]], int, int, List[str]]:
    ensure_backend(root)
    setup_s = setup_seconds(root)
    load_backend()
    tree = SeedTree(seed)
    probe = host.SpeedProbe()
    trials: List[checks.CellTrial] = []
    failed = 0
    pass_cpu: List[float] = []
    pass_stolen: List[float] = []
    started = time.perf_counter()
    while len(pass_cpu) < MIN_PASSES or time.perf_counter() - started < seconds:
        cpu, ticks, first = time.process_time(), host.ticks(), len(trials)
        failed += run_pass(tree, trials, probe=probe)
        # The probe's own CPU is a few percent of a pass, and the same in
        # every pass; the pass's CPU is scaled to the reference speed.
        speed = probe.REFERENCE_S / np.mean([t.probe_s for t in trials[first:]])
        pass_cpu.append((time.process_time() - cpu) * speed)
        pass_stolen.append(host.stolen_share(ticks, host.ticks()))
    print(
        f"paper_table1: {len(pass_cpu)} passes of {len(cells())} cells in "
        f"{time.perf_counter() - started:.1f} s",
        file=sys.stderr,
    )
    problems = checks.check_table1(trials, PAPER_TABLE1)
    by_cell: Dict[Tuple[int, int], List[checks.CellTrial]] = {}
    for trial in trials:
        by_cell.setdefault((trial.k, trial.d), []).append(trial)
    # Each cell's typical trial time: its trials scaled to the reference
    # speed of the host, the ones the host stole CPU from left out, and the
    # lower quartile of the rest.
    typical_ms = np.array([
        np.percentile(host.unstolen(
            [t.wall_s * probe.REFERENCE_S / t.probe_s for t in cell],
            [t.stolen for t in cell], MIN_PASSES // 2,
        ), 25)
        for cell in by_cell.values()
    ]) * 1e3
    raw_s = sum(t.wall_s for t in trials) / len(pass_cpu)
    print(
        f"paper_table1: unscaled pass {raw_s:.3f} s; speed probe median "
        f"{np.median([t.probe_s for t in trials]) * 1e3:.2f} ms "
        f"(reference {probe.REFERENCE_S * 1e3:.2f} ms)",
        file=sys.stderr,
    )
    pass_cpu = host.unstolen(pass_cpu, pass_stolen, MIN_PASSES // 2)
    balls_per_pass = TABLE1_N * len(cells())
    balls = sum(trial.n for trial in trials)
    metrics = {
        "setup_s": (setup_s, "s"),
        "placements_per_s": (balls_per_pass / (typical_ms.sum() / 1e3), "1/s"),
        "latency_p50_ms": (float(np.median(typical_ms)), "ms"),
        # 15 cells have no 1% tail: this is the slowest cell, (24, 193).
        "latency_p99_ms": (float(typical_ms.max()), "ms"),
        "cpu_us_per_place": (
            float(np.percentile(pass_cpu, 25)) / balls_per_pass * 1e6, "us"),
        "rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "load_gap": (float(np.mean([trial.gap for trial in trials])), "balls"),
        "messages_per_place": (
            sum(trial.messages for trial in trials) / balls, "msgs"),
    }
    return metrics, len(trials) + failed, failed, problems


def run_traced(
    root: Path, workdir: Path, seed: int, import_setup_s: float
) -> Tuple[Dict[str, Tuple[float, str]], int, int, List[str]]:
    ensure_backend(root)
    backend_load_s = backend_load_seconds(root)
    load_backend()
    # Untraced and traced passes alternate, so the host's speed swings
    # fall on both sides of the tracing overhead alike.
    spans = Spans()
    reference: List[checks.CellTrial] = []
    trials: List[checks.CellTrial] = []
    targets = [
        (repro.experiments.table1, "simulate_trials", "api.simulate_trials"),
        (repro.api.executor, "run_trial", "api.run_trial"),
        (repro.api.engine, "_execute", "kernel.execute"),
    ]
    reference_tree, traced_tree = SeedTree(seed), SeedTree(seed)
    reference_cpu = traced_cpu = wall = 0.0
    failed = 0
    for _ in range(MIN_PASSES):
        cpu = time.process_time()
        failed += run_pass(reference_tree, reference)
        reference_cpu += time.process_time() - cpu
        cpu, started = time.process_time(), time.perf_counter()
        with patched(spans, targets):
            failed += run_pass(traced_tree, trials, spans)
        wall += time.perf_counter() - started
        traced_cpu += time.process_time() - cpu
    spans.write(workdir / f"spans-paper_table1-{seed}.jsonl")

    problems = checks.check_table1(reference + trials, PAPER_TABLE1)
    wide = {index for index, trial in enumerate(trials) if trial.d == WIDE_D}
    narrow = {index for index, trial in enumerate(trials) if trial.d <= NARROW_MAX_D}

    def probes_per_s(which: set) -> float:
        probes = sum(trials[index].messages for index in which)
        return probes / spans.durations("kernel.execute", which).sum()

    kernel_s = spans.durations("kernel.execute").sum()
    api_s = spans.durations("api.simulate_trials").sum()
    metrics = {
        "import.setup_s": (import_setup_s, "s"),
        "pool.start_s": (0.0, "s"),
        "protocol.decode_us": (0.0, "us"),
        "protocol.encode_us": (0.0, "us"),
        "protocol.bytes_per_place": (0.0, "B"),
        "server.frontend_us_per_req": (0.0, "us"),
        "server.mean_batch": (0.0, "places"),
        "server.queue_wait_ms": (0.0, "ms"),
        "router.us_per_window": (0.0, "us"),
        "pool.place_us_per_item": (0.0, "us"),
        "allocator.place_us_per_item": (0.0, "us"),
        "kernel.probes_per_s_wide": (probes_per_s(wide), "1/s"),
        "kernel.probes_per_s_narrow": (probes_per_s(narrow), "1/s"),
        "compiled.backend_load_s": (backend_load_s, "s"),
        "api.trial_overhead_ms": ((api_s - kernel_s) / max(1, len(trials)) * 1e3, "ms"),
        "trace.layer_share_pct": (api_s / wall * 100.0, "%"),
        "trace.overhead_pct": ((traced_cpu / reference_cpu - 1.0) * 100.0, "%"),
    }
    attempted = len(reference) + len(trials) + failed
    return metrics, attempted, failed, problems
