"""The two TCP workloads: ``tcp_closed`` and ``tcp_paced_churn``.

Untraced, the benchmark starts ``python -m repro serve`` as a subprocess
and drives it from this process with the lean client.  Traced, it runs
:class:`~repro.serve.server.AllocationServer` in this process around a
:class:`~perfbench.tracing.TimedPool` and drives it from a client in its own
process, so client work does not share this interpreter's lock.
"""

from __future__ import annotations

import asyncio
import json
import os
import pickle
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from repro.api import SchemeSpec
from repro.online.allocator import OnlineAllocator
from repro.serve import AllocationServer, ShardPool
from repro.serve.protocol import decode_request, encode, ok_response
from repro.serve.router import make_router

from . import checks, host, tcpclient
from .inputs import (
    CLOSED_TIME_CAP,
    CLOSED_WINDOW,
    PLACE,
    SERVE_CAPACITY,
    SERVE_D,
    SERVE_K,
    SERVE_N_BINS,
    SERVE_SHARDS,
    RequestStream,
    closed_requests,
    paced_requests,
)
from .tracing import Spans, TimedPool

#: Server launches per untraced run, each serving one episode of the
#: workload; ``setup_s`` is the median of their start-up times.
EPISODES = 5
#: Slice length per workload (see :func:`summarise`).  A paced slice holds
#: ~1000 answers, so 10 lie beyond its p99.
SLICE_S = {"tcp_closed": 0.5, "tcp_paced_churn": 1.0}
#: Deadlines of the phases around the measured loop.
START_DEADLINE_S = 60.0
CONTROL_DEADLINE_S = 30.0
STOP_DEADLINE_S = 30.0

_CLK_TCK = os.sysconf("SC_CLK_TCK")


def make_stream(workload: str, seed: int, seconds: float) -> RequestStream:
    if workload == "tcp_closed":
        return closed_requests(seed, seconds)
    return paced_requests(seed, seconds)


def drive(sock: Any, workload: str, stream: RequestStream, seconds: float):
    if workload == "tcp_closed":
        return tcpclient.closed_loop(
            sock, stream, CLOSED_WINDOW, CLOSED_TIME_CAP * seconds
        )
    return tcpclient.paced_loop(sock, stream)


def serve_argv(port_file: Path) -> List[str]:
    return [
        sys.executable, "-m", "repro", "serve",
        "--scheme", "kd_choice",
        "--param", f"n_bins={SERVE_N_BINS}",
        "--param", f"k={SERVE_K}",
        "--param", f"d={SERVE_D}",
        "--items", str(SERVE_CAPACITY),
        "--shards", str(SERVE_SHARDS),
        "--router", "two_choice",
        "--port", "0",
        "--port-file", str(port_file),
    ]


# ----------------------------------------------------------------------
# The server as a subprocess (untraced runs)
# ----------------------------------------------------------------------
def _proc_children(pid: int) -> List[int]:
    found: List[int] = []
    try:
        for task in os.listdir(f"/proc/{pid}/task"):
            with open(f"/proc/{pid}/task/{task}/children") as handle:
                found += [int(child) for child in handle.read().split()]
    except OSError:
        pass
    return found


def _alive(pid: int) -> bool:
    try:
        with open(f"/proc/{pid}/stat") as handle:
            return handle.read().rsplit(")", 1)[1].split()[0] != "Z"
    except OSError:
        return False


class ServerProcess:
    """``repro serve`` in its own session, timed from launch to first ping."""

    def __init__(self, root: Path, workdir: Path, index: int) -> None:
        port_file = workdir / f"port-{os.getpid()}-{index}"
        self.log_path = workdir / f"serve-{os.getpid()}-{index}.log"
        port_file.unlink(missing_ok=True)
        env = dict(os.environ, PYTHONPATH=str(root / "src"))
        started = time.perf_counter()
        with open(self.log_path, "wb") as log:
            self.proc = subprocess.Popen(
                serve_argv(port_file), cwd=root, env=env,
                stdout=subprocess.DEVNULL, stderr=log, start_new_session=True,
            )
        self.tree: List[int] = [self.proc.pid]
        self.sock = None
        try:
            limit = started + START_DEADLINE_S
            while not port_file.exists():
                if self.proc.poll() is not None:
                    raise RuntimeError(f"repro serve exited: {self.log_tail()}")
                if time.perf_counter() > limit:
                    raise RuntimeError("repro serve did not start in time")
                time.sleep(0.002)
            port = int(port_file.read_text())
            self.sock = tcpclient.connect(port)
            answer = tcpclient.request_once(
                self.sock, {"id": -1, "op": "ping"}, START_DEADLINE_S
            )
            if not answer.get("ok"):
                raise RuntimeError(f"ping failed: {answer}")
            self.setup_s = time.perf_counter() - started
            self.tree += _proc_children(self.proc.pid)
        except BaseException:
            self.stop()
            raise
        finally:
            port_file.unlink(missing_ok=True)

    def log_tail(self) -> str:
        try:
            return self.log_path.read_text(errors="replace")[-2000:]
        except OSError:
            return ""

    def cpu_seconds(self) -> float:
        """User plus system CPU of the server and its shard processes."""
        total = 0
        for pid in self.tree:
            try:
                with open(f"/proc/{pid}/stat") as handle:
                    fields = handle.read().rsplit(")", 1)[1].split()
            except OSError:
                continue
            total += int(fields[11]) + int(fields[12])
        return total / _CLK_TCK

    def peak_rss_mb(self) -> float:
        """The largest peak RSS (VmHWM) among the server's processes."""
        peak = 0
        for pid in self.tree:
            try:
                with open(f"/proc/{pid}/status") as handle:
                    for line in handle:
                        if line.startswith("VmHWM:"):
                            peak = max(peak, int(line.split()[1]))
            except OSError:
                continue
        return peak / 1024.0

    def stop(self) -> None:
        """Shut down (the shutdown op, else SIGTERM, else SIGKILL) and wait
        until the server and every shard process have ended."""
        if self.proc.poll() is None:
            try:
                if self.sock is not None:
                    tcpclient.request_once(
                        self.sock, {"id": -2, "op": "shutdown"}, CONTROL_DEADLINE_S
                    )
                else:
                    self.proc.send_signal(signal.SIGTERM)
            except (tcpclient.ServerGone, OSError, ValueError):
                self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=STOP_DEADLINE_S)
            except subprocess.TimeoutExpired:
                os.killpg(self.proc.pid, signal.SIGKILL)
                self.proc.wait()
        if self.sock is not None:
            self.sock.close()
            self.sock = None
        if self.proc.returncode == 0:
            self.log_path.unlink(missing_ok=True)
        limit = time.perf_counter() + STOP_DEADLINE_S
        for pid in self.tree[1:]:
            while _alive(pid):
                if time.perf_counter() > limit:
                    try:
                        os.kill(pid, signal.SIGKILL)
                    except OSError:
                        pass
                time.sleep(0.01)


# ----------------------------------------------------------------------
# Metrics shared by both modes
# ----------------------------------------------------------------------
def load_gap(record: Any) -> float:
    loads = checks.tally_loads(record, SERVE_SHARDS, SERVE_N_BINS)
    return float(loads.max() - loads.sum() / loads.size)


def placements(record: Any) -> int:
    return int((record.sent & record.ok & (record.ops == PLACE)).sum())


def fetch_books(
    sock: Any, record: Any, request_id: int, manifest_path: Path
) -> Optional[Tuple[Dict, Dict]]:
    """The ``stats`` answer and the pool snapshot the ``snapshot`` op
    writes right after it, or ``None`` if the run stopped early or the
    server did not give both."""
    if record.stop_reason is not None:
        return None
    try:
        stats = tcpclient.request_once(
            sock, {"id": request_id, "op": "stats"}, CONTROL_DEADLINE_S
        )
        saved = tcpclient.request_once(
            sock, {"id": request_id + 1, "op": "snapshot", "path": str(manifest_path)},
            CONTROL_DEADLINE_S,
        )
    except tcpclient.ServerGone as exc:
        print(f"books: {exc}", file=sys.stderr)
        return None
    if not (stats.get("ok") and saved.get("ok")):
        print(f"books: {stats} {saved}"[:2000], file=sys.stderr)
        return None
    try:
        return stats, json.loads(manifest_path.read_text())
    finally:
        manifest_path.unlink(missing_ok=True)


def _describe(record: Any, workload: str) -> str:
    text = (
        f"{workload}: sent {record.attempted}, failed {record.failed} "
        f"(unanswered {record.unanswered})"
    )
    if record.stop_reason:
        text += f"; stopped early: {record.stop_reason}"
    if record.error_messages:
        text += f"; errors: {record.error_messages}"
    if workload == "tcp_paced_churn":
        text += f"; generator late by at most {tcpclient.lateness_ms(record):.2f} ms"
    return text


# ----------------------------------------------------------------------
# Untraced: end-to-end metrics
# ----------------------------------------------------------------------
class CpuSampler:
    """Samples the server tree's CPU seconds and the host's CPU steal on a
    thread while an episode lasts."""

    PERIOD_S = 0.1

    def __init__(self, server: ServerProcess) -> None:
        self.times: List[float] = []
        self.cpu: List[float] = []
        self.stolen: List[int] = []
        self.total: List[int] = []
        self._server = server
        self._done = threading.Event()
        self._sample()
        self._thread = threading.Thread(target=self._loop, daemon=True)
        self._thread.start()

    def _sample(self) -> None:
        self.cpu.append(self._server.cpu_seconds())
        stolen, total = host.ticks()
        self.stolen.append(stolen)
        self.total.append(total)
        self.times.append(time.perf_counter())

    def _loop(self) -> None:
        while not self._done.wait(self.PERIOD_S):
            self._sample()

    def stop(self) -> None:
        self._done.set()
        self._thread.join()
        self._sample()

    def _at(self, values: List[float], when: float) -> float:
        return float(np.interp(when, self.times, values))

    def between(self, start: float, end: float) -> float:
        return self._at(self.cpu, end) - self._at(self.cpu, start)

    def stolen_between(self, start: float, end: float) -> float:
        return host.stolen_share(
            (self._at(self.stolen, start), self._at(self.total, start)),
            (self._at(self.stolen, end), self._at(self.total, end)),
        )


def slices(
    record: Any, slice_s: float, cpu: Optional[CpuSampler] = None
) -> List[Dict[str, float]]:
    """The rate, the latency percentiles and the CPU per place of every
    whole ``slice_s`` slice of an episode, by answer time."""
    done = record.sent & record.ok
    done_at = record.done_at[done]
    latency = (done_at - record.start_at[done]) * 1e3
    is_place = record.ops[done] == PLACE
    start = float(record.sent_at[record.sent].min())
    rows = []
    for index in range(int((done_at.max() - start) // slice_s)):
        low, high = start + index * slice_s, start + (index + 1) * slice_s
        inside = (done_at >= low) & (done_at < high)
        places = int((inside & is_place).sum())
        if not places:
            continue
        row = {
            "placements_per_s": places / slice_s,
            "latency_p50_ms": float(np.percentile(latency[inside], 50)),
            "latency_p99_ms": float(np.percentile(latency[inside], 99)),
        }
        if cpu is not None:
            row["cpu_us_per_place"] = cpu.between(low, high) / places * 1e6
            row["stolen"] = cpu.stolen_between(low, high)
        rows.append(row)
    return rows


#: A slice's wall-time figures are scaled to zero steal by the CPU share
#: the host left, ``1 - stolen``, to this power (see :func:`summarise`).
STEAL_EXPONENT = 2.0


def summarise(rows: List[Dict[str, float]], workload: str) -> Dict[str, float]:
    """One figure per metric from the slices of all episodes of a run: the
    median over the slices, with the wall-time figures scaled to zero steal.

    The host steals CPU time from this VM, from 2% to 34% of a slice, and
    its share moves from one minute to the next.  A request moves only
    while the vCPUs its client, server and shard processes sit on all run,
    so a slice's rate falls, and its latencies rise, about as the square of
    the CPU share the host left: fitted over 321 slices of five
    ``tcp_closed`` runs, the rate went as ``(1 - stolen) ** 2.5`` and that
    term explained 70% of its variance.  So each slice's rate is divided by
    ``(1 - stolen) ** 2`` and its latencies multiplied by it.  Over ten
    runs this took the spread of the median rate from 18% to 8% and of p99
    from 9% to 5% (README).  CPU per place leaves out stolen time and is not
    scaled, and neither is the paced rate, which its schedule sets.  The
    cost: a change that alters how much the host steals, such as one that
    wakes fewer processes per request, reads smaller than it is.
    """
    power = {"placements_per_s": -1.0 if workload == "tcp_closed" else 0.0,
             "latency_p50_ms": 1.0, "latency_p99_ms": 1.0,
             "cpu_us_per_place": 0.0}
    return {
        name: float(np.median([
            row[name] * (1.0 - row["stolen"]) ** (STEAL_EXPONENT * sign)
            for row in rows
        ]))
        for name, sign in power.items()
    }


def run_untraced(
    root: Path, workdir: Path, workload: str, seed: int, seconds: float
) -> Tuple[Dict[str, Tuple[float, str]], int, int, List[str]]:
    """``EPISODES`` launches of the server, each serving ``seconds /
    EPISODES`` of the workload from an empty pool."""
    length = seconds / EPISODES
    streams = [make_stream(workload, seed * EPISODES + index, length)
               for index in range(EPISODES)]
    setups: List[float] = []
    rows: List[Dict[str, float]] = []
    problems: List[str] = []
    rss: List[float] = []
    gaps: List[float] = []
    attempted = failed = placed = 0
    messages = 0.0
    for index, stream in enumerate(streams):
        server = ServerProcess(root, workdir, index)
        try:
            setups.append(server.setup_s)
            sampler = CpuSampler(server)
            try:
                record = drive(server.sock, workload, stream, length)
            finally:
                sampler.stop()
            # Before the snapshot op, whose JSON document is the
            # benchmark's doing and not the served workload's.
            rss.append(server.peak_rss_mb())
            books = fetch_books(
                server.sock, record, len(stream),
                workdir / f"manifest-{os.getpid()}-{index}.json",
            )
        finally:
            server.stop()
        print(_describe(record, workload), file=sys.stderr)
        problems += checks.check_serve(record, books, SERVE_SHARDS, SERVE_N_BINS)
        rows += slices(record, SLICE_S[workload], sampler)
        gaps.append(load_gap(record))
        attempted += record.attempted
        failed += record.failed
        placed += placements(record)
        messages += (
            sum(shard["messages"] for shard in books[0]["pool"]["shards"])
            if books is not None else float("nan")
        )
    figures = summarise(rows, workload)
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "placements_per_s": (figures["placements_per_s"], "1/s"),
        "latency_p50_ms": (figures["latency_p50_ms"], "ms"),
        "latency_p99_ms": (figures["latency_p99_ms"], "ms"),
        "cpu_us_per_place": (figures["cpu_us_per_place"], "us"),
        "rss_mb": (statistics.median(rss), "MB"),
        "load_gap": (float(np.mean(gaps)), "balls"),
        "messages_per_place": (messages / placed, "msgs"),
    }
    return metrics, attempted, failed, problems


# ----------------------------------------------------------------------
# Traced: per-layer metrics
# ----------------------------------------------------------------------
def _client_main() -> None:
    """Entry point of the client process (traced runs).  Its arguments come
    pickled on standard input; its results go pickled to standard output."""
    out = sys.stdout.buffer
    sys.stdout = sys.stderr
    port, workload, seed, seconds, manifest_path = pickle.load(sys.stdin.buffer)
    stream = make_stream(workload, seed, seconds)
    sock = tcpclient.connect(port)
    try:
        record = drive(sock, workload, stream, seconds)
        books = fetch_books(sock, record, len(stream), manifest_path)
    finally:
        sock.close()
    pickle.dump((record, books, stream.lines), out)
    out.flush()


def _client_result(client: subprocess.Popen, arguments: bytes, deadline_s: float) -> Any:
    try:
        output, _ = client.communicate(arguments, timeout=deadline_s)
    except subprocess.TimeoutExpired:
        raise RuntimeError(f"the client process did not finish in {deadline_s} s") from None
    if client.returncode != 0:
        raise RuntimeError(f"the client process exited with code {client.returncode}")
    return pickle.loads(output)


async def _serve_phase(
    root: Path, pool: Any, workdir: Path, workload: str, seed: int, seconds: float
) -> Dict[str, Any]:
    """Serve one client run in this process; time the event-loop thread.

    The client is a fresh interpreter that this process waits for (not a
    ``multiprocessing`` spawn, whose resource tracker would outlive the run).
    """
    server = AllocationServer(pool=pool)
    await server.start()
    arguments = pickle.dumps((
        server.port, workload, seed, seconds,
        workdir / f"manifest-{os.getpid()}-traced.json",
    ))
    loop = asyncio.get_running_loop()
    client: Optional[subprocess.Popen] = None
    try:
        loop_cpu = time.thread_time()
        process_cpu = time.process_time()
        client = subprocess.Popen(
            [sys.executable, "-c",
             "from perfbench.serve_bench import _client_main; _client_main()"],
            cwd=root, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
        )
        record, books, lines = await loop.run_in_executor(
            None, _client_result, client, arguments, seconds + 120.0
        )
        loop_cpu = time.thread_time() - loop_cpu
        process_cpu = time.process_time() - process_cpu
        batching = server.server_stats()
    finally:
        await server.stop()
        if client is not None:
            try:
                client.wait(timeout=STOP_DEADLINE_S)
            except subprocess.TimeoutExpired:
                client.kill()
                client.wait()
    return {
        "record": record, "books": books, "lines": lines, "loop_cpu": loop_cpu,
        "process_cpu": process_cpu, "batching": batching,
        "requests": record.attempted,
    }


def _make_pool() -> ShardPool:
    spec = SchemeSpec(
        scheme="kd_choice",
        params={"n_bins": SERVE_N_BINS, "k": SERVE_K, "d": SERVE_D,
                "n_balls": SERVE_CAPACITY},
        seed=0,
    )
    return ShardPool(spec, SERVE_SHARDS, policy="two_choice", mode="process")


def _replay(calls: List[Tuple[Any, ...]], pool: Any, spans: Spans) -> List[str]:
    """Replay the recorded pool calls on a fresh router and on standalone
    shard allocators; time each layer and check they agree with the pool."""
    problems: List[str] = []
    router = make_router("two_choice", SERVE_SHARDS, seed=pool.router_seed)
    allocators = [OnlineAllocator(spec) for spec in pool.shard_specs]
    loads = np.zeros(SERVE_SHARDS, dtype=np.int64)
    perf = time.perf_counter
    for index, (kind, _, _, what, shards, bins) in enumerate(calls):
        if kind == "remove":
            start = perf()
            bin_index = allocators[shards].remove(what)
            spans.add("allocator.remove", start, perf(), trace=index)
            loads[shards] -= 1
            if bin_index != bins:
                problems.append(f"replayed remove {index} left bin {bin_index}, not {bins}")
            continue
        start = perf()
        routed = router.route_batch(len(shards), loads)
        spans.add("router.route_batch", start, perf(), trace=index)
        if not np.array_equal(routed, shards):
            problems.append(f"replayed routing of window {index} differs")
            return problems
        loads += np.bincount(routed, minlength=SERVE_SHARDS)
        for shard_index in range(SERVE_SHARDS):
            where = np.flatnonzero(routed == shard_index)
            if not len(where):
                continue
            items = [what[p] for p in where]
            start = perf()
            placed = allocators[shard_index].place_batch(len(items), items=items)
            spans.add("allocator.place_batch", start, perf(), trace=index)
            if not np.array_equal(placed, bins[where]):
                problems.append(f"replayed window {index} on shard {shard_index} differs")
                return problems
    return problems


def _request_spans(spans: Spans, record: Any, calls: List[Tuple[Any, ...]]) -> np.ndarray:
    """Per-request spans; returns each answered place's queue wait (s)."""
    window_of: Dict[Any, Tuple[float, float]] = {}
    for kind, start, end, what, _, _ in calls:
        if kind == "place":
            for item in what:
                window_of[item] = (start, end)
    waits: List[float] = []
    for index in np.flatnonzero(record.sent & record.ok):
        parent = spans.add(
            "client.request", record.sent_at[index], record.done_at[index],
            trace=int(index),
        )
        if record.ops[index] != PLACE:
            continue
        window = window_of.get(int(record.items[index]))
        if window is None:
            continue
        spans.add("server.queue_wait", record.sent_at[index], window[0], parent, int(index))
        spans.add("pool.place_batch", window[0], window[1], parent, int(index))
        waits.append(window[0] - record.sent_at[index])
    return np.array(waits)


def _codec_us(lines: List[bytes], record: Any) -> Tuple[float, float]:
    """``decode_request`` over the sent lines and ``encode`` over the
    answers seen, each in microseconds per line."""
    sent = [lines[i] for i in np.flatnonzero(record.sent)]
    start = time.perf_counter()
    for line in sent:
        decode_request(line)
    decode = (time.perf_counter() - start) / max(1, len(sent))
    answers = [
        ok_response(int(i), shard=int(record.shard[i]), bin=int(record.bin[i]))
        for i in np.flatnonzero(record.sent & record.ok)
    ]
    start = time.perf_counter()
    for answer in answers:
        encode(answer)
    encoded = (time.perf_counter() - start) / max(1, len(answers))
    return decode * 1e6, encoded * 1e6


def run_traced(
    root: Path, workdir: Path, workload: str, seed: int, seconds: float,
    import_setup_s: float,
) -> Tuple[Dict[str, Tuple[float, str]], int, int, List[str]]:
    phase = max(1.0, seconds / 2.0)
    seed = seed * EPISODES  # the stream of the untraced run's first episode
    spans = Spans()
    # Untraced reference of the same in-process layout, for the overhead.
    reference = asyncio.run(_serve_phase(root, _make_pool(), workdir, workload, seed, phase))
    start = time.perf_counter()
    pool = _make_pool()
    pool_start_s = time.perf_counter() - start
    timed = TimedPool(pool, spans)
    traced = asyncio.run(_serve_phase(root, timed, workdir, workload, seed, phase))
    record = traced["record"]
    print(_describe(record, workload), file=sys.stderr)
    problems = checks.check_serve(record, traced["books"], SERVE_SHARDS, SERVE_N_BINS)
    problems += checks.check_serve(
        reference["record"], reference["books"], SERVE_SHARDS, SERVE_N_BINS
    )
    problems += _replay(timed.calls, pool, spans)
    waits = _request_spans(spans, record, timed.calls)
    decode_us, encode_us = _codec_us(traced["lines"], record)
    spans.write(workdir / f"spans-{workload}-{seed}.jsonl")

    def mean_us(values: Any) -> float:
        return float(np.mean(values)) * 1e6 if len(values) else 0.0

    placed = placements(record)
    requests = max(1, traced["requests"])
    place_calls = [call for call in timed.calls if call[0] == "place"]
    items = max(1, sum(len(call[4]) for call in place_calls))
    windows = max(1, len(place_calls))
    place_s = sum(call[2] - call[1] for call in place_calls)
    remove_s = [call[2] - call[1] for call in timed.calls if call[0] == "remove"]
    window_s = record.window() or 1.0
    batching = traced["batching"]
    busy = traced["loop_cpu"] + place_s + sum(remove_s)
    cpu_traced = traced["process_cpu"] / requests
    cpu_reference = reference["process_cpu"] / max(1, reference["requests"])
    metrics = {
        "import.setup_s": (import_setup_s, "s"),
        "pool.start_s": (pool_start_s, "s"),
        "protocol.decode_us": (decode_us, "us"),
        "protocol.encode_us": (encode_us, "us"),
        "protocol.bytes_per_place": (
            (record.bytes_sent + record.bytes_received) / max(1, placed), "B"),
        "server.frontend_us_per_req": (traced["loop_cpu"] / requests * 1e6, "us"),
        "server.mean_batch": (
            batching["batched_places"] / max(1, batching["batches"]), "places"),
        "server.queue_wait_ms": (
            float(np.median(waits)) * 1e3 if len(waits) else 0.0, "ms"),
        "router.us_per_window": (
            spans.durations("router.route_batch").sum() / windows * 1e6, "us"),
        "pool.place_us_per_item": (place_s / items * 1e6, "us"),
        "allocator.place_us_per_item": (
            spans.durations("allocator.place_batch").sum() / items * 1e6, "us"),
        "kernel.probes_per_s_wide": (0.0, "1/s"),
        "kernel.probes_per_s_narrow": (0.0, "1/s"),
        "compiled.backend_load_s": (0.0, "s"),
        "api.trial_overhead_ms": (0.0, "ms"),
        "trace.layer_share_pct": (busy / window_s * 100.0, "%"),
        "trace.overhead_pct": ((cpu_traced / cpu_reference - 1.0) * 100.0, "%"),
    }
    if workload == "tcp_paced_churn":  # the only workload with removes
        metrics["pool.remove_us"] = (mean_us(remove_s), "us")
        metrics["allocator.remove_us"] = (
            mean_us(spans.durations("allocator.remove")), "us")
    attempted = record.attempted + reference["record"].attempted
    failed = record.failed + reference["record"].failed
    return metrics, attempted, failed, problems
