"""The benchmark's own checks, at toy sizes: each must pass a clean result
and reject a doctored one."""

from __future__ import annotations

import asyncio
import copy
import socket
import threading

import numpy as np
import pytest

import repro.api.engine
from repro.api import SchemeSpec
from repro.experiments.table1 import PAPER_TABLE1, TABLE1_N
from repro.serve import AllocationServer, ShardPool
from repro.workloads import generate_events

from perfbench import checks, inputs, serve_bench, tcpclient
from perfbench.table1_bench import one_trial

N_SHARDS, N_BINS, K = 2, 64, 4


def _pool() -> ShardPool:
    spec = SchemeSpec(
        scheme="kd_choice",
        params={"n_bins": N_BINS, "k": K, "d": 8, "n_balls": 4096},
        seed=0,
    )
    return ShardPool(spec, N_SHARDS, policy="two_choice", mode="thread")


def _stream(events) -> inputs.RequestStream:
    return inputs.encode_events(events, None)


def _served():
    """Replay a churn stream through a thread-mode pool as a client would
    record it; return the record and the books ``(stats, manifest)``."""
    events = generate_events("uniform", 60, {"churn": 0.5}, 7)
    pool = _pool()
    try:
        answers = []
        for event in events:
            if event["op"] == "place":
                shards, bins = pool.place_batch(1, [event["item"]])
                answers.append((int(shards[0]), int(bins[0])))
            else:
                answers.append(pool.remove(event["item"]))
        books = ({"pool": pool.summary()}, pool.snapshot())
    finally:
        pool.close()
    record = tcpclient.ClientRecord.empty(_stream(events))
    record.sent[:] = True
    record.answers[:] = 1
    record.ok[:] = True
    record.shard[:] = [s for s, _ in answers]
    record.bin[:] = [b for _, b in answers]
    return record, books


@pytest.fixture(scope="module")
def served():
    return _served()


def _problems(record, books):
    return checks.check_serve(record, books, N_SHARDS, N_BINS)


def test_clean_serve_record_passes_with_a_round_open(served):
    record, books = served
    manifest = books[1]
    # A (k, d) shard holds the undelivered balls of its open round.
    assert any(entry["snapshot"]["pending"] for entry in manifest["shards"])
    assert _problems(record, books) == []


def test_one_tallied_bin_changed_is_rejected(served):
    record, books = copy.deepcopy(served)
    index = int(np.flatnonzero(record.ops == inputs.PLACE)[-1])
    record.bin[index] = (record.bin[index] + 1) % N_BINS
    problems = _problems(record, books)
    assert any("sha256" in problem for problem in problems)
    assert any(f"shard {record.shard[index]}: 1 live items" in p for p in problems)


def test_one_item_on_the_wrong_shard_is_rejected(served):
    record, books = copy.deepcopy(served)
    manifest = books[1]
    manifest["items"][0][1] = 1 - manifest["items"][0][1]
    assert any("pool item map" in p for p in _problems(record, books))


def test_one_answer_dropped_is_rejected(served):
    record, books = copy.deepcopy(served)
    index = int(np.flatnonzero(record.ops == inputs.PLACE)[-1])
    record.answers[index] = 0
    record.ok[index] = False
    record.shard[index] = record.bin[index] = -1
    problems = checks.check_answers(record, N_SHARDS, N_BINS)
    assert any("never answered" in problem for problem in problems)
    record.stop_reason = "the server closed the connection"
    assert checks.check_answers(record, N_SHARDS, N_BINS) == []
    books_problems = checks.check_books(record, *books, N_SHARDS, N_BINS)
    assert any("placed" in problem for problem in books_problems)
    assert any("sha256" in problem for problem in books_problems)


def test_missing_books_are_rejected(served):
    record, _ = served
    assert any("no stats" in p for p in _problems(record, None))


def test_duplicate_and_misplaced_remove_answers_are_rejected(served):
    record, books = copy.deepcopy(served)
    record.answers[3] = 2
    assert any("more than once" in p for p in _problems(record, books))
    record, books = copy.deepcopy(served)
    index = int(np.flatnonzero(record.ops == inputs.REMOVE)[0])
    record.bin[index] = (record.bin[index] + 1) % N_BINS
    assert any("its place answered" in p for p in _problems(record, books))


def test_max_load_bound_is_below_single_choice_order(served):
    record, books = copy.deepcopy(served)
    placed = np.flatnonzero(record.ops == inputs.PLACE)[:8]
    record.shard[placed] = 0
    record.bin[placed] = 5
    assert any("ln N / ln ln N" in p for p in checks.check_books(
        record, *books, N_SHARDS, N_BINS))


# ----------------------------------------------------------------------
# The client against a live server, and against one that never answers
# ----------------------------------------------------------------------
def test_closed_loop_against_a_live_server(tmp_path):
    loop = asyncio.new_event_loop()
    server = AllocationServer(pool=_pool())
    loop.run_until_complete(server.start())
    thread = threading.Thread(target=loop.run_forever, daemon=True)
    thread.start()
    try:
        stream = _stream(generate_events("uniform", 300, {}, 3))
        sock = tcpclient.connect(server.port)
        try:
            record = tcpclient.closed_loop(sock, stream, 16, 0.3)
            books = serve_bench.fetch_books(
                sock, record, len(stream), tmp_path / "manifest.json"
            )
        finally:
            sock.close()
    finally:
        asyncio.run_coroutine_threadsafe(server.stop(), loop).result(timeout=30)
        loop.call_soon_threadsafe(loop.stop)
        thread.join(timeout=30)
        loop.close()
    assert not thread.is_alive()
    assert record.stop_reason is None and record.failed == 0
    assert record.attempted >= 16
    assert books is not None and _problems(record, books) == []


def test_a_silent_server_ends_the_run_by_its_deadline(monkeypatch):
    monkeypatch.setattr(tcpclient, "REQUEST_DEADLINE_S", 0.2)
    listener = socket.socket()
    listener.bind(("127.0.0.1", 0))
    listener.listen(1)
    try:
        sock = tcpclient.connect(listener.getsockname()[1])
        peer, _ = listener.accept()
        try:
            stream = _stream(generate_events("uniform", 50, {}, 3))
            record = tcpclient.closed_loop(sock, stream, 8, 5.0)
        finally:
            sock.close()
            peer.close()
    finally:
        listener.close()
    assert "no answer" in record.stop_reason
    assert record.attempted == 8 and record.failed == 8
    assert checks.check_answers(record, N_SHARDS, N_BINS) == []


def test_slices_are_scaled_to_zero_steal():
    row = {"placements_per_s": 900.0, "latency_p50_ms": 4.0,
           "latency_p99_ms": 8.0, "cpu_us_per_place": 100.0}
    calm, stolen = dict(row, stolen=0.0), dict(row, stolen=0.25)
    closed = serve_bench.summarise([stolen, stolen, calm], "tcp_closed")
    assert closed == pytest.approx({"placements_per_s": 1600.0, "latency_p50_ms": 2.25,
                                    "latency_p99_ms": 4.5, "cpu_us_per_place": 100.0})
    paced = serve_bench.summarise([stolen], "tcp_paced_churn")
    assert paced["placements_per_s"] == 900.0


# ----------------------------------------------------------------------
# Table 1
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def table1_trial():
    max_load, gap, messages, balls = one_trial(4, 5, seed=11, engine="vectorized")
    return checks.CellTrial(
        k=4, d=5, n=TABLE1_N, max_load=max_load, gap=gap, messages=messages,
        balls=balls, wall_s=0.1,
    )


def test_a_real_table1_cell_passes(table1_trial):
    assert checks.check_table1([table1_trial], PAPER_TABLE1) == []


@pytest.mark.parametrize(
    "change",
    [
        {"max_load": 6.0},  # the paper prints 4 for (4, 5): 6 is outside 3..5
        {"k": 3, "d": 3},  # not a cell of the paper's table
        {"messages": 5 * TABLE1_N / 4 + 1},
        {"balls": TABLE1_N + 1},
    ],
)
def test_a_doctored_table1_cell_is_rejected(table1_trial, change):
    fields = dict(table1_trial.__dict__)
    fields.update(change)
    assert checks.check_table1([checks.CellTrial(**fields)], PAPER_TABLE1)


def test_the_loads_sum_is_the_engine_s_own(monkeypatch):
    """A kernel that loses a ball shows in the recorded sum."""
    execute = repro.api.engine._execute

    def lossy(spec, seed):
        result = execute(spec, seed)
        result.loads[0] -= 1
        return result

    monkeypatch.setattr(repro.api.engine, "_execute", lossy)
    max_load, gap, messages, balls = one_trial(4, 5, seed=11, engine="vectorized")
    trial = checks.CellTrial(
        k=4, d=5, n=TABLE1_N, max_load=max_load, gap=gap, messages=messages,
        balls=balls, wall_s=0.1,
    )
    assert any("loads sum to" in p for p in checks.check_table1([trial], PAPER_TABLE1))
