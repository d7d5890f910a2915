"""A lean single-connection client for the NDJSON placement protocol.

One blocking socket driven through ``select``: no event loop, no futures,
no per-request objects.  Requests arrive pre-encoded, so the client's own
cost per request is one ``json.loads`` of the answer plus array stores.

Every wait has a deadline.  If no answer arrives for ``REQUEST_DEADLINE_S``
while requests are outstanding, or the server closes the connection, the
loop stops and every request still outstanding counts as unanswered.
"""

from __future__ import annotations

import json
import select
import socket
import time
from dataclasses import dataclass, field
from typing import Any, Dict, Optional

import numpy as np

from repro.serve.protocol import encode

from .inputs import RequestStream

#: Longest wait for any answer while requests are outstanding.
REQUEST_DEADLINE_S = 10.0
_RECV = 1 << 18


class ServerGone(RuntimeError):
    """The server closed the connection or stopped answering in time."""


@dataclass
class ClientRecord:
    """What one run sent and what came back, indexed by request id."""

    ops: np.ndarray
    items: np.ndarray
    sent: np.ndarray  #: request written to the socket
    start_at: np.ndarray  #: latency origin: send time (closed), due time (open)
    sent_at: np.ndarray
    done_at: np.ndarray
    answers: np.ndarray  #: answers received per id (exactly 1 is correct)
    ok: np.ndarray
    shard: np.ndarray
    bin: np.ndarray
    unknown_answers: int = 0  #: answers whose id names no sent request
    error_messages: Dict[str, int] = field(default_factory=dict)
    bytes_sent: int = 0
    bytes_received: int = 0
    stop_reason: Optional[str] = None  #: why the loop ended early, if it did

    @classmethod
    def empty(cls, stream: RequestStream) -> "ClientRecord":
        n = len(stream)
        return cls(
            ops=stream.ops,
            items=stream.items,
            sent=np.zeros(n, dtype=bool),
            start_at=np.full(n, np.nan),
            sent_at=np.full(n, np.nan),
            done_at=np.full(n, np.nan),
            answers=np.zeros(n, dtype=np.int32),
            ok=np.zeros(n, dtype=bool),
            shard=np.full(n, -1, dtype=np.int64),
            bin=np.full(n, -1, dtype=np.int64),
        )

    @property
    def attempted(self) -> int:
        return int(self.sent.sum())

    @property
    def failed(self) -> int:
        """Sent requests without an ``ok`` answer: errors and unanswered."""
        return int((self.sent & ~self.ok).sum())

    @property
    def unanswered(self) -> int:
        return int((self.sent & (self.answers == 0)).sum())

    def window(self) -> float:
        """Seconds from the first send to the last answer."""
        sent = self.sent_at[self.sent]
        done = self.done_at[~np.isnan(self.done_at)]
        if not len(sent) or not len(done):
            return 0.0
        return float(done.max() - sent.min())


def connect(port: int, deadline_s: float = 10.0) -> socket.socket:
    sock = socket.create_connection(("127.0.0.1", port), timeout=deadline_s)
    sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    sock.setblocking(False)
    return sock


def _send(sock: socket.socket, data: bytes, deadline_s: float) -> None:
    """Write all of ``data`` or raise :class:`ServerGone` by the deadline."""
    view = memoryview(data)
    limit = time.perf_counter() + deadline_s
    while view:
        try:
            written = sock.send(view)
        except BlockingIOError:
            written = 0
        except OSError as exc:
            raise ServerGone(f"send failed: {exc}") from None
        view = view[written:]
        if view:
            remaining = limit - time.perf_counter()
            if remaining <= 0:
                raise ServerGone("send timed out")
            select.select([], [sock], [], remaining)


class _Reader:
    """Split the byte stream into lines; count the bytes."""

    def __init__(self, sock: socket.socket) -> None:
        self.sock = sock
        self.buffer = b""
        self.received = 0

    def read(self, timeout: float) -> Optional[list]:
        """The complete lines now available, or ``None`` on timeout."""
        ready, _, _ = select.select([self.sock], [], [], max(0.0, timeout))
        if not ready:
            return None
        try:
            chunk = self.sock.recv(_RECV)
        except BlockingIOError:
            return []
        except OSError as exc:
            raise ServerGone(f"receive failed: {exc}") from None
        if not chunk:
            raise ServerGone("the server closed the connection")
        self.received += len(chunk)
        lines = (self.buffer + chunk).split(b"\n")
        self.buffer = lines.pop()
        return lines


def request_once(
    sock: socket.socket, payload: Dict[str, Any], deadline_s: float
) -> Dict[str, Any]:
    """Send one control request and wait for its answer (by id)."""
    reader = _Reader(sock)
    _send(sock, encode(payload), deadline_s)
    limit = time.perf_counter() + deadline_s
    while True:
        remaining = limit - time.perf_counter()
        if remaining <= 0:
            raise ServerGone(f"no answer to {payload['op']!r} in {deadline_s} s")
        for line in reader.read(remaining) or ():
            answer = json.loads(line)
            if answer.get("id") == payload["id"]:
                return answer


def _absorb(record: ClientRecord, lines: list, now: float) -> int:
    """Record a batch of answers; return how many were first answers."""
    fresh = 0
    n = len(record.sent)
    for line in lines:
        answer = json.loads(line)
        index = answer.get("id")
        if not isinstance(index, int) or not 0 <= index < n or not record.sent[index]:
            record.unknown_answers += 1
            continue
        record.answers[index] += 1
        if record.answers[index] > 1:
            continue
        fresh += 1
        record.done_at[index] = now
        if answer.get("ok"):
            record.ok[index] = True
            record.shard[index] = answer["shard"]
            record.bin[index] = answer["bin"]
        else:
            message = str(answer.get("error"))[:120]
            record.error_messages[message] = (
                record.error_messages.get(message, 0) + 1
            )
    return fresh


def closed_loop(
    sock: socket.socket, stream: RequestStream, window: int, max_seconds: float
) -> ClientRecord:
    """Keep ``window`` requests in flight; send one more per answer.

    Sending stops when the stream runs out, or after ``max_seconds``; the
    loop then collects the answers still outstanding.
    """
    record = ClientRecord.empty(stream)
    reader = _Reader(sock)
    lines = stream.lines
    total = len(lines)
    started = time.perf_counter()
    stop_sending = started + max_seconds
    next_index = 0
    outstanding = 0
    last_answer = started
    try:
        first = min(window, total)
        now = time.perf_counter()
        _send(sock, b"".join(lines[:first]), REQUEST_DEADLINE_S)
        record.sent[:first] = True
        record.sent_at[:first] = now
        record.bytes_sent += sum(len(line) for line in lines[:first])
        next_index = outstanding = first
        while outstanding:
            got = reader.read(last_answer + REQUEST_DEADLINE_S - time.perf_counter())
            now = time.perf_counter()
            if got is None:
                raise ServerGone(
                    f"no answer for {REQUEST_DEADLINE_S} s with "
                    f"{outstanding} requests outstanding"
                )
            if not got:
                continue
            fresh = _absorb(record, got, now)
            outstanding -= fresh
            if fresh:
                last_answer = now
            if fresh and now < stop_sending and next_index < total:
                end = min(total, next_index + fresh)
                chunk = lines[next_index:end]
                _send(sock, b"".join(chunk), REQUEST_DEADLINE_S)
                sent_at = time.perf_counter()
                record.sent[next_index:end] = True
                record.sent_at[next_index:end] = sent_at
                record.bytes_sent += sum(len(line) for line in chunk)
                outstanding += end - next_index
                next_index = end
    except ServerGone as exc:
        record.stop_reason = str(exc)
    record.start_at[:] = record.sent_at
    record.bytes_received = reader.received
    return record


def paced_loop(sock: socket.socket, stream: RequestStream) -> ClientRecord:
    """Send each request at its due time, whatever the answers do.

    Latency runs from the due time, so a stall also charges the requests
    that queued behind it.
    """
    assert stream.due is not None
    record = ClientRecord.empty(stream)
    reader = _Reader(sock)
    lines = stream.lines
    total = len(lines)
    started = time.perf_counter() + 0.01
    due = started + stream.due
    record.start_at[:] = due
    next_index = 0
    outstanding = 0
    last_answer = started
    try:
        while next_index < total or outstanding:
            now = time.perf_counter()
            if next_index < total and due[next_index] <= now:
                end = int(np.searchsorted(due, now, side="right"))
                chunk = lines[next_index:end]
                _send(sock, b"".join(chunk), REQUEST_DEADLINE_S)
                record.sent[next_index:end] = True
                record.sent_at[next_index:end] = time.perf_counter()
                record.bytes_sent += sum(len(line) for line in chunk)
                if not outstanding:
                    last_answer = now
                outstanding += end - next_index
                next_index = end
            limit = last_answer + REQUEST_DEADLINE_S if outstanding else np.inf
            wake = due[next_index] if next_index < total else limit
            got = reader.read(min(wake, limit) - time.perf_counter())
            now = time.perf_counter()
            if got:
                fresh = _absorb(record, got, now)
                outstanding -= fresh
                if fresh:
                    last_answer = now
            elif outstanding and now >= limit:
                raise ServerGone(
                    f"no answer for {REQUEST_DEADLINE_S} s with "
                    f"{outstanding} requests outstanding"
                )
    except ServerGone as exc:
        record.stop_reason = str(exc)
    record.bytes_received = reader.received
    return record


def lateness_ms(record: ClientRecord) -> float:
    """How late the open-loop generator sent, at its worst (ms)."""
    sent = record.sent
    if not sent.any():
        return 0.0
    return float(np.max(record.sent_at[sent] - record.start_at[sent]) * 1000.0)
