"""The benchmark's inputs: request streams made from the workload seed.

Both TCP workloads draw their events from the program's own workload
registry (``repro.workloads.generate_events``) and encode them with the wire
codec (``repro.serve.protocol.encode``) before any timing starts, so the
server receives exactly the generated request lines and nothing else.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from repro.serve.protocol import encode
from repro.workloads import generate_events

#: The served configuration: kd_choice on 2 process shards behind the
#: two_choice router, with the server's default batching window.
SERVE_N_BINS = 65536
SERVE_K = 4
SERVE_D = 8
SERVE_SHARDS = 2
#: Pool capacity (the spec's ``n_balls``): far above what a run can place,
#: so no run ever meets the capacity limit.
SERVE_CAPACITY = 1 << 23

#: Closed loop: requests kept in flight on the one connection.
CLOSED_WINDOW = 64
#: Closed loop: requests per second of run, near today's rate, so that a
#: run of ``seconds`` does a fixed amount of work and lasts about that long.
CLOSED_REQUESTS_PER_S = 9_000
#: Closed loop: a run stops sending after this many times ``seconds``.
CLOSED_TIME_CAP = 3.0

#: Open loop: events due per second, and the churn of the ``uniform`` mix.
PACED_RATE = 1000.0
PACED_CHURN = 0.5

PLACE = 0
REMOVE = 1


@dataclass
class RequestStream:
    """Pre-encoded requests; request ``i`` carries ``"id": i``."""

    lines: List[bytes]
    ops: np.ndarray  #: PLACE or REMOVE per request
    items: np.ndarray  #: the item id each request names
    due: Optional[np.ndarray] = None  #: open loop: send time, s from start

    def __len__(self) -> int:
        return len(self.lines)


def encode_events(events: List[dict], due: Optional[np.ndarray]) -> RequestStream:
    """Encode registry events as requests with ids 0, 1, ... in order."""
    lines = [
        encode({"id": index, "op": event["op"], "item": event["item"]})
        for index, event in enumerate(events)
    ]
    ops = np.array(
        [PLACE if event["op"] == "place" else REMOVE for event in events],
        dtype=np.int8,
    )
    items = np.array([event["item"] for event in events], dtype=np.int64)
    return RequestStream(lines=lines, ops=ops, items=items, due=due)


def closed_requests(seed: int, seconds: float) -> RequestStream:
    """``tcp_closed``: unique tracked places (``uniform``, no churn)."""
    count = max(CLOSED_WINDOW, int(CLOSED_REQUESTS_PER_S * seconds))
    return encode_events(generate_events("uniform", count, {}, seed), None)


def paced_requests(seed: int, seconds: float) -> RequestStream:
    """``tcp_paced_churn``: ``uniform`` with churn, due at a fixed rate.

    The stream is cut after exactly ``PACED_RATE * seconds`` events, so a
    run's operation count depends on its length alone.  Any prefix is
    valid: a remove always follows the place of its item.
    """
    count = max(1, int(round(PACED_RATE * seconds)))
    # ``count`` places yield at least ``count`` events.
    events = generate_events("uniform", count, {"churn": PACED_CHURN}, seed)
    due = np.arange(count, dtype=np.float64) / PACED_RATE
    return encode_events(events[:count], due)
