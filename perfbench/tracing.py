"""Spans recorded from outside the program, around calls into its layers.

A span is ``(name, start, end, parent, trace)``: ``parent`` is the id of
the span that caused it (-1 for none) and ``trace`` the id shared by the
spans of one request or one cell trial.  Spans stay in memory until
:meth:`Spans.write` puts them in a JSON-lines file when the run ends.
"""

from __future__ import annotations

import contextlib
import functools
import json
import time
from pathlib import Path
from typing import Any, Callable, Iterator, List, Optional, Tuple

import numpy as np

Span = Tuple[str, float, float, int, int]


class Spans:
    """An in-memory span log with a stack for nested, same-thread calls."""

    def __init__(self) -> None:
        self.rows: List[Span] = []
        self.trace = -1  #: trace id given to spans opened by :meth:`wrap`
        self._stack: List[int] = []

    def add(
        self, name: str, start: float, end: float, parent: int = -1,
        trace: int = -1,
    ) -> int:
        self.rows.append((name, start, end, parent, trace))
        return len(self.rows) - 1

    def wrap(self, name: str, fn: Callable[..., Any]) -> Callable[..., Any]:
        """``fn`` with a span around every call, nested under the open one."""

        @functools.wraps(fn)
        def timed(*args: Any, **kwargs: Any) -> Any:
            parent = self._stack[-1] if self._stack else -1
            index = self.add(name, time.perf_counter(), 0.0, parent, self.trace)
            self._stack.append(index)
            try:
                return fn(*args, **kwargs)
            finally:
                self._stack.pop()
                row = self.rows[index]
                self.rows[index] = (row[0], row[1], time.perf_counter(), row[3], row[4])

        return timed

    def durations(self, name: str, trace: Optional[set] = None) -> np.ndarray:
        return np.array(
            [
                end - start
                for span_name, start, end, _, span_trace in self.rows
                if span_name == name and (trace is None or span_trace in trace)
            ],
            dtype=np.float64,
        )

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            for index, (name, start, end, parent, trace) in enumerate(self.rows):
                handle.write(
                    json.dumps(
                        {"id": index, "name": name, "start": start, "end": end,
                         "parent": parent, "trace": trace},
                        separators=(",", ":"),
                    )
                    + "\n"
                )


@contextlib.contextmanager
def patched(spans: Spans, targets: List[Tuple[Any, str, str]]) -> Iterator[None]:
    """Wrap ``module.attr`` in a span named ``name`` for each target, and
    put the originals back on exit."""
    saved = [(module, attr, getattr(module, attr)) for module, attr, _ in targets]
    try:
        for (module, attr, name), (_, _, original) in zip(targets, saved):
            setattr(module, attr, spans.wrap(name, original))
        yield
    finally:
        for module, attr, original in saved:
            setattr(module, attr, original)


class TimedPool:
    """A :class:`~repro.serve.pool.ShardPool` stand-in that times every
    ``place_batch`` and ``remove`` and keeps what each call returned, in
    the order the server made the calls."""

    def __init__(self, pool: Any, spans: Spans) -> None:
        self._pool = pool
        self._spans = spans
        #: ("place", start, end, items, shards, bins) or
        #: ("remove", start, end, item, shard, bin)
        self.calls: List[Tuple[Any, ...]] = []

    def __getattr__(self, name: str) -> Any:
        return getattr(self._pool, name)

    def place_batch(self, count: int, items: Any = None) -> Any:
        start = time.perf_counter()
        shards, bins = self._pool.place_batch(count, items)
        end = time.perf_counter()
        self._spans.add("pool.place_batch", start, end, trace=len(self.calls))
        self.calls.append(("place", start, end, list(items or ()), shards, bins))
        return shards, bins

    def remove(self, item: Any) -> Any:
        start = time.perf_counter()
        shard, bin_index = self._pool.remove(item)
        end = time.perf_counter()
        self._spans.add("pool.remove", start, end, trace=len(self.calls))
        self.calls.append(("remove", start, end, item, shard, bin_index))
        return shard, bin_index
