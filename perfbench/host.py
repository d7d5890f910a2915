"""What the host does to this VM: the CPU time it steals, and its speed.

A slice of a run, or a cell trial, during which the host stole more than
``STEAL_LIMIT`` of this VM's CPU time does not time the program alone.  The
figures leave it out when enough others remain, and otherwise keep the
least stolen from.

:class:`SpeedProbe` times a fixed NumPy sort that does not involve the
program.  With no CPU stolen at all, this host still runs memory-bound code
up to a quarter slower for tens of seconds at a time, and the probe's time
swings with it.
"""

from __future__ import annotations

import time
from typing import List, Sequence, Tuple, TypeVar

import numpy as np

#: Stolen share of CPU time above which a slice or trial is left out.
STEAL_LIMIT = 0.01

T = TypeVar("T")


def ticks() -> Tuple[int, int]:
    """(stolen, total) CPU ticks of this VM since boot."""
    with open("/proc/stat") as handle:
        values = [int(value) for value in handle.readline().split()[1:9]]
    return values[7], sum(values)


def stolen_share(before: Tuple[float, float], after: Tuple[float, float]) -> float:
    total = after[1] - before[1]
    return (after[0] - before[0]) / total if total > 0 else 0.0


def unstolen(items: Sequence[T], shares: Sequence[float], keep_at_least: int) -> List[T]:
    """The items whose stolen share is within the limit, or, when fewer than
    ``keep_at_least`` are, the ``keep_at_least`` least stolen from."""
    kept = [item for item, share in zip(items, shares) if share <= STEAL_LIMIT]
    if len(kept) >= keep_at_least:
        return kept
    order = sorted(range(len(items)), key=lambda index: shares[index])
    return [items[index] for index in sorted(order[:keep_at_least])]


class SpeedProbe:
    """Times one sort of 2^18 random int64 (2 MiB, about the working set of
    a Table 1 cell).  ``REFERENCE_S`` is its time on this box while quiet;
    ``REFERENCE_S / seconds()`` is how fast the host runs right now."""

    REFERENCE_S = 0.0025

    def __init__(self) -> None:
        self._data = np.random.default_rng(0).integers(0, 1 << 40, size=1 << 18)

    def seconds(self) -> float:
        start = time.perf_counter()
        np.sort(self._data)
        return time.perf_counter() - start
