"""Output checks made apart from the program.

Each check returns a list of problems (empty when the output is correct).
The serve checks rebuild the bin loads from the client's own record of the
``(shard, bin)`` answers and compare them with the books the shards report;
the Table 1 checks compare with the values the paper prints.  Neither
compares with a stored copy of earlier output.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from .inputs import PLACE, REMOVE


# ----------------------------------------------------------------------
# Serve path
# ----------------------------------------------------------------------
def tally_loads(record: Any, n_shards: int, n_bins: int) -> np.ndarray:
    """Per-shard bin loads: +1 per answered place, -1 per answered remove."""
    ok = record.sent & record.ok
    loads = np.zeros((n_shards, n_bins), dtype=np.int64)
    places = ok & (record.ops == PLACE)
    removes = ok & (record.ops == REMOVE)
    np.add.at(loads, (record.shard[places], record.bin[places]), 1)
    np.subtract.at(loads, (record.shard[removes], record.bin[removes]), 1)
    return loads


def single_choice_order(total_bins: int) -> float:
    """ln N / ln ln N: the max-load order of one random choice per ball."""
    return math.log(total_bins) / math.log(math.log(total_bins))


def replay_answers(
    record: Any,
) -> Tuple[Dict[int, Tuple[int, int]], Optional[str]]:
    """The live items with the ``(shard, bin)`` their place answered, and
    the first remove that answered elsewhere (``None`` if none did)."""
    live: Dict[int, Tuple[int, int]] = {}
    for index in np.flatnonzero(record.sent & record.ok):
        item = int(record.items[index])
        where = (int(record.shard[index]), int(record.bin[index]))
        if record.ops[index] == PLACE:
            live[item] = where
            continue
        before = live.pop(item, None)
        if before != where:
            return live, (
                f"remove {index} of item {item} answered {where}, its place "
                f"answered {before}"
            )
    return live, None


def check_answers(record: Any, n_shards: int, n_bins: int) -> List[str]:
    """Exactly one answer per request, each naming a real ``(shard, bin)``,
    and every remove answering where its place landed."""
    problems: List[str] = []
    twice = np.flatnonzero(record.answers > 1)
    if len(twice):
        problems.append(
            f"{len(twice)} requests answered more than once (id {twice[0]})"
        )
    stray = np.flatnonzero(~record.sent & (record.answers > 0))
    if len(stray):
        problems.append(f"{len(stray)} answers to unsent requests (id {stray[0]})")
    if record.unknown_answers:
        problems.append(f"{record.unknown_answers} answers with unknown ids")
    missing = np.flatnonzero(record.sent & (record.answers == 0))
    if len(missing) and record.stop_reason is None:
        problems.append(
            f"{len(missing)} requests never answered in a run that did not "
            f"stop early (id {missing[0]})"
        )
    ok = record.sent & record.ok
    outside = ok & (
        (record.shard < 0) | (record.shard >= n_shards)
        | (record.bin < 0) | (record.bin >= n_bins)
    )
    if outside.any():
        index = int(np.flatnonzero(outside)[0])
        problems.append(
            f"request {index} answered a (shard, bin) outside the pool: "
            f"({record.shard[index]}, {record.bin[index]})"
        )
        return problems
    misplaced = replay_answers(record)[1]
    if misplaced is not None:
        problems.append(misplaced)
    return problems


def _differ(name: str, mine: Mapping[int, Any], books: Mapping[int, Any]) -> str:
    wrong = sorted(item for item in mine.keys() | books.keys()
                   if mine.get(item) != books.get(item))
    item = wrong[0]
    return (
        f"{name}: {len(wrong)} live items differ from the tally, e.g. item "
        f"{item}: the books {books.get(item)}, the tally {mine.get(item)}"
    )


def check_books(
    record: Any, stats: Mapping[str, Any], manifest: Mapping[str, Any],
    n_shards: int, n_bins: int,
) -> List[str]:
    """The client's tally equals every shard's books and the pool's counts.

    ``stats`` is the server's ``stats`` answer and ``manifest`` the pool
    snapshot written right after it.  Every live item must sit where its
    place answered, in the pool's item map and in its shard's.  A (k, d)
    shard commits a whole round of balls when the first of them is asked
    for and hands out the rest to the next requests, so its loads also hold
    the undelivered balls of its open round (the snapshot's ``pending``
    bins); with those added, the tally must equal the shard's loads bin by
    bin, its ball count and its max load.
    """
    problems: List[str] = []
    loads = tally_loads(record, n_shards, n_bins)
    if (loads < 0).any():
        problems.append("the tally has a bin with more removes than places")
    pool = stats["pool"]
    shards = pool["shards"]
    documents = [entry["snapshot"] for entry in manifest["shards"]]
    if len(shards) != n_shards or len(documents) != n_shards:
        return problems + [
            f"the pool reports {len(shards)} shards and snapshots "
            f"{len(documents)}, not {n_shards}"
        ]
    live, _ = replay_answers(record)
    pool_items = {int(item): int(shard) for item, shard in manifest["items"]}
    mine_shards = {item: where[0] for item, where in live.items()}
    if pool_items != mine_shards:
        problems.append(_differ("pool item map", mine_shards, pool_items))
    ok = record.sent & record.ok
    placed = ok & (record.ops == PLACE)
    removed = ok & (record.ops == REMOVE)
    placed_per_shard = np.bincount(record.shard[placed], minlength=n_shards)
    removed_per_shard = np.bincount(record.shard[removed], minlength=n_shards)
    for index, (books, document, mine) in enumerate(zip(shards, documents, loads)):
        if books["n_bins"] != n_bins:
            problems.append(f"shard {index} has {books['n_bins']} bins, not {n_bins}")
            continue
        for key, mine_count in (("placed", placed_per_shard[index]),
                                ("removed", removed_per_shard[index])):
            if books[key] != int(mine_count):
                problems.append(
                    f"shard {index} {key} {books[key]}, the tally {int(mine_count)}"
                )
        shard_items = {int(item): int(bin_index)
                       for item, _, bin_index in document["items"]}
        mine_bins = {item: where[1] for item, where in live.items()
                     if where[0] == index}
        if shard_items != mine_bins:
            problems.append(_differ(f"shard {index}", mine_bins, shard_items))
        pending = np.asarray(document["pending"], dtype=np.int64)
        if pending.size and not 0 <= pending.min() <= pending.max() < n_bins:
            problems.append(f"shard {index} has an open-round bin outside 0..{n_bins - 1}")
            continue
        held = mine + np.bincount(pending, minlength=n_bins)
        if books["live_balls"] != int(held.sum()):
            problems.append(
                f"shard {index} holds {books['live_balls']} balls, the tally "
                f"{int(mine.sum())} plus {pending.size} of its open round"
            )
        if books["max_load"] != int(held.max()):
            problems.append(
                f"shard {index} max load {books['max_load']}, the tally with "
                f"its open round {int(held.max())}"
            )
        digest = hashlib.sha256(np.ascontiguousarray(held).tobytes()).hexdigest()
        if books["loads_sha256"] != digest:
            problems.append(f"shard {index} loads differ from the tally (sha256)")
    if list(pool["shard_items"]) != loads.sum(axis=1).tolist():
        problems.append(
            f"pool shard_items {pool['shard_items']}, the tally "
            f"{loads.sum(axis=1).tolist()}"
        )
    if pool["placed"] != int(placed.sum()):
        problems.append(
            f"pool placed {pool['placed']}, answered places {int(placed.sum())}"
        )
    if pool["removed"] != int(removed.sum()):
        problems.append(
            f"pool removed {pool['removed']}, answered removes {int(removed.sum())}"
        )
    total_bins = n_shards * n_bins
    bound = loads.sum() / total_bins + single_choice_order(total_bins)
    if loads.max() >= bound:
        problems.append(
            f"tally max load {int(loads.max())} is not below mean load plus "
            f"ln N / ln ln N = {bound:.2f}"
        )
    return problems


def check_serve(
    record: Any,
    books: Optional[Tuple[Mapping[str, Any], Mapping[str, Any]]],
    n_shards: int,
    n_bins: int,
) -> List[str]:
    """All serve checks; ``books`` is ``(stats, manifest)``, or ``None``
    when the server gave neither.  The books are compared only when the
    run did not stop early: an unanswered place may or may not have landed
    (and such a run has failed operations already)."""
    problems = check_answers(record, n_shards, n_bins)
    if record.stop_reason is None and record.unanswered == 0:
        if books is None:
            problems.append("the server answered no stats or no snapshot")
        else:
            problems += check_books(record, *books, n_shards, n_bins)
    return problems


# ----------------------------------------------------------------------
# Table 1
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class CellTrial:
    """One trial of one Table 1 cell, as the run observed it."""

    k: int
    d: int
    n: int
    max_load: float
    gap: float
    messages: float
    balls: int  #: the sum of the cell's final bin loads
    wall_s: float
    stolen: float = 0.0  #: share of CPU time the host stole during the trial
    probe_s: float = 0.0  #: mean speed-probe time just before and after it


def check_table1(
    trials: Sequence[CellTrial], paper: Mapping[Tuple[int, int], Sequence[int]]
) -> List[str]:
    """Max load within the paper's printed set widened by one; messages
    exactly ``d * n / k``; the loads summing to ``n``."""
    problems: List[str] = []
    for trial in trials:
        cell = (trial.k, trial.d)
        if cell not in paper:
            problems.append(f"cell {cell} is not in the paper's Table 1")
            continue
        low, high = min(paper[cell]) - 1, max(paper[cell]) + 1
        if not low <= trial.max_load <= high:
            problems.append(
                f"cell {cell}: max load {trial.max_load:g} outside the paper's "
                f"{sorted(paper[cell])} widened by 1"
            )
        if trial.n % trial.k or trial.messages != trial.d * trial.n // trial.k:
            problems.append(
                f"cell {cell}: {trial.messages:g} messages, expected "
                f"d*n/k = {trial.d * trial.n / trial.k:g}"
            )
        if trial.balls != trial.n:
            problems.append(f"cell {cell}: loads sum to {trial.balls}, not {trial.n}")
    return problems
