"""Post-processing that shrinks a finished table to a more concise summary.

An entry e1 can be dropped whenever some superset entry e2 satisfies
e1.count <= e2.count - e2.err + delta_n: the survivor then provably
covers the dropped itemset within delta_n. In exchange e2 keeps the
larger count and widens its err by any rise (`_absorb`), so its bracket
stays valid, its count - err pivot is kept and no count falls. So
absorption never creates new qualifying pairs, and an absorber's count
stays at least that of everything it absorbed: the output still
delta_n-covers the frequent itemsets, after a sigma filter too, and is
never larger than the input.

`delta_compress` is the one route, for either store: it tries every
pair of the entries it is given, and never touches the store they came
from, so a stream can go on after it.
"""

from __future__ import annotations

from typing import Iterable

from .itemsets import Entry
from .table import Store


def _qualifies(e1: Entry, e2: Entry, delta_n: int) -> bool:
    return (
        e1.alpha != e2.alpha
        and e1.count <= e2.count - e2.err + delta_n
        and set(e1.alpha).issubset(e2.alpha)
    )


def _absorb(count: int, err: int, taken: int) -> tuple[int, int]:
    """An absorber's (count, err) on taking `taken`: the larger count, err widened by the rise."""
    top = max(count, taken)
    return top, err + top - count


def delta_compress(entries: Iterable[Entry], delta_n: int) -> list[Entry]:
    """Pairwise compaction by repeated absorption until no pair qualifies.

    Candidates for removal are tried in descending count (ties: input
    order, which callers supply oldest-first); the absorbing superset is
    the first qualifying entry with the highest count. Order matters for
    which survivors remain, so it is fixed for reproducible output.
    Quadratic per pass over at most len(entries) passes; this is an
    offline step on a bounded table.
    """
    pool: list[Entry] = list(entries)
    while True:
        for j in sorted(range(len(pool)), key=lambda j: (-pool[j].count, j)):
            e1 = pool[j]
            found = [m for m, e2 in enumerate(pool) if _qualifies(e1, e2, delta_n)]
            if found:
                m = max(found, key=lambda m: pool[m].count)
                e2 = pool[m]
                pool[m] = Entry(e2.alpha, *_absorb(e2.count, e2.err, e1.count))
                del pool[j]
                break
        else:
            return pool


def compress_two_step(store: Store, delta_n: int) -> list[Entry]:
    """`delta_compress` of the store's snapshot, leaving the store as it was.

    The benchmark's `drift` replay (`perfbench/replay.py`) is its only
    caller, and its tracer wraps this name; the package does not export it.
    """
    return delta_compress(store.snapshot(), delta_n)
