"""Flat entry storage: a dict of records plus a lazy min-heap for eviction.

Records are keyed by itemset and carry (count, err, birth, own) where
birth is the timestamp the entry was (re)created and own marks entries
born as the arriving transaction's own itemset. Eviction order is
(count, birth, own-first, itemset), i.e. lowest count first and oldest
first among ties; the own-first bit reproduces the fact that a
transaction's fresh entry is inserted before the candidates it spawns.
This key is shared with the tree index so both backends evict
identically.
"""

from __future__ import annotations

import heapq
from typing import Callable, Iterator

from .itemsets import Entry, Items

# record layout: [count, err, birth, own]
_COUNT, _ERR, _BIRTH, _OWN = range(4)


class EntryTable:
    """Bounded collection of entries keyed uniquely by itemset."""

    __slots__ = ("_rec", "_heap")

    def __init__(self) -> None:
        self._rec: dict[Items, list[int]] = {}
        self._heap: list[tuple[int, int, int, Items]] = []

    def __len__(self) -> int:
        return len(self._rec)

    def __contains__(self, alpha: Items) -> bool:
        return alpha in self._rec

    def get(self, alpha: Items) -> Entry | None:
        rec = self._rec.get(alpha)
        if rec is None:
            return None
        return Entry(alpha, rec[_COUNT], rec[_ERR])

    def records(self) -> Iterator[tuple[Items, list[int]]]:
        """Raw (itemset, record) pairs in insertion order; do not mutate."""
        return iter(self._rec.items())

    def insert(self, alpha: Items, count: int, err: int, birth: int, own: bool) -> None:
        if alpha in self._rec:
            raise KeyError(f"duplicate entry for {alpha}")
        self._rec[alpha] = [count, err, birth, 0 if own else 1]
        heapq.heappush(self._heap, (count, birth, 0 if own else 1, alpha))

    def set_count(self, alpha: Items, count: int, err: int) -> None:
        """Replace an entry's estimate in place; the entry keeps its age."""
        rec = self._rec[alpha]
        rec[_COUNT] = count
        rec[_ERR] = err
        heapq.heappush(self._heap, (count, rec[_BIRTH], rec[_OWN], alpha))
        if len(self._heap) > 4 * len(self._rec) + 64:
            self._compact()

    def peek_min(self) -> tuple[Items, int] | None:
        """(itemset, count) of the current minimum entry, or None when empty."""
        while self._heap:
            count, birth, own, alpha = self._heap[0]
            rec = self._rec.get(alpha)
            if rec is not None and rec[_COUNT] == count and rec[_BIRTH] == birth:
                return alpha, count
            heapq.heappop(self._heap)  # stale: replaced, evicted, or reborn
        return None

    def pop_min(self) -> tuple[Items, int]:
        """Remove and return the minimum entry as (itemset, count)."""
        head = self.peek_min()
        if head is None:
            raise IndexError("pop_min on empty table")
        alpha, count = head
        heapq.heappop(self._heap)
        del self._rec[alpha]
        return alpha, count

    def delete_minima(
        self, should_delete: Callable[[int, int], bool], delta_prev: int
    ) -> int:
        """Pop minimum entries while should_delete(min_count, size) holds.

        Returns the new maximum error: the largest of delta_prev and the
        evicted counts.
        """
        delta = delta_prev
        head = self.peek_min()
        while head is not None and should_delete(head[1], len(self._rec)):
            self.pop_min()
            delta = max(delta, head[1])
            head = self.peek_min()
        return delta

    def snapshot(self) -> list[Entry]:
        """Immutable entries in canonical (birth, own-first, itemset) order."""
        rows = sorted(
            self._rec.items(), key=lambda kv: (kv[1][_BIRTH], kv[1][_OWN], kv[0])
        )
        return [Entry(alpha, rec[_COUNT], rec[_ERR]) for alpha, rec in rows]

    def _compact(self) -> None:
        self._heap = [
            (rec[_COUNT], rec[_BIRTH], rec[_OWN], alpha)
            for alpha, rec in self._rec.items()
        ]
        heapq.heapify(self._heap)
