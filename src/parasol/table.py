"""Entry storage: one record index shared by both backends, and the flat store.

Every stored itemset maps to a `Record` (count, err, birth, own) where
birth is the timestamp the entry was (re)created and own marks entries
born as the arriving transaction's own itemset. `Store` owns that index
and answers every read (size, membership, lookup, snapshot) for both
backends; `EntryTable` adds the flat update sweep and a lazy min-heap for
eviction, and the weeping tree adds its spanning-tree links to the same
records. Eviction order is (count, birth, own-first, itemset), i.e.
lowest count first and oldest first among ties; the own-first bit
reproduces the fact that a transaction's fresh entry is inserted before
the candidates it spawns. Both backends evict in this order.
"""

from __future__ import annotations

import heapq
from typing import Callable

from .itemsets import Entry, Items, require_canonical


class Record:
    """One entry's estimate and age; its itemset is the key it is stored under."""

    __slots__ = ("count", "err", "birth", "own")

    def __init__(self, count: int, err: int, birth: int, own: bool) -> None:
        self.count = count
        self.err = err
        self.birth = birth
        self.own = 0 if own else 1  # transaction-born entries evict first among ties


class Store:
    """The read side of an entry store: an index from itemset to record.

    Subclasses write through `update(items, delta_prev, timestamp)` and
    `delete_minima(should_delete, delta_prev)`, with the same contracts.
    """

    __slots__ = ("_index",)

    def __init__(self) -> None:
        self._index: dict[Items, Record] = {}

    def __len__(self) -> int:
        return len(self._index)

    def __contains__(self, alpha: Items) -> bool:
        return alpha in self._index

    def get(self, alpha: Items) -> Entry | None:
        rec = self._index.get(alpha)
        return None if rec is None else Entry(alpha, rec.count, rec.err)

    def snapshot(self) -> list[Entry]:
        """Immutable entries in canonical (birth, own-first, itemset) order."""
        rows = sorted(self._index.items(), key=lambda kv: (kv[1].birth, kv[1].own, kv[0]))
        return [Entry(alpha, rec.count, rec.err) for alpha, rec in rows]


class EntryTable(Store):
    """Bounded collection of entries keyed uniquely by itemset."""

    __slots__ = ("_heap",)

    def __init__(self) -> None:
        super().__init__()
        # (count, birth, own, itemset) of every record change; keys whose
        # record has since changed or gone are skipped when they surface
        self._heap: list[tuple[int, int, int, Items]] = []

    def insert(self, alpha: Items, count: int, err: int, birth: int, own: bool) -> None:
        require_canonical(alpha)
        if alpha in self._index:
            raise KeyError(f"duplicate entry for {alpha}")
        rec = self._index[alpha] = Record(count, err, birth, own)
        heapq.heappush(self._heap, (count, birth, rec.own, alpha))

    def update(self, items: Items, delta_prev: int, timestamp: int) -> tuple[int, int]:
        """Fold one transaction in; returns (visits, intersections) as the tree does.

        If the transaction's itemset is new it is inserted first with estimate
        (delta_prev, delta_prev) so it takes part in the intersection sweep;
        its count therefore ends at delta_prev + 1. Every stored itemset with
        a non-empty overlap contributes a candidate (overlap, count + 1, err);
        colliding candidates keep the maximum count, breaking count ties
        toward the smaller err. Candidates then replace or extend the table,
        except that an entry predating this step keeps its own err when its
        count rises by exactly one. The result has at most 2 * len + 1
        entries; no eviction happens here. The sweep visits and intersects
        every entry once, so both numbers are the table's size after the
        fresh insert.
        """
        index = self._index
        fresh = items not in index
        if fresh:
            self.insert(items, delta_prev, delta_prev, timestamp, own=True)

        swept = len(index)
        tset = set(items)
        buf: dict[Items, tuple[int, int]] = {}
        for alpha, rec in index.items():
            beta = tuple(x for x in alpha if x in tset)
            if not beta:
                continue
            count = rec.count + 1
            prev = buf.get(beta)
            if prev is None or count > prev[0] or (count == prev[0] and rec.err < prev[1]):
                buf[beta] = (count, rec.err)

        heap = self._heap
        for beta, (count, err) in buf.items():
            rec = index.get(beta)
            if rec is None:
                self.insert(beta, count, err, timestamp, own=(beta == items))
                continue
            if count != rec.count + 1 or (fresh and beta == items):
                rec.err = err
            rec.count = count
            heapq.heappush(heap, (count, rec.birth, rec.own, beta))
            if len(heap) > 4 * len(index) + 64:  # rebuild from the live records
                heap = self._heap = [(r.count, r.birth, r.own, a) for a, r in index.items()]
                heapq.heapify(heap)
        return swept, swept

    def delete_minima(
        self, should_delete: Callable[[int, int], bool], delta_prev: int
    ) -> int:
        """Pop minimum entries while should_delete(min_count, size) holds.

        Returns the new maximum error: the largest of delta_prev and the
        evicted counts.
        """
        index, heap = self._index, self._heap
        delta = delta_prev
        while heap:
            count, birth, _, alpha = heap[0]
            rec = index.get(alpha)
            if rec is None or rec.count != count or rec.birth != birth:
                heapq.heappop(heap)  # stale: replaced, evicted, or reborn
                continue
            if not should_delete(count, len(index)):
                break
            heapq.heappop(heap)
            del index[alpha]
            delta = max(delta, count)
        return delta
