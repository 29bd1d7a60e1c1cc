"""Entry storage: one record index and one eviction loop for both backends.

Every stored itemset maps to a `Record` (count, err, birth, own) where
birth is the timestamp the entry was (re)created and own marks entries
born as the arriving transaction's own itemset. `Store` owns that index,
answers every read (size, membership, lookup, snapshot) and pops minima
in one eviction loop for both backends; `EntryTable` adds the flat
update sweep and keeps one heap key per record across calls, and the
weeping tree adds spanning-tree links to the same records and rebuilds
the heap from the root's children at each call. Eviction order is
(count, birth, own-first, itemset): lowest count first and oldest first
among ties; the own-first bit reproduces the fact that a transaction's
fresh entry is inserted before the candidates it spawns.
"""

from __future__ import annotations

import heapq
import math

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
    """An index from itemset to record, its reads, and its eviction loop.

    Subclasses write through `update(items, delta_prev, timestamp)` and
    fill `_heap` with one (count, birth, own, itemset) key per keyed
    record. A key may lag a raised count, never lead it, and leaves only
    with its record: the loop re-keys a lagging top key, so a top key
    that matches its record is the true minimum.
    """

    __slots__ = ("_index", "_heap")

    def __init__(self) -> None:
        self._index: dict[Items, Record] = {}
        self._heap: list[tuple[int, int, int, Items]] = []

    def __len__(self) -> int:
        return len(self._index)

    def __contains__(self, alpha: Items) -> bool:
        return alpha in self._index

    def get(self, alpha: Items) -> Entry | None:
        rec = self._index.get(alpha)
        return None if rec is None else Entry(alpha, rec.count, rec.err)

    def snapshot(self, above: float = -math.inf) -> list[Entry]:
        """Immutable entries with count > above, in canonical (birth,
        own-first, itemset) order; by default every entry.

        The read filters before it sorts: one pass over the index keeps
        the m records that clear the threshold, and only those are sorted
        and built into entries, so a read costs O(len + m log m).
        """
        rows = [(r.birth, r.own, a, r) for a, r in self._index.items() if r.count > above]
        rows.sort()  # itemsets are unique, so the record itself is never compared
        return [Entry(alpha, rec.count, rec.err) for _, _, alpha, rec in rows]

    def delete_minima(self, k: float, floor: float, delta_prev: int) -> int:
        """Pop minimum entries while size > k or count <= floor, the
        deletion rule with floor = epsilon * i; returns the new maximum
        error, the largest of delta_prev and the evicted counts."""
        index, heap = self._index, self._heap
        delta = delta_prev
        while heap:
            count, birth, own, alpha = heap[0]
            rec = index[alpha]
            if rec.count != count:  # raised since it was keyed
                heapq.heapreplace(heap, (rec.count, birth, own, alpha))
                continue
            if len(index) <= k and count > floor:
                break
            heapq.heappop(heap)
            del index[alpha]
            delta = max(delta, count)
            self._evicted(rec)
        return delta

    def _evicted(self, rec: Record) -> None:
        """Called after rec leaves the index; the flat store keeps nothing else."""


class EntryTable(Store):
    """Bounded collection of entries keyed uniquely by itemset.

    Only `insert` pushes a key, and the heap outlives each call: a count
    only rises, since an entry's own overlap is one of its candidates.
    """

    __slots__ = ()

    def insert(self, alpha: Items, count: int, err: int, birth: int, own: bool) -> None:
        require_canonical(alpha)
        if alpha in self._index:
            raise KeyError(f"duplicate entry for {alpha}")
        rec = self._index[alpha] = Record(count, err, birth, own)
        heapq.heappush(self._heap, (count, birth, rec.own, alpha))

    def update(self, items: Items, delta_prev: int, timestamp: int) -> tuple[int, int]:
        """Fold one transaction in; returns (visits, intersections) as the tree does.

        The transaction is one candidate beside its overlaps: if its itemset
        is new it seeds the candidate buffer with (delta_prev + 1,
        delta_prev), as the tree's root does. Every stored itemset with a
        non-empty overlap contributes a candidate (overlap, count + 1, err);
        colliding candidates keep the maximum count, breaking count ties
        toward the smaller err, so the winner does not depend on the order
        they arrive in. A new candidate is inserted at its final estimate,
        and a stored entry takes the winner's, except that it keeps its own
        err when its count rises by exactly one. The result has at most
        2 * len + 1 entries; no eviction happens here. The sweep visits and
        intersects every stored entry once, and the seed counts as one
        more of each.

        Each overlap is `tuple(filter(inside, alpha))`, with `inside` bound
        once per update to the `__contains__` of a set of the transaction's
        items. The filter keeps alpha's sorted order, so the overlap is
        canonical, and it tests membership rather than truth, so item 0
        stays in.
        """
        index = self._index
        # the seed is the buffer's first key: a new entry precedes its spawn
        buf: dict[Items, tuple[int, int]] = {}
        if items not in index:
            buf[items] = (delta_prev + 1, delta_prev)
        swept = len(index) + len(buf)
        inside = set(items).__contains__
        for alpha, rec in index.items():
            beta = tuple(filter(inside, alpha))
            if not beta:
                continue
            count = rec.count + 1
            prev = buf.get(beta)
            if prev is None or count > prev[0] or (count == prev[0] and rec.err < prev[1]):
                buf[beta] = (count, rec.err)

        for beta, (count, err) in buf.items():
            rec = index.get(beta)
            if rec is None:
                self.insert(beta, count, err, timestamp, own=beta == items)
                continue
            if count != rec.count + 1:
                rec.err = err
            rec.count = count
        return swept, swept
