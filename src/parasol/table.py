"""Entry storage: one record index, update rule and eviction loop for both stores.

Every stored itemset maps to a `Record` (count, err, rank), where rank
is (birth, not own, itemset): birth is the timestamp the entry was
(re)created and own marks an entry born as the arriving transaction's
own itemset. `Store` owns that index, answers every read and pops
minima over (count, rank) heap keys. `EntryTable`'s sweep and the
weeping tree's walk follow `Store`'s one update rule. Eviction takes
the lowest count first and the oldest first among ties; the own-first
bit reproduces the fact that a transaction's fresh entry is inserted
before its spawn.
"""

from __future__ import annotations

import heapq
import math

from .itemsets import Entry, Items, require_canonical


class Record:
    """One entry's estimate and its rank among entries of equal count."""

    __slots__ = ("count", "err", "rank")

    def __init__(self, alpha: Items, count: int, err: int, birth: int, own: bool) -> None:
        self.count = count
        self.err = err
        self.rank = (birth, not own, alpha)  # the one place the tie order is written


class Store:
    """An index from itemset to record, its reads, and its eviction loop.

    `update(items, delta_prev, timestamp)` is each subclass's only public
    write, by one rule: a stored itemset inside the transaction gains
    exactly one, and an overlap not yet stored is inserted at the best
    (count + 1, err) of the stored itemsets that produce it, a new
    transaction itemset also bidding (delta_prev + 1, delta_prev). The
    precondition is delta_prev at most every stored count, as the value
    `delete_minima` returns is. The rule rests on an invariant: no stored
    proper superset counts more than a stored subset. A stored itemset's
    candidates come only from its supersets, so its own count + 1 wins and
    buffering them would be dead work.

    The invariant is the case a < b of a stronger one, W: for stored a
    and b with a & b non-empty and b not inside a, some stored y with
    a & b <= y <= a counts at least b. W holds on the empty store and
    after every call. `delete_minima` removes minima: if a minimum m was
    a pair's only y, then m < a, and a counts at least m, which counts
    at least b, so a is a y. `update` gives each overlap x one more than
    the best count among its producers, the stored z with
    z & items == x and, for a new items, the seed at delta_prev; by the
    invariant before the call that is the rule above. So no count falls,
    and an overlap counts at least delta_prev + 1 and more than each
    producer. For a pair (a, b) after the call, let z_a and z_b be best
    producers of a and b, or the entry itself when it is not inside
    items. If b's best is the seed, a & items is a y. If a's best is the
    seed, or z_a contains z_b, then a is inside items and b is not, and
    b & items is a y. Otherwise W gives a y0 for (z_a, z_b) before the
    call, and y0 & items is a y after, or y0 when a and b both lie
    outside items. The proof covers counts, not err ties: an equal-count
    superset with a smaller err would offer a stored itemset a tighter
    err, which the rule does not take. That part stays empirical, gated
    by the tests' reference miner, which takes every producer's bid.

    `update` fills `_heap` with one (count, rank) key per keyed record.
    A key may lag a raised count, never lead it, and leaves only with
    its record: the loop re-keys a lagging top key, so a top key that
    matches its record is the true minimum.
    """

    __slots__ = ("_index", "_heap")

    def __init__(self) -> None:
        self._index: dict[Items, Record] = {}
        self._heap: list[tuple[int, tuple[int, bool, Items]]] = []

    def __len__(self) -> int:
        return len(self._index)

    def __contains__(self, alpha: Items) -> bool:
        return alpha in self._index

    def get(self, alpha: Items) -> Entry | None:
        rec = self._index.get(alpha)
        return None if rec is None else Entry(alpha, rec.count, rec.err)

    def snapshot(self, above: float = -math.inf) -> list[Entry]:
        """Immutable entries with count > above, in rank order; by
        default every entry.

        The read filters before it sorts: one pass over the index keeps
        the m records that clear the threshold, and only those are sorted
        and built into entries, so a read costs O(len + m log m).
        """
        rows = [r.rank + (r,) for r in self._index.values() if r.count > above]
        rows.sort()  # flat rows sort faster than (rank, record) pairs; ranks are unique
        return [Entry(alpha, rec.count, rec.err) for _, _, alpha, rec in rows]

    def delete_minima(self, k: float, floor: float, delta_prev: int) -> int:
        """Pop minimum entries while size > k or count <= floor, the
        deletion rule with floor = epsilon * i; returns the new maximum
        error, the largest of delta_prev and the evicted counts."""
        index, heap = self._index, self._heap
        delta = delta_prev
        while heap:
            count, rank = heap[0]
            rec = index[rank[2]]
            if rec.count != count:  # raised since it was keyed
                heapq.heapreplace(heap, (rec.count, rank))
                continue
            if len(index) <= k and count > floor:
                break
            heapq.heappop(heap)
            del index[rank[2]]
            delta = max(delta, count)
            self._evicted(rec)
        return delta

    def _evicted(self, rec: Record) -> None:
        """Called after rec leaves the index; the flat store keeps nothing else."""


class EntryTable(Store):
    """The flat store: `update` sweeps every entry, and its one key per record outlives each call."""

    __slots__ = ()

    def _insert(self, alpha: Items, count: int, err: int, birth: int, own: bool) -> None:
        rec = self._index[alpha] = Record(alpha, count, err, birth, own)
        heapq.heappush(self._heap, (count, rec.rank))

    def update(self, items: Items, delta_prev: int, timestamp: int) -> tuple[int, int]:
        """Fold one transaction in by `Store`'s rule, with delta_prev at most
        every stored count; returns (visits, intersections) as the tree does.

        The sweep adds one in place to each stored itemset inside the
        transaction and skips every other overlap already stored. The
        buffer, seeded with the transaction's own new itemset as the
        tree's root is, keeps for each new itemset the highest count, ties
        toward the smaller err, so the order candidates arrive in does not
        matter, and inserts each once, at its final estimate. The result
        has at most 2 * len + 1 entries; no eviction happens here. The
        sweep visits and intersects every stored entry once, and the seed
        counts as one more of each.

        Each overlap is `tuple(filter(inside, alpha))`, where `inside` is
        the `__contains__` of a set of the transaction's items: the filter
        keeps alpha's sorted order, so the overlap is canonical, and tests
        membership rather than truth, so item 0 stays in. A new candidate
        is items or an overlap, so once items is checked it is stored as is.
        """
        require_canonical(items)
        index = self._index
        # the seed is the buffer's first key: a new entry precedes its spawn
        buf: dict[Items, tuple[int, int]] = {}
        if items not in index:
            buf[items] = (delta_prev + 1, delta_prev)
        swept = len(index) + len(buf)
        inside = set(items).__contains__
        for alpha, rec in index.items():
            beta = tuple(filter(inside, alpha))
            if len(beta) == len(alpha):
                rec.count += 1
            elif beta and beta not in index:
                count = rec.count + 1
                prev = buf.get(beta)
                if prev is None or count > prev[0] or (count == prev[0] and rec.err < prev[1]):
                    buf[beta] = (count, rec.err)
        for beta, (count, err) in buf.items():
            self._insert(beta, count, err, timestamp, own=beta == items)
        return swept, swept
