"""Shared fixtures and bitmask-based cross-checks for the test suite.

Streams used repeatedly:

* DROP_ONE: five items, four transactions, the i-th omitting item i.
  Dense enough that the closed sets double each step (1, 3, 7, 15).
  DROP_ONE_PLUS appends the transaction {1,3,5}.
* OVERLAP4: four short overlapping transactions used for the tree
  walk-through fixtures.
* CHAIN5: five transactions whose subset chain {1} < {1,2} < {1,2,3} <
  {1,2,3,4} has supports 5, 4, 4, 3, the pinned configuration for the
  cover-predicate and delta-closed examples.

The mask helpers re-express itemsets over a small universe as bit
masks so the soak tests can enumerate supports and representatives
quickly; they are test-side only.
"""

from __future__ import annotations

import random

from parasol import Entry, Transaction, itemset

UNIVERSE5 = (1, 2, 3, 4, 5)

DROP_ONE = tuple(
    Transaction(tuple(x for x in UNIVERSE5 if x != i), i) for i in range(1, 5)
)
DROP_ONE_PLUS = DROP_ONE + (Transaction((1, 3, 5), 5),)

OVERLAP4 = tuple(
    Transaction(items, i + 1)
    for i, items in enumerate([(1, 2, 3, 5), (1, 2, 4), (2, 3, 4), (1, 2, 5)])
)

# pinned supports: {1}:5  {1,2}:4  {1,2,3}:4  {1,2,3,4}:3
CHAIN5 = tuple(
    Transaction(items, i + 1)
    for i, items in enumerate(
        [(1, 2, 3, 4), (1, 2, 3, 4), (1, 2, 3, 4), (1, 2, 3), (1,)]
    )
)


def as_dict(entries) -> dict[tuple[int, ...], tuple[int, int]]:
    return {e.alpha: (e.count, e.err) for e in entries}


def random_streams(count: int, base_seed: int = 0, max_n: int = 12, max_universe: int = 7):
    """Seeded stream generator for differential runs."""
    for s in range(count):
        rng = random.Random(base_seed + s)
        n = rng.randint(1, max_n)
        universe = rng.randint(2, max_universe)
        stream = []
        for i in range(1, n + 1):
            length = rng.randint(1, min(7, universe))
            stream.append(
                Transaction(itemset(rng.sample(range(1, universe + 1), length)), i)
            )
        yield s, stream


# -- bitmask support model (universe must fit in a few bits) -------------


def to_mask(items, order: dict[int, int]) -> int:
    m = 0
    for x in items:
        m |= 1 << order[x]
    return m


class MaskModel:
    """Exact supports for every non-empty itemset over a small universe."""

    def __init__(self, stream) -> None:
        universe = sorted({x for t in stream for x in t.items})
        self.order = {x: j for j, x in enumerate(universe)}
        self.items = universe
        self.n = len(stream)
        self.nmasks = 1 << len(universe)
        self.sup = [0] * self.nmasks
        tmasks = [to_mask(t.items, self.order) for t in stream]
        for m in range(1, self.nmasks):
            self.sup[m] = sum(1 for tm in tmasks if tm & m == m)
        # max support over proper supersets of each mask
        self.sup_over = [0] * self.nmasks
        full = self.nmasks - 1
        for m in range(full - 1, 0, -1):
            best = 0
            for b in range(len(universe)):
                bit = 1 << b
                if not m & bit:
                    ext = m | bit
                    best = max(best, self.sup[ext], self.sup_over[ext])
            self.sup_over[m] = best

    def mask(self, alpha) -> int:
        return to_mask(alpha, self.order)

    def fis(self, sigma: float) -> list[int]:
        threshold = sigma * self.n
        return [m for m in range(1, self.nmasks) if self.sup[m] > threshold]

    def delta_closed(self, delta: int, sigma: float) -> list[int]:
        out = []
        for m in self.fis(sigma):
            s = self.sup[m]
            if s - delta <= 0:
                continue  # an unseen item always supplies a 0-support superset
            if self.sup_over[m] < s - delta:
                out.append(m)
        return out

    def best_cover(self, entries: list[Entry]) -> dict[int, int]:
        """For each mask, the max true support among output supersets."""
        best: dict[int, int] = {}
        for e in entries:
            m = self.mask(e.alpha)
            s = self.sup[m]
            sub = m
            while sub:
                if best.get(sub, -1) < s:
                    best[sub] = s
                sub = (sub - 1) & m
        return best
