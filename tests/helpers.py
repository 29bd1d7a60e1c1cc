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

GRID is the (k, epsilon) grid of the stepwise backend comparison.
`sparse` maps a stream over ids 1-9 onto SPARSE_IDS, which start at 0.
`covers` is the address-level covering predicate the tree's address
tests reason with.

The mask helpers re-express itemsets over a small universe as bit
masks so the soak tests can enumerate supports and representatives
quickly; they are test-side only.
"""

from __future__ import annotations

import math
import random

from parasol import Entry, Transaction, WeepingTree, random_stream
from parasol.engine import eviction_rule

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


GRID = [(k, eps) for k in (1, 2, 4, math.inf) for eps in (0.0, 0.15, 0.4)]

# an order-keeping map of the ids 1-9 onto sparse ids: 0, a byte
# boundary, and ids past 2**31 must go through both stores like 1-9
SPARSE_IDS = dict(zip(range(1, 10), (0, 1, 255, 256, 257, 65_537, 2**31, 2**31 + 1, 2**40)))


def sparse(stream) -> list[Transaction]:
    """The stream with each item id (1-9) mapped through SPARSE_IDS."""
    return [Transaction(tuple(SPARSE_IDS[x] for x in t.items), t.timestamp) for t in stream]


def as_dict(entries) -> dict[tuple[int, ...], tuple[int, int]]:
    return {e.alpha: (e.count, e.err) for e in entries}


def random_streams(count: int, base_seed: int = 0, max_n: int = 12, max_universe: int = 7):
    """Seeded stream generator for differential runs: stream s draws its
    length and universe from Random(base_seed + s), then its transactions."""
    for s in range(count):
        rng = random.Random(base_seed + s)
        yield s, random_stream(rng, rng.randint(1, max_n), rng.randint(2, max_universe), 7)


def covers(x_bits, y_bits) -> bool:
    """Address-level covering: y agrees with x through x's last set bit.

    Addresses are equal-width 0/1 sequences, most significant (oldest
    timestamp) first. The all-zero address covers everything. Covering
    implies the covered node's itemset is a subset of the coverer's.
    """
    x = tuple(x_bits)
    y = tuple(y_bits)
    if len(x) != len(y):
        raise ValueError("addresses must have equal width")
    last = 0
    for j, bit in enumerate(x, start=1):
        if bit:
            last = j
    return all(y[j] == x[j] for j in range(last))


def check_tree_shape(tree, counts: bool = True) -> None:
    """Assert the weeping tree's structural invariants.

    The nodes reachable from the root are exactly the index, every parent
    link matches, and each child's itemset is a proper subset of its
    parent's. With counts, each child's count is also at least its
    parent's; `precompress_scan` gives that up, because an absorbing
    parent takes its child's count and can overtake its other children.
    """
    seen = 0
    stack = [tree.root]
    while stack:
        node = stack.pop()
        for child in node.children:
            assert child.parent is node, (child.alpha, node.alpha)
            assert tree._index.get(child.alpha) is child, child.alpha
            if node is not tree.root:
                assert set(child.alpha) < set(node.alpha), (child.alpha, node.alpha)
                if counts:
                    assert child.count >= node.count, (child.alpha, node.alpha)
            seen += 1
            stack.append(child)
    assert seen == len(tree._index)


def check_walk_visits(tree, visits: int) -> None:
    """Assert that the last update visited each node once and counted it.

    `tree.trace` must hold that update's events only, and the tree must
    not have been trimmed since. The visited nodes are the ones its
    hit-subtree, descend and skip-subtree events name, plus every
    descendant of each hit node, which the hit bumps without naming; no
    node the update created is among them. Within one update an itemset
    names one node, so the nodes are told apart by itemset.
    """
    seen = []
    created = set()
    for event in tree.trace:
        if event[0] in ("descend", "skip-subtree"):
            seen.append(event[1])
        elif event[0] == "hit-subtree":
            stack = [tree._index[event[1]]]
            while stack:
                node = stack.pop()
                seen.append(node.alpha)
                stack.extend(node.children)
        elif event[0] == "create":
            created.add(event[1])
    assert len(set(seen)) == len(seen), "a node was visited twice in one update"
    assert created.isdisjoint(seen), "a node created by the update was visited"
    assert len(seen) == visits, (len(seen), visits)


def replay_checking_visits(stream, k: float, epsilon: float) -> list[tuple[int, int]]:
    """Replay a stream on a bare tree as `process_transaction` does,
    checking every update's visits; returns each step's (visits,
    intersections)."""
    tree = WeepingTree()
    delta = 0
    steps = []
    for t in stream:
        tree.trace = []
        visits, intersections = tree.update(t.items, delta, t.timestamp)
        check_walk_visits(tree, visits)
        delta = tree.delete_minima(eviction_rule(k, epsilon, t.timestamp), delta)
        steps.append((visits, intersections))
    return steps


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
