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

GRID is the (k, epsilon) grid of the short streams in the stepwise
comparison with the reference miner.
`zipf_stream` draws sparse baskets over a wide alphabet, far past what
a power set could list; every oracle check runs on any alphabet.
`sparse` maps a stream over ids 1-9 onto SPARSE_IDS, which start at 0.
`covers` is the address-level covering predicate the tree's address
tests reason with.

The mask helpers re-express itemsets over a small universe as bit
masks so the soak tests can enumerate supports and representatives
quickly; they are test-side only. `MaskModel`, which counts every
itemset of the universe, is the exhaustive reference that
`enumerate_fis` and `enumerate_delta_closed` are tested against.
`ReferenceMiner` is the update and deletion rules written from their
statements, sharing no code with either store; `reference_replay` runs
it as `process_transaction` runs a store. `replay_checked` is the one
stepwise check of the stores: it replays a stream on both beside a
single reference replay and holds each store to the reference and to
`check_store` after every step.
"""

from __future__ import annotations

import itertools
import math
import random

from parasol import (
    Entry,
    StreamState,
    Transaction,
    WeepingTree,
    itemset,
    process_transaction,
    random_stream,
)

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


def zipf_stream(seed: int, ids: int, n: int) -> list[Transaction]:
    """n baskets of Zipf(s=1) items over ids 0..ids-1, lengths 1 + Exp(mean 1/0.15) capped at 30."""
    rng = random.Random(seed)
    cum = list(itertools.accumulate(1.0 / rank for rank in range(1, ids + 1)))
    out = []
    for ts in range(1, n + 1):
        length = min(30, 1 + int(rng.expovariate(0.15)))
        items: set[int] = set()
        while len(items) < length:
            items.add(rng.choices(range(ids), cum_weights=cum)[0])
        out.append(Transaction(itemset(items), ts))
    return out


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


def check_store(table, k: float, delta: int) -> None:
    """Assert the structural invariants of a store between calls.

    The size is at most k, every record has 0 <= err <= count, and every
    stored count is at least delta: eviction pops minima and counts only
    rise. One key rule holds for both stores: each heap key's rank is its
    record's rank object, and no key's count is above its record's. The
    flat store keeps one key per record, and the weeping tree one key per
    root child. In the tree the nodes reachable from the root are exactly
    the index, and each child's itemset is a proper subset of its
    parent's and its count at least its parent's.

    On both stores no stored proper superset counts more than a stored
    subset. That is the invariant `update`'s one rule rests on: a stored
    itemset inside a transaction gets candidates only from the stored
    itemsets that contain it, so its own count + 1 always wins, and
    buffering its other candidates would be dead work. `Store`'s
    docstring proves the invariant for the rule; this check holds the
    code to it.
    """
    index = table._index
    assert len(table) <= k, (len(table), k)
    for alpha, rec in index.items():
        assert 0 <= rec.err <= rec.count, (alpha, rec.count, rec.err)
        assert rec.count >= delta, (alpha, rec.count, delta)
    keyed = index.keys()
    if isinstance(table, WeepingTree):
        seen = 0
        stack = [table.root]
        while stack:
            node = stack.pop()
            for child in node.children:
                assert index.get(child.alpha) is child, child.alpha
                if node is not table.root:
                    assert set(child.alpha) < set(node.alpha), (child.alpha, node.alpha)
                    assert child.count >= node.count, (child.alpha, node.alpha)
                seen += 1
                stack.append(child)
        assert seen == len(index)
        keyed = [child.alpha for child in table.root.children]
    assert len(table._heap) == len(keyed), (len(table._heap), len(keyed))
    assert {rank[2] for _, rank in table._heap} == set(keyed)
    for count, rank in table._heap:
        rec = index[rank[2]]
        assert rank is rec.rank, (rank, rec.rank)
        assert count <= rec.count, (rank, count, rec.count)
    by_count = sorted((rec.count, frozenset(alpha)) for alpha, rec in index.items())
    for (count, sub), (above, sup) in itertools.combinations(by_count, 2):
        assert above == count or not sub < sup, (sorted(sub), count, sorted(sup), above)


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
        delta = tree.delete_minima(k, epsilon * t.timestamp, delta)
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


# -- reference miner (shares no code with table.py or wtree.py) -----------


class ReferenceMiner:
    """The update rule and the deletion rule, written from their statements.

    A dict alpha -> [count, err, birth, own], with no heap, no index
    skip and no tree. `update` does not assume the superset invariant the
    stores rest on: every overlap with the transaction, stored or new,
    takes the best (count + 1, err) over all the stored itemsets that
    produce it, the highest count with ties toward the smaller err. A
    stored itemset inside the transaction is one of its own producers,
    and a new transaction itemset also bids (delta_prev + 1, delta_prev).
    `delete_minima` pops the `min` over (count, birth, not own, alpha).
    """

    def __init__(self) -> None:
        self.entries: dict[tuple[int, ...], list] = {}

    def update(self, items, delta_prev: int, t: int) -> None:
        entries = self.entries
        inside = set(items).__contains__
        # a bid is (count, -err), so the larger bid wins
        bids = {} if items in entries else {items: (delta_prev + 1, -delta_prev)}
        for alpha, (count, err, _, _) in entries.items():
            beta = tuple(filter(inside, alpha))
            if beta:
                bids[beta] = max(bids.get(beta, ()), (count + 1, -err))
        for beta, (count, err) in bids.items():
            if beta in entries:
                entries[beta][:2] = count, -err
            else:
                entries[beta] = [count, -err, t, beta == items]

    def delete_minima(self, k: float, floor: float, delta_prev: int) -> int:
        entries = self.entries
        delta = delta_prev
        while entries:
            alpha, (count, _, _, _) = min(
                entries.items(), key=lambda kv: (kv[1][0], kv[1][2], not kv[1][3], kv[0])
            )
            if len(entries) <= k and count > floor:
                break
            del entries[alpha]
            delta = max(delta, count)
        return delta

    def snapshot(self) -> list[Entry]:
        """Every entry, in the stores' read order: by (birth, not own, alpha)."""
        order = sorted(self.entries.items(), key=lambda kv: (kv[1][2], not kv[1][3], kv[0]))
        return [Entry(alpha, count, err) for alpha, (count, err, _, _) in order]


def reference_replay(stream, k: float, epsilon: float):
    """Yield (delta, snapshot) after each transaction, evicting as
    `process_transaction` does: floor epsilon * i after each update."""
    miner = ReferenceMiner()
    delta = 0
    for t in stream:
        miner.update(t.items, delta, t.timestamp)
        delta = miner.delete_minima(k, epsilon * t.timestamp, delta)
        yield delta, miner.snapshot()


def replay_checked(stream, k: float, epsilon: float):
    """Replay a stream on a flat and a weeping-tree `StreamState` beside
    one `reference_replay` of it, and return the two states.

    After every step each store passes `check_store` at k and the
    reference's delta, has that delta, which never falls, and reads the
    reference's snapshot in its order; its length is the snapshot's and
    every snapshot itemset is `in` it, so membership is exactly the
    snapshot. Stores that both match the reference match each other.
    """
    states = [StreamState(k=k, epsilon=epsilon, backend=b) for b in ("flat", "wtree")]
    last = 0
    for t, (delta, snap) in zip(stream, reference_replay(stream, k, epsilon)):
        for state in states:
            process_transaction(state, t)
            table = state.table
            where = (k, epsilon, state.backend, t.timestamp)
            assert last <= state.delta == delta, (where, last, state.delta, delta)
            check_store(table, k, delta)
            assert state.snapshot() == snap, where
            assert len(table) == len(snap), where
            assert all(e.alpha in table for e in snap), where
        last = delta
    return tuple(states)
