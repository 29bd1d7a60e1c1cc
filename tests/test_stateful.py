"""A stateful property: the flat store, the weeping tree and the test-side
reference miner, driven by one random sequence of calls, stay
observationally identical.

Hypothesis draws a budget k, then interleaves updates at consecutive
timestamps, evictions at any floor (repeated, or with no update in
between), snapshot reads above a threshold, and compression under both names.
An update passes the running delta, or any delta_prev from it up to the
smallest stored count, the whole range the stores' precondition allows;
either way it must follow the one update rule: every stored itemset
inside the transaction gains exactly one and keeps its err, every other
record is unchanged, and every new entry counts at least delta_prev + 1.
After every rule the reference holds the same snapshot as both stores,
which pass `check_store`, whose key rule is the heap contract
`delete_minima` relies on and whose superset rule is the invariant the
update rule rests on.
While no eviction could have fired (k = inf and every floor 0) and every
update passed delta_prev 0, the snapshot is exactly the closed itemsets
of the updates so far.
"""

import math

from hypothesis import HealthCheck, settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, invariant, rule

from parasol import (
    EntryTable,
    Transaction,
    WeepingTree,
    delta_compress,
    enumerate_closed,
    itemset,
    verify_delta_covered_set,
)
from parasol.compress import compress_two_step

from helpers import ReferenceMiner, as_dict, check_store

ITEMSETS = st.lists(st.integers(0, 5), min_size=1, max_size=5).map(itemset)
FLOORS = st.one_of(st.just(0), st.integers(1, 4), st.floats(0, 4))
THRESHOLDS = st.one_of(st.just(-math.inf), st.integers(0, 6))


class StoresAgree(RuleBasedStateMachine):
    @initialize(k=st.sampled_from((1, 2, 3, 5, math.inf)))
    def start(self, k):
        self.flat = EntryTable()
        self.tree = WeepingTree()
        self.reference = ReferenceMiner()
        self.k = k
        self.bound = k  # the size bound the last call left in force
        self.delta = 0
        self.stream: list[Transaction] = []
        self.exact = k == math.inf  # no eviction can have fired yet

    def _update(self, items, delta_prev):
        t = Transaction(items, len(self.stream) + 1)
        self.stream.append(t)
        for store in (self.flat, self.tree):
            before = as_dict(store.snapshot())
            store.update(items, delta_prev, t.timestamp)
            after = as_dict(store.snapshot())
            for alpha, (count, err) in before.items():
                gain = set(alpha) <= set(items)
                assert after[alpha] == (count + gain, err), (alpha, before[alpha], after[alpha])
            for alpha in after.keys() - before.keys():
                assert after[alpha][0] >= delta_prev + 1, (alpha, after[alpha], delta_prev)
        self.reference.update(items, delta_prev, t.timestamp)
        self.bound = math.inf  # up to 2 * size + 1 entries until the next eviction

    @rule(items=ITEMSETS)
    def update(self, items):
        self._update(items, self.delta)

    @rule(items=ITEMSETS, data=st.data())
    def update_at_any_allowed_delta(self, items, data):
        # the precondition: delta_prev is at most every stored count
        top = min((e.count for e in self.flat.snapshot()), default=self.delta + 3)
        delta_prev = data.draw(st.integers(self.delta, top), label="delta_prev")
        self._update(items, delta_prev)
        # new entries carry err delta_prev, so it is the running delta from here
        self.delta = delta_prev
        self.exact = self.exact and delta_prev == 0

    @rule(floor=FLOORS)
    def delete_minima(self, floor):
        delta = self.flat.delete_minima(self.k, floor, self.delta)
        assert self.tree.delete_minima(self.k, floor, self.delta) == delta
        assert self.reference.delete_minima(self.k, floor, self.delta) == delta
        assert delta >= self.delta
        self.delta = delta
        self.bound = self.k
        self.exact = self.exact and floor == 0

    @rule(above=THRESHOLDS)
    def snapshot(self, above):
        assert self.flat.snapshot(above) == self.tree.snapshot(above)

    @rule()
    def compress(self):
        before = self.tree.snapshot()
        dump = self.tree.dump()
        pairwise = delta_compress(self.flat.snapshot(), self.delta)
        assert delta_compress(self.tree.snapshot(), self.delta) == pairwise
        assert compress_two_step(self.flat, self.delta) == pairwise
        assert compress_two_step(self.tree, self.delta) == pairwise
        assert self.flat.snapshot() == self.tree.snapshot() == before
        assert self.tree.dump() == dump
        n = len(self.stream)
        for sigma in (0.2, 0.5):
            if n and self.delta <= sigma * n:
                assert verify_delta_covered_set(pairwise, self.stream, sigma, self.delta)

    @invariant()
    def stores_agree(self):
        snap = self.flat.snapshot()
        assert self.tree.snapshot() == snap == self.reference.snapshot()
        check_store(self.flat, self.bound, self.delta)
        check_store(self.tree, self.bound, self.delta)
        if self.exact:
            assert {e.alpha: e.count for e in snap} == enumerate_closed(self.stream)


StoresAgree.TestCase.settings = settings(
    max_examples=150,
    stateful_step_count=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
test_stores_agree = StoresAgree.TestCase
