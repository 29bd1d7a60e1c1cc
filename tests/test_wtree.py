import math
import random
import sys

import pytest

from parasol import Transaction, WeepingTree, itemset, random_stream, replay
from parasol.compress import precompress_scan
from parasol.engine import StreamState, process_transaction

from helpers import (
    DROP_ONE,
    GRID,
    OVERLAP4,
    as_dict,
    covers,
    random_streams,
    replay_checking_visits,
)

FULL_TREE = """\
2 3 4 5\t1\t0\t1
  3 4 5\t2\t0\t2
    4 5\t3\t0\t3
      5\t4\t0\t4
    3 5\t3\t0\t4
  2 4 5\t2\t0\t3
    2 5\t3\t0\t4
  2 3 5\t2\t0\t4
1 3 4 5\t1\t0\t2
  1 4 5\t2\t0\t3
    1 5\t3\t0\t4
  1 3 5\t2\t0\t4
1 2 4 5\t1\t0\t3
  1 2 5\t2\t0\t4
1 2 3 5\t1\t0\t4"""

REDUCED_TREE = """\
3 4 5\t2\t0\t2
  4 5\t3\t0\t3
    5\t4\t0\t4
  3 5\t3\t0\t4
2 4 5\t2\t0\t3
  2 5\t3\t0\t4
2 3 5\t2\t0\t4
1 4 5\t2\t0\t3
  1 5\t3\t0\t4
1 3 5\t2\t0\t4
1 2 5\t2\t0\t4"""


class TestCovers:
    def test_covering_examples(self):
        assert covers((1, 1, 0, 0), (1, 1, 1, 1))
        assert covers((0, 0, 0, 0), (1, 0, 1, 1))  # all-zero covers everything
        assert not covers((0, 1, 1, 0), (0, 1, 0, 1))

    def test_rejects_width_mismatch(self):
        with pytest.raises(ValueError):
            covers((1, 0), (1, 0, 0))

    def test_covering_implies_itemset_inclusion(self):
        # address j set <=> the j-th transaction participated in the meet
        def itemset_of(bits, stream):
            acc = None
            for j, b in enumerate(bits):
                if b:
                    acc = (
                        stream[j].items
                        if acc is None
                        else itemset(set(acc) & set(stream[j].items))
                    )
            return acc

        rng = random.Random(5)
        for _, stream in random_streams(30, base_seed=800, max_n=6):
            n = len(stream)
            for _ in range(20):
                x = tuple(rng.randint(0, 1) for _ in range(n))
                y = tuple(rng.randint(0, 1) for _ in range(n))
                if not any(x) or not any(y):
                    continue
                if covers(x, y):
                    a_x, a_y = itemset_of(x, stream), itemset_of(y, stream)
                    assert set(a_y) <= set(a_x)


def pruned_stream():
    return random_stream(random.Random(404), 120, 10, 8)


def deep_stream():
    # a 12-item alphabet with long baskets nests thousands of closed
    # sets, so nearly every intersection descends several levels
    rng = random.Random(1200)
    return [
        Transaction(tuple(sorted(rng.sample(range(12), rng.randint(5, 10)))), i)
        for i in range(1, 101)
    ]


class TestAddressModel:
    """The incremental tree must match the covering structure of the
    conceptual transaction-subset addresses, checked on the drop-one
    stream where all fifteen meets are distinct."""

    def test_full_tree_matches_address_tree(self):
        state = replay(DROP_ONE, backend="wtree")
        tree = state.table
        assert tree.dump() == FULL_TREE
        n = 4
        universe = {1, 2, 3, 4, 5}
        # node address: itemset == universe minus the omitted indices
        def address(alpha):
            dropped = universe - set(alpha)
            return tuple(1 if j in dropped else 0 for j in range(1, n + 1))

        for node in tree.nodes():
            for child in node.children:
                assert covers(address(node.alpha), address(child.alpha))
            # siblings descend numerically, left to right
            values = [
                int("".join(map(str, address(c.alpha))), 2) for c in node.children
            ]
            assert values == sorted(values, reverse=True)

    def test_counts_follow_bit_counts_without_eviction(self):
        state = replay(DROP_ONE, backend="wtree")
        universe = {1, 2, 3, 4, 5}
        for node in state.table.nodes():
            assert node.count == len(universe - set(node.alpha))
            assert node.err == 0

    def test_subset_nodes_are_descendants_or_precursors(self):
        # in an eviction-free replay each node's conceptual address is the
        # set of transactions containing its itemset; a node holding a
        # subset must sit below the superset's node or left of it in
        # address order, which is what lets updates skip right siblings
        for _, stream in random_streams(40, base_seed=900, max_n=8):
            state = replay(stream, backend="wtree")
            nodes = list(state.table.nodes())
            n = len(stream)

            def address(alpha):
                aset = set(alpha)
                return tuple(
                    1 if aset.issubset(t.items) else 0 for t in stream
                )

            def value(bits):
                return int("".join(map(str, bits)), 2)

            for x in nodes:
                ax = address(x.alpha)
                for y in nodes:
                    if y is x or not set(y.alpha) <= set(x.alpha):
                        continue
                    ay = address(y.alpha)
                    assert covers(ax, ay) or value(ay) > value(ax), (
                        x.alpha,
                        y.alpha,
                        n,
                    )


class TestUpdateTrace:
    def test_overlap_walkthrough(self):
        state = replay(OVERLAP4[:3], backend="wtree")
        tree = state.table
        tree.trace = []
        process_transaction(state, OVERLAP4[3])
        assert tree.trace == [
            ("descend", (1, 2, 3, 5), (1, 2, 5)),
            ("hit-subtree", (1, 2)),
            ("descend", (2, 3), (2,)),
            ("create", (1, 2, 5), (1, 2, 3, 5), 2, 0),
            ("skip-right-siblings", (), ((1, 2, 4), (2, 3, 4))),
        ]
        # the subtree hit bumped both the node and its descendant
        assert tree.get((1, 2)).count == 3
        assert tree.get((2,)).count == 4

    def test_first_transaction_into_empty_tree(self):
        tree = WeepingTree()
        tree.update((4, 7), 0, 1)
        assert as_dict(tree.snapshot()) == {(4, 7): (1, 0)}
        assert [c.alpha for c in tree.root.children] == [(4, 7)]

    def test_visit_counter_bounded_by_size(self):
        for _, stream in random_streams(40, base_seed=31):
            state = StreamState(k=4, backend="wtree")
            for t in stream:
                process_transaction(state, t)
            for s in state.steps:
                assert s.visits <= s.pre_size
                assert s.intersections <= s.pre_size

    def test_pruned_walk_is_pinned(self):
        # every pruning rule fires, and the walk's work is pinned exactly
        state = StreamState(k=40, epsilon=0.05, backend="wtree")
        state.table.trace = []
        for t in pruned_stream():
            process_transaction(state, t)
        kinds = {event[0] for event in state.table.trace}
        assert {"hit-subtree", "descend", "skip-subtree", "skip-right-siblings"} <= kinds
        assert sum(s.intersections for s in state.steps) == 3_393
        assert sum(s.visits for s in state.steps) == 3_526

    def test_deep_descents_match_flat_and_are_pinned(self):
        stream = deep_stream()
        flat = StreamState(k=5000, epsilon=0.03, backend="flat")
        tree = StreamState(k=5000, epsilon=0.03, backend="wtree")
        tree.table.trace = []
        for t in stream:
            process_transaction(flat, t)
            process_transaction(tree, t)
            assert flat.delta == tree.delta, t.timestamp
            assert len(flat.table) == len(tree.table), t.timestamp
            if t.timestamp % 25 == 0:
                assert flat.snapshot() == tree.snapshot(), t.timestamp
        kinds = {event[0] for event in tree.table.trace}
        assert {"hit-subtree", "descend", "skip-subtree", "skip-right-siblings"} <= kinds
        assert sum(s.intersections for s in tree.steps) == 68_991
        assert sum(s.visits for s in tree.steps) == 79_124
        assert len(tree.table) == 2_442
        assert tree.delta == 3

    def test_walk_visits_each_node_once(self):
        # the pinned sums show the bare replay is the one process_transaction makes
        pruned = replay_checking_visits(pruned_stream(), 40, 0.05)
        assert [sum(work) for work in zip(*pruned)] == [3_526, 3_393]
        deep = replay_checking_visits(deep_stream(), 5000, 0.03)
        assert [sum(work) for work in zip(*deep)] == [79_124, 68_991]
        for _, stream in random_streams(150, base_seed=5_000):
            for k, eps in GRID:
                replay_checking_visits(stream, k, eps)


class TestDeleteMinima:
    def test_matches_reduced_tree_fixture(self):
        state = replay(DROP_ONE, epsilon=0.25, k=15, backend="wtree")
        assert state.delta == 1
        assert state.table.dump() == REDUCED_TREE

    def test_stop_immediately_is_identity(self):
        state = replay(DROP_ONE, backend="wtree")
        before = state.table.dump()
        delta = state.table.delete_minima(math.inf, 0, 0)
        assert delta == 0 and state.table.dump() == before

    def test_minima_always_shallow(self):
        for _, stream in random_streams(40, base_seed=13):
            state = StreamState(k=4, backend="wtree")
            for t in stream:
                process_transaction(state, t)
                tree = state.table
                if len(tree) == 0:
                    continue
                low = min(e.count for e in tree.snapshot())
                shallow = {c.count for c in tree.root.children}
                assert low in shallow


class TestPrecompressScan:
    def test_removes_covered_children_once(self):
        state = replay(DROP_ONE, epsilon=0.25, k=15, backend="wtree")
        survivors = as_dict(precompress_scan(state.table, state.delta))
        removed = {(e.alpha, e.count, e.err) for e in state.snapshot() if e.alpha not in survivors}
        assert removed == {
            ((5,), 4, 0),
            ((3, 5), 3, 0),
            ((2, 5), 3, 0),
            ((1, 5), 3, 0),
        }
        assert len(survivors) == 7
        assert survivors[(4, 5)] == (4, 1)  # absorbed the dropped singleton
        assert survivors[(3, 4, 5)] == (3, 1)
        assert state.table.dump() == REDUCED_TREE

    def test_no_qualifying_pairs_is_identity(self):
        state = replay(DROP_ONE, backend="wtree")
        before = state.table.dump()
        assert precompress_scan(state.table, 0) == state.snapshot()
        assert state.table.dump() == before

    def test_absorbed_childs_children_are_not_retested(self):
        # (1, 2) is absorbed into (1, 2, 3); its child (1,) fails its own
        # parent's test and is not tested against (1, 2, 3), which would
        # take it. Updates have not been seen to build a child whose pivot
        # lies below its parent's, without which the two rules agree, so
        # the tree is built by hand.
        tree = WeepingTree()
        top = tree._attach(tree.root, (1, 2, 3), 5, 0, 1, own=False)
        mid = tree._attach(top, (1, 2), 5, 3, 2, own=False)
        tree._attach(mid, (1,), 6, 0, 3, own=False)
        assert as_dict(precompress_scan(tree, 1)) == {(1, 2, 3): (5, 0), (1,): (6, 0)}

    def test_tree_dump_is_unchanged_afterwards(self):
        for _, stream in random_streams(30, base_seed=23):
            state = replay(stream, k=5, backend="wtree")
            before = state.table.dump()
            precompress_scan(state.table, state.delta)
            assert state.table.dump() == before


class TestDump:
    def test_chain_deeper_than_the_recursion_limit(self):
        # each node's itemset drops the previous one's last item
        depth = sys.getrecursionlimit() + 50
        tree = WeepingTree()
        node = tree.root
        for size in range(depth, 0, -1):
            node = tree._attach(node, tuple(range(size)), depth - size + 1, 0, 1, own=False)
        lines = tree.dump().splitlines()
        assert len(lines) == depth
        assert lines[0] == " ".join(map(str, range(depth))) + "\t1\t0\t1"
        assert lines[-1] == "  " * (depth - 1) + f"0\t{depth}\t0\t1"
