"""Differential checks: the tree index must be a pure accelerator.

The flat sweep is the semantic reference; the tree must produce the
same entries, the same error, and the same canonical snapshot order
after every step, for any stream and any eviction configuration.
"""

import math
import random

from parasol import StreamState, Transaction, process_transaction, random_stream

from helpers import GRID, check_tree_shape, random_streams, sparse


def test_backends_agree_stepwise():
    for sid, stream in random_streams(150, base_seed=5_000):
        for k, eps in GRID:
            flat = StreamState(k=k, epsilon=eps, backend="flat")
            tree = StreamState(k=k, epsilon=eps, backend="wtree")
            for t in stream:
                process_transaction(flat, t)
                process_transaction(tree, t)
                check_tree_shape(tree.table)
                assert flat.delta == tree.delta, (sid, k, eps, t.timestamp)
                assert flat.snapshot() == tree.snapshot(), (sid, k, eps, t.timestamp)


def test_backends_agree_stepwise_on_long_streams():
    # 300 transactions under a binding budget: the flat heap re-keys
    # raised counts and thousands of entries are evicted for size
    for seed in range(4):
        low_ids = random_stream(random.Random(seed), 300, 9, 6)
        for stream in (low_ids, sparse(low_ids)):
            for k, eps in ((3, 0.0), (20, 0.1), (8, 0.05)):
                flat = StreamState(k=k, epsilon=eps, backend="flat")
                tree = StreamState(k=k, epsilon=eps, backend="wtree")
                for t in stream:
                    process_transaction(flat, t)
                    process_transaction(tree, t)
                    check_tree_shape(tree.table)
                    assert flat.delta == tree.delta, (seed, k, eps, t)
                    assert flat.snapshot() == tree.snapshot(), (seed, k, eps, t)


def test_backends_agree_on_dense_duplicate_streams():
    rng = random.Random(1234)
    for case in range(60):
        universe = rng.randint(2, 5)
        base = random_stream(rng, rng.randint(2, 5), universe, universe)
        # repeat transactions to force long runs of in-place increments
        items = [t.items for t in base] * 3
        rng.shuffle(items)
        stream = [Transaction(it, i + 1) for i, it in enumerate(items)]
        for k, eps in ((2, 0.0), (3, 0.3), (math.inf, 0.2)):
            flat = StreamState(k=k, epsilon=eps, backend="flat")
            tree = StreamState(k=k, epsilon=eps, backend="wtree")
            for t in stream:
                process_transaction(flat, t)
                process_transaction(tree, t)
            assert flat.snapshot() == tree.snapshot(), (case, k, eps)
            assert flat.delta == tree.delta

