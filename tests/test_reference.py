"""Both stores against a miner written from the rules alone.

`helpers.ReferenceMiner` shares no code with `table.py` or `wtree.py`:
no record class, no key rule, no heap and no tree, and its update does
not assume the superset invariant the stores rest on. `replay_checked`
holds both stores to one reference replay after every step, in
snapshot order, delta, membership and `check_store`; stores that both
match the reference match each other. That pins what the stores share
and so could get wrong together: the tie order in `Record.rank`, the
loop in `Store.delete_minima` and the update rule, the new transaction
itemset's (delta_prev + 1, delta_prev) seed included. It also pins
what only the tree does: pushing evicted nodes' children, splicing
them into the evicted slot and rebuilding the root heap.

Five stream families, each with its own (k, epsilon) configurations:
250 short random streams of up to 20 transactions over the whole
`GRID`, and 150 of up to 12 over it again from other seeds;
300-transaction streams on ids 1-9 under a binding budget, where the
flat heap re-keys raised counts and thousands of entries are evicted
for size; their `sparse` copies, whose ids start at 0 and pass 2**31;
and shuffled repeats over 2-5 items, long runs of in-place increments.
"""

import math
import random

import pytest

from parasol import Transaction, random_stream

from helpers import GRID, random_streams, replay_checked, sparse


def short(count=250, base_seed=70_000, max_n=20):
    for _, stream in random_streams(count, base_seed=base_seed, max_n=max_n):
        for k, eps in GRID:
            yield stream, k, eps


def long(sparse_ids=False):
    for seed in range(4):
        stream = random_stream(random.Random(seed), 300, 9, 6)
        if sparse_ids:
            stream = sparse(stream)
        for k, eps in ((3, 0.0), (20, 0.1), (8, 0.05)):
            yield stream, k, eps


def duplicates():
    rng = random.Random(1234)
    for _ in range(60):
        universe = rng.randint(2, 5)
        base = random_stream(rng, rng.randint(2, 5), universe, universe)
        items = [t.items for t in base] * 3
        rng.shuffle(items)
        stream = [Transaction(it, i + 1) for i, it in enumerate(items)]
        for k, eps in ((2, 0.0), (3, 0.3), (math.inf, 0.2)):
            yield stream, k, eps


FAMILIES = {
    "random": lambda: short(150, base_seed=5_000, max_n=12),
    "long": long,
    "sparse": lambda: long(sparse_ids=True),
    "duplicates": duplicates,
}


def test_both_stores_match_the_reference_stepwise():
    for stream, k, eps in short():
        replay_checked(stream, k, eps)


@pytest.mark.parametrize("family", FAMILIES)
def test_both_stores_match_the_reference_on_family(family):
    for stream, k, eps in FAMILIES[family]():
        replay_checked(stream, k, eps)
