"""Seeded synthetic stream generators for tests and demos.

`burst_stream` models a drift episode: a calm regime of short
transactions over a small alphabet, a brief flood of long, heavily
overlapping transactions that blows up the candidate table, then a long
calm tail. Under the unified deletion policy the error ratio spikes
above epsilon during the flood and then decays back toward it.
"""

from __future__ import annotations

import random

from .itemsets import Transaction, itemset

CALM_UNIVERSE = 24
CALM_MAX_LEN = 4
BURST_POOL = 14
BURST_MIN_LEN = 9
BURST_LO = 1000  # the flood alphabet sits far above the calm one


def random_stream(
    rng: random.Random,
    n: int,
    universe: int,
    max_len: int,
) -> list[Transaction]:
    """n transactions, each a non-empty subset of {1..universe} up to max_len items."""
    out: list[Transaction] = []
    for i in range(1, n + 1):
        length = rng.randint(1, min(max_len, universe))
        items = rng.sample(range(1, universe + 1), length)
        out.append(Transaction(itemset(items), i))
    return out


def burst_stream(
    seed: int = 20240,
    calm_len: int = 400,
    burst_len: int = 30,
    tail_len: int = 2200,
) -> list[Transaction]:
    """Calm / flood / calm transaction stream with a fixed seed.

    Calm transactions are short draws from a small alphabet. Flood
    transactions take most of a dedicated item pool (disjoint from the
    calm alphabet), so their pairwise intersections spawn an exponential
    brood of candidates.
    """
    rng = random.Random(seed)
    out: list[Transaction] = []
    ts = 0

    def calm(count: int) -> None:
        nonlocal ts
        for _ in range(count):
            ts += 1
            length = rng.randint(1, CALM_MAX_LEN)
            items = rng.sample(range(1, CALM_UNIVERSE + 1), length)
            out.append(Transaction(itemset(items), ts))

    calm(calm_len)
    for _ in range(burst_len):
        ts += 1
        length = rng.randint(BURST_MIN_LEN, BURST_POOL)
        items = rng.sample(range(BURST_LO, BURST_LO + BURST_POOL), length)
        out.append(Transaction(itemset(items), ts))
    calm(tail_len)
    return out
