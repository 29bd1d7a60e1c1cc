"""Seeded synthetic stream generators for tests and demos.

`burst_stream` models a drift episode: a calm regime of short
transactions over a small alphabet, a brief flood of long, heavily
overlapping transactions that blows up the candidate table, then a long
calm tail. Under the unified deletion policy the error ratio spikes
above epsilon during the flood and then decays back toward it.
"""

from __future__ import annotations

import random

from .itemsets import Transaction

CALM_UNIVERSE = 24
CALM_MAX_LEN = 4
BURST_POOL = 14
BURST_MIN_LEN = 9
BURST_LO = 1000  # the flood alphabet sits far above the calm one


def _baskets(
    rng: random.Random, first: int, n: int, universe: int, max_len: int
) -> list[Transaction]:
    """n transactions timestamped from first on, each a non-empty subset of
    {1..universe} up to max_len items: its length is drawn, then its items."""
    pool = range(1, universe + 1)
    top = min(max_len, universe)
    return [
        Transaction(tuple(sorted(rng.sample(pool, rng.randint(1, top)))), ts)
        for ts in range(first, first + n)
    ]


def random_stream(rng: random.Random, n: int, universe: int, max_len: int) -> list[Transaction]:
    """n transactions, each a non-empty subset of {1..universe} up to max_len items."""
    return _baskets(rng, 1, n, universe, max_len)


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
    out = _baskets(rng, 1, calm_len, CALM_UNIVERSE, CALM_MAX_LEN)
    for ts in range(calm_len + 1, calm_len + burst_len + 1):
        length = rng.randint(BURST_MIN_LEN, BURST_POOL)
        items = rng.sample(range(BURST_LO, BURST_LO + BURST_POOL), length)
        out.append(Transaction(tuple(sorted(items)), ts))
    out += _baskets(rng, calm_len + burst_len + 1, tail_len, CALM_UNIVERSE, CALM_MAX_LEN)
    return out
