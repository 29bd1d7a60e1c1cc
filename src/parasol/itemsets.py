"""Itemset algebra and the cover predicates the rest of the library is built on.

An itemset is a plain tuple of strictly increasing non-negative integers.
The empty tuple is the distinguished "disjoint" result; it is never stored
in any table. All values here are immutable and every function is pure, so
they are safe to share across threads.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Iterable

Items = tuple[int, ...]


def itemset(items: Iterable[int]) -> Items:
    """Canonical itemset: deduplicated, sorted ascending, non-negative ints.

    Item ids are arbitrary non-negative integers; 0 is accepted. No
    densification/remapping is ever applied (a one-pass stream cannot be
    pre-scanned for its alphabet).
    """
    out = tuple(sorted(set(items)))
    for x in out:
        if x < 0:
            raise ValueError(f"item ids must be non-negative, got {x}")
    return out


def require_canonical(items: Items) -> None:
    """Raise ValueError unless items are non-empty, strictly increasing and non-negative."""
    if not items or items[0] < 0 or not all(map(operator.lt, items, items[1:])):
        raise ValueError(
            f"itemsets must be non-empty, strictly increasing and non-negative, got {items}"
        )


def intersect(a: Items, b: Items) -> Items:
    """Sorted intersection of two canonical itemsets; () when disjoint."""
    if len(b) < len(a):
        a, b = b, a
    bs = set(b)
    return tuple(x for x in a if x in bs)


@dataclass(frozen=True)
class Transaction:
    """One canonical itemset arriving at a logical timestamp (1-based, consecutive)."""

    items: Items
    timestamp: int

    def __post_init__(self) -> None:
        require_canonical(self.items)
        if self.timestamp < 1:
            raise ValueError("timestamps are positive")


@dataclass(frozen=True)
class Entry:
    """A stored itemset with its estimated count and per-entry error bound.

    The estimate brackets the true support: count - err <= support <= count.
    """

    alpha: Items
    count: int
    err: int

    def __post_init__(self) -> None:
        if not self.alpha:
            raise ValueError("stored itemsets are non-empty")
        if self.err < 0 or self.err > self.count:
            raise ValueError(f"need 0 <= err <= count, got ({self.count}, {self.err})")


def is_delta_covered(
    sub: Items, sub_support: int, sup: Items, sup_support: int, delta: int
) -> bool:
    """True iff sub is within-delta covered by sup.

    sub must be a subset of sup and sub's support may exceed sup's by at
    most delta. Monotone in delta.
    """
    return sub_support <= sup_support + delta and set(sub).issubset(sup)
