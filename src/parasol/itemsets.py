"""Itemset algebra and the cover predicates the rest of the library is built on.

An itemset is a plain tuple of strictly increasing non-negative integers.
The empty tuple is the distinguished "disjoint" result; it is never stored
in any table. All values here are immutable and every function is pure, so
they are safe to share across threads.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Callable, Iterable

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


def intersect(a: Items, b: Items) -> Items:
    """Sorted intersection of two canonical itemsets; () when disjoint."""
    if len(b) < len(a):
        a, b = b, a
    bs = set(b)
    return tuple(x for x in a if x in bs)


def is_subset(a: Items, b: Items) -> bool:
    """True iff every item of a occurs in b (both canonical)."""
    if len(a) > len(b):
        return False
    return set(a).issubset(b)


@dataclass(frozen=True)
class Transaction:
    """One canonical itemset arriving at a logical timestamp (1-based, consecutive)."""

    items: Items
    timestamp: int

    def __post_init__(self) -> None:
        items = self.items
        if not items:
            raise ValueError("transactions must be non-empty")
        if items[0] < 0 or not all(map(operator.lt, items, items[1:])):
            raise ValueError(f"items must be strictly increasing and non-negative, got {items}")
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
    return sub_support <= sup_support + delta and is_subset(sub, sup)


def is_delta_covered_set(
    candidate: Iterable[Items],
    target: Iterable[Items],
    support: Callable[[Items], int],
    delta: int,
) -> bool:
    """True iff every member of target is delta-covered by some member of candidate."""
    cand = list(candidate)
    for alpha in target:
        s_alpha = support(alpha)
        if not any(
            is_delta_covered(alpha, s_alpha, beta, support(beta), delta)
            for beta in cand
        ):
            return False
    return True


def find_representative(entries: Iterable[Entry], alpha: Items) -> Entry | None:
    """Max-count entry whose itemset contains alpha; None when nothing does.

    Ties go to the earliest entry in iteration order, so callers that want
    determinism should pass entries in a canonical order.
    """
    best: Entry | None = None
    aset = set(alpha)
    for e in entries:
        if aset.issubset(e.alpha) and (best is None or e.count > best.count):
            best = e
    return best
