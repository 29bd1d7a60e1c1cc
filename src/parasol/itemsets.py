"""The value types the library passes around, and the canonical-itemset check.

An itemset is a plain tuple of strictly increasing non-negative integers;
the empty tuple is never stored in any table. `Transaction` and `Entry`
are immutable, and every function here is pure, so all of them are safe
to share across threads.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Iterable

Items = tuple[int, ...]


def itemset(items: Iterable[int]) -> Items:
    """Canonical itemset: deduplicated, sorted ascending, non-negative ints.

    Item ids are arbitrary non-negative integers; 0 is accepted. A
    non-empty result must pass `require_canonical`, so an item whose type
    is not int itself (bool, float, str) is a ValueError. No
    densification/remapping is ever applied (a one-pass stream cannot be
    pre-scanned for its alphabet).
    """
    try:
        out = tuple(sorted(set(items)))
    except TypeError as exc:  # items that do not sort together, such as "a" and 1
        raise ValueError(f"item ids are non-negative ints: {exc}") from None
    if out:
        require_canonical(out)
    return out


def require_canonical(items: Items) -> None:
    """Raise ValueError unless items is a non-empty, strictly increasing tuple whose
    items are non-negative and of type int itself, not bool, float or str."""
    if not isinstance(items, tuple) or {*map(type, items)} != {int} or items[0] < 0:
        raise ValueError(f"itemsets are non-empty tuples of non-negative ints, got {items!r}")
    if not all(map(operator.lt, items, items[1:])):
        raise ValueError(f"itemsets are strictly increasing, got {items!r}")


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
