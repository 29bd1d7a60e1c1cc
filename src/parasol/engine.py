"""The mining loop: update the entry store, then evict minimum entries.

Each arriving transaction is intersected with the stored itemsets; the
resulting candidates replace or extend the table, then one deletion rule
trims it: evict the minimum entry while the table holds more than k
entries or that entry's count is at most epsilon * i. Deleting a minimum
entry folds its count into the running maximum error delta, so every
surviving entry keeps the bracket count - err <= support <= count, and
the table stays a delta-covered summary of the frequent itemsets.

The stores do the work: `EntryTable.update` sweeps every stored itemset
and `WeepingTree.update` walks the tree; both return (visits,
intersections) and evict through `delete_minima(k, epsilon * i, delta)`.
`intersect_step`, `rc_delete` and `parasol_delete` are the flat store's
steps under the names the benchmark's tracer (`perfbench/tracing.py`)
looks up in this module and wraps. They are hooks, not API: the package
does not export them.

Size-only eviction (RC) is the same rule with epsilon = 0: every stored
count is at least 1, so only the size bound can fire. With epsilon > 0
the rule keeps delta below epsilon * i whenever the size budget never
binds; after a burst forces size-driven evictions, the error ratio
delta/i decays back toward epsilon on its own as i grows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .itemsets import Entry, Transaction
from .table import EntryTable, Store
from .wtree import WeepingTree


# the store classes by the names `StreamState.backend` and the CLI's --backend take
BACKENDS: dict[str, type[Store]] = {"flat": EntryTable, "wtree": WeepingTree}


class TimestampGap(ValueError):
    """Raised when a transaction's timestamp is not the next consecutive one."""


@dataclass(frozen=True)
class StepStats:
    """Work accounting for one processed transaction."""

    i: int
    pre_size: int  # entries before the update
    intersections: int  # overlaps computed, a new flat itemset's seed included (<= pre_size + 1)
    peak_size: int  # entries after the update, before eviction (<= 2k + 1)
    post_size: int  # entries after eviction (<= k)
    visits: int  # tree nodes touched; == intersections on the flat backend
    delta: int  # maximum error after eviction


@dataclass
class StreamState:
    """Single-writer mining state advanced one transaction at a time.

    k is the size budget (math.inf = unbounded); epsilon is the error
    parameter of the deletion rule, and 0 evicts by size only. Exact
    mining is the configuration k=inf with epsilon 0: nothing is ever
    evicted and the table holds exactly the closed itemsets.
    """

    k: float = math.inf
    epsilon: float = 0.0
    backend: str = "flat"
    i: int = field(default=0, init=False)
    delta: int = field(default=0, init=False)
    table: Store = field(init=False)
    steps: list[StepStats] = field(default_factory=list, init=False)

    def __post_init__(self) -> None:
        if self.k != math.inf and (self.k < 1 or int(self.k) != self.k):
            raise ValueError("k must be a positive integer or math.inf")
        if not 0.0 <= self.epsilon < 1.0:
            raise ValueError("epsilon must lie in [0, 1)")
        if self.backend not in BACKENDS:
            raise ValueError(f"unknown backend {self.backend!r}")
        self.table = BACKENDS[self.backend]()

    def snapshot(self) -> list[Entry]:
        return self.table.snapshot()


@dataclass(frozen=True)
class QueryResult:
    """Anytime query output: entries whose count clears the threshold.

    weak_guarantee flags that delta exceeded sigma * i, in which case the
    covering guarantee does not hold; the entries are still returned.
    """

    entries: list[Entry]
    weak_guarantee: bool
    i: int  # the timestamp the result was read at


def intersect_step(table: EntryTable, t: Transaction, delta_prev: int) -> tuple[int, int]:
    """`table.update` for one transaction; returns (visits, intersections).

    A function of its own because the benchmark's tracer
    (`perfbench/tracing.py`) times the flat update by wrapping this name.
    """
    return table.update(t.items, delta_prev, t.timestamp)


def rc_delete(table: EntryTable, k: float, delta_prev: int) -> int:
    """Evict minimum entries while the table exceeds k; returns the new delta."""
    return table.delete_minima(k, 0, delta_prev)


def parasol_delete(
    table: EntryTable, k: float, epsilon: float, i: int, delta_prev: int
) -> int:
    """Evict while the table exceeds k or the minimum count is <= epsilon * i."""
    return table.delete_minima(k, epsilon * i, delta_prev)


def process_transaction(state: StreamState, t: Transaction) -> StreamState:
    """Advance the state by one transaction: update, evict, record the step."""
    if t.timestamp != state.i + 1:
        raise TimestampGap(f"expected timestamp {state.i + 1}, got {t.timestamp}")
    i = t.timestamp
    table = state.table
    pre = len(table)

    if isinstance(table, WeepingTree):
        visits, intersections = table.update(t.items, state.delta, i)
        peak = len(table)
        # not via parasol_delete: perfbench would count the evictions twice
        delta = table.delete_minima(state.k, state.epsilon * i, state.delta)
    else:
        visits, intersections = intersect_step(table, t, state.delta)
        peak = len(table)
        delta = parasol_delete(table, state.k, state.epsilon, i, state.delta)

    state.i = i
    state.delta = delta
    state.steps.append(StepStats(i, pre, intersections, peak, len(table), visits, delta))
    return state


def answer(entries: list[Entry], sigma: float, i: int, delta: int) -> QueryResult:
    """The entries with count > sigma * i; the guarantee is weak when delta > sigma * i."""
    threshold = sigma * i
    return QueryResult([e for e in entries if e.count > threshold], delta > threshold, i)


def query(state: StreamState, sigma: float) -> QueryResult:
    """Entries with count > sigma * i, as an immutable snapshot.

    When delta <= sigma * i the returned itemsets delta-cover every
    frequent itemset at threshold sigma; otherwise weak_guarantee is set.
    The read filters before it sorts: the store keeps the entries above
    the threshold and builds and orders only those.
    """
    if not 0.0 <= sigma <= 1.0:
        raise ValueError("sigma must lie in [0, 1]")
    # the store, not StreamState.snapshot: the benchmark's tracer replaces
    # that method with a wrapper that takes no threshold
    return answer(state.table.snapshot(sigma * state.i), sigma, state.i, state.delta)


def replay(
    transactions,
    k: float = math.inf,
    epsilon: float = 0.0,
    backend: str = "flat",
) -> StreamState:
    """Feed a whole finite stream through a fresh state and return it.

    `process_transaction` is looked up in this module at each step, so a
    wrapper installed on `engine.process_transaction` sees every step.
    """
    state = StreamState(k=k, epsilon=epsilon, backend=backend)
    for t in transactions:
        process_transaction(state, t)
    return state
