"""Exact reference implementations for desk-scale verification.

Everything here is deliberately naive (power-set candidate generation,
quadratic pairwise checks) and shares no code with the streaming
engine, so differential tests against it are meaningful. Hard input-size
guards keep the naivety honest. The one exception is
`enumerate_fis_tidsets`, a tid-set enumerator of the frequent itemsets
that works on any alphabet; tests check it against `enumerate_fis`, and
`verify_delta_covered_set` uses it.

Supports are always recomputed from the raw stream; none of these
functions ever trusts an engine estimate. The two predicates the checks
are built on, `intersect` and `is_delta_covered`, live here too: the
oracle is their only caller.
"""

from __future__ import annotations

from itertools import combinations
from typing import Iterable, Sequence

from .itemsets import Entry, Items, Transaction

MAX_UNIVERSE = 20  # power-set enumeration guard


class UniverseTooLarge(ValueError):
    """The stream's item universe is too large for exhaustive enumeration."""


def intersect(a: Items, b: Items) -> Items:
    """Sorted intersection of two canonical itemsets; () when disjoint."""
    if len(b) < len(a):
        a, b = b, a
    bs = set(b)
    return tuple(x for x in a if x in bs)


def is_delta_covered(
    sub: Items, sub_support: int, sup: Items, sup_support: int, delta: int
) -> bool:
    """True iff sub is within-delta covered by sup.

    sub must be a subset of sup and sub's support may exceed sup's by at
    most delta. Monotone in delta.
    """
    return sub_support <= sup_support + delta and set(sub).issubset(sup)


def true_support(stream: Sequence[Transaction], alpha: Items) -> int:
    """Number of transactions containing alpha."""
    aset = set(alpha)
    return sum(1 for t in stream if aset.issubset(t.items))


def _candidate_itemsets(stream: Sequence[Transaction]) -> set[Items]:
    """Every non-empty subset of some transaction (all itemsets with support > 0)."""
    universe: set[int] = set()
    for t in stream:
        universe.update(t.items)
    if len(universe) > MAX_UNIVERSE:
        raise UniverseTooLarge(
            f"{len(universe)} distinct items; enumeration is capped at {MAX_UNIVERSE}"
        )
    out: set[Items] = set()
    for t in stream:
        for r in range(1, len(t.items) + 1):
            out.update(combinations(t.items, r))
    return out


def enumerate_fis(stream: Sequence[Transaction], sigma: float) -> dict[Items, int]:
    """All itemsets with support strictly greater than sigma * n, exactly counted."""
    n = len(stream)
    threshold = sigma * n
    out: dict[Items, int] = {}
    for alpha in _candidate_itemsets(stream):
        s = true_support(stream, alpha)
        if s > threshold:
            out[alpha] = s
    return out


def enumerate_fis_tidsets(stream: Sequence[Transaction], sigma: float) -> dict[Items, int]:
    """`enumerate_fis` by depth-first tid-set intersection (Eclat), for any alphabet.

    Each item's tid-set is a bit mask over transaction positions. An
    itemset is extended only by larger items, and only while the
    intersected tid-set stays above sigma * n, so the work follows the
    frequent itemsets rather than the alphabet.
    """
    threshold = sigma * len(stream)
    tids: dict[int, int] = {}
    for pos, t in enumerate(stream):
        for x in t.items:
            tids[x] = tids.get(x, 0) | 1 << pos
    out: dict[Items, int] = {}
    stack = [((), sorted((x, m) for x, m in tids.items() if m.bit_count() > threshold))]
    while stack:
        prefix, tail = stack.pop()
        for j, (x, mask) in enumerate(tail):
            alpha = prefix + (x,)
            out[alpha] = mask.bit_count()
            grown = [(y, mask & other) for y, other in tail[j + 1 :]]
            stack.append((alpha, [(y, m) for y, m in grown if m.bit_count() > threshold]))
    return out


def enumerate_closed(stream: Sequence[Transaction]) -> dict[Items, int]:
    """Exact closed itemsets with their supports.

    Built by the cumulative recurrence: the closed sets after i
    transactions are the closed sets after i-1, plus the new transaction,
    plus its non-empty intersections with each of them. Equivalent to
    "no proper superset with the same support".
    """
    closed: set[Items] = set()
    for t in stream:
        grown = {t.items}
        for alpha in closed:
            beta = intersect(alpha, t.items)
            if beta:
                grown.add(beta)
        closed |= grown
    return {alpha: true_support(stream, alpha) for alpha in closed}


def enumerate_delta_closed(
    stream: Sequence[Transaction], delta: int, sigma: float
) -> set[Items]:
    """Frequent itemsets with no proper superset within support distance delta.

    An itemset whose support is at most delta is never delta-closed: a
    fresh item from outside the universe always yields a zero-support
    proper superset. The result is antitone in delta and shrinks toward
    the maximal itemsets; it is contained in every delta-covered summary
    of the frequent itemsets.
    """
    fis = enumerate_fis(stream, sigma)
    candidates = _candidate_itemsets(stream)
    supports = {alpha: true_support(stream, alpha) for alpha in candidates}
    out: set[Items] = set()
    for alpha, s in fis.items():
        if s - delta <= 0:
            continue
        aset = set(alpha)
        dominated = any(
            len(beta) > len(alpha) and supports[beta] >= s - delta and aset.issubset(beta)
            for beta in candidates
        )
        if not dominated:
            out.add(alpha)
    return out


def verify_delta_covered_set(
    output: Iterable[Entry | Items],
    stream: Sequence[Transaction],
    sigma: float,
    delta: int,
) -> bool:
    """Check that every frequent itemset is delta-covered by some output itemset.

    Coverage is judged on true supports. `output` may be entries or bare
    itemsets; counts in entries are ignored on purpose. The frequent
    itemsets come from `enumerate_fis_tidsets`, so any alphabet will do.
    """
    alphas = [e.alpha if isinstance(e, Entry) else tuple(e) for e in output]
    sup = {beta: true_support(stream, beta) for beta in alphas}
    for alpha, s_alpha in enumerate_fis_tidsets(stream, sigma).items():
        if not any(
            is_delta_covered(alpha, s_alpha, beta, sup[beta], delta) for beta in alphas
        ):
            return False
    return True
