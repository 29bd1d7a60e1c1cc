"""Exact reference implementations the tests and CI check the engine against.

Nothing here shares code with the streaming engine, so differential
tests against it are meaningful. Supports are always recomputed from
the raw stream; none of these functions ever trusts an engine estimate.
The frequent itemsets come from one tid-set walk, `enumerate_fis`,
whose work follows the frequent itemsets rather than the alphabet, so
every check here runs on any alphabet. The two predicates the checks
are built on, `intersect` and `is_delta_covered`, live here too: the
oracle is their only caller.
"""

from __future__ import annotations

import operator
from functools import reduce
from typing import Iterable, Sequence

from .itemsets import Entry, Items, Transaction


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


def _item_tids(stream: Sequence[Transaction]) -> dict[int, int]:
    """Each item's tid-set: a bit mask over the positions of the transactions holding it."""
    tids: dict[int, int] = {}
    for pos, t in enumerate(stream):
        for x in t.items:
            tids[x] = tids.get(x, 0) | 1 << pos
    return tids


def enumerate_fis(stream: Sequence[Transaction], sigma: float) -> dict[Items, int]:
    """All itemsets with support strictly greater than sigma * n, exactly counted.

    A depth-first tid-set intersection (Eclat): an itemset is extended
    only by larger items, and only while the intersected tid-set stays
    above sigma * n, so the work follows the frequent itemsets rather
    than the alphabet.
    """
    threshold = sigma * len(stream)
    out: dict[Items, int] = {}
    items = sorted((x, m) for x, m in _item_tids(stream).items() if m.bit_count() > threshold)
    stack = [((), items)]
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
    proper superset. Otherwise alpha, of support s, is kept when every
    one-item extension alpha + {x} has support below s - delta. That is
    exact: support only falls as an itemset grows, so alpha has a proper
    superset within delta exactly when some one-item extension is within
    delta. The result is antitone in delta and shrinks toward the
    maximal itemsets; it is contained in every delta-covered summary of
    the frequent itemsets.
    """
    tids = _item_tids(stream)
    out: set[Items] = set()
    for alpha, s in enumerate_fis(stream, sigma).items():
        floor = s - delta
        mask = reduce(operator.and_, map(tids.__getitem__, alpha))
        if floor > 0 and not any(
            (mask & other).bit_count() >= floor for x, other in tids.items() if x not in alpha
        ):
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
    itemsets come from `enumerate_fis`, so any alphabet will do.
    """
    alphas = [e.alpha if isinstance(e, Entry) else tuple(e) for e in output]
    sup = {beta: true_support(stream, beta) for beta in alphas}
    for alpha, s_alpha in enumerate_fis(stream, sigma).items():
        if not any(
            is_delta_covered(alpha, s_alpha, beta, sup[beta], delta) for beta in alphas
        ):
            return False
    return True
