"""Post-processing that shrinks a finished table to a more concise summary.

An entry e1 can be dropped whenever some superset entry e2 satisfies
e1.count <= e2.count - e2.err + delta_n: the survivor then provably
covers the dropped itemset within delta_n. In exchange e2 keeps the
larger count and widens its err by any rise (`_absorb`), so its bracket
stays valid, its count - err pivot is kept and no count falls. So
absorption never creates new qualifying pairs, and an absorber's count
stays at least that of everything it absorbed: the output still
delta_n-covers the frequent itemsets, after a sigma filter too, and is
never larger than the input.

`delta_compress` tries every pair and `precompress_scan` only the
weeping tree's parent-child edges. Neither touches the store it reads,
so a stream can go on after either.
"""

from __future__ import annotations

from typing import Iterable

from .itemsets import Entry, Items
from .wtree import WeepingTree


def _qualifies(e1: Entry, e2: Entry, delta_n: int) -> bool:
    return (
        e1.alpha != e2.alpha
        and e1.count <= e2.count - e2.err + delta_n
        and set(e1.alpha).issubset(e2.alpha)
    )


def _absorb(count: int, err: int, taken: int) -> tuple[int, int]:
    """An absorber's (count, err) on taking `taken`: the larger count, err widened by the rise."""
    top = max(count, taken)
    return top, err + top - count


def delta_compress(entries: Iterable[Entry], delta_n: int) -> list[Entry]:
    """Pairwise compaction by repeated absorption until no pair qualifies.

    Candidates for removal are tried in descending count (ties: input
    order, which callers supply oldest-first); the absorbing superset is
    the first qualifying entry with the highest count. Order matters for
    which survivors remain, so it is fixed for reproducible output.
    Quadratic per pass over at most len(entries) passes; this is an
    offline step on a bounded table.
    """
    pool: list[Entry] = list(entries)
    while True:
        for j in sorted(range(len(pool)), key=lambda j: (-pool[j].count, j)):
            e1 = pool[j]
            found = [m for m, e2 in enumerate(pool) if _qualifies(e1, e2, delta_n)]
            if found:
                m = max(found, key=lambda m: pool[m].count)
                e2 = pool[m]
                pool[m] = Entry(e2.alpha, *_absorb(e2.count, e2.err, e1.count))
                del pool[j]
                break
        else:
            return pool


def precompress_scan(tree: WeepingTree, delta_n: int) -> list[Entry]:
    """One bottom-up pass absorbing children their tree parent covers.

    A child is absorbed when its count <= parent.count - parent.err +
    delta_n (its itemset is a subset of the parent's by construction, so
    the parent covers it within delta_n). The parent keeps the larger
    count and widens its err by any rise. Nodes are visited in
    reverse depth-first order, so each node's estimate is final before
    its parent tests it, and each parent tests its children left to
    right. Each edge is tested once: an absorbed child's children are not
    tested against the absorber, and the root's children have no
    covering parent. Since absorption keeps the parent's pivot, the
    test reads the parent's stored estimate.

    Returns the survivors with their absorbed estimates, in `snapshot()`
    order; the tree is left as it was.
    """
    est: dict[Items, tuple[int, int]] = {}
    for node in reversed(list(tree.nodes())):
        count, err = node.count, node.err
        ceiling = count - err + delta_n
        for child in node.children:
            child_count = est[child.alpha][0]
            if child_count <= ceiling:
                del est[child.alpha]
                count, err = _absorb(count, err, child_count)
        est[node.alpha] = count, err
    return [Entry(e.alpha, *est[e.alpha]) for e in tree.snapshot() if e.alpha in est]


def compress_two_step(tree: WeepingTree, delta_n: int) -> list[Entry]:
    """Linear parent-child absorption pass, then full pairwise compaction.

    Both steps preserve the covering guarantee and leave the tree as it
    was, and the result is no larger than the pre-pass output. It can be
    larger than direct `delta_compress` of the snapshot would leave: the
    two routes keep different survivors, and both are valid summaries.
    """
    return delta_compress(precompress_scan(tree, delta_n), delta_n)
