"""Post-processing that shrinks a finished table to a more concise summary.

An entry e1 can be dropped whenever some superset entry e2 satisfies
e1.count <= e2.count - e2.err + delta_n: the survivor then provably
covers the dropped itemset within delta_n. In exchange e2 absorbs e1's
estimate (count := e1.count, err widened by the difference), which keeps
e2's bracket valid and leaves its count - err pivot unchanged, so
absorption never creates new qualifying pairs, only removes entries.
The output is therefore still a delta_n-covered summary of the frequent
itemsets, never larger than the input.

Both absorption rules live here: `delta_compress` tries every pair, and
`precompress_scan` tries only the weeping tree's parent-child edges.
Neither touches the store it reads, so a stream can go on after either.
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


def delta_compress(entries: Iterable[Entry], delta_n: int) -> list[Entry]:
    """Pairwise compaction by repeated absorption until no pair qualifies.

    Candidates for removal are tried in descending count (ties: input
    order, which callers supply oldest-first); the absorbing superset is
    the qualifying entry with the highest count (same tie rule). Order
    matters for which survivors remain, so it is fixed for reproducible
    output. Quadratic per pass over at most len(entries) passes; this is
    an offline step on a bounded table.
    """
    pool: list[Entry] = list(entries)
    changed = True
    while changed:
        changed = False
        order = sorted(range(len(pool)), key=lambda j: (-pool[j].count, j))
        for j in order:
            e1 = pool[j]
            best = -1
            for m, e2 in enumerate(pool):
                if _qualifies(e1, e2, delta_n) and (
                    best < 0
                    or e2.count > pool[best].count
                ):
                    best = m
            if best >= 0:
                e2 = pool[best]
                pool[best] = Entry(e2.alpha, e1.count, e2.err + e1.count - e2.count)
                del pool[j]
                changed = True
                break
    return pool


def precompress_scan(tree: WeepingTree, delta_n: int) -> list[Entry]:
    """One bottom-up pass absorbing children their tree parent covers.

    A child is absorbed when its count <= parent.count - parent.err +
    delta_n (its itemset is a subset of the parent's by construction, so
    the parent covers it within delta_n). The parent takes the child's
    count and widens its err by the difference. Nodes are visited in
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
                count, err = child_count, err + child_count - count
        est[node.alpha] = count, err
    return [Entry(e.alpha, *est[e.alpha]) for e in tree.snapshot() if e.alpha in est]


def compress_two_step(tree: WeepingTree, delta_n: int) -> list[Entry]:
    """Linear parent-child absorption pass, then full pairwise compaction.

    Both steps preserve the covering guarantee and leave the tree as it
    was, and the result is no larger than either step alone would leave.
    The two-step route and direct `delta_compress` may keep different
    survivors; both are valid summaries.
    """
    return delta_compress(precompress_scan(tree, delta_n), delta_n)
