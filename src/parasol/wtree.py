"""A spanning-tree index over the entry table that prunes update work.

Every stored itemset is a node; a node's itemset is always a subset of
its parent's, so counts never decrease along a downward edge and every
minimum-count entry sits directly under the root. That shape gives two
shortcuts:

* updates walk the tree depth-first left-to-right, narrowing the
  transaction to its intersection with each ancestor (masking), bumping
  whole subtrees without computing intersections when a node's itemset
  is contained in the mask (descendant-intersect-skipping), skipping
  subtrees with an empty overlap (descendant-update-skipping), and
  abandoning right siblings once the mask is contained in a node's
  itemset (successor-update-skipping); these four rules are the walk
  itself and are always on. An update tests membership in one set of
  the transaction's items at every depth and keeps no per-node state
  (see `WeepingTree.update`);
* eviction is the shared `Store.delete_minima`, run over a heap of the
  root's children, where every minimum sits: after `update`, one exact
  key per root child, and no count changes during eviction, so no key
  lags its node; an evicted node's children take its slot under the
  root and join the heap. Eviction is the only way a node leaves the
  tree.

A node is the flat store's `Record` with its itemset and child links
added, and no parent link: nothing walks up the tree. The tree keeps
its nodes in the same `Store` index the flat table uses, so size,
membership, lookup and snapshot are one implementation for both
backends; only the update walk and what the heap holds differ. A tree
built by `update` (and trimmed by `delete_minima`) is behaviourally
identical to `EntryTable`: after any prefix of the stream both hold the
same entries and the same error. Nodes never materialize their
conceptual transaction-subset address (that would cost O(n) bits each);
ancestry and sibling order carry the same information.
"""

from __future__ import annotations

import heapq
from typing import Iterator

from .itemsets import Items, require_canonical
from .table import Record, Store


class WNode(Record):
    """A stored entry's record, plus its itemset and its place in the tree."""

    __slots__ = ("alpha", "children")

    def __init__(
        self, alpha: Items, count: int, err: int, birth: int, own: bool
    ) -> None:
        Record.__init__(self, alpha, count, err, birth, own)
        self.alpha = alpha  # also rank[2], but the walk reads it at every visit
        self.children: list[WNode] = []


class WeepingTree(Store):
    """Tree-indexed entry table; one writer, snapshots for readers."""

    __slots__ = ("root", "trace")

    def __init__(self) -> None:
        super().__init__()
        self.root = WNode((), 0, 0, 0, own=False)
        # optional event sink for instrumented traces: list of tuples
        self.trace: list[tuple] | None = None

    def nodes(self) -> Iterator[WNode]:
        """All nodes, depth-first left-to-right."""
        stack = list(reversed(self.root.children))
        while stack:
            node = stack.pop()
            yield node
            stack.extend(reversed(node.children))

    # -- update ---------------------------------------------------------

    def update(self, items: Items, delta_prev: int, timestamp: int) -> tuple[int, int]:
        """Fold one transaction in; returns (nodes touched, intersections).

        `Store`'s one rule, as in the flat sweep: every stored itemset
        inside the transaction gains exactly one, and for every narrowed
        mask with no entry yet, a node (mask, parent count + 1, parent
        err) is attached under the deepest node that produced it; if the
        walk never narrows to an existing or created entry for the whole
        transaction, the root contributes the pair (delta_prev,
        delta_prev) so the fresh entry ends at count delta_prev + 1.

        Every overlap is taken against one set of the transaction's items,
        as `tuple(filter(inside, y.alpha))` with `inside` bound once to
        the set's `__contains__`. That is exact because a node's itemset
        lies inside each ancestor's: a frame's mask is its node's overlap
        with the transaction, so for any child y, y & mask == y & node &
        items == y & items. The filter keeps y.alpha's sorted order and
        drops an item only when it is not in the set (item 0 included),
        so the overlap is the canonical tuple of y & items.

        Each node is visited at most once and nothing is stamped on it.
        A descent into a leaf resolves the leaf's overlap at once (find
        it, or attach it under the leaf) instead of pushing a frame, and
        a hit on a leaf bumps its count in place.
        """
        require_canonical(items)
        root = self.root
        root.count = delta_prev
        root.err = delta_prev
        visits = 0
        intersections = 0
        trace = self.trace
        inside = set(items).__contains__

        # a frame is [node, mask, index of the next child, stop]; the mask
        # is the itemset the frame narrows toward, and stop is set once the
        # mask lies inside a child, which skips that child's right siblings
        stack = [[root, items, 0, False]]
        while stack:
            f = stack[-1]
            node, mask, ci, stop = f
            if not stop and ci < len(node.children):
                y = node.children[ci]
                f[2] = ci + 1
                visits += 1
                intersections += 1
                overlap = tuple(filter(inside, y.alpha))
                if len(overlap) == len(mask):
                    f[3] = True
                if len(overlap) == len(y.alpha):
                    if y.children:
                        visits += self._bump_subtree(y)
                    else:
                        y.count += 1
                    if trace is not None:
                        trace.append(("hit-subtree", y.alpha))
                    continue
                if not overlap:
                    if trace is not None:
                        trace.append(("skip-subtree", y.alpha))
                    continue
                if trace is not None:
                    trace.append(("descend", y.alpha, overlap))
                if y.children:
                    stack.append([y, overlap, 0, False])
                    continue
                node, mask = y, overlap  # a leaf's frame would only resolve its mask
            else:
                stack.pop()
                if stop:
                    # a child's overlap equalled the mask: that child is the
                    # mask's entry, or its descent found or created it
                    if trace is not None:
                        skipped = tuple(c.alpha for c in node.children[ci:])
                        if skipped:
                            trace.append(("skip-right-siblings", node.alpha, skipped))
                    continue
            if mask not in self._index:  # items and every descended overlap are non-empty
                created = self._attach(
                    node, mask, node.count + 1, node.err, timestamp, own=(mask == items)
                )
                if trace is not None:
                    trace.append(("create", created.alpha, node.alpha, created.count, created.err))
        self._heap = [(c.count, c.rank) for c in root.children]
        heapq.heapify(self._heap)
        return visits, intersections

    def _bump_subtree(self, top: WNode) -> int:
        """+1 on top and every descendant, all inside the mask; returns how many descendants."""
        extra = 0
        top.count += 1
        stack = list(top.children)
        while stack:
            node = stack.pop()
            extra += 1
            node.count += 1
            stack.extend(node.children)
        return extra

    def _attach(
        self, parent: WNode, alpha: Items, count: int, err: int, birth: int, own: bool
    ) -> WNode:
        node = WNode(alpha, count, err, birth, own)
        parent.children.append(node)  # right-most keeps sibling order by age
        self._index[alpha] = node
        return node

    # -- eviction -------------------------------------------------------

    def _evicted(self, node: WNode) -> None:
        """An evicted root child's children take its slot under the root
        and join the heap. Keeping the slot keeps right siblings' itemsets
        out of every mask's subset range, which keeps the successor skip
        sound."""
        root = self.root
        slot = root.children.index(node)
        root.children[slot : slot + 1] = node.children
        for child in node.children:
            heapq.heappush(self._heap, (child.count, child.rank))

    # -- debugging -------------------------------------------------------

    def dump(self) -> str:
        """One node per line, depth-indented: itemset TAB count TAB err TAB birth."""
        lines: list[str] = []
        stack = [(child, 0) for child in reversed(self.root.children)]
        while stack:
            node, depth = stack.pop()
            label = " ".join(str(x) for x in node.alpha)
            lines.append(f"{'  ' * depth}{label}\t{node.count}\t{node.err}\t{node.rank[0]}")
            stack.extend((child, depth + 1) for child in reversed(node.children))
        return "\n".join(lines)
