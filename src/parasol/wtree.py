"""A spanning-tree index over the entry table that prunes update work.

Every stored itemset is a node; a node's itemset is always a subset of
its parent's, so counts never decrease along a downward edge and every
minimum-count entry sits directly under the root. That shape gives three
shortcuts:

* updates walk the tree depth-first left-to-right, narrowing the
  transaction to its intersection with each ancestor (masking), bumping
  whole subtrees without computing intersections when a node's itemset
  is contained in the mask (descendant-intersect-skipping), skipping
  subtrees with an empty overlap (descendant-update-skipping), and
  abandoning right siblings once the mask is contained in a node's
  itemset (successor-update-skipping); these four rules are the walk
  itself and are always on;
* eviction pops minima from a heap over the root's children and
  reattaches their children to the root;
* a single bottom-up pass can absorb every child whose estimate is
  within the final error budget of its parent's, as a cheap prelude to
  full pairwise compaction.

A tree built by `update` (and trimmed by `delete_minima`) is
behaviourally identical to the flat loop in `engine`: after any prefix
of the stream both hold the same entries and the same error.
Nodes never materialize their conceptual transaction-subset address
(that would cost O(n) bits each); ancestry and sibling order carry the
same information. `covers` below exists for address-level reasoning in
tests.
"""

from __future__ import annotations

import heapq
from typing import Callable, Iterable, Iterator

from .itemsets import Entry, Items


def covers(x_bits: Iterable[int], y_bits: Iterable[int]) -> bool:
    """Address-level covering: y agrees with x through x's last set bit.

    Addresses are equal-width 0/1 sequences, most significant (oldest
    timestamp) first. The all-zero address covers everything. Covering
    implies the covered node's itemset is a subset of the coverer's.
    """
    x = tuple(x_bits)
    y = tuple(y_bits)
    if len(x) != len(y):
        raise ValueError("addresses must have equal width")
    last = 0
    for j, bit in enumerate(x, start=1):
        if bit:
            last = j
    return all(y[j] == x[j] for j in range(last))


class WNode:
    __slots__ = ("alpha", "count", "err", "birth", "own", "parent", "children", "stamp")

    def __init__(
        self, alpha: Items, count: int, err: int, birth: int, own: bool
    ) -> None:
        self.alpha = alpha
        self.count = count
        self.err = err
        self.birth = birth
        self.own = 0 if own else 1  # transaction-born entries evict first among ties
        self.parent: WNode | None = None
        self.children: list[WNode] = []
        self.stamp = 0

    def entry(self) -> Entry:
        return Entry(self.alpha, self.count, self.err)

    def _evict_key(self) -> tuple[int, int, int, Items]:
        return (self.count, self.birth, self.own, self.alpha)


class _Frame:
    __slots__ = ("node", "mask", "probe", "ci", "stop")

    def __init__(self, node: WNode, mask: Items) -> None:
        self.node = node
        self.mask = mask  # the itemset this frame is narrowing toward
        self.probe = set(mask)  # the mask as a set, for overlap tests
        self.ci = 0
        self.stop = False


class WeepingTree:
    """Tree-indexed entry table; one writer, snapshots for readers."""

    __slots__ = ("root", "_index", "_epoch", "trace")

    def __init__(self) -> None:
        self.root = WNode((), 0, 0, 0, own=False)
        self._index: dict[Items, WNode] = {}
        self._epoch = 0
        # optional event sink for instrumented traces: list of tuples
        self.trace: list[tuple] | None = None

    def __len__(self) -> int:
        return len(self._index)

    def __contains__(self, alpha: Items) -> bool:
        return alpha in self._index

    def get(self, alpha: Items) -> Entry | None:
        node = self._index.get(alpha)
        return None if node is None else node.entry()

    def nodes(self) -> Iterator[WNode]:
        """All nodes, depth-first left-to-right."""
        stack = list(reversed(self.root.children))
        while stack:
            node = stack.pop()
            yield node
            stack.extend(reversed(node.children))

    def snapshot(self) -> list[Entry]:
        """Immutable entries in canonical (birth, own-first, itemset) order."""
        rows = sorted(self.nodes(), key=lambda n: (n.birth, n.own, n.alpha))
        return [n.entry() for n in rows]

    # -- update ---------------------------------------------------------

    def update(self, items: Items, delta_prev: int, timestamp: int) -> tuple[int, int]:
        """Fold one transaction in; returns (nodes touched, intersections).

        Equivalent to the flat sweep: every stored itemset contained in
        the transaction gains one count, and for every narrowed mask that
        has no entry yet, a node (mask, parent count + 1, parent err) is
        attached under the deepest node that produced it; if the walk
        never narrows to an existing or created entry for the whole
        transaction, the root contributes the pair (delta_prev,
        delta_prev) so the fresh entry ends at count delta_prev + 1.
        """
        self._epoch += 1
        root = self.root
        root.count = delta_prev
        root.err = delta_prev
        visits = 0
        intersections = 0
        trace = self.trace

        stack = [_Frame(root, items)]
        while stack:
            f = stack[-1]
            if not f.stop and f.ci < len(f.node.children):
                y = f.node.children[f.ci]
                f.ci += 1
                visits += self._touch(y)
                intersections += 1
                overlap = tuple(x for x in y.alpha if x in f.probe)
                if len(overlap) == len(f.mask):
                    f.stop = True  # the mask lies inside y: skip y's right siblings
                if len(overlap) == len(y.alpha):
                    visits += self._bump_subtree(y)
                    if trace is not None:
                        trace.append(("hit-subtree", y.alpha))
                elif overlap:
                    if trace is not None:
                        trace.append(("descend", y.alpha, overlap))
                    stack.append(_Frame(y, overlap))
                elif trace is not None:
                    trace.append(("skip-subtree", y.alpha))
            else:
                if f.stop and trace is not None:
                    skipped = tuple(c.alpha for c in f.node.children[f.ci :])
                    if skipped:
                        trace.append(("skip-right-siblings", f.node.alpha, skipped))
                if f.mask and f.mask not in self._index:
                    node = self._attach(
                        f.node,
                        f.mask,
                        f.node.count + 1,
                        f.node.err,
                        timestamp,
                        own=(f.mask == items),
                    )
                    if trace is not None:
                        trace.append(
                            ("create", node.alpha, f.node.alpha, node.count, node.err)
                        )
                stack.pop()
        return visits, intersections

    def _touch(self, node: WNode) -> int:
        if node.stamp == self._epoch:
            raise RuntimeError(f"node {node.alpha} visited twice in one update")
        node.stamp = self._epoch
        return 1

    def _bump_subtree(self, top: WNode) -> int:
        """+1 on top and every descendant; the subtree lies inside the mask."""
        extra = 0
        top.count += 1
        stack = list(top.children)
        while stack:
            node = stack.pop()
            extra += self._touch(node)
            node.count += 1
            stack.extend(node.children)
        return extra

    def _attach(
        self, parent: WNode, alpha: Items, count: int, err: int, birth: int, own: bool
    ) -> WNode:
        node = WNode(alpha, count, err, birth, own)
        node.parent = parent
        node.stamp = self._epoch
        parent.children.append(node)  # right-most keeps sibling order by age
        self._index[alpha] = node
        return node

    # -- eviction -------------------------------------------------------

    def delete_minima(
        self, should_delete: Callable[[int, int], bool], delta_prev: int
    ) -> int:
        """Pop minimum entries while should_delete(min_count, size) holds.

        Minima always sit in the shallowest layer, so a heap over the
        root's children finds them. A removed node's children reattach
        to the root in its place; taking over its slot of the sibling
        order keeps right siblings' itemsets out of every mask's subset
        range, which is what keeps the successor skip sound. Returns the
        new maximum error.
        """
        root = self.root
        delta = delta_prev
        heap = [(c._evict_key(), c) for c in root.children]
        heapq.heapify(heap)
        dead: set[int] = set()
        size = len(self._index)
        while heap:
            key, node = heap[0]
            if node.parent is not root or node.count != key[0]:
                heapq.heappop(heap)  # already removed this round
                continue
            if not should_delete(node.count, size):
                break
            heapq.heappop(heap)
            delta = max(delta, node.count)
            del self._index[node.alpha]
            node.parent = None
            dead.add(id(node))
            size -= 1
            for child in node.children:  # children kept for the splice below
                child.parent = root
                heapq.heappush(heap, (child._evict_key(), child))
        if dead:
            frontier: list[WNode] = []
            stack = list(reversed(root.children))
            while stack:
                node = stack.pop()
                if id(node) in dead:
                    stack.extend(reversed(node.children))
                    node.children = []
                else:
                    frontier.append(node)
            root.children = frontier
        return delta

    # -- compaction prelude ---------------------------------------------

    def precompress_scan(self, delta_n: int) -> list[Entry]:
        """One bottom-up left-to-right pass absorbing coverable children.

        A child is absorbed when child.count <= parent.count - parent.err
        + delta_n (its itemset is a subset of the parent's by
        construction, so the parent covers it within delta_n). The parent
        takes the child's count, widens its err by the difference, and
        adopts the grandchildren in place. Each edge is examined once;
        children the root holds directly have no covering parent and are
        never absorbed. Returns the removed entries.
        """
        removed: list[Entry] = []
        stack: list[tuple[WNode, int]] = [(self.root, 0)]
        while stack:
            node, ci = stack[-1]
            if ci < len(node.children):
                stack[-1] = (node, ci + 1)
                stack.append((node.children[ci], 0))
                continue
            stack.pop()
            if not stack or node is self.root:
                continue
            parent, pi = stack[-1]
            if parent is self.root:
                continue
            if node.count <= parent.count - parent.err + delta_n:
                removed.append(node.entry())
                parent.err += node.count - parent.count
                parent.count = node.count
                del self._index[node.alpha]
                node.parent = None
                slot = pi - 1  # node's own position in parent's children
                for child in node.children:
                    child.parent = parent
                node.children, grafted = [], node.children
                parent.children[slot : slot + 1] = grafted
                # resume after the grafted block: it was already scanned
                stack[-1] = (parent, slot + len(grafted))
        return removed

    # -- debugging -------------------------------------------------------

    def dump(self) -> str:
        """One node per line, depth-indented: itemset TAB count TAB err TAB birth."""
        lines: list[str] = []

        def walk(node: WNode, depth: int) -> None:
            label = " ".join(str(x) for x in node.alpha)
            lines.append(f"{'  ' * depth}{label}\t{node.count}\t{node.err}\t{node.birth}")
            for child in node.children:
                walk(child, depth + 1)

        for child in self.root.children:
            walk(child, 0)
        return "\n".join(lines)
