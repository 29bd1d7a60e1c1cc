"""Spans and work counters recorded around calls into the program's layers.

The tracer wraps public entry points from the outside (module functions and
class methods), so the program itself is unchanged. Each call becomes a span
(layer, start, end, parent); a layer's time is the sum of its spans' self
time, that is each span's duration minus the spans it directly contains.
Work counters are derived from what a caller can see: table sizes before and
after a call, membership of the transaction, and return values.
"""

from __future__ import annotations

import time
from collections import Counter

# layer -> the entry points whose calls it is made of; a layer none of whose
# entry points ran is reported as null with these names, never as zero.
LAYER_ENTRIES = {
    "table.update": ("engine.intersect_step", "WeepingTree.update"),
    "table.evict": ("engine.rc_delete", "engine.parasol_delete", "WeepingTree.delete_minima"),
    "engine.step": ("engine.process_transaction",),
    "engine.query": ("engine.query",),
    "compress": ("compress.delta_compress", "compress.compress_two_step", "StreamState.snapshot"),
    "fimi.parse": ("fimi.parse_fimi",),
    "fimi.write": ("fimi.write_result", "fimi.write_metrics"),
}

# per-layer metric -> the layer it belongs to
METRICS = {
    "table.update_s": "table.update",
    "table.intersections": "table.update",
    "table.visits": "table.update",
    "table.prune_ratio": "table.update",
    "table.evict_s": "table.evict",
    "table.evictions_size": "table.evict",
    "table.evictions_epsilon": "table.evict",
    "table.peak_size_max": "table.evict",
    "engine.step_self_s": "engine.step",
    "engine.query_s": "engine.query",
    "engine.queries": "engine.query",
    "compress.s": "compress",
    "compress.entries_in": "compress",
    "compress.absorbed": "compress",
    "fimi.parse_s": "fimi.parse",
    "fimi.lines": "fimi.parse",
    "fimi.write_s": "fimi.write",
    "fimi.rows_written": "fimi.write",
    "cli.self_s": "cli",
}


class Tracer:
    """In-memory span recorder; one per traced replay."""

    def __init__(self) -> None:
        self.spans: list[list] = []  # [layer, start_ns, end_ns, parent index or -1]
        self.stack: list[int] = []
        self.calls: Counter = Counter()  # entry point -> calls
        self.counts: Counter = Counter()
        self.state = None  # the StreamState of the step in progress
        self.root = -1
        self.finish_out = 0  # entries left by the last top-level finishing call
        self._undo: list[tuple[object, str, object]] = []

    def open(self, layer: str) -> int:
        idx = len(self.spans)
        self.spans.append([layer, time.perf_counter_ns(), 0, self.stack[-1] if self.stack else -1])
        self.stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter_ns()
        self.stack.pop()

    def _patch(self, owner, attr: str, entry: str, layer: str, before=None, after=None) -> None:
        orig = getattr(owner, attr)

        def traced(*args, **kwargs):
            self.calls[entry] += 1
            seen = before(*args) if before else None
            idx = self.open(layer)
            try:
                out = orig(*args, **kwargs)
            finally:
                self.close(idx)
            if after:
                after(seen, out, *args)
            return out

        self._undo.append((owner, attr, orig))
        setattr(owner, attr, traced)

    def install(self, parasol) -> None:
        """Wrap every layer entry point of the imported `parasol` package."""
        engine, compress, fimi = parasol.engine, parasol.compress, parasol.fimi
        tree_cls, state_cls = parasol.WeepingTree, parasol.StreamState
        counts = self.counts

        def note_update(pre: int, intersections: int, visits: int) -> None:
            counts["table.intersections"] += intersections
            counts["table.visits"] += visits
            counts["table.prune_base"] += pre + 1

        def flat_update_before(table, t, delta_prev):
            return len(table), t.items not in table

        def flat_update_after(seen, out, *args):
            pre, fresh = seen
            swept = pre + 1 if fresh else pre  # every stored itemset is intersected once
            note_update(pre, swept, swept)

        def tree_update_after(pre, out, *args):
            visits, intersections = out
            note_update(pre, intersections, visits)

        def note_evict(peak: int, after: int, k: float) -> None:
            size_driven = max(0, peak - k)
            counts["table.evictions_size"] += size_driven
            counts["table.evictions_epsilon"] += peak - after - size_driven
            counts["table.peak_size_max"] = max(counts["table.peak_size_max"], peak)

        def flat_evict_after(peak, out, table, k, *rest):
            note_evict(peak, len(table), k)

        def tree_evict_after(peak, out, tree, *rest):
            note_evict(peak, len(tree), self.state.k)

        def step_before(state, t):
            self.state = state

        def count_query(seen, out, *args):
            counts["engine.queries"] += 1

        def at_top(*args):
            return bool(self.stack) and self.stack[-1] == self.root

        def finish_after(top, out, *args):
            if top:
                self.finish_out = len(out)

        def rows_after(seen, out, *args):
            counts["fimi.rows_written"] += out

        self._patch(engine, "process_transaction", "engine.process_transaction", "engine.step", before=step_before)
        self._patch(engine, "intersect_step", "engine.intersect_step", "table.update",
                    before=flat_update_before, after=flat_update_after)
        self._patch(tree_cls, "update", "WeepingTree.update", "table.update",
                    before=lambda tree, *a, **kw: len(tree), after=tree_update_after)
        for name in ("rc_delete", "parasol_delete"):
            self._patch(engine, name, f"engine.{name}", "table.evict",
                        before=lambda table, *a: len(table), after=flat_evict_after)
        self._patch(tree_cls, "delete_minima", "WeepingTree.delete_minima", "table.evict",
                    before=lambda tree, *a: len(tree), after=tree_evict_after)
        self._patch(engine, "query", "engine.query", "engine.query", after=count_query)
        for name in ("delta_compress", "compress_two_step"):
            self._patch(compress, name, f"compress.{name}", "compress",
                        before=at_top, after=finish_after)
        self._patch_snapshot(state_cls)
        self._patch_parse(fimi)
        self._patch(fimi, "write_result", "fimi.write_result", "fimi.write", after=rows_after)
        self._patch(fimi, "write_metrics", "fimi.write_metrics", "fimi.write")

    def _patch_snapshot(self, state_cls) -> None:
        """A snapshot taken by the run itself, not inside a query or a
        compression, is the finishing step of an uncompressed run."""
        orig = state_cls.snapshot

        def snapshot(state):
            if not self.stack or self.stack[-1] != self.root:
                return orig(state)
            self.calls["StreamState.snapshot"] += 1
            idx = self.open("compress")
            try:
                out = orig(state)
            finally:
                self.close(idx)
            self.finish_out = len(out)
            return out

        self._undo.append((state_cls, "snapshot", orig))
        state_cls.snapshot = snapshot

    def _patch_parse(self, fimi) -> None:
        """Each `next()` on the parser is a span; consumers run between them."""
        orig = fimi.parse_fimi

        def parse_fimi(source, stats=None):
            self.calls["fimi.parse_fimi"] += 1
            stats = stats if stats is not None else fimi.ParseStats()
            it = orig(source, stats)
            while True:
                idx = self.open("fimi.parse")
                try:
                    t = next(it)
                except StopIteration:
                    self.counts["fimi.lines"] += stats.lines
                    return
                finally:
                    self.close(idx)
                yield t

        self._undo.append((fimi, "parse_fimi", orig))
        fimi.parse_fimi = parse_fimi

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._undo):
            setattr(owner, attr, orig)
        self._undo.clear()

    def layer_seconds(self) -> Counter:
        """Self time per layer: each span minus the spans directly inside it."""
        inner = [0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                inner[parent] += end - start
        out: Counter = Counter()
        for idx, (layer, start, end, _) in enumerate(self.spans):
            out[layer] += (end - start - inner[idx]) / 1e9
        return out

    def metrics(self, entries_in: int) -> tuple[dict, dict]:
        """Per-layer metric values, plus the missing entry points of each
        layer that was never called (its metrics are None)."""
        secs = self.layer_seconds()
        c = self.counts
        values = {
            "table.update_s": secs["table.update"],
            "table.intersections": c["table.intersections"],
            "table.visits": c["table.visits"],
            "table.prune_ratio": c["table.intersections"] / max(1, c["table.prune_base"]),
            "table.evict_s": secs["table.evict"],
            "table.evictions_size": c["table.evictions_size"],
            "table.evictions_epsilon": c["table.evictions_epsilon"],
            "table.peak_size_max": c["table.peak_size_max"],
            "engine.step_self_s": secs["engine.step"],
            "engine.query_s": secs["engine.query"],
            "engine.queries": c["engine.queries"],
            "compress.s": secs["compress"],
            "compress.entries_in": entries_in,
            "compress.absorbed": entries_in - self.finish_out,
            "fimi.parse_s": secs["fimi.parse"],
            "fimi.lines": c["fimi.lines"],
            "fimi.write_s": secs["fimi.write"],
            "fimi.rows_written": c["fimi.rows_written"],
            "cli.self_s": secs["cli"],
        }
        missing = {
            layer: list(entries)
            for layer, entries in LAYER_ENTRIES.items()
            if not any(self.calls[e] for e in entries)
        }
        for name, layer in METRICS.items():
            if layer in missing:
                values[name] = None
        return values, missing
