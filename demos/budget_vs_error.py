#!/usr/bin/env python3
"""Sweep the entry budget k and watch the error trade-off.

Smaller tables evict more, so the maximum error delta grows as k
shrinks; with an unbounded budget the engine is exact (delta stays 0
and the table holds precisely the closed itemsets). The exact run is
cross-checked against the brute-force reference.
"""

import math
import random

from parasol import StreamState, enumerate_closed, process_transaction, random_stream

N, UNIVERSE, MAXLEN = 200, 10, 6
stream = random_stream(random.Random(77), N, UNIVERSE, MAXLEN)

print(f"stream: n={N}, universe={UNIVERSE}, max length {MAXLEN}\n")
print(f"{'k':>10} {'entries':>8} {'delta':>6} {'delta/n':>8}")
for k in (8, 16, 32, 64, 128, math.inf):
    state = StreamState(k=k)
    for t in stream:
        process_transaction(state, t)
    label = "unbounded" if k == math.inf else str(k)
    print(f"{label:>10} {len(state.table):>8} {state.delta:>6} {state.delta / N:>8.3f}")

exact = StreamState()
for t in stream:
    process_transaction(exact, t)
closed = enumerate_closed(stream)
mined = {e.alpha: e.count for e in exact.snapshot()}
assert mined == closed, "unbounded run must equal the closed-itemset reference"
print(f"\nunbounded run reproduces all {len(closed)} closed itemsets exactly")
