"""The benchmark's workloads: seeded generators, exact configurations, and
the map from each per-layer metric to the end-to-end metric it should move.

Every workload is a closed loop with one client: the next transaction is
fed only when the previous `process_transaction` call has returned. The
program only ever sees the FIMI file a generator writes; the seed stays on
the benchmark's side.
"""

from __future__ import annotations

import bisect
import random

RETAIL_ALPHABET = 16_470


def retail_stream(seed: int, n: int) -> list[list[int]]:
    """Zipf(s=1) items over a 16,470-id alphabet, lengths 1 + Exp(mean 10) capped at 60.

    Ranks map to ids through a seeded permutation, so an item's id says
    nothing about its frequency, as in a real retail basket file.
    """
    rng = random.Random(seed)
    ids = list(range(RETAIL_ALPHABET))
    rng.shuffle(ids)
    cum: list[float] = []
    total = 0.0
    for rank in range(1, RETAIL_ALPHABET + 1):
        total += 1.0 / rank
        cum.append(total)
    out = []
    for _ in range(n):
        length = min(60, 1 + int(rng.expovariate(0.1)))
        items: set[int] = set()
        while len(items) < length:
            items.add(ids[bisect.bisect_left(cum, rng.random() * total)])
        out.append(sorted(items))
    return out


def dense_stream(seed: int, n: int) -> list[list[int]]:
    """12-item alphabet, uniform 5-10 distinct items per transaction."""
    rng = random.Random(seed)
    return [sorted(rng.sample(range(12), rng.randint(5, 10))) for _ in range(n)]


def drift_stream(seed: int, calm_len: int, burst_len: int, tail_len: int) -> list[list[int]]:
    """`parasol.synth.burst_stream`: calm, a flood of long overlapping baskets, calm."""
    from parasol.synth import burst_stream

    stream = burst_stream(seed, calm_len=calm_len, burst_len=burst_len, tail_len=tail_len)
    return [list(t.items) for t in stream]


GENERATORS = {"retail": retail_stream, "dense": dense_stream, "drift": drift_stream}

# `size` is the timed replay; `reduced` is the input of the cross-backend
# check. `cli` workloads run `parasol.cli.main` with `args` plus --input,
# --out and --summary-json; `library` workloads run the README quick start
# with an anytime `query` after every `read_every`-th transaction and
# `compress_two_step` at the end.
WORKLOADS: dict[str, dict] = {
    "retail": {
        "why": "the README's canonical CLI use on a wide retail-like alphabet: "
        "the flat sweep and delta-compression carry the time, the tree is idle",
        "generator": "perfbench.workloads.retail_stream(seed, n)",
        "size": {"n": 6000},
        "reduced": {"n": 600},
        "runner": "cli",
        "args": [
            "--mode", "parasol", "--epsilon", "0.005", "--k", "400",
            "--backend", "flat", "--compress", "flat", "--sigma", "0.04",
            "--metrics", "{work}/metrics.csv", "--stride", "100",
        ],
        "k": 400, "epsilon": 0.005, "sigma": 0.04, "backend": "flat",
    },
    "dense": {
        "why": "the paper's claim for the weeping tree: ~4,000 nested closed sets "
        "under a budget that never binds, where update work is nearly all the time",
        "generator": "perfbench.workloads.dense_stream(seed, n)",
        "size": {"n": 1200},
        "reduced": {"n": 200},
        "runner": "cli",
        "args": [
            "--mode", "parasol", "--epsilon", "0.005", "--k", "5000",
            "--backend", "wtree", "--compress", "off", "--sigma", "0.01",
        ],
        "k": 5000, "epsilon": 0.005, "sigma": 0.01, "backend": "wtree",
    },
    "drift": {
        "why": "a burst that forces size-driven eviction, then recovery, with "
        "anytime reads beside writes on the longest stream",
        "generator": "parasol.synth.burst_stream(seed, calm_len, burst_len, tail_len)",
        "size": {"calm_len": 1600, "burst_len": 60, "tail_len": 8800},
        "reduced": {"calm_len": 160, "burst_len": 60, "tail_len": 280},
        "runner": "library",
        "read_every": 10,
        "k": 400, "epsilon": 0.015, "sigma": 0.02, "backend": "wtree",
    },
}

# Per-layer metric -> (end-to-end metrics it should move, workloads where it
# should move them, workloads where it should not). `table.*` is the entry
# store of the workload's backend: `engine.intersect_step` and
# `rc_delete`/`parasol_delete` on flat (retail), `WeepingTree.update` and
# `delete_minima` on wtree (dense, drift).
LAYER_MAP: dict[str, tuple[list[str], list[str], list[str]]] = {
    "table.update_s": (["throughput_tps", "step_p50_us"], ["retail", "dense", "drift"], []),
    "table.intersections": (["throughput_tps", "step_p50_us"], ["retail", "dense", "drift"], []),
    "table.visits": (["throughput_tps"], ["dense", "drift"], ["retail"]),
    "table.prune_ratio": (["throughput_tps"], ["dense", "drift"], ["retail"]),
    "table.evict_s": (["step_p99_us", "step_p50_us"], ["retail", "drift"], ["dense"]),
    "table.evictions_size": (["step_p99_us", "error_ratio"], ["retail", "drift"], ["dense"]),
    "table.evictions_epsilon": (["step_p50_us"], ["dense", "drift"], []),
    "table.peak_size_max": (["step_p99_us", "peak_rss_mb"], ["retail", "drift"], []),
    "engine.step_self_s": (["step_p50_us"], ["retail", "dense", "drift"], []),
    "engine.bytes_per_txn": (["peak_rss_mb"], ["drift", "retail"], []),
    "engine.query_s": (["wall_s"], ["drift"], ["retail", "dense"]),
    "engine.queries": (["wall_s"], ["drift"], ["retail", "dense"]),
    "compress.s": (["wall_s"], ["retail"], ["dense", "drift"]),
    "compress.entries_in": (["wall_s"], ["retail"], ["dense", "drift"]),
    "compress.absorbed": (["result_rows"], ["retail", "drift"], ["dense"]),
    "fimi.parse_s": (["throughput_tps", "wall_s"], ["retail"], []),
    "fimi.lines": (["throughput_tps"], [], ["retail", "dense", "drift"]),
    "fimi.write_s": (["wall_s"], ["dense"], []),
    "fimi.rows_written": (["wall_s", "result_rows"], ["dense"], []),
    "cli.self_s": (["wall_s"], [], ["retail", "dense", "drift"]),
    "trace.overhead_s": (["wall_s"], [], ["retail", "dense", "drift"]),
}


# A run replays several inputs of one workload, so that its medians average
# over inputs as well as over replays: one input's step latencies depend on
# how early its table fills up, and that alone spreads by 12% from seed to
# seed on `dense`. Input `part` of seed `seed` comes from the generator's
# seed argument `seed * PARTS + part`.
PARTS = 1000


def generate(name: str, seed: int, size: dict | None = None, part: int = 0) -> list[list[int]]:
    """Input `part` of the workload at this seed; the same seed and part give the same list."""
    if not 0 <= part < PARTS:
        raise ValueError(f"part {part} is outside [0, {PARTS})")
    spec = WORKLOADS[name]
    return GENERATORS[name](seed * PARTS + part, **(size or spec["size"]))


def write_fimi(transactions: list[list[int]], path: str) -> None:
    """The benchmark's own writer, so the input bytes never depend on the program."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(" ".join(map(str, items)) + "\n" for items in transactions)
