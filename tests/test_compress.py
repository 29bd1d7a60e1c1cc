import itertools
import math
import random

from parasol import (
    Entry,
    StreamState,
    delta_compress,
    process_transaction,
    random_stream,
    replay,
)
from parasol.compress import compress_two_step
from parasol.engine import answer
from parasol.oracle import enumerate_closed, true_support, verify_delta_covered_set

from helpers import DROP_ONE, DROP_ONE_PLUS, as_dict, random_streams


SIGMAS = (0.1, 0.2, 0.3, 0.4, 0.5)


def covering_cases(count: int, base_seed: int):
    """(stream, k) pairs: `count` seeded streams of 20-80 transactions over
    6-12 items, each at k = 4, 6, 8 and 12. These are sizes at which an
    absorber that took a lower count broke covering in a few percent of
    the (stream, sigma) cases."""
    for s in range(count):
        rng = random.Random(base_seed + s)
        stream = random_stream(rng, rng.randint(20, 80), rng.randint(6, 12), rng.randint(3, 8))
        for k in (4, 6, 8, 12):
            yield stream, k


def check_compressed(out, stream, delta: int) -> None:
    """Every entry's bracket holds, and `out` delta-covers the frequent
    itemsets at each sigma of SIGMAS, and at (delta + 1) / n, for which
    delta <= sigma * n: both as it is and after the CLI's sigma filter."""
    n = len(stream)
    for e in out:
        assert e.count - e.err <= true_support(stream, e.alpha) <= e.count, e
    for sigma in (*SIGMAS, (delta + 1) / n):
        if delta <= sigma * n <= n:
            assert verify_delta_covered_set(out, stream, sigma, delta), (sigma, delta)
            written = answer(out, sigma, n, delta).entries
            assert verify_delta_covered_set(written, stream, sigma, delta), (sigma, delta)


def test_worked_example_absorbs_singleton():
    final = [Entry((1, 5), 4, 0), Entry((5,), 5, 0), Entry((1, 3, 5), 4, 3)]
    out = delta_compress(final, 3)
    assert as_dict(out) == {(1, 5): (5, 1), (1, 3, 5): (4, 3)}


def test_zero_delta_drops_exactly_non_closed_entries():
    # with delta 0 and exact counts only entries with an equal-count
    # superset disappear, i.e. the closed family survives
    for _, stream in random_streams(30, base_seed=91):
        state = replay(stream)  # exact
        out = delta_compress(state.snapshot(), 0)
        closed = enumerate_closed(stream)
        assert {e.alpha: e.count for e in out} == closed


def test_compression_is_size_monotone_and_sound():
    small = ((stream, 4) for _, stream in random_streams(40, base_seed=17))
    for stream, k in itertools.chain(small, covering_cases(100, base_seed=5_000)):
        state = replay(stream, k=k)
        snap = state.snapshot()
        out = delta_compress(snap, state.delta)
        assert len(out) <= len(snap)
        check_compressed(out, stream, state.delta)


def test_compressed_entries_keep_support_brackets():
    from parasol.oracle import true_support

    for _, stream in random_streams(30, base_seed=29):
        state = replay(stream, k=4)
        for e in delta_compress(state.snapshot(), state.delta):
            s = true_support(stream, e.alpha)
            assert e.count - e.err <= s <= e.count


def test_two_step_runs_scan_then_pairwise():
    # one compression route, whichever store was mined
    for backend in ("flat", "wtree"):
        state = replay(DROP_ONE, epsilon=0.25, k=15, backend=backend)
        out = compress_two_step(state.table, state.delta)
        assert out == delta_compress(state.snapshot(), state.delta)
        assert len(out) == 7


def test_two_step_identity_when_nothing_qualifies():
    # exact replay: closed itemsets with exact counts, nothing coverable
    # except equal-count subset pairs, which this stream does not have
    for backend in ("flat", "wtree"):
        state = replay(DROP_ONE, backend=backend)
        out = compress_two_step(state.table, 0)
        assert out == delta_compress(state.snapshot(), 0) == state.snapshot()


def test_two_step_sound_and_size_monotone():
    small = ((stream, 4) for _, stream in random_streams(40, base_seed=53))
    for stream, k in itertools.chain(small, covering_cases(100, base_seed=6_000)):
        state = replay(stream, k=k, backend="wtree")
        size_before = len(state.table)
        out = compress_two_step(state.table, state.delta)
        assert len(out) <= size_before
        check_compressed(out, stream, state.delta)


def test_two_step_leaves_a_continuing_stream_unchanged():
    # compressing mid-stream must not touch the tree: a tree compressed
    # every few steps stays equal to a flat store that never compressed
    rng = random.Random(61)
    for _, stream in random_streams(60, base_seed=1_300, max_n=20):
        for k, eps in ((4, 0.0), (10, 0.05), (math.inf, 0.0)):
            flat = StreamState(k=k, epsilon=eps, backend="flat")
            tree = StreamState(k=k, epsilon=eps, backend="wtree")
            every = rng.randint(2, 5)
            for t in stream:
                process_transaction(flat, t)
                process_transaction(tree, t)
                if t.timestamp % every == 0:
                    compress_two_step(tree.table, tree.delta)
                assert flat.delta == tree.delta, (k, eps, t.timestamp)
                assert flat.snapshot() == tree.snapshot(), (k, eps, t.timestamp)


def test_worked_stream_end_to_end():
    state = replay(DROP_ONE_PLUS, k=3)
    out = delta_compress(state.snapshot(), state.delta)
    assert as_dict(out) == {(1, 5): (5, 1), (1, 3, 5): (4, 3)}
