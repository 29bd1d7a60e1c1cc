from parasol import Entry, compress_two_step, delta_compress, replay
from parasol.oracle import enumerate_closed, verify_delta_covered_set

from helpers import DROP_ONE, DROP_ONE_PLUS, as_dict, random_streams


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
    for _, stream in random_streams(40, base_seed=17):
        state = replay(stream, k=4)
        snap = state.snapshot()
        out = delta_compress(snap, state.delta)
        assert len(out) <= len(snap)
        n = len(stream)
        sigma = 0.5 if state.delta <= 0.5 * n else (state.delta + 1) / n
        if sigma <= 1 and state.delta <= sigma * n:
            assert verify_delta_covered_set(out, stream, sigma, state.delta)


def test_compressed_entries_keep_support_brackets():
    from parasol.oracle import true_support

    for _, stream in random_streams(30, base_seed=29):
        state = replay(stream, k=4)
        for e in delta_compress(state.snapshot(), state.delta):
            s = true_support(stream, e.alpha)
            assert e.count - e.err <= s <= e.count


def test_two_step_runs_scan_then_pairwise():
    state = replay(DROP_ONE, epsilon=0.25, k=15, backend="wtree")
    out = compress_two_step(state.table, state.delta)
    # the linear pass removed the four coverable children; the pairwise
    # phase found nothing further on this input
    assert len(out) == 7
    got = as_dict(out)
    assert got[(4, 5)] == (4, 1)
    assert (5,) not in got and (1, 5) not in got


def test_two_step_identity_when_nothing_qualifies():
    state = replay(DROP_ONE, backend="wtree")
    before = as_dict(state.snapshot())
    out = compress_two_step(state.table, 0)
    # exact replay: closed itemsets with exact counts, nothing coverable
    # except equal-count subset pairs, which this stream does not have
    assert as_dict(out) == before


def test_two_step_sound_and_size_monotone():
    for _, stream in random_streams(40, base_seed=53):
        state = replay(stream, k=4, backend="wtree")
        size_before = len(state.table)
        out = compress_two_step(state.table, state.delta)
        assert len(out) <= size_before
        n = len(stream)
        sigma = 0.5 if state.delta <= 0.5 * n else (state.delta + 1) / n
        if sigma <= 1 and state.delta <= sigma * n:
            assert verify_delta_covered_set(out, stream, sigma, state.delta)


def test_prescan_removes_a_positive_fraction_on_dense_input():
    # dense, heavily nested tables give the linear parent-child pass
    # real work to do before the quadratic phase
    import random

    from parasol import Transaction, itemset

    rng = random.Random(2024)
    stream = [
        Transaction(itemset(rng.sample(range(1, 11), rng.randint(6, 9))), i)
        for i in range(1, 161)
    ]
    state = replay(stream, k=200, epsilon=0.05, backend="wtree")
    size_before = len(state.table)
    removed = state.table.precompress_scan(state.delta)
    assert len(removed) > 0
    assert len(state.table) == size_before - len(removed)
    out = delta_compress(state.table.snapshot(), state.delta)
    assert len(out) <= size_before - len(removed)


def test_worked_stream_end_to_end():
    state = replay(DROP_ONE_PLUS, k=3)
    out = delta_compress(state.snapshot(), state.delta)
    assert as_dict(out) == {(1, 5): (5, 1), (1, 3, 5): (4, 3)}
