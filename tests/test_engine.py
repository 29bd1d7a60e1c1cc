import math
import random

import pytest

import parasol.table
from parasol import (
    Entry,
    StreamState,
    TimestampGap,
    Transaction,
    intersect_step,
    parasol_delete,
    process_transaction,
    query,
    random_stream,
    rc_delete,
    replay,
)
from parasol.engine import answer
from parasol.oracle import enumerate_closed, verify_delta_covered_set
from parasol.table import EntryTable

from helpers import DROP_ONE, DROP_ONE_PLUS, as_dict, random_streams, sparse


def table_of(rows):
    """rows: (alpha, count, err, birth, own)"""
    t = EntryTable()
    for alpha, count, err, birth, own in rows:
        t.insert(alpha, count, err, birth, own)
    return t


class TestIntersectStep:
    def test_first_transaction(self):
        t = EntryTable()
        assert intersect_step(t, Transaction((1, 2), 1), 0) == (1, 1)
        assert as_dict(t.snapshot()) == {(1, 2): (1, 0)}

    def test_no_eviction_replay_counts_closed_sets(self):
        state = StreamState()
        sizes = []
        for t in DROP_ONE:
            process_transaction(state, t)
            sizes.append(len(state.table))
        assert sizes == [1, 3, 7, 15]

    def test_worked_fifth_step(self):
        t = table_of(
            [
                ((2, 5), 3, 0, 4, False),
                ((1, 5), 3, 0, 4, False),
                ((5,), 4, 0, 4, False),
            ]
        )
        # the fresh (1, 3, 5) joins the sweep: four entries visited and intersected
        assert intersect_step(t, Transaction((1, 3, 5), 5), 3) == (4, 4)
        assert as_dict(t.snapshot()) == {
            (5,): (5, 0),
            (1, 5): (4, 0),
            (2, 5): (3, 0),
            (1, 3, 5): (4, 3),
        }

    def test_result_size_bound(self):
        for _, stream in random_streams(40, base_seed=7):
            t = EntryTable()
            delta = 0
            for tr in stream:
                before = len(t)
                intersect_step(t, tr, delta)
                assert len(t) <= 2 * before + 1

    def test_candidate_merge_is_iteration_order_independent(self):
        # same records inserted in different orders must give the same result
        rng = random.Random(99)
        for _, stream in random_streams(30, base_seed=321):
            base = replay(stream, k=4).table
            rows = [
                (alpha, rec.count, rec.err, rec.birth, rec.own == 0)
                for alpha, rec in base._index.items()
            ]
            nxt = Transaction(stream[rng.randrange(len(stream))].items, 99)
            nxt = Transaction(nxt.items, len(stream) + 1)
            outputs = []
            for _ in range(4):
                rng.shuffle(rows)
                t = table_of(rows)
                intersect_step(t, nxt, 2)
                outputs.append(as_dict(t.snapshot()))
            assert all(o == outputs[0] for o in outputs)

    def test_repeated_transaction_reuses_entry(self):
        t = EntryTable()
        intersect_step(t, Transaction((1, 2), 1), 0)
        assert intersect_step(t, Transaction((1, 2), 2), 0) == (1, 1)
        assert as_dict(t.snapshot()) == {(1, 2): (2, 0)}


class TestDeletion:
    def test_rc_delete_trims_to_k_and_reports_delta(self):
        state = StreamState()
        for t in DROP_ONE[:3]:
            process_transaction(state, t)
        table, delta = rc_delete(state.table, 3, state.delta)
        assert len(table) == 3
        assert delta == 2
        assert as_dict(table.snapshot()) == {
            (2, 4, 5): (2, 0),
            (1, 4, 5): (2, 0),
            (4, 5): (3, 0),
        }

    def test_rc_delete_noop_below_k(self):
        t = table_of([((1,), 3, 0, 1, False)])
        _, delta = rc_delete(t, 5, 1)
        assert len(t) == 1 and delta == 1

    def test_worked_fifth_step_deletes_unique_minimum(self):
        t = table_of(
            [
                ((2, 5), 3, 0, 4, False),
                ((1, 5), 3, 0, 4, False),
                ((5,), 4, 0, 4, False),
            ]
        )
        intersect_step(t, Transaction((1, 3, 5), 5), 3)
        _, delta = rc_delete(t, 3, 3)
        assert delta == 3
        assert as_dict(t.snapshot()) == {
            (5,): (5, 0),
            (1, 5): (4, 0),
            (1, 3, 5): (4, 3),
        }

    def test_parasol_delete_sweeps_low_counts(self):
        state = StreamState()
        for t in DROP_ONE:
            process_transaction(state, t)
        assert len(state.table) == 15
        _, delta = parasol_delete(state.table, 15, 0.25, 4, state.delta)
        assert delta == 1
        assert len(state.table) == 11
        assert all(e.count >= 2 for e in state.table.snapshot())

    def test_parasol_delete_pure_rc_when_epsilon_zero(self):
        t = table_of([((1,), 1, 0, 1, False), ((2,), 2, 0, 2, False)])
        _, delta = parasol_delete(t, 5, 0.0, 9, 0)
        assert len(t) == 2 and delta == 0  # counts >= 1 > 0

    @pytest.mark.parametrize("backend", ["flat", "wtree"])
    def test_flat_key_heap_stays_bounded(self, backend):
        # the flat heap holds exactly one key per entry, the tree's holds
        # only root children, and an update leaves at most 2k + 1 entries,
        # so either heap is O(k) however long the stream runs
        k = 50
        state = StreamState(k=k, backend=backend)
        for t in random_stream(random.Random(5), 3000, 10, 6):
            process_transaction(state, t)
            assert len(state.table._heap) <= 4 * (2 * k + 1) + 64
            if backend == "flat":
                assert len(state.table._heap) == len(state.table)

    def test_raised_count_is_rekeyed_before_eviction(self):
        # (1,) is keyed at count 1 and two hits raise it to 3 without a
        # new key, so its key lags and (2,) is the true minimum
        t = table_of(
            [
                ((1,), 1, 0, 1, False),
                ((2,), 2, 0, 2, False),
                ((3,), 5, 0, 3, False),
            ]
        )
        for ts in (4, 5):
            intersect_step(t, Transaction((1,), ts), 0)
        assert len(t._heap) == len(t) == 3
        _, delta = rc_delete(t, 2, 0)
        assert as_dict(t.snapshot()) == {(1,): (3, 0), (3,): (5, 0)} and delta == 2
        # the re-keyed entry is evicted next, and delta takes its current count
        _, delta = rc_delete(t, 1, delta)
        assert as_dict(t.snapshot()) == {(3,): (5, 0)} and delta == 3

    def test_min_extraction_prefers_oldest(self):
        t = table_of(
            [
                ((7,), 1, 0, 3, False),
                ((8,), 1, 0, 1, False),
                ((9,), 1, 0, 2, False),
            ]
        )
        rc_delete(t, 2, 0)
        assert [e.alpha for e in t.snapshot()] == [(9,), (7,)]
        rc_delete(t, 1, 0)
        assert [e.alpha for e in t.snapshot()] == [(7,)]

    def test_min_extraction_prefers_transaction_entry_within_step(self):
        t = table_of(
            [
                ((1, 2), 3, 0, 4, False),
                ((1, 2, 3), 3, 2, 4, True),
            ]
        )
        # (1, 2) sorts first, so only the own-first bit picks (1, 2, 3)
        _, delta = rc_delete(t, 1, 0)
        assert [e.alpha for e in t.snapshot()] == [(1, 2)] and delta == 3


class TestProcessTransaction:
    def test_single_transaction(self):
        state = StreamState(k=8)
        process_transaction(state, Transaction((3, 4), 1))
        assert state.i == 1 and state.delta == 0
        assert [(s.i, s.post_size, s.delta) for s in state.steps] == [(1, 1, 0)]

    def test_timestamp_gap_rejected(self):
        state = StreamState()
        process_transaction(state, Transaction((1,), 1))
        with pytest.raises(TimestampGap):
            process_transaction(state, Transaction((2,), 3))

    def test_worked_replay_rc_mode(self):
        state = replay(DROP_ONE_PLUS, k=3)
        assert state.delta == 3
        assert as_dict(state.snapshot()) == {
            (5,): (5, 0),
            (1, 5): (4, 0),
            (1, 3, 5): (4, 3),
        }

    def test_fresh_entry_inherits_running_error(self):
        # after three steps at k=3 the error is 2; the fourth transaction's
        # entry must enter as (2, 2) and leave the sweep at (3, 2)
        state = replay(DROP_ONE[:3], k=3)
        t4 = DROP_ONE[3]
        intersect_step(state.table, t4, state.delta)
        e = state.table.get(t4.items)
        assert (e.count, e.err) == (3, 2)

    def test_exact_mode_equals_closed_oracle(self):
        # sparse ids put item 0 in nearly every stream: an overlap
        # that drops it shows here, without the tree to compare against
        for _, low_ids in random_streams(30, base_seed=11):
            for stream in (low_ids, sparse(low_ids)):
                state = replay(stream)
                closed = enumerate_closed(stream)
                snap = as_dict(state.snapshot())
                assert {a: c for a, (c, _) in snap.items()} == closed
                assert all(err == 0 for _, err in snap.values())

    def test_delta_never_decreases_and_size_bounded(self):
        for _, stream in random_streams(25, base_seed=5):
            state = StreamState(k=3)
            last = 0
            for t in stream:
                process_transaction(state, t)
                assert state.delta >= last
                assert len(state.table) <= 3
                last = state.delta

    def test_pc_only_mode_bounds_error_ratio(self):
        for _, stream in random_streams(20, base_seed=77):
            state = StreamState(epsilon=0.1)
            for t in stream:
                process_transaction(state, t)
                assert state.delta <= 0.1 * state.i

    def test_supported_itemsets_keep_a_representative(self):
        # anything with true support above delta must still have a stored
        # superset, and that superset's count bounds the support
        from itertools import combinations

        from parasol.oracle import true_support

        for _, stream in random_streams(30, base_seed=88):
            state = replay(stream, k=4)
            entries = state.snapshot()
            universe = sorted({x for t in stream for x in t.items})
            for r in range(1, min(4, len(universe)) + 1):
                for alpha in combinations(universe, r):
                    s = true_support(stream, alpha)
                    if s <= state.delta:
                        continue
                    reps = [e for e in entries if set(alpha) <= set(e.alpha)]
                    assert reps, (alpha, s, state.delta)
                    assert max(e.count for e in reps) >= s


class TestQuery:
    def test_query_returns_representative_cover(self):
        state = replay(DROP_ONE_PLUS, k=3)
        res = query(state, 0.6)
        assert ((1, 3, 5), 4, 3) in [(e.alpha, e.count, e.err) for e in res.entries]
        assert not res.weak_guarantee  # delta=3 <= 0.6*5
        assert verify_delta_covered_set(res.entries, DROP_ONE_PLUS, 0.6, state.delta)

    def test_query_sigma_one_is_empty(self):
        state = replay(DROP_ONE_PLUS, k=3)
        assert query(state, 1.0).entries == []

    def test_weak_guarantee_flag(self):
        state = replay(DROP_ONE_PLUS, k=3)
        assert query(state, 0.5).weak_guarantee  # delta=3 > 2.5
        assert not query(state, 0.6).weak_guarantee

    def test_query_rejects_bad_sigma(self):
        state = StreamState()
        with pytest.raises(ValueError):
            query(state, 1.5)

    @pytest.mark.parametrize("backend", ["flat", "wtree"])
    def test_query_equals_answer_over_the_full_snapshot(self, backend):
        # the filtered read keeps the entries, order and flag of the full one
        on_a_count = 0
        for seed, stream in random_streams(40, base_seed=900, max_n=30):
            state = StreamState(k=(2, 4, math.inf)[seed % 3], epsilon=0.1, backend=backend)
            for t in stream:
                process_transaction(state, t)
                i = state.i
                # sigma * i equal to a stored count pins count > threshold, not >=
                exact = [c / i for c in {e.count for e in state.snapshot()} if c <= i and c / i * i == c]
                on_a_count += len(exact)
                for sigma in [0.0, 0.3, 1.0] + exact:
                    got = query(state, sigma)
                    assert got == answer(state.snapshot(), sigma, i, state.delta), (seed, i, sigma)
                    assert state.table.snapshot(sigma * i) == got.entries, (seed, i, sigma)
        assert on_a_count > 100

    @pytest.mark.parametrize("backend", ["flat", "wtree"])
    def test_query_builds_only_the_entries_it_returns(self, backend, monkeypatch):
        state = StreamState(k=20, epsilon=0.05, backend=backend)
        for t in random_stream(random.Random(3), 60, 8, 5):
            process_transaction(state, t)
        counts = sorted({e.count for e in state.snapshot()})
        sigma = counts[len(counts) // 2] / state.i  # the threshold is a stored count
        assert sigma * state.i == counts[len(counts) // 2]
        built = []

        def counting_entry(*args):
            built.append(args)
            return Entry(*args)

        monkeypatch.setattr(parasol.table, "Entry", counting_entry)
        res = query(state, sigma)
        assert 0 < len(res.entries) < len(state.table)
        assert len(built) == len(res.entries)


class TestWorkAccounting:
    def test_step_stats_bounds(self):
        k = 3
        for _, stream in random_streams(25, base_seed=42):
            state = StreamState(k=k)
            for t in stream:
                process_transaction(state, t)
            for s in state.steps:
                assert s.intersections <= s.pre_size + 1
                assert s.peak_size <= 2 * k + 1
                assert s.post_size <= k

    def test_unbounded_state_validation(self):
        with pytest.raises(ValueError):
            StreamState(k=0)
        with pytest.raises(ValueError):
            StreamState(epsilon=1.0)
        assert StreamState(k=math.inf).k == math.inf
        # a state starts empty; i, delta, table and steps only advance
        for name in ("i", "delta", "table", "steps"):
            with pytest.raises(TypeError):
                StreamState(**{name: 5})
