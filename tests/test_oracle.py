import pytest

from parasol import Transaction, UniverseTooLarge, replay
from parasol.oracle import (
    enumerate_closed,
    enumerate_delta_closed,
    enumerate_fis,
    true_support,
    verify_delta_covered_set,
)

from helpers import CHAIN5, DROP_ONE, DROP_ONE_PLUS, random_streams


def test_true_support_worked_values():
    assert true_support(DROP_ONE_PLUS, (5,)) == 5
    assert true_support(DROP_ONE_PLUS, (3, 5)) == 4
    assert true_support(DROP_ONE_PLUS, (1, 3, 5)) == 3
    assert true_support(DROP_ONE_PLUS, (9,)) == 0


def test_true_support_single_occurrence():
    stream = [Transaction((1, 2), 1), Transaction((7, 8), 2)]
    assert true_support(stream, (7, 8)) == 1


def test_enumerate_fis_worked_threshold():
    fis = enumerate_fis(DROP_ONE_PLUS, 0.6)
    assert set(fis) == {(1,), (3,), (5,), (1, 5), (3, 5)}
    for alpha, s in fis.items():
        assert s == true_support(DROP_ONE_PLUS, alpha)


def test_enumerate_fis_sigma_one_is_empty():
    assert enumerate_fis(DROP_ONE_PLUS, 1.0) == {}


def test_enumerate_fis_guards_universe():
    stream = [Transaction(tuple(range(25)), 1)]
    with pytest.raises(UniverseTooLarge):
        enumerate_fis(stream, 0.0)


def test_enumerate_closed_counts():
    assert len(enumerate_closed(DROP_ONE[:1])) == 1
    assert len(enumerate_closed(DROP_ONE[:2])) == 3
    assert len(enumerate_closed(DROP_ONE[:3])) == 7
    assert len(enumerate_closed(DROP_ONE)) == 15


def test_enumerate_closed_single_transaction():
    assert enumerate_closed([Transaction((2, 4), 1)]) == {(2, 4): 1}


def test_closed_matches_classical_definition():
    # closed <=> no proper superset with equal support
    for _, stream in random_streams(25, base_seed=71, max_n=9, max_universe=6):
        closed = enumerate_closed(stream)
        everything = enumerate_fis(stream, 0.0)
        for alpha, s in everything.items():
            has_equal_superset = any(
                s2 == s and len(beta) > len(alpha) and set(alpha) <= set(beta)
                for beta, s2 in everything.items()
            )
            assert (alpha in closed) == (not has_equal_superset)


def test_delta_closed_pinned_chain():
    # supports 5,4,4,3 along {1} < {1,2} < {1,2,3} < {1,2,3,4}: each of the
    # first three has a superset within distance one, the top does not
    assert enumerate_delta_closed(CHAIN5, 1, 0.5) == {(1, 2, 3, 4)}


def test_delta_closed_zero_is_closed():
    for _, stream in random_streams(20, base_seed=37, max_n=9, max_universe=6):
        assert enumerate_delta_closed(stream, 0, 0.0) == set(enumerate_closed(stream))


def test_delta_closed_antitone_in_delta():
    for _, stream in random_streams(20, base_seed=41, max_n=9, max_universe=6):
        prev = None
        for delta in (0, 1, 2, 3):
            cur = enumerate_delta_closed(stream, delta, 0.0)
            if prev is not None:
                assert cur <= prev
            prev = cur


def test_delta_closed_contained_in_engine_output():
    for _, stream in random_streams(25, base_seed=43):
        state = replay(stream, k=5)
        n = len(stream)
        sigma = 0.5 if state.delta <= 0.5 * n else min(1.0, (state.delta + 1) / n)
        if state.delta > sigma * n:
            continue
        from parasol.engine import query

        out = {e.alpha for e in query(state, sigma).entries}
        assert enumerate_delta_closed(stream, state.delta, sigma) <= out


def test_verify_delta_covered_set():
    state = replay(DROP_ONE_PLUS, k=3)
    from parasol.engine import query

    res = query(state, 0.6)
    assert verify_delta_covered_set(res.entries, DROP_ONE_PLUS, 0.6, 3)
    # the family of frequent itemsets trivially 0-covers itself
    fis = list(enumerate_fis(DROP_ONE_PLUS, 0.6))
    assert verify_delta_covered_set(fis, DROP_ONE_PLUS, 0.6, 0)
    # a summary missing the top singleton fails at delta 0
    assert not verify_delta_covered_set([(1, 5)], DROP_ONE_PLUS, 0.6, 0)
