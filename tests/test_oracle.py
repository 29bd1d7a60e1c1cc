import random

from parasol import Transaction, random_stream, replay
from parasol.oracle import (
    enumerate_closed,
    enumerate_delta_closed,
    enumerate_fis,
    true_support,
    verify_delta_covered_set,
)

from helpers import CHAIN5, DROP_ONE, DROP_ONE_PLUS, MaskModel, random_streams


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


def test_enumeration_matches_the_mask_model():
    # every itemset's support from the exhaustive bitmask model, at
    # thresholds from every itemset with support > 0 up to sigma = 1
    for s in range(40):
        rng = random.Random(900 + s)
        stream = random_stream(rng, rng.randint(1, 40), rng.randint(1, 12), 6)
        model = MaskModel(stream)
        for sigma in (0.0, 0.05, 0.1, 0.25, 0.5, 1.0):
            fis = {model.mask(a): sup for a, sup in enumerate_fis(stream, sigma).items()}
            assert fis == {m: model.sup[m] for m in model.fis(sigma)}, (s, sigma)
            for delta in (0, 1, 2, 4):
                got = {model.mask(a) for a in enumerate_delta_closed(stream, delta, sigma)}
                assert got == set(model.delta_closed(delta, sigma)), (s, sigma, delta)


def test_enumeration_takes_a_wide_alphabet():
    stream = [Transaction(tuple(range(25)), 1), Transaction((3, 24, 10**9), 2)]
    # 26 items: a power set would hold 2**26 itemsets
    assert enumerate_fis(stream, 0.5) == {(3,): 2, (24,): 2, (3, 24): 2}
    assert enumerate_delta_closed(stream, 0, 0.5) == {(3, 24)}
    # at delta 1 the infrequent (3, 24, 10**9), of support 1, is within reach
    assert enumerate_delta_closed(stream, 1, 0.5) == set()


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


def test_covered_set_pinned_chain():
    # CHAIN5's closed sets {1}:5 {1,2,3}:4 {1,2,3,4}:3 cover every itemset;
    # dropping the smaller ones needs delta = the support gap
    q0 = [(1,), (1, 2, 3), (1, 2, 3, 4)]
    q1 = [(1, 2, 3), (1, 2, 3, 4)]
    q2 = [(1, 2, 3, 4)]
    assert verify_delta_covered_set(q0, CHAIN5, 0.0, 0)
    assert verify_delta_covered_set(q1, CHAIN5, 0.0, 1)
    assert verify_delta_covered_set(q2, CHAIN5, 0.0, 2)
    assert not verify_delta_covered_set(q2, CHAIN5, 0.0, 1)
    assert not verify_delta_covered_set(q1, CHAIN5, 0.0, 0)
    assert verify_delta_covered_set([(1,), (1, 2), *q1], CHAIN5, 0.0, 0)


def test_closed_sets_zero_cover_all_frequent_itemsets():
    # lossless compression: the closed family 0-covers every itemset
    for _, stream in random_streams(25, base_seed=400, max_n=10, max_universe=6):
        assert verify_delta_covered_set(list(enumerate_closed(stream)), stream, 0.0, 0)
