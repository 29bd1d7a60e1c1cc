import pytest
from hypothesis import given
from hypothesis import strategies as st

from parasol import (
    Entry,
    Transaction,
    WeepingTree,
    find_representative,
    intersect,
    is_delta_covered,
    is_delta_covered_set,
    is_subset,
    itemset,
)
from parasol.oracle import enumerate_closed, enumerate_fis
from parasol.table import EntryTable

from helpers import CHAIN5, random_streams

itemsets = st.frozensets(st.integers(0, 40), max_size=8).map(lambda s: tuple(sorted(s)))


def test_itemset_canonicalizes():
    assert itemset([5, 3, 3, 4, 2]) == (2, 3, 4, 5)
    assert itemset([0]) == (0,)
    assert itemset([]) == ()


def test_itemset_rejects_negative():
    with pytest.raises(ValueError):
        itemset([1, -2])


def test_intersect_examples():
    assert intersect((1, 3, 4, 5), (1, 2, 4, 5)) == (1, 4, 5)
    assert intersect((1, 2), (1, 2)) == (1, 2)
    assert intersect((1, 3), (2, 4)) == ()


@given(itemsets, itemsets)
def test_intersect_commutative(a, b):
    assert intersect(a, b) == intersect(b, a)


@given(itemsets, itemsets, itemsets)
def test_intersect_associative(a, b, c):
    assert intersect(intersect(a, b), c) == intersect(a, intersect(b, c))


@given(itemsets, itemsets)
def test_intersect_idempotent_and_bounded(a, b):
    assert intersect(a, a) == a
    assert len(intersect(a, b)) <= min(len(a), len(b))


@given(itemsets, itemsets)
def test_intersect_matches_set_semantics(a, b):
    assert set(intersect(a, b)) == set(a) & set(b)
    assert is_subset(a, b) == (set(a) <= set(b))


def test_entry_validation():
    with pytest.raises(ValueError):
        Entry((), 1, 0)
    with pytest.raises(ValueError):
        Entry((1,), 2, 3)  # err exceeds count
    e = Entry((1, 2), 4, 1)
    assert (e.alpha, e.count, e.err) == ((1, 2), 4, 1)


def test_transaction_validation():
    with pytest.raises(ValueError):
        Transaction((), 1)
    with pytest.raises(ValueError):
        Transaction((1,), 0)
    for items in ((2, 1), (1, 1), (-1, 2)):
        with pytest.raises(ValueError):
            Transaction(items, 1)


def test_stores_reject_non_canonical_itemsets():
    for items in ((2, 1), (-1, 2)):
        table = EntryTable()
        with pytest.raises(ValueError):
            table.insert(items, 1, 0, 1, True)
        tree = WeepingTree()
        with pytest.raises(ValueError):
            tree.update(items, 0, 1)
        assert len(table) == len(tree) == 0


def test_cover_pinned_chain():
    # supports pinned for CHAIN5: {1}:5 {1,2}:4 {1,2,3}:4 {1,2,3,4}:3
    assert is_delta_covered((1, 2, 3), 4, (1, 2, 3, 4), 3, 1)
    assert not is_delta_covered((1, 2, 3), 4, (1, 2, 3, 4), 3, 0)
    assert is_delta_covered((1, 2), 4, (1, 2), 4, 0)  # any itemset 0-covers itself
    assert is_delta_covered((3, 5), 4, (1, 3, 5), 3, 1)
    assert not is_delta_covered((1, 2), 4, (3, 4), 4, 9)  # never without inclusion


@given(st.integers(0, 5), st.integers(0, 10))
def test_cover_monotone_in_delta(delta, extra):
    sub, sup = (1, 2), (1, 2, 3)
    if is_delta_covered(sub, 7, sup, 5, delta):
        assert is_delta_covered(sub, 7, sup, 5, delta + extra)


def test_covered_set_pinned_chain():
    sup = {(1,): 5, (1, 2): 4, (1, 2, 3): 4, (1, 2, 3, 4): 3}
    family = list(sup)
    q0 = [(1,), (1, 2, 3), (1, 2, 3, 4)]
    q1 = [(1, 2, 3), (1, 2, 3, 4)]
    q2 = [(1, 2, 3, 4)]
    assert is_delta_covered_set(q0, family, sup.__getitem__, 0)
    assert is_delta_covered_set(q1, family, sup.__getitem__, 1)
    assert is_delta_covered_set(q2, family, sup.__getitem__, 2)
    assert not is_delta_covered_set(q2, family, sup.__getitem__, 1)
    assert is_delta_covered_set(family, family, sup.__getitem__, 0)


def test_chain5_supports_are_as_pinned():
    fis = enumerate_fis(CHAIN5, 0.0)
    assert fis[(1,)] == 5
    assert fis[(1, 2)] == 4
    assert fis[(1, 2, 3)] == 4
    assert fis[(1, 2, 3, 4)] == 3


def test_closed_sets_zero_cover_all_frequent_itemsets():
    # lossless compression: the closed family 0-covers every itemset
    for _, stream in random_streams(25, base_seed=400, max_n=10, max_universe=6):
        fis = enumerate_fis(stream, 0.0)
        closed = enumerate_closed(stream)
        support = {**fis, **closed}
        assert is_delta_covered_set(
            list(closed), list(fis), support.__getitem__, 0
        )


def test_find_representative():
    entries = [Entry((1, 2, 3), 5, 1), Entry((1, 2), 7, 0), Entry((4,), 9, 0)]
    rep = find_representative(entries, (1, 2))
    assert rep == Entry((1, 2), 7, 0)
    assert find_representative(entries, (1, 2, 3, 4)) is None
    # ties go to the earliest entry
    tied = [Entry((1, 2), 7, 0), Entry((1, 2, 9), 7, 3)]
    assert find_representative(tied, (1,)) == tied[0]
