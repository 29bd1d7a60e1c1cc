import pytest
from hypothesis import given
from hypothesis import strategies as st

from parasol import Entry, Transaction, WeepingTree, itemset
from parasol.oracle import enumerate_fis, intersect, is_delta_covered
from parasol.table import EntryTable

from helpers import CHAIN5

itemsets = st.frozensets(st.integers(0, 40), max_size=8).map(lambda s: tuple(sorted(s)))


def test_itemset_canonicalizes():
    assert itemset([5, 3, 3, 4, 2]) == (2, 3, 4, 5)
    assert itemset([0]) == (0,)
    assert itemset([]) == ()


def test_itemset_rejects_negative():
    with pytest.raises(ValueError):
        itemset([1, -2])


@pytest.mark.parametrize("items", [[0.5, 2], [True], ["a"], ["a", 1]], ids=repr)
def test_itemset_rejects_items_that_are_not_ints(items):
    with pytest.raises(ValueError):
        itemset(items)


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
    assert is_delta_covered(a, 0, b, 0, 0) == (set(a) <= set(b))


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
    # every item must be an int itself: not a float, a bool or a str
    for items in ((2, 1), (1, 1), (-1, 2), [1, 2], (0.5, 2), (True,), (1, False), ("a", "b")):
        with pytest.raises(ValueError):
            Transaction(items, 1)


def test_stores_reject_non_canonical_itemsets():
    for items in ((2, 1), (-1, 2), [1, 2], (0.5, 2), (True,), ("a", "b")):
        table = EntryTable()
        with pytest.raises(ValueError):
            table.update(items, 0, 1)
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


def test_chain5_supports_are_as_pinned():
    fis = enumerate_fis(CHAIN5, 0.0)
    assert fis[(1,)] == 5
    assert fis[(1, 2)] == 4
    assert fis[(1, 2, 3)] == 4
    assert fis[(1, 2, 3, 4)] == 3
