import io

import pytest
from hypothesis import given
from hypothesis import strategies as st

from parasol import Entry, ParseError, ParseStats, Transaction, parse_fimi
from parasol.fimi import write_fimi, write_metrics, write_result


def parse_text(text, stats=None):
    return list(parse_fimi(io.StringIO(text), stats))


def test_parses_lines_in_order():
    got = parse_text("2 3 4 5\n1 3 4 5\n")
    assert got == [Transaction((2, 3, 4, 5), 1), Transaction((1, 3, 4, 5), 2)]


def test_dedup_and_sort():
    assert parse_text("5 3 3 4 2\n") == [Transaction((2, 3, 4, 5), 1)]


def test_blank_lines_skipped_and_counted():
    stats = ParseStats()
    got = parse_text("1 2\n\n   \n3\n", stats)
    assert [t.items for t in got] == [(1, 2), (3,)]
    assert [t.timestamp for t in got] == [1, 2]
    assert stats.skipped == 2


def test_non_integer_token_reports_line():
    # only runs of ASCII digits are items, whatever else int() would take
    for token in ("x", "\u0663", "\uff15", "1_000", "+5"):
        with pytest.raises(ParseError) as err:
            parse_text(f"1 2\n3 {token} 4\n")
        assert err.value.lineno == 2, token


def test_only_ascii_whitespace_separates_items():
    # str.split() would also split on these and mine (1, 2)
    for sep in ("\x1c", "\x1d", "\x1e", "\x1f", "\u00a0", "\u2003", "\u0085", "\u2028"):
        with pytest.raises(ParseError) as err:
            parse_text(f"1 2\n1{sep}2\n")
        assert err.value.lineno == 2, repr(sep)
    for sep in (" ", "\t", "\v", "\f", "\r"):
        assert parse_text(f"2{sep}1\n") == [Transaction((1, 2), 1)], repr(sep)


def test_negative_item_rejected():
    with pytest.raises(ParseError):
        parse_text("1 -4\n")


transactions_strategy = st.lists(
    st.frozensets(st.integers(0, 30), min_size=1, max_size=6),
    min_size=0,
    max_size=12,
)


@given(transactions_strategy)
def test_round_trip_is_fixpoint(raw):
    stream = [Transaction(tuple(sorted(s)), i + 1) for i, s in enumerate(raw)]
    buf = io.StringIO()
    write_fimi(stream, buf)
    again = parse_text(buf.getvalue())
    assert again == stream
    buf2 = io.StringIO()
    write_fimi(again, buf2)
    assert buf2.getvalue() == buf.getvalue()


def test_result_rows_sorted_desc_count_then_itemset():
    buf = io.StringIO()
    write_result([Entry((2, 5), 3, 0), Entry((1, 3, 5), 4, 3), Entry((1, 5), 4, 0)], buf)
    rows = buf.getvalue().splitlines()
    assert rows == ["1 3 5\t4\t3", "1 5\t4\t0", "2 5\t3\t0"]
    buf = io.StringIO()
    assert write_result([Entry((9,), 1, 0)], buf) == 1
    assert buf.getvalue() == "9\t1\t0\n"


def test_metrics_rows_and_final_sample():
    buf = io.StringIO()
    write_metrics([(1, 1, 0)], buf)
    assert buf.getvalue().splitlines() == ["i,k_i,delta_i,error_ratio", "1,1,0,0"]

    buf = io.StringIO()
    samples = [(i, 3, 3) for i in range(1, 6)]
    write_metrics(samples, buf, stride=1)
    assert buf.getvalue().splitlines()[-1] == "5,3,3,0.6"

    with pytest.raises(ValueError):
        write_metrics(samples, io.StringIO(), stride=0)


def test_metrics_stride_downsamples():
    samples = [(i, 2, 1) for i in range(1, 1001)]
    buf = io.StringIO()
    write_metrics(samples, buf, stride=100)
    lines = buf.getvalue().splitlines()
    assert len(lines) == 11  # header + 10 rows
    assert lines[1].startswith("100,")
    assert lines[-1].startswith("1000,")

    # a final timestamp off the stride grid is still emitted
    buf = io.StringIO()
    write_metrics([(i, 2, 1) for i in range(1, 1006)], buf, stride=100)
    assert buf.getvalue().splitlines()[-1].startswith("1005,")
