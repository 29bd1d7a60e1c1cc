"""Reading and writing the plain-text transaction format.

One transaction per line, whitespace-separated non-negative integer
items written in ASCII digits. Parsing is streaming: transactions are
yielded as they are read, with timestamps assigned 1..n in file order.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field
from typing import IO, Iterable, Iterator

from .itemsets import Entry, Transaction, itemset


class ParseError(ValueError):
    def __init__(self, lineno: int, message: str) -> None:
        super().__init__(f"line {lineno}: {message}")
        self.lineno = lineno


@dataclass
class ParseStats:
    """Side counters for a parse run."""

    lines: int = 0
    transactions: int = 0
    skipped: int = 0  # blank or whitespace-only lines


def parse_fimi(
    source: Iterable[str], stats: ParseStats | None = None
) -> Iterator[Transaction]:
    """Yield transactions from lines of text.

    Items on a line are deduplicated and sorted; blank lines are skipped
    (counted in stats.skipped); any token that is not a run of ASCII
    digits, or that has more digits than int() converts (4,300 by
    default), aborts with a ParseError carrying the line number.
    """
    counters = stats if stats is not None else ParseStats()
    timestamp = 0
    for lineno, line in enumerate(source, start=1):
        counters.lines = lineno
        tokens = line.split()
        if not tokens:
            counters.skipped += 1
            continue
        digits = "".join(tokens)
        if not (digits.isascii() and digits.isdigit()):
            bad = next(tok for tok in tokens if not (tok.isascii() and tok.isdigit()))
            raise ParseError(lineno, f"not a non-negative integer item: {bad!r}")
        try:
            items = itemset(map(int, tokens))
        except ValueError:  # only a token past int()'s digit limit gets here
            limit = sys.get_int_max_str_digits()
            raise ParseError(lineno, f"item longer than {limit} digits") from None
        timestamp += 1
        counters.transactions = timestamp
        yield Transaction(items, timestamp)


def write_fimi(transactions: Iterable[Transaction], fh: IO[str]) -> None:
    """Inverse of parse_fimi: one line of space-separated items per transaction."""
    for t in transactions:
        fh.write(" ".join(str(x) for x in t.items))
        fh.write("\n")


def format_result_rows(entries: Iterable[Entry]) -> list[str]:
    """Result-table lines: "items<TAB>count<TAB>err", highest counts first.

    Ordered by descending count then lexicographic itemset so identical
    runs diff byte-for-byte.
    """
    ordered = sorted(entries, key=lambda e: (-e.count, e.alpha))
    return [
        "{}\t{}\t{}".format(" ".join(str(x) for x in e.alpha), e.count, e.err)
        for e in ordered
    ]


def write_result(entries: Iterable[Entry], fh: IO[str]) -> int:
    rows = format_result_rows(entries)
    for row in rows:
        fh.write(row)
        fh.write("\n")
    return len(rows)


def write_metrics(
    samples: Iterable[tuple[int, int, int]], fh: IO[str], stride: int = 1
) -> None:
    """Time-series CSV: header i,k_i,delta_i,error_ratio, one row per sample.

    Rows are emitted for timestamps divisible by stride; the final sample
    is always included.
    """
    if stride < 1:
        raise ValueError("stride must be positive")
    fh.write("i,k_i,delta_i,error_ratio\n")
    sample = None
    for sample in samples:
        if sample[0] % stride == 0:
            _write_sample(fh, *sample)
    if sample is not None and sample[0] % stride:
        _write_sample(fh, *sample)


def _write_sample(fh: IO[str], i: int, k_i: int, delta_i: int) -> None:
    fh.write(f"{i},{k_i},{delta_i},{delta_i / i:g}\n")
