"""Reading and writing the plain-text transaction format.

One transaction per line, whitespace-separated non-negative integer
items written in ASCII digits. Parsing is streaming: transactions are
yielded as they are read, with timestamps assigned 1..n in file order.
"""

from __future__ import annotations

import re
import sys
from dataclasses import dataclass
from typing import IO, Iterable, Iterator

from .itemsets import Entry, Transaction, itemset


# A character no line may hold: non-ASCII, or one of the ASCII controls
# \x1c-\x1f that str.split() splits on but ASCII whitespace excludes. The search
# allocates nothing on a clean line; splitting line.encode("ascii") instead
# measured about 4% slower dense-workload steps (2-vCPU Xeon VM, CPython 3.11).
_STRAY_CHAR = re.compile(r"[^\x00-\x1b\x20-\x7f]").search


class ParseError(ValueError):
    def __init__(self, lineno: int, message: str) -> None:
        super().__init__(f"line {lineno}: {message}")
        self.lineno = lineno


@dataclass
class ParseStats:
    """Side counters for a parse run."""

    lines: int = 0
    skipped: int = 0  # blank or whitespace-only lines


def parse_fimi(
    source: Iterable[str], stats: ParseStats | None = None
) -> Iterator[Transaction]:
    """Yield transactions from lines of text.

    Items on a line are separated by ASCII whitespace (space, tab,
    vertical tab, form feed, carriage return) and are deduplicated and
    sorted; blank lines are skipped (counted in stats.skipped). A
    non-ASCII character anywhere on a line, any token that is not a run
    of ASCII digits, or one that has more digits than int() converts
    (4,300 by default), aborts with a ParseError carrying the line number.
    """
    counters = stats if stats is not None else ParseStats()
    timestamp = 0
    for lineno, line in enumerate(source, start=1):
        counters.lines = lineno
        stray = _STRAY_CHAR(line)
        if stray:
            raise ParseError(lineno, f"stray character {stray.group()!r}")
        tokens = line.split()  # the line is ASCII without \x1c-\x1f: splits as bytes would
        if not tokens:
            counters.skipped += 1
            continue
        digits = "".join(tokens)
        if not digits.isdigit():
            bad = next(tok for tok in tokens if not tok.isdigit())
            raise ParseError(lineno, f"not a non-negative integer item: {bad!r}")
        try:
            items = itemset(map(int, tokens))
        except ValueError:  # only a token past int()'s digit limit gets here
            limit = sys.get_int_max_str_digits()
            raise ParseError(lineno, f"item longer than {limit} digits") from None
        timestamp += 1
        yield Transaction(items, timestamp)


def write_fimi(transactions: Iterable[Transaction], fh: IO[str]) -> None:
    """Inverse of parse_fimi: one line of space-separated items per transaction."""
    for t in transactions:
        fh.write(" ".join(str(x) for x in t.items))
        fh.write("\n")


def write_result(entries: Iterable[Entry], fh: IO[str]) -> int:
    """Write the result table; returns the number of rows written.

    One "items<TAB>count<TAB>err" line per entry, by descending count then
    lexicographic itemset, so identical runs diff byte-for-byte.
    """
    ordered = sorted(entries, key=lambda e: (-e.count, e.alpha))
    for e in ordered:
        fh.write("{}\t{}\t{}\n".format(" ".join(str(x) for x in e.alpha), e.count, e.err))
    return len(ordered)


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
