"""Bounded-memory frequent-itemset mining over unbounded transaction streams.

The engine keeps at most k itemset entries, each carrying an estimated
count and a per-entry error bound, and answers anytime queries whose
results cover every frequent itemset within the global maximum error.
Eviction can be size-driven, error-parameter-driven, or the unified
policy that uses the error parameter normally and falls back to
size-driven eviction only under memory pressure.
"""

from .compress import compress_two_step, delta_compress
from .engine import QueryResult, StreamState, TimestampGap, process_transaction, query, replay
from .fimi import ParseError, ParseStats, parse_fimi, write_fimi, write_metrics, write_result
from .itemsets import Entry, Items, Transaction, itemset
from .oracle import (
    enumerate_closed,
    enumerate_delta_closed,
    enumerate_fis,
    true_support,
    verify_delta_covered_set,
)
from .synth import burst_stream, random_stream
from .table import EntryTable
from .wtree import WeepingTree

__version__ = "0.1.0"

__all__ = [
    "Entry",
    "EntryTable",
    "Items",
    "ParseError",
    "ParseStats",
    "QueryResult",
    "StreamState",
    "TimestampGap",
    "Transaction",
    "WeepingTree",
    "burst_stream",
    "compress_two_step",
    "delta_compress",
    "enumerate_closed",
    "enumerate_delta_closed",
    "enumerate_fis",
    "itemset",
    "parse_fimi",
    "process_transaction",
    "query",
    "random_stream",
    "replay",
    "true_support",
    "verify_delta_covered_set",
    "write_fimi",
    "write_metrics",
    "write_result",
    "__version__",
]
