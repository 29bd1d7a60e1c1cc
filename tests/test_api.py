"""The package exports what its callers use, and keeps the benchmark's hooks."""

import parasol
import parasol.engine

EXPORTED = {
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
}


def test_public_surface():
    namespace = {}
    exec("from parasol import *", namespace)
    assert set(parasol.__all__) <= namespace.keys()

    assert len(parasol.__all__) == 28
    assert set(parasol.__all__) == EXPORTED

    # perfbench/tracing.py wraps these engine steps by name, unexported;
    # Tracer.install raises AttributeError without them
    for name in ("intersect_step", "rc_delete", "parasol_delete"):
        assert callable(getattr(parasol.engine, name)), name
