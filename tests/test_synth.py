"""The seeded generators, pinned by digest.

`burst_stream` builds the benchmark's `drift` inputs (seed
`seed * 1000 + part` at the workload's sizes) and `random_stream` the
test suite's differential streams, so an edit that changes either output
fails here before it silently changes the benchmark or what the tests
cover. A stream hashes as one `timestamp item item ...` line per
transaction, and a blank line ends each stream. A change that alters a
stream on purpose updates its digest and says why.
"""

from __future__ import annotations

import hashlib

from parasol import Transaction, burst_stream

from helpers import random_streams

DRIFT_SIZES = {"calm_len": 1600, "burst_len": 60, "tail_len": 8800}

# burst_stream(seed * 1000 + part, **DRIFT_SIZES) for (seed, part)
DRIFT_DIGESTS = {
    (1, 0): "5d85981b52f1c07d2b08eaa49f9e259cf8235adc966b013eb87b4df0742870e8",
    (1, 1): "64565258dd127acf3a6f48d61a43f479d4526ccfd9f09e77334c19b36fd0b827",
    (7, 0): "b71792d8d8d9867523c8b95ce6d90b67b687f0545a2f637e9e680812f406b8ea",
    (7, 1): "b653b148ab9bb796fe5a04b3ce0362c9c27f802d443a180711834d5c50e265d3",
}
BURST_DEFAULT_DIGEST = "61be1006863b2e83d3209e4d9f3228b6b9e2a946144283c7cb638b3931982a1d"
RANDOM_STREAMS_DIGEST = "0336d8659bf0bcb158635d46600c6cebaf246915fb8e2b34ac3f58f93c4bf239"


def stream_digest(streams: list[list[Transaction]]) -> str:
    h = hashlib.sha256()
    for stream in streams:
        for t in stream:
            h.update(f"{t.timestamp} {' '.join(map(str, t.items))}\n".encode())
        h.update(b"\n")
    return h.hexdigest()


def test_drift_inputs_are_pinned():
    for (seed, part), digest in DRIFT_DIGESTS.items():
        assert stream_digest([burst_stream(seed * 1000 + part, **DRIFT_SIZES)]) == digest, (seed, part)


def test_burst_stream_defaults_are_pinned():
    stream = burst_stream()
    assert [t.timestamp for t in stream] == list(range(1, len(stream) + 1))
    assert stream_digest([stream]) == BURST_DEFAULT_DIGEST


def test_random_streams_are_pinned():
    streams = [stream for _, stream in random_streams(50)]
    assert stream_digest(streams) == RANDOM_STREAMS_DIGEST

