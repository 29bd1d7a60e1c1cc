"""The CLI's outputs, pinned across commits.

Thirteen CLI runs over three seeded inputs each hash their result table,
their `--metrics --stride 7` file and their `--summary-json` line without
`time_ms`; the digests must equal `data/cli_outputs.json`. A change that
alters an output on purpose updates that file and says why.
"""

from __future__ import annotations

import hashlib
import json
import random
from pathlib import Path

from parasol import burst_stream, random_stream, write_fimi
from parasol.cli import EXIT_OK, main

from helpers import zipf_stream

DIGESTS = Path(__file__).parent / "data" / "cli_outputs.json"

SPARSE = ["--mode", "parasol", "--epsilon", "0.005", "--k", "60", "--sigma", "0.04"]
SPARSE_BASELINE = ["--mode", "baseline", "--k", "40", "--sigma", "0.02"]
DENSE_WIDE = ["--mode", "parasol", "--epsilon", "0.01", "--k", "5000", "--sigma", "0.05"]
DENSE_TIGHT = ["--mode", "parasol", "--epsilon", "0.02", "--k", "40", "--sigma", "0.1"]
DENSE_EXACT = ["--mode", "exact", "--sigma", "0.2"]
BURST = ["--mode", "parasol", "--epsilon", "0.015", "--k", "100", "--sigma", "0.02"]

# (input, options, backend, compression)
RUNS = [
    ("sparse", SPARSE, "flat", "flat"),
    ("sparse", SPARSE, "wtree", "flat"),
    ("sparse", SPARSE, "flat", "off"),
    ("sparse", SPARSE_BASELINE, "flat", "off"),
    ("sparse", SPARSE_BASELINE, "wtree", "off"),
    ("dense", DENSE_WIDE, "flat", "off"),
    ("dense", DENSE_WIDE, "wtree", "off"),
    ("dense", DENSE_TIGHT, "wtree", "flat"),
    ("dense", DENSE_EXACT, "flat", "off"),
    ("dense", DENSE_EXACT, "wtree", "off"),
    ("burst", BURST, "flat", "off"),
    ("burst", BURST, "wtree", "off"),
    ("burst", BURST, "wtree", "flat"),
]


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def test_cli_outputs_match_the_pinned_digests(tmp_path, capsys):
    inputs = {
        "sparse": zipf_stream(11, 2000, 400),
        "dense": random_stream(random.Random(12), 150, 12, 10),
        "burst": burst_stream(13, calm_len=160, burst_len=40, tail_len=280),
    }
    for name, stream in inputs.items():
        with open(tmp_path / f"{name}.dat", "w") as fh:
            write_fimi(stream, fh)

    got = {}
    for source, options, backend, compression in RUNS:
        run = f"{source} {options[1]} {' '.join(options[2:])} {backend}/{compression}"
        out, metrics = tmp_path / "out.tsv", tmp_path / "metrics.csv"
        code = main(
            [
                "--input", str(tmp_path / f"{source}.dat"), *options,
                "--backend", backend, "--compress", compression,
                "--out", str(out), "--metrics", str(metrics), "--stride", "7",
                "--summary-json",
            ]
        )
        assert code == EXIT_OK, run
        summary = json.loads(capsys.readouterr().out)
        del summary["time_ms"]
        got[run] = {
            "out": _sha(out.read_bytes()),
            "metrics": _sha(metrics.read_bytes()),
            "summary": _sha(json.dumps(summary).encode()),
        }

    want = json.loads(DIGESTS.read_text())
    changed = sorted(run for run in want.keys() | got.keys() if want.get(run) != got.get(run))
    assert not changed, f"outputs changed for {changed}; new mapping:\n" + json.dumps(
        got, indent=2
    )
