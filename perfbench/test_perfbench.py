"""Tests of the benchmark itself: `python -m pytest perfbench` from the repo root."""

from __future__ import annotations

import gc
import json
import os
import shutil
import subprocess
import sys
import time

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import parasol  # noqa: E402

import checks  # noqa: E402
import speed  # noqa: E402
from run import percentile  # noqa: E402
from tracing import METRICS, Tracer  # noqa: E402
from workloads import LAYER_MAP, WORKLOADS, generate  # noqa: E402


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_same_seed_same_input(name):
    small = WORKLOADS[name]["reduced"]
    assert generate(name, 7, small) == generate(name, 7, small)
    assert generate(name, 7, small) != generate(name, 8, small)
    assert generate(name, 7, small, part=2) == generate(name, 7, small, part=2)
    assert generate(name, 7, small, part=2) != generate(name, 7, small, part=1)
    assert generate(name, 7, small, part=1) != generate(name, 8, small, part=1)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
@pytest.mark.parametrize("seed", [1, 2])
def test_backends_give_identical_tables(name, seed):
    """The paper's "observationally identical" claim on each workload's configuration."""
    assert checks.backend_errors(parasol, name, seed) == []


def test_percentile_refuses_a_thin_tail():
    value, beyond = percentile(list(range(1000)), 0.99)
    assert (value, beyond) == (989, 10)
    with pytest.raises(ValueError):
        percentile(list(range(999)), 0.99)


def test_speed_gauge_reads_the_kernel_without_collecting():
    """The kernel never triggers a collection, and the factor is its mean over nominal."""
    gc_calls = []

    def callback(phase, info):
        gc_calls.append(phase)

    gauge = speed.Gauge()
    gc.callbacks.append(callback)
    try:
        for _ in range(5):
            gauge.sample()
    finally:
        gc.callbacks.remove(callback)
    assert gc_calls == [] and gc.isenabled()
    assert gauge.calls == 5 and 0 < gauge.wall_ns
    assert gauge.factor() == gauge.cpu_ns / 5 / speed.NOMINAL_NS
    assert speed.kernel() == speed.kernel()


def test_speed_gauge_samples_on_a_timer_until_stopped():
    gauge = speed.Gauge()
    gauge.start()
    try:
        end = time.perf_counter() + 5 * speed.EVERY_S
        while time.perf_counter() < end:
            sum(range(1000))
    finally:
        gauge.stop()
    calls = gauge.calls
    assert 4 <= calls <= 7
    time.sleep(2 * speed.EVERY_S)
    assert gauge.calls == calls


def test_support_check_catches_a_wrong_bracket():
    transactions = [[1, 2], [1, 2, 3], [2, 3]]
    assert checks.support_errors(transactions, [((1, 2), 2, 0), ((2,), 4, 1)], seed=0) == []
    assert checks.support_errors(transactions, [((1, 2), 3, 0)], seed=0) != []


@pytest.mark.parametrize("backend", ["flat", "wtree"])
def test_traced_counters_match_the_engine(backend):
    """Counters derived from outside agree with the engine's own step records."""
    name = "retail" if backend == "flat" else "drift"
    spec = WORKLOADS[name]
    tracer = Tracer()
    tracer.install(parasol)
    try:
        state = parasol.StreamState(k=spec["k"], epsilon=spec["epsilon"], backend=backend)
        for i, items in enumerate(generate(name, 3, spec["reduced"]), start=1):
            parasol.engine.process_transaction(state, parasol.Transaction(tuple(items), i))
    finally:
        tracer.uninstall()
    values, missing = tracer.metrics(len(state.table))
    steps = state.steps
    assert values["table.intersections"] == sum(s.intersections for s in steps)
    assert values["table.visits"] == sum(s.visits for s in steps)
    assert values["table.peak_size_max"] == max(s.peak_size for s in steps)
    evicted = sum(s.peak_size - s.post_size for s in steps)
    assert values["table.evictions_size"] + values["table.evictions_epsilon"] == evicted
    assert values["table.evictions_size"] == sum(max(0, s.peak_size - spec["k"]) for s in steps)
    assert values["table.update_s"] > 0 and values["table.evict_s"] > 0
    assert set(missing) == {"engine.query", "compress", "fimi.parse", "fimi.write"}
    assert values["fimi.parse_s"] is None and values["compress.s"] is None


def test_every_metric_is_listed_and_mapped():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    per_layer = {m["name"] for m in bench["per_layer"]}
    assert per_layer == set(METRICS) | {"engine.bytes_per_txn", "trace.overhead_s"}
    assert per_layer == set(LAYER_MAP)
    assert {w["name"]: w["why"] for w in bench["workloads"]} == {
        name: spec["why"] for name, spec in WORKLOADS.items()
    }


@pytest.mark.parametrize("name", [n for n, spec in WORKLOADS.items() if spec["runner"] == "cli"])
def test_cli_arguments_match_the_recorded_configuration(name):
    spec = WORKLOADS[name]
    args = dict(zip(spec["args"][::2], spec["args"][1::2]))
    assert int(args["--k"]) == spec["k"] and args["--backend"] == spec["backend"]
    assert float(args["--epsilon"]) == spec["epsilon"] and float(args["--sigma"]) == spec["sigma"]


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "drift", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
