"""The parasol benchmark: replay one seeded workload, check it, print its metrics.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload retail|dense|drift --seed N --seconds S --trace 0|1

Each replay generates one input of the workload from the seed, writes it as
a FIMI file and starts a fresh run process (`replay.py`) that imports the
program from `src/`; that much is `setup_s`. The run process then replays
the file once. Replays repeat, one at a time, until the next one would end
past `--seconds`. The first two replay input 0, so that the result is seen
to repeat; each later replay takes the next input (`workloads.generate`).
Timings are medians over replays, each calibrated to a nominal machine speed
(`speed.py`). A traced run replays input 0 only.

`--trace 0` prints the end-to-end metrics. `--trace 1` alternates untraced
and traced replays, adds one replay under tracemalloc, and prints the
per-layer metrics. The last line of stdout is one JSON object with
`correct`, `attempted`, `failed` and `metrics`; the lines before it print
every metric by name with its unit. Outputs are checked outside the timed
region (`checks.py`); each failed check fails the operation it concerns.
An operation is a transaction, a query or the final result of a replay.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

import checks
from tracing import METRICS
from workloads import WORKLOADS, generate, write_fimi

HERE = os.path.dirname(os.path.abspath(__file__))
CHILD_DEADLINE_S = 170  # no run process outlives this, counted from the start of the run


def percentile(samples: list[float], q: float) -> tuple[float, int]:
    """Nearest-rank percentile and the number of samples beyond it.

    A tail percentile needs at least ten samples beyond it; with fewer it is
    refused rather than printed.
    """
    ordered = sorted(samples)
    rank = max(1, math.ceil(q * len(ordered)))
    beyond = len(ordered) - rank
    if q > 0.5 and beyond < 10:
        raise ValueError(f"p{q * 100:g} of {len(ordered)} samples has only {beyond} beyond it")
    return ordered[rank - 1], beyond


class Workload:
    """Set-up and replays of one workload at one seed, inside a work directory."""

    def __init__(self, root: str, name: str, seed: int, work: str, deadline: float) -> None:
        self.root, self.name, self.seed, self.work = root, name, seed, work
        self.deadline = deadline
        self.replays = 0
        self.input_digests: dict[int, str] = {}
        self.transactions: dict[int, list[list[int]]] = {}  # each input, kept for the support check
        self.errors: list[str] = []

    def replay(self, mode: str, part: int) -> tuple[float, dict, str, int]:
        """One set-up plus one replay of input `part`:
        (setup_s, what the run process reported, result path, part)."""
        j = self.replays
        self.replays += 1
        t0 = time.perf_counter()
        transactions = generate(self.name, self.seed, part=part)
        path = os.path.join(self.work, f"input-{j}.dat")
        write_fimi(transactions, path)
        job = {
            "root": self.root,
            "workload": self.name,
            "mode": mode,
            "n": len(transactions),
            "input": path,
            "out": os.path.join(self.work, f"result-{j}.tsv"),
            "work": self.work,
        }
        proc = subprocess.Popen(
            [sys.executable, os.path.join(HERE, "replay.py"), json.dumps(job)],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
            cwd=self.root,
        )
        try:
            ready = proc.stdout.readline().strip()
            setup_s = time.perf_counter() - t0
            if ready != "ready":
                out = {"error": "run process failed to start"}
            else:
                stdout, _ = proc.communicate("go\n", timeout=max(1.0, self.deadline - time.perf_counter()))
                lines = stdout.splitlines()
                out = json.loads(lines[-1]) if lines else {"error": "run process printed nothing"}
        except subprocess.TimeoutExpired:
            out = {"error": "run process timed out"}
        finally:
            if proc.poll() is None:
                proc.kill()
            proc.wait()
        digest = checks.digest(path)
        if part not in self.input_digests:
            self.input_digests[part] = digest
            self.transactions[part] = transactions
        elif digest != self.input_digests[part]:
            self.errors.append(f"the same seed wrote a different input file {part}")
        os.remove(path)
        out.setdefault("steps_done", 0)
        out.setdefault("reads_done", 0)
        return setup_s, out, job["out"], part


def run(args: argparse.Namespace, root: str, bench: dict) -> int:
    name, seed = args.workload, args.seed
    start = time.perf_counter()
    scratch = os.path.join(root, ".perfbench")
    os.makedirs(scratch, exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"{name}-{seed}-", dir=scratch)
    try:
        wl = Workload(root, name, seed, work, start + CHILD_DEADLINE_S)
        plain, traced = [], []
        while True:
            # untraced: inputs 0, 0, 1, 2, ...; traced: input 0 throughout, so
            # counters repeat exactly and the overhead compares like with like
            part = 0 if args.trace else max(0, len(plain) - 1)
            plain.append(wl.replay("plain", part))
            if args.trace:
                traced.append(wl.replay("trace", part))
            elapsed = time.perf_counter() - start
            if len(plain) >= 2 and elapsed * (len(plain) + 1) / len(plain) > args.seconds:
                break
        memory = wl.replay("memory", 0) if args.trace else None

        import parasol

        return report(args, bench, wl, plain, traced, memory, checks.backend_errors(parasol, name, seed))
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):  # another run may still be using it
            os.rmdir(scratch)


def report(args, bench, wl, plain, traced, memory, backend_errors) -> int:
    name = wl.name
    spec = WORKLOADS[name]
    n = len(wl.transactions[0])
    attempted = failed = 0
    references = {}  # part -> (digest, rows) of the first replay of that input with a result
    problems = list(wl.errors) + backend_errors
    reads = n // spec["read_every"] if "read_every" in spec else 0
    for _, out, result, part in plain + traced + ([memory] if memory else []):
        size = len(wl.transactions[part])
        attempted += size + reads + 1
        failed += size - out["steps_done"] + reads - out["reads_done"]
        errors = checks.replay_errors(name, out, size)
        if not errors:
            digest = checks.digest(result)
            if part not in references:
                rows = checks.read_rows(result)
                references[part] = (digest, rows)
                errors += checks.support_errors(wl.transactions[part], rows, wl.seed)
            elif digest != references[part][0]:
                errors.append(f"result table of input {part} differs from its first replay's")
        if errors:
            failed += 1
            problems += errors
    attempted += 1  # the cross-backend comparison
    failed += bool(backend_errors)
    for problem in problems:
        print(f"check failed: {problem}")
    good = [(s, o) for s, o, _, _ in plain if "error" not in o]
    firsts = [o for _, o, _, part in plain if part == 0 and "error" not in o]
    if not firsts or 0 not in references:
        print("no replay completed", file=sys.stderr)
        return 1

    first = firsts[0]  # a replay of input 0, which fixes the deterministic metrics
    parts = len({part for _, _, _, part in plain})
    if args.trace:
        values, info = trace_metrics(plain, traced, memory)
    else:
        # Each replay's timings are divided by its speed factor (`speed.py`):
        # the whole replay's for wall_s and setup_s, the parse+mine phase's
        # for the throughput and the latencies. Whole-replay timings: the median
        # over replays. Latencies: the percentile over the steps (or reads) of
        # all replays together.
        def calibrated(value) -> float:
            return statistics.median(value(s, o) / o["speed"] for s, o in good)

        def pooled(key: str) -> list[float]:
            return [x / o["mine_speed"] for _, o in good for x in o[key]]

        steps = pooled("steps_ns")
        p99, beyond = percentile(steps, 0.99)
        values = {
            "wall_s": calibrated(lambda s, o: o["wall_s"]),
            "throughput_tps": statistics.median(o["n"] * o["mine_speed"] / o["mine_s"] for _, o in good),
            "step_p50_us": percentile(steps, 0.50)[0] / 1e3,
            "step_p99_us": p99 / 1e3,
            "peak_rss_mb": statistics.median(o["rss_kb"] for _, o in good) / 1024,
            "setup_s": calibrated(lambda s, o: s),
            "error_ratio": first["delta"] / first["n"],
            "result_rows": len(references[0][1]),
            "ok_share": (attempted - failed) / attempted,
        }
        runs = f"median of {len(good)} replays of {parts} inputs"
        speeds = sorted(o["speed"] for _, o in good)
        raw_wall = statistics.median(o["wall_s"] for _, o in good)
        info = {m: runs for m in ("peak_rss_mb",)}
        info["wall_s"] = (
            f"{runs}, at nominal speed; measured {raw_wall:.6g} s, "
            f"speed factors {speeds[0]:.3f}-{speeds[-1]:.3f}"
        )
        info["throughput_tps"] = info["setup_s"] = f"{runs}, at nominal speed"
        pool = f"of {len(good)} replays of {parts} inputs"
        info["step_p50_us"] = f"{len(steps)} steps {pool}, at nominal speed"
        info["step_p99_us"] = f"{len(steps)} steps {pool}, {beyond} beyond, at nominal speed"
        info["ok_share"] = f"{attempted - failed} of {attempted} operations"
        if reads:  # anytime reads are part of this workload's stream
            queries = pooled("reads_ns")
            q50 = percentile(queries, 0.50)[0]
            q99, qbeyond = percentile(queries, 0.99)
            print(f"query_p50_us = {q50 / 1e3:.6g} us  ({len(queries)} queries {pool}, at nominal speed)")
            print(
                f"query_p99_us = {q99 / 1e3:.6g} us  "
                f"({len(queries)} queries {pool}, {qbeyond} beyond, at nominal speed)"
            )

    listed = bench["per_layer" if args.trace else "end_to_end"]
    metrics = {}
    for m in listed:
        value = values[m["name"]]
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
        shown = "null" if value is None else f"{value:.6g}" if isinstance(value, float) else str(value)
        note = f"  ({info[m['name']]})" if m["name"] in info else ""
        print(f"{m['name']} = {shown} {m['unit']}{note}")
    print(json.dumps({"correct": not problems, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


def trace_metrics(plain, traced, memory) -> tuple[dict, dict]:
    """Per-layer values: medians over the traced replays, plus the tracing
    overhead against the untraced replays of the same run."""
    done = [o for _, o, _, _ in traced if "error" not in o]
    values, notes = {}, {}
    for metric, layer in METRICS.items():
        column = [o["layers"][metric] for o in done]
        if not column or None in column:
            values[metric] = None
            entries = done[0]["missing"].get(layer, []) if done else []
            notes[metric] = f"never called: {', '.join(entries) or 'no traced replay'}"
        elif len(set(column)) == 1:
            values[metric] = column[0]  # a counter repeats exactly
        else:
            values[metric] = statistics.median(column)
    walls = [o["wall_s"] for _, o, _, _ in plain if "error" not in o]
    values["trace.overhead_s"] = (
        statistics.median(o["wall_s"] for o in done) - statistics.median(walls) if done and walls else None
    )
    notes["trace.overhead_s"] = f"{len(done)} traced vs {len(walls)} untraced replays"
    values["engine.bytes_per_txn"] = memory[1].get("bytes_per_txn")
    return values, notes


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "parasol", "__init__.py")):
        print(f"error: no program source at {os.path.join(root, 'src', 'parasol')}", file=sys.stderr)
        return 2
    bench_path = os.path.join(root, "BENCHMARK.json")
    with open(bench_path, encoding="utf-8") as fh:
        bench = json.load(fh)
    sys.path.insert(0, os.path.join(root, "src"))
    return run(args, root, bench)


if __name__ == "__main__":
    sys.exit(main())
