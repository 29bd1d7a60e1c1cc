"""One replay of one workload in a fresh process: the run process of `run.py`.

Usage: python3 perfbench/replay.py '<job json>'

The job names the checkout root, the workload, the input file, a scratch
directory and a mode:

* `plain`: the measured replay. Besides the wall clock around the whole
  replay and the speed gauge (`speed.py`), the only timing is one
  `thread_time_ns` pair per `process_transaction` call (and per anytime
  query), stored into preallocated arrays. A step is single-threaded and does no I/O, so its
  thread CPU time is its latency without the time the host takes the CPU
  away, which on a shared virtual machine lands milliseconds at a time in
  the tail.
* `trace`: the same replay with spans around every layer entry point
  (`tracing.Tracer`); gives the per-layer metrics.
* `memory`: the same replay under `tracemalloc`; gives the slope of traced
  memory over the second half of the stream.

The process imports everything, prints `ready`, waits for `go` on stdin,
replays, and prints one JSON line with what it measured.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import resource
import sys
import time
import traceback
import tracemalloc
from array import array

from speed import Gauge, factor
from tracing import Tracer
from workloads import WORKLOADS

POST_READS = 10  # traced CLI replays read the final table so the query layer is measured
MEMORY_EVERY = 50  # tracemalloc sample stride, in transactions


def load_program(root: str):
    src = os.path.join(root, "src")
    sys.path.insert(0, src)
    import parasol
    import parasol.cli

    if not os.path.abspath(parasol.__file__).startswith(os.path.abspath(src) + os.sep):
        raise ImportError(f"parasol imported from {parasol.__file__}, not from {src}")
    return parasol


def slope(points: list[tuple[int, int]]) -> float:
    """Least-squares slope of y over x."""
    n = len(points)
    mx = sum(x for x, _ in points) / n
    my = sum(y for _, y in points) / n
    sxx = sum((x - mx) ** 2 for x, _ in points)
    return sum((x - mx) * (y - my) for x, y in points) / sxx


class Replay:
    def __init__(self, parasol, job: dict) -> None:
        self.parasol = parasol
        self.job = job
        self.spec = WORKLOADS[job["workload"]]
        self.n = job["n"]
        self.mode = job["mode"]
        self.steps = array("q", bytes(8 * self.n))
        reads = self.n // self.spec.get("read_every", self.n + 1)
        self.reads = array("q", bytes(8 * max(reads, 1)))
        self.nreads = 0
        self.state = None
        # tracemalloc samples, preallocated so the probe does not add to what it measures
        self.mem_i = array("q", bytes(8 * (self.n // MEMORY_EVERY + 1)))
        self.mem_b = array("q", bytes(8 * (self.n // MEMORY_EVERY + 1)))
        self.nmem = 0
        self.tracer = Tracer() if self.mode == "trace" else None
        self.gauge = Gauge()  # sampled by a timer through a plain replay
        self.mine_gauge = (0, 0, 0)  # the gauge's calls, CPU and wall time at the end of the last step

    def _install_step_probe(self) -> None:
        """Wrap `process_transaction` outermost: time each call (plain), sample
        traced memory over the second half (memory), or only keep the state."""
        engine = self.parasol.engine
        orig = engine.process_transaction

        if self.mode == "plain":
            clock, steps, gauge, last = time.thread_time_ns, self.steps, self.gauge, self.n

            def process_transaction(state, t):
                self.state = state
                # Less any kernel call inside. Read in this order, a call that
                # falls between the two reads adds to the step, never takes away.
                t0 = clock()
                g0 = gauge.cpu_ns
                out = orig(state, t)
                g1 = gauge.cpu_ns
                steps[state.i - 1] = clock() - t0 - (g1 - g0)
                if state.i == last:
                    self.mine_gauge = (gauge.calls, gauge.cpu_ns, gauge.wall_ns)
                return out

        elif self.mode == "memory":
            half, last = self.n // 2, self.n
            traced_memory = tracemalloc.get_traced_memory

            def process_transaction(state, t):
                self.state = state
                out = orig(state, t)
                if state.i > half and state.i % MEMORY_EVERY == 0:
                    self.mem_i[self.nmem] = state.i
                    self.mem_b[self.nmem] = traced_memory()[0]
                    self.nmem += 1
                if state.i == last:
                    tracemalloc.stop()  # the slope is over the stream; finishing is not traced
                return out

        else:
            def process_transaction(state, t):
                self.state = state
                return orig(state, t)

        engine.process_transaction = process_transaction

    def run(self) -> dict:
        if self.tracer:
            self.tracer.install(self.parasol)
        self._install_step_probe()
        if self.mode == "memory":
            tracemalloc.start()
        if self.mode == "plain":
            self.gauge.start()
        t0 = time.perf_counter()
        if self.tracer:
            self.tracer.root = self.tracer.open("cli")
        try:
            if self.spec["runner"] == "cli":
                out = self._run_cli()
            else:
                out = self._run_library()
        finally:
            if self.tracer and self.tracer.stack:
                self.tracer.close(self.tracer.root)
            self.gauge.stop()
        out["wall_s"] = time.perf_counter() - t0 - self.gauge.wall_ns / 1e9
        if self.mode == "plain":
            # parse+mine ends with the last step: the kernel calls up to there
            # fall inside it, and give the speed of the steps and reads
            calls, cpu_ns, wall_ns = self.mine_gauge
            out["mine_s"] -= wall_ns / 1e9
            out["mine_speed"] = factor(calls, cpu_ns)
            out["speed"] = self.gauge.factor()
        if self.mode == "memory":
            out["bytes_per_txn"] = slope(list(zip(self.mem_i[: self.nmem], self.mem_b[: self.nmem])))
        if self.tracer and self.spec["runner"] == "cli":
            sigma = self.spec["sigma"]
            for _ in range(POST_READS):
                self.parasol.engine.query(self.state, sigma)
        out["rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        if self.tracer:
            self.tracer.uninstall()
            values, missing = self.tracer.metrics(out["table_len"])
            out["layers"] = values
            out["missing"] = missing
        return out

    def _run_cli(self) -> dict:
        job = self.job
        argv = [a.replace("{work}", job["work"]) for a in self.spec["args"]]
        argv += ["--input", job["input"], "--out", job["out"], "--summary-json"]
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = self.parasol.cli.main(argv)
        if code != 0:
            raise RuntimeError(f"parasol exited with code {code}")
        summary = json.loads(buf.getvalue().splitlines()[-1])
        return {
            "mine_s": summary["time_ms"] / 1000.0,
            "n": summary["n"],
            "delta": summary["delta"],
            "weak": summary["weak_guarantee"],
            "table_len": len(self.state.table),
        }

    def _run_library(self) -> dict:
        p = self.parasol
        engine, fimi, compress = p.engine, p.fimi, p.compress
        spec, job = self.spec, self.job
        sigma, every = spec["sigma"], spec["read_every"]
        reads, clock, gauge = self.reads, time.thread_time_ns, self.gauge
        t0 = time.perf_counter()
        state = engine.StreamState(k=spec["k"], epsilon=spec["epsilon"], backend=spec["backend"])
        self.state = state
        last = None
        with open(job["input"], encoding="utf-8") as fh:
            for t in fimi.parse_fimi(fh):
                engine.process_transaction(state, t)
                if t.timestamp % every == 0:
                    q0 = clock()
                    g0 = gauge.cpu_ns
                    last = engine.query(state, sigma)
                    g1 = gauge.cpu_ns
                    reads[self.nreads] = clock() - q0 - (g1 - g0)  # as in the step probe
                    self.nreads += 1
        mine_s = time.perf_counter() - t0
        if last is None or last.i != state.i:
            last = engine.query(state, sigma)
        table_len = len(state.table)
        final = compress.compress_two_step(state.table, state.delta)
        threshold = sigma * state.i
        with open(job["out"], "w", encoding="utf-8") as fh:
            fimi.write_result([e for e in final if e.count > threshold], fh)
        return {
            "mine_s": mine_s,
            "n": state.i,
            "delta": state.delta,
            "weak": last.weak_guarantee,
            "table_len": table_len,
        }


def main() -> int:
    job = json.loads(sys.argv[1])
    parasol = load_program(job["root"])
    replay = Replay(parasol, job)
    print("ready", flush=True)
    if sys.stdin.readline().strip() != "go":
        return 1
    try:
        out = replay.run()
    except Exception:  # reported to the parent, which counts the failure
        out = {"error": traceback.format_exc()}
    state = replay.state
    out["steps_done"] = state.i if state is not None else 0
    out["reads_done"] = replay.nreads
    if replay.mode == "plain":
        out["steps_ns"] = list(replay.steps[: out["steps_done"]])
        out["reads_ns"] = list(replay.reads[: replay.nreads])
    print(json.dumps(out), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
