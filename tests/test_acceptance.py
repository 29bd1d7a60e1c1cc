"""Acceptance suite: every release-gating criterion, one test each.

Each test prints a single PASS line once its assertions hold (run with
-s or -v to see them). The soak fixture feeds two criteria: the
stepwise check of both stores against the reference miner and the
resource-contract check.
"""

import json
import math
import time
from pathlib import Path

import pytest

from parasol import (
    StreamState,
    burst_stream,
    delta_compress,
    enumerate_delta_closed,
    process_transaction,
    replay,
    verify_delta_covered_set,
    write_fimi,
)
from parasol.cli import EXIT_OK, main

from helpers import DROP_ONE, DROP_ONE_PLUS, MaskModel, as_dict, random_streams, replay_checked

DATA = Path(__file__).parent / "data"

GRID_K = (2, 3, 5, math.inf)
GRID_EPS = (0.0, 0.1, 0.3)
SIGMAS = (0.3, 0.6)
SOAK_STREAMS = 1000
SOAK_BUDGET_SECONDS = 60.0


def _ok(line: str) -> None:
    print(f"ACCEPTANCE PASS: {line}")


@pytest.fixture(scope="module")
def soak():
    """Replay the seeded stream corpus on both backends across the grid.

    Collects every violation instead of stopping, so one run reports the
    state of all soak criteria at once. `replay_checked` holds both
    states to the reference miner after every step, or the configuration
    is recorded as a stepwise failure and its other checks are skipped.
    """
    started = time.perf_counter()
    failures: list[tuple] = []
    stat_violations = 0
    cover_checks = 0

    for sid, stream in random_streams(SOAK_STREAMS, base_seed=0):
        model = MaskModel(stream)
        n = len(stream)
        for k in GRID_K:
            for eps in GRID_EPS:
                try:
                    flat, tree = replay_checked(stream, k, eps)
                except AssertionError as exc:
                    failures.append(("stepwise", sid, k, eps, repr(exc)))
                    continue
                snap = flat.snapshot()
                delta = flat.delta

                # support bracket for every itemset with a representative
                best_count: dict[int, int] = {}
                emasks = [(model.mask(e.alpha), e.count, e.err) for e in snap]
                for m, c, _ in emasks:
                    sub = m
                    while sub:
                        if best_count.get(sub, -1) < c:
                            best_count[sub] = c
                        sub = (sub - 1) & m
                for m, c, err in emasks:
                    sub = m
                    while sub:
                        if best_count[sub] == c and not (
                            c - err <= model.sup[sub] <= c
                        ):
                            failures.append(("bracket", sid, k, eps))
                        sub = (sub - 1) & m

                for sigma in SIGMAS:
                    if delta > sigma * n:
                        continue  # no guarantee claimed at this threshold
                    out = [e for e in snap if e.count > sigma * n]
                    best = model.best_cover(out)
                    if any(
                        best.get(m, -1) < model.sup[m] - delta
                        for m in model.fis(sigma)
                    ):
                        failures.append(("coverage", sid, k, eps, sigma))
                    outmasks = {model.mask(e.alpha) for e in out}
                    if any(
                        m not in outmasks for m in model.delta_closed(delta, sigma)
                    ):
                        failures.append(("delta-closed-missing", sid, k, eps, sigma))
                    if sid % 25 == 0:  # revalidate with the oracle, which takes any alphabet
                        if not verify_delta_covered_set(out, stream, sigma, delta):
                            failures.append(("oracle-coverage", sid, k, eps, sigma))
                        if not enumerate_delta_closed(stream, delta, sigma) <= {
                            e.alpha for e in out
                        }:
                            failures.append(("oracle-delta-closed", sid, k, eps, sigma))
                    cover_checks += 1

                for state in (flat, tree):
                    for s in state.steps:
                        if s.intersections > s.pre_size + 1:
                            stat_violations += 1
                        if k != math.inf and (
                            s.peak_size > 2 * k + 1 or s.post_size > k
                        ):
                            stat_violations += 1

    return {
        "failures": failures,
        "stat_violations": stat_violations,
        "cover_checks": cover_checks,
        "duration": time.perf_counter() - started,
    }


def test_c01_closed_itemset_counts_exact_mode():
    replay(DROP_ONE)  # warm caches before timing
    started = time.perf_counter()
    state = StreamState()
    sizes = []
    for t in DROP_ONE:
        process_transaction(state, t)
        sizes.append(len(state.table))
    elapsed = time.perf_counter() - started
    assert sizes == [1, 3, 7, 15]
    assert elapsed < 0.001, f"exact replay took {elapsed * 1e3:.3f} ms"
    _ok(f"criterion 1: closed counts 1,3,7,15 in {elapsed * 1e6:.0f} us")


def test_c02_size_driven_eviction_worked_example():
    state = replay(DROP_ONE[:3], k=3)
    assert state.delta == 2
    t4 = DROP_ONE[3]
    state.table.update(t4.items, state.delta, t4.timestamp)
    e = state.table.get(t4.items)
    assert (e.count, e.err) == (3, 2)
    _ok("criterion 2: delta(3)=2 and the fourth transaction enters as (3, 2)")


def test_c03_full_five_step_replay():
    state = replay(DROP_ONE, k=3)
    before = as_dict(state.snapshot())
    assert before == {(5,): (4, 0), (2, 5): (3, 0), (1, 5): (3, 0)}
    t5 = DROP_ONE_PLUS[4]
    state.table.update(t5.items, state.delta, t5.timestamp)
    assert as_dict(state.snapshot())[(2, 5)] == (3, 0)  # the minimum about to go
    delta = state.table.delete_minima(3, 0, state.delta)
    state.delta = delta
    after = as_dict(state.snapshot())
    assert after == {(5,): (5, 0), (1, 5): (4, 0), (1, 3, 5): (4, 3)}
    assert (2, 5) not in after
    assert delta == 3
    _ok("criterion 3: final table {5:(5,0), 15:(4,0), 135:(4,3)}, evicted (2,5)=(3,0), delta=3")


def test_c04_compression_worked_example():
    state = replay(DROP_ONE_PLUS, k=3)
    out = as_dict(delta_compress(state.snapshot(), state.delta))
    assert out == {(1, 5): (5, 1), (1, 3, 5): (4, 3)}
    _ok("criterion 4: compression drops {5} and rewrites {1,5} to (5, 1)")


def test_c05_tree_update_trace_golden():
    from helpers import OVERLAP4

    state = replay(OVERLAP4[:3], backend="wtree")
    state.table.trace = []
    process_transaction(state, OVERLAP4[3])

    def render(ev):
        def label(alpha):
            return ",".join(map(str, alpha)) if alpha else "root"

        kind = ev[0]
        if kind == "descend":
            return f"descend {label(ev[1])} mask {label(ev[2])}"
        if kind == "hit-subtree":
            return f"hit-subtree {label(ev[1])}"
        if kind == "create":
            return f"create {label(ev[1])} parent {label(ev[2])} count {ev[3]} err {ev[4]}"
        if kind == "skip-subtree":
            return f"skip-subtree {label(ev[1])}"
        if kind == "skip-right-siblings":
            return f"skip-right-siblings of {label(ev[1])}: " + " ".join(
                label(a) for a in ev[2]
            )
        raise AssertionError(kind)

    rendered = "\n".join(render(ev) for ev in state.table.trace) + "\n"
    golden = (DATA / "overlap_update_trace.golden").read_text()
    assert rendered == golden
    _ok("criterion 5: update trace matches the golden walk-through")


def test_c06_differential_soak(soak):
    assert soak["failures"] == [], soak["failures"][:10]
    assert soak["cover_checks"] > 5000  # the guarantee was actually exercised
    assert soak["duration"] < SOAK_BUDGET_SECONDS
    _ok(
        f"criterion 6: {SOAK_STREAMS} streams x {len(GRID_K) * len(GRID_EPS)} configs x 2 backends, "
        f"each step checked against the reference, {soak['cover_checks']} covered-set checks, "
        f"{soak['duration']:.1f}s"
    )


def test_c07_error_parameter_only_bound():
    violations = 0
    for _, stream in random_streams(100, base_seed=600_000):
        state = StreamState(epsilon=0.1)
        for t in stream:
            process_transaction(state, t)
            if state.delta > 0.1 * state.i:
                violations += 1
    assert violations == 0
    _ok("criterion 7: unbounded-size runs keep delta <= 0.1 * i at every step")


def test_c08_resource_contract(soak):
    assert soak["stat_violations"] == 0
    _ok("criterion 8: table <= 2k+1 mid-step, <= k after, sweeps <= size+1")


def test_c09_burst_recovery(tmp_path):
    stream = burst_stream()
    path = tmp_path / "burst.dat"
    with open(path, "w") as fh:
        write_fimi(stream, fh)
    metrics = tmp_path / "metrics.csv"
    eps = 0.015
    code = main(
        [
            "--input", str(path),
            "--mode", "parasol",
            "--k", "400",
            "--epsilon", str(eps),
            "--metrics", str(metrics),
        ]
    )
    assert code == EXIT_OK
    rows = [line.split(",") for line in metrics.read_text().splitlines()[1:]]
    ratios = [float(r[3]) for r in rows]
    peak = max(ratios)
    final = ratios[-1]
    assert peak > eps, "the burst never overwhelmed the error parameter"
    assert final <= peak
    assert final <= 1.5 * eps
    _ok(
        f"criterion 9: ratio peaks at {peak:.4f} > eps then recovers to "
        f"{final:.4f} <= 1.5 * {eps}"
    )


def test_c10_benchmark_harness_reports_summary(tmp_path, capsys):
    # full-scale corpus numbers are out of desk scope; the harness replays
    # any local dataset file and reports the standard summary fields
    import random

    from parasol import random_stream

    rng = random.Random(99)
    path = tmp_path / "local.dat"
    with open(path, "w") as fh:
        write_fimi(random_stream(rng, 300, universe=40, max_len=9), fh)
    code = main(
        [
            "--input", str(path),
            "--mode", "baseline",
            "--k", "50",
            "--backend", "wtree",
            "--summary-json",
        ]
    )
    assert code == EXIT_OK
    summary = json.loads(capsys.readouterr().out)
    assert summary["n"] == 300
    assert set(summary) >= {"n", "k_n", "delta", "ratio", "time_ms", "weak_guarantee"}
    assert summary["k_n"] <= 50
    _ok("criterion 10: harness replays a local dataset and reports summary fields")
