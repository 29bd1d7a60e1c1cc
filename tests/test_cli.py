import json
import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from parasol import Entry, Transaction, burst_stream, itemset, random_stream, write_fimi
from parasol.cli import (
    BACKENDS,
    COMPRESS,
    EXIT_IO,
    EXIT_OK,
    EXIT_PARSE,
    EXIT_USAGE,
    MODES,
    build_parser,
    main,
)
from parasol.oracle import enumerate_delta_closed, true_support, verify_delta_covered_set

from helpers import DROP_ONE, DROP_ONE_PLUS, zipf_stream


@pytest.fixture
def drop_one_file(tmp_path):
    path = tmp_path / "stream.dat"
    with open(path, "w") as fh:
        write_fimi(DROP_ONE_PLUS, fh)
    return str(path)


def run_cli(args):
    return main(args)


def read_result(path) -> list[Entry]:
    """The rows of a result table the CLI wrote."""
    rows = []
    for line in path.read_text().splitlines():
        items, count, err = line.split("\t")
        rows.append(Entry(itemset(map(int, items.split())), int(count), int(err)))
    return rows


def test_exact_mode_row_count(drop_one_file, tmp_path, capsys):
    out = tmp_path / "result.tsv"
    code = run_cli(
        ["--input", drop_one_file, "--mode", "exact", "--out", str(out)]
    )
    assert code == EXIT_OK
    # 15 closed itemsets of the first four transactions grow to 17 with t5
    rows = out.read_text().splitlines()
    assert all(len(r.split("\t")) == 3 for r in rows)
    summary = capsys.readouterr().out
    assert summary.startswith("n=5 ")
    assert "delta=0" in summary and "ratio=0" in summary


def test_exact_mode_first_four_transactions(tmp_path, capsys):
    path = tmp_path / "four.dat"
    with open(path, "w") as fh:
        write_fimi(DROP_ONE_PLUS[:4], fh)
    out = tmp_path / "result.tsv"
    assert run_cli(["--input", str(path), "--mode", "exact", "--out", str(out)]) == EXIT_OK
    assert len(out.read_text().splitlines()) == 15


def test_baseline_worked_run(drop_one_file, tmp_path, capsys):
    out = tmp_path / "result.tsv"
    metrics = tmp_path / "metrics.csv"
    code = run_cli(
        [
            "--input", drop_one_file,
            "--mode", "baseline",
            "--k", "3",
            "--sigma", "0.6",
            "--out", str(out),
            "--metrics", str(metrics),
        ]
    )
    assert code == EXIT_OK
    assert "1 3 5\t4\t3" in out.read_text().splitlines()
    assert metrics.read_text().splitlines()[-1] == "5,3,3,0.6"
    summary = capsys.readouterr().out
    assert summary.startswith("n=5 k(n)=3 delta=3 ratio=0.6 time_ms=")


def test_backends_and_compression_agree_on_results(drop_one_file, tmp_path):
    outs = []
    for backend, comp in (("flat", "flat"), ("wtree", "flat"), ("wtree", "two-step")):
        out = tmp_path / f"{backend}-{comp}.tsv"
        code = run_cli(
            [
                "--input", drop_one_file,
                "--mode", "baseline",
                "--k", "3",
                "--backend", backend,
                "--compress", comp,
                "--out", str(out),
            ]
        )
        assert code == EXIT_OK
        outs.append(out.read_text())
    assert outs[0] == outs[1]  # same compression path, both backends
    for text in outs:
        assert text.splitlines()  # never empty here


def test_k_n_is_the_mined_size_whatever_the_compression(tmp_path, capsys):
    # k(n) is the size mining left; no compression route changes it
    path = tmp_path / "drop_one.dat"
    with open(path, "w") as fh:
        write_fimi(DROP_ONE, fh)
    sizes = {}
    for comp in ("off", "flat", "two-step"):
        code = run_cli(
            [
                "--input", str(path),
                "--mode", "parasol",
                "--epsilon", "0.25",
                "--k", "15",
                "--backend", "wtree",
                "--compress", comp,
                "--summary-json",
            ]
        )
        assert code == EXIT_OK
        sizes[comp] = json.loads(capsys.readouterr().out)["k_n"]
    assert sizes == {"off": 11, "flat": 11, "two-step": 11}


def test_compression_keeps_a_cover_of_a_frequent_singleton(tmp_path):
    # (4,) has support 11 > sigma * n = 10, and delta = 6 <= 10, so every
    # route must write a superset of it: its absorber's count must not
    # fall to the threshold when it takes a smaller estimate.
    rng = random.Random(55)
    stream = random_stream(rng, rng.randint(20, 80), rng.randint(6, 12), rng.randint(3, 8))
    path = tmp_path / "stream.dat"
    with open(path, "w") as fh:
        write_fimi(stream, fh)
    assert true_support(stream, (4,)) == 11
    tables = {}
    for comp in COMPRESS:
        out = tmp_path / f"{comp}.tsv"
        code = run_cli(
            [
                "--input", str(path),
                "--mode", "baseline",
                "--k", "12",
                "--sigma", "0.4",
                "--backend", "wtree",
                "--compress", comp,
                "--out", str(out),
            ]
        )
        assert code == EXIT_OK
        tables[comp] = read_result(out)
    assert tables["off"] == [Entry((4,), 11, 0)]
    assert tables["flat"] == tables["two-step"] == [Entry((2, 4), 11, 6)]


# options per input: alphabets of 851 and 38 items, far past what a
# power set could list (the oracle's tid-set checks run on any
# alphabet), and delta <= sigma * n on both
WIDE = {
    "sparse": ["--mode", "parasol", "--epsilon", "0.005", "--k", "200", "--sigma", "0.04"],
    "burst": ["--mode", "parasol", "--epsilon", "0.005", "--k", "150", "--sigma", "0.08"],
}
# every --compress route on every backend that takes it
ROUTES = [(b, c) for b in BACKENDS for c in COMPRESS if c != "two-step" or b == "wtree"]


@pytest.mark.parametrize("source", sorted(WIDE))
def test_every_route_covers_the_frequent_itemsets_of_a_wide_alphabet(source, tmp_path, capsys):
    if source == "sparse":
        stream = zipf_stream(11, 2000, 400)
    else:
        stream = burst_stream(11, calm_len=160, burst_len=40, tail_len=280)
    path = tmp_path / "stream.dat"
    with open(path, "w") as fh:
        write_fimi(stream, fh)
    sigma = float(WIDE[source][-1])
    for backend, comp in ROUTES:
        out = tmp_path / "result.tsv"
        code = run_cli(
            [
                "--input", str(path), *WIDE[source],
                "--backend", backend, "--compress", comp,
                "--out", str(out), "--summary-json",
            ]
        )
        assert code == EXIT_OK
        summary = json.loads(capsys.readouterr().out)
        assert not summary["weak_guarantee"]
        rows = read_result(out)
        for e in rows:
            assert e.count - e.err <= true_support(stream, e.alpha) <= e.count, (backend, comp, e)
        assert verify_delta_covered_set(rows, stream, sigma, summary["delta"]), (backend, comp)
        # compression keeps a delta-closed itemset: absorbing it would need
        # a superset whose support is within delta of its own
        assert enumerate_delta_closed(stream, summary["delta"], sigma) <= {e.alpha for e in rows}


def test_summary_json(drop_one_file, capsys):
    code = run_cli(
        [
            "--input", drop_one_file,
            "--mode", "parasol",
            "--epsilon", "0.3",
            "--sigma", "0.6",
            "--summary-json",
        ]
    )
    assert code == EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    assert payload["n"] == 5
    assert payload["mode"] == "parasol"
    assert "weak_guarantee" in payload and "time_ms" in payload


def test_identical_runs_are_byte_identical(drop_one_file, tmp_path):
    texts = []
    for tag in ("a", "b"):
        out = tmp_path / f"out-{tag}.tsv"
        metrics = tmp_path / f"metrics-{tag}.csv"
        assert (
            run_cli(
                [
                    "--input", drop_one_file,
                    "--mode", "parasol",
                    "--epsilon", "0.25",
                    "--k", "15",
                    "--backend", "wtree",
                    "--out", str(out),
                    "--metrics", str(metrics),
                ]
            )
            == EXIT_OK
        )
        texts.append(out.read_text() + metrics.read_text())
    assert texts[0] == texts[1]


def test_usage_errors(drop_one_file, capsys):
    assert run_cli([]) == EXIT_USAGE  # --input/--mode required
    assert run_cli(["--input", drop_one_file, "--mode", "parasol"]) == EXIT_USAGE
    assert run_cli(["--input", drop_one_file, "--mode", "nope"]) == EXIT_USAGE
    assert run_cli(["--input", drop_one_file, "--mode", "baseline", "--k", "x"]) == EXIT_USAGE
    assert run_cli(["--input", drop_one_file, "--mode", "baseline", "--k", "0"]) == EXIT_USAGE
    assert run_cli(["--input", drop_one_file, "--mode", "exact", "--k", "0"]) == EXIT_USAGE
    for mode in ("parasol", "baseline"):
        args = ["--input", drop_one_file, "--mode", mode, "--epsilon", "1.0"]
        assert run_cli(args) == EXIT_USAGE
    for flag, value in (("--sigma", "1.5"), ("--stride", "0")):
        assert run_cli(["--input", drop_one_file, "--mode", "exact", flag, value]) == EXIT_USAGE
    assert (
        run_cli(
            ["--input", drop_one_file, "--mode", "baseline", "--compress", "two-step"]
        )
        == EXIT_USAGE
    )
    capsys.readouterr()


@pytest.mark.parametrize("flag", ["-h", "--help"])
def test_help_prints_usage_to_stdout_and_returns_ok(flag, capsys):
    # main returns after the usage instead of raising argparse's SystemExit
    assert run_cli([flag]) == EXIT_OK
    out = capsys.readouterr()
    assert out.out.startswith("usage: parasol") and "--input" in out.out
    assert out.err == ""


def test_parse_error_exit(tmp_path, capsys):
    bad = tmp_path / "bad.dat"
    bad.write_text("1 2\noops\n")
    assert run_cli(["--input", str(bad), "--mode", "exact"]) == EXIT_PARSE
    assert "line 2" in capsys.readouterr().err


def test_undecodable_byte_is_a_parse_error(tmp_path, capsys):
    bad = tmp_path / "bad.dat"
    bad.write_bytes(b"1 2\n3 \xff 4\n")
    assert run_cli(["--input", str(bad), "--mode", "exact"]) == EXIT_PARSE
    assert "line 2" in capsys.readouterr().err


def test_overlong_item_is_a_parse_error(tmp_path, capsys):
    # one digit past int()'s default limit of 4,300
    bad = tmp_path / "bad.dat"
    bad.write_text("1 2\n1 " + "9" * 4_301 + "\n")
    assert run_cli(["--input", str(bad), "--mode", "exact"]) == EXIT_PARSE
    assert "line 2" in capsys.readouterr().err


def test_io_error_exit(tmp_path, capsys):
    missing = tmp_path / "nope.dat"
    assert run_cli(["--input", str(missing), "--mode", "exact"]) == EXIT_IO
    capsys.readouterr()


@pytest.mark.parametrize("flag", ["--out", "--metrics"])
def test_empty_output_path_is_an_io_error(drop_one_file, flag, capsys):
    # an empty path names no file: it must fail to open, not write nothing
    assert run_cli(["--input", drop_one_file, "--mode", "exact", flag, ""]) == EXIT_IO
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("flag", ["--input", "--out", "--metrics"])
def test_path_with_nul_is_an_io_error(drop_one_file, flag, capsys):
    # open() rejects a NUL byte with ValueError, not OSError; only an
    # in-process caller can pass one, but it is still a bad path. The
    # last --input wins, so for that flag the NUL path replaces the file
    assert run_cli(["--input", drop_one_file, "--mode", "exact", flag, "a\x00b"]) == EXIT_IO
    assert "error:" in capsys.readouterr().err


# every flag the parser defines, --help included
FLAGS = [a.option_strings[-1] for a in build_parser()._actions]
PATH_FLAGS = ("--input", "--out", "--metrics")
INPUT = "input.dat"
# no path separator anywhere: run from tmp_path, a path names a file in it
TEXT = st.text(st.characters(blacklist_characters="/"), max_size=8)
NAMES = st.one_of(st.sampled_from([INPUT, "out.tsv", "", "in\x00put.dat"]), TEXT)
# a valid value for each flag that takes one, beside arbitrary text
VALID = {
    "--mode": MODES,
    "--backend": BACKENDS,
    "--compress": COMPRESS,
    "--k": ("1", "3", "unbounded"),
    "--epsilon": ("0", "0.5"),
    "--sigma": ("0", "0.5", "1"),
    "--stride": ("1", "3"),
}
NUMBERS = st.one_of(st.integers(-3, 2**40).map(str), st.floats().map(str))


def _flag_and_value(flag):
    if flag in ("--summary-json", "--help"):
        return st.just((flag,))
    if flag in PATH_FLAGS:
        value = NAMES
    else:
        value = st.one_of(st.sampled_from(VALID[flag]), NUMBERS | TEXT)
    return value.map(lambda v: (flag, v))


ITEM_LINE = st.lists(st.integers(0, 2**33), max_size=6).map(
    lambda xs: " ".join(map(str, xs)).encode()
)


@settings(
    max_examples=500,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(
    lines=st.lists(st.one_of(ITEM_LINE, st.binary(max_size=16)), max_size=8),
    pairs=st.lists(st.sampled_from(FLAGS).flatmap(_flag_and_value), max_size=4),
)
def test_every_argv_ends_in_a_documented_exit_code(
    tmp_path, monkeypatch, lines, pairs
):
    monkeypatch.chdir(tmp_path)
    (tmp_path / INPUT).write_bytes(b"\n".join(lines))
    argv = ["--input", INPUT, "--mode", "exact"]  # later flags override these
    for pair in pairs:
        argv.extend(pair)
    assert main(argv) in (EXIT_OK, EXIT_USAGE, EXIT_PARSE, EXIT_IO)
