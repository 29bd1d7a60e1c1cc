import json

import pytest

from parasol import Transaction, write_fimi
from parasol.cli import EXIT_IO, EXIT_OK, EXIT_PARSE, EXIT_USAGE, main

from helpers import DROP_ONE_PLUS


@pytest.fixture
def drop_one_file(tmp_path):
    path = tmp_path / "stream.dat"
    with open(path, "w") as fh:
        write_fimi(DROP_ONE_PLUS, fh)
    return str(path)


def run_cli(args):
    return main(args)


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


def test_io_error_exit(tmp_path, capsys):
    missing = tmp_path / "nope.dat"
    assert run_cli(["--input", str(missing), "--mode", "exact"]) == EXIT_IO
    capsys.readouterr()
