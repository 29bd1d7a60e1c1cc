"""Command-line front end: replay a transaction file, write results and metrics.

Exit codes: 0 success, 1 usage error, 2 parse error, 3 I/O error (a path
that cannot be opened, one holding a NUL byte included).
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from typing import IO

from . import compress as compress_mod
from . import engine, fimi

MODES = ("baseline", "parasol", "exact")
BACKENDS = tuple(engine.BACKENDS)
COMPRESS = ("off", "flat")

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_PARSE = 2
EXIT_IO = 3


class UsageError(ValueError):
    pass


def _check(args: argparse.Namespace) -> None:
    """Reject option combinations that argparse alone cannot rule out."""
    if args.mode == "parasol" and args.epsilon is None:
        raise UsageError("parasol mode requires --epsilon")
    if args.epsilon is not None and not 0.0 <= args.epsilon < 1.0:
        raise UsageError("epsilon must lie in [0, 1)")
    if not 0.0 <= args.sigma <= 1.0:
        raise UsageError("sigma must lie in [0, 1]")
    if args.stride < 1:
        raise UsageError("stride must be positive")


def _open(path: str, mode: str, **kwargs: str) -> IO[str]:
    """open() a UTF-8 text file; a path open() rejects outright is an OSError too."""
    try:
        return open(path, mode, encoding="utf-8", **kwargs)
    except ValueError as exc:  # "embedded null byte"
        raise OSError(f"{path!r}: {exc}") from None


def run(args: argparse.Namespace) -> int:
    """Mine the input file with `engine.replay`, then compress, query and write.

    Takes arguments `_check` has passed, so the state that `replay` builds
    once the input is open cannot reject them. Returns a process exit code.
    """
    k = math.inf if args.mode == "exact" else args.k  # exact: nothing is ever evicted
    epsilon = args.epsilon if args.mode == "parasol" else 0.0
    stats = fimi.ParseStats()

    started = time.perf_counter()
    try:
        # an undecodable byte becomes a token that fails to parse on its own line
        with _open(args.input, "r", errors="surrogateescape") as fh:
            state = engine.replay(fimi.parse_fimi(fh, stats), k, epsilon, args.backend)
    except fimi.ParseError as exc:
        print(f"error: {args.input}: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    elapsed_ms = (time.perf_counter() - started) * 1000.0

    k_n = len(state.table)  # the mined size: compression summarises, it never trims the table
    if args.compress == "flat":
        final_entries = compress_mod.delta_compress(state.snapshot(), state.delta)
    else:
        final_entries = state.snapshot()
    result = engine.answer(final_entries, args.sigma, state.i, state.delta)

    try:
        if args.out is not None:  # an empty path fails to open like any bad path
            with _open(args.out, "w") as fh:
                fimi.write_result(result.entries, fh)
        if args.metrics is not None:
            with _open(args.metrics, "w") as fh:
                samples = ((s.i, s.post_size, s.delta) for s in state.steps)
                fimi.write_metrics(samples, fh, stride=args.stride)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO

    n = state.i
    ratio = state.delta / n if n else 0.0
    if args.summary_json:
        print(
            json.dumps(
                {
                    "n": n,
                    "k_n": k_n,
                    "delta": state.delta,
                    "ratio": ratio,
                    "time_ms": round(elapsed_ms, 3),
                    "weak_guarantee": result.weak_guarantee,
                    "result_rows": len(result.entries),
                    "skipped_lines": stats.skipped,
                    "mode": args.mode,
                    "backend": args.backend,
                    "compress": args.compress,
                }
            )
        )
    else:
        print(
            f"n={n} k(n)={k_n} delta={state.delta} "
            f"ratio={ratio:g} time_ms={elapsed_ms:.3f}"
        )
    return EXIT_OK


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # type: ignore[override]
        raise UsageError(message)


def _parse_k(text: str) -> float:
    try:
        k = math.inf if text == "unbounded" else int(text)
        if k >= 1:
            return k
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"k must be a positive integer or 'unbounded', not {text!r}")


def build_parser() -> _Parser:
    p = _Parser(prog="parasol", description=__doc__)
    p.add_argument("--input", required=True, help="transaction file, one per line")
    p.add_argument("--mode", required=True, choices=MODES)
    p.add_argument("--k", type=_parse_k, default="unbounded", help="entry budget (int or 'unbounded')")
    p.add_argument("--epsilon", type=float, default=None, help="error parameter")
    p.add_argument("--sigma", type=float, default=0.0, help="query support threshold")
    p.add_argument("--backend", default="flat", choices=BACKENDS)
    p.add_argument("--compress", default="off", choices=COMPRESS)
    p.add_argument("--metrics", default=None, help="write time-series CSV here")
    p.add_argument("--out", default=None, help="write the result table here")
    p.add_argument("--stride", type=int, default=1, help="metrics sampling stride")
    p.add_argument("--summary-json", action="store_true", help="JSON summary on stdout")
    return p


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        _check(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except SystemExit:  # only --help exits the parser, after printing the usage
        return EXIT_OK
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
