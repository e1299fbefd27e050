"""Command-line front end: run scenario files, validate them, list kinds.

Exit codes: 0 success, 2 configuration error (malformed, non-UTF-8 or
invalid scenario files, or parameters the library rejects), 3 I/O error.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys

from .scenarios import KINDS, OUT_DIR_ENV, ConfigError, load_scenario, run_scenario

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_IO = 3


def _thread_count(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be an integer >= 1, got {text!r}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="quatspin", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run a scenario file and write its output table")
    run.add_argument("scenario", help="path to a flat key = value scenario file")
    run.add_argument("--out", default=None, help=f"output directory (default: ${OUT_DIR_ENV} or '.')")
    run.add_argument("--threads", type=_thread_count, default=None, metavar="N",
                     help="an integer >= 1, ignored: every sweep runs in the calling thread")
    run.add_argument("--format", choices=("csv", "json"), default=None, help="override the scenario's output format")

    val = sub.add_parser("validate", help="check a scenario file and report every problem")
    val.add_argument("scenario", help="path to a scenario file")

    sub.add_parser("list-kinds", help="print the recognized scenario kinds")
    return parser


def _config_error(err: ValueError) -> int:
    for line in err.errors if isinstance(err, ConfigError) else [f"{type(err).__name__}: {err}"]:
        print(f"error: {line}", file=sys.stderr)
    return EXIT_CONFIG


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)

    if args.command == "list-kinds":
        for kind in KINDS:
            print(kind)
        return EXIT_OK

    try:
        scenario = load_scenario(args.scenario)
    except OSError as err:
        print(f"error: cannot read scenario: {err}", file=sys.stderr)
        return EXIT_IO
    except ValueError as err:  # ConfigError, or UnicodeDecodeError for a non-UTF-8 file
        return _config_error(err)

    if args.command == "validate":
        print(f"ok: {args.scenario} is a valid {scenario.kind!r} scenario")
        return EXIT_OK

    if args.format and args.format != scenario.fmt:
        output = scenario.output
        stem, dot, ext = output.rpartition(".")
        if dot and ext in ("csv", "json"):
            output = f"{stem}.{args.format}"
        scenario = dataclasses.replace(scenario, output=output, fmt=args.format)

    try:
        report = run_scenario(scenario, out_dir=args.out or os.environ.get(OUT_DIR_ENV) or ".", threads=args.threads)
    except OSError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_IO
    except ValueError as err:  # a constraint only the library checks, e.g. StepTooLarge
        return _config_error(err)

    for line in report.lines():
        print(line)
    return EXIT_OK


if __name__ == "__main__":
    raise SystemExit(main())
