"""Command-line front end: run scenario files, validate them, list kinds.

Exit codes: 0 success, 2 configuration error (malformed, non-UTF-8 or
invalid scenario files, or parameters the library rejects), 3 I/O error,
including stdout or stderr that cannot be written.
"""

import argparse
import os
import sys

# the schema needs only the standard library; numpy comes with the runners, once a scenario has validated
from .schema import FORMATS, KINDS, OUT_DIR_ENV, ConfigError, load_scenario

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


class _Parser(argparse.ArgumentParser):
    def _print_message(self, message, file=None):
        # usage, help and error text goes through _report too: argparse's own writer drops a failed write
        if message and _report(file or sys.stderr, [message.removesuffix("\n")], EXIT_OK) == EXIT_IO:
            raise SystemExit(EXIT_IO)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="quatspin", description=__doc__)  # add_subparsers builds its parsers as _Parser too
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run a scenario file and write its output table")
    run.add_argument("scenario", help="path to a flat key = value scenario file")
    run.add_argument("--out", default=None, help=f"output directory (default: ${OUT_DIR_ENV} or '.')")
    run.add_argument("--threads", type=_thread_count, default=None, metavar="N",
                     help="an integer >= 1, ignored: every sweep runs in the calling thread")
    run.add_argument("--format", choices=FORMATS, default=None, help="override the scenario's output format")

    val = sub.add_parser("validate", help="check a scenario file and report every problem")
    val.add_argument("scenario", help="path to a scenario file")

    sub.add_parser("list-kinds", help="print the recognized scenario kinds")
    return parser


def _report(stream, lines, code: int) -> int:
    """Write lines to stdout or stderr and return the exit code: code, or EXIT_IO if they could not be written."""
    try:
        stream.write("".join(f"{line}\n" for line in lines))
        stream.flush()  # a failed write raises here, not at exit
    except OSError as err:
        # what stays buffered goes to os.devnull, or the interpreter's final flush fails again
        # (Python docs, signal module, "Note on SIGPIPE"); an in-memory stream has no descriptor
        devnull = os.open(os.devnull, os.O_WRONLY)
        try:
            os.dup2(devnull, stream.fileno())
        except OSError:
            pass
        os.close(devnull)
        if stream is not sys.stderr:
            _report(sys.stderr, [f"error: cannot write output: {err}"], EXIT_IO)
        return EXIT_IO
    return code


def _config_error(err: ValueError) -> int:
    lines = err.errors if isinstance(err, ConfigError) else [f"{type(err).__name__}: {err}"]
    return _report(sys.stderr, [f"error: {line}" for line in lines], EXIT_CONFIG)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)

    if args.command == "list-kinds":
        return _report(sys.stdout, KINDS, EXIT_OK)

    try:
        scenario = load_scenario(args.scenario)
    except OSError as err:
        return _report(sys.stderr, [f"error: cannot read scenario: {err}"], EXIT_IO)
    except ValueError as err:  # ConfigError, or UnicodeDecodeError for a non-UTF-8 file
        return _config_error(err)

    if args.command == "validate":
        return _report(sys.stdout, [f"ok: {args.scenario} is a valid {scenario.kind!r} scenario"], EXIT_OK)

    if args.format and args.format != scenario.fmt:
        output = scenario.output
        stem, dot, ext = output.rpartition(".")
        if dot and ext in FORMATS:
            output = f"{stem}.{args.format}"
        scenario = scenario._replace(output=output, fmt=args.format)

    from .scenarios import run_scenario

    try:
        report = run_scenario(scenario, out_dir=args.out or os.environ.get(OUT_DIR_ENV) or ".")
    except OSError as err:
        return _report(sys.stderr, [f"error: {err}"], EXIT_IO)
    except ValueError as err:  # a constraint only the library checks, e.g. StepTooLarge
        return _config_error(err)

    # the table is written: a report that cannot be printed still exits 3
    return _report(sys.stdout, report.lines(), EXIT_OK)


if __name__ == "__main__":
    raise SystemExit(main())
