"""Command-line front end: run scenario files, validate them, list kinds.

  run SCENARIO [--out DIR] [--format {csv,json}] [--threads N]   run a scenario file and write its output table
      into DIR (default: $QUATSPIN_OUT_DIR or '.'); N must be an integer >= 1, and is ignored
  validate SCENARIO   check a scenario file and report every problem
  list-kinds          print the recognized scenario kinds

Options come before or after the scenario, as --opt VALUE or --opt=VALUE; the last of a repeated option counts, and
-- ends them.  Exit codes: 0 success, 2 usage or configuration error (every problem of a scenario is listed), 3 I/O
error, including stdout or stderr that cannot be written, or a run out of memory.
"""

import os
import sys

# the schema needs only the standard library; numpy comes with the runners, once a scenario has validated
from .schema import FORMATS, KINDS, OUT_DIR_ENV, ConfigError, load_scenario

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_IO = 3

# each command's usage line; only run takes options, and each of them takes a value
_USAGE = {None: "quatspin [-h] {run,validate,list-kinds} ...",
          "run": f"quatspin run [-h] [--out DIR] [--format {{{','.join(FORMATS)}}}] [--threads N] SCENARIO",
          "validate": "quatspin validate [-h] SCENARIO", "list-kinds": "quatspin list-kinds [-h]"}


def _is_thread_count(text: str) -> bool:
    try:
        return int(text) >= 1
    except ValueError:
        return False


def _parse(argv) -> tuple:
    """The command, its scenario path (None for list-kinds) and its options {name: value}, read from argv as the
    module's docstring says.  Help and a usage error end in SystemExit, after their lines are written."""
    command, paths, options, tokens = None, [], {}, iter(argv)

    def fail(message):  # a line break that str.splitlines sees in a token is written escaped: one error line
        message = message.translate({ord(c): repr(c)[1:-1] for c in "\n\r\v\f\x1c\x1d\x1e\x85\u2028\u2029"})
        raise SystemExit(_report(sys.stderr, [f"usage: {_USAGE[command]}", f"quatspin: error: {message}"],
                                 EXIT_CONFIG))

    for token in tokens:
        if token in ("-h", "--help"):
            raise SystemExit(_report(sys.stdout, [f"usage: {_USAGE[command]}", "", *(__doc__ or "").splitlines()],
                                     EXIT_OK))
        if token == "--":
            paths += tokens
        elif token.startswith("-") and token != "-":
            name, eq, value = token.partition("=")
            if command != "run" or name not in ("--out", "--format", "--threads"):
                fail(f"unrecognized arguments: {token}")
            value = value if eq else next(tokens, None)
            if value is None:
                fail(f"argument {name}: expected one argument")
            if name == "--format" and value not in FORMATS:
                fail(f"argument --format: invalid choice: {value!r} (choose from {', '.join(map(repr, FORMATS))})")
            if name == "--threads" and not _is_thread_count(value):
                fail(f"argument --threads: must be an integer >= 1, got {value!r}")
            options[name] = value
        elif command is None and token not in _USAGE:
            fail(f"argument command: invalid choice: {token!r} (choose from 'run', 'validate', 'list-kinds')")
        elif command is None:
            command = token
        else:
            paths.append(token)
    wanted = int(command != "list-kinds")  # the one scenario path of run and validate
    if command is None or len(paths) < wanted:
        fail(f"the following arguments are required: {'scenario' if command else 'command'}")
    if len(paths) > wanted:
        fail(f"unrecognized arguments: {' '.join(paths[wanted:])}")
    return command, (paths or [None])[0], options


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
    command, path, options = _parse(sys.argv[1:] if argv is None else argv)

    if command == "list-kinds":
        return _report(sys.stdout, KINDS, EXIT_OK)

    try:
        scenario = load_scenario(path)
    except OSError as err:
        return _report(sys.stderr, [f"error: cannot read scenario: {err}"], EXIT_IO)
    except ValueError as err:  # ConfigError, or UnicodeDecodeError for a non-UTF-8 file
        return _config_error(err)

    if command == "validate":
        return _report(sys.stdout, [f"ok: {path} is a valid {scenario.kind!r} scenario"], EXIT_OK)

    fmt = options.get("--format", scenario.fmt)
    if fmt != scenario.fmt:  # a .csv or .json output name takes the format's extension
        stem, dot, ext = scenario.output.rpartition(".")
        output = f"{stem}.{fmt}" if dot and ext in FORMATS else scenario.output
        scenario = scenario._replace(output=output, fmt=fmt)

    from .scenarios import run_scenario

    try:
        report = run_scenario(scenario, out_dir=options.get("--out") or os.environ.get(OUT_DIR_ENV) or ".")
    except OSError as err:
        return _report(sys.stderr, [f"error: {err}"], EXIT_IO)
    except MemoryError:  # no table lands, as after any other failed run
        return _report(sys.stderr, ["error: out of memory during the run"], EXIT_IO)
    except ValueError as err:  # a constraint only the library checks, e.g. StepTooLarge
        return _config_error(err)

    # the table is written: a report that cannot be printed still exits 3
    return _report(sys.stdout, report.lines(), EXIT_OK)


def entry():
    """Process entry of ``quatspin`` and ``python -m quatspin.cli``: main(), a flush, then os._exit.

    os._exit skips the interpreter's teardown (tens of milliseconds once numpy is loaded).  Nothing is left to
    do at exit: main has landed its table, and quatspin starts no thread and registers no atexit hook.  A tool
    that writes at exit, such as a profiler or coverage, calls main() instead.
    """
    try:
        code = main()
    except SystemExit as stop:  # after help or a usage error
        code = stop.code
    for stream in (sys.stdout, sys.stderr):  # _report flushed every line; a flush failing here still exits 3
        code = _report(stream, [], code)
    os._exit(code)


if __name__ == "__main__":
    entry()
