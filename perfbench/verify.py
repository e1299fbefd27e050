"""Per-op output checks of the quatspin benchmark.

Every check raises ``Failed`` with a one-line reason, or returns the
number of output rows it verified.  The bounds are the acceptance bounds
of ``tests/test_acceptance.py``: AC2 (1e-6 against the closed form, 1e-9
norm drift), AC3 (p_down within 1e-12 of its closed form, and
p_down + p_up = 1 within 1e-12) and AC7 (invariants within 1e-10 of the
field scale).  Table checks use only the standard library, so the ``cli``
workload process never imports quatspin.
"""

from __future__ import annotations

import json
import math
import os

TRAJ_HEADER = ["step", "t", "s0", "sx", "sy", "sz", "px", "py", "pz", "px_mid", "py_mid", "pz_mid"]
LORENTZ_NAMES = ("i1_rel_err", "i2_rel_err", "closed_vs_conj", "w0_change")
EM_NAMES = ("gauss_b", "faraday", "ampere", "gauss_e", "wave")
KINDS = ["pms", "helical", "resonance-curve", "em-check", "lorentz-check"]
TRACEBACK = "Traceback (most recent call last)"
ESCAPED = "escaped.csv"

AC2_STATE = 1e-6
AC2_NORM = 1e-9
AC3_SUM = 1e-12
AC7_INVARIANT = 1e-10


class Failed(Exception):
    """An op whose output broke the documented contract."""


def check(cond: bool, reason: str):
    if not cond:
        raise Failed(reason)


def _table(data: bytes, fmt: str) -> tuple[list, list]:
    try:
        text = data.decode("utf-8")
        if fmt == "json":
            doc = json.loads(text)
            return doc["columns"], doc["rows"]
        check(text.endswith("\n") and "\r" not in text, "csv is not LF-terminated")
        lines = text[:-1].split("\n")
        return lines[0].split(","), [[_cell(cell) for cell in line.split(",")] for line in lines[1:]]
    except (UnicodeDecodeError, ValueError, KeyError, TypeError) as err:
        raise Failed(f"unparseable {fmt} table: {err}") from None


def _cell(text: str):
    try:
        return float(text)
    except ValueError:
        return text


def _unit(vec, tol: float, what: str):
    err = abs(math.fsum(x * x for x in vec) - 1.0)
    check(err <= tol, f"{what} norm drift {err:.3g} > {tol:g}")


def helical_table(params: dict, data: bytes, polarization) -> int:
    """Helical trajectory against ``polarization(t) -> (px, py, pz)`` from the closed form."""
    columns, rows = _table(data, "csv")
    check(columns == TRAJ_HEADER, f"header {columns}")
    n_steps = max(1, math.ceil(params["t_max"] / params["dt"] - 1e-12))
    check(len(rows) == n_steps + 1, f"{len(rows)} rows, expected {n_steps + 1}")
    prev_t = -math.inf
    for i, row in enumerate(rows):
        check(len(row) == 12 and row[0] == i, f"row {i} malformed")
        check(row[1] > prev_t, f"row {i}: time not increasing")
        prev_t = row[1]
        _unit(row[2:6], AC2_NORM, f"row {i} state")
        check(row[6:9] == row[9:12], f"row {i}: mid columns differ from the point")
    check(rows[-1][1] == params["t_max"], "last row is not at t_max")
    for i in sorted({*range(0, len(rows), max(1, len(rows) // 8)), len(rows) - 1}):
        exact = polarization(rows[i][1])
        err = max(abs(a - b) for a, b in zip(rows[i][6:9], exact))
        check(err <= AC2_STATE, f"row {i}: polarization off the closed form by {err:.3g}")
    return len(rows)


def lorentz_table(params: dict, data: bytes) -> int:
    columns, rows = _table(data, "json")
    check(columns == ["case", "name", "value"], f"columns {columns}")
    check(len(rows) == 4 * params["n_cases"], f"{len(rows)} rows, expected {4 * params['n_cases']}")
    for k, (case, name, value) in enumerate(rows):
        check(case == k // 4 and name == LORENTZ_NAMES[k % 4], f"row {k} out of order")
        check(isinstance(value, float) and math.isfinite(value) and value >= 0.0, f"row {k}: bad value {value!r}")
        if k % 4 < 2:
            check(value <= AC7_INVARIANT, f"case {case}: {name} {value:.3g} > {AC7_INVARIANT:g}")
    return len(rows)


def flip_probability(t_pass: float, gamma: float, delta: float) -> float:
    """G^2/(G^2 + D^2) sin^2(t_pass sqrt(G^2 + D^2) / 2), the closed form of the spin-down probability."""
    w_sq = gamma * gamma + delta * delta
    return gamma * gamma / w_sq * math.sin(0.5 * t_pass * math.sqrt(w_sq)) ** 2


def resonance_table(params: dict, data: bytes, fmt: str) -> int:
    columns, rows = _table(data, fmt)
    check(columns == ["delta", "p_down", "p_up"], f"columns {columns}")
    check(len(rows) == params["n_points"], f"{len(rows)} rows, expected {params['n_points']}")
    check(rows[0][0] == params["delta_min"] and rows[-1][0] == params["delta_max"], "grid endpoints moved")
    prev = -math.inf
    for k, (delta, p_down, p_up) in enumerate(rows):
        check(delta > prev, f"row {k}: detuning not increasing")
        prev = delta
        exact = flip_probability(params["t_pass"], params["gamma"], delta)
        check(abs(p_down - exact) <= AC3_SUM, f"row {k}: p_down off the closed form by {abs(p_down - exact):.3g}")
        err = abs(p_down + p_up - 1.0)
        check(err <= AC3_SUM, f"row {k}: p_down + p_up off 1 by {err:.3g}")
    return len(rows)


def pms_table(params: dict, data: bytes) -> int:
    columns, rows = _table(data, "csv")
    check(columns == TRAJ_HEADER, f"header {columns}")
    expected = 2 * params["n_blocks"] + 2
    check(len(rows) == expected, f"{len(rows)} rows, expected {expected}")
    check(rows[0][6:9] == [0.0, 0.0, 1.0], "chain does not start at the pole")
    for i, row in enumerate(rows):
        check(len(row) == 12 and row[0] == i, f"row {i} malformed")
        _unit(row[2:6], AC2_NORM, f"row {i} state")
        _unit(row[6:9], AC2_NORM, f"row {i} polarization")
    return len(rows)


def em_table(params: dict, data: bytes) -> int:
    columns, rows = _table(data, "csv")
    check(columns == ["h", "residual_name", "value"], f"header {columns}")
    check(len(rows) == 5 * params["n_levels"], f"{len(rows)} rows, expected {5 * params['n_levels']}")
    for k, (h, name, value) in enumerate(rows):
        check(h == params["h0"] / 2.0 ** (k // 5) and name == EM_NAMES[k % 5], f"row {k} out of order")
        check(math.isfinite(value) and value >= 0.0, f"row {k}: bad residual {value!r}")
    return len(rows)


CLI_TABLES = {
    "pms": pms_table,
    "em-check": em_table,
    "resonance-curve": lambda p, data: resonance_table(p, data, "csv"),
}


def cli_result(op: dict, code: int, stdout: str, stderr: str, out_dir: str) -> tuple[int, bytes]:
    """Check one CLI invocation; returns (rows, table bytes)."""
    escaped = os.path.join(os.path.dirname(out_dir), ESCAPED)
    wrote_outside = os.path.exists(escaped)
    if wrote_outside:
        os.remove(escaped)
    check(TRACEBACK not in stderr, f"exit {code} with a traceback")
    check(not wrote_outside, f"exit {code}, wrote {ESCAPED} outside --out")
    kind = op["kind"]
    if kind == "probe":
        check(code in (2, 3), f"exit {code}, expected 2 or 3")
        return 0, b""
    if kind == "invalid":
        check(code == 2, f"exit {code}, expected 2")
        listed = [line for line in stderr.splitlines() if line.startswith("error: ")]
        missing = [frag for frag in op["errors"] if not any(frag in line for line in listed)]
        check(not missing, f"error report misses {missing}")
        check(len(listed) == len(op["errors"]), f"{len(listed)} errors listed, expected {len(op['errors'])}")
        return 0, b""
    check(code == 0, f"exit {code}, expected 0")
    if kind == "list-kinds":
        check(stdout.split() == KINDS, f"list-kinds printed {stdout.split()}")
        return 0, b""
    if kind == "validate":
        check(stdout.startswith("ok: "), "validate did not report ok")
        return 0, b""
    try:
        with open(os.path.join(out_dir, op["table"]), "rb") as fh:
            data = fh.read()
    except OSError as err:
        raise Failed(f"no output table: {err}") from None
    return CLI_TABLES[kind](op["params"], data), data
