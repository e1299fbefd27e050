"""Declarative scenario runner behind the command-line front end.

A scenario is one flat key = value file (``#`` comments allowed) naming a
kind plus its parameters; running one produces a single plot-ready CSV or
JSON table and a summary report.  Output is deterministic: a fixed scenario
and seed reproduce byte-identical files.
"""

from __future__ import annotations

import itertools
import json
import math
import os
import time
from dataclasses import dataclass

import numpy as np

from . import emfield, lorentz, spin
from .quaternion import rotate_batch

KINDS = ("pms", "helical", "resonance-curve", "em-check", "lorentz-check")
EM_CASES = ("plane-wave", "point-charge", "constant")
OUT_DIR_ENV = "QUATSPIN_OUT_DIR"


class ConfigError(ValueError):
    """Invalid scenario document; carries every violation, not just the first."""

    def __init__(self, errors):
        self.errors = list(errors)
        super().__init__("; ".join(self.errors))


@dataclass(frozen=True)
class Scenario:
    """Validated scenario: kind, typed params, output name/format, sweep seed."""

    kind: str
    params: dict
    seed: int
    output: str
    fmt: str


@dataclass(frozen=True)
class RunReport:
    """Echo of the scenario plus summary statistics and the emitted files."""

    scenario: Scenario
    summary: dict
    outputs: list[str]
    duration_s: float

    def lines(self) -> list[str]:
        summary = [f"{key}: {self.summary[key]!r}" for key in sorted(self.summary)]
        return [f"kind: {self.scenario.kind}", f"seed: {self.scenario.seed}", *summary,
                *(f"wrote: {path}" for path in self.outputs), f"duration_s: {self.duration_s:.3f}"]


# ---------------------------------------------------------------------------
# parsing and validation


def parse_scenario_text(text: str) -> dict:
    """Parse flat ``key = value`` lines into a raw string-keyed dict."""
    raw = {}
    errors = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            errors.append(f"line {lineno}: expected 'key = value', got {stripped!r}")
            continue
        key, value = (part.strip() for part in stripped.split("=", 1))
        if not key:
            errors.append(f"line {lineno}: empty key")
            continue
        if key in raw:
            errors.append(f"line {lineno}: duplicate key {key!r}")
            continue
        raw[key] = _parse_value(value)
    if errors:
        raise ConfigError(errors)
    return raw


def _parse_value(text: str):
    low = text.lower()
    if low in ("true", "false"):
        return low == "true"
    try:
        return int(text)
    except ValueError:
        pass
    try:
        return float(text)
    except ValueError:
        pass
    return text


@dataclass(frozen=True)
class _Field:
    name: str
    kind: type
    required: bool = True
    default: object = None
    check: object = None
    expect: str = ""


def _finite(x):
    return math.isfinite(x)


_COMMON = (
    _Field("seed", int, required=False, default=0),
    # a directory part could put the table outside the output directory; empty selects the default name
    _Field("output", str, required=False, default=None,
           check=lambda v: v == "" or (v not in (".", "..") and "/" not in v and "\\" not in v),
           expect="a bare file name (no directory part, not '.' or '..')"),
    _Field("format", str, required=False, default="csv", check=lambda v: v in ("csv", "json"),
           expect="one of csv, json"),
)

_SCHEMAS = {
    "pms": (
        _Field("xi1", float, check=_finite, expect="finite"),
        _Field("xi2", float, check=_finite, expect="finite"),
        _Field("theta", float, check=_finite, expect="finite"),
        _Field("n_blocks", int, check=lambda v: v >= 0, expect=">= 0"),
    ),
    "helical": (
        _Field("gamma", float, check=lambda v: _finite(v) and v >= 0, expect="finite and >= 0"),
        _Field("delta", float, check=_finite, expect="finite"),
        _Field("omega", float, check=_finite, expect="finite"),
        _Field("t_max", float, check=lambda v: _finite(v) and v > 0, expect="> 0"),
        _Field("dt", float, check=lambda v: _finite(v) and v > 0, expect="> 0"),
        _Field("sign", int, required=False, default=1, check=lambda v: v in (1, -1), expect="1 or -1"),
    ),
    "resonance-curve": (
        _Field("gamma", float, check=lambda v: _finite(v) and v >= 0, expect="finite and >= 0"),
        _Field("delta_min", float, check=_finite, expect="finite"),
        _Field("delta_max", float, check=_finite, expect="finite"),
        _Field("n_points", int, check=lambda v: v >= 2, expect=">= 2"),
        _Field("t_pass", float, check=lambda v: _finite(v) and v >= 0, expect=">= 0"),
    ),
    "em-check": (
        _Field("case", str, check=lambda v: v in EM_CASES, expect="one of " + ", ".join(EM_CASES)),
        _Field("h0", float, required=False, default=0.02, check=lambda v: _finite(v) and v > 0, expect="> 0"),
        _Field("n_levels", int, required=False, default=3, check=lambda v: 1 <= v <= 12, expect="1..12"),
    ),
    "lorentz-check": (
        _Field("n_cases", int, required=False, default=1000, check=lambda v: v >= 1, expect=">= 1"),
        _Field("max_generators", int, required=False, default=5, check=lambda v: 1 <= v <= 5, expect="1..5"),
        # five boosts at rapidity 50 keep the squared field scale finite
        _Field("rapidity_max", float, required=False, default=2.0,
               check=lambda v: 0 < v <= 50, expect="in (0, 50]"),
    ),
}


def _coerce(field: _Field, value):
    if field.kind is float and isinstance(value, int) and not isinstance(value, bool):
        return float(value)
    if isinstance(value, bool) and field.kind is not bool:
        return None
    if not isinstance(value, field.kind):
        return None
    return value


def validate_scenario(raw: dict) -> Scenario:
    """Type and range-check a raw document; raises ConfigError naming every problem."""
    errors = []
    kind = raw.get("kind")
    if kind is None:
        errors.append("missing required key 'kind'")
    elif kind not in KINDS:
        errors.append(f"unknown kind {kind!r}; allowed kinds: {', '.join(KINDS)}")

    fields = _COMMON + _SCHEMAS.get(kind, ())
    known = {"kind"} | {f.name for f in fields}
    for key in sorted(raw):
        if key not in known:
            errors.append(f"unknown key {key!r}")

    values = {}
    for f in fields:
        if f.name not in raw:
            if f.required:
                errors.append(f"missing required key {f.name!r}")
            else:
                values[f.name] = f.default
            continue
        value = _coerce(f, raw[f.name])
        if value is None:
            errors.append(f"key {f.name!r}: expected {f.kind.__name__}, got {raw[f.name]!r}")
            continue
        if f.check is not None and not f.check(value):
            errors.append(f"key {f.name!r}: value {value!r} must be {f.expect}")
            continue
        values[f.name] = value

    if kind == "resonance-curve" and "delta_min" in values and "delta_max" in values:
        if not values["delta_max"] > values["delta_min"]:
            errors.append("key 'delta_max': must be greater than delta_min")

    if errors:
        raise ConfigError(errors)

    fmt = values.pop("format")
    seed = values.pop("seed")
    output = values.pop("output") or f"{kind}.{fmt}"
    return Scenario(kind=kind, params=values, seed=seed, output=output, fmt=fmt)


def load_scenario(path: str) -> Scenario:
    with open(path, "r", encoding="utf-8") as fh:
        return validate_scenario(parse_scenario_text(fh.read()))


# ---------------------------------------------------------------------------
# runners


_TRAJ_COLUMNS = ("step", "t", "s0", "sx", "sy", "sz", "px", "py", "pz", "px_mid", "py_mid", "pz_mid")


def _run_pms(scn: Scenario):
    p = scn.params
    cfg = spin.PmsConfig(n_blocks=p["n_blocks"], xi1=p["xi1"], xi2=p["xi2"], theta=p["theta"])
    p0 = np.array([0.0, 0.0, 1.0])
    traj = spin.pms_propagate(cfg, p0)
    base, mid = traj.polar[:, 0], traj.polar[:, 1]
    base_rows = np.concatenate([traj.states, base, mid], axis=1).tolist()
    mid_rows = np.concatenate([traj.mid_states, mid, mid], axis=1).tolist()
    rows = [row for n, (at_base, at_mid) in enumerate(zip(base_rows, mid_rows))
            for row in ([2 * n, float(n), *at_base], [2 * n + 1, n + 0.5, *at_mid])]
    closure = float(np.linalg.norm(traj.polar[-1, 0] - p0))
    return _TRAJ_COLUMNS, rows, {"closure_distance": closure, "resonant_geometry": float(cfg.is_resonant(1e-9))}


def _run_helical(scn: Scenario):
    p = scn.params
    params = spin.HelicalParams(gamma_width=p["gamma"], delta_detune=p["delta"], omega_drive=p["omega"])
    traj = spin.integrate_spin(spin.helical_field(params), spin.IDENTITY, (0.0, p["t_max"]), p["dt"])
    # sign -1 reads the polarization from the conjugate states (the reversed rotation)
    readout = traj.states if p["sign"] > 0 else traj.states * np.array([1.0, -1.0, -1.0, -1.0])
    pvec = rotate_batch(readout, np.array([0.0, 0.0, 1.0]))
    rows = [[i, *row] for i, row in enumerate(np.column_stack([traj.times, traj.states, pvec, pvec]).tolist())]
    drift = float(np.max(np.abs(np.einsum("ij,ij->i", traj.states, traj.states) - 1.0)))
    return _TRAJ_COLUMNS, rows, {"final_pz": rows[-1][8], "max_norm_drift": drift}


def _run_resonance_curve(scn: Scenario):
    p = scn.params
    rows = spin.resonance_curve(p["gamma"], p["delta_min"], p["delta_max"], p["n_points"], p["t_pass"]).tolist()
    peak = max(rows, key=lambda r: r[1])
    return ("delta", "p_down", "p_up"), rows, {"peak_p_down": peak[1], "peak_delta": peak[0]}


def _em_case(name: str):
    """Analytic source-free field and a safe evaluation point for one case."""
    if name == "plane-wave":
        # oblique propagation: for an axis-aligned wave the equal-step
        # stencil errors cancel exactly and no convergence order is visible

        def fld(t, x, y, z):
            a = math.cos(0.6 * x + 0.8 * z - t)
            return emfield.EmFieldSample(e=np.array([0.8, 0.0, -0.6]) * a, b=np.array([0.0, 1.0, 0.0]) * a)

        return fld, (0.3, 0.1, 0.2, 0.4)
    if name == "point-charge":

        def fld(t, x, y, z):
            r = np.array([x, y, z])
            r3 = float(r @ r) ** 1.5
            return emfield.EmFieldSample(e=r / r3, b=np.zeros(3))

        return fld, (0.0, 0.8, 0.6, 0.5)

    def fld(t, x, y, z):
        return emfield.EmFieldSample(e=np.array([1.0, 2.0, 3.0]), b=np.array([4.0, 5.0, 6.0]))

    return fld, (0.0, 0.0, 0.0, 0.0)


def _run_em_check(scn: Scenario):
    p = scn.params
    fld, point = _em_case(p["case"])
    steps = [p["h0"] / 2.0**i for i in range(p["n_levels"])]

    def level(h: float):
        res = emfield.maxwell_residual(fld, None, point, h)
        wave = emfield.wave_residual(fld, point, h)
        return [
            ("gauss_b", abs(res.gauss_b)),
            ("faraday", float(np.max(np.abs(res.faraday)))),
            ("ampere", float(np.max(np.abs(res.ampere)))),
            ("gauss_e", abs(res.gauss_e)),
            ("wave", float(np.max(np.abs(wave)))),
        ]

    tables = [level(h) for h in steps]
    rows = [[h, name, value] for h, table in zip(steps, tables) for name, value in table]
    summary = {"max_residual": max(value for table in tables for _, value in table)}
    orders = []
    for coarse, fine in zip(tables[:-1], tables[1:]):
        for (name, vc), (_, vf) in zip(coarse, fine):
            if vf > 1e-14 and vc > 1e-14:
                orders.append(math.log2(vc / vf))
    if orders:
        summary["min_order"] = min(orders)
    return ("h", "residual_name", "value"), rows, summary


def _run_lorentz_check(scn: Scenario):
    p = scn.params
    rng = np.random.default_rng(scn.seed)
    n, r = p["n_cases"], p["rapidity_max"]
    fields, counts, axes, boosts, angles = np.empty((n, 6)), np.empty(n, dtype=int), [], [], []
    for i in range(n):  # draws only, in the order that fixes the table bytes
        fields[i] = rng.normal(size=6)  # e, then b: the same stream as two 3-vector draws
        counts[i] = rng.integers(1, p["max_generators"] + 1)
        for _ in range(counts[i]):
            axes.append(rng.normal(size=3))
            boosts.append(not rng.random() < 0.5)
            angles.append(rng.uniform(-r, r) if boosts[-1] else rng.uniform(0.0, 2.0 * math.pi))
    axes, boosts, angles = np.array(axes), np.array(boosts), np.array(angles)
    axes /= np.linalg.norm(axes, axis=1, keepdims=True)
    sample = emfield.EmFieldSample(e=fields[:, :3], b=fields[:, 3:])
    i1, i2 = emfield.lorentz_invariants(sample)
    w0, _ = emfield.energy_quadratic(sample)
    f, triple = emfield.em_tensor(sample).f, lorentz.field_triple(sample)
    first = np.cumsum(counts) - counts
    for j in range(counts.max()):  # step j applies generator j of every case that has one
        active = counts > j
        g = first[active] + j
        nu0, nu = lorentz.generator_batch(axes[g], angles[g], boosts[g])
        f[active] = lorentz.transform_batch(nu0, nu, boosts[g], f[active])
        triple[active] = lorentz.closed_form_batch(triple[active], axes[g], angles[g], boosts[g])
    tensor = emfield.EmTensor(f=f)
    i1p, i2p = emfield.lorentz_invariants(tensor.fields())
    w0p, _ = emfield.energy_quadratic(tensor.fields())
    # relative to the quadratic field scale: boosts amplify the fields, and
    # the invariants are recovered only through cancellation at that scale;
    # the two routes to the transformed field differ at its linear scale
    scale = np.maximum(1.0, np.maximum(w0, w0p))
    closed = np.max(np.abs(triple - lorentz.triple_from_tensor(tensor)), axis=1) / np.sqrt(scale)
    table = np.column_stack([np.abs(i1p - i1) / scale, np.abs(i2p - i2) / scale, closed, np.abs(w0p - w0)])
    names = ("i1_rel_err", "i2_rel_err", "closed_vs_conj", "w0_change")
    rows = [[i, name, value] for i, values in enumerate(table.tolist()) for name, value in zip(names, values)]
    summary = {f"max_{name}": float(col.max()) for name, col in zip(names, table.T)}
    return ("case", "name", "value"), rows, summary


_RUNNERS = {
    "pms": _run_pms,
    "helical": _run_helical,
    "resonance-curve": _run_resonance_curve,
    "em-check": _run_em_check,
    "lorentz-check": _run_lorentz_check,
}


# ---------------------------------------------------------------------------
# output encoding


def _cell(value) -> str:
    if isinstance(value, str):
        return value
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    # shortest decimal that round-trips to the same float64
    return repr(float(value))


def _jsonable(value):
    if isinstance(value, str):
        return value
    if isinstance(value, (bool, np.bool_)):
        return bool(value)
    if isinstance(value, (int, np.integer)):
        return int(value)
    return float(value)


def write_table(path: str, columns, rows, fmt: str):
    """Write the table as CSV (comma, LF, UTF-8, header row) or JSON, atomically; rows must be of equal length."""
    cols = list(zip(*rows, strict=True))
    if fmt == "csv":
        # a column of Python floats encodes as _cell would, without the per-cell dispatch
        encoded = [map(float.__repr__ if set(map(type, col)) == {float} else _cell, col) for col in cols]
        lines = (",".join(cells) + "\n" for cells in itertools.chain([columns], zip(*encoded)))
    else:
        # a column of exact floats, ints and strings is already what _jsonable returns
        encoded = [col if set(map(type, col)) <= {float, int, str} else map(_jsonable, col) for col in cols]
        lines = [json.dumps({"columns": list(columns), "rows": list(zip(*encoded))}, separators=(",", ":")) + "\n"]
    # a temporary file renamed onto path: path holds the whole table or what it held before
    tmp = os.path.join(os.path.dirname(path), f".{os.path.basename(path)}.{os.urandom(8).hex()}.tmp")
    fh = open(tmp, "x", encoding="utf-8", newline="\n")
    try:
        with fh:
            fh.writelines(lines)
        os.replace(tmp, path)
    except BaseException:
        os.remove(tmp)
        raise


def run_scenario(scn: Scenario, out_dir: str = ".", threads: int | None = None) -> RunReport:
    """Execute a validated scenario and write its output table.

    threads is ignored: every sweep runs in the calling thread.
    """
    started = time.perf_counter()
    columns, rows, summary = _RUNNERS[scn.kind](scn)
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, scn.output)
    write_table(path, columns, rows, scn.fmt)
    return RunReport(
        scenario=scn,
        summary=summary,
        outputs=[path],
        duration_s=time.perf_counter() - started,
    )
