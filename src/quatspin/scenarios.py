"""Scenario runners behind the command-line front end.

Running a scenario validated by ``schema`` produces a single plot-ready CSV
or JSON table and a summary report.  Output is deterministic: a fixed
scenario and seed reproduce byte-identical files.
"""

from __future__ import annotations

import itertools
import json
import math
import operator
import os
import time
from dataclasses import dataclass

import numpy as np

# every kind needs quaternion; each runner imports the other modules it calls, so a run loads only its kind's
from .quaternion import rotate_batch
# load_scenario is bound here too, so that callers load and run through this one module
from .schema import Scenario, load_scenario  # noqa: F401


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
# runners


_TRAJ_COLUMNS = ("step", "t", "s0", "sx", "sy", "sz", "px", "py", "pz", "px_mid", "py_mid", "pz_mid")


def _run_pms(scn: Scenario):
    from . import spin
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
    from . import spin
    p = scn.params
    params = spin.HelicalParams(gamma_width=p["gamma"], delta_detune=p["delta"], omega_drive=p["omega"])
    traj = spin.integrate_spin(spin.helical_field(params), spin.IDENTITY, (0.0, p["t_max"]), p["dt"])
    # sign -1 reads the polarization from the conjugate states (the reversed rotation)
    readout = traj.states if p["sign"] > 0 else traj.states * np.array([1.0, -1.0, -1.0, -1.0])
    pvec = rotate_batch(readout, np.array([0.0, 0.0, 1.0]))
    # the *_mid cells are the px, py, pz objects themselves, so write_table encodes them once
    rows = [[i, *row, *row[5:]] for i, row in enumerate(np.column_stack([traj.times, traj.states, pvec]).tolist())]
    drift = float(np.max(np.abs(np.einsum("ij,ij->i", traj.states, traj.states) - 1.0)))
    return _TRAJ_COLUMNS, rows, {"final_pz": rows[-1][8], "max_norm_drift": drift}


def _run_resonance_curve(scn: Scenario):
    from . import spin
    p = scn.params
    rows = spin.resonance_curve(p["gamma"], p["delta_min"], p["delta_max"], p["n_points"], p["t_pass"]).tolist()
    peak = max(rows, key=lambda r: r[1])
    return ("delta", "p_down", "p_up"), rows, {"peak_p_down": peak[1], "peak_delta": peak[0]}


def _em_case(name: str):
    """Analytic source-free field and a safe evaluation point for one case."""
    from . import emfield
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
    from . import emfield
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
    from . import emfield, lorentz
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
    f = emfield.em_tensor(sample).f
    closed = f.copy()  # the closed forms are linear: they carry f = B - i E as they carry the triple -f
    first = np.cumsum(counts) - counts
    for j in range(counts.max()):  # step j applies generator j of every case that has one
        active = counts > j
        g = first[active] + j
        nu0, nu = lorentz.generator_batch(axes[g], angles[g], boosts[g])
        f[active] = lorentz.transform_batch(nu0, nu, boosts[g], f[active])
        closed[active] = lorentz.closed_form_batch(closed[active], axes[g], angles[g], boosts[g])
    out = emfield.EmTensor(f=f).fields()
    i1p, i2p = emfield.lorentz_invariants(out)
    w0p, _ = emfield.energy_quadratic(out)
    # relative to the quadratic field scale: boosts amplify the fields, and
    # the invariants are recovered only through cancellation at that scale;
    # the two routes to the transformed field differ at its linear scale
    scale = np.maximum(1.0, np.maximum(w0, w0p))
    closed_vs_conj = np.max(np.abs(closed - f), axis=1) / np.sqrt(scale)
    table = np.column_stack([np.abs(i1p - i1) / scale, np.abs(i2p - i2) / scale, closed_vs_conj, np.abs(w0p - w0)])
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


def _refuse_non_finite(columns, cols, kinds):
    """Raise ValueError naming the first column that holds a NaN or inf."""
    for name, col, kind in zip(columns, cols, kinds):
        # a finite sum proves a float column finite, so a column is scanned only when its sum is not
        if kind <= {int, str, bool} or kind == {float} and math.isfinite(sum(col)):
            continue
        if any(isinstance(v, (float, np.floating)) and not math.isfinite(v) for v in col):
            raise ValueError(f"column {name!r} holds a NaN or infinite value")


def _jsonable(value):
    if isinstance(value, str):
        return value
    if isinstance(value, (bool, np.bool_)):
        return bool(value)
    if isinstance(value, (int, np.integer)):
        return int(value)
    return float(value)


def _cell(value) -> str:
    # JSON writes a float as its shortest round-trip repr and a bool as true/false
    return value if isinstance(value, str) else json.dumps(_jsonable(value))


def write_table(path: str, columns, rows, fmt: str):
    """Write the table as CSV (comma, LF, UTF-8, header row) or JSON, atomically; rows must be of equal length.

    A NaN or inf cell raises ValueError naming the first column that holds one.  A CSV column made of the
    very objects of an earlier column (``is``, cell by cell) reuses that column's encoded cells.
    """
    cols = list(zip(*rows, strict=True))
    kinds = [set(map(type, col)) for col in cols]
    _refuse_non_finite(columns, cols, kinds)
    if fmt == "csv":
        encoded = []
        for j, (col, kind) in enumerate(zip(cols, kinds)):
            twin = next((i for i in range(j) if col[0] is cols[i][0] and all(map(operator.is_, col, cols[i]))), None)
            if twin is not None:  # the same objects encode to the same cells: encode them once, share the list
                encoded[twin] = list(encoded[twin])
                encoded.append(encoded[twin])
            else:  # a column of exact floats or ints encodes as _cell would, without the per-cell dispatch
                encode = float.__repr__ if kind == {float} else int.__repr__ if kind == {int} else _cell
                encoded.append(map(encode, col))
        lines = (",".join(cells) + "\n" for cells in itertools.chain([columns], zip(*encoded)))
    else:
        # a column of exact floats, ints and strings is already what _jsonable returns
        encoded = [col if kind <= {float, int, str} else map(_jsonable, col) for col, kind in zip(cols, kinds)]
        # RFC 8259 has no NaN or Infinity; _refuse_non_finite has named the column, allow_nan=False stays as a guard
        doc = json.dumps({"columns": list(columns), "rows": list(zip(*encoded))}, separators=(",", ":"),
                         allow_nan=False)
        lines = [doc + "\n"]
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


def run_scenario(scn: Scenario, out_dir: str = ".") -> RunReport:
    """Execute a validated scenario and write its output table."""
    started = time.perf_counter()
    columns, rows, summary = _RUNNERS[scn.kind](scn)
    for key in sorted(summary):  # refused by name before anything is written, as a table cell is
        if not math.isfinite(summary[key]):
            raise ValueError(f"summary key {key!r} holds a NaN or infinite value")
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, scn.output)
    write_table(path, columns, rows, scn.fmt)
    return RunReport(
        scenario=scn,
        summary=summary,
        outputs=[path],
        duration_s=time.perf_counter() - started,
    )
