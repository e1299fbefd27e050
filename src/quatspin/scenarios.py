"""Scenario runners behind the command-line front end.

Running a scenario validated by ``schema`` produces a single plot-ready CSV
or JSON table and a summary report.  Output is deterministic: a fixed
scenario and seed reproduce byte-identical files.
"""

from __future__ import annotations

import json
import math
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
    # station n gives the arrow-base row (s_n, P_n, P_n_mid), then the post-bar row (mid state, P_n_mid twice)
    table = np.stack([np.concatenate([traj.states, base, mid], axis=1),
                      np.concatenate([traj.mid_states, mid, mid], axis=1)], axis=1).reshape(-1, 10)
    step = np.arange(len(table))
    summary = {"closure_distance": float(np.linalg.norm(traj.polar[-1, 0] - p0)),
               "resonant_geometry": float(cfg.is_resonant(1e-9))}
    # step / 2 is n on a base row and n + 0.5 on a post-bar row, exactly
    return _TRAJ_COLUMNS, [step, step / 2.0, *table.T], summary


def _run_helical(scn: Scenario):
    from . import spin
    p = scn.params
    params = spin.HelicalParams(gamma_width=p["gamma"], delta_detune=p["delta"], omega_drive=p["omega"])
    traj = spin.integrate_spin(spin.helical_field(params), spin.IDENTITY, (0.0, p["t_max"]), p["dt"])
    # sign -1 reads the polarization from the conjugate states (the reversed rotation)
    readout = traj.states if p["sign"] > 0 else traj.states * np.array([1.0, -1.0, -1.0, -1.0])
    px, py, pz = rotate_batch(readout, np.array([0.0, 0.0, 1.0])).T
    drift = float(np.max(np.abs(np.einsum("ij,ij->i", traj.states, traj.states) - 1.0)))
    # no bar sub-rotation: the *_mid columns are the px, py, pz arrays themselves, which the writer encodes once
    columns = [np.arange(len(traj)), traj.times, *traj.states.T, px, py, pz, px, py, pz]
    return _TRAJ_COLUMNS, columns, {"final_pz": float(pz[-1]), "max_norm_drift": drift}


def _run_resonance_curve(scn: Scenario):
    from . import spin
    p = scn.params
    delta, p_down, p_up = spin.resonance_curve(p["gamma"], p["delta_min"], p["delta_max"], p["n_points"], p["t_pass"]).T
    peak = int(np.argmax(p_down))  # the first of equal peaks
    summary = {"peak_p_down": float(p_down[peak]), "peak_delta": float(delta[peak])}
    return ("delta", "p_down", "p_up"), [delta, p_down, p_up], summary


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
        return [abs(res.gauss_b), float(np.max(np.abs(res.faraday))), float(np.max(np.abs(res.ampere))),
                abs(res.gauss_e), float(np.max(np.abs(wave)))]

    names = ("gauss_b", "faraday", "ampere", "gauss_e", "wave")  # level's order
    table = [level(h) for h in steps]
    summary = {"max_residual": max(map(max, table))}
    orders = [math.log2(vc / vf) for coarse, fine in zip(table[:-1], table[1:])
              for vc, vf in zip(coarse, fine) if vf > 1e-14 and vc > 1e-14]
    if orders:
        summary["min_order"] = min(orders)
    columns = [np.repeat(steps, len(names)), np.tile(np.array(names), len(steps)), np.array(table).ravel()]
    return ("h", "residual_name", "value"), columns, summary


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
    summary = {f"max_{name}": float(col.max()) for name, col in zip(names, table.T)}
    columns = [np.repeat(np.arange(n), len(names)), np.tile(np.array(names), n), table.ravel()]
    return ("case", "name", "value"), columns, summary


_RUNNERS = {
    "pms": _run_pms,
    "helical": _run_helical,
    "resonance-curve": _run_resonance_curve,
    "em-check": _run_em_check,
    "lorentz-check": _run_lorentz_check,
}


# ---------------------------------------------------------------------------
# output encoding


_BLOCK_ROWS = 512  # rows encoded at a time: the writer holds one block's cells, however long the table
# a CSV cell's text by its column's dtype kind; json.dumps writes a float or an int with the same repr
_CELL_TEXT = {"f": float.__repr__, "i": int.__repr__, "U": str}


def _blocks(columns, cell_text: bool):
    """Each block of rows as an iterator of cell tuples; the cells of a column given twice are made once."""
    for lo in range(0, len(columns[0]), _BLOCK_ROWS):
        cells = {}
        for col in columns:
            if id(col) not in cells:  # not setdefault, which would make the default for every column
                values = col[lo:lo + _BLOCK_ROWS].tolist()
                cells[id(col)] = list(map(_CELL_TEXT[col.dtype.kind], values)) if cell_text else values
        yield zip(*(cells[id(col)] for col in columns))


def _csv_text(names, columns):
    yield ",".join(names) + "\n"
    for rows in _blocks(columns, True):
        yield "\n".join(map(",".join, rows)) + "\n"


def _json_text(names, columns):
    # {"columns":[...],"rows":[[...],...]} with the separators of json.dumps(..., separators=(",", ":"))
    yield '{"columns":' + json.dumps(list(names), separators=(",", ":")) + ',"rows":['
    for i, rows in enumerate(_blocks(columns, False)):
        # RFC 8259 has no NaN or Infinity: write_table has refused them, allow_nan=False stays as a guard
        yield ("," if i else "") + json.dumps(list(rows), separators=(",", ":"), allow_nan=False)[1:-1]
    yield "]}\n"


def write_table(path: str, names, columns, fmt: str):
    """Write the table as CSV (comma, LF, UTF-8, header row) or JSON, atomically.

    ``columns`` are equal-length 1-D numpy arrays of float64, int64 or str, one per name.  A column with a
    NaN or inf raises ValueError naming the first such column, before anything is written.  A column that is
    given twice (the same array object) is encoded once.
    """
    if not columns or len(names) != len(columns):
        raise ValueError(f"a table needs one name per column and at least one column, got {len(names)} names "
                         f"for {len(columns)} columns")
    if len(set(map(len, columns))) > 1:
        raise ValueError("the columns differ in length")
    for name, col in zip(names, columns):
        if col.dtype.kind not in _CELL_TEXT:
            raise TypeError(f"column {name!r} is of dtype {col.dtype}, not a float, int or str dtype")
        if col.dtype.kind == "f" and not np.isfinite(col).all():
            raise ValueError(f"column {name!r} holds a NaN or infinite value")
    text = _csv_text(names, columns) if fmt == "csv" else _json_text(names, columns)
    # a fixed-length temporary name renamed onto path: path holds the whole table or what it held before
    tmp = os.path.join(os.path.dirname(path), f".quatspin-{os.urandom(8).hex()}.tmp")
    fh = open(tmp, "x", encoding="utf-8", newline="\n")
    try:
        with fh:
            fh.writelines(text)
        os.replace(tmp, path)
    except BaseException:
        os.remove(tmp)
        raise


def run_scenario(scn: Scenario, out_dir: str = ".") -> RunReport:
    """Execute a validated scenario and write its output table."""
    started = time.perf_counter()
    names, columns, summary = _RUNNERS[scn.kind](scn)
    for key in sorted(summary):  # refused by name before anything is written, as a table cell is
        if not math.isfinite(summary[key]):
            raise ValueError(f"summary key {key!r} holds a NaN or infinite value")
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, scn.output)
    write_table(path, names, columns, scn.fmt)
    return RunReport(
        scenario=scn,
        summary=summary,
        outputs=[path],
        duration_s=time.perf_counter() - started,
    )
