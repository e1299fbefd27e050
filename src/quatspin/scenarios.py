"""Scenario runners behind the command-line front end.

Running a scenario validated by ``schema`` produces a single plot-ready CSV
or JSON table and a summary report.  Output is deterministic: a fixed
scenario and seed reproduce byte-identical files.
"""

from __future__ import annotations

import ctypes  # numpy imports it too, so it costs a run nothing
import math
import os
import stat
import sys
import time
from dataclasses import dataclass

import numpy as np

# every kind needs quaternion; each runner imports the other modules it calls, so a run loads only its kind's
from .quaternion import _BLOCK, rotate_batch
# load_scenario is bound here too, so that callers load and run through this one module
from .schema import FORMATS, Scenario, load_scenario  # noqa: F401


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
    chain = spin._pms_chain(cfg)  # each station's state, then its mid state: the table's row order
    polar = rotate_batch(chain, p0)  # (P_n, P_n_mid) per station
    # station n gives the arrow-base row (s_n, P_n, P_n_mid), then the post-bar row (mid state, P_n_mid twice)
    states = chain.reshape(-1, 4)
    arrows, after_bar = polar.reshape(-1, 3), np.repeat(polar[:, 1], 2, axis=0)
    step = np.arange(len(states))
    summary = {"closure_distance": float(np.linalg.norm(polar[-1, 0] - p0)),
               "resonant_geometry": float(cfg.is_resonant(1e-9))}
    # step / 2 is n on a base row and n + 0.5 on a post-bar row, exactly
    return _TRAJ_COLUMNS, [step, step / 2.0, *states.T, *arrows.T, *after_bar.T], summary


def _run_helical(scn: Scenario):
    from . import spin
    p = scn.params
    params = spin.HelicalParams(gamma_width=p["gamma"], delta_detune=p["delta"], omega_drive=p["omega"])
    traj = spin.integrate_spin(spin.helical_field(params), spin.IDENTITY, (0.0, p["t_max"]), p["dt"])
    # sign -1 reads out the conjugate states (the reversed rotation): scaled in place by the sign and back, exactly
    traj.states[:, 1:] *= p["sign"]
    px, py, pz = rotate_batch(traj.states, np.array([0.0, 0.0, 1.0])).T
    traj.states[:, 1:] *= p["sign"]
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
    import random

    from . import emfield, lorentz
    p = scn.params
    # Python documents the random() stream of a seed as reproducible across versions, and no other method's: the
    # draws use random() with + - * /, int and comparisons alone, so no libm call and no numpy Generator fixes a case
    rnd = random.Random(scn.seed).random
    n, n_gen, r = p["n_cases"], p["max_generators"], p["rapidity_max"]
    table = np.empty((n, 4))
    for lo in range(0, n, _BLOCK):  # one block of cases at a time: only its draws are held as Python floats
        flat, counts, steps = [], [], [[] for _ in range(n_gen)]  # steps[j]: generator j of each case that has one
        for _ in range(min(_BLOCK, n - lo)):  # draws only, in the order that fixes the table bytes
            flat += [2.0 * rnd() - 1.0 for _ in range(6)]  # e, then b: each component uniform in [-1, 1)
            count = 1 + int(rnd() * n_gen)
            counts.append(count)
            for step in steps[:count]:
                while True:  # an isotropic axis: a point of the unit ball, from the cube by rejection (Marsaglia 1972)
                    x, y, z = 2.0 * rnd() - 1.0, 2.0 * rnd() - 1.0, 2.0 * rnd() - 1.0
                    if 1e-12 < x * x + y * y + z * z < 1.0:  # the zero vector, which has no direction, is refused too
                        break
                boost = rnd() < 0.5
                angle = (2.0 * rnd() - 1.0) * r if boost else 2.0 * math.pi * rnd()  # [-r, r) or [0, 2 pi)
                step += x, y, z, boost, angle
        fields = np.fromiter(flat, float, len(flat)).reshape(-1, 6)
        counts = np.fromiter(counts, int, len(counts))
        sample = emfield.EmFieldSample(e=fields[:, :3], b=fields[:, 3:])
        i1, i2 = emfield.lorentz_invariants(sample)
        w0, _ = emfield.energy_quadratic(sample)
        f = emfield.em_tensor(sample).f
        closed = f.copy()  # the closed forms are linear: they carry f = B - i E as they carry the triple -f
        for j in range(counts.max()):  # step j applies generator j of every case that has one, in case order
            active = counts > j
            gens = np.fromiter(steps[j], float, len(steps[j])).reshape(-1, 5)
            axes = gens[:, :3] / np.linalg.norm(gens[:, :3], axis=1, keepdims=True)
            boosts, angles = gens[:, 3] != 0.0, gens[:, 4]
            nu0, nu = lorentz.generator_batch(axes, angles, boosts)
            f[active] = lorentz.transform_batch(nu0, nu, boosts, f[active])
            closed[active] = lorentz.closed_form_batch(closed[active], axes, angles, boosts)
        out = emfield.EmTensor(f=f).fields()
        i1p, i2p = emfield.lorentz_invariants(out)
        w0p, _ = emfield.energy_quadratic(out)
        # relative to the quadratic field scale: boosts amplify the fields, and
        # the invariants are recovered only through cancellation at that scale;
        # the two routes to the transformed field differ at its linear scale
        scale = np.maximum(1.0, np.maximum(w0, w0p))
        closed_vs_conj = np.max(np.abs(closed - f), axis=1) / np.sqrt(scale)
        table[lo : lo + _BLOCK] = np.column_stack([np.abs(i1p - i1) / scale, np.abs(i2p - i2) / scale,
                                                  closed_vs_conj, np.abs(w0p - w0)])
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
# a cell's text by its column's dtype kind, in CSV and (str cells quoted) in JSON; tolist() gives builtin floats and
# ints, so repr is float.__repr__ and int.__repr__ without their slot-wrapper call: json.dumps writes the same text
_CELL_TEXT = {"f": repr, "i": repr, "U": str}


def _blocks(columns, text):
    """Each block of rows as an iterator of ``text[dtype kind]`` cell tuples; a column given twice is encoded once."""
    for lo in range(0, len(columns[0]), _BLOCK_ROWS):
        cells = {}
        for col in columns:
            if id(col) not in cells:  # not setdefault, which would make the default for every column
                cells[id(col)] = list(map(text[col.dtype.kind], col[lo:lo + _BLOCK_ROWS].tolist()))
        yield zip(*(cells[id(col)] for col in columns))


def _csv_text(names, columns):
    yield ",".join(names) + "\n"
    for rows in _blocks(columns, _CELL_TEXT):
        yield "\n".join(map(",".join, rows)) + "\n"


def _json_text(names, columns):
    import json  # only a JSON table needs it: a CSV run does not load it

    # {"columns":[...],"rows":[[...],...]} with the separators of json.dumps(..., separators=(",", ":")); a str
    # cell is quoted and escaped as json.dumps quotes it under ensure_ascii, and write_table has refused NaN and inf
    yield '{"columns":' + json.dumps(list(names), separators=(",", ":")) + ',"rows":['
    text = {**_CELL_TEXT, "U": json.encoder.encode_basestring_ascii}
    for i, rows in enumerate(_blocks(columns, text)):
        yield ("," if i else "") + "[" + "],[".join(map(",".join, rows)) + "]"
    yield "]}\n"


def write_table(path: str, names, columns, fmt: str):
    """Write the table as CSV (comma, LF, UTF-8, header row) or JSON, atomically.

    ``fmt`` is one of ``schema.FORMATS``.  ``columns`` are equal-length 1-D numpy arrays of float64, int64 or
    str, one per name; any other column raises TypeError naming the first such column.  A column with a NaN or
    inf raises ValueError naming the first such column.  Each is raised before anything is written.  A column
    that is given twice (the same array object) is encoded once.

    The table is written to a temporary file in path's directory, then landed on path: by an exchange of the
    two names if path is a regular file already, else by os.replace.  A reader sees the earlier table or the
    whole new one, and a failed write leaves the earlier table and no temporary file.  Nothing is fsynced.
    """
    if fmt not in FORMATS:
        raise ValueError(f"format {fmt!r} is not one of {', '.join(FORMATS)}")
    if not columns or len(names) != len(columns):
        raise ValueError(f"a table needs one name per column and at least one column, got {len(names)} names "
                         f"for {len(columns)} columns")
    for name, col in zip(names, columns):
        if not isinstance(col, np.ndarray) or col.ndim != 1:
            raise TypeError(f"column {name!r} is not a 1-D numpy array")
    if len(set(map(len, columns))) > 1:
        raise ValueError("the columns differ in length")
    for name, col in zip(names, columns):
        if col.dtype.kind not in _CELL_TEXT:
            raise TypeError(f"column {name!r} is of dtype {col.dtype}, not a float, int or str dtype")
        if col.dtype.kind == "f" and not np.isfinite(col).all():
            raise ValueError(f"column {name!r} holds a NaN or infinite value")
    text = _csv_text(names, columns) if fmt == "csv" else _json_text(names, columns)
    # a fixed-length temporary name, so that any name the file system accepts can be landed on
    tmp = os.path.join(os.path.dirname(path), f".quatspin-{os.urandom(8).hex()}.tmp")
    fh = open(tmp, "x", encoding="utf-8", newline="\n")
    try:
        with fh:
            fh.writelines(text)
        if not _landed_by_exchange(tmp, path):
            os.replace(tmp, path)
            return
    except BaseException:
        os.remove(tmp)
        raise
    os.remove(tmp)  # the earlier table, which the exchange left under the temporary name


def _landed_by_exchange(tmp: str, path: str) -> bool:
    """Swap tmp onto path if path is a regular file; False, with nothing moved, leaves the landing to os.replace.

    os.replace onto a table that ext4's auto_da_alloc has written out frees its blocks inside the call, tens of
    ms; an exchange frees none and writes nothing out, so the earlier table it leaves to be removed has no blocks
    while it is younger than the writeback window.  A new name, a symlink (not followed) or directory, and a
    refused exchange get os.replace.
    """
    try:
        regular = stat.S_ISREG(os.lstat(path).st_mode)
    except OSError:  # no such name, or one that os.replace reports
        return False
    # renameat2(2) with RENAME_EXCHANGE swaps the two names in one atomic step; nonzero if refused (ENOSYS, EINVAL)
    return regular and _renameat2 is not None and _renameat2(
        _AT_FDCWD, os.fsencode(tmp), _AT_FDCWD, os.fsencode(path), _RENAME_EXCHANGE) == 0


_AT_FDCWD, _RENAME_EXCHANGE = -100, 2  # <fcntl.h>, <linux/fs.h>; the flag is Linux 3.15's
_renameat2 = getattr(ctypes.CDLL(None) if sys.platform == "linux" else None, "renameat2", None)
if _renameat2 is not None:
    _renameat2.argtypes = (ctypes.c_int, ctypes.c_char_p, ctypes.c_int, ctypes.c_char_p, ctypes.c_uint)
    _renameat2.restype = ctypes.c_int


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
