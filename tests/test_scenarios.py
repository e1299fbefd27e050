import ast
import contextlib
import errno
import gc
import hashlib
import importlib
import io
import json
import math
import os
import random
import re
import subprocess
import sys
import tempfile
import tracemalloc
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import quatspin
from quatspin.cli import main
from quatspin.emfield import EmFieldSample, EmTensor, em_tensor, energy_quadratic, lorentz_invariants
from quatspin.lorentz import boost_generator, field_triple, rotation_generator
from quatspin.quaternion import IDENTITY, rotate_batch
from quatspin import cli, quaternion, scenarios
from quatspin.scenarios import run_scenario, write_table
from quatspin.schema import ConfigError, load_scenario, parse_scenario_text, validate_scenario
from quatspin.spin import HelicalParams, PmsConfig, helical_field, integrate_spin, pms_propagate

RESONANT_PMS = """
kind = pms
xi1 = 0.3
xi2 = 0.01
theta = 0.14959965017094254
n_blocks = 21
"""

RESONANT_CURVE = """
kind = resonance-curve
gamma = 0.04
delta_min = -0.4
delta_max = 0.4
n_points = 161
t_pass = 78.53981633974483
"""


# ---------------------------------------------------------------------------
# parsing and validation


def test_parse_scenario_text():
    raw = parse_scenario_text("kind = pms  # the structure\n\nn_blocks = 21\nxi1 = 0.3\nflag = true\nname = run1\n")
    # each value stays text: validate_scenario reads it as its key's type
    assert raw == {"kind": "pms", "n_blocks": "21", "xi1": "0.3", "flag": "true", "name": "run1"}


def test_parse_scenario_text_rejects_malformed_lines():
    with pytest.raises(ConfigError) as err:
        parse_scenario_text("kind pms\nxi1 = 0.3\nxi1 = 0.4\n = 1\n")
    messages = "\n".join(err.value.errors)
    assert "line 1" in messages
    assert "duplicate" in messages
    assert "line 4: empty key" in messages


def test_validate_minimal_helical():
    scn = validate_scenario(
        {"kind": "helical", "gamma": 0.04, "omega": 0.02, "delta": 0.0, "t_max": 10.0, "dt": 0.1}
    )
    assert scn.kind == "helical"
    assert scn.params["sign"] == 1
    assert scn.output == "helical.csv"
    assert scn.seed == 0


def test_validate_negative_dt_names_field():
    with pytest.raises(ConfigError) as err:
        validate_scenario({"kind": "helical", "gamma": 0.04, "omega": 0.02, "delta": 0.0, "t_max": 10.0, "dt": -0.1})
    assert any("dt" in msg for msg in err.value.errors)


def test_validate_unknown_kind_lists_allowed():
    with pytest.raises(ConfigError) as err:
        validate_scenario({"kind": "foo"})
    joined = " ".join(err.value.errors)
    for kind in ("pms", "helical", "resonance-curve", "em-check", "lorentz-check"):
        assert kind in joined


@pytest.mark.parametrize("name", ["../x.csv", "/tmp/x.csv", "sub/x.csv", "..", ".", "a\\b.csv", "a\0b.csv"])
def test_validate_output_must_be_a_bare_file_name(name):
    with pytest.raises(ConfigError) as err:
        validate_scenario({"kind": "pms", "xi1": 0.3, "output": name, "bogus": 1})
    joined = " ".join(err.value.errors)
    assert "'output'" in joined and "bare file name" in joined
    assert "bogus" in joined and "xi2" in joined  # listed with every other problem


@pytest.mark.parametrize("name", ["2024", "1e5", "nan", "true", "-0"])
def test_validate_reads_a_number_like_output_as_the_bare_name_it_is(name):
    assert validate_scenario(parse_scenario_text(f"{RESONANT_PMS}output = {name}\n")).output == name


@pytest.mark.parametrize("sign", [1, -1])
def test_validate_reads_an_int_beyond_the_largest_float_as_its_text_and_refuses_it_by_key(sign):
    doc = {"kind": "pms", "xi1": sign * 10 ** 5000, "xi2": 0.01, "theta": 0.1, "n_blocks": 2}
    with pytest.raises(ConfigError) as err:
        validate_scenario(doc)  # float() of the int raises OverflowError, and its repr has too many digits
    assert err.value.errors == [f"key 'xi1': value {sign * math.inf!r} must be finite"]
    with pytest.raises(ConfigError) as from_text:
        validate_scenario(parse_scenario_text(RESONANT_PMS.replace("xi1 = 0.3", f"xi1 = {sign * 10 ** 400}")))
    assert from_text.value.errors == err.value.errors  # the same digits as document text read alike
    assert validate_scenario(dict(doc, xi1=3)).params["xi1"] == 3.0  # an int within range is promoted


@pytest.mark.parametrize("key, value, kind", [("xi1", True, "float"), ("n_blocks", False, "int"),
                                             ("n_blocks", 2.0, "int"), ("output", 5, "str")])
def test_validate_refuses_a_library_value_not_of_its_keys_type(key, value, kind):
    # a bool is refused though it is an int
    doc = {"kind": "pms", "xi1": 0.3, "xi2": 0.01, "theta": 0.1, "n_blocks": 2, key: value}
    with pytest.raises(ConfigError) as err:
        validate_scenario(doc)
    assert err.value.errors == [f"key {key!r}: expected {kind}, got {value!r}"]


def test_validate_aggregates_every_violation():
    with pytest.raises(ConfigError) as err:
        validate_scenario({"kind": "pms", "xi1": "wat", "n_blocks": -3, "bogus": 1, "seed": -1})
    joined = " ".join(err.value.errors)
    assert "key 'seed': value -1 must be >= 0" in joined  # numpy's seed error named no key
    assert "xi1" in joined
    assert "n_blocks" in joined
    assert "bogus" in joined
    assert "xi2" in joined and "theta" in joined  # missing keys reported too
    assert len(err.value.errors) >= 6


# ---------------------------------------------------------------------------
# runners


def test_run_pms_resonant_ring(tmp_path):
    scn = validate_scenario(parse_scenario_text(RESONANT_PMS))
    report = run_scenario(scn, out_dir=str(tmp_path))
    assert report.summary["closure_distance"] == pytest.approx(0.0514861113044685, abs=1e-9)
    assert report.summary["resonant_geometry"] == 1.0
    path = report.outputs[0]
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    assert lines[0] == "step,t,s0,sx,sy,sz,px,py,pz,px_mid,py_mid,pz_mid"
    assert len(lines) - 1 == 2 * 21 + 2


def test_csv_round_trips_at_full_precision(tmp_path):
    scn = validate_scenario(parse_scenario_text(RESONANT_PMS))
    report = run_scenario(scn, out_dir=str(tmp_path))
    with open(report.outputs[0], encoding="utf-8") as fh:
        header = fh.readline().strip().split(",")
        rows = [line.strip().split(",") for line in fh]
    assert len(header) == 12
    cfgs = validate_scenario(parse_scenario_text(RESONANT_PMS))
    report2 = run_scenario(cfgs, out_dir=str(tmp_path / "again"))
    with open(report2.outputs[0], encoding="utf-8") as fh:
        fh.readline()
        rows2 = [line.strip().split(",") for line in fh]
    for r1, r2 in zip(rows, rows2):
        for a, b in zip(r1, r2):
            assert float(a) == float(b)
            # shortest repr: re-encoding the parsed value reproduces the text
            assert repr(float(a)) == repr(float(b))


def test_run_resonance_curve_peak(tmp_path):
    scn = validate_scenario(parse_scenario_text(RESONANT_CURVE))
    report = run_scenario(scn, out_dir=str(tmp_path))
    assert report.summary["peak_p_down"] == pytest.approx(1.0, abs=1e-12)
    assert abs(report.summary["peak_delta"]) < 1e-12
    data = np.loadtxt(report.outputs[0], delimiter=",", skiprows=1)
    assert data.shape == (161, 3)
    assert np.max(np.abs(data[:, 1] + data[:, 2] - 1.0)) < 1e-12
    # even in the detuning
    assert np.max(np.abs(data[:, 1] - data[::-1, 1])) < 1e-12


def test_run_em_check_convergence(tmp_path):
    scn = validate_scenario({"kind": "em-check", "case": "plane-wave", "h0": 0.02, "n_levels": 3})
    report = run_scenario(scn, out_dir=str(tmp_path))
    assert report.summary["min_order"] > 1.8
    rows = Path(report.outputs[0]).read_text(encoding="utf-8").splitlines()[1:]
    by_level = {}
    for row in rows:
        h, name, value = row.split(",")
        by_level.setdefault(name, []).append(float(value))
    for name, values in by_level.items():
        for coarse, fine in zip(values[:-1], values[1:]):
            if coarse > 1e-14:
                assert coarse / fine > 3.5, name


def test_run_em_check_constant_exact(tmp_path):
    scn = validate_scenario({"kind": "em-check", "case": "constant", "n_levels": 2})
    report = run_scenario(scn, out_dir=str(tmp_path))
    assert report.summary["max_residual"] == 0.0


def test_run_em_check_point_charge_converges(tmp_path):
    # the field r / |r|^3 at the default steps; a wrong power of |r| leaves residuals of order 1 and no order
    report = run_scenario(validate_scenario({"kind": "em-check", "case": "point-charge"}), out_dir=str(tmp_path))
    assert report.summary["min_order"] > 1.8
    assert report.summary["max_residual"] < 0.01


def test_run_lorentz_check(tmp_path):
    scn = validate_scenario({"kind": "lorentz-check", "n_cases": 50, "seed": 7})
    report = run_scenario(scn, out_dir=str(tmp_path))
    assert report.summary["max_i1_rel_err"] < 1e-10
    assert report.summary["max_i2_rel_err"] < 1e-10
    assert report.summary["max_closed_vs_conj"] < 1e-10
    assert report.summary["max_w0_change"] > 1e-3


def reference_lorentz_rows(n_cases, max_generators, rapidity_max, seed):
    """The lorentz-check runner as a per-case loop: 4x4 matrix conjugation and scalar closed forms.

    Each case is drawn from random.Random(seed).random() in the documented order: e and b, each component
    uniform in [-1, 1); the generator count, uniform in 1..max_generators; then per generator an axis
    uniform in the unit ball (radius above 1e-6), the kind (a boost below 0.5) and the angle, uniform in
    [-rapidity_max, rapidity_max) for a boost and in [0, 2 pi) for a rotation.
    """
    rnd = random.Random(seed).random

    def unit_interval():  # uniform in [-1, 1)
        return 2.0 * rnd() - 1.0

    def ball_point():  # by rejection from the cube [-1, 1)^3
        while True:
            x, y, z = unit_interval(), unit_interval(), unit_interval()
            if 1e-12 < x * x + y * y + z * z < 1.0:
                return np.array([x, y, z])

    rows = []
    for i in range(n_cases):
        e, b = np.array([unit_interval() for _ in range(3)]), np.array([unit_interval() for _ in range(3)])
        sample = EmFieldSample(e=e, b=b)
        i1, i2 = lorentz_invariants(sample)
        w0, _ = energy_quadratic(sample)
        tensor, triple = em_tensor(sample), field_triple(sample)
        for _ in range(1 + int(rnd() * max_generators)):
            axis = ball_point()
            axis /= np.linalg.norm(axis)
            if rnd() < 0.5:
                angle = unit_interval() * rapidity_max
                gen, c, s = boost_generator(axis, angle), math.cosh(angle), 1j * math.sinh(angle)
            else:
                angle = 2.0 * math.pi * rnd()
                gen, c, s = rotation_generator(axis, angle), math.cos(angle), math.sin(angle)
            tensor = EmTensor.from_matrix(gen.matrix @ tensor.matrix @ gen.matrix_t)
            triple = triple * c + axis * (axis @ triple) * (1.0 - c) - np.cross(axis, triple) * s
        out = tensor.fields()
        i1p, i2p = lorentz_invariants(out)
        w0p, _ = energy_quadratic(out)
        scale = max(1.0, w0, w0p)
        rows += [
            [i, "i1_rel_err", abs(i1p - i1) / scale],
            [i, "i2_rel_err", abs(i2p - i2) / scale],
            [i, "closed_vs_conj", float(np.max(np.abs(triple + tensor.f))) / math.sqrt(scale)],
            [i, "w0_change", abs(w0p - w0)],
        ]
    return rows


# the batched runner and the per-case loop round differently; the residual
# columns agree to these absolute bounds and w0_change to 1e-12 relative
LORENTZ_TOL = {"i1_rel_err": 1e-13, "i2_rel_err": 1e-13, "closed_vs_conj": 1e-11}


@settings(max_examples=50, deadline=None)
@given(st.integers(1, 25), st.integers(1, 5), st.floats(0.0, 50.0, exclude_min=True), st.integers(0, 2**32 - 1))
def test_batched_lorentz_runner_matches_the_per_case_loop(tmp_path_factory, n_cases, max_generators, rapidity_max, seed):
    scn = validate_scenario({"kind": "lorentz-check", "n_cases": n_cases, "max_generators": max_generators,
                             "rapidity_max": rapidity_max, "seed": seed, "format": "json"})
    report = run_scenario(scn, out_dir=str(tmp_path_factory.mktemp("lorentz")))
    with open(report.outputs[0], encoding="utf-8") as fh:
        rows = json.load(fh)["rows"]
    want = reference_lorentz_rows(n_cases, max_generators, rapidity_max, seed)
    assert [row[:2] for row in rows] == [row[:2] for row in want]
    for (case, name, got), (_, _, value) in zip(rows, want):
        tol = LORENTZ_TOL.get(name, 1e-12 * max(1.0, value))
        assert abs(got - value) <= tol, (case, name, got, value)
    for name in ("i1_rel_err", "i2_rel_err", "closed_vs_conj", "w0_change"):
        assert report.summary[f"max_{name}"] == max(row[2] for row in rows if row[1] == name)


def test_lorentz_check_draws_call_random_and_no_other_method(monkeypatch):
    # only random()'s stream is documented as reproducible; gauss, uniform, randrange and the rest may change
    log = []

    class RecordingRandom(random.Random):
        def __init__(self, seed):
            super().__init__(seed)  # seeding reads seed and gauss_next: the log starts after it
            log.append("made")

        def __getattribute__(self, name):
            if log and not name.startswith("__"):
                log.append(name)
            return super().__getattribute__(name)

        def random(self):
            log.append("random()")
            return super().random()

    monkeypatch.setattr(random, "Random", RecordingRandom)
    scn = validate_scenario({"kind": "lorentz-check", "n_cases": 50, "max_generators": 5, "seed": 3})
    scenarios._RUNNERS["lorentz-check"](scn)
    assert log[:2] == ["made", "random"]  # one generator, whose bound random method is read once
    assert set(log[2:]) == {"random()"}
    assert log.count("random()") > 50 * 7  # six field components and a count per case, and more per generator


@pytest.mark.parametrize("rapidity_max", [9.0, 50.0])
def test_closed_vs_conj_is_relative_to_the_linear_field_scale(tmp_path, rapidity_max):
    # as an absolute difference it read 3.1e-3 at rapidity 9 and 4.9e57 at 50
    scn = validate_scenario({"kind": "lorentz-check", "n_cases": 1000, "rapidity_max": rapidity_max, "seed": 1})
    summary = run_scenario(scn, out_dir=str(tmp_path)).summary
    assert summary["max_closed_vs_conj"] < 1e-10
    assert summary["max_i1_rel_err"] < 1e-10 and summary["max_i2_rel_err"] < 1e-10


def test_run_helical(tmp_path):
    scn = validate_scenario(
        {"kind": "helical", "gamma": 0.04, "omega": 0.02, "delta": 0.0, "t_max": 50.0, "dt": 0.05}
    )
    report = run_scenario(scn, out_dir=str(tmp_path))
    assert report.summary["max_norm_drift"] < 1e-12
    data = np.loadtxt(report.outputs[0], delimiter=",", skiprows=1)
    assert data.shape == (1001, 12)
    # polarization stays unit length
    norms = np.linalg.norm(data[:, 6:9], axis=1)
    assert np.max(np.abs(norms - 1.0)) < 1e-9


def test_run_helical_mid_cells_are_the_polarization_cells():
    scn = validate_scenario({"kind": "helical", "gamma": 0.04, "omega": 0.02, "delta": 0.0, "t_max": 5.0, "dt": 0.05})
    names, columns, _ = scenarios._run_helical(scn)
    assert len(columns[0]) == 101
    # the same array objects, so that write_table encodes each of them once
    assert all(columns[names.index(f"{name}_mid")] is columns[names.index(name)] for name in ("px", "py", "pz"))


def test_lorentz_check_accepts_large_rapidities(tmp_path):
    # an absolute 1e-12 boost constraint rejected this scenario
    path = write_scenario(tmp_path, "kind = lorentz-check\nrapidity_max = 9\nseed = 1\nn_cases = 1000\n")
    assert main(["run", path, "--out", str(tmp_path / "out")]) == 0


def test_lorentz_check_rapidity_bound_is_a_schema_error(tmp_path, capsys):
    path = write_scenario(tmp_path, "kind = lorentz-check\nrapidity_max = 800\nn_cases = 0\n")
    for argv in (["validate", path], ["run", path, "--out", str(tmp_path / "out")]):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert "key 'rapidity_max': value 800.0 must be in (0, 50]" in err and "n_cases" in err
    assert not (tmp_path / "out").exists()


def test_deterministic_across_runs_and_threads(tmp_path):
    scn = validate_scenario({"kind": "lorentz-check", "n_cases": 40, "seed": 11})
    blobs = []
    for name in ("a", "b", "c"):
        report = run_scenario(scn, out_dir=str(tmp_path / name))
        blobs.append(Path(report.outputs[0]).read_bytes())
    assert blobs[0] == blobs[1] == blobs[2]


def test_json_output(tmp_path):
    scn = validate_scenario(
        {"kind": "resonance-curve", "gamma": 0.04, "delta_min": -0.1, "delta_max": 0.1,
         "n_points": 5, "t_pass": 10.0, "format": "json"}
    )
    report = run_scenario(scn, out_dir=str(tmp_path))
    assert report.outputs[0].endswith("resonance-curve.json")
    doc = json.loads(Path(report.outputs[0]).read_text(encoding="utf-8"))
    assert doc["columns"] == ["delta", "p_down", "p_up"]
    assert len(doc["rows"]) == 5
    from quatspin.spin import spin_flip_probability

    mid = doc["rows"][2]
    assert abs(mid[0]) < 1e-15
    assert mid[1] == spin_flip_probability(10.0, 0.04, mid[0])
    assert mid[1] + mid[2] == pytest.approx(1.0, abs=1e-15)
    scn2 = validate_scenario(
        {"kind": "resonance-curve", "gamma": 0.04, "delta_min": -0.1, "delta_max": 0.1,
         "n_points": 5, "t_pass": 10.0, "format": "json"}
    )
    report2 = run_scenario(scn2, out_dir=str(tmp_path / "again"))
    assert Path(report.outputs[0]).read_bytes() == Path(report2.outputs[0]).read_bytes()


def reference_csv(columns, rows) -> bytes:
    """The CSV encoder as it was before columns were typed: one dispatch per cell."""

    def cell(value):
        if isinstance(value, str):
            return value
        if isinstance(value, (bool, np.bool_)):
            return "true" if value else "false"
        if isinstance(value, (int, np.integer)):
            return str(int(value))
        return repr(float(value))

    return "".join(",".join(map(cell, row)) + "\n" for row in [columns, *rows]).encode("utf-8")


def column_values(n: int, text):
    """One column of n cells: float64 (finite, or with NaN and inf), int64 or str."""
    return st.one_of(
        st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=n, max_size=n),
        st.lists(st.floats(), min_size=n, max_size=n),
        st.lists(st.integers(-(2**63), 2**63 - 1), min_size=n, max_size=n).map(lambda v: np.array(v, dtype=np.int64)),
        st.lists(text, min_size=n, max_size=n).map(lambda v: np.array(v, dtype=str)),
    ).map(lambda v: v if isinstance(v, np.ndarray) else np.array(v, dtype=np.float64))


def typed_tables(text):
    """(columns, extra columns made from earlier ones, write block size): rows 0..6, 1..4 drawn columns."""
    return st.tuples(st.integers(0, 6), st.integers(1, 4)).flatmap(lambda shape: st.tuples(
        st.lists(column_values(shape[0], text), min_size=shape[1], max_size=shape[1]),
        # the same array object, or an equal-valued copy (with 0.0 turned into -0.0)
        st.lists(st.tuples(st.integers(0, shape[1] - 1), st.sampled_from(["same", "copy", "flip-zero"])), max_size=3),
        st.integers(1, 4)))


def with_twins(columns, twins):
    columns = list(columns)
    for k, how in twins:
        col = columns[k]
        if how == "flip-zero" and col.dtype.kind == "f":
            col = np.where(col == 0.0, -col, col)  # equal to the column, but "-0.0" against "0.0"
        elif how != "same":
            col = col.copy()
        columns.append(col)
    return columns


def first_non_finite(names, columns):
    return next((name for name, col in zip(names, columns)
                 if col.dtype.kind == "f" and not np.isfinite(col).all()), None)


# surrogates have no UTF-8 encoding; NUL is left out, as numpy's str dtype drops a trailing one
ANY_TEXT = st.text(st.characters(blacklist_characters="\0") | st.sampled_from(["\ud800", "\udfff"]), max_size=5)


# a twin that equals its column but for the sign of a zero must not share the column's cells
FLIPPED_ZERO_TWIN = ([np.array([0.0, 1.0, -0.0])], [(0, "flip-zero")], 2)


@settings(max_examples=150, deadline=None)
@example(FLIPPED_ZERO_TWIN)
@given(typed_tables(st.text(st.characters(blacklist_characters=",\n\r\0") | st.just("\ud800"), max_size=5)))
def test_write_table_csv_bytes_match_per_cell_encoder(tmp_path_factory, table):
    columns, twins, block = table
    columns = with_twins(columns, twins)
    names = [f"c{i}" for i in range(len(columns))]
    path = tmp_path_factory.mktemp("csv") / "t.csv"
    with mock.patch.object(scenarios, "_BLOCK_ROWS", block):  # several blocks, so that their seams are covered
        if (bad := first_non_finite(names, columns)) is not None:
            # a NaN or inf cell is refused in CSV as in JSON, naming the first column that holds one
            with pytest.raises(ValueError, match=f"^column {bad!r} holds a NaN or infinite value$"):
                write_table(str(path), names, columns, "csv")
            assert list(path.parent.iterdir()) == []
            return
        try:
            expected = reference_csv(names, zip(*(col.tolist() for col in columns)))
        except UnicodeEncodeError:  # a lone surrogate has no UTF-8 encoding: both encoders must refuse it
            with pytest.raises(UnicodeEncodeError):
                write_table(str(path), names, columns, "csv")
            assert list(path.parent.iterdir()) == []
            return
        write_table(str(path), names, columns, "csv")
    assert path.read_bytes() == expected


def reference_json(columns, rows) -> bytes:
    """The JSON encoder as it was before columns were typed: one dispatch per cell, streamed."""

    def cell(value):
        if isinstance(value, str):
            return value
        if isinstance(value, (bool, np.bool_)):
            return bool(value)
        if isinstance(value, (int, np.integer)):
            return int(value)
        return float(value)

    buf = io.StringIO()
    json.dump({"columns": list(columns), "rows": [[cell(v) for v in row] for row in rows]}, buf, separators=(",", ":"))
    return (buf.getvalue() + "\n").encode("utf-8")


@settings(max_examples=150, deadline=None)
@example(FLIPPED_ZERO_TWIN)
@given(typed_tables(ANY_TEXT))
def test_write_table_json_bytes_match_per_cell_encoder(tmp_path_factory, table):
    columns, twins, block = table
    columns = with_twins(columns, twins)
    names = [f"c{i}" for i in range(len(columns))]
    path = tmp_path_factory.mktemp("json") / "t.json"
    expected = reference_json(names, zip(*(col.tolist() for col in columns)))
    with mock.patch.object(scenarios, "_BLOCK_ROWS", block):  # several blocks, so that their seams are covered
        if (bad := first_non_finite(names, columns)) is not None:
            # the reference writes bare NaN/Infinity tokens, which RFC 8259 does not allow: write_table refuses
            with pytest.raises(ValueError, match=f"^column {bad!r} holds a NaN or infinite value$"):
                write_table(str(path), names, columns, "json")
            assert list(path.parent.iterdir()) == []
            return
        write_table(str(path), names, columns, "json")
    assert path.read_bytes() == expected


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_write_table_encodes_each_distinct_column_once_per_block(tmp_path, fmt):
    x = np.array([0.0, 1.5, -0.0, 2.5, 0.0])
    n, s = np.arange(5), np.array(["a", "b", "c", "d", "e"])
    flipped = np.where(x == 0.0, -x, x)  # equal to x, but "-0.0" against "0.0": its cells are its own
    names = ["n", "x", "s", "x_again", "s_again", "flipped", "x_third"]
    columns = [n, x, s, x, s, flipped, x]
    encoded = []

    def counted(text):
        def wrapper(value):
            if value not in names:  # JSON quotes the header's names with the str text too
                encoded.append(value)
            return text(value)
        return wrapper

    cell_text = {kind: counted(text) for kind, text in scenarios._CELL_TEXT.items()}
    quote = counted(json.encoder.encode_basestring_ascii)
    path = tmp_path / f"t.{fmt}"
    with mock.patch.object(scenarios, "_BLOCK_ROWS", 2), mock.patch.dict(scenarios._CELL_TEXT, cell_text), \
            mock.patch.object(json.encoder, "encode_basestring_ascii", quote):
        write_table(str(path), names, columns, fmt)
    # every cell of n, x, s and flipped once, block by block: 2, 2, then 1 row
    assert encoded == [cell for lo in (0, 2, 4) for col in (n, x, s, flipped) for cell in col[lo:lo + 2].tolist()]
    rows = list(zip(*(col.tolist() for col in columns)))
    expected = reference_csv(names, rows) if fmt == "csv" else reference_json(names, rows)
    assert path.read_bytes() == expected


def typed(rows):
    """The columns of equal-length rows, each as the numpy array of its cells."""
    return [np.array(col) for col in zip(*rows)]


def test_write_table_is_atomic(tmp_path):
    target = tmp_path / "t.csv"
    # a lone surrogate has no UTF-8 encoding: the CSV encode fails part-way through the table
    with pytest.raises(UnicodeEncodeError):
        write_table(str(target), ("a", "b"), typed([[1.0, "x"], [2.0, "\ud800"]]), "csv")
    assert list(tmp_path.iterdir()) == []
    target.write_bytes(b"kept\n")
    failing = [("csv", typed([[1.0, "x"], [2.0, "\ud800"]])), ("json", [np.array([1.0]), np.array([object()])]),
               ("csv", [np.array([1.0, 3.0]), np.array([2.0])]), ("json", typed([[1.0, math.nan]])),
               ("csv", typed([[1.0, 2.0], [3.0, math.inf]]))]
    for fmt, columns in failing:
        with pytest.raises((UnicodeEncodeError, TypeError, ValueError)):
            write_table(str(target), ("a", "b"), columns, fmt)
        assert list(tmp_path.iterdir()) == [target] and target.read_bytes() == b"kept\n"
    write_table(str(target), ("a", "b"), typed([[1, 0.5]]), "csv")
    assert list(tmp_path.iterdir()) == [target] and target.read_bytes() == b"a,b\n1,0.5\n"


# the landing of a table onto a name that already holds one: an exchange of the two names, else os.replace


def test_write_table_overwrite_lands_a_new_file_and_an_open_reader_keeps_the_old_bytes(tmp_path):
    target = tmp_path / "t.csv"
    write_table(str(target), ("a",), [np.array([1.0])], "csv")
    inode = target.stat().st_ino
    with open(target, "rb") as reader:
        write_table(str(target), ("a",), [np.array([2.0, 3.0])], "csv")
        assert os.listdir(tmp_path) == ["t.csv"]
        assert target.read_bytes() == b"a\n2.0\n3.0\n" and target.stat().st_ino != inode
        assert reader.read() == b"a\n1.0\n"


def exchange_works_in(directory) -> bool:
    """Whether renameat2 resolves and the file system under directory exchanges two names."""
    a, b = directory / "probe-a", directory / "probe-b"
    a.write_bytes(b"a")
    b.write_bytes(b"b")
    try:
        return scenarios._landed_by_exchange(str(a), str(b))  # b is a regular file, so renameat2 is tried
    finally:
        assert b.read_bytes() in (b"a", b"b")  # swapped, or left as it was
        a.unlink()
        b.unlink()


def test_write_table_overwrite_does_not_call_os_replace_where_the_exchange_works(tmp_path, monkeypatch):
    if not exchange_works_in(tmp_path):
        pytest.skip("no renameat2 RENAME_EXCHANGE here (not Linux, or a file system without it)")
    replace, calls = os.replace, []
    monkeypatch.setattr(os, "replace", lambda *args: calls.append(args) or replace(*args))
    target = tmp_path / "t.csv"
    write_table(str(target), ("a",), [np.array([1.0])], "csv")
    assert len(calls) == 1  # a new name goes through os.replace
    write_table(str(target), ("a",), [np.array([2.0])], "csv")
    assert len(calls) == 1
    assert os.listdir(tmp_path) == ["t.csv"] and target.read_bytes() == b"a\n2.0\n"


def test_write_table_lands_through_os_replace_when_the_exchange_is_refused(tmp_path, monkeypatch):
    columns = [np.arange(3), np.array([0.5, 1.5, 2.5])]
    write_table(str(tmp_path / "ref.csv"), ("a", "b"), columns, "csv")
    target = tmp_path / "out" / "t.csv"
    target.parent.mkdir()
    target.write_bytes(b"earlier\n")
    refused = []

    def refuse(*args):
        refused.append(args)
        return -1  # as renameat2 fails, with errno set (EINVAL, ENOSYS, ...)

    monkeypatch.setattr(scenarios, "_renameat2", refuse)
    write_table(str(target), ("a", "b"), columns, "csv")
    assert len(refused) == 1 and refused[0][3] == os.fsencode(target)
    assert os.listdir(target.parent) == ["t.csv"]
    assert target.read_bytes() == (tmp_path / "ref.csv").read_bytes()


def test_write_table_replaces_a_symlink_and_leaves_what_it_points_to(tmp_path):
    pointee = tmp_path / "kept.csv"
    pointee.write_bytes(b"kept\n")
    link = tmp_path / "out" / "t.csv"
    link.parent.mkdir()
    link.symlink_to(pointee)
    write_table(str(link), ("a",), [np.array([1.0])], "csv")
    assert not link.is_symlink() and link.read_bytes() == b"a\n1.0\n"
    assert os.listdir(link.parent) == ["t.csv"] and pointee.read_bytes() == b"kept\n"


def test_write_table_json_names_the_first_non_finite_column(tmp_path):
    rows = [[np.float64(-math.inf), 2, "x", 0.5], [np.float64(0.5), 3, "y", math.inf], [2.0, 4, "z", math.nan]]
    with pytest.raises(ValueError, match="column 'a' holds a NaN or infinite value"):
        write_table(str(tmp_path / "t.json"), ("a", "b", "c", "d"), typed(rows), "json")
    with pytest.raises(ValueError, match="column 'd' holds"):
        write_table(str(tmp_path / "t.json"), ("a", "b", "c", "d"), typed(rows[1:]), "json")
    assert list(tmp_path.iterdir()) == []


def test_write_table_csv_names_the_first_non_finite_column(tmp_path):
    rows = [[1, 1e308, np.float64(0.5), "x", math.inf], [2, 1e308, np.float64(math.nan), "y", 0.5]]
    # column b, all 1e308, is finite and is written
    with pytest.raises(ValueError, match="^column 'c' holds a NaN or infinite value$"):
        write_table(str(tmp_path / "t.csv"), ("a", "b", "c", "d", "e"), typed(rows), "csv")
    with pytest.raises(ValueError, match="^column 'e' holds"):
        write_table(str(tmp_path / "t.csv"), ("a", "b", "c", "d", "e"),
                    typed(row[:2] + [0.5] + row[3:] for row in rows), "csv")
    assert list(tmp_path.iterdir()) == []
    write_table(str(tmp_path / "t.csv"), ("a", "b"), typed(row[:2] for row in rows), "csv")
    assert (tmp_path / "t.csv").read_bytes() == b"a,b\n1,1e+308\n2,1e+308\n"


def test_write_table_rejects_ragged_rows(tmp_path):
    with pytest.raises(ValueError):
        write_table(str(tmp_path / "t.csv"), ("a", "b"), [np.array([1, 2]), np.array([0.5])], "csv")


def test_write_table_csv_lf_endings(tmp_path):
    path = str(tmp_path / "t.csv")
    write_table(path, ("a", "b"), typed([[1, 0.5], [2, 0.25]]), "csv")
    blob = Path(path).read_bytes()
    assert b"\r" not in blob
    assert blob.decode("utf-8") == "a,b\n1,0.5\n2,0.25\n"


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("names, columns", [
    ((), []),
    (("a", "b", "c"), [np.array([1]), np.array([2])]),  # a header wider than its rows
    (("a",), [np.array([1]), np.array([2])]),  # rows wider than their header
])
def test_write_table_needs_one_name_per_column_and_a_column(tmp_path, fmt, names, columns):
    with pytest.raises(ValueError, match="one name per column and at least one column"):
        write_table(str(tmp_path / f"t.{fmt}"), names, columns, fmt)
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("fmt", ["CSV", "Json", "xml", "tsv", ""])
def test_write_table_refuses_a_format_it_does_not_write(tmp_path, fmt):
    with pytest.raises(ValueError, match=f"^format {re.escape(repr(fmt))} is not one of csv, json$"):
        write_table(str(tmp_path / "t.out"), ("a",), [np.array([1.0])], fmt)
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("columns, bad", [
    ([np.zeros((2, 2)), np.array([1.0, 2.0])], "a"),  # a 2-D column the length of its neighbour
    ([np.array([1.0, 2.0]), [1.0, 2.0]], "b"),  # a list
    ([np.array([1.0]), (1.0,)], "b"),
    ([np.array([1.0]), np.float64(1.0)], "b"),  # a numpy scalar
    ([np.array([1.0]), np.array(1.0)], "b"),  # a 0-d array
    ([[1.0], np.zeros((1, 1))], "a"),  # the first such column is named
])
def test_write_table_refuses_a_column_that_is_not_a_1d_array(tmp_path, fmt, columns, bad):
    with pytest.raises(TypeError, match=f"^column {bad!r} is not a 1-D numpy array$"):
        write_table(str(tmp_path / f"t.{fmt}"), ("a", "b"), columns, fmt)
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_write_table_holds_one_block_of_cells_however_long_the_table(tmp_path, fmt):
    names = ("a", "b", "c", "d")
    write_table(str(tmp_path / f"t.{fmt}"), names, [np.zeros(1)] * len(names), fmt)  # one-time allocations first
    peaks = []
    for blocks in (4, 32):
        n = blocks * scenarios._BLOCK_ROWS
        columns = [np.linspace(k, k + 1.0, n) / 3.0 for k in range(len(names))]
        tracemalloc.start()
        try:
            write_table(str(tmp_path / f"t.{fmt}"), names, columns, fmt)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    # a writer that holds every row at once peaks about 28 blocks of cells higher on the longer table
    one_block = scenarios._BLOCK_ROWS * len(names) * sys.getsizeof(0.5)
    assert abs(peaks[1] - peaks[0]) < one_block, (peaks, one_block)


def readout_call(blocks: int):
    q = np.random.default_rng(blocks).normal(size=(1024 * blocks, 4))
    q /= np.linalg.norm(q, axis=1, keepdims=True)
    return lambda: rotate_batch(q, [0.0, 0.0, 1.0])


def runner_call(kind: str, **params):
    scn = validate_scenario({"kind": kind, "seed": 1, **params})
    return lambda: scenarios._RUNNERS[kind](scn)


# each call at 1024 * blocks rows (a quarter as many lorentz-check cases, four rows each), and the most that its
# peak may grow per byte of growth in what it returns; a readout of all rows at once makes the peaks of
# rotate_batch, helical and pms grow 8.7, 3.4 and 2.5 times as much
RETURNED_MEMORY = {
    "rotate_batch": (readout_call, 1.5),
    "helical": (lambda blocks: runner_call("helical", gamma=0.04, omega=0.02, delta=0.0, dt=0.125,
                                           t_max=128.0 * blocks), 1.5),
    # read out in place, the conjugate states grow the peak as sign +1 does, 0.93 times; a conjugated copy, 1.44
    "helical-sign-minus": (lambda blocks: runner_call("helical", gamma=0.04, omega=0.02, delta=0.0, dt=0.125,
                                                      t_max=128.0 * blocks, sign=-1), 1.2),
    # the table's states are the chain's own rows, 1.0 times; a stacked copy of the states and mid states, 1.375
    "pms": (lambda blocks: runner_call("pms", xi1=0.3, xi2=0.01, theta=0.15, n_blocks=1024 * blocks), 1.1),
    # drawn and transformed one block of cases at a time, 0.96 times; every case at once, in buffers sized for
    # max_generators per case, 2.55
    "lorentz-check": (lambda blocks: runner_call("lorentz-check", n_cases=256 * blocks), 1.2),
}


@pytest.mark.parametrize("name", sorted(RETURNED_MEMORY))
def test_peak_memory_grows_as_what_the_call_returns(name):
    make, bound = RETURNED_MEMORY[name]
    make(1)()  # one-time allocations first
    traced = []
    for blocks in (4, 32):
        call = make(blocks)  # the inputs are made before the trace starts
        tracemalloc.start()
        try:
            returned = call()
            traced.append(tracemalloc.get_traced_memory())  # (what the result holds, the peak)
        finally:
            tracemalloc.stop()
        del returned
    (kept_short, peak_short), (kept_long, peak_long) = traced
    assert peak_long - peak_short <= bound * (kept_long - kept_short), (traced, bound)


# every kind across several 1024-row blocks (5000 helical steps, 3001 pms stations, 2000 lorentz-check cases of
# four rows, 5000 points), and em-check at its most levels: its table has at most 60 rows
COLLECTION_DOCUMENTS = {
    "helical": {"kind": "helical", "gamma": 0.04, "omega": 0.02, "delta": 0.0, "dt": 0.125, "t_max": 625.0},
    "helical-sign-minus": {"kind": "helical", "gamma": 0.04, "omega": 0.02, "delta": 0.0, "dt": 0.125,
                           "t_max": 625.0, "sign": -1},
    "pms": {"kind": "pms", "xi1": 0.3, "xi2": 0.01, "theta": 0.15, "n_blocks": 3000},
    "lorentz-check": {"kind": "lorentz-check", "n_cases": 2000},
    "resonance-curve": {"kind": "resonance-curve", "gamma": 0.04, "delta_min": -0.4, "delta_max": 0.4,
                        "n_points": 5000, "t_pass": 78.5},
    "em-check": {"kind": "em-check", "case": "point-charge", "n_levels": 12},
}



def math_field(t):
    """The helical field as a plain callable, math only: one call, and one returned tuple, per sample time."""
    return (-0.04 * math.cos(0.02 * t), -0.04 * math.sin(0.02 * t), 0.02)


# the library calls that the runners make, called directly, and integrate_spin on a 1024-step plain callable
COLLECTION_CALLS = {
    "integrate_spin": lambda: integrate_spin(helical_field(HelicalParams(0.04, 0.0, 0.02)), IDENTITY, (0.0, 625.0),
                                             0.125),
    "integrate_spin-plain-callable": lambda: integrate_spin(math_field, IDENTITY, (0.0, 128.0), 0.125),
    "pms_propagate": lambda: pms_propagate(PmsConfig(3000, 0.3, 0.01, 0.15), [0.0, 0.0, 1.0]),
}


@pytest.mark.parametrize(("name", "fmt"), [*((name, fmt) for name in COLLECTION_DOCUMENTS for fmt in ("csv", "json")),
                                           *((name, None) for name in COLLECTION_CALLS)])
def test_no_run_sets_off_a_garbage_collection(tmp_path, name, fmt):
    # CPython collects the young generation once 700 more tracked containers are alive than at the last
    # collection; a run that keeps a container per row alive sets it off inside the run, several times a run
    if fmt is None:
        call = COLLECTION_CALLS[name]
    else:
        scn = validate_scenario({**COLLECTION_DOCUMENTS[name], "format": fmt})
        call = lambda: run_scenario(scn, str(tmp_path))
    call()  # the first run imports the runner's modules and fills one-time caches
    starts = []

    def count(phase, info):
        if phase == "start":
            starts.append(info["generation"])

    threshold = gc.get_threshold()
    gc.set_threshold(700, *threshold[1:])  # CPython's default, whatever the process set
    gc.collect()
    gc.callbacks.append(count)
    try:
        call()
    finally:
        gc.callbacks.remove(count)
        gc.set_threshold(*threshold)
    assert starts == []


def profile_counts(call) -> dict:
    """The number of 'call' (Python function) and 'c_call' (builtin) events that sys.setprofile sees in call()."""
    counts = dict.fromkeys(("call", "c_call"), 0)

    def count(frame, event, arg):
        if event in counts:
            counts[event] += 1

    previous = sys.getprofile()
    sys.setprofile(count)
    try:
        call()
    finally:
        sys.setprofile(previous)
    return counts


# (document at size n, its table rows, two sizes, {event: (a, b)}): a warm run_scenario at either size makes
# a + b * rows events of each kind, as measured on Python 3.11 with numpy 2.4.  The budget is 1.25 a + (b + 0.1) *
# rows: one more call per row, per pms station (two rows) or per lorentz-check case (four rows) exceeds it
CALL_BUDGETS = {
    "helical": (lambda n: {"kind": "helical", "gamma": 0.04, "omega": 0.02, "delta": 0.0, "dt": 0.125,
                           "t_max": 0.125 * n}, lambda n: n + 1, (1000, 5000),
                {"call": (128, 1.089), "c_call": (190, 1.148)}),
    "pms": (lambda n: {"kind": "pms", "xi1": 0.3, "xi2": 0.01, "theta": 0.15, "n_blocks": n}, lambda n: 2 * (n + 1),
            (500, 2500), {"call": (79, 1.044), "c_call": (142, 0.119)}),
    "lorentz-check": (lambda n: {"kind": "lorentz-check", "n_cases": n}, lambda n: 4 * n, (250, 1250),
                      {"call": (580, 0.440), "c_call": (381, 8.029)}),
    "resonance-curve": (lambda n: {"kind": "resonance-curve", "gamma": 0.04, "delta_min": -0.4, "delta_max": 0.4,
                                   "n_points": n, "t_pass": 78.5}, lambda n: n, (1000, 5000),
                        {"call": (51, 0.012), "c_call": (95, 0.026)}),
}


@pytest.mark.parametrize("kind", sorted(CALL_BUDGETS))
def test_a_run_makes_no_more_calls_than_its_budget_per_row(tmp_path, kind):
    document, rows, sizes, measured = CALL_BUDGETS[kind]
    for n in sizes:
        scn = validate_scenario(document(n))
        run_scenario(scn, str(tmp_path))  # imports, one-time caches, and the table that the counted run replaces
        counts = profile_counts(lambda: run_scenario(scn, str(tmp_path)))
        budget = {event: 1.25 * a + (b + 0.1) * rows(n) for event, (a, b) in measured.items()}
        assert all(counts[event] <= budget[event] for event in counts), (n, counts, budget)


# ---------------------------------------------------------------------------
# CLI


def write_scenario(tmp_path, text, name="scn.txt"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


# each character that str.splitlines breaks a line at, in a path that a report line names, is written escaped as
# repr escapes it, so that each report line stays one line
BREAKS = "\n\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"


def test_cli_validate_writes_a_path_with_line_breaks_on_one_line(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "nl").mkdir()
    path = f"nl/a{BREAKS}b.scn"
    write_scenario(tmp_path, RESONANT_PMS, name=path)
    assert main(["validate", path]) == 0
    assert capsys.readouterr().out == f"ok: {repr(path)[1:-1]} is a valid 'pms' scenario\n"


def test_cli_run_writes_an_out_dir_with_line_breaks_on_one_line(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    scn = write_scenario(tmp_path, RESONANT_PMS)
    out = f"nl/o{BREAKS}ut"
    assert main(["run", scn, "--out", out]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split(": ", 1)[0] for line in lines] == ["kind", "seed", "closure_distance", "resonant_geometry",
                                                          "wrote", "duration_s"]
    assert lines[4] == f"wrote: {repr(out)[1:-1]}/pms.csv"
    assert os.listdir(tmp_path / out) == ["pms.csv"]


def test_cli_list_kinds(capsys):
    assert main(["list-kinds"]) == 0
    out = capsys.readouterr().out
    for kind in ("pms", "helical", "resonance-curve", "em-check", "lorentz-check"):
        assert kind in out


def test_cli_validate_ok(tmp_path, capsys):
    path = write_scenario(tmp_path, RESONANT_PMS)
    assert main(["validate", path]) == 0
    assert "valid" in capsys.readouterr().out


def test_cli_validate_reports_all_errors(tmp_path, capsys):
    path = write_scenario(tmp_path, "kind = pms\nxi1 = oops\nn_blocks = -2\n")
    assert main(["validate", path]) == 2
    err = capsys.readouterr().err
    assert "xi1" in err and "n_blocks" in err and "theta" in err


def test_cli_reads_each_value_as_its_keys_type(tmp_path, capsys):
    # a float key reads an integer literal beyond the largest float as inf, which its own check refuses
    path = write_scenario(tmp_path, RESONANT_PMS.replace("xi1 = 0.3", "xi1 = 1" + "0" * 400))
    assert main(["validate", path]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: key 'xi1': "), err
    # a text key keeps a number-like value as the text it is
    path = write_scenario(tmp_path, f"{RESONANT_PMS}output = 2024\n")
    assert main(["run", path, "--out", str(tmp_path / "out")]) == 0
    assert os.listdir(tmp_path / "out") == ["2024"]


def test_cli_run(tmp_path, capsys):
    path = write_scenario(tmp_path, RESONANT_PMS)
    assert main(["run", path, "--out", str(tmp_path / "out")]) == 0
    out = capsys.readouterr().out
    assert "closure_distance" in out
    assert (tmp_path / "out" / "pms.csv").exists()


def test_cli_run_missing_file(tmp_path, capsys):
    assert main(["run", str(tmp_path / "nope.txt")]) == 3
    assert "cannot read" in capsys.readouterr().err


def test_cli_run_format_override(tmp_path):
    path = write_scenario(tmp_path, RESONANT_PMS)
    assert main(["run", path, "--out", str(tmp_path / "out"), "--format", "json"]) == 0
    assert (tmp_path / "out" / "pms.json").exists()


def nan_table_runner(scn):
    """A resonance-curve runner whose table holds a NaN: the schema refuses every document known to make one."""
    return ("delta", "p_down", "p_up"), typed([[0.0, 0.5, 0.5], [0.1, math.nan, 1.0]]), {"peak_p_down": 0.5}


def test_cli_non_finite_json_table_is_a_config_error(tmp_path, capsys, monkeypatch):
    monkeypatch.setitem(scenarios._RUNNERS, "resonance-curve", nan_table_runner)
    path = write_scenario(tmp_path, RESONANT_CURVE + "format = json\n")
    assert main(["run", path, "--out", str(tmp_path / "out")]) == 2
    assert "error: ValueError: column 'p_down' holds a NaN or infinite value" in capsys.readouterr().err
    assert list((tmp_path / "out").iterdir()) == []


def test_cli_non_finite_csv_table_is_a_config_error(tmp_path, capsys, monkeypatch):
    monkeypatch.setitem(scenarios._RUNNERS, "resonance-curve", nan_table_runner)
    path = write_scenario(tmp_path, RESONANT_CURVE)
    assert main(["run", path, "--out", str(tmp_path / "out")]) == 2
    assert "error: ValueError: column 'p_down' holds a NaN or infinite value" in capsys.readouterr().err
    assert list((tmp_path / "out").iterdir()) == []


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_cli_non_finite_summary_is_a_config_error(tmp_path, capsys, monkeypatch, value):
    def runner(scn):
        summary = {"peak_delta": 0.0, "peak_p_down": value, "z": value}
        return ("delta", "p_down", "p_up"), typed([[0.0, 0.5, 0.5]]), summary

    monkeypatch.setitem(scenarios._RUNNERS, "resonance-curve", runner)
    path = write_scenario(tmp_path, RESONANT_CURVE)
    with pytest.raises(ValueError, match=r"^summary key 'peak_p_down' holds a NaN or infinite value$"):
        run_scenario(load_scenario(path), out_dir=str(tmp_path / "out"))
    assert main(["run", path, "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == "error: ValueError: summary key 'peak_p_down' holds a NaN or infinite value\n"
    assert not (tmp_path / "out").exists()  # refused before the output directory is made


def remove_chain(top: Path):
    """Remove a chain of directories, each holding the next, from its deepest level up: shutil.rmtree recurses once
    per level, as os.makedirs did."""
    levels = [top] if top.is_dir() else []
    while levels:
        entries = list(levels[-1].iterdir())
        for entry in entries:
            if not entry.is_dir():
                entry.unlink()
        deeper = next((entry for entry in entries if entry.is_dir()), None)
        if deeper is None:
            break
        levels.append(deeper)
    for level in reversed(levels):
        level.rmdir()


def test_cli_deep_out_dir_is_made_one_level_at_a_time(tmp_path, capsys, monkeypatch):
    # os.makedirs recurses once per missing level: both of these ended in a RecursionError traceback, exit 1
    path = write_scenario(tmp_path, RESONANT_PMS)
    monkeypatch.chdir(tmp_path)
    try:
        assert main(["run", path, "--out", "d/" * 3000]) == 3  # 6000 characters, more than a path may hold
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.count("\n") == 1
        assert captured.err.startswith(f"error: [Errno {errno.ENAMETOOLONG}] {os.strerror(errno.ENAMETOOLONG)}: ")
        assert sorted(os.listdir(tmp_path)) == ["scn.txt"]  # refused before a level is made
        monkeypatch.setenv("QUATSPIN_OUT_DIR", "e/" * 1200)  # 2400 characters, which the file system takes
        assert main(["run", path]) == 0
        assert os.listdir(tmp_path / ("e/" * 1200)) == ["pms.csv"]
    finally:  # from the working directory: a level deeper than PATH_MAX is still reached by its relative path
        remove_chain(Path("d"))
        remove_chain(Path("e"))


def test_cli_out_dir_env_fallback(tmp_path, monkeypatch):
    monkeypatch.setenv("QUATSPIN_OUT_DIR", str(tmp_path / "envout"))
    path = write_scenario(tmp_path, RESONANT_PMS)
    assert main(["run", path]) == 0
    assert (tmp_path / "envout" / "pms.csv").exists()


@pytest.mark.parametrize("value", ["-3", "0", "two", "1.5"])
def test_cli_threads_must_be_an_integer_of_at_least_one(tmp_path, capsys, value):
    path = write_scenario(tmp_path, RESONANT_PMS)
    with pytest.raises(SystemExit) as stop:
        main(["run", path, "--out", str(tmp_path / "out"), "--threads", value])
    assert stop.value.code == 2
    err = capsys.readouterr().err
    assert "--threads: must be an integer >= 1" in err and "Traceback" not in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("case", ["plane-wave", "point-charge", "constant"])
@pytest.mark.parametrize("h0", ["1e300", "0.26", "9e-5", "1e-160", "1e-300"])
def test_cli_em_check_step_out_of_bounds_is_a_config_error(tmp_path, capsys, case, h0):
    # at h0 = 1e300 the point charge's residuals overflowed to a table of zeros, exit 0; at 1e-160
    # and 1e-300 numpy warned before the run exited 2
    path = write_scenario(tmp_path, f"kind = em-check\ncase = {case}\nh0 = {h0}\nn_levels = 12\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["run", path, "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == f"error: key 'h0': value {float(h0)!r} must be in [1e-4, 0.25]\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("high", ["1e308", "1.7976931348623157e308"])
def test_cli_resonance_span_that_overflows_is_a_config_error(tmp_path, capsys, high):
    # np.linspace warned twice about the overflowing span before the run exited 2
    path = write_scenario(tmp_path, f"kind = resonance-curve\ngamma = 0.04\ndelta_min = -{high}\ndelta_max = {high}\n"
                                    "n_points = 7\nt_pass = 20.0\n")
    for argv in (["validate", path], ["run", path, "--out", str(tmp_path / "out")]):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(argv) == 2
        assert capsys.readouterr().err == "error: key 'delta_max': must be greater than delta_min, by a finite span\n"
    assert not (tmp_path / "out").exists()


def test_cli_byte_identical_reruns(tmp_path):
    path = write_scenario(tmp_path, "kind = lorentz-check\nn_cases = 30\nseed = 3\n")
    assert main(["run", path, "--out", str(tmp_path / "r1")]) == 0
    assert main(["run", path, "--out", str(tmp_path / "r2")]) == 0
    b1 = (tmp_path / "r1" / "lorentz-check.csv").read_bytes()
    b2 = (tmp_path / "r2" / "lorentz-check.csv").read_bytes()
    assert b1 == b2


def test_cli_module_entry_point(tmp_path):
    path = write_scenario(tmp_path, RESONANT_CURVE)
    proc = subprocess.run(
        [sys.executable, "-m", "quatspin.cli", "run", path, "--out", str(tmp_path / "out")],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert "peak_p_down" in proc.stdout
    assert (tmp_path / "out" / "resonance-curve.csv").exists()

    bad = write_scenario(tmp_path, "kind = nope\n", name="bad.txt")
    proc = subprocess.run(
        [sys.executable, "-m", "quatspin.cli", "validate", bad],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 2
    assert "allowed kinds" in proc.stderr


@pytest.mark.parametrize("command", ["validate", "run"])
def test_cli_nul_in_output_is_a_config_error_listed_with_the_others(tmp_path, capsys, command):
    path = write_scenario(tmp_path, RESONANT_PMS + "output = t\0.csv\nbogus = 1\n")
    assert main([command, path] + (["--out", str(tmp_path / "out")] if command == "run" else [])) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: unknown key 'bogus'\nerror: key 'output': value 't\\x00.csv' must be a bare "
                            "file name (no directory part or NUL, not '.' or '..')\n")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("length, code", [(255, 0), (256, 3)])
def test_cli_output_name_length_is_the_file_systems_limit(tmp_path, capsys, length, code):
    name = "t" * (length - 4) + ".csv"
    assert main(["run", write_scenario(tmp_path, RESONANT_PMS, name="ref.scn"), "--out", str(tmp_path / "ref")]) == 0
    path = write_scenario(tmp_path, RESONANT_PMS + f"output = {name}\n")
    assert main(["validate", path]) == 0
    capsys.readouterr()
    assert main(["run", path, "--out", str(tmp_path / "out")]) == code
    captured = capsys.readouterr()
    if code == 0:  # the table lands under its name, and the temporary file is gone
        assert os.listdir(tmp_path / "out") == [name]
        assert (tmp_path / "out" / name).read_bytes() == (tmp_path / "ref" / "pms.csv").read_bytes()
        assert f"wrote: {tmp_path / 'out' / name}" in captured.out
    else:
        assert captured.err.startswith("error: ") and "File name too long" in captured.err
        assert os.listdir(tmp_path / "out") == []


def test_cli_reads_a_scenario_saved_with_a_byte_order_mark(tmp_path, capsys):
    plain = tmp_path / "plain.scn"
    plain.write_text(RESONANT_PMS, encoding="utf-8")
    bom = tmp_path / "bom.scn"
    bom.write_text(RESONANT_PMS, encoding="utf-8-sig")
    assert bom.read_bytes() == b"\xef\xbb\xbf" + plain.read_bytes()
    assert load_scenario(str(bom)) == load_scenario(str(plain))
    for name in ("plain", "bom"):
        assert main(["run", str(tmp_path / f"{name}.scn"), "--out", str(tmp_path / name)]) == 0
    assert (tmp_path / "bom" / "pms.csv").read_bytes() == (tmp_path / "plain" / "pms.csv").read_bytes()
    utf16 = tmp_path / "utf16.scn"  # still not UTF-8, BOM or not
    utf16.write_text(RESONANT_PMS, encoding="utf-16")
    capsys.readouterr()
    assert main(["validate", str(utf16)]) == 2
    assert capsys.readouterr().err.startswith("error: UnicodeDecodeError: 'utf-8' codec can't decode byte 0xff")


UNWRITABLE_OUT = {
    "out-is-a-file": (lambda out: out.write_text(""), "[Errno 17] File exists"),
    "table-is-a-directory": (lambda out: (out / "pms.csv").mkdir(parents=True), "[Errno 21] Is a directory"),
}


@pytest.mark.parametrize("name", sorted(UNWRITABLE_OUT))
def test_cli_unwritable_out_is_an_io_error(tmp_path, capsys, name):
    make, message = UNWRITABLE_OUT[name]
    path = write_scenario(tmp_path, RESONANT_PMS)
    make(tmp_path / "out")
    before = sorted(str(p) for p in tmp_path.rglob("*"))
    assert main(["run", path, "--out", str(tmp_path / "out")]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {message}: ") and captured.err.count("\n") == 1
    assert sorted(str(p) for p in tmp_path.rglob("*")) == before  # no temporary file left behind


# an --out that the file system refuses as it stands, however the scenario's run would go
UNUSABLE_OUT = {
    "names-a-file": (lambda out: out, "[Errno 17] File exists"),
    "passes-through-a-file": (lambda out: out / "sub" / "dir", "[Errno 20] Not a directory"),
}


@pytest.mark.parametrize("name", sorted(UNUSABLE_OUT))
def test_cli_unusable_out_is_refused_before_the_run(tmp_path, capsys, monkeypatch, name):
    below, message = UNUSABLE_OUT[name]
    # so a document whose summary is not finite exits 3 here too, not 2
    monkeypatch.setitem(scenarios._RUNNERS, "pms", lambda scn: pytest.fail("the runner was called"))
    path = write_scenario(tmp_path, RESONANT_PMS)
    (tmp_path / "out").write_text("")
    assert main(["run", path, "--out", str(below(tmp_path / "out"))]) == 3
    assert capsys.readouterr().err == f"error: {message}: {str(below(tmp_path / 'out'))!r}\n"
    assert sorted(os.listdir(tmp_path)) == ["out", "scn.txt"] and (tmp_path / "out").read_text() == ""


def test_cli_says_the_table_landed_when_the_earlier_one_cannot_be_removed(tmp_path, capsys, monkeypatch):
    if not exchange_works_in(tmp_path):
        pytest.skip("no renameat2 RENAME_EXCHANGE here (not Linux, or a file system without it)")
    path, out = write_scenario(tmp_path, RESONANT_PMS), tmp_path / "out"
    assert main(["run", path, "--out", str(out)]) == 0
    table = (out / "pms.csv").read_bytes()
    (out / "pms.csv").write_bytes(b"earlier\n")
    remove = os.remove

    def failing_remove(name, *args, **kwargs):
        if os.path.basename(name).startswith(".quatspin-"):
            raise OSError(errno.EIO, os.strerror(errno.EIO), name)
        return remove(name, *args, **kwargs)

    monkeypatch.setattr(os, "remove", failing_remove)
    capsys.readouterr()
    assert main(["run", path, "--out", str(out)]) == 3
    [left] = [name for name in os.listdir(out) if name != "pms.csv"]
    assert (out / "pms.csv").read_bytes() == table and (out / left).read_bytes() == b"earlier\n"
    assert capsys.readouterr() == ("", f"error: [Errno 5] {str(out / 'pms.csv')!r} landed, but the earlier table is "
                                       f"left in {str(out / left)!r}: Input/output error\n")


def exhausted_encoder(names, columns):
    yield ",".join(names) + "\n"
    raise MemoryError


@pytest.mark.parametrize("where", ["runner", "encoder"])
def test_cli_run_out_of_memory_exits_3_with_one_line(tmp_path, capsys, monkeypatch, where):
    if where == "runner":
        monkeypatch.setitem(scenarios._RUNNERS, "pms", mock.Mock(side_effect=MemoryError))
    else:  # after the temporary file is open
        monkeypatch.setattr(scenarios, "_csv_text", exhausted_encoder)
    out = tmp_path / "out"
    assert main(["run", write_scenario(tmp_path, RESONANT_PMS), "--out", str(out)]) == 3
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == "error: out of memory during the run\n"
    assert (os.listdir(out) if out.exists() else []) == []  # no table, and no .quatspin-*.tmp file


# ---------------------------------------------------------------------------
# the command line's contract when its own output cannot be written


class FailingStream(io.StringIO):
    """A stdout or stderr whose write raises err once the text written would reach line number at."""

    def __init__(self, err=None, at=1):
        super().__init__()
        self.err, self.at, self.raised = err, at, False

    def write(self, text):
        if self.err is not None and self.getvalue().count("\n") + text.count("\n") >= self.at:
            self.raised = True
            raise self.err
        return super().write(text)


def run_main(argv, stdout, stderr) -> int:
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        try:
            return main(argv)
        except SystemExit as stop:  # main exits itself, after a usage error or help
            return stop.code


# every command, and each stream it writes: (argv, scenario text or None for no file, stream, exit code)
OUTPUT_CASES = {
    "list-kinds": (["list-kinds"], None, "stdout", 0),
    "usage-error": (["bogus"], None, "stderr", 2),
    "help": (["--help"], None, "stdout", 0),
    "validate": (["validate", "{scn}"], RESONANT_PMS, "stdout", 0),
    "validate-invalid": (["validate", "{scn}"], "kind = pms\nxi1 = oops\n", "stderr", 2),
    "validate-missing-file": (["validate", "{scn}"], None, "stderr", 3),
    "run": (["run", "{scn}", "--out", "{out}"], RESONANT_PMS, "stdout", 0),
    "run-invalid": (["run", "{scn}", "--out", "{out}"], "kind = pms\nxi1 = oops\n", "stderr", 2),
    # |B|^2 = 1e-400 underflows, so the schema reads a first step of 0 rad, but the RK4 step quaternion overflows
    "run-library-error": (["run", "{scn}", "--out", "{out}"],
                          "kind = helical\ngamma = 1e-200\ndelta = 0.0\nomega = 0.0\nt_max = 1e200\ndt = 1e200\n",
                          "stderr", 2),
    "run-missing-file": (["run", "{scn}", "--out", "{out}"], None, "stderr", 3),
    "run-out-is-a-file": (["run", "{scn}", "--out", "{scn}"], RESONANT_PMS, "stderr", 3),
}
OUTPUT_FAULTS = {"epipe": errno.EPIPE, "enospc": errno.ENOSPC}


def output_case(tmp_path, name):
    """The case's argv for an --out directory, with its scenario file written, its stream and its exit code."""
    template, text, stream, code = OUTPUT_CASES[name]
    scn = tmp_path / "scn.txt"
    if text is not None:
        scn.write_text(text, encoding="utf-8")
    return (lambda out: [arg.format(scn=scn, out=out) for arg in template]), stream, code


@pytest.mark.parametrize("fault", sorted(OUTPUT_FAULTS))
@pytest.mark.parametrize("where", ["first", "last"])
@pytest.mark.parametrize("name", sorted(OUTPUT_CASES))
def test_cli_output_fault_exits_3_without_traceback(tmp_path, name, where, fault):
    argv, stream, code = output_case(tmp_path, name)
    other = "stderr" if stream == "stdout" else "stdout"
    clean = {"stdout": io.StringIO(), "stderr": io.StringIO()}
    assert run_main(argv(tmp_path / "clean"), clean["stdout"], clean["stderr"]) == code
    lines = clean[stream].getvalue().count("\n")
    assert lines >= 1 and clean[other].getvalue() == ""

    err = OSError(OUTPUT_FAULTS[fault], os.strerror(OUTPUT_FAULTS[fault]))
    streams = {other: io.StringIO(), stream: FailingStream(err, 1 if where == "first" else lines)}
    assert run_main(argv(tmp_path / "out"), streams["stdout"], streams["stderr"]) == 3
    assert streams[stream].raised
    # a failed stdout is reported on stderr; after a failed stderr nothing is left to report on
    assert streams[other].getvalue() == (f"error: cannot write output: {err}\n" if stream == "stdout" else "")
    if name == "run":  # the table is written before the report is printed
        assert os.listdir(tmp_path / "out") == ["pms.csv"]
        assert (tmp_path / "out" / "pms.csv").read_bytes() == (tmp_path / "clean" / "pms.csv").read_bytes()


# a buffered stream fails at its flush: unless the stream is then pointed at os.devnull, the interpreter's final
# flush fails again and the process exits 120
@pytest.mark.parametrize("name", ["list-kinds", "run", "validate-missing-file", "usage-error", "help"])
def test_cli_closed_pipe_exits_3_after_the_final_flush(tmp_path, name):
    argv, stream, _ = output_case(tmp_path, name)
    other = "stderr" if stream == "stdout" else "stdout"
    src = os.path.dirname(os.path.dirname(quatspin.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    env.pop("PYTHONUNBUFFERED", None)
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run([sys.executable, "-m", "quatspin.cli", *argv(tmp_path / "out")], env=env,
                              **{stream: write_end, other: subprocess.PIPE})
    finally:
        os.close(write_end)
    assert proc.returncode == 3
    expected = b"error: cannot write output: [Errno 32] Broken pipe\n" if stream == "stdout" else b""
    assert getattr(proc, other) == expected
    if name == "run":
        assert os.listdir(tmp_path / "out") == ["pms.csv"]


# ---------------------------------------------------------------------------
# the process entry: main(), a flush of stdout and stderr, then os._exit without the interpreter's teardown


def cli_process(argv):
    """``python -m quatspin.cli`` with buffered stdout and stderr, each a pipe."""
    src = os.path.dirname(os.path.dirname(quatspin.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    env.pop("PYTHONUNBUFFERED", None)
    return subprocess.run([sys.executable, "-m", "quatspin.cli", *argv], env=env, capture_output=True, text=True)


def refuse_hard_exit(code):
    raise AssertionError(f"os._exit({code}) called in process")


@pytest.mark.parametrize("name", sorted(OUTPUT_CASES))
def test_cli_process_prints_all_main_prints_and_exits_with_its_code(tmp_path, monkeypatch, name):
    argv, _, code = output_case(tmp_path, name)
    streams = {"stdout": io.StringIO(), "stderr": io.StringIO()}
    with monkeypatch.context() as patch:
        patch.setattr(os, "_exit", refuse_hard_exit)
        assert run_main(argv(tmp_path / "main"), streams["stdout"], streams["stderr"]) == code
    proc = cli_process(argv(tmp_path / "proc"))
    assert proc.returncode == code, proc.stderr

    def same(text, out):  # the two runs differ only in their output directory and wall-clock duration
        return re.sub(r"duration_s: \d+\.\d{3}\n", "duration_s: *\n", text.replace(str(out), "*"))

    for stream in ("stdout", "stderr"):
        assert same(getattr(proc, stream), tmp_path / "proc") == same(streams[stream].getvalue(), tmp_path / "main")
    if name == "run":  # the whole report, and the same table
        assert proc.stdout.splitlines()[0] == "kind: pms" and proc.stdout.endswith("\n")
        assert proc.stdout.splitlines()[-1].startswith("duration_s: ")
        assert (tmp_path / "proc" / "pms.csv").read_bytes() == (tmp_path / "main" / "pms.csv").read_bytes()
    if name == "help":
        assert proc.stdout.startswith("usage: quatspin") and "list-kinds" in proc.stdout


class FlushFails(io.StringIO):
    """A stream whose every flush raises EPIPE."""

    def flush(self):
        raise OSError(errno.EPIPE, os.strerror(errno.EPIPE))


@pytest.mark.parametrize("argv, code", [(["list-kinds"], 0), (["bogus"], 2), (["--help"], 0), ([], 2)])
def test_entry_exits_with_mains_code_after_a_flush(monkeypatch, capsys, argv, code):
    exits = []
    monkeypatch.setattr(sys, "argv", ["quatspin", *argv])
    monkeypatch.setattr(os, "_exit", exits.append)
    cli.entry()
    assert exits == [code]
    captured = capsys.readouterr()
    assert "Traceback" not in captured.err and (captured.out if code == 0 else captured.err)


def test_entry_exits_3_when_its_flush_fails(monkeypatch):
    exits, stderr = [], io.StringIO()
    monkeypatch.setattr(cli, "main", lambda: 0)
    monkeypatch.setattr(os, "_exit", exits.append)
    with contextlib.redirect_stdout(FlushFails()), contextlib.redirect_stderr(stderr):
        cli.entry()
    assert exits == [3]
    assert stderr.getvalue() == "error: cannot write output: [Errno 32] Broken pipe\n"


def test_script_and_module_run_the_same_entry():
    tomllib = pytest.importorskip("tomllib")
    with open(Path(__file__).parents[1] / "pyproject.toml", "rb") as fh:
        module, attr = tomllib.load(fh)["project"]["scripts"]["quatspin"].split(":")
    assert getattr(importlib.import_module(module), attr) is cli.entry
    guard = ast.parse(Path(cli.__file__).read_text(encoding="utf-8")).body[-1]
    assert ast.unparse(guard) == f"if __name__ == '__main__':\n    {attr}()"


# every input ROADMAP item 4 reproduced as a crash (exit 1 with a traceback)
# or as a silent escape from --out
ITEM4_INPUTS = {
    "helical-degenerate": b"kind = helical\ngamma = 0.0\ndelta = 0.0\nomega = 0.03\nt_max = 10.0\ndt = 0.1\n",
    "helical-step-too-large": b"kind = helical\ngamma = 0.5\ndelta = 0.0\nomega = 2.0\nt_max = 10.0\ndt = 0.4\n",
    "helical-dt-1e-300": b"kind = helical\ngamma = 0.5\ndelta = 0.0\nomega = 2.0\nt_max = 10.0\ndt = 1e-300\n",
    "lorentz-rapidity-800": b"kind = lorentz-check\nn_cases = 4\nmax_generators = 3\nrapidity_max = 800.0\nseed = 3\n",
    "non-utf8-file": "kind = pms\nxi1 = 0.3\nxi2 = 0.01\ntheta = 0.15\nn_blocks = 5\n# caf\xe9 \xff\n".encode("latin-1"),
    "output-escapes-out-dir": RESONANT_PMS.encode() + b"output = ../escaped.csv\n",
    "output-absolute": RESONANT_PMS.encode() + b"output = {abs}\n",
}


@pytest.mark.parametrize("name", sorted(ITEM4_INPUTS))
def test_cli_item4_inputs_exit_2_or_3_without_traceback(tmp_path, name):
    text = ITEM4_INPUTS[name]
    work = tmp_path / "work"
    work.mkdir()
    outside = tmp_path / "abs.csv"
    scn = work / "scn.txt"
    scn.write_bytes(text.replace(b"{abs}", str(outside).encode()))
    src = os.path.dirname(os.path.dirname(quatspin.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run(
        [sys.executable, "-m", "quatspin.cli", "run", str(scn), "--out", str(work / "out")],
        capture_output=True,
        text=True,
        cwd=work,
        env=env,
    )
    assert proc.returncode in (2, 3), proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stderr.strip()
    # nothing written anywhere but --out
    assert sorted(p.name for p in tmp_path.iterdir()) == ["work"]
    assert sorted(p.name for p in work.iterdir()) in (["scn.txt"], ["out", "scn.txt"])


SCENARIO_DIR = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "scenarios")
RESONANT_CLOSURE = 0.0514861113044685
# each shipped scenario's self-check, at the bounds of its kind's runner and acceptance tests
SELF_CHECKS = {
    "em_plane_wave.scn": lambda s: s["min_order"] > 1.8,
    "helical_ring.scn": lambda s: s["max_norm_drift"] < 1e-9,
    "lorentz_sweep.scn": lambda s: s["max_i1_rel_err"] < 1e-10 and s["max_i2_rel_err"] < 1e-10
    and s["max_closed_vs_conj"] < 1e-10 and s["max_w0_change"] > 1e-3,
    "pms_detuned.scn": lambda s: s["closure_distance"] > RESONANT_CLOSURE,
    "pms_fine.scn": lambda s: s["closure_distance"] < RESONANT_CLOSURE,
    "pms_resonant.scn": lambda s: abs(s["closure_distance"] - RESONANT_CLOSURE) <= 1e-9 and s["resonant_geometry"] == 1.0,
    "resonance_curve.scn": lambda s: abs(s["peak_p_down"] - 1.0) <= 1e-12 and abs(s["peak_delta"]) < 1e-12,
}


def test_every_shipped_scenario_has_a_self_check():
    assert sorted(SELF_CHECKS) == sorted(f for f in os.listdir(SCENARIO_DIR) if f.endswith(".scn"))


@pytest.mark.parametrize("name", sorted(SELF_CHECKS))
def test_shipped_scenario_runs_reproducibly_and_passes_its_self_check(tmp_path, capsys, name):
    blobs = []
    for run in ("r1", "r2"):
        assert main(["run", os.path.join(SCENARIO_DIR, name), "--out", str(tmp_path / run)]) == 0
        report = dict(line.split(": ", 1) for line in capsys.readouterr().out.splitlines())
        summary = {key: float(value) for key, value in report.items() if key not in ("kind", "seed", "wrote", "duration_s")}
        assert SELF_CHECKS[name](summary), summary
        assert os.listdir(tmp_path / run) == [os.path.basename(report["wrote"])]
        with open(report["wrote"], "rb") as fh:
            blobs.append(fh.read())
    assert blobs[0] == blobs[1]


# sha256 of every shipped scenario's table in both formats (x86-64, numpy 2.4): a speed-up must not change a byte
SHIPPED_DIGESTS = {
    ("em_plane_wave.scn", "csv"): "66f24f1e3b7da0abb6772432f75f96ef3845961c15d5b9440e87eb64c60f5581",
    ("em_plane_wave.scn", "json"): "7bc00bce94d9591c40212c7133c9720b1d071eeb5735f45fd1b5cba52d385edf",
    ("helical_ring.scn", "csv"): "f2398782ceb3a1cd92df1244f21fe5eb3c661400d4154f35fcf24048882ab15b",
    ("helical_ring.scn", "json"): "a0f7024dd7c6171390650c613ca4bdbe748a0d44a3b5b3bf5db4a7fbf758063b",
    ("lorentz_sweep.scn", "csv"): "6dda72e1dd3c0aaff838f068cdd3ac914887a8d8012233b372846248ee22dfd6",
    ("lorentz_sweep.scn", "json"): "ccd80a95e7f79016f3e254a6c014ebacccce073bd32d161748781f29daa3007b",
    ("pms_detuned.scn", "csv"): "5d41c51290d2a835c5ff66a3dc5ad6146239695b33aa4dfaafd93be2cbb875d0",
    ("pms_detuned.scn", "json"): "86693d7fed25323e37016b6a5ff18c5e78becef7175538b3fc37f7d7ee5b4744",
    ("pms_fine.scn", "csv"): "d20770a151f02470a385735616ec70a980bfd7d120f89d407e3f3211521ad360",
    ("pms_fine.scn", "json"): "de41c6cb76bb7c9d02234a0aadce286af9d3b65e82b9ad8a9c974823858f2f92",
    ("pms_resonant.scn", "csv"): "12f4241a080083c5bd9692a42055b7405ccd13c0fd9da2db6ca68ea4cb9beb2f",
    ("pms_resonant.scn", "json"): "e180682efc623d11f4a7092b0f75d8d025c7d00c09fe493c3805070ecbce3412",
    ("resonance_curve.scn", "csv"): "be5ab244bc3ea3aaec43ce767d1773ff5b3075f3b49315f231dcff6f56749156",
    ("resonance_curve.scn", "json"): "42666a631a6e0c9e150e9f4e7a3f70195d1b70fd71770320f8eb99f4efe8dee1",
}


def test_shipped_scenario_tables_keep_their_golden_digests(tmp_path):
    digests = {}
    for name in sorted(SELF_CHECKS):
        scn = load_scenario(os.path.join(SCENARIO_DIR, name))
        for fmt in ("csv", "json"):
            output = f"{scn.output.rpartition('.')[0]}.{fmt}"
            report = run_scenario(scn._replace(fmt=fmt, output=output), out_dir=str(tmp_path))
            with open(report.outputs[0], "rb") as fh:
                digests[name, fmt] = hashlib.sha256(fh.read()).hexdigest()
    assert digests == SHIPPED_DIGESTS


# documents the shipped scenarios leave out: a reversed readout, the other em cases, an empty chain, another
# seed and rapidity; the longer tables span several of write_table's blocks, so that the block seams are pinned,
# pms-seam's chain crosses a block of pms_propagate's committed stations, and lorentz-blocks's cases cross a block
# of lorentz-check's draws
PINNED_DOCUMENTS = {
    "helical-sign-minus": {"kind": "helical", "gamma": 0.04, "omega": 0.02, "delta": 0.005, "t_max": 120.0,
                           "dt": 0.1, "sign": -1},
    "em-point-charge": {"kind": "em-check", "case": "point-charge", "h0": 0.05, "n_levels": 4},
    "em-constant": {"kind": "em-check", "case": "constant"},
    "pms-no-blocks": {"kind": "pms", "xi1": 0.3, "xi2": 0.01, "theta": 0.15, "n_blocks": 0},
    "pms-two-blocks": {"kind": "pms", "xi1": 0.25, "xi2": 0.02, "theta": 0.1, "n_blocks": 300},
    "pms-seam": {"kind": "pms", "xi1": 0.3, "xi2": 0.01, "theta": 0.15, "n_blocks": 1100},
    "lorentz-seed": {"kind": "lorentz-check", "n_cases": 200, "max_generators": 3, "rapidity_max": 7.5, "seed": 2024},
    "lorentz-blocks": {"kind": "lorentz-check", "n_cases": 1500, "max_generators": 5},
    "resonance-seams": {"kind": "resonance-curve", "gamma": 0.04, "delta_min": -0.4, "delta_max": 0.4,
                        "n_points": 2000, "t_pass": 78.53981633974483},
}
PINNED_DIGESTS = {
    ("em-constant", "csv"): "74097382e936b6d560e8938fdf84906b9847f0e5072bfcf238f7ce381622b932",
    ("em-constant", "json"): "c81b6b04187589cb61ac795afef7ed013ed3693c99c54680b86a7a2c5719976d",
    ("em-point-charge", "csv"): "55c5c8e6ac9496c0f16ea62ded9a92069bd0ac96ec951135665e0087a7bcedf3",
    ("em-point-charge", "json"): "b50985fda903dc5012365c5e85bce67292831049432e9d51b1dc01a68b40d41e",
    ("helical-sign-minus", "csv"): "e0f75e10897107e3afa02338080fe9b5592b7f8b914b78c0ad16736a090a11bd",
    ("helical-sign-minus", "json"): "aa9657e161e61947bfd064d549e347523b682771b8ca1ce1bccd353c831e5201",
    ("lorentz-blocks", "csv"): "7a3f0ee6d4df0d2f8ce38c0b2895c56f777b8f7b9f2b49ae54643ba4964b14cb",
    ("lorentz-blocks", "json"): "14a26248f7033b33acdafb0de95e4ca43cb3860ab54cfa4ed67f0c17a207d656",
    ("lorentz-seed", "csv"): "b1da291ec7d022600427735a3939138d51bc8a5c25f5d325af82322435b06307",
    ("lorentz-seed", "json"): "ea64b8b2f941b91ae531fd253dac0d89e884e605892c49cf2dd8aa3b462e656c",
    ("pms-no-blocks", "csv"): "404f87a465b6d1170990288d467e63db2f5b900e77355695e1a78b911517f4a9",
    ("pms-no-blocks", "json"): "492b6f5b5a56ce0df87c00d4ca0265ea85d6a1af1582b0debc45e93928713c09",
    ("pms-seam", "csv"): "88cd64b3749a5a72627949138f528335fb326b60261aeae3e2ac8cae291e75bb",
    ("pms-seam", "json"): "13e9ffd632c2aaa1bf1da9becbce7bb614a6022d98d8f8cecdfb150fb9475b21",
    ("pms-two-blocks", "csv"): "478393b85b63a2347e13e750a2952820a88da13f37a432eccee1c0bc4d531630",
    ("pms-two-blocks", "json"): "534b05dd51b5a4b705014a87da12151cf5eb0f4adac8f15528b6a867c207e7c9",
    ("resonance-seams", "csv"): "aaf4fe4f5a1f8cf076115f207770d0e08d99ba0ee3b5218e443b35483c91f253",
    ("resonance-seams", "json"): "fa7ebd732c77f12c5829b25347ec6127129f53633d15c7b5083e53bbe984504f",
}
# each document's summary, as repr prints it: the same bits in both formats
PINNED_SUMMARIES = {
    "em-constant": {"max_residual": 0.0},
    "em-point-charge": {"max_residual": 0.050438060946400576, "min_order": 1.9939593451450512},
    "helical-sign-minus": {"final_pz": 0.13810773638949725, "max_norm_drift": 4.440892098500626e-16},
    "lorentz-seed": {"max_closed_vs_conj": 1.4422967553679087e-14, "max_i1_rel_err": 1.5582241796744386e-15,
                     "max_i2_rel_err": 1.8935382436550138e-15, "max_w0_change": 263122046515.33173},
    "lorentz-blocks": {"max_closed_vs_conj": 7.030385528242146e-15, "max_i1_rel_err": 4.7029835133343895e-15,
                       "max_i2_rel_err": 1.27675647831893e-15, "max_w0_change": 131560.14248520762},
    "pms-no-blocks": {"closure_distance": 0.0, "resonant_geometry": 0.0},
    "pms-two-blocks": {"closure_distance": 0.4314701271802637, "resonant_geometry": 0.0},
    "pms-seam": {"closure_distance": 1.1193785747969087, "resonant_geometry": 0.0},
    "resonance-seams": {"peak_delta": -0.00020010005002502051, "peak_p_down": 0.9999749752211845},
}


def test_pinned_documents_keep_their_golden_digests_and_summaries(tmp_path):
    assert PINNED_DOCUMENTS["resonance-seams"]["n_points"] > 3 * scenarios._BLOCK_ROWS
    assert PINNED_DOCUMENTS["pms-seam"]["n_blocks"] + 1 > quaternion._BLOCK
    assert PINNED_DOCUMENTS["lorentz-blocks"]["n_cases"] > quaternion._BLOCK
    digests, summaries = {}, {}
    for name, doc in PINNED_DOCUMENTS.items():
        for fmt in ("csv", "json"):
            scn = validate_scenario(dict(doc, format=fmt, output=f"{name}.{fmt}"))
            report = run_scenario(scn, out_dir=str(tmp_path))
            with open(report.outputs[0], "rb") as fh:
                digests[name, fmt] = hashlib.sha256(fh.read()).hexdigest()
            summaries.setdefault(name, []).append(repr(sorted(report.summary.items())))
    assert digests == PINNED_DIGESTS
    assert summaries == {name: [repr(sorted(s.items()))] * 2 for name, s in PINNED_SUMMARIES.items()}


# ---------------------------------------------------------------------------
# the command line's contract on random documents

FUZZ_BASE = {
    "pms": {"xi1": "0.3", "xi2": "0.01", "theta": "0.15", "n_blocks": "21"},
    "helical": {"gamma": "0.04", "delta": "0.0", "omega": "0.02", "t_max": "10.0", "dt": "0.1", "sign": "1"},
    "resonance-curve": {"gamma": "0.04", "delta_min": "-0.4", "delta_max": "0.4", "n_points": "50", "t_pass": "20.0"},
    "em-check": {"case": "point-charge", "h0": "0.02", "n_levels": "3"},
    "lorentz-check": {"n_cases": "20", "max_generators": "5", "rapidity_max": "2.0"},
}
FUZZ_COMMON = {"seed": "0", "output": "t.csv", "format": "csv"}
# the difference of two values drawn from +-1e308 overflows, as a resonance-curve span can
FUZZ_EXTREMES = ("1e308", "-1e308", "1e300", "-1e300", "1e-300", "5e-324", "-5e-324", "nan", "inf", "-inf", "0", "-0.0",
                 "1", "-1", "2", "5", "6", "12", "13", "50", "51", "1e-4", "0.25", "499999", "500000", "1000000",
                 "1000001", "250000", "250001", "1" + "0" * 400, "-1" + "0" * 400)
FUZZ_WORDS = ("plane-wave", "point-charge", "constant", "csv", "json", "true", "t.json", "..", "../t.csv", "", "a b",
              "t\0.csv", "2024", "1e5", "nan")
fuzz_garbage = (st.sampled_from(FUZZ_WORDS) | st.floats(-3.0, 3.0).map(repr) | st.integers(-2, 30).map(str)
                | st.text(st.characters(exclude_characters="\r\n#"), max_size=6))


@st.composite
def fuzz_documents(draw):
    """A kind's small valid document with up to two values set to extremes, size bounds or garbage."""
    kind = draw(st.sampled_from(sorted(FUZZ_BASE)))
    doc = {**FUZZ_BASE[kind], **FUZZ_COMMON}
    for key in draw(st.lists(st.sampled_from(sorted(doc)), max_size=2)):
        doc[key] = draw(st.sampled_from(FUZZ_EXTREMES) if draw(st.booleans()) else fuzz_garbage)
    lines = [f"kind = {kind}"] + [f"{key} = {value}" for key, value in doc.items()]
    if draw(st.integers(0, 9)) == 0:  # one in ten: a line dropped, and a garbage line or key added
        lines.pop(draw(st.integers(0, len(lines) - 1)))
        lines.append(draw(fuzz_garbage | st.sampled_from(["= 1", "bogus = 1", "kind = pms", "# a comment"])))
    return "\n".join(draw(st.permutations(lines))) + "\n"


def rows_of_a_run(text: str) -> float:
    """The number of table rows (or integration steps) running this document would cost; 0 if it is invalid."""
    try:
        p = validate_scenario(parse_scenario_text(text)).params
    except ValueError:
        return 0
    if "n_blocks" in p:
        return 2 * p["n_blocks"]
    if "t_max" in p:  # a valid document keeps within MAX_STEPS steps
        return p["t_max"] / p["dt"]
    return p.get("n_points", 0) + 4 * p.get("n_cases", 0) * p.get("max_generators", 0)


def assert_finite_numbers(value):
    if isinstance(value, list):
        for item in value:
            assert_finite_numbers(item)
    elif isinstance(value, float):
        assert math.isfinite(value)


# no fault, or stdout or stderr failing with EPIPE or ENOSPC once it would reach the drawn line
fuzz_output_faults = st.none() | st.tuples(st.sampled_from(["stdout", "stderr"]),
                                          st.sampled_from(sorted(OUTPUT_FAULTS.values())), st.integers(1, 12))


@settings(max_examples=400, deadline=None)
@given(fuzz_documents(), fuzz_output_faults)
def test_cli_contract_holds_for_random_documents(text, fault):
    # run only what is cheap; documents at the size bounds are validated
    command = "run" if rows_of_a_run(text) <= 5000 else "validate"
    streams = {"stdout": FailingStream(), "stderr": FailingStream()}
    if fault is not None:
        name, number, at = fault
        streams[name] = FailingStream(OSError(number, os.strerror(number)), at)
    stdout, stderr = streams["stdout"], streams["stderr"]
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as root:
        scn = os.path.join(root, "scn.txt")
        # a drawn lone surrogate is written as the bytes UTF-8 cannot hold: a file that is not UTF-8 (exit 2)
        with open(scn, "w", encoding="utf-8", errors="surrogatepass") as fh:
            fh.write(text)
        out_dir = os.path.join(root, "out")
        argv = [command, scn] + (["--out", out_dir] if command == "run" else [])
        os.chdir(root)  # a relative write that escaped --out would land here
        try:
            with warnings.catch_warnings(record=True) as caught, \
                    contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                warnings.simplefilter("always")
                code = main(argv)
        finally:
            os.chdir(cwd)
        assert code == 3 if stdout.raised or stderr.raised else code in (0, 2, 3), stderr.getvalue()
        assert not caught, [str(w.message) for w in caught]
        assert "Traceback" not in stderr.getvalue()
        assert sorted(os.listdir(root)) in (["scn.txt"], ["out", "scn.txt"])
        written = sorted(os.listdir(out_dir)) if os.path.isdir(out_dir) else []
        if stdout.raised and command == "run":  # the table is written before the report is printed
            assert written == [validate_scenario(parse_scenario_text(text)).output]
            return
        if code != 0 or command == "validate":
            assert written == []
            return
        report = dict(line.split(": ", 1) for line in stdout.getvalue().splitlines())
        assert written == [os.path.basename(report["wrote"])]
        for key, value in report.items():
            if key not in ("kind", "seed", "wrote"):
                assert math.isfinite(float(value)), (key, value)
        with open(report["wrote"], encoding="utf-8") as fh:
            table = fh.read()
        if table.startswith("{"):  # JSON, whatever the file name says
            assert_finite_numbers(json.loads(table, parse_constant=float)["rows"])
        else:
            for cell in ",".join(table.splitlines()[1:]).split(","):
                try:
                    number = float(cell)
                except ValueError:
                    continue
                assert math.isfinite(number), cell


# ---------------------------------------------------------------------------
# the command line's grammar: the command, then its scenario and options in any order


# argv ("{scn}" is a valid scenario file), the usage line printed, and the one error line after it
USAGE_ERRORS = {
    "no-command": ([], "quatspin [-h] {run,validate,list-kinds} ...", "the following arguments are required: command"),
    "unknown-command": (["bogus"], "quatspin [-h] {run,validate,list-kinds} ...",
                        "argument command: invalid choice: 'bogus' (choose from 'run', 'validate', 'list-kinds')"),
    "option-before-the-command": (["--out", "x", "run", "{scn}"], "quatspin [-h] {run,validate,list-kinds} ...",
                                  "unrecognized arguments: --out"),
    "run-without-a-scenario": (["run", "--threads", "2"], "quatspin run [-h] [--out DIR] [--format {csv,json}] "
                               "[--threads N] SCENARIO", "the following arguments are required: scenario"),
    "unknown-option": (["run", "{scn}", "--fast"], "quatspin run [-h] [--out DIR] [--format {csv,json}] "
                       "[--threads N] SCENARIO", "unrecognized arguments: --fast"),
    # argparse took an unambiguous prefix of an option; the parser takes whole names only
    "abbreviated-option": (["run", "{scn}", "--fo", "json"], "quatspin run [-h] [--out DIR] [--format {csv,json}] "
                           "[--threads N] SCENARIO", "unrecognized arguments: --fo"),
    "format-xml": (["run", "{scn}", "--format", "xml"], "quatspin run [-h] [--out DIR] [--format {csv,json}] "
                   "[--threads N] SCENARIO", "argument --format: invalid choice: 'xml' (choose from 'csv', 'json')"),
    "threads-0": (["run", "--threads=0", "{scn}"], "quatspin run [-h] [--out DIR] [--format {csv,json}] "
                  "[--threads N] SCENARIO", "argument --threads: must be an integer >= 1, got '0'"),
    "missing-value": (["run", "{scn}", "--out"], "quatspin run [-h] [--out DIR] [--format {csv,json}] "
                      "[--threads N] SCENARIO", "argument --out: expected one argument"),
    "two-scenarios": (["validate", "{scn}", "b", "c"], "quatspin validate [-h] SCENARIO",
                      "unrecognized arguments: b c"),
    "option-of-run-after-validate": (["validate", "{scn}", "--out=x"], "quatspin validate [-h] SCENARIO",
                                     "unrecognized arguments: --out=x"),
    "list-kinds-with-an-argument": (["list-kinds", "pms"], "quatspin list-kinds [-h]", "unrecognized arguments: pms"),
    # each character that str.splitlines breaks a line at is written escaped, so that the error stays one line
    "line-breaks-in-a-token": (["run", "{scn}", "\x1e", "a\nb\r\x0b\x0c\x1c\x1d\x85\u2028\u2029"],
                               "quatspin run [-h] [--out DIR] [--format {csv,json}] [--threads N] SCENARIO",
                               "unrecognized arguments: \\x1e a\\nb\\r\\x0b\\x0c\\x1c\\x1d\\x85\\u2028\\u2029"),
}


@pytest.mark.parametrize("name", sorted(USAGE_ERRORS))
def test_cli_usage_error_prints_a_usage_line_and_one_error_line(tmp_path, monkeypatch, name):
    argv, usage, error = USAGE_ERRORS[name]
    scn = write_scenario(tmp_path, RESONANT_PMS)
    monkeypatch.chdir(tmp_path)
    stdout, stderr = io.StringIO(), io.StringIO()
    with pytest.raises(SystemExit) as stop, contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        main([arg.format(scn=scn) for arg in argv])
    assert stop.value.code == 2
    assert stdout.getvalue() == ""
    assert stderr.getvalue() == f"usage: {usage}\nquatspin: error: {error}\n"
    assert os.listdir(tmp_path) == ["scn.txt"]


@pytest.mark.parametrize("argv, usage", [
    (["-h"], "quatspin [-h]"),
    (["--help", "bogus"], "quatspin [-h]"),
    (["run", "--help"], "quatspin run [-h]"),
    (["run", "{scn}", "--out", "out", "--format", "json", "-h"], "quatspin run [-h]"),
    (["validate", "-h", "{scn}"], "quatspin validate [-h]"),
    (["list-kinds", "--help"], "quatspin list-kinds [-h]"),
])
def test_cli_help_prints_the_commands_usage_then_the_grammar(tmp_path, monkeypatch, capsys, argv, usage):
    scn = write_scenario(tmp_path, RESONANT_PMS)
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as stop:
        main([arg.format(scn=scn) for arg in argv])
    assert stop.value.code == 0
    captured = capsys.readouterr()
    assert captured.out.startswith(f"usage: {usage}") and captured.err == ""
    for command in ("run SCENARIO", "validate SCENARIO", "list-kinds", "--opt=VALUE", "Exit codes"):
        assert command in captured.out
    assert os.listdir(tmp_path) == ["scn.txt"]  # help ends the parse: nothing is run


# each spelling writes pms.json: either form of an option, before or after the scenario, the last of a repeated one
SPELLINGS = {
    "after": ["run", "{scn}", "--out", "{out}", "--format", "json"],
    "joined-before": ["run", "--out={out}", "--format=json", "{scn}"],
    "repeated": ["run", "--format", "csv", "--out", "elsewhere", "{scn}", "--out={out}", "--format=json"],
    "threads-and-end-of-options": ["run", "--threads", "2", "--out", "{out}", "--threads=3", "--format", "json",
                                   "--", "{scn}"],
}


def test_cli_options_are_read_in_either_spelling_and_in_any_order(tmp_path, capsys):
    scn = write_scenario(tmp_path, RESONANT_PMS)
    tables = set()
    for name, argv in SPELLINGS.items():
        out = tmp_path / name
        assert main([arg.format(scn=scn, out=out) for arg in argv]) == 0, capsys.readouterr().err
        assert os.listdir(out) == ["pms.json"]
        tables.add((out / "pms.json").read_bytes())
    assert len(tables) == 1 and sorted(os.listdir(tmp_path)) == sorted([*SPELLINGS, "scn.txt"])


def test_cli_double_dash_reads_what_follows_as_the_scenario(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    for name in ("--format", "-h"):
        write_scenario(tmp_path, RESONANT_PMS, name=name)
    assert main(["validate", "--", "-h"]) == 0
    assert capsys.readouterr().out == "ok: -h is a valid 'pms' scenario\n"
    assert main(["run", "--out", "out", "--", "--format"]) == 0
    assert os.listdir(tmp_path / "out") == ["pms.csv"]
    assert main(["validate", "-"]) == 3  # a lone dash is a path too
    assert capsys.readouterr().err.startswith("error: cannot read scenario: [Errno 2]")


# the pieces a drawn argv is made of, each a list of tokens; paths are relative to the process's working directory,
# which is the output directory: "../scn.txt" is a valid scenario, and as --out a regular file
FUZZ_OPTION_VALUES = {"--out": [".", "sub", "", "../scn.txt"], "--format": ["csv", "json", "xml", ""],
                      "--threads": ["1", "3", "0", "two", ""]}
fuzz_argv = st.lists(st.one_of(
    st.sampled_from([["run"], ["validate"], ["list-kinds"], ["-h"], ["--help"], ["--"], ["../scn.txt"],
                     *([option] for option in FUZZ_OPTION_VALUES)]),  # an option whose value is missing
    st.sampled_from([[option, value] for option, values in FUZZ_OPTION_VALUES.items() for value in values]),
    st.sampled_from([[f"{option}={value}"] for option, values in FUZZ_OPTION_VALUES.items() for value in values]),
    # any text, but no path that leads out of the working directory
    st.text(max_size=6).filter(lambda text: "/" not in text and text != "..").map(lambda text: [text]),
), max_size=7).map(lambda pieces: [token for piece in pieces for token in piece])


@settings(max_examples=300, deadline=None)
@given(fuzz_argv)
def test_cli_contract_holds_for_random_argv(argv):
    stdout, stderr = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as root, mock.patch.dict(os.environ, {"QUATSPIN_OUT_DIR": "env"}):
        with open(os.path.join(root, "scn.txt"), "w", encoding="utf-8") as fh:
            fh.write(RESONANT_PMS)
        out = os.path.join(root, "out")
        os.mkdir(out)
        os.chdir(out)  # the --out of every run, given or not, is inside it
        try:
            code = run_main(argv, stdout, stderr)
        finally:
            os.chdir(cwd)
        assert code in (0, 2, 3), (argv, stderr.getvalue())
        assert "Traceback" not in stderr.getvalue()
        if code == 2 and stderr.getvalue().startswith("usage: "):
            assert stdout.getvalue() == "" and len(stderr.getvalue().splitlines()) == 2
            assert stderr.getvalue().splitlines()[1].startswith("quatspin: error: ")
        assert sorted(os.listdir(root)) == ["out", "scn.txt"]
        for parent, _, files in os.walk(out):
            assert not [name for name in files if name.startswith(".quatspin-")], parent
