import io
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import quatspin
from quatspin.cli import main
from quatspin.emfield import EmFieldSample, EmTensor, em_tensor, energy_quadratic, lorentz_invariants
from quatspin.lorentz import boost_generator, field_triple, rotation_generator
from quatspin.scenarios import (
    ConfigError,
    parse_scenario_text,
    run_scenario,
    validate_scenario,
    write_table,
)

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
    assert raw == {"kind": "pms", "n_blocks": 21, "xi1": 0.3, "flag": True, "name": "run1"}


def test_parse_scenario_text_rejects_malformed_lines():
    with pytest.raises(ConfigError) as err:
        parse_scenario_text("kind pms\nxi1 = 0.3\nxi1 = 0.4\n")
    messages = "\n".join(err.value.errors)
    assert "line 1" in messages
    assert "duplicate" in messages


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


@pytest.mark.parametrize("name", ["../x.csv", "/tmp/x.csv", "sub/x.csv", "..", ".", "a\\b.csv"])
def test_validate_output_must_be_a_bare_file_name(name):
    with pytest.raises(ConfigError) as err:
        validate_scenario({"kind": "pms", "xi1": 0.3, "output": name, "bogus": 1})
    joined = " ".join(err.value.errors)
    assert "'output'" in joined and "bare file name" in joined
    assert "bogus" in joined and "xi2" in joined  # listed with every other problem


def test_validate_aggregates_every_violation():
    with pytest.raises(ConfigError) as err:
        validate_scenario({"kind": "pms", "xi1": "wat", "n_blocks": -3, "bogus": 1})
    joined = " ".join(err.value.errors)
    assert "xi1" in joined
    assert "n_blocks" in joined
    assert "bogus" in joined
    assert "xi2" in joined and "theta" in joined  # missing keys reported too
    assert len(err.value.errors) >= 5


# ---------------------------------------------------------------------------
# runners


def test_run_pms_resonant_ring(tmp_path):
    scn = validate_scenario(parse_scenario_text(RESONANT_PMS))
    report = run_scenario(scn, out_dir=str(tmp_path))
    assert report.summary["closure_distance"] == pytest.approx(0.0514861113044685, abs=1e-9)
    assert report.summary["resonant_geometry"] == 1.0
    path = report.outputs[0]
    lines = open(path, encoding="utf-8").read().splitlines()
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
    rows = open(report.outputs[0], encoding="utf-8").read().splitlines()[1:]
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


def test_run_lorentz_check(tmp_path):
    scn = validate_scenario({"kind": "lorentz-check", "n_cases": 50, "seed": 7})
    report = run_scenario(scn, out_dir=str(tmp_path))
    assert report.summary["max_i1_rel_err"] < 1e-10
    assert report.summary["max_i2_rel_err"] < 1e-10
    assert report.summary["max_closed_vs_conj"] < 1e-10
    assert report.summary["max_w0_change"] > 1e-3


def reference_lorentz_rows(n_cases, max_generators, rapidity_max, seed):
    """The lorentz-check runner as a per-case loop: 4x4 matrix conjugation and scalar closed forms."""
    rng = np.random.default_rng(seed)
    rows = []
    for i in range(n_cases):
        sample = EmFieldSample(e=rng.normal(size=3), b=rng.normal(size=3))
        i1, i2 = lorentz_invariants(sample)
        w0, _ = energy_quadratic(sample)
        tensor, triple = em_tensor(sample), field_triple(sample)
        for _ in range(int(rng.integers(1, max_generators + 1))):
            axis = rng.normal(size=3)
            axis /= np.linalg.norm(axis)
            if rng.random() < 0.5:
                angle = float(rng.uniform(0.0, 2.0 * math.pi))
                gen, c, s = rotation_generator(axis, angle), math.cos(angle), math.sin(angle)
            else:
                angle = float(rng.uniform(-rapidity_max, rapidity_max))
                gen, c, s = boost_generator(axis, angle), math.cosh(angle), 1j * math.sinh(angle)
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
    for name, threads in (("a", 1), ("b", 4), ("c", None)):
        report = run_scenario(scn, out_dir=str(tmp_path / name), threads=threads)
        blobs.append(open(report.outputs[0], "rb").read())
    assert blobs[0] == blobs[1] == blobs[2]


def test_json_output(tmp_path):
    scn = validate_scenario(
        {"kind": "resonance-curve", "gamma": 0.04, "delta_min": -0.1, "delta_max": 0.1,
         "n_points": 5, "t_pass": 10.0, "format": "json"}
    )
    report = run_scenario(scn, out_dir=str(tmp_path))
    assert report.outputs[0].endswith("resonance-curve.json")
    doc = json.load(open(report.outputs[0], encoding="utf-8"))
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
    assert open(report.outputs[0], "rb").read() == open(report2.outputs[0], "rb").read()


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


cell_values = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.integers(-(2**70), 2**70),
    st.booleans(),
    st.text(st.characters(blacklist_characters=",\n\r"), max_size=5),
    st.floats(width=64).map(np.float64),
    st.integers(-1000, 1000).map(np.int64),
    st.booleans().map(np.bool_),
)


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 4).flatmap(lambda width: st.tuples(
    st.lists(st.one_of(st.lists(st.floats(allow_nan=False), min_size=width, max_size=width),
                       st.lists(cell_values, min_size=width, max_size=width)), max_size=6),
    st.just(width))))
def test_write_table_csv_bytes_match_per_cell_encoder(tmp_path_factory, table):
    rows, width = table
    columns = [f"c{i}" for i in range(width)]
    path = tmp_path_factory.mktemp("csv") / "t.csv"
    try:
        expected = reference_csv(columns, rows)
    except UnicodeEncodeError:  # a lone surrogate has no UTF-8 encoding: both encoders must refuse it
        with pytest.raises(UnicodeEncodeError):
            write_table(str(path), columns, rows, "csv")
        return
    write_table(str(path), columns, rows, "csv")
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
@given(st.integers(1, 4).flatmap(lambda width: st.tuples(
    st.lists(st.one_of(st.lists(st.floats(), min_size=width, max_size=width),
                       st.lists(st.one_of(st.integers(-(2**70), 2**70), st.text(max_size=5)),
                                min_size=width, max_size=width),
                       st.lists(cell_values | st.text(max_size=5), min_size=width, max_size=width)), max_size=6),
    st.just(width))))
def test_write_table_json_bytes_match_per_cell_encoder(tmp_path_factory, table):
    rows, width = table
    columns = [f"c{i}" for i in range(width)]
    path = tmp_path_factory.mktemp("json") / "t.json"
    write_table(str(path), columns, rows, "json")
    assert path.read_bytes() == reference_json(columns, rows)


def test_write_table_is_atomic(tmp_path):
    target = tmp_path / "t.csv"
    # a lone surrogate has no UTF-8 encoding: the CSV encode fails part-way through the table
    with pytest.raises(UnicodeEncodeError):
        write_table(str(target), ("a", "b"), [[1.0, "x"], [2.0, "\ud800"]], "csv")
    assert list(tmp_path.iterdir()) == []
    target.write_bytes(b"kept\n")
    failing = [("csv", [[1.0, "x"], [2.0, "\ud800"]]), ("json", [[1.0, object()]]), ("csv", [[1.0, 2.0], [3.0]])]
    for fmt, rows in failing:
        with pytest.raises((UnicodeEncodeError, TypeError, ValueError)):
            write_table(str(target), ("a", "b"), rows, fmt)
        assert list(tmp_path.iterdir()) == [target] and target.read_bytes() == b"kept\n"
    write_table(str(target), ("a", "b"), [[1, 0.5]], "csv")
    assert list(tmp_path.iterdir()) == [target] and target.read_bytes() == b"a,b\n1,0.5\n"


def test_write_table_rejects_ragged_rows(tmp_path):
    with pytest.raises(ValueError):
        write_table(str(tmp_path / "t.csv"), ("a", "b"), [[1, 0.5], [2]], "csv")


def test_write_table_csv_lf_endings(tmp_path):
    path = str(tmp_path / "t.csv")
    write_table(path, ("a", "b"), [[1, 0.5], [2, 0.25]], "csv")
    blob = open(path, "rb").read()
    assert b"\r" not in blob
    assert blob.decode("utf-8") == "a,b\n1,0.5\n2,0.25\n"


# ---------------------------------------------------------------------------
# CLI


def write_scenario(tmp_path, text, name="scn.txt"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


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


def test_cli_byte_identical_reruns(tmp_path):
    path = write_scenario(tmp_path, "kind = lorentz-check\nn_cases = 30\nseed = 3\n")
    assert main(["run", path, "--out", str(tmp_path / "r1")]) == 0
    assert main(["run", path, "--out", str(tmp_path / "r2")]) == 0
    b1 = open(tmp_path / "r1" / "lorentz-check.csv", "rb").read()
    b2 = open(tmp_path / "r2" / "lorentz-check.csv", "rb").read()
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
