import importlib
import math
import os
import re
import subprocess
import sys
import threading
import time
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import quatspin
from quatspin import spin
from quatspin.cli import main
from quatspin.scenarios import run_scenario
from quatspin.schema import (MAX_SCENARIO_CHARS, MAX_STEPS, ConfigError, load_scenario, parse_scenario_text,
                             validate_scenario)
from quatspin.spin import (
    IDENTITY,
    HelicalParams,
    InvalidTimeSpan,
    StepTooLarge,
    helical_field,
    integrate_spin,
    resonance_curve,
)

HELICAL = {"kind": "helical", "gamma": 0.04, "delta": 0.0, "omega": 0.02, "t_max": 10.0, "dt": 0.1}
RATE_ERROR = "key 'dt': the first step turns the spin by"
PHASE_ERROR = "keys 'omega' and 't_max': the drive phase omega * t_max overflows"


def errors_of(doc) -> list[str]:
    with pytest.raises(ConfigError) as err:
        validate_scenario(doc)
    return err.value.errors


# ---------------------------------------------------------------------------
# helical checks and size bounds


def test_helical_degenerate_is_a_schema_error_listed_with_the_others():
    errors = errors_of({**HELICAL, "gamma": 0.0, "delta": 0.0, "sign": 2})
    assert errors == ["key 'sign': value 2 must be 1 or -1", "keys 'gamma' and 'delta': cannot both be 0"]
    validate_scenario({**HELICAL, "gamma": 0.0, "delta": 0.1})
    validate_scenario({**HELICAL, "gamma": 0.1, "delta": 0.0})


def test_helical_first_step_angle_is_a_schema_error():
    # the step-too-large input: 0.4 * hypot(0.5, 2.0) = 0.82 rad
    errors = errors_of({**HELICAL, "gamma": 0.5, "delta": 0.0, "omega": 2.0, "dt": 0.4})
    assert len(errors) == 1 and errors[0].startswith(RATE_ERROR + " 0.82462")
    # a span shorter than dt is one step of t_max
    validate_scenario({**HELICAL, "gamma": 0.5, "delta": 0.0, "omega": 2.0, "dt": 0.4, "t_max": 0.2})


def step_cap_error(steps: float) -> str:
    return f"keys 't_max' and 'dt': t_max / dt = {steps!r} steps, more than MAX_STEPS = 1000000"


def test_helical_step_cap_is_a_schema_error_listed_with_the_others():
    assert spin.MAX_STEPS is MAX_STEPS == 1_000_000  # stated once, in the schema
    validate_scenario({**HELICAL, "t_max": 1e6, "dt": 1.0})  # exactly MAX_STEPS steps
    for t_max in (math.nextafter(1e6, math.inf), 2e6, 1e300):
        errors = errors_of({**HELICAL, "t_max": t_max, "dt": 1.0, "sign": 2})
        assert errors == ["key 'sign': value 2 must be 1 or -1", step_cap_error(t_max)]
    assert errors_of({**HELICAL, "t_max": 1e300, "dt": 1e-300}) == [step_cap_error(math.inf)]


class Stepped(Exception):
    """Raised in place of the first block of steps: integrate_spin has accepted the span."""


# the schema refuses a span exactly when integrate_spin does; the library side stops before its first step
@settings(max_examples=200, deadline=None)
@example(dt=1.0, steps=1e6).via("the cap itself")
@example(dt=1.0, steps=math.nextafter(1e6, math.inf)).via("one float beyond the cap")
@example(dt=0.1, steps=1e6).via("0.1 * 1e6 / 0.1 rounds")
@given(dt=st.floats(1e-6, 1e3) | st.sampled_from([1e-300, 5e-324, 1.0 / 3.0]),
       steps=st.floats(MAX_STEPS - 2.0, MAX_STEPS + 2.0) | st.floats(0.5, 2e6))
def test_helical_step_cap_matches_integrate_spin(dt, steps):
    t_max = dt * steps
    assume(t_max > 0.0)
    # a field too weak for the first-step check to refuse any of these steps, and no drive phase
    doc = {"kind": "helical", "gamma": 1e-6, "delta": 0.0, "omega": 0.0, "t_max": t_max, "dt": dt}
    with mock.patch.object(spin, "_step_quaternions", side_effect=Stepped):
        with pytest.raises((InvalidTimeSpan, Stepped)) as library:
            integrate_spin(helical_field(HelicalParams(1e-6, 0.0, 0.0)), IDENTITY, (0.0, t_max), dt)
    try:
        validate_scenario(doc)
    except ConfigError as err:
        assert err.errors == [step_cap_error(t_max / dt - 1e-12)]
        assert library.type is InvalidTimeSpan
        return
    assert library.type is Stepped


# omega >= 1e250 keeps t_max small enough for h^4 in the RK4 step quaternion to stay finite
@pytest.mark.parametrize("omega", [1e308, -1e308, 3e300, 1e250])
def test_helical_drive_phase_overflow_is_a_schema_error_on_both_sides(tmp_path, omega):
    # the largest t_max whose phase omega * t_max is finite, and the float after it
    t_max = 1.7976931348623157e308 / abs(omega)
    while not math.isfinite(omega * t_max):
        t_max = math.nextafter(t_max, 0.0)
    while math.isfinite(omega * math.nextafter(t_max, math.inf)):
        t_max = math.nextafter(t_max, math.inf)
    beyond = math.nextafter(t_max, math.inf)
    # two steps whose last sample time is t_max itself; delta = omega leaves a weak field with no axial part
    dt = t_max / 2.0
    doc = {"kind": "helical", "gamma": 0.25 / dt, "delta": omega, "omega": omega, "t_max": t_max, "dt": dt}
    table = run_scenario(validate_scenario(doc), out_dir=str(tmp_path)).outputs[0]
    assert len(Path(table).read_text(encoding="utf-8").splitlines()) == 4
    assert errors_of({**doc, "t_max": beyond, "dt": beyond / 2.0, "sign": 2}) == [
        "key 'sign': value 2 must be 1 or -1", PHASE_ERROR]
    field = helical_field(HelicalParams(doc["gamma"], omega, omega))
    with pytest.raises(ValueError, match=f"^field_fn returned a non-finite field at t = {re.escape(repr(beyond))}$"):
        integrate_spin(field, IDENTITY, (0.0, beyond), beyond / 2.0)


@pytest.mark.parametrize("change, error", [
    ({"t_max": 2000000.0, "dt": 1.0}, step_cap_error(2000000.0)),
    ({"omega": 1e308, "delta": 1e308, "t_max": 100.0, "dt": 10.0}, PHASE_ERROR),
])
def test_validate_refuses_helical_documents_that_run_refuses(tmp_path, capsys, change, error):
    scn = tmp_path / "h.scn"
    scn.write_text("".join(f"{key} = {value}\n" for key, value in {**HELICAL, **change}.items()), encoding="utf-8")
    assert main(["validate", str(scn)]) == 2
    assert capsys.readouterr().err == f"error: {error}\n"


@pytest.mark.parametrize("key", ["gamma", "delta", "omega", "t_max", "dt"])
@pytest.mark.parametrize("fault", ["missing", "type", "range"])
def test_one_error_per_faulty_helical_key(key, fault):
    # the first step is too large (and, for gamma and delta, degenerate), but the cross-key
    # checks read the faulty key, so they must not add a line
    doc = {**HELICAL, "omega": 50.0, "dt": 1.0}
    if key in ("gamma", "delta"):
        doc.update(gamma=0.0, delta=0.0)
    if fault == "missing":
        del doc[key]
    else:
        doc[key] = "abc" if fault == "type" else -math.inf
    assert len(errors_of(doc)) == 1


@pytest.mark.parametrize("kind, key, bound, low", [
    ("pms", "n_blocks", 499_999, 0),
    ("resonance-curve", "n_points", 1_000_000, 2),
    ("lorentz-check", "n_cases", 250_000, 1),
])
def test_table_sizes_are_bounded_and_listed_with_other_errors(kind, key, bound, low):
    base = {"pms": {"xi1": 0.3, "xi2": 0.01, "theta": 0.15},
            "resonance-curve": {"gamma": 0.04, "delta_min": -0.4, "delta_max": 0.4, "t_pass": 1.0},
            "lorentz-check": {}}[kind]
    for ok in (low, bound):
        validate_scenario({"kind": kind, **base, key: ok})
    for bad in (bound + 1, 10**9, low - 1):
        errors = errors_of({"kind": kind, **base, key: bad, "bogus": 1})
        assert errors == ["unknown key 'bogus'", f"key '{key}': value {bad} must be {low}..{bound}"]


@pytest.mark.parametrize("case", ["plane-wave", "point-charge", "constant"])
def test_em_check_step_is_bounded_and_listed_with_other_errors(case):
    for ok in (1e-4, 0.02, 0.25):
        assert validate_scenario({"kind": "em-check", "case": case, "h0": ok}).params["h0"] == ok
    for bad in (0.25000000000000006, 1e300, 9.999999999999999e-05, 1e-160, 5e-324, 0.0, -0.02, math.nan, math.inf):
        errors = errors_of({"kind": "em-check", "case": case, "h0": bad, "n_levels": 13})
        assert errors == [f"key 'h0': value {bad!r} must be in [1e-4, 0.25]",
                          "key 'n_levels': value 13 must be 1..12"]


# an accepted document keeps the library's decision, and a rejected one is one the library rejects
@settings(max_examples=300, deadline=None)
@given(
    gamma=st.floats(0.0, 10.0),
    delta=st.floats(-10.0, 10.0),
    omega=st.floats(-10.0, 10.0),
    scale=st.sampled_from([1e-200, 1e-160, 1e-155, 1.0, 1e150, 1e160]),
    angle=st.floats(0.5 * (1 - 1e-11), 0.5 * (1 + 1e-11)) | st.floats(0.4, 0.6),
    steps=st.floats(0.2, 3.0),
)
# no step too large, but omega * t_max = 1e150 * 1.1e160 overflows
@example(gamma=2.225073858507e-311, delta=1.0, omega=1.0, scale=1e150, angle=0.5, steps=1.0)
def test_helical_rate_check_never_rejects_a_step_integrate_spin_takes(
    tmp_path_factory, gamma, delta, omega, scale, angle, steps
):
    gamma, delta, omega = gamma * scale, delta * scale, omega * scale
    rate = math.hypot(gamma, omega - delta)
    assume((gamma > 0 or delta != 0) and rate > 0 and math.isfinite(angle / rate * steps))
    dt = angle / rate
    doc = {**HELICAL, "gamma": gamma, "delta": delta, "omega": omega, "dt": dt, "t_max": dt * steps}

    def refusal(run):
        try:
            run()
        except ValueError as err:  # StepTooLarge, also for a step whose RK4 quaternion overflows
            return type(err)
        return None

    field = helical_field(HelicalParams(gamma, delta, omega))
    library = refusal(lambda: integrate_spin(field, IDENTITY, (0.0, doc["t_max"]), dt))
    try:
        scn = validate_scenario(doc)
    except ConfigError as err:
        assert err.errors and all(e.startswith(RATE_ERROR) or e == PHASE_ERROR for e in err.errors)
        # an overflowing drive phase gives the library a non-finite field, which it refuses before the step size
        assert library is (ValueError if PHASE_ERROR in err.errors else StepTooLarge)
        return
    assert refusal(lambda: run_scenario(scn, out_dir=str(tmp_path_factory.mktemp("h")))) is library


RESONANCE = {"kind": "resonance-curve", "gamma": 0.04, "delta_min": -0.4, "delta_max": 0.4, "n_points": 5,
             "t_pass": 78.5}
W_SQ_OVERFLOWS = "gamma^2 + max(|delta_min|, |delta_max|)^2 overflows"


@pytest.mark.parametrize("change, error", [
    # the probabilities were NaN and run named column p_down, not a key
    ({"delta_max": 1e308}, f"key 'delta_max': {W_SQ_OVERFLOWS}"),
    ({"gamma": 1e200}, f"key 'gamma': {W_SQ_OVERFLOWS}"),
    ({"gamma": 1e200, "t_pass": 0.0}, f"key 'gamma': {W_SQ_OVERFLOWS}"),
    ({"delta_min": -1e200, "delta_max": 1.0}, f"key 'delta_min': {W_SQ_OVERFLOWS}"),
    ({"gamma": 1e10, "t_pass": 1e300},
     "key 't_pass': the phase 0.5 * t_pass * sqrt(gamma^2 + max(|delta_min|, |delta_max|)^2) overflows"),
])
def test_resonance_probabilities_that_overflow_are_a_schema_error_listed_with_the_others(change, error):
    assert errors_of({**RESONANCE, **change, "n_points": 1}) == ["key 'n_points': value 1 must be 2..1000000", error]


# the schema accepts a resonance-curve document exactly when the library's table of it is finite
@settings(max_examples=300, deadline=None)
@given(
    gamma=st.floats(0.0, 1.0) | st.floats(0.0, 1e155) | st.sampled_from([0.0, 1.3407807929942596e154, 1e200]),
    delta_min=st.floats(-1.0, 1.0) | st.floats(-2e154, 2e154) | st.sampled_from([-1.3407807929942596e154, -1e200]),
    delta_max=st.floats(-1.0, 1.0) | st.floats(-2e154, 2e154) | st.sampled_from([1.3407807929942596e154, 1e200]),
    t_pass=st.floats(0.0, 100.0) | st.floats(0.0, 1.7976931348623157e308),
)
def test_resonance_overflow_check_matches_the_library(gamma, delta_min, delta_max, t_pass):
    assume(0.0 < delta_max - delta_min < math.inf)
    doc = {**RESONANCE, "gamma": gamma, "delta_min": delta_min, "delta_max": delta_max, "t_pass": t_pass}
    try:
        validate_scenario(doc)
        accepted = True
    except ConfigError as err:
        assert len(err.errors) == 1 and err.errors[0].endswith(" overflows")
        accepted = False
    assert bool(np.isfinite(resonance_curve(gamma, delta_min, delta_max, 5, t_pass)).all()) is accepted


# ---------------------------------------------------------------------------
# the command line imports numpy, and the inspect module that numpy pulls in, only to run a valid scenario, and a run
# imports only its kind's part of the library; no command imports dataclasses (quatspin's value types are named
# tuples), or argparse, or the gettext and locale modules that it pulls in

HEAVY_IMPORTS = ("dataclasses", "inspect", "json", "numpy", "numpy.random", "quatspin.emfield", "quatspin.lorentz",
                 "quatspin.spin", "argparse", "gettext", "locale")
# the process ends in os._exit, which runs no atexit hook: the probe reads sys.modules as that call is made
PROBE = f"""\
import os, runpy, sys
hard_exit = os._exit
def probe_exit(code):
    print("imported:", [m for m in {HEAVY_IMPORTS!r} if m in sys.modules], file=sys.stderr, flush=True)
    hard_exit(code)
os._exit = probe_exit
runpy.run_module("quatspin.cli", run_name="__main__", alter_sys=True)
"""


def run_probe(argv, timeout=None):
    src = os.path.dirname(os.path.dirname(quatspin.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    return subprocess.run([sys.executable, "-c", PROBE, *argv], capture_output=True, text=True, env=env,
                          timeout=timeout)


PMS_DOCUMENT = b"kind = pms\nxi1 = 0.3\nxi2 = 0.01\ntheta = 0.15\nn_blocks = 21\n"
NUMPY_FREE = {
    "list-kinds": (["list-kinds"], None, 0),
    "validate": (["validate"], PMS_DOCUMENT, 0),
    # a valid document, refused by its length alone
    "oversized-file": (["run"], PMS_DOCUMENT + b"#" * (MAX_SCENARIO_CHARS - len(PMS_DOCUMENT) + 1), 2),
    "config-errors": (["run"], b"kind = pms\nxi1 = oops\nn_blocks = 10000000000\nbogus = 1\n", 2),
    "non-utf8-file": (["run"], "kind = pms\nxi1 = 0.3\nxi2 = 0.01\ntheta = 0.15\nn_blocks = 5\n# caf\xe9 \xff\n"
                      .encode("latin-1"), 2),
    "helical-degenerate": (["run"], b"kind = helical\ngamma = 0.0\ndelta = 0.0\nomega = 0.03\nt_max = 10.0\n"
                           b"dt = 0.1\n", 2),
    "helical-step-too-large": (["run"], b"kind = helical\ngamma = 0.5\ndelta = 0.0\nomega = 2.0\nt_max = 10.0\n"
                               b"dt = 0.4\n", 2),
    "helical-step-cap": (["run"], b"kind = helical\ngamma = 0.04\ndelta = 0.0\nomega = 0.02\nt_max = 2000000.0\n"
                         b"dt = 1.0\n", 2),
    "helical-phase-overflow": (["run"], b"kind = helical\ngamma = 0.04\ndelta = 1e308\nomega = 1e308\n"
                               b"t_max = 100\ndt = 10\n", 2),
    "missing-file": (["run"], None, 3),
    "help": (["run", "--help"], None, 0),
    "usage-error": (["run", "--threads", "0"], None, 2),
}


@pytest.mark.parametrize("name", sorted(NUMPY_FREE))
def test_cli_front_end_does_not_import_numpy(tmp_path, name):
    argv, text, code = NUMPY_FREE[name]
    if argv != ["list-kinds"]:
        scn = tmp_path / "scn.txt"
        if text is not None:
            scn.write_bytes(text)
        argv = [*argv, str(scn), *(["--out", str(tmp_path / "out")] if argv == ["run"] else [])]
    proc = run_probe(argv)
    assert proc.returncode == code, proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stderr.splitlines()[-1] == "imported: []"
    assert not (tmp_path / "out").exists()


def test_cli_run_imports_numpy_after_validating(tmp_path):
    scn = tmp_path / "scn.txt"
    scn.write_bytes(PMS_DOCUMENT)
    proc = run_probe(["run", str(scn), "--out", str(tmp_path / "out")])
    assert proc.returncode == 0, proc.stderr
    assert "'numpy'" in proc.stderr.splitlines()[-1]
    assert (tmp_path / "out" / "pms.csv").exists()


def test_scenario_file_is_read_up_to_its_length_bound(tmp_path, capsys):
    # the file is read no further than the bound plus one, so that an endless one such as /dev/zero ends too
    at_bound = PMS_DOCUMENT.decode() + "#" * (MAX_SCENARIO_CHARS - len(PMS_DOCUMENT))
    scn = tmp_path / "scn.txt"
    for text, code in ((at_bound, 0), ("\ufeff" + at_bound, 0), (at_bound + "#", 2)):  # the mark is not counted
        scn.write_text(text, encoding="utf-8")
        assert main(["validate", str(scn)]) == code
    assert capsys.readouterr().err == (f"error: the scenario file holds more than MAX_SCENARIO_CHARS = "
                                       f"{MAX_SCENARIO_CHARS} characters\n")


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="named pipes are POSIX")
@pytest.mark.parametrize("command", ["validate", "run"])
def test_a_fifo_with_no_writer_reads_as_empty(tmp_path, command):
    fifo = tmp_path / "scn.fifo"
    os.mkfifo(fifo)
    # a probe still waiting for a writer when the timeout ends is killed by subprocess.run, which then raises
    proc = run_probe([command, str(fifo), *(["--out", str(tmp_path / "out")] if command == "run" else [])],
                     timeout=60)
    assert proc.returncode == 2, proc.stderr
    *errors, imported = proc.stderr.splitlines()
    assert errors and all(line.startswith("error: ") for line in errors)
    assert imported == "imported: []"
    assert not (tmp_path / "out").exists()


@pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="needs /dev/fd, as a shell's <(...) does")
def test_a_pipe_whose_writer_is_attached_is_read_to_its_end():
    read_end, write_end = os.pipe()

    def write_late():  # the reader is open, and waits for the document
        time.sleep(0.2)
        with os.fdopen(write_end, "wb") as fh:
            fh.write(PMS_DOCUMENT)

    writer = threading.Thread(target=write_late)
    writer.start()
    try:
        scn = load_scenario(f"/dev/fd/{read_end}")
    finally:
        writer.join(timeout=10)
        os.close(read_end)
    assert not writer.is_alive()
    assert scn == validate_scenario(parse_scenario_text(PMS_DOCUMENT.decode()))


def test_a_directory_still_exits_3_and_dev_zero_2(tmp_path, capsys):
    assert main(["validate", str(tmp_path)]) == 3
    assert capsys.readouterr().err.startswith("error: cannot read scenario: [Errno 21] Is a directory")
    if os.path.exists("/dev/zero"):  # read up to the length bound, then refused by it
        assert main(["validate", "/dev/zero"]) == 2
        assert capsys.readouterr().err.startswith("error: the scenario file holds more than MAX_SCENARIO_CHARS")


# each kind's run, and the library modules it loads besides quaternion
RUN_IMPORTS = {
    "pms": (PMS_DOCUMENT, ["quatspin.spin"]),
    "helical": (b"kind = helical\ngamma = 0.04\ndelta = 0.0\nomega = 0.02\nt_max = 1.0\ndt = 0.1\n", ["quatspin.spin"]),
    "resonance-curve": (b"kind = resonance-curve\ngamma = 0.04\ndelta_min = -0.4\ndelta_max = 0.4\nn_points = 5\n"
                        b"t_pass = 78.5\n", ["quatspin.spin"]),
    "em-check": (b"kind = em-check\ncase = plane-wave\n", ["quatspin.emfield"]),
    "lorentz-check": (b"kind = lorentz-check\nn_cases = 3\n", ["quatspin.emfield", "quatspin.lorentz"]),
}


@pytest.mark.parametrize("kind", sorted(RUN_IMPORTS))
def test_cli_run_imports_only_its_kinds_modules(tmp_path, kind):
    text, modules = RUN_IMPORTS[kind]
    scn = tmp_path / "scn.txt"
    scn.write_bytes(text)
    proc = run_probe(["run", str(scn), "--out", str(tmp_path / "out")])
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr.splitlines()[-1] == f"imported: {['inspect', 'numpy', *modules]}"
    assert (tmp_path / "out" / f"{kind}.csv").exists()


# ---------------------------------------------------------------------------
# lazy package exports

# every name the package exported when it imported its modules eagerly, with the module that defines it now
EXPORTS = {
    "quaternion": "ETA_0 ETA_X ETA_Y ETA_Z IDENTITY NonUnitAxis NonUnitQuaternion Quaternion Spinor2 from_axis_angle "
                  "from_eta precession_angle quat_mul quat_to_rotation to_eta to_spinor to_su2",
    "spin": "HelicalFieldSpec HelicalParams PmsConfig SpinTrajectory analytic_helical helical_field "
            "helical_params_from_field integrate_spin pms_block_generators pms_propagate polarization_evolution "
            "resonance_curve spin_flip_probability spin_up_probability",
    "emfield": "EmFieldSample EmTensor FourCurrent FourPotential MaxwellResidual continuity_residual em_tensor "
               "energy_quadratic fields_from_potential lorentz_invariants lorenz_gauge_residual maxwell_residual "
               "wave_residual",
    "lorentz": "LorentzQuat SuperluminalSpeed boost_field_closed boost_from_velocity boost_generator eb_boost "
               "rotate_field_closed rotation_generator transform_tensor",
    "schema": "ConfigError Scenario validate_scenario",
    "scenarios": "RunReport run_scenario",
}


def test_package_exports_resolve_to_their_module_objects():
    for module, names in EXPORTS.items():
        for name in names.split():
            namespace = {}
            exec(f"from quatspin import {name}", namespace)
            assert namespace[name] is getattr(importlib.import_module(f"quatspin.{module}"), name), name
            assert name in dir(quatspin)
    assert sorted(quatspin.__all__) == sorted(n for names in EXPORTS.values() for n in names.split())
    assert quatspin.__version__ == "0.1.0"
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        quatspin.no_such_name
    with pytest.raises(ImportError):
        exec("from quatspin import no_such_name", {})
