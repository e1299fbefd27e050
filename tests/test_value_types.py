"""The 13 value types are named tuples: each checks and converts its fields in __new__, and _replace, _make and
unpickling (protocol 2 and up) build through it, so that a changed or restored copy is checked as a new value is."""

import math
import os
import pickle
import subprocess
import sys

import numpy as np
import pytest

import quatspin
from quatspin.emfield import EmFieldSample, EmTensor, FourCurrent, FourPotential, MaxwellResidual
from quatspin.lorentz import KIND_BOOST, KIND_ROTATION, LorentzQuat
from quatspin.quaternion import NonUnitQuaternion, Quaternion, Spinor2
from quatspin.scenarios import RunReport
from quatspin.schema import Scenario
from quatspin.spin import DegenerateParams, HelicalFieldSpec, HelicalParams, PmsConfig, SpinTrajectory


def phi(t, x, y, z):
    return 0.5 * t


def vector_potential(t, x, y, z):
    return np.array([0.0, x, 0.0])


SCENARIO = Scenario("pms", {"xi1": 0.3, "xi2": 0.01, "theta": 0.15, "n_blocks": 3}, 0, "pms.csv", "csv")
UNIT_STATES = [[1.0, 0.0, 0.0, 0.0], [0.6, 0.0, 0.8, 0.0], [0.0, 0.0, 0.0, 1.0]]

# a valid value of each type; hashable ones hold numbers and functions only
VALUES = {
    "Quaternion": lambda: Quaternion(0.6, 0.0, 0.8, 0.0),
    "Spinor2": lambda: Spinor2(0.6 + 0.8j, 0j),
    "RunReport": lambda: RunReport(SCENARIO, {"closure_distance": 0.25}, ["out/pms.csv"], 0.125),
    "PmsConfig": lambda: PmsConfig(3, 0.3, 0.01, 0.15),
    "HelicalParams": lambda: HelicalParams(0.04, 0.0, 0.02),
    "HelicalFieldSpec": lambda: HelicalFieldSpec(0.5, 2.0, 0.3, 1.5),
    "SpinTrajectory": lambda: SpinTrajectory([0.0, 1.0, 2.0], UNIT_STATES, mid_states=UNIT_STATES),
    "FourPotential": lambda: FourPotential(phi, vector_potential),
    "EmFieldSample": lambda: EmFieldSample([1.0, 2.0, 3.0], [4.0, 5.0, 6.0]),
    "EmTensor": lambda: EmTensor([1.0 - 2.0j, 0.5j, 3.0]),
    "FourCurrent": lambda: FourCurrent(0.5, [0.0, 1.0, 0.0]),
    "MaxwellResidual": lambda: MaxwellResidual(1e-9, np.array([0.0, 2e-9, 0.0]), np.zeros(3), -3e-9),
    "LorentzQuat": lambda: LorentzQuat(math.cosh(0.25), [0.0, 0.0, math.sinh(0.25)], KIND_BOOST),
}
HASHABLE = {"Quaternion", "Spinor2", "PmsConfig", "HelicalParams", "HelicalFieldSpec", "FourPotential"}

# a field change that the type's constructor refuses, with the error it raises
REFUSED = [
    ("PmsConfig", {"n_blocks": -1}, ValueError, "^n_blocks must be >= 0$"),
    ("PmsConfig", {"theta": math.nan}, ValueError, "^theta must be finite$"),
    ("HelicalParams", {"omega_drive": math.inf}, ValueError, "^omega_drive must be finite$"),
    ("HelicalParams", {"gamma_width": -0.5}, ValueError, "^gamma_width must be >= 0$"),
    ("HelicalParams", {"gamma_width": 0.0}, DegenerateParams, "cannot both vanish"),
    ("SpinTrajectory", {"times": [0.0, 2.0, 1.0]}, ValueError, "^times must be strictly increasing$"),
    ("SpinTrajectory", {"states": [[1.0, 0.0, 0.0, 0.0]] * 2}, ValueError, r"^times must be \(n,\), states \(n, 4\)$"),
    ("SpinTrajectory", {"states": [[2.0, 0.0, 0.0, 0.0]] * 3}, NonUnitQuaternion, "not unit norm"),
    ("SpinTrajectory", {"polar": np.zeros((3, 3))}, ValueError, r"^polar must have shape \(n, 2, 3\)$"),
    ("SpinTrajectory", {"mid_states": UNIT_STATES[:2]}, ValueError, r"^mid_states must have shape \(n, 4\)$"),
    ("EmFieldSample", {"e": [1.0, 2.0]}, ValueError, "^e and b must be 3-vectors"),
    ("EmFieldSample", {"b": np.zeros((2, 3))}, ValueError, "^e and b must be 3-vectors"),
    ("EmTensor", {"f": [1.0, 2.0]}, ValueError, "^f must be a complex 3-vector"),
    ("FourCurrent", {"j": [[0.0, 1.0, 0.0]]}, ValueError, "^j must be a 3-vector$"),
    ("LorentzQuat", {"kind": "spin"}, ValueError, "^unknown kind 'spin'$"),
    ("LorentzQuat", {"nu": [0.0, 0.0]}, ValueError, "^nu must be a 3-vector$"),
    ("LorentzQuat", {"kind": KIND_ROTATION}, ValueError, "^rotation constraint violated by"),
]

# a field change that the type's constructor converts: the field's type, and its dtype for an array
CONVERTED = [
    ("SpinTrajectory", {"times": [0, 1, 2]}, "times", np.dtype(float)),
    ("SpinTrajectory", {"polar": [[[0, 0, 1]] * 2] * 3}, "polar", np.dtype(float)),
    ("EmFieldSample", {"e": [4, 5, 6]}, "e", np.dtype(float)),
    ("EmTensor", {"f": [1, 2, 3]}, "f", np.dtype(complex)),
    ("FourCurrent", {"j": [0, 0, 1]}, "j", np.dtype(float)),
    ("LorentzQuat", {"nu": [0, 0, 0], "nu0": 1, "kind": KIND_ROTATION}, "nu", np.dtype(float)),
    ("LorentzQuat", {"nu": [0, 0, 0], "nu0": 1, "kind": KIND_ROTATION}, "nu0", float),
]


def same_fields(a, b) -> bool:
    """Same type and, field by field, equal items: arrays by value, dtype and shape."""
    if type(a) is not type(b) or a._fields != b._fields:
        return False
    for x, y in zip(a, b):
        if isinstance(x, np.ndarray):
            if not (isinstance(y, np.ndarray) and x.dtype == y.dtype and np.array_equal(x, y)):
                return False
        elif x != y:
            return False
    return True


@pytest.mark.parametrize(("name", "change", "error", "message"), REFUSED)
def test_replace_runs_the_constructors_checks(name, change, error, message):
    value = VALUES[name]()
    with pytest.raises(error, match=message):
        type(value)(**{**value._asdict(), **change})
    with pytest.raises(error, match=message):
        value._replace(**change)
    with pytest.raises(error, match=message):
        type(value)._make(change.get(field, item) for field, item in value._asdict().items())


@pytest.mark.parametrize(("name", "change", "field", "kind"), CONVERTED)
def test_replace_runs_the_constructors_conversions(name, change, field, kind):
    changed = VALUES[name]()._replace(**change)
    item = getattr(changed, field)
    if isinstance(kind, np.dtype):
        assert isinstance(item, np.ndarray) and item.dtype == kind
    else:
        assert type(item) is kind
    assert same_fields(changed, type(changed)(**{**VALUES[name]()._asdict(), **change}))


@pytest.mark.parametrize("name", sorted(VALUES))
def test_a_field_cannot_be_assigned_and_no_attribute_added(name):
    value = VALUES[name]()
    for field in value._fields:
        with pytest.raises(AttributeError):
            setattr(value, field, getattr(value, field))
    with pytest.raises(AttributeError):
        value.note = "x"
    assert same_fields(value, VALUES[name]())


@pytest.mark.parametrize("name", sorted(VALUES))
def test_equal_values_compare_equal_and_hash_alike(name):
    value = VALUES[name]()
    twin = type(value)(*value)  # the same items: an array is the same object, so == needs no truth value of one
    assert twin == value and twin == tuple(value) and same_fields(twin, value)
    assert value._replace() == value
    if name in HASHABLE:
        assert VALUES[name]() == value and hash(VALUES[name]()) == hash(value) == hash(tuple(value))
    else:
        with pytest.raises(TypeError, match="unhashable"):
            hash(value)


@pytest.mark.parametrize("name", sorted(VALUES))
def test_a_pickle_round_trip_returns_an_equal_value(name):
    value = VALUES[name]()
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        assert same_fields(pickle.loads(pickle.dumps(value, protocol)), value)


def test_the_len_of_a_trajectory_is_its_number_of_states():
    traj = VALUES["SpinTrajectory"]()
    assert len(traj) == 3 and len(traj._replace(polar=np.zeros((3, 2, 3)))) == 3
    longer = traj._replace(times=np.arange(5.0), states=[UNIT_STATES[0]] * 5, mid_states=None)
    assert len(longer) == 5 and len(pickle.loads(pickle.dumps(longer))) == 5
    times, states, polar, mid_states = longer  # its items are still its four fields
    assert times is longer.times and polar is None and mid_states is None and longer[1] is states


def test_a_value_is_a_tuple_of_its_fields():
    q = VALUES["Quaternion"]()
    s0, sx, sy, sz = q
    assert (s0, sx, sy, sz) == q == (0.6, 0.0, 0.8, 0.0) and q[2] == q.sy == 0.8
    assert q._fields == ("s0", "sx", "sy", "sz") and q._asdict() == {"s0": 0.6, "sx": 0.0, "sy": 0.8, "sz": 0.0}
    assert -q == (-0.6, -0.0, -0.8, -0.0) and q + q == (*q, *q)  # + concatenates: the product is quat_mul


def test_no_import_of_the_library_loads_dataclasses():
    src = os.path.dirname(os.path.dirname(quatspin.__file__))
    modules = ", ".join(f"quatspin.{m}" for m in ("cli", "emfield", "lorentz", "quaternion", "scenarios", "schema",
                                                 "spin"))
    code = f"import sys, {modules}; print('dataclasses' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True,
                          env=dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])))
    assert proc.stdout == "False\n"
