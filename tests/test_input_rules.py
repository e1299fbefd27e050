"""Each library input rule, pinned at every entry point that applies it, and the one place that codes it.

- A 3-vector (rotation axis, polarization) is accepted when |v| is within UNIT_TOL_INPUT of 1.
- A quaternion (spin state) is accepted when |q|^2 is within UNIT_TOL_INPUT of 1.
- A finite-difference step h is accepted when 0 < h < inf.
- A speed of light c is accepted when 0 < c < inf.
- A velocity v is accepted when |v| < c, which a NaN |v| is not.
"""

import ast
import math
import re
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import quatspin
from quatspin.emfield import (
    DegenerateStep,
    FourCurrent,
    FourPotential,
    apply_dirac,
    continuity_residual,
    current_matrix,
    fields_from_potential,
    lorenz_gauge_residual,
    maxwell_residual,
    wave_residual,
)
from quatspin.lorentz import KIND_BOOST, SuperluminalSpeed, boost_from_velocity, eb_boost
from quatspin.quaternion import (
    UNIT_TOL_INPUT,
    NonUnitAxis,
    NonUnitQuaternion,
    Quaternion,
    from_axis_angle,
    quat_to_rotation,
    rotate_batch,
)
from quatspin.spin import (
    HelicalParams,
    NonUnitPolarization,
    PmsConfig,
    SpinTrajectory,
    integrate_spin,
    pms_propagate,
    polarization_evolution,
)

SRC = Path(quatspin.__file__).parent


def edge_pair(kernel, start: float, toward: float) -> tuple[float, float]:
    """Adjacent doubles (inside, outside) where |kernel(s) - 1| crosses UNIT_TOL_INPUT, walking from start."""
    s = start
    while abs(kernel(s) - 1.0) <= UNIT_TOL_INPUT:
        s = math.nextafter(s, toward)
    while abs(kernel(s) - 1.0) > UNIT_TOL_INPUT:
        s = math.nextafter(s, 1.0)
    return s, math.nextafter(s, toward)


# the entries' kernels: |(0, 0, z)| is |z| exactly, and |(s, 0, 0, 0)|^2 is the one product s * s
VECTOR_EDGES = {side: edge_pair(lambda z: float(np.linalg.norm([0.0, 0.0, z])), 1.0 + side * UNIT_TOL_INPUT,
                                 1.0 + side) for side in (1, -1)}
QUATERNION_EDGES = {side: edge_pair(lambda s: s * s, math.sqrt(1.0 + side * UNIT_TOL_INPUT), 1.0 + side)
                    for side in (1, -1)}

PMS = PmsConfig(n_blocks=3, xi1=0.3, xi2=0.01, theta=0.15)
HELICAL = HelicalParams(gamma_width=0.04, delta_detune=0.01, omega_drive=0.02)

VECTOR_ENTRIES = {
    "from_axis_angle": (NonUnitAxis, lambda v: from_axis_angle(v, 0.3)),
    "pms_propagate": (NonUnitPolarization, lambda v: pms_propagate(PMS, v)),
    "SpinTrajectory.polarization": (NonUnitPolarization, lambda v: pms_propagate(PMS, [0.0, 0.0, 1.0]).polarization(v)),
    "polarization_evolution": (NonUnitPolarization, lambda v: polarization_evolution(HELICAL, 1, v, 0.7)),
}

QUATERNION_ENTRIES = {
    "rotate_batch": lambda q: rotate_batch([[1.0, 0.0, 0.0, 0.0], q], [0.0, 0.0, 1.0]),
    "quat_to_rotation": lambda q: quat_to_rotation(Quaternion.from_array(q)),
    "integrate_spin": lambda q: integrate_spin(lambda t: [0.0, 0.0, 1.0], Quaternion.from_array(q), (0.0, 0.1), 0.05),
    "SpinTrajectory": lambda q: SpinTrajectory(times=[0.0, 1.0], states=[[1.0, 0.0, 0.0, 0.0], q]),
}


def test_edges_are_adjacent_doubles_on_either_side_of_the_tolerance():
    for edges, kernel in ((VECTOR_EDGES, abs), (QUATERNION_EDGES, lambda s: s * s)):
        for side, (inside, outside) in edges.items():
            assert math.nextafter(inside, 1.0 + side) == outside
            # strictly inside: |n - 1| is a multiple of 2^-53 and 1e-9 an odd multiple of 2^-82, so they never
            # meet, and a check written with < accepts exactly what <= accepts
            assert abs(kernel(inside) - 1.0) < UNIT_TOL_INPUT < abs(kernel(outside) - 1.0)
    for z in (*VECTOR_EDGES[1], *VECTOR_EDGES[-1]):
        assert float(np.linalg.norm([0.0, 0.0, z])) == z


@pytest.mark.parametrize("side", [1, -1])
@pytest.mark.parametrize("name", sorted(VECTOR_ENTRIES))
def test_each_vector_entry_accepts_just_inside_and_refuses_just_outside(name, side):
    error, call = VECTOR_ENTRIES[name]
    inside, outside = VECTOR_EDGES[side]
    call([0.0, 0.0, inside])
    with pytest.raises(error, match=r"\| = .* is not 1 within 1e-09") as caught:
        call([0.0, 0.0, outside])
    assert repr(outside) in str(caught.value)
    with pytest.raises(error, match="must be a 3-vector, got shape \\(1, 3\\)"):  # a batch is not a vector
        call([[0.0, 0.0, 1.0]])


@pytest.mark.parametrize("side", [1, -1])
@pytest.mark.parametrize("name", sorted(QUATERNION_ENTRIES))
def test_each_quaternion_entry_accepts_just_inside_and_refuses_just_outside(name, side):
    call = QUATERNION_ENTRIES[name]
    inside, outside = QUATERNION_EDGES[side]
    call([inside, 0.0, 0.0, 0.0])
    with pytest.raises(NonUnitQuaternion, match="unit norm") as caught:
        call([outside, 0.0, 0.0, 0.0])
    assert repr(outside * outside) in str(caught.value)
    with pytest.raises(NonUnitQuaternion, match="2.0"):
        call([1.0, 1.0, 0.0, 0.0])
    with pytest.raises(NonUnitQuaternion):
        call([math.nan, 0.0, 0.0, 0.0])


def not_called(*args):
    raise AssertionError(f"called at {args} with a degenerate step")


STEP_ENTRIES = {
    "fields_from_potential": lambda h: fields_from_potential(FourPotential(not_called, not_called), (0, 1, 1, 1), h),
    "lorenz_gauge_residual": lambda h: lorenz_gauge_residual(FourPotential(not_called, not_called), (0, 1, 1, 1), h),
    "apply_dirac": lambda h: apply_dirac(not_called, (0, 1, 1, 1), h),
    "maxwell_residual": lambda h: maxwell_residual(not_called, not_called, (0, 1, 1, 1), h),
    "wave_residual": lambda h: wave_residual(not_called, (0, 1, 1, 1), h),
    "continuity_residual": lambda h: continuity_residual(not_called, (0, 1, 1, 1), h),
}


@pytest.mark.parametrize("h", [0.0, -0.0, -1e-3, math.nan, math.inf])
@pytest.mark.parametrize("name", sorted(STEP_ENTRIES))
def test_each_differencing_function_refuses_a_degenerate_step_before_calling_back(name, h):
    with pytest.raises(DegenerateStep, match="step h must be positive"):
        STEP_ENTRIES[name](h)


def test_boost_at_rest_has_the_bits_of_the_identity_boost():
    rest = boost_from_velocity([0.0, 0.0, 0.0])
    assert rest.kind == KIND_BOOST and type(rest.nu0) is float and rest.nu0 == 1.0
    assert rest.nu.dtype == np.float64 and rest.nu.tobytes() == np.zeros(3).tobytes()  # +0.0, not -0.0
    # at rest any positive c is accepted, however small: the fields come back as unchanged copies
    e, b = np.array([1.0, -0.0, 3.0]), np.array([4.0, 5.0, -6.0])
    e_out, b_out = eb_boost(e, b, (0.0, 0.0, 0.0), 1e-200)
    assert e_out is not e and e_out.tobytes() == e.tobytes() and b_out is not b and b_out.tobytes() == b.tobytes()


# each entry point that boosts by a velocity v at a speed of light c
BOOST_ENTRIES = {
    "boost_from_velocity": boost_from_velocity,
    "eb_boost": lambda v, c: eb_boost([1.0, 2.0, 3.0], [4.0, 5.0, 6.0], v, c),
}


@pytest.mark.parametrize("c", [math.nan, math.inf, -math.inf, 0.0, -0.0, -1.0])
@pytest.mark.parametrize("v", [(0.0, 0.0, 0.0), (0.1, 0.0, 0.0)])
@pytest.mark.parametrize("name", sorted(BOOST_ENTRIES))
def test_each_boost_refuses_a_speed_of_light_that_is_not_positive_and_finite(name, v, c):
    with pytest.raises(ValueError, match="^c must be positive and finite") as caught:
        BOOST_ENTRIES[name](v, c)
    assert type(caught.value) is ValueError  # refused as c, before the speed is compared with it


# each field function that takes a speed of light c: a bad c is refused before a callback is called
FIELD_LIGHT_SPEED_ENTRIES = {
    "fields_from_potential": lambda c: fields_from_potential(FourPotential(not_called, not_called), (0, 1, 1, 1),
                                                             0.01, c),
    "lorenz_gauge_residual": lambda c: lorenz_gauge_residual(FourPotential(not_called, not_called), (0, 1, 1, 1),
                                                             0.01, c),
    "current_matrix": lambda c: current_matrix(FourCurrent(rho=1.0, j=[0.0, 0.0, 0.0]), c),
    "apply_dirac": lambda c: apply_dirac(not_called, (0, 1, 1, 1), 0.01, c),
    "maxwell_residual": lambda c: maxwell_residual(not_called, not_called, (0, 1, 1, 1), 0.01, c),
    "wave_residual": lambda c: wave_residual(not_called, (0, 1, 1, 1), 0.01, c),
}


@pytest.mark.parametrize("c", [math.nan, math.inf, -math.inf, 0.0, -0.0, -1.0])
@pytest.mark.parametrize("name", sorted(FIELD_LIGHT_SPEED_ENTRIES))
def test_each_field_function_refuses_a_speed_of_light_that_is_not_positive_and_finite(name, c):
    with pytest.raises(ValueError, match="^c must be positive and finite") as caught:
        FIELD_LIGHT_SPEED_ENTRIES[name](c)
    assert type(caught.value) is ValueError


@pytest.mark.parametrize(("v", "speed"), [
    ((math.nan, 0.0, 0.0), "nan"),
    ((0.0, 0.0, math.nan), "nan"),
    ((math.inf, 0.0, 0.0), "inf"),
    ((0.0, 1e200, 0.0), "1e+200"),  # |v|^2 would overflow, but |v| is read without squaring
    ((1.0, 0.0, 0.0), "1.0"),  # at c itself
])
@pytest.mark.parametrize("name", sorted(BOOST_ENTRIES))
def test_each_boost_refuses_a_speed_that_is_not_below_c(name, v, speed):
    with pytest.raises(SuperluminalSpeed, match=rf"^\|v\| = {re.escape(speed)} must be below c = 1\.0$"):
        BOOST_ENTRIES[name](v, 1.0)


def boost_bits(result) -> tuple:
    """The bytes of a boost's generator, or of the fields eb_boost returns."""
    if isinstance(result, tuple):
        return tuple(x.tobytes() for x in result)
    return np.float64(result.nu0).tobytes(), result.nu.tobytes()


def normal(x: float) -> bool:
    return sys.float_info.min <= abs(x) < math.inf


@settings(max_examples=200, deadline=None)
@given(st.lists(st.floats(-0.57, 0.57), min_size=3, max_size=3), st.floats(1e-3, 1e3), st.integers(-1000, 1000))
@example(v=[0.1, 0.0, 0.0], c=1.0, k=-600)  # |v|^2 underflows to 0: a squared reading takes it for rest
@example(v=[0.0, 0.0, 0.3], c=1.0, k=-520)  # |v|^2 is subnormal: a squared reading misses unit length
@example(v=[0.0, 0.5, 0.0], c=1.0, k=700)  # |v|^2 overflows: a squared reading takes |v| for inf
def test_each_boost_reads_a_velocity_scaled_by_a_power_of_two_as_the_velocity_itself(v, c, k):
    v = [x * c for x in v]  # |v| < 0.99 c
    assume(all(normal(x) and normal(math.ldexp(x, k)) for x in [*v, c] if x != 0.0))
    scaled = [math.ldexp(x, k) for x in v], math.ldexp(c, k)
    for name, boost in BOOST_ENTRIES.items():
        assert boost_bits(boost(*scaled)) == boost_bits(boost(v, c)), name


@pytest.mark.parametrize("v", [(5e-324, 5e-324, 0.0), (1e-320, -3e-321, 2e-322)])
def test_boost_from_velocity_takes_the_axis_of_a_subnormal_velocity(v):
    # |v| is subnormal too, so it holds too few bits to divide v by
    nu = boost_from_velocity(v, 1e-300).nu
    axis = np.array(v) / np.max(np.abs(v))
    assert np.abs(nu / np.linalg.norm(nu) - axis / np.linalg.norm(axis)).max() <= 1e-15


# ---------------------------------------------------------------------------
# each rule is coded once


def functions_where(predicate) -> set:
    """(module, function) for every top-level function or method in src/ with a node that predicate accepts."""
    found = set()
    for path in sorted(SRC.glob("*.py")):
        for top in ast.parse(path.read_text(encoding="utf-8")).body:
            defs = top.body if isinstance(top, ast.ClassDef) else [top]
            for node in defs:
                if isinstance(node, ast.FunctionDef) and any(map(predicate, ast.walk(node))):
                    found.add((path.stem, node.name))
    return found


def named(node, name: str) -> bool:
    return isinstance(node, ast.Name) and node.id == name


def test_unit_tolerance_is_compared_in_the_three_unit_checks_only():
    compared = functions_where(lambda n: isinstance(n, ast.Compare)
                               and any(named(x, "UNIT_TOL_INPUT") for x in [n.left, *n.comparators]))
    assert compared == {("quaternion", "_unit_vector"), ("quaternion", "_unit_norm_sq"), ("lorentz", "_unit_axes")}


def compared_with(name: str, node) -> set:
    """The names read on the sides of a comparison that reads name, or an empty set."""
    if not isinstance(node, ast.Compare):
        return set()
    read = {x.id for side in [node.left, *node.comparators] for x in ast.walk(side) if isinstance(x, ast.Name)}
    return read if name in read else set()


def test_speed_of_light_is_checked_in_one_function_and_compared_with_a_speed_in_the_velocity_check():
    # the rule 0 < c < inf compares c with constants only; |v| < c compares it with a speed
    checked = functions_where(lambda n: {"c"} <= compared_with("c", n) <= {"c", "math"})
    assert checked == {("emfield", "_check_light_speed")}
    assert functions_where(lambda n: compared_with("c", n) - {"c", "math"}) == {("lorentz", "_velocity")}


def test_document_text_is_read_as_a_number_in_coerce_only():
    # parse_scenario_text keeps each value as text, and one function reads it as its key's type: int, float or
    # a field's kind called on it.  Scenario documents are read in schema alone.
    reading = functions_where(lambda n: isinstance(n, ast.Call) and (
        named(n.func, "int") or named(n.func, "float") or isinstance(n.func, ast.Attribute) and n.func.attr == "kind"))
    assert {(module, name) for module, name in reading if module == "schema"} == {("schema", "_coerce")}


def test_degenerate_step_is_raised_by_the_stencil_only():
    raising = functions_where(lambda n: isinstance(n, ast.Raise) and n.exc is not None
                              and any(named(x, "DegenerateStep") for x in ast.walk(n.exc)))
    assert raising == {("emfield", "_stencil")}


def test_every_lorentz_quat_is_built_by_a_generator():
    building = functions_where(lambda n: isinstance(n, ast.Call) and named(n.func, "LorentzQuat"))
    assert building == {("lorentz", "rotation_generator"), ("lorentz", "boost_generator")}
