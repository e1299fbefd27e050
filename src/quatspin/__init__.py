"""quatspin: quaternion spin-1/2 dynamics and complex-field electromagnetism.

The names below are imported from their modules on first use (PEP 562), so
importing the package, or ``quatspin.cli``, does not import numpy.
"""

import importlib

_EXPORTS = {
    "quaternion": (
        "ETA_0", "ETA_X", "ETA_Y", "ETA_Z", "IDENTITY", "NonUnitAxis", "NonUnitQuaternion", "Quaternion", "Spinor2",
        "from_axis_angle", "from_eta", "precession_angle", "quat_mul", "quat_to_rotation", "to_eta", "to_spinor",
        "to_su2",
    ),
    "spin": (
        "HelicalFieldSpec", "HelicalParams", "PmsConfig", "SpinTrajectory", "analytic_helical", "helical_field",
        "helical_params_from_field", "integrate_spin", "pms_block_generators", "pms_propagate",
        "polarization_evolution", "resonance_curve", "spin_flip_probability", "spin_up_probability",
    ),
    "emfield": (
        "EmFieldSample", "EmTensor", "FourCurrent", "FourPotential", "MaxwellResidual", "continuity_residual",
        "em_tensor", "energy_quadratic", "fields_from_potential", "lorentz_invariants", "lorenz_gauge_residual",
        "maxwell_residual", "wave_residual",
    ),
    "lorentz": (
        "LorentzQuat", "SuperluminalSpeed", "boost_field_closed", "boost_from_velocity", "boost_generator",
        "eb_boost", "rotate_field_closed", "rotation_generator", "transform_tensor",
    ),
    "schema": ("ConfigError", "Scenario", "validate_scenario"),
    "scenarios": ("RunReport", "run_scenario"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_MODULE_OF)
__version__ = "0.1.0"


def __getattr__(name):
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{_MODULE_OF[name]}", __name__), name)


def __dir__():
    return sorted({*globals(), *_MODULE_OF})
