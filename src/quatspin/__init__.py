"""quatspin: quaternion spin-1/2 dynamics and complex-field electromagnetism."""

from .quaternion import (
    ETA_0,
    ETA_X,
    ETA_Y,
    ETA_Z,
    IDENTITY,
    NonUnitAxis,
    NonUnitQuaternion,
    Quaternion,
    Spinor2,
    from_axis_angle,
    from_eta,
    precession_angle,
    quat_mul,
    quat_to_rotation,
    to_eta,
    to_spinor,
    to_su2,
)
from .spin import (
    HelicalFieldSpec,
    HelicalParams,
    PmsConfig,
    SpinTrajectory,
    analytic_helical,
    helical_field,
    helical_params_from_field,
    integrate_spin,
    pms_block_generators,
    pms_propagate,
    polarization_evolution,
    resonance_curve,
    spin_flip_probability,
    spin_up_probability,
)
from .emfield import (
    EmFieldSample,
    EmTensor,
    FourCurrent,
    FourPotential,
    MaxwellResidual,
    continuity_residual,
    em_tensor,
    energy_quadratic,
    fields_from_potential,
    lorentz_invariants,
    lorenz_gauge_residual,
    maxwell_residual,
    wave_residual,
)
from .lorentz import (
    LorentzQuat,
    SuperluminalSpeed,
    boost_field_closed,
    boost_from_velocity,
    boost_generator,
    eb_boost,
    rotate_field_closed,
    rotation_generator,
    transform_tensor,
)
from .scenarios import ConfigError, RunReport, Scenario, run_scenario, validate_scenario

__version__ = "0.1.0"
