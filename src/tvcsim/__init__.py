"""Takeoff dynamics and thrust-vector attitude control for a four-fan humanoid.

Subpackages by responsibility:

* spatial    - frames, rotations, quaternion kinematics
* robot      - physical parameters, takeoff postures, derived geometry
* wrench     - net force/torque of the four fans
* envelope   - attainable pitch-torque boundaries (DT vs TVC)
* trim       - hover trim solver
* controller - dual PD foot-pitch flight controller
* sim        - fixed-step 6-DOF takeoff simulation
* oracles    - independent cross-check evaluators
* cli        - command-line entry point

The envelope names below load on first access (PEP 562): the envelope solver
is the one layer of the takeoff, trim and wrench path that needs numpy, so
importing the package does not load it.
"""

from .controller import (
    AttitudeController,
    ControlMode,
    ControllerGains,
    ThrustRamp,
    thrust_schedule,
    tune_gains,
)
from .robot import (
    GRAVITY,
    FanLimits,
    Posture,
    RobotGeometry,
    UnknownPostureError,
    builtin_posture,
    geometry_from_posture,
    point_mass_inertia,
)
from .sim import (
    DivergenceError,
    Perturbation,
    RigidBodyState,
    ScenarioConfig,
    SimLog,
    dynamics_step,
    run_scenario,
)
from .spatial import EulerAngles, quat_integrate, quat_to_euler
from .trim import NoTrimError, hover_trim
from .wrench import FanState, Wrench, generalized_wrench_3d, total_wrench

__version__ = "0.1.0"

_ENVELOPE_NAMES = frozenset({
    "EnvelopeConstraint", "EnvelopeInfeasibleError", "EnvelopePoint", "SweepPoint",
    "envelope_sweep", "max_pitch_torque_dt", "max_pitch_torque_tvc", "tvc_dt_ratio",
    "write_envelope_csv",
})


def __getattr__(name):
    if name in _ENVELOPE_NAMES:
        from . import envelope
        return getattr(envelope, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
