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
"""

from .controller import (
    AttitudeController,
    ControlMode,
    ControllerGains,
    FootCommand,
    ThrustRamp,
    pd_step,
    thrust_schedule,
    tune_gains,
)
from .envelope import (
    EnvelopeConstraint,
    EnvelopeInfeasibleError,
    EnvelopePoint,
    SweepPoint,
    envelope_sweep,
    max_pitch_torque_dt,
    max_pitch_torque_tvc,
    tvc_dt_ratio,
    write_envelope_csv,
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
