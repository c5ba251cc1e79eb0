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

__version__ = "0.1.0"
