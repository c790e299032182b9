"""Arm angle and pose reduction.

The arm angle psi is the signed dihedral angle, about the shoulder-to-
axis7-center line SC, from the plane containing SC and the elbow to the
plane containing SC and the tool z-axis. It parameterizes the self-motion
of the redundant arm for a fixed tool pose.

reduce_pose reduces a pose to the three numbers the closed-form solver
reads: the SC length d_sc, the angle q of the tool z-axis from SC and the
tool rotation al about its z-axis. The solver takes q1..q3 from the pose's
own rotation, so no frame change is kept.
"""

from dataclasses import dataclass
import math

from .errors import InvalidInput
from .robot import RobotParams, Transform, _check_params, _check_tolerance, _joint_floats
from . import _kernels_impl as _K
from ._kernels_impl import TOL_LEN, TOL_PARALLEL


def arm_angle(params, joints):
    """Arm angle for a joint configuration, in (-pi, pi].

    Raises ZeroSC when C coincides with S, AxisParallel when the
    tool z-axis is parallel to SC, DegenerateArm when the elbow lies on
    the SC line.
    """
    _check_params(params)
    R, C, S, E, W = _K.fk_chain(params._links, _joint_floats(joints))
    return _K.arm_dihedral(S, E, C, (R[2], R[5], R[8]), TOL_LEN, TOL_PARALLEL)


@dataclass
class ReducedPose:
    """Standard form of a tool pose.

    d_sc: shoulder to axis-7-center distance, q: polar angle of the tool
    z-axis from SC (in [-pi, 0]), al: tool rotation about its z-axis.
    """

    d_sc: float
    q: float
    al: float


def reduce_pose(params, pose, tol_len=TOL_LEN, tol_parallel=TOL_PARALLEL):
    """Reduce a tool pose to its standard form.

    Raises ZeroSC when the axis-7 center falls within tol_len of the
    shoulder and AxisParallel when the sine of the angle between the tool
    z-axis and SC is below tol_parallel (al is then undefined). Raises
    InvalidInput unless params is a RobotParams and both tolerances are
    positive finite numbers.
    """
    if not isinstance(pose, Transform):
        raise InvalidInput("pose must be a Transform")
    # solve's arguments pass this cheap test; any other input gets the full checks
    if not (isinstance(params, RobotParams) and type(tol_len) is float
            and 0.0 < tol_len < math.inf and type(tol_parallel) is float
            and 0.0 < tol_parallel < math.inf):
        _check_params(params)
        _check_tolerance("tol_len", tol_len)
        _check_tolerance("tol_parallel", tol_parallel)
    return ReducedPose(*_K.reduce_pose_core(pose._rot, pose._pos, params.d_bs, tol_len,
                                            tol_parallel))

