"""Arm angle and pose reduction.

The arm angle psi is the signed dihedral angle, about the shoulder-to-
axis7-center line SC, from the plane containing SC and the elbow to the
plane containing SC and the tool z-axis. It parameterizes the self-motion
of the redundant arm for a fixed tool pose.

reduce_pose maps an arbitrary reachable pose to an aligned standard form
in which C sits on the base z-axis and the tool z-axis lies in the xz
plane; the closed-form solver works in that frame and the alignment
rotation carries solutions back.
"""

from dataclasses import dataclass
import math

from .errors import InvalidInput
from .robot import RobotParams, Transform, _check_params, _check_tolerance, _joint_floats, _vec
from . import _kernels_impl as _K
from ._kernels_impl import TOL_LEN, TOL_PARALLEL

# arm_angle_points rescales points beyond this: their squares may overflow
_SQUARES_SAFE = 1e150


def arm_angle(params, joints):
    """Arm angle for a joint configuration, in (-pi, pi].

    Raises ZeroSC when C coincides with S, AxisParallel when the
    tool z-axis is parallel to SC, DegenerateArm when the elbow lies on
    the SC line.
    """
    _check_params(params)
    return _K.arm_angle_core(params._links, _joint_floats(joints), TOL_LEN, TOL_PARALLEL)


def arm_angle_points(shoulder, elbow, axis7_center, tool_z):
    """Arm angle from the raw geometric inputs.

    Raises InvalidInput unless each input is 3 finite numbers, and ZeroSC,
    AxisParallel or DegenerateArm as arm_angle does. Huge points are scaled
    by a power of two first, and TOL_LEN applies to the scaled points.
    """
    S = _vec(shoulder, 3, "shoulder")
    E = _vec(elbow, 3, "elbow")
    C = _vec(axis7_center, 3, "axis7_center")
    z = _vec(tool_z, 3, "tool_z")
    nz = math.hypot(*z)
    if nz < TOL_LEN:
        raise InvalidInput("tool z direction has zero length")
    if (m := max(map(abs, S + E + C))) > _SQUARES_SAFE:
        S, E, C = ([math.ldexp(v, -math.frexp(m)[1]) for v in P] for P in (S, E, C))
    return _K.arm_dihedral(S, E, C, [v / nz for v in z], TOL_LEN, TOL_PARALLEL)


@dataclass
class ReducedPose:
    """Aligned standard form of a tool pose.

    d_sc: shoulder to axis-7-center distance, q: polar angle of the tool
    z-axis in the aligned frame (in [-pi, 0]), al: residual tool rotation
    about its z-axis, align_rows: the rotation taking base coordinates to
    the aligned frame as a row-major 9-tuple.
    """

    d_sc: float
    q: float
    al: float
    align_rows: tuple


def reduce_pose(params, pose, tol_len=TOL_LEN, tol_parallel=TOL_PARALLEL):
    """Reduce a tool pose to the aligned standard form.

    Raises ZeroSC when the axis-7 center falls within tol_len of the
    shoulder and AxisParallel when the sine of the angle between the tool
    z-axis and SC is below tol_parallel (the aligned frame is then not
    unique). Raises InvalidInput unless params is a RobotParams and both
    tolerances are positive finite numbers.
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


def special_pose(params, d_sc, q, al):
    """Tool pose whose aligned standard form is (d_sc, q, al) with identity
    alignment: C on the base z-axis at height d_bs + d_sc."""
    import numpy as np
    cq, sq = math.cos(q), math.sin(q)
    ca, sa = math.cos(al), math.sin(al)
    Ry = np.array([[cq, 0.0, sq], [0.0, 1.0, 0.0], [-sq, 0.0, cq]])
    Rz = np.array([[ca, -sa, 0.0], [sa, ca, 0.0], [0.0, 0.0, 1.0]])
    R = Ry @ Rz
    p = np.array([0.0, 0.0, params.d_bs + d_sc])
    return Transform(R, p)

