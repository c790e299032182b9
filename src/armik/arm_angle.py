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

import numpy as np

from .errors import (
    AxisParallel,
    DegenerateArm,
    InvalidInput,
    ZeroSC,
)
from .robot import Transform, _joints_array
from ._kernels import active as _K
from ._kernels_impl import (
    ERR_AXIS_PARALLEL,
    ERR_DEGENERATE_ARM,
    ERR_ZERO_SC,
    OK,
)

TOL_PARALLEL = 1e-8
TOL_LEN = 1e-9


def arm_angle(params, joints):
    """Arm angle for a joint configuration, in (-pi, pi].

    Raises ZeroSC when C coincides with S, AxisParallel when the
    tool z-axis is parallel to SC, DegenerateArm when the elbow lies on
    the SC line.
    """
    q = _joints_array(joints).tolist()
    psi, status = _K.arm_angle_core(params._links, q, TOL_LEN, TOL_PARALLEL)
    if status == OK:
        return psi
    _raise_arm_status(status)


def arm_angle_points(shoulder, elbow, axis7_center, tool_z):
    """Arm angle from the raw geometric inputs."""
    S = np.asarray(shoulder, dtype=float).reshape(3)
    E = np.asarray(elbow, dtype=float).reshape(3)
    C = np.asarray(axis7_center, dtype=float).reshape(3)
    z = np.asarray(tool_z, dtype=float).reshape(3)
    nz = np.linalg.norm(z)
    if nz < TOL_LEN:
        raise InvalidInput("tool z direction has zero length")
    psi, status = _K.arm_dihedral(S, E, C, z / nz, TOL_LEN, TOL_PARALLEL)
    if status == OK:
        return float(psi)
    _raise_arm_status(status)


def _raise_arm_status(status):
    if status == ERR_ZERO_SC:
        raise ZeroSC("axis-7 center coincides with the shoulder")
    if status == ERR_DEGENERATE_ARM:
        raise DegenerateArm("elbow lies on the SC line, arm angle undefined")
    if status == ERR_AXIS_PARALLEL:
        raise AxisParallel("tool z-axis is parallel to the SC line")
    raise RuntimeError(f"unexpected kernel status {status}")


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
    unique).
    """
    if not isinstance(pose, Transform):
        raise InvalidInput("pose must be a Transform")
    d_sc, q, al, A, status = _K.reduce_pose_core(
        pose._rot, pose._pos, params.d_bs, tol_len, tol_parallel
    )
    if status == ERR_ZERO_SC:
        raise ZeroSC("axis-7 center coincides with the shoulder")
    if status == ERR_AXIS_PARALLEL:
        raise AxisParallel(
            "tool z-axis is parallel to the shoulder-to-axis7 line"
        )
    return ReducedPose(d_sc, q, al, A)


def special_pose(params, d_sc, q, al):
    """Tool pose whose aligned standard form is (d_sc, q, al) with identity
    alignment: C on the base z-axis at height d_bs + d_sc."""
    cq, sq = math.cos(q), math.sin(q)
    ca, sa = math.cos(al), math.sin(al)
    Ry = np.array([[cq, 0.0, sq], [0.0, 1.0, 0.0], [-sq, 0.0, cq]])
    Rz = np.array([[ca, -sa, 0.0], [sa, ca, 0.0], [0.0, 0.0, 1.0]])
    R = Ry @ Rz
    p = np.array([0.0, 0.0, params.d_bs + d_sc])
    return Transform(R, p)

