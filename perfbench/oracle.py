"""Independent checks of returned branches, run outside every timed region.

Poses come from the quaternion-chain FK oracle (`armik.verify`), which shares
no code with the solver's matrix kernels; the arm angle of each branch is
recomputed with `armik.arm_angle`.
"""

import math

import numpy as np

from armik import ArmikError, arm_angle
from armik.verify import fk_oracle_batch

POSE_TOL = 1e-8
PSI_TOL = 1e-8
# a branch "is" the generating configuration when every joint agrees this well
SOURCE_TOL = 1e-6


def _wrap(a):
    return math.atan2(math.sin(a), math.cos(a))


def rotation_angle(Ra, Rb):
    """Geodesic angle between two rotations, atan2 form (exact near 0)."""
    M = Ra @ Rb.T
    sx, sy, sz = M[2, 1] - M[1, 2], M[0, 2] - M[2, 0], M[1, 0] - M[0, 1]
    sn = 0.5 * math.sqrt(sx * sx + sy * sy + sz * sz)
    cn = 0.5 * (M[0, 0] + M[1, 1] + M[2, 2] - 1.0)
    return math.atan2(sn, cn)


def check_branches(params, R, p, psi, joints, worst):
    """Reasons why any branch misses the requested pose or arm angle.

    worst["pose"] and worst["psi"] are raised to the largest errors seen, so
    the report shows how close the solver runs to the tolerances.
    """
    fails = []
    if joints.shape[0] == 0:
        return fails
    Ro, po = fk_oracle_batch(params, joints)
    for k in range(joints.shape[0]):
        err = max(float(np.linalg.norm(po[k] - p)), rotation_angle(Ro[k], R))
        worst["pose"] = max(worst["pose"], err)
        if not err <= POSE_TOL:
            fails.append(f"branch {k} misses the oracle pose by {err:.3e}")
        try:
            dpsi = abs(_wrap(arm_angle(params, joints[k]) - psi))
        except ArmikError as e:
            fails.append(f"branch {k} has no arm angle ({e.tag})")
            continue
        worst["psi"] = max(worst["psi"], dpsi)
        if not dpsi <= PSI_TOL:
            fails.append(f"branch {k} misses the requested psi by {dpsi:.3e}")
    return fails


def contains(joints, q0):
    """True when some branch equals configuration q0 up to angle wrapping."""
    if joints.shape[0] == 0:
        return False
    d = np.abs(np.arctan2(np.sin(joints - q0), np.cos(joints - q0)))
    return bool(np.min(np.max(d, axis=1)) < SOURCE_TOL)
