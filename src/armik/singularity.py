"""Singularity classification and the numerical Jacobian rank oracle.

Kinematic singularities (task-space rank loss) come in four families;
algorithmic singularities are configurations where the closed-form branch
recovery itself degenerates even though the arm may move fine. Angle
conditions are measured in radians on the solver's internal coordinates;
the compound branch-fold expression is measured in meters.
"""

from dataclasses import dataclass
import math

from .robot import _check_params, _check_tolerance, _joint_floats, forward_kinematics
from . import _kernels_impl as _K
from ._kernels_impl import HIT_TOL, HIT_TOL_M, SC_LEN_TOL


def _dist_to(v, targets):
    return min(abs(_K.wrap_angle(v - t)) for t in targets)


@dataclass
class SingularityReport:
    """Distances to every singular family plus the hits under tolerance."""

    kinematic_hits: list
    algorithmic_hits: list
    distances: dict
    min_singular_value: float = None

    @property
    def is_singular(self):
        return bool(self.kinematic_hits or self.algorithmic_hits)


def classify(joints, params, hit_tol=HIT_TOL, hit_tol_m=HIT_TOL_M,
             with_jacobian=False):
    """Classify a configuration against the singular families.

    Angle families use internal joint coordinates (user values shifted by
    the parameter table offsets). Compound families take the max of their
    component distances; a hit needs distance < hit_tol (angles, rad) or
    < hit_tol_m for the meter-valued branch-fold expression. Both must be
    positive finite numbers (InvalidInput otherwise).
    """
    _check_params(params)
    _check_tolerance("hit_tol", hit_tol)
    _check_tolerance("hit_tol_m", hit_tol_m)
    import numpy as np
    qu = _joint_floats(joints)
    qp = [_K.wrap_angle(u + d) for u, d in zip(qu, params._delta)]
    q6_star = math.acos(-params.a_wr / params.d_ew)

    d_q4 = _dist_to(qp[3], (0.0, math.pi))
    d_q2 = _dist_to(qp[1], (math.pi / 2, -math.pi / 2))
    d_q3 = _dist_to(qp[2], (0.0, math.pi))
    d_q5 = _dist_to(qp[4], (0.0, math.pi))
    d_q6 = _dist_to(qp[5], (q6_star, -q6_star))

    c6, s6 = math.cos(qp[5]), math.sin(qp[5])
    c4, s4 = math.cos(qp[3]), math.sin(qp[3])
    s5 = math.sin(qp[4])
    fold = (params.d_ew + params.a_wr * c6) * s4 - params.a_wr * c4 * s5 * s6

    # SC direction vs the tool z-axis (pose-level degeneracy of the reduction);
    # the tool axis stays a column of a (3, 3) array, whose dot product
    # bits a contiguous copy need not keep
    R, p, S, _, _ = _K.fk_chain(params._links, qu)
    sc = np.array(p) - np.array(S)
    nsc = np.linalg.norm(sc)
    if nsc < SC_LEN_TOL:
        d_ref = 0.0
    else:
        cosang = abs(float(sc @ np.array(R).reshape(3, 3)[:, 2])) / nsc
        d_ref = math.acos(min(1.0, cosang))

    kin = {
        "elbow_straight": d_q4,
        "shoulder_flip_elbow_plane": max(d_q2, d_q3),
        "shoulder_flip_wrist_offset": max(d_q2, d_q6),
        "wrist_plane_wrist_offset": max(d_q5, d_q6),
    }
    alg = {
        "q2_half_pi": d_q2,
        "q6_offset_angle": d_q6,
        "branch_fold": abs(fold),
        "reference_parallel": d_ref,
    }
    distances = dict(kin)
    distances.update(alg)

    kinematic_hits = [(n, d) for n, d in kin.items() if d < hit_tol]
    algorithmic_hits = []
    for n, d in alg.items():
        tol = hit_tol_m if n == "branch_fold" else hit_tol
        if d < tol:
            algorithmic_hits.append((n, d))

    msv = None
    if with_jacobian:
        msv = float(np.linalg.svd(numeric_jacobian(qu, params), compute_uv=False)[-1])
    return SingularityReport(
        kinematic_hits=kinematic_hits,
        algorithmic_hits=algorithmic_hits,
        distances=distances,
        min_singular_value=msv,
    )


def family_distance(joints, params):
    """Distance (rad) to the nearest kinematic singular family."""
    rep = classify(joints, params)
    return min(
        rep.distances[n]
        for n in (
            "elbow_straight",
            "shoulder_flip_elbow_plane",
            "shoulder_flip_wrist_offset",
            "wrist_plane_wrist_offset",
        )
    )


def numeric_jacobian(joints, params, h=1e-5):
    """Central-difference geometric Jacobian of frame 7 (6x7).

    Rows 0..2: linear velocity of the frame origin; rows 3..5: angular
    velocity, both in base coordinates.
    """
    import numpy as np
    q = np.array(_joint_floats(joints))
    R0 = forward_kinematics(params, q).rotation
    J = np.empty((6, 7))
    for i in range(7):
        q[i] += h
        tp = forward_kinematics(params, q)
        q[i] -= 2.0 * h
        tm = forward_kinematics(params, q)
        q[i] += h
        J[:3, i] = (tp.translation - tm.translation) / (2.0 * h)
        W = ((tp.rotation - tm.rotation) / (2.0 * h)) @ R0.T
        J[3, i] = 0.5 * (W[2, 1] - W[1, 2])
        J[4, i] = 0.5 * (W[0, 2] - W[2, 0])
        J[5, i] = 0.5 * (W[1, 0] - W[0, 1])
    return J
