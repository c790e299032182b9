"""Closed-form IK pipeline for the 7-DOF arm with a wrist offset.

The pose is first reduced to a special configuration with the axis-7
center C on the base z-axis. There the chain splits: t6 = a_wr + d_ew
cos(q6) solves a quartic built from the squared pose and arm-plane
constraints; the sign of sin(q6) comes from the unsquared combination;
(sin q8, cos q8) are recovered jointly from the two original constraints
(no tan(psi) form, so psi = +-pi/2 is fine); q7 = q8 + al; q4 closes the
shoulder-elbow-wrist triangle; q5 orients the elbow plane; q1..q3 factor
the leftover shoulder rotation. Up to 16 branches = 4 roots x 2 elbow
signs x 2 shoulder signs; every candidate leaf is either accepted or
recorded with a rejection reason, never silently dropped.

The branch math lives in one place, the kernel ik_solve_core, which works
in the solver's internal joint coordinates (zero offsets) and returns
joints in the user coordinates declared by the parameter table. solve()
validates the request, reduces the pose, runs the kernel and assembles its
output into branch and rejection records.
"""

from dataclasses import dataclass
import math

from .errors import InvalidInput
from .robot import JointConfig, RobotParams, Transform
from .arm_angle import reduce_pose
from ._kernels import active as _K
from ._kernels_impl import (
    ANGLE_MERGE_TOL, BRANCH_RESIDUAL_TOL, COMPLEX_PAIR_TOL, DEGREE_TOL, POSE_TOL, PSI_TOL,
    ROOT_MERGE_TOL, SIN_DOMAIN_TOL, TOL_LEN, TOL_PARALLEL,
)

REASON_NAMES = {
    1: "complex_root",
    2: "cos_domain",
    3: "unsquared_residual",
    4: "q8_degenerate",
    5: "arm_equation_mismatch",
    6: "unreachable",
    7: "elbow_degenerate",
    8: "shoulder_consistency",
    9: "wrist_degenerate",
    10: "pose_mismatch",
    11: "psi_mismatch",
    12: "duplicate",
    13: "quartic_identically_zero",
}

REASON_CATEGORY = {
    "complex_root": "complex_root",
    "cos_domain": "domain",
    "unsquared_residual": "residual",
    "q8_degenerate": "degeneracy",
    "arm_equation_mismatch": "residual",
    "unreachable": "domain",
    "elbow_degenerate": "degeneracy",
    "shoulder_consistency": "residual",
    "wrist_degenerate": "degeneracy",
    "pose_mismatch": "residual",
    "psi_mismatch": "residual",
    "duplicate": "duplicate",
    "quartic_identically_zero": "degeneracy",
}


def leaf_label(leaf):
    """Human-readable branch label for a leaf index 0..15."""
    slot = leaf // 4
    q4s = "+" if (leaf % 4) < 2 else "-"
    q2s = "+" if (leaf % 2) == 0 else "-"
    return f"root{slot}/q4{q4s}/q2{q2s}"


@dataclass(frozen=True)
class ToleranceSet:
    """Numerical acceptance thresholds for the branch enumeration, the ones
    a caller can tune; the defaults and every fixed cut-off are in the
    threshold table of armik._kernels_impl."""

    pose_tol: float = POSE_TOL
    angle_merge_tol: float = ANGLE_MERGE_TOL
    branch_residual_tol: float = BRANCH_RESIDUAL_TOL
    sin_domain_tol: float = SIN_DOMAIN_TOL
    psi_tol: float = PSI_TOL
    tol_len: float = TOL_LEN
    tol_parallel: float = TOL_PARALLEL
    degree_tol: float = DEGREE_TOL
    root_merge_tol: float = ROOT_MERGE_TOL
    complex_accept: float = COMPLEX_PAIR_TOL

    def __post_init__(self):
        for name, v in self.__dict__.items():
            number = isinstance(v, (int, float)) and not isinstance(v, bool)
            if not (number and 0 < v < math.inf):
                raise InvalidInput(f"tolerance {name} must be a positive finite number")


DEFAULT_TOLERANCES = ToleranceSet()


@dataclass
class IkBranch:
    """One accepted solution branch with its diagnostics."""

    joints: JointConfig
    root_index: int
    t6: float
    r6: float
    q8: float
    q4_sign: int
    q2_sign: int
    pose_error: float
    arm_eq_residual: float
    pose_eq_residual: float

    @property
    def label(self):
        q4s = "+" if self.q4_sign > 0 else "-"
        q2s = "+" if self.q2_sign > 0 else "-"
        return f"root{self.root_index}/q4{q4s}/q2{q2s}"


@dataclass(frozen=True)
class RejectedBranch:
    """A candidate leaf that was ruled out, with the reason."""

    label: str
    leaf: int
    reason: str
    category: str


# (leaf, kernel rejection code) -> its record; every solve shares these
_REJECTED = {
    (leaf, code): RejectedBranch(leaf_label(leaf), leaf, name, REASON_CATEGORY[name])
    for leaf in range(16) for code, name in REASON_NAMES.items()
}


@dataclass
class SolutionSet:
    """All accepted branches plus the rejection table (16 leaves total)."""

    branches: list
    rejected: list

    def __len__(self):
        return len(self.branches)

    def joints_array(self):
        import numpy as np
        if not self.branches:
            return np.zeros((0, 7))
        return np.stack([b.joints.q for b in self.branches])


@dataclass
class IkRequest:
    """A single inverse kinematics query."""

    pose: Transform
    psi: float
    params: RobotParams
    tolerances: ToleranceSet = DEFAULT_TOLERANCES

    def __post_init__(self):
        self.psi = _check_fields(self.pose, self.psi, self.params, self.tolerances)


def _check_fields(pose, psi, params, tolerances):
    """Check the fields of a request; returns psi as a float in (-pi, pi]."""
    if not isinstance(pose, Transform):
        raise InvalidInput("pose must be a Transform")
    if not isinstance(params, RobotParams):
        raise InvalidInput("params must be a RobotParams")
    if not isinstance(tolerances, ToleranceSet):
        raise InvalidInput("tolerances must be a ToleranceSet")
    try:
        psi = float(psi)
    except (TypeError, ValueError, OverflowError):
        raise InvalidInput("psi must be a number") from None
    if not math.isfinite(psi):
        raise InvalidInput("psi must be finite")
    return _K.wrap_angle(psi)


def _run_kernel(params, R07, p07, d_sc, q, al, psi, tol):
    # R07: the pose rotation as a row-major 9-tuple, p07: its translation
    return _K.ik_solve_core(
        params._links,
        params._delta,
        params.d_se,
        params.d_ew,
        params.a_wr,
        R07,
        p07,
        d_sc,
        q,
        al,
        psi,
        tol.pose_tol,
        tol.angle_merge_tol,
        tol.branch_residual_tol,
        tol.sin_domain_tol,
        tol.psi_tol,
        tol.tol_len,
        tol.tol_parallel,
        tol.degree_tol,
        tol.root_merge_tol,
        tol.complex_accept,
    )


def _verified_joints(qu):
    # the kernel's joint tuples are finite and FK-verified, so they become
    # the floats of a JointConfig without the checks of its __post_init__
    jc = object.__new__(JointConfig)
    jc._q = qu
    return jc


def _assemble(kout):
    accepted, rej = kout
    branches = [
        IkBranch(_verified_joints(qu), slot, t6, r6, q8, s4, s2, perr,
                 arm_res, pose_res)
        for qu, slot, t6, r6, q8, s4, s2, arm_res, pose_res, perr in accepted
    ]
    return SolutionSet(branches=branches, rejected=list(map(_REJECTED.__getitem__, rej)))


def solve(request):
    """All IK branches for a general pose request.

    Reduces the pose, runs the special-configuration pipeline, and verifies
    every branch against the original pose (whose rotation also feeds the
    q1..q3 factorization directly). Raises ZeroSC or AxisParallel for
    poses where the reduction itself is degenerate.
    """
    if not isinstance(request, IkRequest):
        raise InvalidInput("request must be an IkRequest")
    pose, psi, params, tol = request.pose, request.psi, request.params, request.tolerances
    # the fields stay editable after construction, so they are checked here.
    # A request as built passes this cheap test; any other goes through the
    # constructor's checks, so an edited request is solved as if built from
    # its current fields and a bad one raises (reduce_pose checks the pose)
    if not (
        isinstance(params, RobotParams)
        and isinstance(tol, ToleranceSet)
        and type(psi) is float
        and -math.pi < psi <= math.pi
    ):
        psi = _check_fields(pose, psi, params, tol)
    rp = reduce_pose(params, pose, tol.tol_len, tol.tol_parallel)
    kout = _run_kernel(params, pose._rot, pose._pos, rp.d_sc, rp.q, rp.al, psi, tol)
    return _assemble(kout)
