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
joints in the user coordinates declared by the parameter table, with its
rejected leaves as shared RejectedBranch records. solve() validates the
request, reduces the pose, runs the kernel and assembles its branches.
"""

from dataclasses import dataclass
import math

from .errors import InvalidInput
from .robot import JointConfig, RobotParams, Transform, _check_params, _check_tolerance
from .arm_angle import reduce_pose
from . import _kernels_impl as _K
from ._kernels_impl import (
    ANGLE_MERGE_TOL, BRANCH_RESIDUAL_TOL, COMPLEX_PAIR_TOL, DEGREE_TOL, POSE_TOL, PSI_TOL,
    REASONS, ROOT_MERGE_TOL, SIN_DOMAIN_TOL, TOL_LEN, TOL_PARALLEL,
)
from ._kernels_impl import RejectedBranch, leaf_label

# rejection code -> reason, and reason -> category, from the kernel's table
REASON_NAMES = {code: reason for code, (reason, _) in enumerate(REASONS, 1)}
REASON_CATEGORY = dict(REASONS)
# the labels of the 16 leaves, in leaf order
_LEAF_LABELS = tuple(map(leaf_label, range(16)))


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
            _check_tolerance(name, v)


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
        # the kernel's leaf number: 4 per root slot, 2 per elbow sign, 1 per shoulder sign
        return _LEAF_LABELS[4 * self.root_index + 2 * (self.q4_sign < 0) + (self.q2_sign < 0)]


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
    _check_params(params)
    if not isinstance(tolerances, ToleranceSet):
        raise InvalidInput("tolerances must be a ToleranceSet")
    try:
        psi = float(psi)
    except (TypeError, ValueError, OverflowError):
        raise InvalidInput("psi must be a number") from None
    if not math.isfinite(psi):
        raise InvalidInput("psi must be finite")
    return _K.wrap_angle(psi)


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
    return SolutionSet(branches=branches, rejected=rej)


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
    return _assemble(_K.ik_solve_core(params, tol, pose._rot, pose._pos, rp.d_sc, rp.q, rp.al,
                                      psi))
