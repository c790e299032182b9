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
rejected leaves as shared RejectedBranch records. Its stage slots_core
gives per root slot the reason that rejects its four leaves, or the record
they share (t6, r6, q8, residuals, q4a, q5's atan2 arguments, R05, u6, u7).
The reduction comes first: reduce_pose turns a pose into the three numbers
the closed form reads, the SC length d_sc (S the shoulder, C the axis-7
center), the angle q of the tool z-axis from SC and the tool rotation al
about its z-axis. The kernel takes q1..q3 from the pose's own rotation, so
no frame change is kept. An IkRequest is a plain record that stays
editable, so solve() is the one place its fields are checked: it checks
and wraps psi, reduces the pose (reduce_pose checks the pose, params and
tolerances types), runs the kernel and assembles its branches.
"""

from dataclasses import dataclass
import math

from .errors import InvalidInput
from .robot import (
    JointConfig, RobotParams, Transform, _OnRead, _check_params, _check_tolerance, _joint_floats,
)
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
        return _branch_label(self.root_index, self.q4_sign, self.q2_sign)


def _branch_label(root_index, q4_sign, q2_sign):
    # the kernel's leaf number: 4 per root slot, 2 per elbow sign, 1 per shoulder sign
    return _LEAF_LABELS[4 * root_index + 2 * (q4_sign < 0) + (q2_sign < 0)]


def _verified_joints(qu):
    # the kernel's joint tuples are finite and FK-verified, so they become
    # the floats of a JointConfig without the checks of its __post_init__
    jc = object.__new__(JointConfig)
    jc._q = qu
    return jc


def _branches_of(rows):
    return [
        IkBranch(_verified_joints(qu), slot, t6, r6, q8, s4, s2, perr, arm_res, pose_res)
        for qu, slot, t6, r6, q8, s4, s2, arm_res, pose_res, perr in rows
    ]


@dataclass
class SolutionSet:
    """All accepted branches plus the rejection table (16 leaves total).

    A solve keeps the kernel's rows under _branches; branches is built from
    them when first read. len() and joints_array() read the rows while
    branches is unread, and the branch objects once it has been read.
    """

    branches: list = _OnRead(_branches_of)
    rejected: list

    def _rows(self):
        """The accepted branches as the kernel's rows, (joints, root_index,
        t6, r6, q8, q4_sign, q2_sign, arm_eq_residual, pose_eq_residual,
        pose_error): the kernel's own while branches is unread, else taken
        from the branch objects, so an edit made after the read shows."""
        d = self.__dict__
        if "branches" not in d:
            return d["_branches"]
        return [(_joint_floats(b.joints), b.root_index, b.t6, b.r6, b.q8, b.q4_sign, b.q2_sign,
                 b.arm_eq_residual, b.pose_eq_residual, b.pose_error) for b in d["branches"]]

    def __len__(self):
        d = self.__dict__
        return len(d["branches"] if "branches" in d else d["_branches"])

    def joints_array(self):
        import numpy as np
        rows = self._rows()
        if not rows:
            return np.zeros((0, 7))
        return np.array([row[0] for row in rows])


@dataclass
class ReducedPose:
    """Standard form of a tool pose.

    d_sc: shoulder to axis-7-center distance, q: polar angle of the tool
    z-axis from SC (in [-pi, 0]), al: tool rotation about its z-axis.
    """

    d_sc: float
    q: float
    al: float


def reduce_pose(params, pose, tolerances=DEFAULT_TOLERANCES):
    """Reduce a tool pose to its standard form.

    Raises ZeroSC when the axis-7 center falls within tolerances.tol_len of
    the shoulder and AxisParallel when the sine of the angle between the
    tool z-axis and SC is below tolerances.tol_parallel (al is then
    undefined). Raises InvalidInput unless pose is a Transform, params a
    RobotParams and tolerances a ToleranceSet (which checked its values).
    """
    if not isinstance(pose, Transform):
        raise InvalidInput("pose must be a Transform")
    _check_params(params)
    if not isinstance(tolerances, ToleranceSet):
        raise InvalidInput("tolerances must be a ToleranceSet")
    return ReducedPose(*_K.reduce_pose_core(pose._rot, pose._pos, params.d_bs,
                                            tolerances.tol_len, tolerances.tol_parallel))


@dataclass
class IkRequest:
    """A single inverse kinematics query: a plain, editable record of its
    fields, which solve() checks when it reads them."""

    pose: Transform
    psi: float
    params: RobotParams
    tolerances: ToleranceSet = DEFAULT_TOLERANCES


def _assemble(kout):
    # the kernel's rows, with branches left to be built when first read
    res = object.__new__(SolutionSet)
    res._branches, res.rejected = kout
    return res


def solve(request):
    """All IK branches for a general pose request.

    Reduces the pose, runs the special-configuration pipeline, and verifies
    every branch against the original pose (whose rotation also feeds the
    q1..q3 factorization directly). Raises ZeroSC or AxisParallel for
    poses where the reduction itself is degenerate, InvalidInput for a field
    of the wrong kind or a psi that is not a finite number.
    """
    if not isinstance(request, IkRequest):
        raise InvalidInput("request must be an IkRequest")
    try:
        psi = float(request.psi)
    except (TypeError, ValueError, OverflowError):
        raise InvalidInput("psi must be a number") from None
    if not math.isfinite(psi):
        raise InvalidInput("psi must be finite")
    pose, params, tol = request.pose, request.params, request.tolerances
    rp = reduce_pose(params, pose, tol)
    return _assemble(_K.ik_solve_core(params, tol, pose._rot, pose._pos, rp.d_sc, rp.q, rp.al,
                                      _K.wrap_angle(psi)))
