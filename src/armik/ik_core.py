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

All stage functions here work in the solver's internal joint coordinates
(zero offsets); solve() converts to the user coordinates declared by the
parameter table.
"""

from dataclasses import dataclass, field
import math

import numpy as np

from .errors import (
    ElbowDegenerate,
    InvalidInput,
    NearAxisParallel,
    NoValidRoots,
    Unreachable,
    WristLikeDegenerate,
)
from .robot import JointConfig, Transform
from .arm_angle import reduce_pose, special_pose, ReducedPose
from .quartic import solve_quartic
from ._kernels import active as _K
from ._kernels_impl import BASE_OFFSETS, HALF_PI

PSI_TOL = 1e-8

# alpha column of the supported chain, rows 0..6
_ALPHAS = (0.0, -HALF_PI, HALF_PI, -HALF_PI, HALF_PI, -HALF_PI, HALF_PI)

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


_LEAF_LABELS = tuple(leaf_label(leaf) for leaf in range(16))
# kernel rejection code -> (reason, category)
_REJECT_NAMES = {c: (n, REASON_CATEGORY[n]) for c, n in REASON_NAMES.items()}


@dataclass
class ToleranceSet:
    """Numerical acceptance thresholds for the branch enumeration."""

    pose_tol: float = 1e-8
    angle_merge_tol: float = 1e-7
    branch_residual_tol: float = 1e-7
    sin_domain_tol: float = 1e-9
    psi_tol: float = PSI_TOL
    tol_len: float = 1e-9
    tol_parallel: float = 1e-8
    degree_tol: float = 1e-12
    root_merge_tol: float = 1e-8
    complex_accept: float = 1e-7

    def __post_init__(self):
        for name, v in self.__dict__.items():
            if not (isinstance(v, (int, float)) and v > 0):
                raise InvalidInput(f"tolerance {name} must be positive")


@dataclass
class QuarticSetup:
    """Intermediate quantities of the t6 quartic.

    k = (a_wr^2 + d_se^2 - d_sc^2 - d_ew^2)/2, y = 2 d_sc cos(q); tm1..tm3
    collect the psi- and q-dependent parts; g4..g0 are the coefficients of
    g4 t^4 + g3 t^3 + g2 t^2 + g1 t + g0.
    """

    k: float
    y: float
    tm1: float
    tm2: float
    tm3: float
    g4: float
    g3: float
    g2: float
    g1: float
    g0: float

    @property
    def coeffs(self):
        return np.array([self.g4, self.g3, self.g2, self.g1, self.g0])


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


@dataclass
class RejectedBranch:
    """A candidate leaf that was ruled out, with the reason."""

    label: str
    leaf: int
    reason: str
    category: str


@dataclass
class SolutionSet:
    """All accepted branches plus the rejection table (16 leaves total)."""

    branches: list
    rejected: list

    def __len__(self):
        return len(self.branches)

    def joints_array(self):
        if not self.branches:
            return np.zeros((0, 7))
        return np.stack([b.joints.q for b in self.branches])


@dataclass
class IkRequest:
    """A single inverse kinematics query."""

    pose: Transform
    psi: float
    params: object
    tolerances: ToleranceSet = field(default_factory=ToleranceSet)

    def __post_init__(self):
        if not isinstance(self.pose, Transform):
            raise InvalidInput("pose must be a Transform")
        self.psi = float(self.psi)
        if not math.isfinite(self.psi):
            raise InvalidInput("psi must be finite")
        self.psi = _K.wrap_angle(self.psi)


def build_quartic(d_sc, q, psi, params, tol=None):
    """Quartic setup for the special configuration (d_sc, q) at arm angle psi.

    Raises NearAxisParallel when sin(q) is too small for the q8 recovery
    (the tool z-axis is then parallel to SC).
    """
    tol = tol or ToleranceSet()
    if d_sc <= 0:
        raise InvalidInput("d_sc must be positive")
    if abs(math.sin(q)) < tol.tol_parallel:
        raise NearAxisParallel(
            "sin(q) is below tolerance, pose is at the axis-parallel degeneracy"
        )
    k, y, tm1, tm2, tm3, g4, g3, g2, g1, g0 = _K.quartic_setup_core(
        d_sc, q, psi, params.d_se, params.d_ew, params.a_wr
    )
    return QuarticSetup(k, y, tm1, tm2, tm3, g4, g3, g2, g1, g0)


def unsquared_residual(setup, t6, r6, a_wr):
    """Residual and scale of the pre-squaring combined constraint at (t6, r6)."""
    return _K.eq7_residual(t6, r6, setup.k, setup.y, a_wr, setup.tm1, setup.tm2, setup.tm3)


def solve_q6_q8(setup, d_sc, q, psi, params, tol=None):
    """(q6, q8) pairs from the quartic roots of t6.

    cos q6 = (t6 - a_wr)/d_ew; the sign of sin q6 comes from the unsquared
    constraint (both signs are kept when both satisfy it); cos q8 from the
    pose equation, the sign of sin q8 from the arm equation, then both are
    tightened with two Newton steps on the exact constraint pair. Raises
    NoValidRoots when no real root passes the cos-domain test.
    """
    tol = tol or ToleranceSet()
    a_wr, d_ew = params.a_wr, params.d_ew
    rr = solve_quartic(
        setup.coeffs,
        degree_tol=tol.degree_tol,
        root_merge_tol=tol.root_merge_tol,
        complex_accept=tol.complex_accept,
    )
    sq, cq = math.sin(q), math.cos(q)
    cp, sp = math.cos(psi), math.sin(psi)
    pairs = []
    domain_ok = 0
    for t6_root, mult in zip(rr.roots, rr.multiplicities):
        u6 = (t6_root - a_wr) / d_ew
        if abs(u6) > 1.0 + tol.sin_domain_tol:
            continue
        domain_ok += 1
        u6 = min(1.0, max(-1.0, u6))
        r6_mag = d_ew * math.sqrt(max(0.0, 1.0 - u6 * u6))
        res_p, sc_p = unsquared_residual(setup, t6_root, r6_mag, a_wr)
        res_m, sc_m = unsquared_residual(setup, t6_root, -r6_mag, a_wr)
        signs = []
        if abs(res_p) <= tol.branch_residual_tol * sc_p:
            signs.append(1.0)
        if r6_mag > 0.0 and abs(res_m) <= tol.branch_residual_tol * sc_m:
            signs.append(-1.0)
        # a double root is the branch fold: the merged sibling carries the
        # opposite sign, so a multiplicity-2 root legitimately emits both
        if mult < 2 and len(signs) == 2:
            signs = signs[:1] if abs(res_p) <= abs(res_m) else signs[1:]
        for sgn6 in signs:
            r6 = sgn6 * r6_mag
            q6 = math.atan2(r6, t6_root - a_wr)
            if abs(t6_root) < tol.tol_len:
                continue
            cq8 = -(a_wr * t6_root - setup.k - d_sc * r6 * cq) / (d_sc * sq * t6_root)
            if abs(cq8) > 1.0 + tol.sin_domain_tol:
                continue
            cq8 = min(1.0, max(-1.0, cq8))
            sq8_mag = math.sqrt(max(0.0, 1.0 - cq8 * cq8))
            best, s8 = math.inf, 1.0
            for cand in (1.0, -1.0):
                resid = abs(
                    _K.wrap_angle(
                        math.atan2(t6_root * cand * sq8_mag, -r6 * sq - t6_root * cq * cq8)
                        + math.pi
                        - psi
                    )
                )
                if resid < best:
                    best, s8 = resid, cand
            if best > 1e-2:
                continue
            q8 = math.atan2(s8 * sq8_mag, cq8)
            q6, q8 = _newton_q6_q8(q6, q8, setup.k, d_sc, sq, cq, cp, sp, a_wr, d_ew)
            pairs.append((q6, q8))
    if domain_ok == 0:
        raise NoValidRoots("no quartic root yields cos(q6) in range")
    return pairs


def _newton_q6_q8(q6, q8, k, d_sc, sq, cq, cp, sp, a_wr, d_ew):
    # two guarded Newton steps on the exact (pose, arm) constraint pair
    for _ in range(2):
        t6 = a_wr + d_ew * math.cos(q6)
        r6 = d_ew * math.sin(q6)
        c8, s8 = math.cos(q8), math.sin(q8)
        F1 = a_wr * t6 - d_sc * (r6 * cq - t6 * c8 * sq) - k
        F2 = t6 * s8 * cp + sp * (r6 * sq + t6 * cq * c8)
        dt6, dr6 = -r6, t6 - a_wr
        J11 = a_wr * dt6 - d_sc * (dr6 * cq - dt6 * c8 * sq)
        J12 = -d_sc * t6 * sq * s8
        J21 = dt6 * s8 * cp + sp * (dr6 * sq + dt6 * cq * c8)
        J22 = t6 * c8 * cp - sp * t6 * cq * s8
        det = J11 * J22 - J12 * J21
        jsc = max(abs(J11), abs(J12), abs(J21), abs(J22))
        if abs(det) < 1e-13 * jsc * jsc:
            break
        q6 -= (J22 * F1 - J12 * F2) / det
        q8 -= (-J21 * F1 + J11 * F2) / det
    return q6, q8


def solve_q7(q8, al):
    """q7 = q8 + al, wrapped to (-pi, pi]."""
    return _K.wrap_angle(q8 + al)


def shoulder_in_frame6(d_sc, q, q8, params):
    """Shoulder position expressed in frame 6 of the special configuration."""
    sq, cq = math.sin(q), math.cos(q)
    return np.array(
        [
            params.a_wr + d_sc * sq * math.cos(q8),
            d_sc * cq,
            d_sc * sq * math.sin(q8),
        ]
    )


def solve_q4(S6, params, tol=None):
    """Both elbow angles closing the shoulder triangle: (+|q4|, -|q4|).

    Raises Unreachable when |S6| cannot be spanned by d_se and d_ew.
    """
    tol = tol or ToleranceSet()
    S6 = np.asarray(S6, dtype=float)
    n2 = float(S6 @ S6)
    carg = (n2 - params.d_ew ** 2 - params.d_se ** 2) / (2.0 * params.d_se * params.d_ew)
    if abs(carg) > 1.0 + tol.sin_domain_tol:
        raise Unreachable(
            f"shoulder distance {math.sqrt(n2):.6f} outside the elbow triangle"
        )
    carg = min(1.0, max(-1.0, carg))
    q4 = math.acos(carg)
    return q4, -q4


def solve_q5(S6, q6, q4_sign=1.0):
    """Elbow-plane angle from the shoulder direction in frame 6.

    atan2 of the first two components of the shoulder column equation;
    both arguments flip with sign(sin q4), which the printed form leaves
    implicit, so the elbow sign of the branch is passed in. Raises
    ElbowDegenerate when both arguments vanish (q4 near 0 or pi).
    """
    S6 = np.asarray(S6, dtype=float)
    s6, c6 = math.sin(q6), math.cos(q6)
    a1 = -S6[0] * s6 - S6[1] * c6
    a2 = S6[2]
    if abs(a1) < 1e-10 and abs(a2) < 1e-10:
        raise ElbowDegenerate("q5 undefined: elbow axis aligned (q4 near 0 or pi)")
    s = 1.0 if q4_sign >= 0 else -1.0
    return math.atan2(s * a1, s * a2)


def shoulder_consistency(S6, q6, q4, params):
    """Residual of the third shoulder-column component, d_ew + d_se cos q4."""
    S6 = np.asarray(S6, dtype=float)
    s6, c6 = math.sin(q6), math.cos(q6)
    return S6[1] * s6 - S6[0] * c6 - (params.d_ew + params.d_se * math.cos(q4))


def solve_q123(R07, q4, q5, q6, q7):
    """Both (q1, q2, q3) triples factoring the remaining shoulder rotation.

    R03 = R07 R67^T R56^T R45^T R34^T; q2 = +-acos(r33) + pi/2 and q1, q3
    from the off-diagonal entries with sgn2 = sign(cos q2). Raises
    WristLikeDegenerate when |r33| is within 1e-10 of 1 (q2 = +-pi/2
    family: q1 and q3 are individually undefined).
    """
    acc = np.asarray(R07, dtype=float)
    for row, ang in ((6, q7), (5, q6), (4, q5), (3, q4)):
        link = _K.mdh_link(_ALPHAS[row], 0.0, 0.0, BASE_OFFSETS[row] + ang)
        acc = acc @ np.reshape(link[:9], (3, 3)).T
    r33 = acc[2, 2]
    if abs(r33) >= 1.0 - 1e-10:
        raise WristLikeDegenerate(
            "q1/q3 individually undefined: cos(q2) vanishes (q2 near +-pi/2)"
        )
    r13, r23, r31, r32 = acc[0, 2], acc[1, 2], acc[2, 0], acc[2, 1]
    ac2 = math.acos(min(1.0, max(-1.0, r33)))
    out = []
    for s2i in (1.0, -1.0):
        q2 = _K.wrap_angle(s2i * ac2 + HALF_PI)
        sgn2 = -s2i
        q1 = math.atan2(-r23 * sgn2, -r13 * sgn2)
        q3 = math.atan2(-r31 * sgn2, -r32 * sgn2)
        out.append((q1, q2, q3))
    return out[0], out[1]


def _run_kernel(K, params, R07, p07, d_sc, q, al, psi, tol):
    return K.ik_solve_core(
        tuple(map(tuple, params.mdh.tolist())),
        tuple(params.delta.tolist()),
        params.d_se,
        params.d_ew,
        params.a_wr,
        tuple(R07.ravel().tolist()),
        tuple(p07.ravel().tolist()),
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
    # the kernel's joint tuples are finite and FK-verified, so this skips
    # the caller-input validation of JointConfig.__init__
    jc = object.__new__(JointConfig)
    jc.q = np.array(qu, dtype=float)
    return jc


def _assemble(kout):
    accepted, rej = kout
    branches = [
        IkBranch(_verified_joints(qu), slot, t6, r6, q8, s4, s2, perr,
                 arm_res, pose_res)
        for qu, slot, t6, r6, q8, s4, s2, arm_res, pose_res, perr in accepted
    ]
    rejected = [
        RejectedBranch(_LEAF_LABELS[leaf], leaf, *_REJECT_NAMES[code])
        for leaf, code in rej
    ]
    return SolutionSet(branches=branches, rejected=rejected)


def solve_special(reduced, psi, params, tol=None):
    """All branches for a reduced pose, verified against the special pose.

    Raises NearAxisParallel when the reduced polar angle q is within
    tolerance of {0, -pi} (sin q appears in the q8 recovery).
    """
    tol = tol or ToleranceSet()
    if not isinstance(reduced, ReducedPose):
        raise InvalidInput("reduced must be a ReducedPose")
    psi = _K.wrap_angle(float(psi))
    if abs(math.sin(reduced.q)) < tol.tol_parallel:
        raise NearAxisParallel(
            "sin(q) is below tolerance, pose is at the axis-parallel degeneracy"
        )
    sp = special_pose(params, reduced.d_sc, reduced.q, reduced.al)
    kout = _run_kernel(
        _K, params, sp.rotation, sp.translation,
        reduced.d_sc, reduced.q, reduced.al, psi, tol,
    )
    return _assemble(kout)


def solve(request):
    """All IK branches for a general pose request.

    Reduces the pose, runs the special-configuration pipeline, and verifies
    every branch against the original pose (whose rotation also feeds the
    q1..q3 factorization directly). Raises ZeroSC or AxisParallel for
    poses where the reduction itself is degenerate.
    """
    if not isinstance(request, IkRequest):
        raise InvalidInput("request must be an IkRequest")
    tol = request.tolerances
    rp = reduce_pose(request.params, request.pose)
    kout = _run_kernel(
        _K,
        request.params,
        request.pose.rotation,
        request.pose.translation,
        rp.d_sc,
        rp.q,
        rp.al,
        request.psi,
        tol,
    )
    return _assemble(kout)
