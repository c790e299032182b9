import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose

from armik import (
    AllCoefficientsZero,
    ArmikError,
    AxisParallel,
    DegenerateArm,
    InvalidInput,
    InvalidParams,
    RobotParams,
    ZeroSC,
    arm_angle,
    classify,
    forward_kinematics,
    frame_points,
    reduce_pose,
    solve,
    IkRequest,
    ToleranceSet,
    Transform,
)
from armik import default_params
from armik import _kernels_impl as K
from armik.verify import fk_oracle
from conftest import quartic_roots, sample_far_joints, special_pose


def _wrap(a):
    return math.atan2(math.sin(a), math.cos(a))


def _align(params, pose):
    # the rotation taking the pose to its special pose, from the pose itself:
    # rows yv x zv, yv, zv with zv = SC/|SC| and yv = z7 x zv normalised
    sc = pose.translation - np.array([0.0, 0.0, params.d_bs])
    sc = sc / np.abs(sc).max()  # |SC|^2 overflows at far offsets
    zv = sc / np.linalg.norm(sc)
    yv = np.cross(pose.rotation[:, 2], zv)
    yv /= np.linalg.norm(yv)
    return np.array([np.cross(yv, zv), yv, zv])


def _reconstruct(params, pose, rp):
    # invert reduce_pose: carry the special pose of rp back through the
    # pose's own alignment, which gives the pose iff d_sc, q and al are right
    A = _align(params, pose)
    sp = special_pose(params, rp.d_sc, rp.q, rp.al)
    base = np.array([0.0, 0.0, params.d_bs])
    return Transform(A.T @ sp.rotation, A.T @ (sp.translation - base) + base)


def _dihedral(S, E, C, z7):
    # the kernel behind arm_angle, on raw points and a unit tool z
    return K.arm_dihedral(S, E, C, z7, K.TOL_LEN, K.TOL_PARALLEL)


def _dihedral_oracle(S, E, C, z7):
    # independent numpy evaluation of the signed dihedral about SC
    u = (C - S) / np.linalg.norm(C - S)
    a = z7 - (z7 @ u) * u
    b = (E - S) - ((E - S) @ u) * u
    return math.atan2(float(np.cross(a, b) @ u), float(a @ b))


def test_psi_zero_planar_config(params):
    # elbow, SC line and tool z all in one vertical plane, elbow on the
    # same side as the projected tool axis: psi = 0
    q = np.array([0.0, -math.pi / 2, 0.0, 0.0, 0.0, math.pi / 2, 0.0])
    assert abs(arm_angle(params, q)) < 1e-12
    pts = frame_points(params, q)
    assert abs(pts.elbow[1]) < 1e-12  # planar geometry as constructed


def test_special_config_psi_matches_elbow_azimuth(params):
    # in the special configuration psi equals atan2(E_y, E_x) + pi
    rng = np.random.default_rng(31)
    for _ in range(25):
        d_sc = rng.uniform(0.35, 0.75)
        qv = rng.uniform(-2.6, -0.5)
        al = rng.uniform(-math.pi, math.pi)
        psi = rng.uniform(-math.pi, math.pi)
        pose = special_pose(params, d_sc, qv, al)
        res = solve(IkRequest(pose=pose, psi=psi, params=params))
        for br in res.branches:
            pts = frame_points(params, br.joints.q)
            azim = math.atan2(pts.elbow[1], pts.elbow[0])
            assert abs(_wrap(azim + math.pi - psi)) < 1e-8
            assert abs(_wrap(arm_angle(params, br.joints.q) - psi)) < 1e-8


def test_psi_zero_and_pi_put_elbow_in_reference_plane(params):
    pose = special_pose(params, 0.55, -1.1, 0.4)
    for psi, sign in ((0.0, -1.0), (math.pi, 1.0)):
        res = solve(IkRequest(pose=pose, psi=psi, params=params))
        assert res.branches
        for br in res.branches:
            pts = frame_points(params, br.joints.q)
            assert abs(pts.elbow[1]) < 1e-8
            assert sign * pts.elbow[0] > 0  # psi=0 negative x side, psi=pi positive


def test_arm_angle_matches_dihedral_oracle(params):
    rng = np.random.default_rng(32)
    for _ in range(200):
        q = sample_far_joints(rng, params)
        pts = frame_points(params, q)
        z7 = forward_kinematics(params, q).rotation[:, 2]
        want = _dihedral_oracle(pts.shoulder, pts.elbow, pts.axis7, z7)
        assert abs(_wrap(arm_angle(params, q) - want)) < 1e-10
        got_pts = _dihedral(pts.shoulder.tolist(), pts.elbow.tolist(), pts.axis7.tolist(),
                            z7.tolist())
        assert abs(_wrap(got_pts - want)) < 1e-10


def test_arm_angle_point_degeneracies():
    S = np.array([0.0, 0.0, 0.3])
    E = np.array([0.3, 0.0, 0.5])
    C = np.array([0.0, 0.0, 0.9])
    with pytest.raises(ZeroSC):
        _dihedral(S, E, S, np.array([0.0, 0.0, 1.0]))
    with pytest.raises(AxisParallel):
        _dihedral(S, E, C, np.array([0.0, 0.0, 1.0]))  # z7 along SC
    on_line = S + 0.6 * (C - S)
    with pytest.raises(DegenerateArm):
        _dihedral(S, on_line, C, np.array([1.0, 0.0, 0.0]))


ZERO_SC = (ZeroSC, "zero_sc", "axis-7 center coincides with the shoulder")
AXIS_PARALLEL = (AxisParallel, "axis_parallel", "tool z-axis is parallel to the SC line")
DEGENERATE_ARM = (DegenerateArm, "degenerate_arm", "elbow lies on the SC line, arm angle undefined")
# numeric IK of a pose whose tool z-axis points along SC
Q_AXIS_PARALLEL = [2.574184913685994, -1.004659252758658, -1.5707963267948963, -1.4760407554676225,
                   1.5707963267948968, -2.4807000082262802, -0.2674077399037996]
# elbow straight (q4 = 0) with q6 = 0: the elbow lies on SC
Q_ELBOW_ON_SC = [-math.pi / 2, 2.08, -2.99, 0.0, -0.99, 0.0, 2.61]
# d_se = d_ew and no wrist offset: folding the elbow (q4 = pi) puts C on S
FOLDING = RobotParams(d_bs=0.36, d_se=0.4, d_ew=0.4, a_wr=0.0)
S0, C0, X, Z = [0.0, 0.0, 0.3], [0.0, 0.0, 0.9], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]


@pytest.mark.parametrize(
    "call, want",
    [
        (lambda p: reduce_pose(p, special_pose(p, 0.0, -0.7, 0.3)), ZERO_SC),
        (lambda p: reduce_pose(p, special_pose(p, 0.5, 0.0, 0.3)),
         (AxisParallel, "axis_parallel", "tool z-axis is parallel to the shoulder-to-axis7 line")),
        (lambda p: arm_angle(FOLDING, [0.0, 0.0, 0.0, math.pi, 0.0, 0.0, 0.0]), ZERO_SC),
        (lambda p: arm_angle(p, Q_AXIS_PARALLEL), AXIS_PARALLEL),
        (lambda p: arm_angle(p, Q_ELBOW_ON_SC), DEGENERATE_ARM),
        (lambda p: _dihedral(S0, [0.3, 0.0, 0.5], S0, X), ZERO_SC),
        (lambda p: _dihedral(S0, [0.3, 0.0, 0.5], C0, Z), AXIS_PARALLEL),
        (lambda p: _dihedral(S0, S0, C0, X), DEGENERATE_ARM),
        (lambda p: _dihedral(S0, [0.0, 0.0, 0.66], C0, X), DEGENERATE_ARM),
        (lambda p: quartic_roots([0.0] * 5),
         (AllCoefficientsZero, "all_coefficients_zero", "polynomial is identically zero")),
    ],
    ids=["reduce_pose-zero_sc", "reduce_pose-axis_parallel", "arm_angle-zero_sc",
         "arm_angle-axis_parallel", "arm_angle-elbow_on_sc", "points-zero_sc",
         "points-axis_parallel", "points-elbow_at_shoulder", "points-elbow_on_sc",
         "quartic-all_zero"],
)
def test_kernel_errors_keep_type_tag_and_message(params, call, want):
    # every error a kernel raises, through each caller, as (type, tag, message)
    with pytest.raises(ArmikError) as info:
        call(params)
    assert (type(info.value), info.value.tag, str(info.value)) == want


Q_CALL = [0.3, -0.7, 1.1, -1.9, 0.4, 0.9, -2.2]
POSE_CALL = Transform(np.eye(3), [0.3, 0.1, 0.5])


@pytest.mark.parametrize("bad", [None, {"d_bs": 0.36}, "default"], ids=["none", "dict", "str"])
@pytest.mark.parametrize(
    "call",
    [
        lambda P: forward_kinematics(P, Q_CALL),
        lambda P: frame_points(P, Q_CALL),
        lambda P: arm_angle(P, Q_CALL),
        lambda P: reduce_pose(P, POSE_CALL),
        lambda P: classify(Q_CALL, P),
    ],
    ids=["forward_kinematics", "frame_points", "arm_angle", "reduce_pose", "classify"],
)
def test_public_functions_reject_foreign_params(call, bad):
    # these read params' float tables directly, which raised AttributeError
    with pytest.raises(InvalidInput, match="^params must be a RobotParams$"):
        call(bad)


# C on the shoulder (zero_sc) and the tool z-axis along SC (axis_parallel):
# the poses where a tolerance of zero or NaN divided by zero
AT_SHOULDER = Transform(np.eye(3), [0.0, 0.0, 0.36])
ALONG_SC = Transform(np.eye(3), [0.0, 0.0, 0.86])


@pytest.mark.parametrize(
    "pose, tol_len, tol_parallel",
    [
        (ALONG_SC, 1e-9, 0.0),
        (ALONG_SC, 1e-9, math.nan),
        (ALONG_SC, 1e-9, "1e-8"),
        (ALONG_SC, 1e-9, math.inf),
        (POSE_CALL, 1e-9, -1e-8),
        (AT_SHOULDER, 0.0, 1e-8),
        (AT_SHOULDER, math.nan, 1e-8),
        (AT_SHOULDER, -1e-9, 1e-8),
        (AT_SHOULDER, "1e-9", 1e-8),
        (POSE_CALL, True, 1e-8),
        (POSE_CALL, None, 1e-8),
    ],
    ids=["parallel_zero", "parallel_nan", "parallel_str", "parallel_inf", "parallel_negative",
         "len_zero", "len_nan", "len_negative", "len_str", "len_bool", "len_none"],
)
def test_reduce_pose_rejects_bad_tolerances(pose, tol_len, tol_parallel):
    with pytest.raises(InvalidInput, match="^tolerance tol_(len|parallel) must be a positive"):
        reduce_pose(default_params(), pose, ToleranceSet(tol_len=tol_len,
                                                         tol_parallel=tol_parallel))


def test_reduce_pose_rejects_a_foreign_tolerance_set():
    # a float where tol_len used to be
    with pytest.raises(InvalidInput, match="^tolerances must be a ToleranceSet$"):
        reduce_pose(default_params(), POSE_CALL, 1e-9)


def test_reduce_pose_takes_any_positive_finite_tolerance(params):
    pose = special_pose(params, 0.4, -0.7, 0.3)
    want = reduce_pose(params, pose)
    assert reduce_pose(params, pose, ToleranceSet(tol_len=np.float64(1e-9),
                                                  tol_parallel=np.float64(1e-8))) == want
    assert reduce_pose(params, pose, ToleranceSet(tol_len=1e-300, tol_parallel=1e-300)) == want
    with pytest.raises(AxisParallel):
        # an int is a tolerance too
        reduce_pose(params, pose, ToleranceSet(tol_len=1e-9, tol_parallel=1))


def test_reduce_pose_fixed_point(params):
    pose = special_pose(params, 0.4, -0.7, 0.3)
    rp = reduce_pose(params, pose)
    assert abs(rp.d_sc - 0.4) < 1e-12
    assert abs(rp.q - (-0.7)) < 1e-12
    assert abs(rp.al - 0.3) < 1e-12
    assert_allclose(_align(params, pose), np.eye(3), atol=1e-12)


def test_reduce_pose_axis_parallel(params):
    # z7 pointing along SC: the aligned frame is not unique
    p = np.array([0.0, 0.0, params.d_bs + 0.5])
    with pytest.raises(AxisParallel):
        reduce_pose(params, Transform(np.eye(3), p))


def test_reduce_zero_sc(params):
    with pytest.raises(ZeroSC):
        reduce_pose(params, Transform(np.eye(3), [0.0, 0.0, params.d_bs]))


def test_reduce_pose_far_offsets_keep_direction(params):
    # the squared SC length overflows from about 1e154 m on; the reduction
    # must still see the true direction instead of a zero vector
    rng = np.random.default_rng(35)
    for scale in (1e154, 1e200, 1e300):
        R = special_pose(params, 0.4, -0.7, 0.3).rotation
        sc = rng.normal(size=3) * scale
        pose = Transform(R, sc + [0.0, 0.0, params.d_bs])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rp = reduce_pose(params, pose)
            back = _reconstruct(params, pose, rp)
        assert abs(rp.d_sc - math.hypot(*sc)) <= 1e-15 * rp.d_sc
        assert_allclose(back.rotation, R, atol=1e-12)
        assert_allclose(back.translation, pose.translation, rtol=1e-12)


def test_reduce_pose_plain_norm_is_bit_exact(params):
    # the overflow fallback must not touch ordinary poses
    rng = np.random.default_rng(36)
    for _ in range(200):
        q = rng.uniform(-math.pi, math.pi, 7)
        pose = forward_kinematics(params, q)
        x, y, z = pose.translation.tolist()
        z -= params.d_bs
        assert reduce_pose(params, pose).d_sc == math.sqrt(x * x + y * y + z * z)


def test_reduce_reconstruct_random_poses(params):
    rng = np.random.default_rng(33)
    for _ in range(300):
        q = sample_far_joints(rng, params, margin=1e-2)
        pose = forward_kinematics(params, q)
        rp = reduce_pose(params, pose)
        assert rp.d_sc > 0
        assert -math.pi <= rp.q <= 0.0
        back = _reconstruct(params, pose, rp)
        assert_allclose(back.rotation, pose.rotation, atol=1e-9)
        assert_allclose(back.translation, pose.translation, atol=1e-9)
        # the alignment maps SC onto +z at length d_sc
        sc = pose.translation - np.array([0.0, 0.0, params.d_bs])
        assert_allclose(_align(params, pose) @ sc, [0.0, 0.0, rp.d_sc], atol=1e-12)


def test_reduce_special_pose_grid(params):
    rng = np.random.default_rng(34)
    for _ in range(10000):
        d_sc = rng.uniform(0.05, 0.9)
        qv = rng.uniform(-math.pi + 0.05, -0.05)
        al = rng.uniform(-math.pi, math.pi)
        rp = reduce_pose(params, special_pose(params, d_sc, qv, al))
        assert abs(rp.d_sc - d_sc) < 1e-10
        assert abs(rp.q - qv) < 1e-10
        assert abs(_wrap(rp.al - al)) < 1e-10


def test_self_motion_fixed_points(params):
    # S and C do not depend on the branch or on psi for a fixed pose
    rng = np.random.default_rng(35)
    q0 = sample_far_joints(rng, params)
    pose = forward_kinematics(params, q0)
    rp = reduce_pose(params, pose)
    sp = special_pose(params, rp.d_sc, rp.q, rp.al)
    for psi in (-2.0, -0.5, 0.3, 1.7):
        res = solve(IkRequest(pose=sp, psi=psi, params=params))
        for br in res.branches:
            pts = frame_points(params, br.joints.q)
            assert_allclose(pts.shoulder, [0.0, 0.0, params.d_bs], atol=1e-12)
            assert_allclose(pts.axis7, sp.translation, atol=1e-8)


def test_arm_angle_invariant_over_self_motion(params):
    # every branch of the same (pose, psi) request reports the same psi
    rng = np.random.default_rng(36)
    for _ in range(10):
        q0 = sample_far_joints(rng, params)
        pose = forward_kinematics(params, q0)
        psi0 = arm_angle(params, q0)
        for dpsi in (0.0, 0.4, -0.9):
            psi = _wrap(psi0 + dpsi)
            res = solve(IkRequest(pose=pose, psi=psi, params=params))
            if dpsi == 0.0:
                # the generating configuration is always recoverable
                assert res.branches
            # shifted psi values may fall outside the feasible self-motion
            # range of this pose; whatever comes back must reproduce psi
            assert len(res.branches) + len(res.rejected) == 16
            for br in res.branches:
                assert abs(_wrap(arm_angle(params, br.joints.q) - psi)) < 1e-8


def _nearest(joints, x):
    # the row of joints closest to x, by the largest wrapped joint difference
    if not len(joints):
        return None, math.inf
    d = np.abs((joints - x + math.pi) % (2 * math.pi) - math.pi).max(axis=1)
    i = int(d.argmin())
    return joints[i], float(d[i])


def _tracks(solve_at, x, a, b, levels=30):
    # follow the branch x from psi a up to psi b: take the step to b, and
    # halve it (at most levels times below the full step) until the next
    # psi has a branch within 0.02 rad; each success doubles it again
    level = 0
    while a < b:
        nxt = min(a + (b - a) / 2 ** level, b)
        y, d = _nearest(solve_at(nxt), x)
        if d < 0.02:
            x, a, level = y, nxt, max(level - 1, 0)
        elif level == levels:
            return False
        else:
            level += 1
    return True


def test_far_pose_branches_are_curves_in_psi(params):
    # every branch at one psi continues to the next psi of a 360-step sweep
    # around the circle: a branch there within 0.2 rad, or one the bisection
    # walk reaches within 0.02 rad per step; branch counts change only in
    # pairs (two branches fold together at a double root of the quartic)
    rng = np.random.default_rng(0)
    psis = -math.pi + 1e-3 + 2 * math.pi / 360 * np.arange(361)
    bisected = 0
    for _ in range(3):
        pose = forward_kinematics(params, sample_far_joints(rng, params))

        def solve_at(psi):
            return solve(IkRequest(pose=pose, psi=psi, params=params)).joints_array()

        sweep = [solve_at(float(psi)) for psi in psis]
        for k in range(360):
            assert (len(sweep[k + 1]) - len(sweep[k])) % 2 == 0
            for x in sweep[k]:
                if _nearest(sweep[k + 1], x)[1] < 0.2:
                    continue
                bisected += 1
                assert _tracks(solve_at, x, float(psis[k]), float(psis[k + 1]))
    # the walk is exercised: some steps move a branch by more than 0.2 rad
    assert bisected > 0


GEOM = (0.36, 0.42, 0.4, 0.0905)
Q_SCALED = [0.4, -1.2, 0.5, 1.1, -0.3, 0.9, 0.2]


def test_arm_angle_up_to_the_length_cut_off_matches_unit_scale():
    # RobotParams refuses links summing past SQUARE_OVERFLOW_LEN (scale 1e150
    # of this table sums to 1.27e150); up to there nothing overflows
    unit = RobotParams(*GEOM)
    want_psi = arm_angle(unit, Q_SCALED)
    want_ref = classify(Q_SCALED, unit).distances["reference_parallel"]
    for scale in (1e100, 1e149, 0.999 * K.SQUARE_OVERFLOW_LEN / sum(GEOM)):
        P = RobotParams(*(v * scale for v in GEOM))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert abs(arm_angle(P, Q_SCALED) - want_psi) < 1e-9
            assert abs(classify(Q_SCALED, P).distances["reference_parallel"] - want_ref) < 1e-9


def _arm_angle_or_none(params, q):
    try:
        return arm_angle(params, q)
    except ArmikError:
        return None


@settings(derandomize=True, database=None, max_examples=1000, deadline=None)
@given(u=st.floats(0.0, 310.0),
       q=st.lists(st.floats(-math.pi, math.pi), min_size=7, max_size=7))
def test_link_scales_up_to_the_float_range_give_coded_errors_only(u, q):
    # links scaled by 10^u: RobotParams takes them or raises InvalidParams,
    # and what it takes overflows nowhere on the way to the arm angle
    half = 10.0 ** (u / 2)  # 10.0 ** u would raise OverflowError from u = 308.25
    try:
        P = RobotParams(*(v * half * half for v in GEOM))
    except InvalidParams:
        return
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        for call in (forward_kinematics, frame_points, lambda P, q: classify(q, P)):
            try:
                call(P, q)
            except ArmikError:
                pass
        psi = _arm_angle_or_none(P, q)
    want = _arm_angle_or_none(RobotParams(*GEOM), q)
    if want is not None:
        assert psi is not None
        assert abs(_wrap(psi - want)) < 1e-9


@settings(derandomize=True, database=None, max_examples=400, deadline=None)
@given(u=st.floats(-12.0, 149.89),  # GEOM sums to 1.27 m, the cut-off is 1e150 m
       q=st.lists(st.floats(-math.pi, math.pi), min_size=7, max_size=7),
       psi=st.floats(-math.pi, math.pi))
def test_solve_at_extreme_link_scales_gives_verified_branches_or_coded_errors(u, q, psi):
    # links scaled by 10^u, solved at the configuration's own arm angle and
    # at psi: every leaf is accounted for and every branch reaches the pose
    scale = 10.0 ** u
    P = RobotParams(*(v * scale for v in GEOM))
    pose = forward_kinematics(P, q)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        own = _arm_angle_or_none(P, q)
        for target in [psi] if own is None else [own, psi]:
            try:
                res = solve(IkRequest(pose, target, P))
            except ArmikError:
                continue
            assert len(res.branches) + len(res.rejected) == 16
            for br in res.branches:
                chk = fk_oracle(P, br.joints.q)
                assert_allclose(chk.rotation, pose.rotation, rtol=0, atol=1e-8)
                assert_allclose(chk.translation, pose.translation, rtol=0,
                                atol=1e-8 * sum(GEOM) * scale)
