import math
import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose

from armik import (
    AllCoefficientsZero,
    ArmikError,
    AxisParallel,
    DegenerateArm,
    InvalidInput,
    RobotParams,
    ZeroSC,
    arm_angle,
    classify,
    forward_kinematics,
    frame_points,
    reduce_pose,
    solve,
    IkRequest,
    Transform,
)
from armik import default_params
from armik.arm_angle import arm_angle_points, special_pose
from conftest import quartic_roots, sample_far_joints


def _wrap(a):
    return math.atan2(math.sin(a), math.cos(a))


def _align(rp):
    # the alignment rotation of a ReducedPose as a 3x3 array
    return np.array(rp.align_rows).reshape(3, 3)


def _reconstruct(params, rp):
    # invert reduce_pose: carry the special pose back through the alignment
    A = _align(rp)
    sp = special_pose(params, rp.d_sc, rp.q, rp.al)
    base = np.array([0.0, 0.0, params.d_bs])
    return Transform(A.T @ sp.rotation, A.T @ (sp.translation - base) + base)


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
        got_pts = arm_angle_points(pts.shoulder, pts.elbow, pts.axis7, z7)
        assert abs(_wrap(got_pts - want)) < 1e-10


def test_arm_angle_point_degeneracies():
    S = np.array([0.0, 0.0, 0.3])
    E = np.array([0.3, 0.0, 0.5])
    C = np.array([0.0, 0.0, 0.9])
    with pytest.raises(ZeroSC):
        arm_angle_points(S, E, S, np.array([0.0, 0.0, 1.0]))
    with pytest.raises(AxisParallel):
        arm_angle_points(S, E, C, np.array([0.0, 0.0, 1.0]))  # z7 along SC
    on_line = S + 0.6 * (C - S)
    with pytest.raises(DegenerateArm):
        arm_angle_points(S, on_line, C, np.array([1.0, 0.0, 0.0]))


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
        (lambda p: arm_angle_points(S0, [0.3, 0.0, 0.5], S0, X), ZERO_SC),
        (lambda p: arm_angle_points(S0, [0.3, 0.0, 0.5], C0, Z), AXIS_PARALLEL),
        (lambda p: arm_angle_points(S0, S0, C0, X), DEGENERATE_ARM),
        (lambda p: arm_angle_points(S0, [0.0, 0.0, 0.66], C0, X), DEGENERATE_ARM),
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


@pytest.mark.parametrize(
    "at, bad",
    [
        (3, [math.nan, 0.0, 1.0]),
        (3, [math.inf, 0.0, 1.0]),
        (0, [0.0, math.nan, 0.3]),
        (1, [0.3, -math.inf, 0.5]),
        (0, [0.0, 0.3]),
        (2, "abc"),
    ],
    ids=["nan_tool_z", "inf_tool_z", "nan_shoulder", "inf_elbow", "short_shoulder", "text"],
)
def test_arm_angle_points_rejects_hostile_input(at, bad):
    points = [[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0], [0.0, 1.0, 0.0]]
    assert math.isfinite(arm_angle_points(*points))
    points[at] = bad
    with pytest.raises(InvalidInput):
        arm_angle_points(*points)


@pytest.mark.parametrize("scale", [1.0, 1e150, 1e200, 1e308])
@pytest.mark.parametrize("tool_z, want", [([0.0, 1.0, 0.0], -math.pi / 4),
                                          ([1.0, 0.0, 0.0], math.pi / 4)], ids=["y", "x"])
def test_arm_angle_points_huge_coordinates(scale, tool_z, want):
    # at 1e308 the squared distances overflow; the angle does not depend on
    # the scale, and an offset shoulder must not change it either
    S = [0.0, 0.0, 0.0]
    E = [scale, scale, 0.0]
    C = [0.0, 0.0, scale]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = arm_angle_points(S, E, C, tool_z)
        assert abs(got - want) < 1e-12
        shifted = [scale / 4, 0.0, 0.0]
        moved = [[a + b for a, b in zip(P, shifted)] for P in (E, C)]
        assert abs(arm_angle_points(shifted, *moved, tool_z) - want) < 1e-12


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
        reduce_pose(default_params(), pose, tol_len, tol_parallel)


def test_reduce_pose_takes_any_positive_finite_tolerance(params):
    pose = special_pose(params, 0.4, -0.7, 0.3)
    want = reduce_pose(params, pose)
    assert reduce_pose(params, pose, np.float64(1e-9), np.float64(1e-8)) == want
    assert reduce_pose(params, pose, 1e-300, 1e-300) == want
    with pytest.raises(AxisParallel):
        reduce_pose(params, pose, 1e-9, 1)  # an int is a tolerance too


def test_reduce_pose_fixed_point(params):
    pose = special_pose(params, 0.4, -0.7, 0.3)
    rp = reduce_pose(params, pose)
    assert abs(rp.d_sc - 0.4) < 1e-12
    assert abs(rp.q - (-0.7)) < 1e-12
    assert abs(rp.al - 0.3) < 1e-12
    assert_allclose(_align(rp), np.eye(3), atol=1e-12)


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
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rp = reduce_pose(params, Transform(R, sc + [0.0, 0.0, params.d_bs]))
        assert abs(rp.d_sc - math.hypot(*sc)) <= 1e-15 * rp.d_sc
        assert_allclose(_align(rp) @ (sc / rp.d_sc), [0.0, 0.0, 1.0], atol=1e-12)


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
        back = _reconstruct(params, rp)
        assert_allclose(back.rotation, pose.rotation, atol=1e-9)
        assert_allclose(back.translation, pose.translation, atol=1e-9)
        # align maps SC onto +z and the pose rotation onto Roty(q)Rotz(al)
        sc = pose.translation - np.array([0.0, 0.0, params.d_bs])
        assert_allclose(_align(rp) @ sc, [0.0, 0.0, rp.d_sc], atol=1e-12)


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
