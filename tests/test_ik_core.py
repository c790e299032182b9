import math
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose

from armik import (
    ElbowDegenerate,
    IkRequest,
    InvalidInput,
    NearAxisParallel,
    NoValidRoots,
    QuarticSetup,
    REASON_NAMES,
    ReducedPose,
    RobotParams,
    ToleranceSet,
    Transform,
    Unreachable,
    WristLikeDegenerate,
    arm_angle,
    build_quartic,
    default_params,
    fk_oracle,
    forward_kinematics,
    leaf_label,
    mdh_transform,
    reduce_pose,
    shoulder_consistency,
    shoulder_in_frame6,
    solve,
    solve_q123,
    solve_q4,
    solve_q5,
    solve_q6_q8,
    solve_q7,
    solve_special,
    unsquared_residual,
)
from conftest import sample_far_joints


def _wrap(a):
    return math.atan2(math.sin(a), math.cos(a))


def _chain(params, q, i0, i1):
    # frame i1 expressed in frame i0 from the parameter table rows [i0, i1)
    T = np.eye(4)
    for i in range(i0, i1):
        al, a, d, off = params.mdh[i]
        T = T @ mdh_transform(al, a, d, off + q[i]).matrix
    return T


def _rot03(q1, q2, q3):
    # hand-expanded product of the first three link rotations
    c1, s1 = math.cos(q1), math.sin(q1)
    c2, s2 = math.cos(q2), math.sin(q2)
    c3, s3 = math.cos(q3), math.sin(q3)
    return np.array(
        [
            [-c1 * s2 * s3 - c3 * s1, s1 * s3 - c1 * c3 * s2, -c1 * c2],
            [c1 * c3 - s1 * s2 * s3, -c3 * s1 * s2 - c1 * s3, -c2 * s1],
            [-c2 * s3, -c2 * c3, s2],
        ]
    )


def _reduced_truth(params, q0):
    pose = forward_kinematics(params, q0)
    rp = reduce_pose(params, pose)
    psi = arm_angle(params, q0)
    return pose, rp, psi


def test_quartic_setup_psi_zero_collapse(params):
    d_sc, qv = 0.55, -1.2
    s = build_quartic(d_sc, qv, 0.0, params)
    aw, de = params.a_wr, params.d_ew
    k = 0.5 * (aw**2 + params.d_se**2 - d_sc**2 - de**2)
    cq2 = math.cos(qv) ** 2
    assert abs(s.k - k) < 1e-15
    assert abs(s.y - 2 * d_sc * math.cos(qv)) < 1e-15
    assert abs(s.tm1 - (k * k - (aw**2 - de**2) * d_sc**2 * cq2)) < 1e-12
    assert abs(s.tm2 - (-2 * aw * (k - d_sc**2 * cq2))) < 1e-12
    assert abs(s.tm3 - (aw**2 - d_sc**2)) < 1e-12


def test_quartic_polynomial_identity(params):
    # the quartic is the squared combined constraint with r6^2 eliminated:
    # (tm1 + t tm2 + t^2 tm3)^2 - (de^2 - (t-aw)^2) y^2 (k - aw t)^2
    rng = np.random.default_rng(51)
    aw, de = params.a_wr, params.d_ew
    for _ in range(200):
        d_sc = rng.uniform(0.1, 0.85)
        qv = rng.uniform(-math.pi + 0.05, -0.05)
        psi = rng.uniform(-math.pi, math.pi)
        s = build_quartic(d_sc, qv, psi, params)
        for t in rng.uniform(-1.5, 1.5, size=5):
            lhs = (s.tm1 + t * s.tm2 + t * t * s.tm3) ** 2 - (
                de**2 - (t - aw) ** 2
            ) * s.y**2 * (s.k - aw * t) ** 2
            rhs = np.polyval(s.coeffs, t)
            scale = max(np.max(np.abs(s.coeffs)), abs(lhs), 1e-30)
            assert abs(lhs - rhs) < 1e-9 * scale


def test_quartic_setup_offset_free_limit():
    # with a_wr = 0 the odd coefficients lose their y^2 corrections
    p0 = RobotParams(d_bs=0.36, d_se=0.42, d_ew=0.4, a_wr=0.0)
    s = build_quartic(0.5, -1.0, 0.7, p0)
    assert abs(s.g3 - 2 * s.tm2 * s.tm3) < 1e-14
    assert abs(s.g1 - 2 * s.tm1 * s.tm2) < 1e-14
    assert s.tm2 == 0.0  # every tm2 term carries a factor a_wr


def test_build_quartic_rejects_degenerate_inputs(params):
    with pytest.raises(NearAxisParallel):
        build_quartic(0.5, 0.0, 0.3, params)
    with pytest.raises(NearAxisParallel):
        build_quartic(0.5, -math.pi, 0.3, params)
    with pytest.raises(InvalidInput):
        build_quartic(-0.5, -1.0, 0.3, params)


def test_tolerance_set_validation():
    with pytest.raises(InvalidInput):
        ToleranceSet(pose_tol=-1e-8)
    with pytest.raises(InvalidInput):
        ToleranceSet(psi_tol=0.0)


def test_ik_request_wraps_psi(params):
    pose = forward_kinematics(params, np.zeros(7))
    req = IkRequest(pose=pose, psi=7.0, params=params)
    assert abs(req.psi - (7.0 - 2 * math.pi)) < 1e-15
    with pytest.raises(InvalidInput):
        IkRequest(pose=pose, psi=math.nan, params=params)
    with pytest.raises(InvalidInput):
        IkRequest(pose=np.eye(4), psi=0.0, params=params)


def test_solve_q6_q8_recovers_truth(params):
    rng = np.random.default_rng(52)
    hits = 0
    for _ in range(50):
        q0 = sample_far_joints(rng, params)
        pose, rp, psi = _reduced_truth(params, q0)
        setup = build_quartic(rp.d_sc, rp.q, psi, params)
        pairs = solve_q6_q8(setup, rp.d_sc, rp.q, psi, params)
        q6_t = q0[5]
        q8_t = _wrap(q0[6] - rp.al)
        best = min(
            max(abs(_wrap(a - q6_t)), abs(_wrap(b - q8_t))) for a, b in pairs
        )
        if best < 1e-8:
            hits += 1
    assert hits >= 49  # allow one boundary-of-tolerance miss


def test_solve_q6_q8_pairs_satisfy_both_constraints(params):
    rng = np.random.default_rng(53)
    aw, de = params.a_wr, params.d_ew
    for _ in range(30):
        q0 = sample_far_joints(rng, params)
        _, rp, psi = _reduced_truth(params, q0)
        setup = build_quartic(rp.d_sc, rp.q, psi, params)
        sq, cq = math.sin(rp.q), math.cos(rp.q)
        cp, sp = math.cos(psi), math.sin(psi)
        for q6, q8 in solve_q6_q8(setup, rp.d_sc, rp.q, psi, params):
            t6 = aw + de * math.cos(q6)
            r6 = de * math.sin(q6)
            pose_eq = aw * t6 - rp.d_sc * (r6 * cq - t6 * math.cos(q8) * sq) - setup.k
            arm_eq = t6 * math.sin(q8) * cp + sp * (r6 * sq + t6 * cq * math.cos(q8))
            assert abs(pose_eq) < 1e-9
            assert abs(arm_eq) < 1e-9
            res, scale = unsquared_residual(setup, t6, r6, aw)
            assert abs(res) < 1e-7 * scale


def test_solve_q6_q8_no_root_in_domain(params):
    # a quartic whose only real roots put cos(q6) out of range
    aw, de = params.a_wr, params.d_ew
    bad = aw + 1.2 * de
    c = np.convolve(np.convolve([1.0, -bad], [1.0, -bad]), [1.0, 0.0, 1.0])
    s = QuarticSetup(0.1, 0.2, 1.0, 1.0, 1.0, *c)
    with pytest.raises(NoValidRoots):
        solve_q6_q8(s, 0.5, -1.0, 0.3, params)


def test_solve_q7_wraps():
    assert solve_q7(0.0, 0.0) == 0.0
    assert abs(solve_q7(math.pi, math.pi)) < 1e-15
    assert abs(solve_q7(3.0, 3.0) - (6.0 - 2 * math.pi)) < 1e-15


def test_shoulder_in_frame6_closed_form(params):
    S6 = shoulder_in_frame6(0.5, -math.pi / 2, 0.0, params)
    assert_allclose(S6, [params.a_wr - 0.5, 0.0, 0.0], atol=1e-15)


def test_shoulder_in_frame6_matches_frame_oracle(params):
    # S6 must equal the base shoulder point mapped through the inverse of
    # the frame-6 pose, for the true joints of the generating pose
    rng = np.random.default_rng(54)
    for _ in range(40):
        q0 = sample_far_joints(rng, params)
        _, rp, _ = _reduced_truth(params, q0)
        q8 = _wrap(q0[6] - rp.al)
        S6 = shoulder_in_frame6(rp.d_sc, rp.q, q8, params)
        T06 = _chain(params, q0, 0, 6)
        S = np.array([0.0, 0.0, params.d_bs])
        oracle = T06[:3, :3].T @ (S - T06[:3, 3])
        assert_allclose(S6, oracle, atol=1e-12)


def test_solve_q4_triangle(params):
    dse, dew = params.d_se, params.d_ew
    right = math.sqrt(dse**2 + dew**2)
    a, b = solve_q4(np.array([right, 0.0, 0.0]), params)
    assert abs(a - math.pi / 2) < 1e-12 and abs(b + math.pi / 2) < 1e-12
    a, b = solve_q4(np.array([0.0, dse + dew, 0.0]), params)
    assert abs(a) < 1e-6 and abs(b) < 1e-6  # fully extended: double zero
    with pytest.raises(Unreachable):
        solve_q4(np.array([dse + dew + 0.01, 0.0, 0.0]), params)
    with pytest.raises(Unreachable):
        solve_q4(np.array([0.0, 0.0, abs(dse - dew) * 0.5]), params)
    rng = np.random.default_rng(55)
    for _ in range(100):
        q4_t = rng.uniform(0.05, math.pi - 0.05)
        n = math.sqrt(dse**2 + dew**2 + 2 * dse * dew * math.cos(q4_t))
        v = rng.normal(size=3)
        v *= n / np.linalg.norm(v)
        a, b = solve_q4(v, params)
        assert abs(a - q4_t) < 1e-10 and abs(b + q4_t) < 1e-10


def test_solve_q5_from_true_joints(params):
    rng = np.random.default_rng(56)
    for _ in range(60):
        q0 = sample_far_joints(rng, params)
        _, rp, _ = _reduced_truth(params, q0)
        q8 = _wrap(q0[6] - rp.al)
        S6 = shoulder_in_frame6(rp.d_sc, rp.q, q8, params)
        q4_t, q5_t, q6_t = q0[3], q0[4], q0[5]
        q5 = solve_q5(S6, q6_t, q4_sign=math.copysign(1.0, q4_t))
        assert abs(_wrap(q5 - q5_t)) < 1e-9
        # column relations behind the atan2 arguments
        s6, c6 = math.sin(q6_t), math.cos(q6_t)
        a1 = -S6[0] * s6 - S6[1] * c6
        assert abs(params.d_se * math.sin(q4_t) * math.sin(q5_t) - a1) < 1e-8
        assert abs(params.d_se * math.sin(q4_t) * math.cos(q5_t) - S6[2]) < 1e-8
        assert abs(shoulder_consistency(S6, q6_t, q4_t, params)) < 1e-8


def test_solve_q5_degenerate():
    params = default_params()
    L = params.d_se + params.d_ew
    with pytest.raises(ElbowDegenerate):
        solve_q5(np.array([-L, 0.0, 0.0]), 0.0)


def test_shoulder_consistency_flips_with_wrong_elbow(params):
    rng = np.random.default_rng(57)
    seen = 0
    for _ in range(30):
        q0 = sample_far_joints(rng, params)
        if abs(abs(q0[3]) - math.pi / 2) < 0.2:
            continue  # both elbow branches nearly consistent there
        _, rp, _ = _reduced_truth(params, q0)
        q8 = _wrap(q0[6] - rp.al)
        S6 = shoulder_in_frame6(rp.d_sc, rp.q, q8, params)
        good = abs(shoulder_consistency(S6, q0[5], q0[3], params))
        bad = abs(shoulder_consistency(S6, q0[5], math.pi - q0[3], params))
        assert good < 1e-8
        seen += 1
        assert bad > 1e-3
    assert seen > 10


def test_solve_q123_recovers_and_recomposes(params):
    rng = np.random.default_rng(58)
    for _ in range(60):
        q0 = sample_far_joints(rng, params)
        R07 = forward_kinematics(params, q0).rotation
        tri_a, tri_b = solve_q123(R07, q0[3], q0[4], q0[5], q0[6])
        err = min(
            max(abs(_wrap(t[i] - q0[i])) for i in range(3)) for t in (tri_a, tri_b)
        )
        assert err < 1e-9
        # both triples must recompose the same upper-arm rotation
        R03_target = R07 @ _chain(params, q0, 3, 7)[:3, :3].T
        for t in (tri_a, tri_b):
            assert_allclose(_rot03(*t), R03_target, atol=1e-9)
        # the hand-expanded matrix agrees with the table chain
        assert_allclose(
            _rot03(q0[0], q0[1], q0[2]), _chain(params, q0, 0, 3)[:3, :3], atol=1e-12
        )


def test_solve_q123_wrist_like_degenerate(params):
    q0 = np.array([0.3, math.pi / 2, -0.7, 0.9, 0.4, -1.1, 0.5])
    R07 = forward_kinematics(params, q0).rotation
    with pytest.raises(WristLikeDegenerate):
        solve_q123(R07, q0[3], q0[4], q0[5], q0[6])


def test_solve_special_branches_verified_by_oracle(params):
    rng = np.random.default_rng(59)
    total = 0
    for _ in range(20):
        d_sc = rng.uniform(0.25, 0.8)
        qv = rng.uniform(-2.7, -0.4)
        al = rng.uniform(-math.pi, math.pi)
        psi = rng.uniform(-math.pi, math.pi)
        rp = ReducedPose(d_sc, qv, al, np.eye(3))
        res = solve_special(rp, psi, params)
        assert len(res.branches) + len(res.rejected) == 16
        want_R = (
            np.array(
                [
                    [math.cos(qv), 0, math.sin(qv)],
                    [0, 1, 0],
                    [-math.sin(qv), 0, math.cos(qv)],
                ]
            )
            @ np.array(
                [
                    [math.cos(al), -math.sin(al), 0],
                    [math.sin(al), math.cos(al), 0],
                    [0, 0, 1],
                ]
            )
        )
        want_p = np.array([0.0, 0.0, params.d_bs + d_sc])
        for br in res.branches:
            total += 1
            got = fk_oracle(params, br.joints.q)
            assert_allclose(got.rotation, want_R, atol=1e-7)
            assert_allclose(got.translation, want_p, atol=1e-7)
            assert abs(_wrap(arm_angle(params, br.joints.q) - psi)) < 1e-8
    assert total > 40


def test_solve_special_unreachable(params):
    reach = params.d_se + params.d_ew + params.a_wr
    res = solve_special(ReducedPose(reach + 0.05, -1.3, 0.2, np.eye(3)), 0.4, params)
    assert not res.branches
    assert len(res.rejected) == 16
    for rej in res.rejected:
        assert rej.category in ("complex_root", "domain")


def test_solve_recovers_generating_joints(params):
    rng = np.random.default_rng(60)
    for _ in range(40):
        q0 = sample_far_joints(rng, params)
        pose, _, psi = _reduced_truth(params, q0)
        res = solve(IkRequest(pose=pose, psi=psi, params=params))
        assert res.branches
        best = min(
            np.max(np.abs((br.joints.q - q0 + math.pi) % (2 * math.pi) - math.pi))
            for br in res.branches
        )
        assert best < 1e-6
        for br in res.branches:
            got = fk_oracle(params, br.joints.q)
            err_p = np.linalg.norm(got.translation - pose.translation)
            assert err_p < 1e-8
            assert br.pose_error < 1e-8
            assert br.arm_eq_residual < 1e-7
            assert br.pose_eq_residual < 1e-7


def test_branch_accounting_and_labels(params):
    rng = np.random.default_rng(61)
    for _ in range(30):
        q0 = sample_far_joints(rng, params)
        pose, _, psi = _reduced_truth(params, q0)
        res = solve(IkRequest(pose=pose, psi=psi, params=params))
        assert len(res.branches) + len(res.rejected) == 16
        leaves = sorted(rej.leaf for rej in res.rejected)
        assert len(set(leaves)) == len(leaves)
        for rej in res.rejected:
            assert rej.label == leaf_label(rej.leaf)
        for br in res.branches:
            assert 0 <= br.root_index <= 3
            assert br.q4_sign in (-1, 1) and br.q2_sign in (-1, 1)
            assert br.label.startswith(f"root{br.root_index}/")
        # accepted joint vectors are pairwise distinct
        J = res.joints_array()
        for i in range(len(J)):
            for j in range(i + 1, len(J)):
                assert np.max(np.abs(J[i] - J[j])) > 1e-7


def test_branch_joints_are_private_float64_vectors(params):
    rng = np.random.default_rng(62)
    q0 = sample_far_joints(rng, params)
    pose, _, psi = _reduced_truth(params, q0)
    res = solve(IkRequest(pose=pose, psi=psi, params=params))
    assert res.branches
    arrays = [br.joints.q for br in res.branches]
    for q in arrays:
        assert type(q) is np.ndarray and q.dtype == np.float64 and q.shape == (7,)
        assert np.isfinite(q).all()
    # every branch owns its vector
    arrays[0][0] += 1.0
    assert all(not np.shares_memory(arrays[0], q) for q in arrays[1:])


def test_branch_diagnostics_match_their_definitions(params):
    # the residuals and the pose error of a good branch are all about 1e-16,
    # so no tolerance tells them apart; recomputing each from its definition
    # with the kernel's operation order does
    from armik._kernels import active as K

    rng = np.random.default_rng(66)
    seen = 0
    for _ in range(20):
        q0 = sample_far_joints(rng, params)
        pose, rp, psi = _reduced_truth(params, q0)
        res = solve(IkRequest(pose=pose, psi=psi, params=params))
        k = build_quartic(rp.d_sc, rp.q, psi, params).k
        sq, cq = math.sin(rp.q), math.cos(rp.q)
        a_wr, d_sc = params.a_wr, rp.d_sc
        for br in res.branches:
            t6, r6 = br.t6, br.r6
            cq8, sq8 = math.cos(br.q8), math.sin(br.q8)
            pose_res = a_wr * t6 - d_sc * (r6 * cq - t6 * cq8 * sq) - k
            arm_res = K.wrap_angle(
                math.atan2(t6 * sq8, -r6 * sq - t6 * cq * cq8) + math.pi - psi)
            fk = forward_kinematics(params, br.joints)
            dx, dy, dz = (fk.translation - pose.translation).tolist()
            perr = (K.rot_geodesic(tuple(fk.rotation.ravel().tolist()),
                                   tuple(pose.rotation.ravel().tolist()))
                    + math.sqrt(dx * dx + dy * dy + dz * dz))
            for got, want in ((br.pose_eq_residual, pose_res),
                              (br.arm_eq_residual, arm_res),
                              (br.pose_error, perr)):
                assert abs(got - want) <= 1e-9 * abs(want), (got, want)
            # (t6 - a_wr, r6) = d_ew (cos q6, sin q6)
            assert abs((t6 - a_wr) ** 2 + r6 * r6 - params.d_ew ** 2) < 1e-12
            seen += 1
    assert seen > 20


@pytest.mark.parametrize("scale", [1e154, 1e200, 1e300])
def test_far_pose_gives_coded_rejections(params, scale):
    # goals far out of reach are not axis_parallel: all 16 leaves come back
    # rejected with a code, and nothing overflows along the way
    rng = np.random.default_rng(64)
    for _ in range(5):
        R = forward_kinematics(params, rng.uniform(-math.pi, math.pi, 7)).rotation
        p = rng.normal(size=3) * scale
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res = solve(IkRequest(pose=Transform(R, p), psi=0.3, params=params))
        assert not res.branches
        assert sorted(r.leaf for r in res.rejected) == list(range(16))
        assert all(r.reason in REASON_NAMES.values() for r in res.rejected)


def test_ops_reproduce_kernel_branches(params):
    # the composable single-step functions must be able to rebuild every
    # accepted branch the fused kernel returns
    rng = np.random.default_rng(62)
    for _ in range(15):
        q0 = sample_far_joints(rng, params)
        pose, rp, psi = _reduced_truth(params, q0)
        res = solve(IkRequest(pose=pose, psi=psi, params=params))
        setup = build_quartic(rp.d_sc, rp.q, psi, params)
        cands = []
        for q6, q8 in solve_q6_q8(setup, rp.d_sc, rp.q, psi, params):
            q7 = solve_q7(q8, rp.al)
            S6 = shoulder_in_frame6(rp.d_sc, rp.q, q8, params)
            try:
                q4p, q4m = solve_q4(S6, params)
            except Unreachable:
                continue
            for q4 in (q4p, q4m):
                if abs(shoulder_consistency(S6, q6, q4, params)) > 1e-6:
                    continue
                try:
                    q5 = solve_q5(S6, q6, q4_sign=math.copysign(1.0, q4))
                    tris = solve_q123(pose.rotation, q4, q5, q6, q7)
                except (ElbowDegenerate, WristLikeDegenerate):
                    continue
                for q1, q2, q3 in tris:
                    cands.append([q1, q2, q3, q4, q5, q6, q7])
        cands = np.array(cands)
        for br in res.branches:
            d = np.abs(cands - br.joints.q)
            d = np.minimum(d, 2 * math.pi - d)
            assert np.min(np.max(d, axis=1)) < 1e-7


def test_backends_agree(params):
    from armik import _kernels

    if _kernels.BACKEND != "numba":
        pytest.skip("numba backend not active")
    from armik.ik_core import _run_kernel

    rng = np.random.default_rng(63)
    for _ in range(10):
        q0 = sample_far_joints(rng, params)
        pose, rp, psi = _reduced_truth(params, q0)
        tol = ToleranceSet()
        outs = [
            _run_kernel(
                K,
                params,
                pose.rotation,
                pose.translation,
                rp.d_sc,
                rp.q,
                rp.al,
                psi,
                tol,
            )
            for K in (_kernels.jit, _kernels.pure)
        ]
        (acc0, rej0), (acc1, rej1) = outs
        assert [tuple(r) for r in rej0] == [tuple(r) for r in rej1]
        assert len(acc0) == len(acc1)
        for b0, b1 in zip(acc0, acc1):
            # slot and the two signs
            assert (b0[1], b0[5], b0[6]) == (b1[1], b1[5], b1[6])
            assert_allclose(b0[0], b1[0], atol=1e-12)
            assert_allclose(b0[9], b1[9], atol=1e-12)


def test_pure_backend_env_flag(params):
    code = (
        "import os, numpy as np\n"
        "import armik\n"
        "assert armik.BACKEND == 'pure', armik.BACKEND\n"
        "p = armik.default_params()\n"
        "q0 = np.array([0.4, -1.2, 0.5, 1.1, -0.3, 0.9, 0.2])\n"
        "pose = armik.forward_kinematics(p, q0)\n"
        "psi = armik.arm_angle(p, q0)\n"
        "res = armik.solve(armik.IkRequest(pose=pose, psi=psi, params=p))\n"
        "assert res.branches\n"
        "best = min(np.max(np.abs(b.joints.q - q0)) for b in res.branches)\n"
        "assert best < 1e-6, best\n"
        "print('ok')\n"
    )
    env = dict(os.environ, ARMIK_DISABLE_NUMBA="1")
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "ok"
