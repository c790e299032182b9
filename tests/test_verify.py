import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from armik import (
    AllCoefficientsZero,
    IkRequest,
    InvalidInput,
    NoConvergence,
    arm_angle,
    check_all,
    fk_oracle,
    fk_oracle_batch,
    forward_kinematics,
    numeric_ik,
    quartic_oracle,
    solve,
)
from armik.verify import _quat_to_mat
from conftest import quartic_roots, sample_far_joints


def test_fk_oracle_zero_config(params):
    got = fk_oracle(params, np.zeros(7))
    want = forward_kinematics(params, np.zeros(7))
    assert_allclose(got.rotation, want.rotation, atol=1e-15)
    assert_allclose(got.translation, want.translation, atol=1e-15)


def test_fk_oracle_large_batch(params):
    # quaternion chain against the matrix chain over a dense random sweep
    rng = np.random.default_rng(81)
    Q = rng.uniform(-math.pi, math.pi, size=(100000, 7))
    R, p = fk_oracle_batch(params, Q)
    idx = rng.integers(0, len(Q), size=400)
    worst = 0.0
    for i in idx:
        ref = forward_kinematics(params, Q[i])
        worst = max(worst, np.max(np.abs(R[i] - ref.rotation)))
        worst = max(worst, np.max(np.abs(p[i] - ref.translation)))
    assert worst < 1e-12
    # full-batch spot columns: orthonormality of every rotation
    err = np.abs(np.einsum("nij,nik->njk", R, R) - np.eye(3))
    assert np.max(err) < 1e-12


def test_fk_oracle_boundary_angles(params):
    for val in (math.pi, -math.pi):
        q = np.full(7, val)
        got = fk_oracle(params, q)
        want = forward_kinematics(params, q)
        assert_allclose(got.rotation, want.rotation, atol=1e-13)
        assert_allclose(got.translation, want.translation, atol=1e-13)


def test_fk_oracle_batch_shape_check(params):
    with pytest.raises(InvalidInput):
        fk_oracle_batch(params, np.zeros((5, 6)))


def test_quat_to_mat_one_and_batched_agree():
    # armik ik converts one quaternion at a time, the oracles a batch
    rng = np.random.default_rng(23)
    Q = rng.normal(size=(200, 4))
    Q /= np.linalg.norm(Q, axis=1, keepdims=True)
    batch = _quat_to_mat(Q)
    assert batch.shape == (200, 3, 3) and batch.flags.c_contiguous and batch.flags.owndata
    for q, R in zip(Q, batch):
        one = _quat_to_mat(q)
        assert one.shape == (3, 3) and one.flags.c_contiguous and one.flags.owndata
        assert one.tobytes() == R.tobytes()
        assert_allclose(one @ one.T, np.eye(3), atol=1e-15)
        w, x, y, z = q
        assert one[2, 1] == 2 * (y * z + w * x)


def test_quartic_oracle_examples():
    roots, mult = quartic_oracle([1.0, -10.0, 35.0, -50.0, 24.0])
    assert_allclose(sorted(roots), [1.0, 2.0, 3.0, 4.0], atol=1e-8)
    assert all(m == 1 for m in mult)
    roots, _ = quartic_oracle([1.0, 0.0, 0.0, 0.0, 1.0])
    assert len(roots) == 0
    # double root multiplicity
    roots, mult = quartic_oracle(np.convolve([1.0, -2.0, 1.0], [1.0, 1.0, -6.0]))
    order = np.argsort(roots)
    assert_allclose(np.asarray(roots)[order], [-3.0, 1.0, 2.0], atol=1e-6)
    assert list(np.asarray(mult)[order]) == [1, 2, 1]
    # the analytical solver agrees on both degenerate inputs
    with pytest.raises(AllCoefficientsZero):
        quartic_oracle([0.0, 0.0, 0.0, 0.0, 0.0])
    with pytest.raises(AllCoefficientsZero):
        quartic_roots([0.0, 0.0, 0.0, 0.0, 0.0])
    roots, mult = quartic_oracle([0.0, 0.0, 0.0, 0.0, 5.0])
    assert len(roots) == 0 and len(mult) == 0
    assert len(quartic_roots([0.0, 0.0, 0.0, 0.0, 5.0])[0]) == 0


def test_numeric_ik_fixed_point(params):
    rng = np.random.default_rng(82)
    q0 = sample_far_joints(rng, params)
    pose = forward_kinematics(params, q0)
    res = numeric_ik(params, pose, q0)
    assert res.iterations <= 1
    assert res.error < 1e-12


def test_numeric_ik_basin(params):
    rng = np.random.default_rng(83)
    for _ in range(10):
        q0 = sample_far_joints(rng, params)
        pose = forward_kinematics(params, q0)
        seed = q0 + rng.uniform(-1e-3, 1e-3, 7)
        res = numeric_ik(params, pose, seed, tol=1e-9)
        assert res.error < 1e-9
        # converges onto the self-motion manifold near the seed, which can
        # drift along the redundant direction but not further than that
        assert np.max(np.abs(res.joints.q - q0)) < 1e-2


def test_numeric_ik_far_seed_contract(params):
    # a far seed either converges to some preimage or raises; both are
    # valid, silent wrong answers are not
    rng = np.random.default_rng(84)
    q0 = sample_far_joints(rng, params)
    pose = forward_kinematics(params, q0)
    try:
        res = numeric_ik(params, pose, np.zeros(7), max_iters=50)
    except NoConvergence:
        return
    chk = forward_kinematics(params, res.joints.q)
    assert np.linalg.norm(chk.translation - pose.translation) < 1e-9


def test_analytical_branches_are_numeric_fixed_points(params):
    rng = np.random.default_rng(85)
    for _ in range(5):
        q0 = sample_far_joints(rng, params)
        pose = forward_kinematics(params, q0)
        psi = arm_angle(params, q0)
        sol = solve(IkRequest(pose=pose, psi=psi, params=params))
        assert sol.branches
        for br in sol.branches:
            res = numeric_ik(params, pose, br.joints.q, tol=1e-10)
            assert res.iterations <= 3
            assert res.error < 1e-10
            assert np.max(np.abs(res.joints.q - br.joints.q)) < 1e-6


def test_check_all_passes(params):
    res = check_all(params, n=120, seed=0)
    assert res.passed
    assert res.max_error < 1e-8
    for key in (
        "fk_max_dev",
        "quartic_max_dev",
        "roundtrip_rate",
        "roundtrip_max_pose_err",
    ):
        assert key in res.detail
    assert res.detail["roundtrip_rate"] >= 0.99
