import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from armik import (
    AxisParallel,
    IkRequest,
    InvalidInput,
    Transform,
    ZeroSC,
    arm_angle,
    classify,
    default_params,
    forward_kinematics,
    frame_points,
    reduce_pose,
    solve,
)
from armik import _kernels_impl as K
from armik._kernels_impl import HIT_TOL, TOL_LEN
from armik.singularity import family_distance, numeric_jacobian
from armik.verify import numeric_ik
from conftest import family_sample, sample_far_joints

# z7 aligned with the shoulder-center line: q5 at -pi/2 turns the wrist
# offset into the alignment plane, q6 tuned to close the angle
PARALLEL_Q = np.array(
    [0.3, -1.1, 0.4, 1.2, -math.pi / 2, -2.3215864258069776, 0.0]
)


def _q6_star(params):
    return math.acos(-params.a_wr / params.d_ew)


def _hit_names(hits):
    return [name for name, _ in hits]


def _screw_jacobian(params, q):
    # independent geometric Jacobian: joint i rotates about the z-axis of
    # the frame reached after the RotX/TransX half of its table row
    T = np.eye(4)
    axes, origins = [], []
    for i in range(7):
        al, a, d, off = params.mdh[i]
        ca, sa = math.cos(al), math.sin(al)
        Tpre = T @ np.array(
            [[1, 0, 0, a], [0, ca, -sa, 0], [0, sa, ca, 0], [0, 0, 0, 1.0]]
        )
        axes.append(Tpre[:3, 2].copy())
        origins.append(Tpre[:3, 3].copy())
        th = off + q[i]
        ct, st = math.cos(th), math.sin(th)
        T = Tpre @ np.array(
            [[ct, -st, 0, 0], [st, ct, 0, 0], [0, 0, 1, d], [0, 0, 0, 1.0]]
        )
    p7 = T[:3, 3]
    J = np.zeros((6, 7))
    for i in range(7):
        J[:3, i] = np.cross(axes[i], p7 - origins[i])
        J[3:, i] = axes[i]
    return J


def _family_samples(rng, params, family, n):
    return [family_sample(rng, params, family) for _ in range(n)]


FAMILIES = (
    "elbow_straight",
    "shoulder_flip_elbow_plane",
    "shoulder_flip_wrist_offset",
    "wrist_plane_wrist_offset",
)


def test_elbow_straight_hit(params):
    q = np.array([0.3, -1.0, 0.5, 0.0, 0.7, -0.9, 1.1])
    rep = classify(q, params)
    assert ("elbow_straight", 0.0) in rep.kinematic_hits
    assert rep.is_singular
    assert rep.distances["elbow_straight"] == 0.0


def test_compound_shoulder_wrist_hit(params):
    q6s = _q6_star(params)
    q = np.array([0.2, math.pi / 2, 0.8, 1.1, -0.4, q6s, 0.3])
    rep = classify(q, params)
    kin = _hit_names(rep.kinematic_hits)
    alg = _hit_names(rep.algorithmic_hits)
    assert "shoulder_flip_wrist_offset" in kin
    assert "q2_half_pi" in alg and "q6_offset_angle" in alg
    # the component distances are reported individually
    assert rep.distances["q2_half_pi"] < 1e-12
    assert rep.distances["q6_offset_angle"] < 1e-12


def test_generic_configuration_clean(params):
    rng = np.random.default_rng(71)
    for _ in range(50):
        q = sample_far_joints(rng, params)
        rep = classify(q, params)
        assert not rep.kinematic_hits
        assert not rep.algorithmic_hits
        assert not rep.is_singular
        assert rep.min_singular_value is None


def test_distances_cover_all_families(params):
    rep = classify(np.zeros(7), params)
    for name in FAMILIES + (
        "q2_half_pi",
        "q6_offset_angle",
        "branch_fold",
        "reference_parallel",
    ):
        assert name in rep.distances


def test_numeric_jacobian_matches_screw_axes(params):
    rng = np.random.default_rng(72)
    for _ in range(20):
        q = rng.uniform(-2.5, 2.5, 7)
        J = numeric_jacobian(q, params)
        assert J.shape == (6, 7)
        assert_allclose(J, _screw_jacobian(params, q), atol=1e-6)


def test_family_samples_lose_rank(params):
    rng = np.random.default_rng(73)
    worst = 0.0
    for family in FAMILIES:
        for q in _family_samples(rng, params, family, 25):
            sv = np.linalg.svd(numeric_jacobian(q, params), compute_uv=False)[-1]
            worst = max(worst, sv)
            assert sv < 1e-5, (family, sv)
    assert worst < 1e-5


def test_generic_samples_keep_rank(params):
    rng = np.random.default_rng(74)
    floor = math.inf
    for _ in range(150):
        q = sample_far_joints(rng, params, margin=0.1)
        sv = np.linalg.svd(numeric_jacobian(q, params), compute_uv=False)[-1]
        floor = min(floor, sv)
    assert floor > 1e-3


def test_classify_with_jacobian(params):
    q = np.array([0.3, -1.0, 0.5, 0.0, 0.7, -0.9, 1.1])
    rep = classify(q, params, with_jacobian=True)
    assert rep.min_singular_value < 1e-6
    rep2 = classify(np.array([0.4, -1.2, 0.5, 1.1, -0.3, 0.9, 0.2]), params,
                    with_jacobian=True)
    assert rep2.min_singular_value > 1e-3


def test_family_distance(params):
    q = np.array([0.3, -1.0, 0.5, 0.0, 0.7, -0.9, 1.1])
    assert family_distance(q, params) == 0.0
    rng = np.random.default_rng(75)
    q = sample_far_joints(rng, params, margin=0.1)
    assert family_distance(q, params) > 0.05


def test_reference_parallel_correspondence(params):
    # the same configuration both raises in pose reduction and is flagged
    rep = classify(PARALLEL_Q, params)
    assert "reference_parallel" in _hit_names(rep.algorithmic_hits)
    pose = forward_kinematics(params, PARALLEL_Q)
    with pytest.raises(AxisParallel):
        reduce_pose(params, pose)


def test_zero_sc_correspondence(params):
    # C placed 5e-10 m from the shoulder, within the solver's TOL_LEN: the
    # pose reduction raises ZeroSC, so classify must count the reference
    # direction as parallel (a hit at distance 0)
    rng = np.random.default_rng(0)
    for _ in range(4):
        u = rng.standard_normal(3)
        rot, _ = np.linalg.qr(rng.standard_normal((3, 3)))
        rot[:, 0] *= np.sign(np.linalg.det(rot))
        pose = Transform(rot, [0.0, 0.0, params.d_bs] + 5e-10 * u / np.linalg.norm(u))
        q = numeric_ik(params, pose, rng.uniform(-2.0, 2.0, 7), tol=1e-13).joints
        pts = frame_points(params, q)
        assert 1e-12 < np.linalg.norm(pts.axis7 - pts.shoulder) < TOL_LEN
        with pytest.raises(ZeroSC):
            reduce_pose(params, forward_kinematics(params, q))
        with pytest.raises(ZeroSC):
            arm_angle(params, q)
        rep = classify(q, params)
        assert ("reference_parallel", 0.0) in rep.algorithmic_hits


def test_q6_offset_correspondence(params):
    # at the wrist-offset angle the q8 recovery divides by t6 = 0: the
    # solver must reject those leaves with the dedicated reason while the
    # classifier flags the configuration
    q6s = _q6_star(params)
    q = np.array([0.4, -1.0, 0.3, 1.1, -0.6, q6s, 0.7])
    rep = classify(q, params)
    assert "q6_offset_angle" in _hit_names(rep.algorithmic_hits)
    pose = forward_kinematics(params, q)
    psi = arm_angle(params, q)
    res = solve(IkRequest(pose=pose, psi=psi, params=params))
    reasons = set(r.reason for r in res.rejected)
    assert "q8_degenerate" in reasons


def test_branch_fold_expression_zero_on_fold(params):
    # A3 = (d_ew + a_wr cos q6) sin q4 - a_wr cos q4 sin q5 sin q6 measures
    # the fold in meters; verify the reported distance matches it
    rng = np.random.default_rng(76)
    for _ in range(20):
        q = rng.uniform(-2.5, 2.5, 7)
        rep = classify(q, params)
        a3 = abs(
            (params.d_ew + params.a_wr * math.cos(q[5])) * math.sin(q[3])
            - params.a_wr * math.cos(q[3]) * math.sin(q[4]) * math.sin(q[5])
        )
        assert abs(rep.distances["branch_fold"] - a3) < 1e-12


def _reference_parallel_reference(params, q):
    # classify's SC-vs-tool-axis distance as computed from two chain products
    pts = frame_points(params, q)
    pose = forward_kinematics(params, q)
    sc = pts.axis7 - pts.shoulder
    nsc = np.linalg.norm(sc)
    if nsc < TOL_LEN:
        return 0.0
    return math.acos(min(1.0, abs(float(sc @ pose.rotation[:, 2])) / nsc))


def test_classify_runs_one_chain_product(params, monkeypatch):
    rng = np.random.default_rng(75)
    configs = [rng.uniform(-4.0, 4.0, 7) for _ in range(1000)]
    configs += [PARALLEL_Q + 10.0 ** -rng.uniform(3, 12) * rng.standard_normal(7)
                for _ in range(100)]
    configs += [PARALLEL_Q, np.zeros(7)]
    calls = []
    fk_chain = K.fk_chain

    def counting(links, q):
        calls.append(q)
        return fk_chain(links, q)

    monkeypatch.setattr(K, "fk_chain", counting)
    hits = 0
    for q in configs:
        calls.clear()
        rep = classify(q, params)
        assert len(calls) == 1
        want = _reference_parallel_reference(params, q)
        assert repr(rep.distances["reference_parallel"]) == repr(want), q
        hit = "reference_parallel" in _hit_names(rep.algorithmic_hits)
        assert hit == (want < HIT_TOL)
        hits += hit
    assert hits > 0


@pytest.mark.parametrize("name", ["hit_tol", "hit_tol_m"])
@pytest.mark.parametrize("value", [math.nan, 0.0, 0, -1e-3, math.inf, "0.1", None, True],
                         ids=repr)
def test_classify_rejects_bad_hit_tolerances(params, name, value):
    # as ToleranceSet does: a positive finite int or float, not a bool
    with pytest.raises(InvalidInput, match=f"tolerance {name} must be a positive finite"):
        classify(np.array(PARALLEL_Q), params, **{name: value})


def test_classify_takes_any_positive_finite_hit_tolerance(params):
    q = np.array([0.3, -1.0, 0.5, 0.0, 0.7, -0.9, 1.1])
    # every distance is below 4 (rad) and 1 (m), and above 1e-300 but one
    rep = classify(q, params, hit_tol=4, hit_tol_m=1)
    assert len(rep.kinematic_hits) == 4 and len(rep.algorithmic_hits) == 4
    assert _hit_names(classify(q, params, hit_tol=1e-300, hit_tol_m=np.float64(1e-300))
                      .kinematic_hits) == ["elbow_straight"]
