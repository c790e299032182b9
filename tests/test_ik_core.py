import dataclasses
import math
import random
import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose

from armik import (
    ArmikError,
    AxisParallel,
    DegenerateArm,
    IkRequest,
    InvalidInput,
    InvalidParams,
    JointConfig,
    REASON_CATEGORY,
    REASON_NAMES,
    RejectedBranch,
    RobotParams,
    SolutionSet,
    ToleranceSet,
    Transform,
    ZeroSC,
    arm_angle,
    forward_kinematics,
    reduce_pose,
    solve,
)
from armik.ik_core import leaf_label
from armik.verify import fk_oracle
from armik.ik_core import DEFAULT_TOLERANCES
from armik import _kernels_impl as K
from conftest import family_sample, merged_root, sample_far_joints, special_pose


def _wrap(a):
    return math.atan2(math.sin(a), math.cos(a))


def _reduced_truth(params, q0):
    pose = forward_kinematics(params, q0)
    rp = reduce_pose(params, pose)
    psi = arm_angle(params, q0)
    return pose, rp, psi


def _quartic_setup(d_sc, qv, psi, params):
    # (k, y, tm1, tm2, tm3, g4, g3, g2, g1, g0) as the kernel builds them
    return K.quartic_setup_core(d_sc, qv, psi, params.d_se, params.d_ew, params.a_wr)


def test_quartic_setup_psi_zero_collapse(params):
    d_sc, qv = 0.55, -1.2
    sk, sy, tm1, tm2, tm3, *_ = _quartic_setup(d_sc, qv, 0.0, params)
    aw, de = params.a_wr, params.d_ew
    k = 0.5 * (aw**2 + params.d_se**2 - d_sc**2 - de**2)
    cq2 = math.cos(qv) ** 2
    assert abs(sk - k) < 1e-15
    assert abs(sy - 2 * d_sc * math.cos(qv)) < 1e-15
    assert abs(tm1 - (k * k - (aw**2 - de**2) * d_sc**2 * cq2)) < 1e-12
    assert abs(tm2 - (-2 * aw * (k - d_sc**2 * cq2))) < 1e-12
    assert abs(tm3 - (aw**2 - d_sc**2)) < 1e-12


def test_quartic_polynomial_identity(params):
    # the quartic is the squared combined constraint with r6^2 eliminated:
    # (tm1 + t tm2 + t^2 tm3)^2 - (de^2 - (t-aw)^2) y^2 (k - aw t)^2
    rng = np.random.default_rng(51)
    aw, de = params.a_wr, params.d_ew
    for _ in range(200):
        d_sc = rng.uniform(0.1, 0.85)
        qv = rng.uniform(-math.pi + 0.05, -0.05)
        psi = rng.uniform(-math.pi, math.pi)
        k, y, tm1, tm2, tm3, *coeffs = _quartic_setup(d_sc, qv, psi, params)
        for t in rng.uniform(-1.5, 1.5, size=5):
            lhs = (tm1 + t * tm2 + t * t * tm3) ** 2 - (
                de**2 - (t - aw) ** 2
            ) * y**2 * (k - aw * t) ** 2
            rhs = np.polyval(coeffs, t)
            scale = max(np.max(np.abs(coeffs)), abs(lhs), 1e-30)
            assert abs(lhs - rhs) < 1e-9 * scale


def test_quartic_setup_offset_free_limit():
    # with a_wr = 0 the odd coefficients lose their y^2 corrections
    p0 = RobotParams(d_bs=0.36, d_se=0.42, d_ew=0.4, a_wr=0.0)
    _, _, tm1, tm2, tm3, _, g3, _, g1, _ = _quartic_setup(0.5, -1.0, 0.7, p0)
    assert abs(g3 - 2 * tm2 * tm3) < 1e-14
    assert abs(g1 - 2 * tm1 * tm2) < 1e-14
    assert tm2 == 0.0  # every tm2 term carries a factor a_wr


def test_tolerance_set_validation():
    with pytest.raises(InvalidInput):
        ToleranceSet(pose_tol=-1e-8)
    with pytest.raises(InvalidInput):
        ToleranceSet(psi_tol=0.0)
    for bad in (True, math.inf):
        with pytest.raises(InvalidInput, match="pose_tol"):
            ToleranceSet(pose_tol=bad)
    # an int that no float holds: the kernel raised OverflowError with it
    for name in ("angle_merge_tol", "branch_residual_tol", "sin_domain_tol"):
        with pytest.raises(InvalidInput, match=name):
            ToleranceSet(**{name: 10**400})
    assert ToleranceSet(pose_tol=1).pose_tol == 1


@pytest.mark.parametrize("field", ["params", "tolerances"])
@pytest.mark.parametrize("kind", ["none", "dict"])
def test_request_rejects_foreign_params_and_tolerances(params, field, kind):
    as_dict = {"params": params.to_dict(), "tolerances": {"pose_tol": 1e-8}}
    fields = {"pose": special_pose(params, 0.5, -0.7, 0.3), "psi": 0.3, "params": params}
    fields[field] = None if kind == "none" else as_dict[field]
    with pytest.raises(InvalidInput, match=field):
        solve(IkRequest(**fields))


def test_tolerances_and_rejections_are_immutable(params):
    with pytest.raises(dataclasses.FrozenInstanceError):
        ToleranceSet().pose_tol = 1.0
    req = IkRequest(pose=special_pose(params, 0.5, -0.05, 0.3), psi=0.3, params=params)
    assert req.tolerances is DEFAULT_TOLERANCES
    rej = solve(req).rejected[0]
    with pytest.raises(dataclasses.FrozenInstanceError):
        rej.reason = "duplicate"
    assert dataclasses.replace(DEFAULT_TOLERANCES, pose_tol=1e-6).pose_tol == 1e-6


def test_rejection_table_matches_reason_vocabulary():
    # one tuple of 16 shared records per reason, in code order
    assert list(K.LEAF_REJ) == list(REASON_NAMES.values())
    for name, records in K.LEAF_REJ.items():
        assert records == tuple(RejectedBranch(leaf_label(leaf), leaf, name, REASON_CATEGORY[name])
                                for leaf in range(16))


@pytest.mark.parametrize(
    "tol, error",
    [(ToleranceSet(tol_parallel=0.5), AxisParallel), (ToleranceSet(tol_len=1.0), ZeroSC)],
    ids=["tol_parallel", "tol_len"],
)
def test_solve_reduces_the_pose_with_the_request_tolerances(params, tol, error):
    # the tool z-axis is 0.05 rad off SC and d_sc is 0.5
    pose = special_pose(params, 0.5, -0.05, 0.3)
    assert solve(IkRequest(pose=pose, psi=0.3, params=params)).branches
    with pytest.raises(error):
        solve(IkRequest(pose=pose, psi=0.3, params=params, tolerances=tol))


def test_near_axis_parallel_gives_coded_rejections(params):
    # a 1e-8 rad tilt off SC passes reduce_pose, which returns q = -0.0
    res = solve(IkRequest(pose=special_pose(params, 0.35, -1e-8, 0.3), psi=-3.0, params=params))
    assert len(res.branches) + len(res.rejected) == 16
    assert "q8_degenerate" in {rej.reason for rej in res.rejected}


def test_ik_request_wraps_psi(params):
    # the request keeps psi as given; solve wraps it
    pose = special_pose(params, 0.5, -0.7, 0.3)
    req = IkRequest(pose=pose, psi=7.0, params=params)
    assert req.psi == 7.0
    got = solve(req)
    want = solve(IkRequest(pose=pose, psi=7.0 - 2 * math.pi, params=params))
    assert got.branches and got == want
    assert got.joints_array().tobytes() == want.joints_array().tobytes()
    with pytest.raises(InvalidInput, match="psi must be finite"):
        solve(IkRequest(pose=pose, psi=math.nan, params=params))
    with pytest.raises(InvalidInput, match="pose must be a Transform"):
        solve(IkRequest(pose=np.eye(4), psi=0.0, params=params))


@pytest.mark.parametrize(
    "psi", ["abc", None, [0.3], 10**400], ids=["text", "null", "list", "huge_int"]
)
def test_ik_request_rejects_non_numeric_psi(params, psi):
    pose = forward_kinematics(params, np.zeros(7))
    req = IkRequest(pose=pose, psi=psi, params=params)
    assert req.psi is psi
    with pytest.raises(InvalidInput, match="psi must be a number"):
        solve(req)


@pytest.mark.parametrize(
    "field, value",
    [
        ("pose", np.eye(4)),
        ("params", None),
        ("tolerances", None),
        ("psi", "abc"),
        ("psi", None),
        ("psi", math.nan),
        ("psi", math.inf),
    ],
    ids=["pose_array", "params_none", "tolerances_none", "psi_text", "psi_none",
         "psi_nan", "psi_inf"],
)
def test_request_edited_after_construction_raises_invalid_input(params, field, value):
    req = IkRequest(pose=special_pose(params, 0.5, -0.7, 0.3), psi=0.3, params=params)
    setattr(req, field, value)
    with pytest.raises(InvalidInput, match=field):
        solve(req)


@pytest.mark.parametrize("psi", [7.0, np.float64(0.3), 1, -math.pi])
def test_request_edited_to_a_valid_psi_solves_as_if_built_with_it(params, psi):
    pose = special_pose(params, 0.5, -0.7, 0.3)
    req = IkRequest(pose=pose, psi=0.0, params=params)
    req.psi = psi
    got = solve(req)
    want = solve(IkRequest(pose=pose, psi=psi, params=params))
    assert [b.joints.q.tolist() for b in got.branches] == [
        b.joints.q.tolist() for b in want.branches
    ]
    assert got.rejected == want.rejected


def test_accepted_branches_satisfy_both_constraints(params):
    # every accepted (t6, r6, q8) satisfies the pose and arm equations and
    # the unsquared combination the quartic was squared from
    rng = np.random.default_rng(53)
    aw = params.a_wr
    seen = 0
    for _ in range(30):
        q0 = sample_far_joints(rng, params)
        pose, rp, psi = _reduced_truth(params, q0)
        res = solve(IkRequest(pose=pose, psi=psi, params=params))
        k, y, tm1, tm2, tm3, *_ = _quartic_setup(rp.d_sc, rp.q, psi, params)
        sq, cq = math.sin(rp.q), math.cos(rp.q)
        cp, sp = math.cos(psi), math.sin(psi)
        for br in res.branches:
            t6, r6, q8 = br.t6, br.r6, br.q8
            pose_eq = aw * t6 - rp.d_sc * (r6 * cq - t6 * math.cos(q8) * sq) - k
            arm_eq = t6 * math.sin(q8) * cp + sp * (r6 * sq + t6 * cq * math.cos(q8))
            assert abs(pose_eq) < 1e-9
            assert abs(arm_eq) < 1e-9
            # the unsquared combination, in the kernel's operation order
            t2, t3, t4 = t6 * tm2, t6 * t6 * tm3, r6 * y * (k - aw * t6)
            resid = tm1 + t2 + t3 + t4
            scale = max(abs(tm1), abs(t2), abs(t3), abs(t4), 1e-300)
            assert abs(resid) < 1e-7 * scale
            seen += 1
    assert seen > 30


@pytest.mark.parametrize(
    "family, seed, code",
    [
        ("elbow_straight", 0, "elbow_degenerate"),
        # q2 = +-pi/2 with q3 in {0, pi}: q1 and q3 are individually undefined
        ("shoulder_flip_elbow_plane", 0, "wrist_degenerate"),
        ("shoulder_flip_wrist_offset", 0, "q8_degenerate"),
        ("shoulder_flip_wrist_offset", 24, "cos_domain"),
    ],
)
def test_degenerate_families_reach_their_rejection_codes(params, family, seed, code):
    # configurations placed exactly on a singular family make the kernel
    # reject leaves with the matching code; whatever it accepts is still exact
    rng = np.random.default_rng(seed)
    seen = set()
    for _ in range(5):
        q0 = family_sample(rng, params, family)
        pose = forward_kinematics(params, q0)
        res = solve(IkRequest(pose=pose, psi=arm_angle(params, q0), params=params))
        labels = [br.label for br in res.branches] + [r.label for r in res.rejected]
        assert sorted(labels) == sorted(leaf_label(leaf) for leaf in range(16))
        seen.update(r.reason for r in res.rejected)
        for br in res.branches:
            got = fk_oracle(params, br.joints.q)
            assert_allclose(got.rotation, pose.rotation, atol=1e-8)
            assert_allclose(got.translation, pose.translation, atol=1e-8)
    assert code in seen


def test_special_pose_branches_verified_by_oracle(params):
    rng = np.random.default_rng(59)
    total = 0
    for _ in range(20):
        d_sc = rng.uniform(0.25, 0.8)
        qv = rng.uniform(-2.7, -0.4)
        al = rng.uniform(-math.pi, math.pi)
        psi = rng.uniform(-math.pi, math.pi)
        pose = special_pose(params, d_sc, qv, al)
        res = solve(IkRequest(pose=pose, psi=psi, params=params))
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


def test_special_pose_unreachable(params):
    reach = params.d_se + params.d_ew + params.a_wr
    pose = special_pose(params, reach + 0.05, -1.3, 0.2)
    res = solve(IkRequest(pose=pose, psi=0.4, params=params))
    assert not res.branches
    assert len(res.rejected) == 16
    for rej in res.rejected:
        assert rej.category in ("complex_root", "domain")


def test_u6_cos_domain_site_is_reached_through_solve(params):
    # on the y = 0 family (q = -pi/2) the quartic is a perfect square; here
    # its double root t6 puts (t6 - a_wr) / d_ew below -1, so both of its
    # slots fail the first domain test of the kernel
    pose = special_pose(params, 0.7700057663165816, -math.pi / 2, 1.9845664104768632)
    psi = -3.1243861495570098
    rp = reduce_pose(params, pose)
    g = _quartic_setup(rp.d_sc, rp.q, psi, params)[5:]
    tol = DEFAULT_TOLERANCES
    _, roots, mults = K.solve_quartic_core(*g, tol.degree_tol, tol.root_merge_tol,
                                           tol.complex_accept)
    assert mults[0] == 2
    assert (roots[0] - params.a_wr) / params.d_ew < -1.05
    res = solve(IkRequest(pose=pose, psi=psi, params=params))
    domain = sorted(r.leaf for r in res.rejected if r.reason == "cos_domain")
    assert domain == list(range(8))
    assert len(res.branches) + len(res.rejected) == 16


def test_shoulder_consistency_site_is_reached_through_solve(params):
    # 3.2e-6 rad off the elbow_straight family (q4 = 0), at its own arm
    # angle: both elbow signs of root slot 1 fail the q4/q5 consistency test
    q = [0.5155392456893201, 1.2683055079760985, 2.872350935718423, 3.210121314883423e-06,
         0.17235971574904635, 1.7681888204904475, 2.6972409867123237]
    res = solve(IkRequest(pose=forward_kinematics(params, q), psi=arm_angle(params, q),
                          params=params))
    consistency = sorted(r.leaf for r in res.rejected if r.reason == "shoulder_consistency")
    assert consistency == [4, 5, 6, 7]
    assert _rejection_runs(res) == [(4, 7, "shoulder_consistency"), (8, 11, "duplicate"),
                                    (12, 15, "arm_equation_mismatch")]
    assert len(res.branches) + len(res.rejected) == 16
    assert all(b.pose_error < 1e-8 for b in res.branches)


def test_unsquared_residual_site_is_reached_through_solve(params):
    # at link scale 1e4 the unsquared constraint of root slot 0 fails its
    # relative residual test on this configuration, solved at its own arm angle
    P = RobotParams(*(1e4 * v for v in (params.d_bs, params.d_se, params.d_ew, params.a_wr)))
    rnd = random.Random(3)
    q = [rnd.uniform(-3, 3) for _ in range(7)]
    pose = forward_kinematics(P, q)
    res = solve(IkRequest(pose=pose, psi=arm_angle(P, q), params=P))
    unsquared = sorted(r.leaf for r in res.rejected if r.reason == "unsquared_residual")
    assert unsquared == [0, 1, 2, 3]
    assert len(res.branches) == 8 and len(res.branches) + len(res.rejected) == 16
    links = P.d_bs + P.d_se + P.d_ew + P.a_wr
    for br in res.branches:
        chk = fk_oracle(P, br.joints)
        assert_allclose(chk.rotation, pose.rotation, rtol=0, atol=1e-8)
        assert_allclose(chk.translation, pose.translation, rtol=0, atol=1e-8 * links)


def _rejection_runs(res):
    # res.rejected in list order (the order `armik ik` prints), as runs
    # (first leaf, last leaf, reason) of consecutive leaves with one reason
    runs = []
    for r in res.rejected:
        if runs and runs[-1][2] == r.reason and runs[-1][1] == r.leaf - 1:
            runs[-1] = (runs[-1][0], r.leaf, r.reason)
        else:
            runs.append((r.leaf, r.leaf, r.reason))
    return runs


def test_elbow_degenerate_slot_keeps_its_rejection_order(params):
    # the second elbow_straight draw (q4 = pi) of the family test at seed 0
    q = [0.25302495049945284, 2.5234200579690556, 1.8319506139048864, 3.141592653589793,
         2.072944804207902, -2.7052036632283065, 1.3320015892936756]
    res = solve(IkRequest(pose=forward_kinematics(params, q), psi=arm_angle(params, q),
                          params=params))
    assert _rejection_runs(res) == [(0, 3, "elbow_degenerate"), (4, 7, "duplicate"),
                                    (12, 15, "arm_equation_mismatch")]


@pytest.mark.parametrize(
    "d_sc, al, psi, runs",
    [
        (0.4273961219687338, -0.29218137756801177, 1.5688585865238391,
         [(4, 7, "duplicate"), (12, 15, "duplicate")]),
        (0.6676173166531254, 1.7384512787802162, 1.5730563928159573,
         [(4, 7, "duplicate"), (12, 15, "duplicate")]),
        (0.644705763578213, -1.507352191532362, -1.5706064091644665,
         [(4, 7, "duplicate"), (12, 15, "duplicate")]),
        (0.4055362914602887, -3.097033380309343, 1.5737107447063956,
         [(4, 7, "duplicate"), (12, 15, "duplicate")]),
        (0.7435924555801503, 0.25903597303685366, 1.566334150875804,
         [(0, 7, "cos_domain"), (12, 15, "duplicate")]),
        (0.8879732785931771, -2.8928232726643004, 1.5699830444526046,
         [(0, 7, "cos_domain"), (12, 15, "duplicate")]),
        (0.8414202307153027, 2.270011154909999, 1.5702345211820723,
         [(0, 7, "cos_domain"), (12, 15, "duplicate")]),
        (0.8882691928781845, 1.1914814065032804, 1.570803455409634,
         [(0, 3, "cos_domain"), (4, 7, "duplicate"), (12, 15, "duplicate")]),
        (0.8531423401770353, -0.7305115377270761, -1.5707166219366533,
         [(0, 3, "cos_domain"), (4, 7, "duplicate"), (12, 15, "duplicate")]),
        (0.9140219515446386, -2.171760177458146, 1.5710023917896703,
         [(0, 11, "cos_domain"), (12, 15, "duplicate")]),
    ],
)
def test_duplicate_slots_keep_their_rejection_order(params, d_sc, al, psi, runs):
    # on the y = 0 family (q = -pi/2) the quartic is a perfect square, and
    # near psi = +-pi/2 the second slot of a double root fails as a whole
    res = solve(IkRequest(pose=special_pose(params, d_sc, -math.pi / 2, al), psi=psi,
                          params=params))
    assert _rejection_runs(res) == runs
    assert len(res.branches) + len(res.rejected) == 16


# far configurations whose pose has 8 branches at their own arm angle
MERGE_QS = [
    [1.104780879345718, -1.794960264581879, -1.197248199877064, 1.8816009792540518,
     3.1152164628603014, -2.2479238016086907, -2.646945536556531],
    [-2.0054431241815376, -0.8818645879544551, -2.075843476015642, 0.5576912272745491,
     0.7339232546257386, -2.479434899007666, 0.41300037403097],
    [-3.1125037466513974, -0.219162533777149, 2.9884224039080935, 1.8813643650301728,
     0.6083528718816718, -1.097360481078085, -1.8450956213462624],
    [-0.3598658753193402, -1.394607015943117, 2.355929591892882, -1.802285550756728,
     -1.4184604722856113, 1.9300813440050861, -1.4554035804673486],
    [-1.4573039701220671, -2.6962292683681985, -0.20603309917760804, -1.4815409152789227,
     2.443794898703956, -1.3426016390455835, 1.7201283628398878],
]
AEM, DUP = "arm_equation_mismatch", "duplicate"


@pytest.mark.parametrize(
    "i, tol, accepted, runs",
    [
        (0, 2.5, [4, 5, 6, 7, 8, 9, 10, 11], [(0, 3, AEM), (12, 15, AEM)]),
        (0, 3.0, [4, 5, 6, 7], [(0, 3, AEM), (8, 11, DUP), (12, 15, AEM)]),
        (0, 3.2, [4], [(0, 3, AEM), (5, 11, DUP), (12, 15, AEM)]),
        (0, 7.0, [4], [(0, 3, AEM), (5, 11, DUP), (12, 15, AEM)]),
        (1, 2.5, [4, 5, 6, 7, 8, 9, 10, 11], [(0, 3, AEM), (12, 15, AEM)]),
        (1, 3.0, [4, 5, 6, 7], [(0, 3, AEM), (8, 11, DUP), (12, 15, AEM)]),
        (1, 3.2, [4], [(0, 3, AEM), (5, 11, DUP), (12, 15, AEM)]),
        (1, 7.0, [4], [(0, 3, AEM), (5, 11, DUP), (12, 15, AEM)]),
        (2, 2.5, [4, 5, 6, 7, 8, 9, 10, 11], [(0, 3, AEM), (12, 15, AEM)]),
        (2, 3.0, [4, 5, 6, 7, 8, 9, 10, 11], [(0, 3, AEM), (12, 15, AEM)]),
        (2, 3.2, [4], [(0, 3, AEM), (5, 11, DUP), (12, 15, AEM)]),
        (2, 7.0, [4], [(0, 3, AEM), (5, 11, DUP), (12, 15, AEM)]),
        (3, 2.5, [4, 5, 6, 7, 8, 9, 10, 11], [(0, 3, AEM), (12, 15, AEM)]),
        (3, 3.0, [4, 5, 6, 7, 8, 9, 10, 11], [(0, 3, AEM), (12, 15, AEM)]),
        (3, 3.2, [4], [(0, 3, AEM), (5, 11, DUP), (12, 15, AEM)]),
        (3, 7.0, [4], [(0, 3, AEM), (5, 11, DUP), (12, 15, AEM)]),
        (4, 2.5, [4, 5, 6, 7, 8, 9, 10, 11], [(0, 3, AEM), (12, 15, AEM)]),
        (4, 3.0, [4, 5, 6, 7, 8, 9, 10, 11], [(0, 3, AEM), (12, 15, AEM)]),
        (4, 3.2, [4], [(0, 3, AEM), (5, 11, DUP), (12, 15, AEM)]),
        (4, 7.0, [4], [(0, 3, AEM), (5, 11, DUP), (12, 15, AEM)]),
    ],
)
def test_duplicate_scan_at_large_merge_tolerances(params, i, tol, accepted, runs):
    # recorded from the scan with a |d| < 3 fast path: from tol = pi on, every
    # pair of branches is one, and at 3.0 the gaps in (3, 2 pi - 3) settle
    q = MERGE_QS[i]
    res = solve(IkRequest(pose=forward_kinematics(params, q), psi=arm_angle(params, q),
                          params=params, tolerances=ToleranceSet(angle_merge_tol=tol)))
    assert [K.leaf_label(4 * b.root_index + 2 * (b.q4_sign < 0) + (b.q2_sign < 0))
            for b in res.branches] == [K.leaf_label(leaf) for leaf in accepted]
    assert _rejection_runs(res) == runs


@pytest.mark.parametrize("tol", [1e-7, 1e-3, 0.5, 3.2])
def test_accepted_branches_differ_by_more_than_the_merge_tolerance(params, tol):
    rng = np.random.default_rng(9)
    requests = []
    for _ in range(20):
        q = sample_far_joints(rng, params)
        requests.append((forward_kinematics(params, q), arm_angle(params, q)))
    for _ in range(20):
        # near psi = +-pi/2 on the y = 0 family, double roots give duplicates
        pose = special_pose(params, rng.uniform(0.4, 0.9), -math.pi / 2,
                            rng.uniform(-math.pi, math.pi))
        requests.append((pose, rng.choice([-1.0, 1.0]) * math.pi / 2 + rng.normal() * 1e-3))
    merged = 0
    for pose, psi in requests:
        res = solve(IkRequest(pose=pose, psi=psi, params=params,
                              tolerances=ToleranceSet(angle_merge_tol=tol)))
        merged += sum(r.reason == "duplicate" for r in res.rejected)
        joints = [b.joints.q for b in res.branches]
        for a in range(len(joints)):
            for b in range(a):
                assert max(abs(_wrap(x - y)) for x, y in zip(joints[a], joints[b])) > tol
    assert merged > 0


# link lengths near 1e39 overflow the quartic's constant term to inf - inf,
# and solve_quartic_core returns a NaN root
HUGE_PARAMS = (1.795965853976888e+38, 1.5933577813232312e+36, 5.209365066727247e+39,
               4.1383739087041256e+39)


def test_nan_quartic_root_is_a_domain_rejection():
    P = RobotParams(*HUGE_PARAMS)
    q = [1.0228177086238945, 1.1808255725683416, -1.5491049538467039, 2.1256803808716036,
         0.5346596191553452, -2.026530874975511, 1.1583047263768753]
    res = solve(IkRequest(pose=forward_kinematics(P, q), psi=0.3, params=P))
    assert not res.branches
    assert _rejection_runs(res) == [(4, 15, "complex_root"), (0, 3, "cos_domain")]


def test_huge_link_lengths_raise_only_armik_errors():
    rng = np.random.default_rng(0)
    solved = 0
    for _ in range(400):
        d_bs, d_se, d_ew, a_wr = 10.0 ** rng.uniform(30, 42, 4)
        try:
            P = RobotParams(d_bs, d_se, d_ew, min(a_wr, 0.5 * d_ew))
        except InvalidParams:
            continue
        q = rng.uniform(-math.pi, math.pi, 7)
        try:
            res = solve(IkRequest(pose=forward_kinematics(P, q),
                                  psi=rng.uniform(-math.pi, math.pi), params=P))
        except ArmikError:
            continue
        labels = [br.label for br in res.branches] + [r.label for r in res.rejected]
        assert sorted(labels) == sorted(leaf_label(leaf) for leaf in range(16))
        solved += 1
    assert solved >= 10


def test_kernel_calls_the_helpers_perfbench_traces(params, monkeypatch):
    # perfbench times fk_chain, rot_geodesic, arm_dihedral and
    # solve_quartic_core by wrapping them on the kernel module, whose globals
    # ik_solve_core reads; inlining one of these calls would hide its layer
    rng = np.random.default_rng(15)
    reach = params.d_se + params.d_ew + params.a_wr
    requests = [IkRequest(pose=special_pose(params, reach + 0.05, -1.3, 0.2), psi=0.4,
                          params=params)]
    for _ in range(4):
        q0 = sample_far_joints(rng, params)
        requests.append(IkRequest(pose=forward_kinematics(params, q0),
                                  psi=arm_angle(params, q0), params=params))
    # the first request's quartic has no real root
    assert [r.reason for r in solve(requests[0]).rejected] == ["complex_root"] * 16
    calls = dict.fromkeys(("fk_chain", "rot_geodesic", "arm_dihedral", "solve_quartic_core"), 0)

    def counting(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    for name in calls:
        monkeypatch.setattr(K, name, counting(name, getattr(K, name)))
    verified = 0
    for req in requests:
        calls.update(dict.fromkeys(calls, 0))
        res = solve(req)
        reasons = [r.reason for r in res.rejected]
        # a duplicate slot is rejected before verification, a duplicate leaf
        # after it; these requests have neither
        assert "duplicate" not in reasons
        past_pose = len(res.branches) + reasons.count("psi_mismatch")
        reached = past_pose + reasons.count("pose_mismatch")
        assert calls == {"fk_chain": reached, "rot_geodesic": reached,
                         "arm_dihedral": past_pose, "solve_quartic_core": 1}
        verified += reached
    assert verified >= 16


def test_zero_quartic_gives_the_shared_records(params, monkeypatch):
    # no pose makes the quartic identically zero; zeroing its coefficients
    # reaches the kernel's AllCoefficientsZero handler through solve
    setup = K.quartic_setup_core
    monkeypatch.setattr(K, "quartic_setup_core", lambda *args: setup(*args)[:5] + (0.0,) * 5)
    res = solve(IkRequest(pose=special_pose(params, 0.5, -0.7, 0.3), psi=0.3, params=params))
    assert not res.branches
    want = K.LEAF_REJ["quartic_identically_zero"]
    assert len(res.rejected) == 16
    assert all(got is rec for got, rec in zip(res.rejected, want))


@pytest.mark.parametrize("error", [ZeroSC, AxisParallel, DegenerateArm])
def test_undefined_branch_arm_angle_is_psi_mismatch(params, monkeypatch, error):
    # a leaf whose arm angle cannot be measured matches no psi: every leaf
    # that reaches arm_dihedral becomes psi_mismatch, and the rest keep
    # their records
    q0 = sample_far_joints(np.random.default_rng(15), params)
    req = IkRequest(pose=forward_kinematics(params, q0), psi=arm_angle(params, q0), params=params)
    plain = solve(req)
    assert plain.branches

    def undefined(*args):
        raise error("arm angle undefined")

    monkeypatch.setattr(K, "arm_dihedral", undefined)
    res = solve(req)
    assert not res.branches
    reached = [b.label for b in plain.branches]
    reached += [r.label for r in plain.rejected if r.reason == "psi_mismatch"]
    assert sorted(r.label for r in res.rejected if r.reason == "psi_mismatch") == sorted(reached)
    assert ([r for r in res.rejected if r.reason != "psi_mismatch"]
            == [r for r in plain.rejected if r.reason != "psi_mismatch"])


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
    rng = np.random.default_rng(66)
    seen = 0
    for _ in range(20):
        q0 = sample_far_joints(rng, params)
        pose, rp, psi = _reduced_truth(params, q0)
        res = solve(IkRequest(pose=pose, psi=psi, params=params))
        k = _quartic_setup(rp.d_sc, rp.q, psi, params)[0]
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


def test_solve_builds_its_branches_when_first_read(params):
    q = [0.4, -1.2, 0.5, 1.1, -0.3, 0.9, 0.2]
    req = IkRequest(pose=forward_kinematics(params, q), psi=arm_angle(params, q), params=params)
    res = solve(req)
    n, joints = len(res), res.joints_array()
    assert n > 0 and joints.shape == (n, 7)
    assert "branches" not in vars(res)
    branches = res.branches
    assert type(branches) is list and len(branches) == n
    assert res.branches is branches
    assert np.array_equal(np.stack([b.joints.q for b in branches]), joints)
    # the dataclass methods read the built branches
    copy = dataclasses.replace(res, rejected=[])
    assert copy.branches is branches and copy.rejected == [] and len(copy) == n
    assert repr(solve(req)) == repr(res) == repr(SolutionSet(list(branches), res.rejected))
    reach = params.d_se + params.d_ew + params.a_wr
    far = IkRequest(pose=special_pose(params, reach + 0.05, -1.3, 0.2), psi=0.4, params=params)
    assert solve(far) == solve(far) == SolutionSet([], solve(far).rejected)
    # an edit made after the read is what len() and joints_array() see
    branches[0].joints = JointConfig([0.0] * 7)
    del branches[-1]
    assert len(res) == n - 1
    assert res.joints_array()[0].tolist() == [0.0] * 7


def test_separate_solves_with_branches_compare_equal(params):
    q = [0.4, -1.2, 0.5, 1.1, -0.3, 0.9, 0.2]
    req = IkRequest(pose=forward_kinematics(params, q), psi=arm_angle(params, q), params=params)
    first, second = solve(req), solve(req)
    assert len(first) > 1 and first is not second
    assert first == second and not first != second
    assert first.branches[0] == second.branches[0] != second.branches[1]
    other = solve(dataclasses.replace(req, psi=req.psi + 0.1))
    assert len(other) > 0 and first != other


@pytest.mark.parametrize("mult", [2, 3, 4])
def test_extra_slots_of_a_merged_root_take_the_first_slots_opposite_sign(params, monkeypatch,
                                                                       mult):
    # one real root at multiplicity mult: slot 0 picks its q6 sign by the
    # unsquared residual, and every extra slot takes the opposite one. On
    # roots 0 and 3, slot 0 fails the arm equation and the opposite sign
    # fails the residual, so the extra slots are all duplicates; a sign
    # passed on from slot to slot would give slot 2 slot 0's sign and reason
    q = [0.4, -1.2, 0.5, 1.1, -0.3, 0.9, 0.2]
    req = IkRequest(pose=forward_kinematics(params, q), psi=arm_angle(params, q), params=params)
    plain = solve(req)
    solve_quartic = K.solve_quartic_core
    for index, first in ((0, "arm_equation_mismatch"), (1, None), (2, None),
                         (3, "arm_equation_mismatch")):
        monkeypatch.setattr(K, "solve_quartic_core", merged_root(solve_quartic, index, mult))
        res = solve(req)
        monkeypatch.undo()
        leaves = [None] * 16
        for r in res.rejected:
            leaves[r.leaf] = r.reason
        tail = ["duplicate"] * 4 * (mult - 1) + ["complex_root"] * 4 * (4 - mult)
        assert leaves == [first] * 4 + tail, (index, leaves)
        # an accepted slot 0 is the plain solve's slot of that root, leaf for leaf
        want = [b.joints for b in plain.branches if b.root_index == index]
        assert [b.joints for b in res.branches] == (want if first is None else [])
