import dataclasses
import json
import math
import os

import numpy as np
import pytest
from numpy.testing import assert_allclose

from armik import (
    IkRequest,
    InvalidInput,
    InvalidParams,
    InvalidRotation,
    JointConfig,
    RobotParams,
    Transform,
    arm_angle,
    classify,
    default_params,
    forward_kinematics,
    frame_points,
    load_params,
    solve,
)
from armik.robot import check_rotation
from armik import _kernels_impl as _K
from armik.verify import _quat_to_mat, fk_oracle


def _rotx(a):
    c, s = math.cos(a), math.sin(a)
    return np.array([[1, 0, 0, 0], [0, c, -s, 0], [0, s, c, 0], [0, 0, 0, 1.0]])


def _rotz(a):
    c, s = math.cos(a), math.sin(a)
    return np.array([[c, -s, 0, 0], [s, c, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1.0]])


def _trans(x, y, z):
    T = np.eye(4)
    T[:3, 3] = (x, y, z)
    return T


def _link_matrix(alpha, a, d, theta):
    # the homogeneous matrix of the kernel's link transform: link_rot's
    # rotation, and the translation (a, -sin alpha * d, cos alpha * d) that
    # link_table keeps in the row
    L = _K.link_table([(alpha, a, d, 0.0)])[0]
    T = np.eye(4)
    T[:3, :3] = np.reshape(_K.link_rot(L, theta), (3, 3))
    T[:3, 3] = L[3:6]
    return T


def test_mdh_transform_matches_primitive_composition():
    rng = np.random.default_rng(11)
    for _ in range(200):
        alpha, theta = rng.uniform(-math.pi, math.pi, 2)
        a, d = rng.uniform(-1.0, 1.0, 2)
        want = _rotx(alpha) @ _trans(a, 0, 0) @ _rotz(theta) @ _trans(0, 0, d)
        assert_allclose(_link_matrix(alpha, a, d, theta), want, atol=1e-14)


def test_mdh_transform_quarter_turn_frozen():
    # alpha = pi/2, a = 0.1, d = 0.2, theta = pi/2, multiplied by hand
    T = _link_matrix(math.pi / 2, 0.1, 0.2, math.pi / 2)
    want = np.array(
        [
            [0.0, -1.0, 0.0, 0.1],
            [0.0, 0.0, -1.0, -0.2],
            [1.0, 0.0, 0.0, 0.0],
            [0.0, 0.0, 0.0, 1.0],
        ]
    )
    assert_allclose(T, want, atol=1e-15)


def test_zero_config_layout(params):
    # frozen against the quaternion FK oracle: straight out along +x at
    # shoulder height, all four chain points collinear
    pts = frame_points(params, np.zeros(7))
    assert_allclose(pts.shoulder, [0.0, 0.0, 0.36], atol=1e-12)
    assert_allclose(pts.elbow, [0.42, 0.0, 0.36], atol=1e-12)
    assert_allclose(pts.wrist, [0.82, 0.0, 0.36], atol=1e-12)
    assert_allclose(pts.axis7, [0.9105, 0.0, 0.36], atol=1e-12)
    t = forward_kinematics(params, np.zeros(7))
    assert_allclose(t.rotation[:, 2], [0.0, 0.0, -1.0], atol=1e-12)
    assert_allclose(t.rotation[:, 0], [1.0, 0.0, 0.0], atol=1e-12)
    # collinearity of S, E, W, C
    d1 = pts.elbow - pts.shoulder
    for p in (pts.wrist, pts.axis7):
        assert np.linalg.norm(np.cross(d1, p - pts.shoulder)) < 1e-12


def test_zero_config_matches_oracle(params):
    got = forward_kinematics(params, np.zeros(7))
    want = fk_oracle(params, np.zeros(7))
    assert_allclose(got.rotation, want.rotation, atol=1e-15)
    assert_allclose(got.translation, want.translation, atol=1e-15)


def test_fk_matches_oracle_random(params):
    rng = np.random.default_rng(23)
    for _ in range(500):
        q = rng.uniform(-math.pi, math.pi, 7)
        got = forward_kinematics(params, q)
        want = fk_oracle(params, q)
        assert_allclose(got.rotation, want.rotation, atol=1e-13)
        assert_allclose(got.translation, want.translation, atol=1e-13)


def test_link_distance_invariants(params):
    rng = np.random.default_rng(5)
    for _ in range(100):
        q = rng.uniform(-math.pi, math.pi, 7)
        pts = frame_points(params, q)
        assert abs(np.linalg.norm(pts.elbow - pts.shoulder) - params.d_se) < 1e-12
        assert abs(np.linalg.norm(pts.wrist - pts.elbow) - params.d_ew) < 1e-12
        assert abs(np.linalg.norm(pts.axis7 - pts.wrist) - params.a_wr) < 1e-12
        # shoulder never moves: joints 1-3 axes intersect there
        assert_allclose(pts.shoulder, [0, 0, params.d_bs], atol=1e-12)


def test_fk_rotation_orthonormal(params):
    rng = np.random.default_rng(6)
    for _ in range(100):
        q = rng.uniform(-math.pi, math.pi, 7)
        R = forward_kinematics(params, q).rotation
        assert_allclose(R @ R.T, np.eye(3), atol=1e-12)
        assert abs(np.linalg.det(R) - 1.0) < 1e-12


def test_transform_validation():
    with pytest.raises(InvalidRotation):
        Transform(np.eye(3) * 1.001, np.zeros(3))
    with pytest.raises(InvalidRotation):
        # reflection: orthonormal but det -1
        Transform(np.diag([1.0, 1.0, -1.0]), np.zeros(3))
    with pytest.raises(InvalidInput):
        Transform(np.eye(3), [1.0, 2.0])
    with pytest.raises(InvalidInput):
        Transform(np.eye(3), [np.nan, 0.0, 0.0])
    # non-numeric entries are coded errors, not ValueError or TypeError
    with pytest.raises(InvalidRotation):
        Transform([[1, 0, 0], [0, 1, 0], [0, 0, "x"]], np.zeros(3))
    with pytest.raises(InvalidRotation):
        Transform([[1, 0, 0], [0, 1], [0, 0, 1]], np.zeros(3))
    with pytest.raises(InvalidInput):
        Transform(np.eye(3), ["a", 0.1, 0.6])
    with pytest.raises(InvalidInput):
        Transform(np.eye(3), [[0.35], [0.1, 0.6]])


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf], ids=["nan", "+inf", "-inf"])
def test_non_finite_entries_rejected_in_every_position(bad):
    for k in range(9):
        R = np.eye(3)
        R.flat[k] = bad
        with pytest.raises(InvalidRotation, match="non-finite"):
            check_rotation(R)
    for k in range(3):
        p = np.zeros(3)
        p[k] = bad
        with pytest.raises(InvalidInput, match="translation contains non-finite"):
            Transform(np.eye(3), p)
    for k in range(7):
        q = np.zeros(7)
        q[k] = bad
        with pytest.raises(InvalidInput, match="joints contains non-finite"):
            JointConfig(q)


def _numpy_rotation_ok(R, tol=1e-9):
    # reference: the rotation check written with numpy matrix products
    if np.abs(R @ R.T - np.eye(3)).max() > tol:
        return False
    return abs(np.linalg.det(R) - 1.0) <= tol


def _rotation_ok(R):
    try:
        check_rotation(R)
    except InvalidRotation:
        return False
    return True


def test_check_rotation_edges():
    # R R^T - I deviates by about s for a shear s, and by d for a row scaled
    # by sqrt(1 + d)
    shear = lambda s: np.array([[1.0, s, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
    scaled = lambda d: np.diag([math.sqrt(1.0 + d), 1.0, 1.0])
    for make in (shear, scaled):
        assert _rotation_ok(make(0.5e-9))
        assert not _rotation_ok(make(2e-9))
    assert not _rotation_ok(np.diag([1.0, 1.0, -1.0]))
    bad = np.eye(3)
    bad[1, 2] = np.nan
    assert not _rotation_ok(bad)
    for shape in ((2, 3), (9,)):
        with pytest.raises(InvalidRotation):
            check_rotation(np.zeros(shape))
    assert check_rotation(np.eye(3).tolist()) == (1.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 1.0)


def test_check_rotation_matches_numpy_reference():
    rng = np.random.default_rng(17)
    verdicts = []
    for i in range(20000):
        quat = rng.normal(size=4)
        R = _quat_to_mat(quat / np.linalg.norm(quat))
        R = R + rng.uniform(-2e-9, 2e-9, size=(3, 3)) * rng.uniform()
        if i % 10 == 0:
            R = -R
        ok = _rotation_ok(R)
        assert ok == _numpy_rotation_ok(R), (i, R.tolist())
        verdicts.append(ok)
    # the perturbations straddle the tolerance
    assert 0.2 < np.mean(verdicts) < 0.8


def test_transform_and_joints_own_their_arrays(params):
    q0 = np.array([0.3, -0.7, 1.1, -1.9, 0.4, 0.9, -2.2])
    want = forward_kinematics(params, q0)
    psi = arm_angle(params, q0)
    R, p = want.rotation.copy(), want.translation.copy()
    T = Transform(R, p)
    before = solve(IkRequest(pose=T, psi=psi, params=params))
    assert before.branches
    R[:] = 2.0 * R
    p[:] = 0.0
    assert (T.rotation == want.rotation).all() and (T.translation == want.translation).all()
    after = solve(IkRequest(pose=T, psi=psi, params=params))
    assert [b.joints.q.tolist() for b in after.branches] == [
        b.joints.q.tolist() for b in before.branches
    ]
    assert after.rejected == before.rejected
    with pytest.raises(ValueError):
        T.rotation[0, 0] = 0.0
    with pytest.raises(ValueError):
        T.translation[0] = 0.0
    with pytest.raises(AttributeError):
        T.rotation = np.eye(3)
    # JointConfig copies its input and stays writeable
    jc = JointConfig(q0)
    q0[0] = 5.0
    assert jc.q[0] == 0.3 and jc.q.flags.writeable


def test_joint_config_validation():
    with pytest.raises(InvalidInput):
        JointConfig([0.0, 1.0, 2.0])
    with pytest.raises(InvalidInput):
        JointConfig([np.inf, 0, 0, 0, 0, 0, 0])
    with pytest.raises(InvalidInput):
        JointConfig([0, 0, 0, 0, 0, 0, "a"])
    jc = JointConfig([4.0, -4.0, 0, 0, 0, 0, math.pi]).wrapped()
    assert -math.pi < jc.q[0] <= math.pi
    assert -math.pi < jc.q[1] <= math.pi
    assert jc.q[6] == math.pi
    assert len(jc) == 7


def test_joint_config_equality_compares_the_joints():
    zero = JointConfig([0.0] * 7)
    assert zero == JointConfig([0] * 7) and not zero != JointConfig([-0.0] * 7)
    assert zero != JointConfig([0.0] * 6 + [1e-300])
    assert zero != [0.0] * 7
    # a built q array, edited in place, is what == reads
    other = JointConfig([0.0] * 7)
    other.q[3] = 0.5
    assert zero != other and other == JointConfig([0.0, 0.0, 0.0, 0.5, 0.0, 0.0, 0.0])


@pytest.mark.parametrize(
    "edit",
    [
        lambda jc: jc.q.__setitem__(0, math.nan),
        lambda jc: jc.q.__setitem__(6, math.inf),
        lambda jc: setattr(jc, "q", "abc"),
        lambda jc: setattr(jc, "q", np.zeros(3)),
    ],
    ids=["nan_entry", "inf_entry", "text", "three_entries"],
)
def test_edited_joint_config_is_checked_when_read(params, edit):
    # q is writeable once read, so every reader checks it as it reads it
    jc = JointConfig([0.4, -1.2, 0.5, 1.1, -0.3, 0.9, 0.2])
    edit(jc)
    for read in (
        lambda: forward_kinematics(params, jc),
        lambda: frame_points(params, jc),
        lambda: arm_angle(params, jc),
        lambda: classify(jc, params),
        jc.wrapped,
    ):
        with pytest.raises(InvalidInput, match="joints"):
            read()
    assert jc != JointConfig([0.0] * 7) and not jc == jc


def test_params_and_frame_points_compare_and_hash(params):
    copy = dataclasses.replace(params)
    assert copy == params and hash(copy) == hash(params) and len({copy, params}) == 1
    assert copy != dataclasses.replace(params, d_bs=params.d_bs + 1e-3, mdh=None)
    assert params != params.to_dict()
    # a custom theta offset makes a different table with the same lengths
    mdh = params.mdh.copy()
    mdh[0, 3] = 0.1
    shifted = RobotParams(params.d_bs, params.d_se, params.d_ew, params.a_wr, mdh)
    assert shifted != params and shifted == dataclasses.replace(shifted)
    q = [0.4, -1.2, 0.5, 1.1, -0.3, 0.9, 0.2]
    pts = frame_points(params, q)
    assert pts == frame_points(params, q) and not pts != frame_points(params, q)
    assert pts != frame_points(shifted, q)
    assert pts != (pts.shoulder, pts.elbow, pts.wrist, pts.axis7)
    edited = frame_points(params, q)
    edited.elbow = "abc"
    assert pts != edited and edited == edited


def test_params_validation():
    with pytest.raises(InvalidParams):
        RobotParams(d_bs=-0.1, d_se=0.4, d_ew=0.4, a_wr=0.09)
    with pytest.raises(InvalidParams):
        RobotParams(d_bs=0.3, d_se=0.4, d_ew=0.4, a_wr=0.5)  # a_wr >= d_ew
    with pytest.raises(InvalidParams):
        RobotParams(d_bs=0.3, d_se=0.4, d_ew=0.4, a_wr=0.09, mdh=np.zeros((6, 4)))
    bad = RobotParams(d_bs=0.3, d_se=0.4, d_ew=0.4, a_wr=0.09).mdh.copy()
    bad[1, 0] = 0.3  # break the alpha pattern
    with pytest.raises(InvalidParams):
        RobotParams(d_bs=0.3, d_se=0.4, d_ew=0.4, a_wr=0.09, mdh=bad)
    bad2 = RobotParams(d_bs=0.3, d_se=0.4, d_ew=0.4, a_wr=0.09).mdh.copy()
    bad2[2, 2] = -0.39  # d column no longer matches d_se
    with pytest.raises(InvalidParams):
        RobotParams(d_bs=0.3, d_se=0.4, d_ew=0.4, a_wr=0.09, mdh=bad2)
    # non-numeric or ragged values are coded errors, not ValueError or TypeError
    good = (0.3, 0.4, 0.4, 0.09)
    for args, mdh in [
        (("x", 0.4, 0.4, 0.09), None),
        ((None, 0.4, 0.4, 0.09), None),
        ((0.3, 0.4, [0.4], 0.09), None),
        (good, "x"),
        (good, [[0.0, 0.0, 0.0, 0.0]] * 6 + [[0.0, 0.0, 0.0]]),
        (good, [[0.0, 0.0, 0.0, "a"]] * 7),
    ]:
        with pytest.raises(InvalidParams):
            RobotParams(*args, mdh=mdh)


@pytest.mark.parametrize("lo, hi, n", [(6, 14, 160), (0, 45, 160)])
def test_params_accept_their_canonical_table_at_any_scale(lo, hi, n):
    # the zero-pose FK cross-check rounds with the chain's size: against an
    # absolute 1e-9 m, most tables with links beyond about 1e7 m raised
    rng = np.random.default_rng(lo)
    for _ in range(n):
        d_bs, d_se, d_ew = 10.0 ** rng.uniform(lo, hi, 3)
        a_wr = d_ew * 10.0 ** rng.uniform(-12, -0.31)
        P = RobotParams(d_bs, d_se, d_ew, a_wr)
        assert RobotParams(d_bs, d_se, d_ew, a_wr, P.mdh).to_dict() == P.to_dict()


@pytest.mark.parametrize("scale", [1e155, 1e160, 1e300])
def test_params_reject_links_whose_squares_overflow(scale):
    # from about 1e154 m squared point distances overflow: arm_angle would
    # read 0.0 and classify's reference_parallel pi/2
    with pytest.raises(InvalidParams, match=r"^link lengths must sum to at most 1e\+150 m$"):
        RobotParams(0.36 * scale, 0.42 * scale, 0.4 * scale, 0.05 * scale)


@pytest.mark.parametrize("scale", [1.0, 1e8, 1e13])
@pytest.mark.parametrize("col", [0, 1, 2])
def test_params_still_reject_a_table_off_the_chain(scale, col):
    # the shoulder-elbow row's alpha, a or d moved by 1e-6 of the chain's size
    d_bs, d_se, d_ew, a_wr = (scale * v for v in (0.36, 0.42, 0.4, 0.0905))
    bad = RobotParams(d_bs, d_se, d_ew, a_wr).mdh.copy()
    bad[2, col] += 1e-6 * (1.0 if col == 0 else scale)
    with pytest.raises(InvalidParams, match="column deviates from the supported chain"):
        RobotParams(d_bs, d_se, d_ew, a_wr, mdh=bad)


def test_params_are_immutable_and_own_their_table():
    # the shared built-in instance: were these writes to succeed, they would
    # leak into every later default_params() call
    params = default_params()
    with pytest.raises(dataclasses.FrozenInstanceError):
        params.d_ew = 0.5
    with pytest.raises(ValueError):
        params.mdh[0, 0] = 1.0
    mdh = params.mdh.copy()
    own = dataclasses.replace(params, mdh=mdh)
    assert mdh.flags.writeable and own.mdh is not mdh
    mdh[0, 3] = 0.5
    assert own.mdh[0, 3] == params.mdh[0, 3]
    assert own._links == params._links and own._delta == params._delta
    with pytest.raises(InvalidParams):
        dataclasses.replace(params, d_ew=-1.0)


def test_params_theta_offsets_shift_user_coordinates(params):
    # a chain with shifted theta offsets equals the canonical chain evaluated
    # at q + delta
    rng = np.random.default_rng(9)
    delta = rng.uniform(-1.0, 1.0, 7)
    mdh = params.mdh.copy()
    mdh[:, 3] += delta
    shifted = RobotParams(
        d_bs=params.d_bs, d_se=params.d_se, d_ew=params.d_ew, a_wr=params.a_wr, mdh=mdh
    )
    assert_allclose(shifted.delta, params.delta + delta, atol=1e-15)
    for _ in range(20):
        q = rng.uniform(-math.pi, math.pi, 7)
        a = forward_kinematics(shifted, q)
        b = forward_kinematics(params, q + delta)
        assert_allclose(a.rotation, b.rotation, atol=1e-12)
        assert_allclose(a.translation, b.translation, atol=1e-12)


def test_load_params_roundtrip(tmp_path, params):
    path = tmp_path / "p.json"
    path.write_text(json.dumps(params.to_dict()))
    loaded = load_params(path)
    assert_allclose(loaded.mdh, params.mdh, atol=0)
    assert loaded.d_bs == params.d_bs
    with pytest.raises(InvalidParams):
        load_params(tmp_path / "missing.json")
    (tmp_path / "bad.json").write_text("{not json")
    with pytest.raises(InvalidParams):
        load_params(tmp_path / "bad.json")
    (tmp_path / "short.json").write_text(json.dumps({"d_bs": 0.3}))
    with pytest.raises(InvalidParams):
        load_params(tmp_path / "short.json")


@pytest.mark.parametrize("path", [None, [], b"p.json", 1.5], ids=["none", "list", "bytes", "float"])
def test_load_params_rejects_a_non_path(path):
    with pytest.raises(InvalidParams, match="str or os.PathLike"):
        load_params(path)


@pytest.mark.parametrize("fd", [0, 1, 2, True, False])
def test_load_params_does_not_read_a_file_descriptor(fd):
    # open() takes an int as a descriptor and closes it when done
    with pytest.raises(InvalidParams, match="str or os.PathLike"):
        load_params(fd)
    for std in (0, 1, 2):
        os.fstat(std)


@pytest.mark.parametrize("content", [
    b"\xff\xfe{}",
    '{"d_bs": 0.3, "pad": "\u00e9"}'.encode("latin-1"),
    b'{"d_bs": 1' + b"0" * 5000 + b"}",
], ids=["utf16_bom", "latin1", "huge_integer"])
def test_load_params_rejects_unreadable_content(tmp_path, content):
    path = tmp_path / "p.json"
    path.write_bytes(content)
    with pytest.raises(InvalidParams, match="cannot read parameter file"):
        load_params(path)


def test_load_params_rejects_a_nul_in_the_path(tmp_path):
    with pytest.raises(InvalidParams, match="cannot read parameter file"):
        load_params(str(tmp_path / "p\0.json"))


def test_default_params_loadable():
    p = default_params()
    assert p.a_wr == 0.0905
    assert p.mdh.shape == (7, 4)
    assert_allclose(p.delta, np.zeros(7), atol=0)


def test_default_params_is_one_shared_immutable_instance():
    shared = default_params()
    assert default_params() is shared
    with pytest.raises(dataclasses.FrozenInstanceError):
        shared.a_wr = 0.0
    with pytest.raises(ValueError):
        shared.mdh[6, 1] = 0.0
    variant = dataclasses.replace(shared, a_wr=0.05, mdh=None)
    assert variant.a_wr == 0.05 and variant is not default_params()
    assert default_params().a_wr == 0.0905 and default_params().mdh[6, 1] == 0.0905


def test_forward_kinematics_keeps_the_validated_transform_bits(params):
    # the kernel's floats, as the validating constructor would keep them
    K = params._links
    rng = np.random.default_rng(17)
    for scale in (1e-6, 1.0, 1e3):
        for _ in range(100):
            q = rng.uniform(-math.pi, math.pi, 7) * scale
            R, p, _, _, _ = _K.fk_chain(K, q.tolist())
            want = Transform(np.reshape(R, (3, 3)), p)
            got = forward_kinematics(params, q)
            assert repr((got._rot, got._pos)) == repr((want._rot, want._pos))
            assert all(type(v) is float for v in got._rot + got._pos)
    with pytest.raises(ValueError):
        got.rotation[0, 0] = 0.0
