import dataclasses
import json
import math
import os
import stat
import subprocess
import sys

import numpy as np
import pytest
from numpy.testing import assert_allclose

import armik.cli
import armik.verify
from armik import (
    ArmikError, IkRequest, JointConfig, RejectedBranch, SolutionSet, Transform, arm_angle,
    default_params, forward_kinematics, solve,
)
from armik import _kernels_impl as _K
from armik.verify import fk_oracle
from armik.cli import _parse_rotation, main
from conftest import sample_far_joints, special_pose


def _run(capsys, argv):
    rc = main(argv)
    out = capsys.readouterr().out
    return rc, (json.loads(out) if out.strip() else None)


def _pose_item(params, q, extra=None):
    pose = forward_kinematics(params, q)
    item = {
        "position": list(pose.translation),
        "rotation": [list(r) for r in pose.rotation],
    }
    if extra:
        item.update(extra)
    return item


Q0 = [0.4, -1.2, 0.5, 1.1, -0.3, 0.9, 0.2]


def test_fk_zero(params, capsys):
    rc, out = _run(capsys, ["fk", "--json", json.dumps({"joints": [0.0] * 7})])
    assert rc == 0
    want = fk_oracle(params, np.zeros(7))
    assert_allclose(out["pose"]["position"], want.translation, atol=1e-15)
    assert_allclose(out["pose"]["rotation"], want.rotation, atol=1e-15)
    assert_allclose(out["frame_points"]["shoulder"], [0, 0, params.d_bs], atol=1e-15)
    # the zero config is planar with the elbow on the SC line, so the arm
    # angle is undefined and reported as null with the reason tag
    assert out["psi"] is None
    assert out["psi_error"] == "degenerate_arm"


def test_tool_z_along_sc_is_axis_parallel(params, capsys):
    # straight arm, wrist turned so the angle at C between S and W is right:
    # the tool z-axis, normal to the wrist offset, then lies along SC
    q6 = math.pi / 2 + math.asin(params.a_wr / (params.d_se + params.d_ew))
    item = json.dumps({"joints": [0.0, 0.0, 0.0, 0.0, 0.0, q6, 0.0]})
    rc, out = _run(capsys, ["arm-angle", "--json", item])
    assert rc == 2
    assert out["error"]["tag"] == "axis_parallel"
    rc, out = _run(capsys, ["fk", "--json", item])
    assert rc == 0
    assert out["psi"] is None
    assert out["psi_error"] == "axis_parallel"


def test_ik_round_trip(params, capsys):
    psi = arm_angle(params, np.array(Q0))
    item = _pose_item(params, np.array(Q0), {"psi": psi})
    rc, out = _run(capsys, ["ik", "--json", json.dumps(item)])
    assert rc == 0
    assert out["count"] == len(out["branches"]) > 0
    assert out["count"] + len(out["rejected"]) == 16
    best = min(
        max(abs(j - t) for j, t in zip(br["joints"], Q0)) for br in out["branches"]
    )
    assert best < 1e-6
    for br in out["branches"]:
        assert br["residuals"]["pose_error"] < 1e-8
        assert set(br) >= {"label", "joints", "root_index", "q4_sign", "q2_sign"}
    for rej in out["rejected"]:
        assert set(rej) == {"branch", "reason", "category"}


def test_ik_invalid_rotation_exit_code(params, capsys):
    item = {"position": [0.3, 0.0, 0.6], "rotation": [[1, 0, 0], [0, 1, 0], [0, 1, 1]],
            "psi": 0.0}
    rc, out = _run(capsys, ["ik", "--json", json.dumps(item)])
    assert rc == 1
    assert out["error"]["tag"] == "invalid_rotation"


def test_ik_degenerate_pose_exit_code(params, capsys):
    item = {
        "position": [0.0, 0.0, params.d_bs + 0.5],
        "rotation": [[1, 0, 0], [0, 1, 0], [0, 0, 1]],
        "psi": 0.3,
    }
    rc, out = _run(capsys, ["ik", "--json", json.dumps(item)])
    assert rc == 2
    assert out["error"]["tag"] == "axis_parallel"


def test_ik_near_axis_parallel_gives_coded_rejections(capsys):
    # a 1e-8 rad tool tilt off SC: reduce_pose accepts it and returns q = -0.0
    item = {
        "position": [0.0, 0.0, 0.71],
        "rotation": [
            [0.955336489125606, -0.29552020666133955, -1e-08],
            [0.29552020666133955, 0.955336489125606, 0.0],
            [9.55336489125606e-09, -2.9552020666133954e-09, 1.0],
        ],
        "psi": -3.0,
    }
    rc, out = _run(capsys, ["ik", "--json", json.dumps(item)])
    assert rc == 0
    assert out["count"] + len(out["rejected"]) == 16
    assert "q8_degenerate" in {rej["reason"] for rej in out["rejected"]}


# (field, non-numeric value, error tag) for one `ik` item
NON_NUMERIC_IK = [
    ("psi", "abc", "invalid_input"),
    ("psi", None, "invalid_input"),
    ("position", ["a", 0.1, 0.6], "invalid_input"),
    ("position", [[0.35], [0.1, 0.6]], "invalid_input"),
    ("rotation", [1, "x", 0, 0], "invalid_rotation"),
]


@pytest.mark.parametrize(
    "field, value, tag", NON_NUMERIC_IK,
    ids=["psi_text", "psi_null", "position_text", "position_ragged", "rotation_text"],
)
def test_ik_non_numeric_field(params, capsys, field, value, tag):
    item = _pose_item(params, np.array(Q0), {"psi": 0.3})
    item[field] = value
    rc, out = _run(capsys, ["ik", "--json", json.dumps(item)])
    assert rc == 1
    assert out["error"]["tag"] == tag


def test_ik_batch_non_numeric_items_fail_alone(params, capsys):
    good = _pose_item(params, np.array(Q0), {"psi": arm_angle(params, np.array(Q0))})
    bad = [dict(good, **{field: value}) for field, value, _ in NON_NUMERIC_IK]
    rc, out = _run(capsys, ["ik", "--json", json.dumps([good, *bad, good])])
    assert rc == 1
    assert [o["error"]["tag"] for o in out[1:-1]] == [t for _, _, t in NON_NUMERIC_IK]
    assert out[0]["count"] > 0 and out[-1] == out[0]


def _count_pose_parses(monkeypatch):
    parsed = []
    parse = armik.cli._parse_pose
    monkeypatch.setattr(armik.cli, "_parse_pose", lambda item: parsed.append(1) or parse(item))
    return parsed


def _quat(R):
    # [w, x, y, z] of a rotation matrix whose trace is above -1
    w = 0.5 * math.sqrt(1.0 + R[0][0] + R[1][1] + R[2][2])
    return [w, (R[2][1] - R[1][2]) / (4 * w), (R[0][2] - R[2][0]) / (4 * w),
            (R[1][0] - R[0][1]) / (4 * w)]


# a rotation about y whose signed zero at [1][2] changes the printed solve
Y_ROT = [[-0.4048846562511561, 0.0, 0.9143677679863739], [0.0, 1.0, 0.0],
         [-0.9143677679863739, 0.0, -0.4048846562511561]]
Y_POS = [-0.43728207742923175, 0.0, 0.8603902507148447]


def _reuse_cases(params):
    # (items of one batch, _parse_pose calls that batch makes)
    item = _pose_item(params, np.array(Q0))
    psis = [arm_angle(params, np.array(Q0)) + d for d in (-0.2, -0.1, 0.0, 0.1, 0.2)]
    at = dict(item, psi=psis[0])
    R = item["rotation"]
    neg = [list(r) for r in Y_ROT]
    neg[1][2] = -0.0
    scaled = [[1.001 * v for v in r] for r in R]
    return {
        "matrix_5_psi": ([dict(item, psi=p) for p in psis], 1),
        "flat_5_psi": ([dict(item, rotation=sum(R, []), psi=p) for p in psis], 1),
        "quaternion_5_psi": ([dict(item, rotation=_quat(R), psi=p) for p in psis], 1),
        "signed_zero": ([{"position": Y_POS, "rotation": rot, "psi": -2.0129564011553924}
                         for rot in (Y_ROT, neg, Y_ROT, neg)], 4),
        "int_and_float": ([dict(at, position=pos)
                           for pos in ([1, 0.2, 0.5], [1.0, 0.2, 0.5], [1, 0.2, 0.5])], 1),
        "pose_changes": ([at, dict(at, rotation=[list(c) for c in zip(*R)]), at,
                          dict(at, position=[0.3, 0.2, 0.5])], 4),
        "invalid_repeated": ([dict(item, rotation=scaled, psi=p) for p in psis[:3]], 3),
        "missing_psi_after_pose": ([at, item, dict(item, psi=psis[1])], 1),
    }


@pytest.mark.parametrize("case", [
    "matrix_5_psi", "flat_5_psi", "quaternion_5_psi", "signed_zero", "int_and_float",
    "pose_changes", "invalid_repeated", "missing_psi_after_pose",
])
def test_ik_batch_pose_reuse_matches_one_call_per_item(params, capsys, monkeypatch, case):
    # consecutive items with equal pose JSON share one parse; the batch gives
    # the bytes and exit code of one call per item all the same
    items, parses = _reuse_cases(params)[case]
    singles = []
    for item in items:
        rc = main(["ik", "--json", json.dumps(item)])
        singles.append((rc, capsys.readouterr().out))
    parsed = _count_pose_parses(monkeypatch)
    rc = main(["ik", "--json", json.dumps(items)])
    assert len(parsed) == parses
    assert rc == max(r for r, _ in singles)
    assert capsys.readouterr().out == "[" + ",".join(o[:-1] for _, o in singles) + "]\n"
    if case == "signed_zero":
        assert singles[0] != singles[1]
    if case == "invalid_repeated":
        assert {o for _, o in singles} == {singles[0][1]} and '"invalid_rotation"' in singles[0][1]
    if case == "missing_psi_after_pose":
        assert [r for r, _ in singles] == [0, 1, 0]


def test_quaternion_rows_match_quat_to_mat_bits():
    # _parse_rotation builds a quaternion's rows on floats with the oracle's
    # expressions; every bit matches, signs of zeros included
    rng = np.random.default_rng(31)
    for i in range(12000):
        q = rng.normal(size=4)
        q /= np.linalg.norm(q)
        if i % 2:
            q *= 1.0 + rng.uniform(-9e-10, 9e-10)
        if i % 5 == 0:
            q[rng.integers(4)] = (0.0, -0.0)[i % 3 == 0]
        r = q.tolist()
        n = float(np.linalg.norm(np.array(r)))
        if abs(n - 1.0) > 1e-9:
            continue
        want = armik.verify._quat_to_mat(np.array(r) / n).tolist()
        assert repr([list(row) for row in _parse_rotation(r)]) == repr(want), r


def test_fk_takes_psi_from_its_own_chain(params, capsys, monkeypatch):
    calls = []
    chain = _K.fk_chain
    monkeypatch.setattr(_K, "fk_chain", lambda *a: calls.append(1) or chain(*a))
    items = [{"joints": Q0}, {"joints": [0.0] * 7}]
    rc, out = _run(capsys, ["fk", "--json", json.dumps(items)])
    assert rc == 0 and len(calls) == 2
    assert out[0]["psi"] == arm_angle(params, Q0)
    with pytest.raises(ArmikError) as exc:
        arm_angle(params, [0.0] * 7)
    assert out[1]["psi"] is None and out[1]["psi_error"] == exc.value.tag


@pytest.mark.parametrize(
    "cmd, item",
    [
        ("fk", {"joints": [0, 0, 0, 0, 0, 0, "a"]}),
        ("classify", {"joints": [0, 0, 0, 0, 0, 0, "a"]}),
        ("classify", {"joints": Q0, "hit_tol": "x"}),
    ],
    ids=["fk_joints", "classify_joints", "classify_hit_tol"],
)
def test_joint_commands_non_numeric_field(capsys, cmd, item):
    rc, out = _run(capsys, [cmd, "--json", json.dumps(item)])
    assert rc == 1
    assert out["error"]["tag"] == "invalid_input"


def test_rotation_input_forms(params, capsys):
    pose = forward_kinematics(params, np.array(Q0))
    R = pose.rotation
    # quaternion [w, x, y, z] equivalent to the matrix
    w = 0.5 * math.sqrt(max(0.0, 1.0 + R[0, 0] + R[1, 1] + R[2, 2]))
    x = (R[2, 1] - R[1, 2]) / (4 * w)
    y = (R[0, 2] - R[2, 0]) / (4 * w)
    z = (R[1, 0] - R[0, 1]) / (4 * w)
    psi = arm_angle(params, np.array(Q0))
    base = {"position": list(pose.translation), "psi": psi}
    outs = []
    for rot in (
        [list(r) for r in R],
        list(R.reshape(-1)),
        [w, x, y, z],
    ):
        rc, out = _run(capsys, ["ik", "--json", json.dumps({**base, "rotation": rot})])
        assert rc == 0
        outs.append(out["count"])
    assert outs[0] == outs[1] == outs[2]


def test_arm_angle_cmd(params, capsys):
    rc, out = _run(capsys, ["arm-angle", "--json", json.dumps({"joints": Q0})])
    assert rc == 0
    assert abs(out["psi"] - arm_angle(params, np.array(Q0))) < 1e-15


def test_classify_cmd(params, capsys):
    q = [0.3, -1.0, 0.5, 0.0, 0.7, -0.9, 1.1]
    rc, out = _run(
        capsys,
        ["classify", "--json", json.dumps({"joints": q, "with_jacobian": True})],
    )
    assert rc == 0
    names = [h["condition"] for h in out["kinematic_hits"]]
    assert "elbow_straight" in names
    assert out["min_singular_value"] < 1e-6
    assert out["distances"]["elbow_straight"] == 0.0


def test_sweep_cmd(params, capsys):
    item = _pose_item(params, np.array(Q0), {"start": -0.4, "stop": 0.4, "count": 5})
    rc, out = _run(capsys, ["sweep", "--json", json.dumps(item)])
    assert rc == 0
    assert len(out["psi_grid"]) == 5 and len(out["results"]) == 5
    psi0 = arm_angle(params, np.array(Q0))
    for row in out["results"]:
        assert "count" in row
        if abs(row["psi"] - psi0) < 1e-9:
            assert row["count"] > 0


def test_sweep_exit_code_counts_failed_points(capsys):
    # every grid point of this pose raises axis_parallel
    item = {"position": [0, 0, 0.86], "rotation": [1, 0, 0, 0], "start": 0, "stop": 1, "count": 2}
    rc, out = _run(capsys, ["sweep", "--json", json.dumps(item)])
    assert [row["error"]["tag"] for row in out["results"]] == ["axis_parallel"] * 2
    assert rc == 2


SWEEP_POSE = {"position": [0.35, 0.1, 0.6], "rotation": [[1, 0, 0], [0, 0, -1], [0, 1, 0]]}


def _sweep_text(start, stop, count):
    # raw JSON text, so that NaN and 1e400 reach the parser as written
    pose = json.dumps(SWEEP_POSE)[1:-1]
    return "{%s, \"start\": %s, \"stop\": %s, \"count\": %s}" % (pose, start, stop, count)


def _no_linspace(monkeypatch):
    calls = []

    def linspace(*args, **kwargs):
        calls.append(args)
        raise AssertionError("np.linspace reached")

    monkeypatch.setattr(np, "linspace", linspace)
    return calls


def _assert_sweep_rejected(capsys, monkeypatch, start, stop, count):
    calls = _no_linspace(monkeypatch)
    rc, out = _run(capsys, ["sweep", "--json", _sweep_text(start, stop, count)])
    assert rc == 1
    assert out["error"]["tag"] == "invalid_input"
    assert calls == []


def test_sweep_rejects_nan_start(capsys, monkeypatch):
    _assert_sweep_rejected(capsys, monkeypatch, "NaN", "0.5", "3")


def test_sweep_rejects_overflowing_count(capsys, monkeypatch):
    _assert_sweep_rejected(capsys, monkeypatch, "-0.5", "0.5", "1e400")


def test_sweep_rejects_huge_count(capsys, monkeypatch):
    _assert_sweep_rejected(capsys, monkeypatch, "-0.5", "0.5", "1e12")


def test_sweep_rejects_overflowing_span(capsys, monkeypatch):
    _assert_sweep_rejected(capsys, monkeypatch, "-1e308", "1e308", "3")


def test_sweep_rejects_non_integral_count(capsys, monkeypatch):
    for count in ("2.5", '"5"', "true", "null", "[3]"):
        _assert_sweep_rejected(capsys, monkeypatch, "-0.5", "0.5", count)


def test_sweep_accepts_integral_float_count(capsys, monkeypatch):
    calls = _no_linspace(monkeypatch)
    with pytest.raises(AssertionError, match="linspace reached"):
        main(["sweep", "--json", _sweep_text("-0.5", "0.5", "3.0")])
    assert calls == [(-0.5, 0.5, 3)] and type(calls[0][2]) is int


def test_sweep_count_limit(capsys, monkeypatch):
    from armik.cli import SWEEP_MAX_COUNT

    _assert_sweep_rejected(capsys, monkeypatch, "-0.5", "0.5", str(SWEEP_MAX_COUNT + 1))
    # the limit itself is accepted and reaches the grid
    calls = _no_linspace(monkeypatch)
    with pytest.raises(AssertionError, match="linspace reached"):
        main(["sweep", "--json", _sweep_text("-0.5", "0.5", str(SWEEP_MAX_COUNT))])
    assert calls == [(-0.5, 0.5, SWEEP_MAX_COUNT)]


def test_batch_input(params, capsys):
    items = [{"joints": Q0}, {"joints": [0.0] * 7}]
    rc, out = _run(capsys, ["fk", "--json", json.dumps(items)])
    assert rc == 0
    assert isinstance(out, list) and len(out) == 2
    # one failing item poisons the exit code but not the other results
    items = [{"joints": Q0}, {"joints": [0.0] * 3}]
    rc, out = _run(capsys, ["fk", "--json", json.dumps(items)])
    assert rc == 1
    assert "pose" in out[0] and out[1]["error"]["tag"] == "invalid_input"


def test_stdin_and_output_file(params, capsys, tmp_path, monkeypatch):
    import io

    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps({"joints": Q0})))
    rc, out = _run(capsys, ["fk", "-"])
    assert rc == 0 and "pose" in out

    dst = tmp_path / "out.json"
    rc = main(["fk", "--json", json.dumps({"joints": Q0}), "--output", str(dst)])
    assert rc == 0
    assert capsys.readouterr().out == ""
    disk = json.loads(dst.read_text())
    assert_allclose(disk["pose"]["position"], out["pose"]["position"], atol=0)


def test_byte_determinism(params, capsys):
    psi = arm_angle(params, np.array(Q0))
    item = _pose_item(params, np.array(Q0), {"psi": psi})
    argv = ["ik", "--json", json.dumps(item)]
    main(argv)
    first = capsys.readouterr().out
    main(argv)
    second = capsys.readouterr().out
    assert first == second
    # floats carry 17 significant digits so parsing is lossless
    reparsed = json.loads(first)
    br = reparsed["branches"][0]
    assert br["joints"][0] == float(repr(br["joints"][0]))


def test_custom_params_file(params, capsys, tmp_path):
    pfile = tmp_path / "robot.json"
    pfile.write_text(json.dumps(params.to_dict()))
    rc, out = _run(
        capsys,
        ["--params", str(pfile), "fk", "--json", json.dumps({"joints": [0.0] * 7})],
    )
    assert rc == 0
    want = forward_kinematics(params, np.zeros(7))
    assert_allclose(out["pose"]["position"], want.translation, atol=0)
    rc = main(["--params", str(tmp_path / "missing.json"), "fk", "--json", "{}"])
    assert rc == 1


_UNREADABLE = {
    "utf16_bom": b"\xff\xfe[]",
    "latin1": '{"pad": "\u00e9"}'.encode("latin-1"),
    "huge_integer": b"[1" + b"0" * 5000 + b"]",
}


@pytest.mark.parametrize("case", sorted(_UNREADABLE))
def test_unreadable_params_file_is_a_coded_error(capsys, tmp_path, case):
    pfile = tmp_path / "robot.json"
    pfile.write_bytes(_UNREADABLE[case])
    rc = main(["--params", str(pfile), "ik", "--json", "{}"])
    assert rc == 1
    assert json.loads(capsys.readouterr().err)["error"]["tag"] == "invalid_params"


@pytest.mark.parametrize("case", sorted(_UNREADABLE) + ["nul_in_path"])
def test_unreadable_input_file_is_a_coded_error(capsys, tmp_path, case):
    src = tmp_path / "in.json"
    if case == "nul_in_path":
        path = str(src) + "\0"
    else:
        src.write_bytes(_UNREADABLE[case])
        path = str(src)
    rc = main(["ik", path])
    assert rc == 1
    assert json.loads(capsys.readouterr().err)["error"]["tag"] == "invalid_input"


def test_calls_through_one_parser_leak_no_state(params, capsys, tmp_path, monkeypatch):
    fk_zero = ["fk", "--json", json.dumps({"joints": [0.0] * 7})]
    rc, want = _run(capsys, fk_zero)
    assert rc == 0
    # --output, then stdout
    dst = tmp_path / "out.json"
    assert main(fk_zero + ["--output", str(dst)]) == 0
    assert capsys.readouterr().out == ""
    assert json.loads(dst.read_text()) == want
    dst.unlink()
    assert _run(capsys, fk_zero) == (0, want)
    assert not dst.exists()
    # --params FILE, then the built-in set
    pfile = tmp_path / "robot.json"
    pfile.write_text(json.dumps(dataclasses.replace(params, d_bs=0.5, mdh=None).to_dict()))
    rc, other = _run(capsys, ["--params", str(pfile)] + fk_zero)
    assert rc == 0 and other["frame_points"]["shoulder"] == [0.0, 0.0, 0.5]
    assert _run(capsys, fk_zero) == (0, want)
    # an argparse error, then a good call
    with pytest.raises(SystemExit) as exc:
        main(["fk", "--no-such-flag"])
    assert exc.value.code == 2
    assert "--no-such-flag" in capsys.readouterr().err
    assert _run(capsys, fk_zero) == (0, want)
    # one call's last pose is parsed again by the next call
    parsed = _count_pose_parses(monkeypatch)
    ik = _ik_argv(params)
    first = _run(capsys, ik)
    assert len(parsed) == 1
    assert _run(capsys, ik) == first and len(parsed) == 2


def test_params_file_is_read_on_every_call(params, capsys, tmp_path):
    pfile = tmp_path / "robot.json"
    argv = ["--params", str(pfile), "fk", "--json", json.dumps({"joints": [0.0] * 7})]
    for d_bs in (0.3, 0.45):
        pfile.write_text(json.dumps(dataclasses.replace(params, d_bs=d_bs, mdh=None).to_dict()))
        rc, out = _run(capsys, argv)
        assert rc == 0 and out["frame_points"]["shoulder"] == [0.0, 0.0, d_bs]


def test_check_cmd(params, capsys):
    rc, out = _run(capsys, ["check", "--n", "40", "--seed", "0"])
    assert rc == 0
    assert out["passed"] is True
    assert out["max_error"] < 1e-8


def _fk_oracle_shifted(fn):
    def shifted(params, Q):
        R, p = fn(params, Q)
        return R, p + 1e-9
    return shifted


def _quartic_oracle_shifted(fn):
    def shifted(coeffs):
        roots, mult = fn(coeffs)
        return roots + 1e-6, mult
    return shifted


@pytest.mark.parametrize("name, wrap", [("fk_oracle_batch", _fk_oracle_shifted),
                                        ("quartic_oracle", _quartic_oracle_shifted)])
def test_check_cmd_reports_a_failed_comparison(capsys, monkeypatch, name, wrap):
    # check_all's verdict and deviations must be Python values, the only
    # ones the JSON writer serializes
    monkeypatch.setattr(armik.verify, name, wrap(getattr(armik.verify, name)))
    rc = main(["check", "--n", "5"])
    text = capsys.readouterr().out
    assert rc == 2
    assert '"passed":false' in text
    assert json.loads(text)["passed"] is False


def test_module_invocation_smoke():
    out = subprocess.run(
        [
            sys.executable,
            "-m",
            "armik.cli",
            "arm-angle",
            "--json",
            json.dumps({"joints": Q0}),
        ],
        capture_output=True,
        text=True,
    )
    assert out.returncode == 0, out.stderr
    psi = json.loads(out.stdout)["psi"]
    assert abs(psi - arm_angle(default_params(), np.array(Q0))) < 1e-15


def test_deeply_nested_input_is_invalid_input(capsys):
    # json.loads recurses once per nesting level and raises RecursionError
    nested = "[" * 100000 + "]" * 100000
    assert main(["ik", "--json", nested]) == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"]["tag"] == "invalid_input"


def test_deeply_nested_params_file_is_invalid_params(capsys, tmp_path):
    pfile = tmp_path / "robot.json"
    pfile.write_text("[" * 100000 + "]" * 100000)
    assert main(["--params", str(pfile), "fk", "--json", json.dumps({"joints": [0.0] * 7})]) == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"]["tag"] == "invalid_params"


def test_params_file_past_the_overflow_cut_off_is_invalid_params(capsys, tmp_path):
    pfile = tmp_path / "robot.json"
    pfile.write_text(json.dumps({"d_bs": 0.36e160, "d_se": 0.42e160, "d_ew": 0.4e160,
                                 "a_wr": 0.05e160}))
    item = json.dumps({"joints": [0.4, -1.2, 0.5, 1.1, -0.3, 0.9, 0.2]})
    for command in ("fk", "arm-angle"):
        assert main(["--params", str(pfile), command, "--json", item]) == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"]["tag"] == "invalid_params"


def _ik_argv(params):
    item = _pose_item(params, np.array(Q0), {"psi": arm_angle(params, np.array(Q0))})
    return ["ik", "--json", json.dumps([item, item])]


@pytest.mark.parametrize("before", [None, b"x" * 100000, b"{}"], ids=["new", "longer", "shorter"])
def test_output_file_is_rewritten_in_place(params, capsys, tmp_path, before):
    # --output overwrites the file and cuts it to length: its bytes are the
    # bytes the same call writes to stdout, whatever the file held before
    argv = _ik_argv(params)
    assert main(argv) == 0
    want = capsys.readouterr().out.encode()
    dst = tmp_path / "out.json"
    if before is not None:
        dst.write_bytes(before)
    old = os.umask(0o002)
    try:
        assert main(argv + ["--output", str(dst)]) == 0
        ref = tmp_path / "ref.json"
        with open(ref, "w"):
            pass
    finally:
        os.umask(old)
    assert capsys.readouterr().out == ""
    assert dst.read_bytes() == want
    if before is None:
        assert stat.S_IMODE(dst.stat().st_mode) == stat.S_IMODE(ref.stat().st_mode) == 0o664


def test_output_to_devnull(params, capsys):
    # not a regular file: written, never cut
    assert main(_ik_argv(params) + ["--output", os.devnull]) == 0
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("argv", [
    ["ik", "--json", json.dumps({"position": [0.3, 0.1, 0.5], "rotation": [1, 0, 0, 0], "psi": 0.2})],
    ["fk", "--json", json.dumps({"joints": Q0})],
    ["arm-angle", "--json", json.dumps({"joints": Q0})],
    ["classify", "--json", json.dumps({"joints": Q0})],
    ["sweep", "--json", json.dumps({"position": [0.3, 0.1, 0.5], "rotation": [1, 0, 0, 0],
                                    "start": 0.0, "stop": 1.0, "count": 2})],
    ["check", "--n", "2"],
], ids=lambda argv: argv[0])
@pytest.mark.parametrize("where", ["missing_dir", "directory"])
def test_unwritable_output_is_invalid_input(capsys, tmp_path, argv, where):
    dst = tmp_path / "no_such_dir" / "out.json" if where == "missing_dir" else tmp_path
    assert main(argv + ["--output", str(dst)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    err = json.loads(captured.err)["error"]
    assert err["tag"] == "invalid_input"
    assert err["message"].startswith("cannot write output: ")


@pytest.mark.parametrize("argv", [
    ["check", "--n", "-3"],
    ["check", "--n", "0"],
    ["check", "--seed", "-1"],
    ["check", "--n", "0", "--seed", "-1"],
], ids=["n_negative", "n_zero", "seed_negative", "both"])
def test_check_rejects_bad_n_and_seed(capsys, monkeypatch, argv):
    # rejected before the self-test runs: a negative n or seed crashed in
    # numpy, and n = 0 reported a pass after checking nothing
    def never(*args, **kwargs):
        raise AssertionError("check_all ran")
    monkeypatch.setattr(armik.verify, "check_all", never)
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert json.loads(captured.err)["error"]["tag"] == "invalid_input"


@pytest.mark.parametrize("extra", [
    {"with_jacobian": "no"},
    {"with_jacobian": 1},
    {"with_jacobian": 0},
    {"with_jacobian": None},
    {"with_jacobian": "true"},
    {"hit_tol": math.nan},
    {"hit_tol": 0.0},
    {"hit_tol": -1e-3},
    {"hit_tol": math.inf},
    {"hit_tol": True},
    {"hit_tol": "0.1"},
    {"hit_tol_m": math.nan},
    {"hit_tol_m": 0},
    {"hit_tol_m": -1.0},
    {"hit_tol_m": None},
], ids=lambda e: "%s=%r" % next(iter(e.items())))
def test_classify_cmd_rejects_bad_options(capsys, extra):
    rc, out = _run(capsys, ["classify", "--json", json.dumps({"joints": Q0, **extra})])
    assert rc == 1
    assert out["error"]["tag"] == "invalid_input"


def test_classify_cmd_takes_json_booleans(capsys):
    got = {}
    for flag in (True, False):
        rc, out = _run(capsys, ["classify", "--json",
                                json.dumps({"joints": Q0, "with_jacobian": flag})])
        assert rc == 0
        got[flag] = out["min_singular_value"]
    assert got[True] > 0.0 and got[False] is None


# Reference renderer of an `ik` result: every branch printed in full from
# one template, with no fragment shared between branches
_BRANCH_JSON = (
    '{"label":"%s","joints":[%.17g,%.17g,%.17g,%.17g,%.17g,%.17g,%.17g],'
    '"root_index":%d,"q4_sign":%d,"q2_sign":%d,"t6":%.17g,"r6":%.17g,"q8":%.17g,'
    '"residuals":{"pose_error":%.17g,"arm_eq_residual":%.17g,"pose_eq_residual":%.17g}}'
)


def _reference_json(res):
    branches = [
        _BRANCH_JSON % (b.label, *b.joints._q, b.root_index, b.q4_sign, b.q2_sign,
                        b.t6, b.r6, b.q8, b.pose_error, b.arm_eq_residual, b.pose_eq_residual)
        for b in res.branches
    ]
    rejected = [armik.cli._fmt({"branch": r.label, "reason": r.reason, "category": r.category})
                for r in res.rejected]
    return '{"count":%d,"branches":[%s],"rejected":[%s]}' % (
        len(branches), ",".join(branches), ",".join(rejected))


def _real_solves(params):
    # roundtrip-, workcell- and cli_batch-style requests, 120 of each
    rng = np.random.default_rng(2024)
    requests = []
    for _ in range(120):
        q = sample_far_joints(rng, params)
        requests.append((forward_kinematics(params, q), arm_angle(params, q)))
    for _ in range(120):
        R = np.linalg.qr(rng.normal(size=(3, 3)))[0]
        R *= np.linalg.det(R)
        p = rng.uniform((-1.0, -1.0, -0.5), (1.0, 1.0, 1.3))
        requests.append((Transform(R, p), rng.uniform(-math.pi, math.pi)))
    for _ in range(24):
        q = sample_far_joints(rng, params)
        pose, psi = forward_kinematics(params, q), arm_angle(params, q)
        requests += [(pose, psi + d) for d in (-0.2, -0.1, 0.0, 0.1, 0.2)]
    out = []
    for pose, psi in requests:
        try:
            out.append(solve(IkRequest(pose=pose, psi=psi, params=params)))
        except ArmikError:
            pass
    return out


def test_solution_set_bytes_match_one_template_per_branch(params):
    solves = _real_solves(params)
    assert len(solves) >= 300
    shared = 0
    for res in solves:
        assert armik.cli._fmt(res) == _reference_json(res)
        for a, b in zip(res.branches, res.branches[1:]):
            shared += a.root_index == b.root_index and a.t6 is b.t6
    # the premise of the reuse: solve hands a slot's leaves the same floats
    assert shared > len(solves)


def _fresh(v):
    # an equal float that is a different object
    f = float.fromhex(v.hex())
    assert f is not v
    return f


def _edit(b, **fields):
    # a copy of branch b with fields replaced; joints as a 7-list
    q = list(b.joints._q)
    for i, v in fields.pop("joints", {}).items():
        q[i] = v
    return dataclasses.replace(b, joints=JointConfig(q), **fields)


def _solve_q0(params):
    # a solve of Q0's pose whose first root slot has all 4 leaves
    res = solve(IkRequest(pose=forward_kinematics(params, np.array(Q0)),
                          psi=arm_angle(params, np.array(Q0)), params=params))
    assert [b.root_index for b in res.branches[:4]] == [res.branches[0].root_index] * 4
    return res


def _hand_built_sets(params):
    res = _solve_q0(params)
    br = res.branches
    shared = ("t6", "r6", "q8", "arm_eq_residual", "pose_eq_residual")
    distinct = [_edit(b, joints={i: _fresh(b.joints._q[i]) for i in range(7)},
                      **{k: _fresh(getattr(b, k)) for k in shared}) for b in br]
    # adjacent leaves of one root (and one elbow pair) whose shared floats
    # are 0.0 and -0.0, which compare equal and print apart
    zero = 0.0
    residual = [_edit(br[0], arm_eq_residual=zero), _edit(br[1], arm_eq_residual=-zero)]
    residual += [dataclasses.replace(b, arm_eq_residual=residual[1].arm_eq_residual)
                 for b in br[2:4]]
    pose_res = [_edit(br[0], pose_eq_residual=-zero), _edit(br[1], pose_eq_residual=zero)]
    q5 = [_edit(br[0], joints={4: zero}), _edit(br[1], joints={4: -zero})]
    q7 = [_edit(br[0], joints={6: -zero}), _edit(br[1], joints={6: zero}),
          _edit(br[2], joints={6: zero})]
    # solves whose branches are unread: armik ik prints the kernel's rows
    unread = solve(IkRequest(pose=forward_kinematics(params, np.array(Q0)),
                             psi=arm_angle(params, np.array(Q0)), params=params))
    reach = params.d_se + params.d_ew + params.a_wr
    unread_none = solve(IkRequest(pose=special_pose(params, reach + 0.05, -1.3, 0.2), psi=0.4,
                                  params=params))
    assert "branches" not in vars(unread) and "branches" not in vars(unread_none)
    # rejections equal to the kernel's shared records but not the same objects
    foreign = [RejectedBranch(r.label, r.leaf, r.reason, r.category) for r in res.rejected]
    foreign.append(RejectedBranch("root9/q4+/q2+", 36, "made_up", "other"))
    edited = _solve_q0(params)
    eb = edited.branches
    eb[1].t6 = 0.25
    eb[2].joints = JointConfig([*eb[2].joints._q[:4], 0.5, *eb[2].joints._q[5:]])
    eb[3].root_index = 3
    eb[5].q4_sign = -1
    eb[6].pose_eq_residual = eb[6].pose_eq_residual * 2.0
    return {
        "distinct_equal_floats": SolutionSet(distinct, res.rejected),
        "signed_zero_arm_residual": SolutionSet(residual, []),
        "signed_zero_pose_residual": SolutionSet(pose_res, []),
        "signed_zero_q5": SolutionSet(q5, []),
        "signed_zero_q7": SolutionSet(q7, []),
        "edited_after_solve": edited,
        "reversed": SolutionSet(br[::-1], res.rejected),
        "interleaved": SolutionSet(sorted(br, key=lambda b: (b.q2_sign, b.q4_sign)), []),
        "one_branch": SolutionSet(br[2:3], res.rejected[:1]),
        "empty": SolutionSet([], []),
        "only_rejected": SolutionSet([], res.rejected),
        "unread_solve": unread,
        "unread_no_branch": unread_none,
        "foreign_rejections": SolutionSet(br[:1], foreign),
    }


@pytest.mark.parametrize("case", [
    "distinct_equal_floats", "signed_zero_arm_residual", "signed_zero_pose_residual",
    "signed_zero_q5", "signed_zero_q7", "edited_after_solve", "reversed", "interleaved",
    "one_branch", "empty", "only_rejected", "unread_solve", "unread_no_branch",
    "foreign_rejections",
])
def test_hand_built_solution_set_bytes(params, case):
    # fragments are reused on the identity of the printed objects, never on
    # equal values or on root_index and q4_sign alone
    res = _hand_built_sets(params)[case]
    text = armik.cli._fmt(res)
    assert text == _reference_json(res)
    assert json.loads(text)["count"] == len(res.branches)
    if case.startswith("signed_zero"):
        assert '-0,' in text or '-0]' in text or '-0}' in text


def test_only_the_kernels_shared_rejections_are_cached(params):
    res = _hand_built_sets(params)["foreign_rejections"]
    armik.cli._fmt(res)
    shared = [r for recs in _K.LEAF_REJ.values() for r in recs]
    assert all(id(r) not in armik.cli._REJECTED_JSON for r in res.rejected)
    assert set(armik.cli._REJECTED_JSON) <= set(map(id, shared))


def _golden_solves(params):
    with open(os.path.join(os.path.dirname(__file__), "data", "golden_solve.json")) as f:
        cases = json.load(f)["cases"]
    for case in cases:
        try:
            yield solve(IkRequest(pose=Transform(np.reshape(case["R"], (3, 3)), case["p"]),
                                  psi=case["psi"], params=params))
        except ArmikError:
            pass


def _seen_unbuilt(res):
    return len(res), res.joints_array().tobytes(), armik.cli._fmt(res)


def test_unread_and_built_solution_sets_read_the_same(params):
    n = 0
    for res in _golden_solves(params):
        before = _seen_unbuilt(res)
        assert "branches" not in vars(res)
        branches = res.branches
        assert "branches" in vars(res) and res.branches is branches
        assert _seen_unbuilt(res) == before
        assert before[2] == _reference_json(res)
        n += bool(branches)
    assert n >= 100
