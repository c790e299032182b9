import dataclasses
import json
import math
import subprocess
import sys

import numpy as np
import pytest
from numpy.testing import assert_allclose

from armik import arm_angle, default_params, fk_oracle, forward_kinematics
from armik.cli import main


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


def test_calls_through_one_parser_leak_no_state(params, capsys, tmp_path):
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
