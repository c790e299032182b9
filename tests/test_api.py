import json
import re
from pathlib import Path

import armik
import armik.cli
from armik._kernels_impl import COMPLEX_PAIR_TOL, DEGREE_TOL, ROOT_MERGE_TOL
from conftest import special_pose


def test_all_names_resolve_once():
    missing = [name for name in armik.__all__ if not hasattr(armik, name)]
    assert not missing
    assert len(set(armik.__all__)) == len(armik.__all__)


def test_star_import():
    ns = {}
    exec("from armik import *", ns)
    assert set(armik.__all__) <= set(ns)


def test_public_names_are_documented():
    # armik exports what the README names in code
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    parts = readme.split("```")
    code = parts[1::2] + [span for prose in parts[::2] for span in re.findall(r"`([^`]+)`", prose)]
    named = set(re.findall(r"[A-Za-z_]\w*", " ".join(code)))
    assert sorted(set(armik.__all__) - named) == []


def test_one_kernel_module():
    # perfbench wraps kernel attributes on armik._kernels.active and records
    # armik.BACKEND; ik_solve_core must resolve its helpers in that module
    assert armik._kernels.active is armik._kernels_impl
    assert armik.BACKEND == "pure"
    assert armik.ik_core._K.ik_solve_core.__globals__ is vars(armik._kernels.active)


def test_perfbench_trace_contract(params, monkeypatch, tmp_path):
    # perfbench --trace 1 counts real roots as int(solve_quartic_core(...)[0]),
    # times reduce_pose and _assemble by wrapping them on armik.ik_core,
    # tallies every rejection by its reason under REASON_NAMES, and times
    # armik ik's layers by replacing armik.cli attributes with plain functions
    count = armik._kernels.active.solve_quartic_core(
        1.0, -10.0, 35.0, -50.0, 24.0, DEGREE_TOL, ROOT_MERGE_TOL, COMPLEX_PAIR_TOL)[0]
    assert type(count) is int and count == 4
    calls = {"reduce_pose": 0, "_assemble": 0}

    def counting(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    for name in calls:
        monkeypatch.setattr(armik.ik_core, name, counting(name, getattr(armik.ik_core, name)))
    reach = params.d_se + params.d_ew + params.a_wr
    for d_sc, psi in ((0.5, 0.3), (0.7, -2.0), (reach + 0.05, 0.4)):
        calls.update(dict.fromkeys(calls, 0))
        res = armik.solve(armik.IkRequest(pose=special_pose(params, d_sc, -1.3, 0.2),
                                          psi=psi, params=params))
        assert calls == {"reduce_pose": 1, "_assemble": 1}
        assert res.rejected
        assert all(r.reason in armik.REASON_NAMES.values() for r in res.rejected)

    items = []
    for q, flat in (([0.4, -1.2, 0.5, 1.1, -0.3, 0.9, 0.2], False),
                    ([-0.7, 0.6, 1.9, -1.4, 0.8, -0.5, 1.2], True)):
        pose = armik.forward_kinematics(params, q)
        rot = pose.rotation.reshape(-1) if flat else pose.rotation
        items.append({"position": pose.translation.tolist(), "rotation": rot.tolist(),
                      "psi": armik.arm_angle(params, q)})
    src, out = tmp_path / "in.json", tmp_path / "out.json"
    src.write_text(json.dumps(items))
    argv = ["ik", str(src), "--output", str(out)]
    assert armik.cli.main(argv) == 0
    want = out.read_bytes()
    out.unlink()
    monkeypatch.undo()
    calls = dict.fromkeys(("Transform", "_parse_pose", "_read_input", "_write_output", "_fmt"), 0)
    for name in calls:
        monkeypatch.setattr(armik.cli, name, counting(name, getattr(armik.cli, name)))
    assert armik.cli.main(argv) == 0
    assert out.read_bytes() == want
    assert calls.pop("_fmt") >= 1
    assert calls == {"Transform": 2, "_parse_pose": 2, "_read_input": 1, "_write_output": 1}
