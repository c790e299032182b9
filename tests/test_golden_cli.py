"""Golden regression: the armik CLI's exact output bytes.

The fixture holds, for each case, the argv given to `armik.cli.main`, the
bytes it wrote to stdout and stderr, and its exit code. Cases cover an `ik`
batch (round trips, box goals, far poses, the three rotation encodings and
one malformed item per error tag), single `ik` items with each exit code,
`fk`, `arm-angle`, `classify` with and without the Jacobian, a valid `sweep`
and `check --n 20`. Formatter and CLI rewrites must reproduce every byte.

Regenerate the fixture (only when an output change is intended) with

    PYTHONPATH=src python3 tests/test_golden_cli.py [--seed 4242]

which records the git commit of the armik sources that produced it.
"""

import argparse
import contextlib
import io
import json
import math
import os
import subprocess

import numpy as np

import armik
from armik import ArmikError
from armik.cli import main
from armik.verify import _quat_to_mat, fk_oracle
from conftest import sample_far_joints

FIXTURE = os.path.join(os.path.dirname(__file__), "data", "golden_cli.json")
# workcell box around the base (meters)
BOX_LO = (-1.0, -1.0, -0.5)
BOX_HI = (1.0, 1.0, 1.3)


def run_cli(argv):
    """(stdout, stderr, exit code) of one in-process `armik` call."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return out.getvalue(), err.getvalue(), code


def _quat(R):
    """Unit quaternion [w, x, y, z] of a rotation matrix (Shepperd's method)."""
    m = np.asarray(R)
    tr = m[0, 0] + m[1, 1] + m[2, 2]
    if tr > 0:
        s = 2.0 * math.sqrt(1.0 + tr)
        q = [0.25 * s, (m[2, 1] - m[1, 2]) / s, (m[0, 2] - m[2, 0]) / s,
             (m[1, 0] - m[0, 1]) / s]
    else:
        i = int(np.argmax(np.diag(m)))
        j, k = (i + 1) % 3, (i + 2) % 3
        s = 2.0 * math.sqrt(1.0 + m[i, i] - m[j, j] - m[k, k])
        q = [0.0] * 4
        q[0] = (m[k, j] - m[j, k]) / s
        q[1 + i] = 0.25 * s
        q[1 + j] = (m[j, i] + m[i, j]) / s
        q[1 + k] = (m[k, i] + m[i, k]) / s
    n = math.sqrt(sum(v * v for v in q))
    return [v / n for v in q]


def _encode(R, enc):
    if enc == 0:
        return np.asarray(R).tolist()
    if enc == 1:
        return np.ravel(R).tolist()
    return _quat(R)


def _pose_item(R, p, psi, enc):
    return {"position": [float(v) for v in p], "rotation": _encode(R, enc), "psi": float(psi)}


def _far_config(rng, params):
    while True:
        q = sample_far_joints(rng, params)
        try:
            return q, armik.arm_angle(params, q)
        except ArmikError:
            continue


def _ik_batch(rng, params):
    items = []
    for k in range(6):
        q, psi = _far_config(rng, params)
        pose = fk_oracle(params, q)
        for off in (0.0, 0.3):
            enc = (k + len(items)) % 3
            items.append(_pose_item(pose.rotation, pose.translation, psi + off, enc))
    for k in range(6):
        w, x, y, z = rng.normal(size=4)
        n = math.sqrt(w * w + x * x + y * y + z * z)
        R = _quat_to_mat(np.array([w, x, y, z]) / n)
        p = rng.uniform(BOX_LO, BOX_HI)
        items.append(_pose_item(R, p, rng.uniform(-math.pi, math.pi), k % 3))
    q, psi = _far_config(rng, params)
    pose = fk_oracle(params, q)
    for scale in (1e154, 1e200, 1e300):
        items.append(_pose_item(pose.rotation, scale * pose.translation, psi, 0))
    R, p = pose.rotation, [float(v) for v in pose.translation]
    eye = np.eye(3).tolist()
    malformed = [
        # invalid_input
        {"position": p, "rotation": R.tolist()},
        {"position": p[:2], "rotation": R.tolist(), "psi": 0.0},
        {"rotation": R.tolist(), "psi": 0.0},
        {"position": p, "rotation": R.tolist(), "psi": float("nan")},
        42,
        # invalid_rotation
        {"position": p, "rotation": [1.0, 0.1, 0.0, 0.0], "psi": 0.0},
        {"position": p, "rotation": (1.001 * R).tolist(), "psi": 0.0},
        {"position": p, "rotation": [1.0, 0.0, 0.0], "psi": 0.0},
        # zero_sc and axis_parallel
        {"position": [0.0, 0.0, params.d_bs], "rotation": eye, "psi": 0.0},
        {"position": [0.0, 0.0, params.d_bs + 0.5], "rotation": eye, "psi": 0.3},
    ]
    for bad in malformed:
        items.insert(int(rng.integers(0, len(items) + 1)), bad)
    return items


def generate_cases(seed):
    """(name, argv) of every recorded case."""
    params = armik.default_params()
    rng = np.random.default_rng(seed)
    cases = [("ik_batch", ["ik", "--json", json.dumps(_ik_batch(rng, params))])]

    q, psi = _far_config(rng, params)
    pose = fk_oracle(params, q)
    one = _pose_item(pose.rotation, pose.translation, psi, 2)
    cases.append(("ik_single", ["ik", "--json", json.dumps(one)]))
    eye = np.eye(3).tolist()
    degenerate = {"position": [0.0, 0.0, params.d_bs + 0.5], "rotation": eye, "psi": 0.3}
    cases.append(("ik_single_degenerate", ["ik", "--json", json.dumps(degenerate)]))
    cases.append(("ik_not_json", ["ik", "--json", "{not json"]))

    joints = [rng.uniform(-math.pi, math.pi, 7).tolist() for _ in range(4)]
    joints.append([0.0] * 7)
    fk_items = [{"joints": j} for j in joints] + [{"joints": [0.0] * 3}]
    cases.append(("fk_batch", ["fk", "--json", json.dumps(fk_items)]))
    cases.append(("arm_angle_batch", ["arm-angle", "--json", json.dumps(fk_items)]))
    zero = json.dumps({"joints": [0.0] * 7})
    cases.append(("arm_angle_degenerate", ["arm-angle", "--json", zero]))

    singular = [0.3, -1.0, 0.5, 0.0, 0.7, -0.9, 1.1]
    cls_items = [{"joints": j} for j in joints[:2] + [singular]]
    cases.append(("classify", ["classify", "--json", json.dumps(cls_items)]))
    jac_items = [{**it, "with_jacobian": True} for it in cls_items]
    cases.append(("classify_jacobian", ["classify", "--json", json.dumps(jac_items)]))

    sweep = _pose_item(pose.rotation, pose.translation, psi, 0)
    del sweep["psi"]
    sweep.update({"start": psi - 0.5, "stop": psi + 0.5, "count": 7})
    cases.append(("sweep", ["sweep", "--json", json.dumps(sweep)]))
    cases.append(("check", ["check", "--n", "20"]))
    return cases


def generate(seed):
    cases = []
    for name, argv in generate_cases(seed):
        out, err, code = run_cli(argv)
        cases.append({"name": name, "argv": argv, "stdout": out, "stderr": err, "code": code})
    src = os.path.dirname(os.path.abspath(armik.__file__))
    commit = subprocess.run(
        ["git", "-C", src, "rev-parse", "HEAD"], capture_output=True, text=True
    ).stdout.strip()
    return {"commit": commit, "seed": seed, "cases": cases}


def _load():
    with open(FIXTURE) as f:
        return json.load(f)


def test_golden_cli_fixture_covers_commands_and_exit_codes():
    cases = {c["name"]: c for c in _load()["cases"]}
    commands = {c["argv"][0] for c in cases.values()}
    assert commands == {"ik", "fk", "arm-angle", "classify", "sweep", "check"}
    assert {c["code"] for c in cases.values()} == {0, 1, 2}
    batch = json.loads(cases["ik_batch"]["stdout"])
    tags = {r["error"]["tag"] for r in batch if "error" in r}
    assert tags == {"invalid_input", "invalid_rotation", "zero_sc", "axis_parallel"}
    items = json.loads(cases["ik_batch"]["argv"][2])
    shapes = {np.shape(it["rotation"]) for it in items if isinstance(it, dict) and "rotation" in it}
    assert shapes >= {(3, 3), (9,), (4,)}
    assert any(r.get("count", 0) > 0 for r in batch)
    assert any(r.get("count", -1) == 0 for r in batch)


def test_golden_cli_bytes_match_fixture():
    mismatched = []
    for case in _load()["cases"]:
        out, err, code = run_cli(case["argv"])
        if (out.encode(), err.encode(), code) != (
            case["stdout"].encode(), case["stderr"].encode(), case["code"]
        ):
            mismatched.append(case["name"])
    assert not mismatched, f"output differs from the fixture in {mismatched}"


if __name__ == "__main__":
    ap = argparse.ArgumentParser(description="regenerate the golden CLI fixture")
    ap.add_argument("--seed", type=int, default=4242)
    args = ap.parse_args()
    doc = generate(args.seed)
    os.makedirs(os.path.dirname(FIXTURE), exist_ok=True)
    with open(FIXTURE, "w") as f:
        json.dump(doc, f, indent=1)
        f.write("\n")
    print(f"wrote {FIXTURE}: {len(doc['cases'])} cases from commit {doc['commit']}")
