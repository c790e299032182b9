"""Golden regression: solve() against a fixture recorded from an earlier commit.

Half of the recorded requests are round trips (configurations >= 0.05 rad from
every singular family, asked at their own arm angle), half are random goals in
a box around the base at random arm angles. For every request the fixture
holds the inputs, the outcome of each of the 16 leaves (0 for accepted, else
the rejection code of armik.REASON_NAMES) with the joints and the diagnostic
fields of accepted leaves, or the ArmikError tag.
Kernel rewrites must reproduce every leaf outcome exactly, every joint value
to 1e-12 rad, the integer diagnostics exactly and the float diagnostics to
1e-12. Rewrites that keep every floating-point operation and its order (as
the speedups so far have) must also pass the exact-bits test.

Regenerate the fixture (only when a behaviour change is intended) with

    PYTHONPATH=src python3 tests/test_golden.py [--n 300] [--seed 2024]

which records the git commit of the armik sources that produced it.
"""

import argparse
import json
import math
import os
import subprocess

import numpy as np
import pytest

import armik
from armik import ArmikError, IkRequest, Transform, solve
from armik.verify import _quat_to_mat, fk_oracle
from conftest import sample_far_joints

FIXTURE = os.path.join(os.path.dirname(__file__), "data", "golden_solve.json")
JOINT_TOL = 1e-12
DIAG_TOL = 1e-12
INT_FIELDS = ("root_index", "q4_sign", "q2_sign")
FLOAT_FIELDS = ("t6", "r6", "q8", "pose_error", "arm_eq_residual", "pose_eq_residual")
# workcell box around the base (meters)
BOX_LO = (-1.0, -1.0, -0.5)
BOX_HI = (1.0, 1.0, 1.3)
REASON_CODE = {name: code for code, name in armik.REASON_NAMES.items()}


def _roundtrip_request(rng, params):
    while True:
        q = sample_far_joints(rng, params)
        try:
            psi = armik.arm_angle(params, q)
        except ArmikError:
            continue
        pose = fk_oracle(params, q)
        return pose.rotation, pose.translation, psi


def _workcell_request(rng):
    w, x, y, z = rng.normal(size=4)
    quat = np.array([w, x, y, z]) / math.sqrt(w * w + x * x + y * y + z * z)
    return _quat_to_mat(quat), rng.uniform(BOX_LO, BOX_HI), rng.uniform(-math.pi, math.pi)


def _leaf(br):
    return br.root_index * 4 + (0 if br.q4_sign > 0 else 2) + (0 if br.q2_sign > 0 else 1)


def outcome(params, R, p, psi):
    """{"error": tag} or {"leaves": 16 leaf codes, "joints": {leaf: 7 joints},
    "diag": {leaf: {field: value}}}."""
    try:
        res = solve(IkRequest(pose=Transform(R, p), psi=psi, params=params))
    except ArmikError as e:
        return {"error": e.tag}
    leaves = [None] * 16
    joints = {}
    diag = {}
    for br in res.branches:
        leaves[_leaf(br)] = 0
        joints[str(_leaf(br))] = [float(v) for v in br.joints.q]
        diag[str(_leaf(br))] = {f: getattr(br, f) for f in INT_FIELDS + FLOAT_FIELDS}
    for rej in res.rejected:
        leaves[rej.leaf] = REASON_CODE[rej.reason]
    return {"leaves": leaves, "joints": joints, "diag": diag}


def generate(n, seed):
    params = armik.default_params()
    rng = np.random.default_rng(seed)
    cases = []
    for i in range(n):
        if i % 2 == 0:
            R, p, psi = _roundtrip_request(rng, params)
            kind = "roundtrip"
        else:
            R, p, psi = _workcell_request(rng)
            kind = "workcell"
        case = {
            "kind": kind,
            "R": [float(v) for v in np.ravel(R)],
            "p": [float(v) for v in p],
            "psi": float(psi),
        }
        case.update(outcome(params, np.reshape(case["R"], (3, 3)), case["p"], case["psi"]))
        cases.append(case)
    src = os.path.dirname(os.path.abspath(armik.__file__))
    commit = subprocess.run(
        ["git", "-C", src, "rev-parse", "HEAD"], capture_output=True, text=True
    ).stdout.strip()
    return {"commit": commit, "backend": armik.BACKEND, "seed": seed, "n": n, "cases": cases}


def _load():
    with open(FIXTURE) as f:
        return json.load(f)


def test_golden_fixture_is_mixed():
    doc = _load()
    kinds = [c["kind"] for c in doc["cases"]]
    assert len(kinds) >= 300
    assert kinds.count("roundtrip") == kinds.count("workcell")
    solved = [c for c in doc["cases"] if "leaves" in c]
    assert any(c["joints"] for c in solved)
    assert any(not c["joints"] for c in solved)


@pytest.mark.parametrize("kind", ["roundtrip", "workcell"])
def test_golden_solve_matches_fixture(params, kind):
    doc = _load()
    for i, case in enumerate(doc["cases"]):
        if case["kind"] != kind:
            continue
        got = outcome(params, np.reshape(case["R"], (3, 3)), case["p"], case["psi"])
        if "error" in case:
            assert got == {"error": case["error"]}, i
            continue
        assert got.get("leaves") == case["leaves"], i
        assert got["joints"].keys() == case["joints"].keys(), i
        for leaf, want in case["joints"].items():
            d = max(
                abs(math.remainder(a - b, 2.0 * math.pi))
                for a, b in zip(got["joints"][leaf], want)
            )
            assert d <= JOINT_TOL, (i, leaf, d)
        assert got["diag"].keys() == case["diag"].keys(), i
        for leaf, want in case["diag"].items():
            have = got["diag"][leaf]
            for f in INT_FIELDS:
                assert type(have[f]) is int and have[f] == want[f], (i, leaf, f)
            for f in FLOAT_FIELDS:
                assert abs(have[f] - want[f]) <= DIAG_TOL, (i, leaf, f, have[f], want[f])


def test_golden_solve_bits_match_fixture(params):
    # bit-identity gate: a rewrite that keeps every IEEE operation and its
    # order reproduces the recorded joints and float diagnostics exactly
    n_joints = n_diag = 0
    for i, case in enumerate(_load()["cases"]):
        if not case.get("joints"):
            continue
        got = outcome(params, np.reshape(case["R"], (3, 3)), case["p"], case["psi"])
        for leaf, want in case["joints"].items():
            assert got["joints"][leaf] == want, (i, leaf)
            n_joints += 1
            for f in FLOAT_FIELDS:
                assert got["diag"][leaf][f] == case["diag"][leaf][f], (i, leaf, f)
                n_diag += 1
    assert n_joints > 0 and n_diag == len(FLOAT_FIELDS) * n_joints


if __name__ == "__main__":
    ap = argparse.ArgumentParser(description="regenerate the golden solve fixture")
    ap.add_argument("--n", type=int, default=300)
    ap.add_argument("--seed", type=int, default=2024)
    args = ap.parse_args()
    doc = generate(args.n, args.seed)
    os.makedirs(os.path.dirname(FIXTURE), exist_ok=True)
    with open(FIXTURE, "w") as f:
        json.dump(doc, f, separators=(",", ":"))
        f.write("\n")
    print(f"wrote {FIXTURE}: {len(doc['cases'])} cases from commit {doc['commit']}")
