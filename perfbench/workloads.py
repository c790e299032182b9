"""Workload generators and the timed calls into armik.

Each workload builds a fixed pool of inputs from the seed, outside every
timed region, with the package's generators and oracles (`armik.classify`,
`armik.arm_angle`, `armik.verify.fk_oracle`). The timed call hands the
program only plain float arrays or a JSON file and goes through the public
entry points `armik.Transform`, `armik.IkRequest`, `armik.solve` and
`armik.cli.main`. The pool is cycled in a closed loop with one caller.

The names `Transform`, `IkRequest`, `solve` and `cli_main` are looked up as
module globals at call time so the traced run can put span wrappers on them.
"""

import json
import math
import os
import time

import numpy as np

import armik
from armik import ArmikError, IkRequest, Transform, solve
from armik.cli import main as cli_main
from armik.verify import _quat_to_mat, fk_oracle

import oracle

# singular families whose distance is an angle; the meter-valued branch fold
# is converted with a gradient upper bound. This is the acceptance suite's
# criterion 1/6 sampling rule (tests/conftest.py, which is not importable from
# here); armik.family_distance covers only the four kinematic families.
_KIN = (
    "elbow_straight",
    "shoulder_flip_elbow_plane",
    "shoulder_flip_wrist_offset",
    "wrist_plane_wrist_offset",
)
_ALG_ANG = ("q2_half_pi", "q6_offset_angle", "reference_parallel")
FAR_MARGIN = 0.05


def singular_distance(q, params):
    """Radian lower bound on the distance to every singular family."""
    rep = armik.classify(q, params)
    d = min(rep.distances[n] for n in _KIN + _ALG_ANG)
    return min(d, rep.distances["branch_fold"] / (params.d_ew + 2.0 * params.a_wr))


def far_configuration(rng, params):
    """A configuration >= FAR_MARGIN from every family, its pose and psi."""
    while True:
        q = rng.uniform(-math.pi, math.pi, 7)
        if singular_distance(q, params) < FAR_MARGIN:
            continue
        try:
            psi = armik.arm_angle(params, q)
        except ArmikError:
            continue
        pose = fk_oracle(params, q)
        return q, pose.rotation, pose.translation, psi


def random_rotation(rng):
    """Uniformly distributed rotation matrix (Shoemake's unit quaternion)."""
    u1, u2, u3 = rng.random(3)
    a, b = math.sqrt(1.0 - u1), math.sqrt(u1)
    x, y = a * math.sin(2 * math.pi * u2), a * math.cos(2 * math.pi * u2)
    z, w = b * math.sin(2 * math.pi * u3), b * math.cos(2 * math.pi * u3)
    return _quat_to_mat(np.array([w, x, y, z]))


def matrix_to_quat(R):
    """Unit quaternion [w, x, y, z] of a rotation matrix (Shepperd's method)."""
    tr = R[0, 0] + R[1, 1] + R[2, 2]
    k = int(np.argmax([tr, R[0, 0], R[1, 1], R[2, 2]]))
    if k == 0:
        s = 2.0 * math.sqrt(1.0 + tr)
        q = (0.25 * s, (R[2, 1] - R[1, 2]) / s, (R[0, 2] - R[2, 0]) / s, (R[1, 0] - R[0, 1]) / s)
    elif k == 1:
        s = 2.0 * math.sqrt(1.0 + R[0, 0] - R[1, 1] - R[2, 2])
        q = ((R[2, 1] - R[1, 2]) / s, 0.25 * s, (R[0, 1] + R[1, 0]) / s, (R[0, 2] + R[2, 0]) / s)
    elif k == 2:
        s = 2.0 * math.sqrt(1.0 + R[1, 1] - R[0, 0] - R[2, 2])
        q = ((R[0, 2] - R[2, 0]) / s, (R[0, 1] + R[1, 0]) / s, 0.25 * s, (R[1, 2] + R[2, 1]) / s)
    else:
        s = 2.0 * math.sqrt(1.0 + R[2, 2] - R[0, 0] - R[1, 1])
        q = ((R[1, 0] - R[0, 1]) / s, (R[0, 2] + R[2, 0]) / s, (R[1, 2] + R[2, 1]) / s, 0.25 * s)
    n = math.sqrt(sum(v * v for v in q))
    return [float(v / n) for v in q]


# per-layer metrics (tracing.py, run.py) of the layers a workload runs, which
# its traced run must see as non-zero, and of the cli layer, which the API
# workloads must see as zero: a boundary that stops intercepting (a renamed or
# inlined helper) fails the check instead of moving its time elsewhere
SOLVE_LAYERS = (
    "robot.validate_us",
    "ik_core.request_us",
    "ik_core.solve_self_us",
    "arm_angle.reduce_pose_us",
    "quartic.roots_us",
    "quartic.real_roots_per_solve",
    "ik_core.kernel_self_us",
    "ik_core.assemble_us",
)
FK_LAYERS = (
    "kernels.fk_chain_us",
    "kernels.fk_chain_calls_per_solve",
    "kernels.arm_dihedral_us",
    "kernels.rot_geodesic_us",
    "ik_core.branches_per_solve",
)
CLI_LAYERS = (
    "cli.self_us",
    "cli.read_us",
    "cli.parse_pose_us",
    "cli.format_us",
    "cli.write_us",
    "cli.output_bytes_per_item",
)


def call_once(fn, inp, errors):
    """Time one call; returns (seconds, outcome), the outcome being the
    result, the ArmikError raised, or an ("exception", text) marker.

    An ArmikError is an outcome the oracle judges; any other exception is
    recorded in `errors` and becomes a failed request.
    """
    t0 = time.perf_counter()
    try:
        out = fn(inp)
    except ArmikError as e:
        out = e
    except Exception as e:  # the loop must go on; the check reports it
        out = ("exception", f"{type(e).__name__}: {e}")
        errors.append(out[1])
    return time.perf_counter() - t0, out


def record(wl, out):
    """Comparable record of one call's outcome."""
    return out if isinstance(out, tuple) and out[:1] == ("exception",) else wl.record(out)


class ApiRequest:
    """One pose request for the Python API: plain arrays plus the source config."""

    __slots__ = ("R", "p", "psi", "q0")

    def __init__(self, R, p, psi, q0=None):
        self.R = np.ascontiguousarray(R, dtype=float)
        self.p = np.ascontiguousarray(p, dtype=float)
        self.psi = float(psi)
        self.q0 = q0

    def digest(self):
        return self.R.tobytes() + self.p.tobytes() + np.float64(self.psi).tobytes()


class ApiWorkload:
    """Shared code of the two API workloads (one solve per call)."""

    items_per_call = 1
    # a non-degenerate pose must come back with its generating configuration
    require_source = False
    layers_run = SOLVE_LAYERS + FK_LAYERS
    layers_bypassed = CLI_LAYERS

    def __init__(self, params, seed, pool_size, workdir):
        self.params = params
        rng = np.random.default_rng(seed)
        self.pool = [self.make_request(rng) for _ in range(pool_size)]

    def call(self, req):
        return solve(IkRequest(pose=Transform(req.R, req.p), psi=req.psi, params=self.params))

    def record(self, out):
        """Compact, comparable form of one call's result."""
        if isinstance(out, ArmikError):
            return ("raised", out.tag)
        return ("solved", out.joints_array(), tuple(r.reason for r in out.rejected))

    @staticmethod
    def same(a, b):
        if a[0] != b[0] or len(a) != len(b):
            return False
        if a[0] == "solved":
            return np.array_equal(a[1], b[1]) and a[2] == b[2]
        return a == b

    def check(self, req, rec, worst):
        """Failure reasons of one call as (item index, reason) pairs."""
        if rec[0] == "exception":
            return [(0, f"non-ArmikError exception: {rec[1]}")]
        if rec[0] == "raised":
            if self.require_source:
                return [(0, f"raised {rec[1]} on a pose >= {FAR_MARGIN} rad from every family")]
            return []
        joints, reasons = rec[1], rec[2]
        fails = []
        if joints.shape[0] + len(reasons) != 16:
            fails.append(f"{joints.shape[0]} branches + {len(reasons)} rejections != 16")
        fails += oracle.check_branches(self.params, req.R, req.p, req.psi, joints, worst)
        if self.require_source and not oracle.contains(joints, req.q0):
            fails.append("generating configuration not among the branches")
        return [(0, r) for r in fails]


class Roundtrip(ApiWorkload):
    """Poses of random configurations >= 0.05 rad from every singular family,
    asked at the arm angle of the generating configuration.

    Why: the paper's unit of work on poses that have solutions. Every leaf that
    reaches FK is accepted (about 7-8 fk_chain calls per solve) and FK
    verification dominates the pure-backend solve, so float-kernel work on
    `kernels` shows here. Stresses: kernels (fk_chain, rot_geodesic,
    arm_dihedral) and ik_core._assemble of many branches. Bypasses: cli.
    """

    require_source = True

    def make_request(self, rng):
        q, R, p, psi = far_configuration(rng, self.params)
        return ApiRequest(R, p, psi, q0=q)


# workcell box around the base (meters); the arm reaches about 0.9 m from the
# shoulder at z = 0.36. With random orientations and arm angles about 60% of
# these requests end with zero FK calls (no branch survives the quartic stage)
WORKCELL_LO = np.array([-1.0, -1.0, -0.5])
WORKCELL_HI = np.array([1.0, 1.0, 1.3])


class Workcell(ApiWorkload):
    """Uniform random rotations, positions uniform in a box around the base,
    uniform arm angles: what a planner sends when it samples goals.

    Why: most of these requests have no solution and end after the quartic
    with zero FK calls, so the median request is validation, reduce_pose,
    quartic, kernel scratch and _assemble of 16 rejections. Stresses: robot
    validation, ik_core request/solve/assemble, arm_angle.reduce_pose and
    quartic. Bypasses: FK verification on the median request (FK speedups
    should move only throughput and the tail here, not the median) and cli.
    """

    def make_request(self, rng):
        R = random_rotation(rng)
        p = rng.uniform(WORKCELL_LO, WORKCELL_HI)
        psi = rng.uniform(-math.pi, math.pi)
        return ApiRequest(R, p, psi)


# per batch: POSES_PER_BATCH poses x len(PSI_OFFSETS) arm angles, plus one
# malformed item at a seed-chosen position
POSES_PER_BATCH = 3
PSI_OFFSETS = (-0.2, -0.1, 0.0, 0.1, 0.2)
ITEMS_PER_BATCH = POSES_PER_BATCH * len(PSI_OFFSETS) + 1
MALFORMED = ("bad_quaternion", "missing_psi", "short_position", "scaled_matrix", "not_an_object")
_MALFORMED_TAG = {
    "bad_quaternion": "invalid_rotation",
    "missing_psi": "invalid_input",
    "short_position": "invalid_input",
    "scaled_matrix": "invalid_rotation",
    "not_an_object": "invalid_input",
}
# malformed input is a parse error (exit code 1); valid items must not fail
EXPECTED_EXIT = 1


class Batch:
    """One `armik ik` input file and what each of its items must produce."""

    __slots__ = ("path", "items", "text")

    def __init__(self, path, items, text):
        self.path = path
        self.items = items  # ("valid", R, p, psi, q0 or None) | ("malformed", kind, tag)
        self.text = text

    def digest(self):
        return self.text.encode()


def _encode_rotation(R, enc):
    if enc == 0:
        return R.tolist()
    if enc == 1:
        return R.reshape(-1).tolist()
    return matrix_to_quat(R)


def _malformed_item(kind, R, p):
    if kind == "bad_quaternion":
        return {"position": p.tolist(), "rotation": [1.0, 0.1, 0.0, 0.0], "psi": 0.0}
    if kind == "missing_psi":
        return {"position": p.tolist(), "rotation": R.tolist()}
    if kind == "short_position":
        return {"position": p[:2].tolist(), "rotation": R.tolist(), "psi": 0.0}
    if kind == "scaled_matrix":
        return {"position": p.tolist(), "rotation": (1.001 * R).tolist(), "psi": 0.0}
    return 42


class CliBatch:
    """`armik ik FILE --output OUT` on a JSON list of ITEMS_PER_BATCH items.

    Each pose (from the roundtrip generator) is asked at a grid of arm angles
    around its own psi and appears as consecutive items; rotations rotate
    through the three accepted encodings (3x3, flat 9, quaternion); one item
    per batch is malformed and must come back as a per-item error object.

    Why: the only workload where the cli layer runs (file read, JSON parse,
    pose parsing, formatting and writing), and the only one where inputs share
    work (one pose, many psi), so batching or caching across arm angles shows
    here and nowhere else. Stresses: cli and everything under solve.
    Bypasses: nothing of solve; it adds the cli layer on top.
    """

    items_per_call = ITEMS_PER_BATCH
    layers_run = SOLVE_LAYERS + FK_LAYERS + CLI_LAYERS
    layers_bypassed = ()

    def __init__(self, params, seed, pool_size, workdir):
        self.params = params
        self.out_path = os.path.join(workdir, "out.json")
        rng = np.random.default_rng(seed)
        self.pool = []
        for b in range(pool_size):
            items, doc = [], []
            for k in range(POSES_PER_BATCH):
                q, R, p, psi0 = far_configuration(rng, params)
                enc = (b * POSES_PER_BATCH + k) % 3
                for off in PSI_OFFSETS:
                    psi = psi0 + off
                    items.append(("valid", R, p, psi, q if off == 0.0 else None))
                    rot = _encode_rotation(R, enc)
                    doc.append({"position": p.tolist(), "rotation": rot, "psi": psi})
            kind = MALFORMED[b % len(MALFORMED)]
            at = int(rng.integers(0, ITEMS_PER_BATCH))
            items.insert(at, ("malformed", kind, _MALFORMED_TAG[kind]))
            doc.insert(at, _malformed_item(kind, R, p))
            path = os.path.join(workdir, f"batch{b}.json")
            text = json.dumps(doc)
            with open(path, "w") as f:
                f.write(text)
            self.pool.append(Batch(path, items, text))

    def call(self, batch):
        return cli_main(["ik", batch.path, "--output", self.out_path])

    def record(self, code):
        if isinstance(code, ArmikError):
            return ("raised", code.tag)
        with open(self.out_path, "rb") as f:
            data = f.read()
        return ("exit", code, data)

    @staticmethod
    def same(a, b):
        return a == b

    def check(self, batch, rec, worst):
        """Failure reason per failing item, as (item index, reason) pairs."""
        n = len(batch.items)
        if rec[0] != "exit":
            return [(i, f"cli raised {rec[1]}") for i in range(n)]
        code, data = rec[1], rec[2]
        if code != EXPECTED_EXIT:
            return [(i, f"exit code {code}, expected {EXPECTED_EXIT}") for i in range(n)]
        try:
            out = json.loads(data)
        except ValueError as e:
            return [(i, f"output is not JSON: {e}") for i in range(n)]
        if not isinstance(out, list) or len(out) != n:
            return [(i, "output is not a list with one result per item") for i in range(n)]
        fails = []
        for i, (exp, got) in enumerate(zip(batch.items, out)):
            for reason in self._check_item(exp, got, worst):
                fails.append((i, reason))
        return fails

    def _check_item(self, exp, got, worst):
        if not isinstance(got, dict):
            return ["result is not an object"]
        if exp[0] == "malformed":
            tag = got.get("error", {}).get("tag") if isinstance(got.get("error"), dict) else None
            return [] if tag == exp[2] else [f"{exp[1]} item gave tag {tag!r}, expected {exp[2]!r}"]
        _, R, p, psi, q0 = exp
        if "error" in got:
            return [f"valid item gave error {got['error']!r}"]
        branches, rejected = got.get("branches", []), got.get("rejected", [])
        if got.get("count") != len(branches) or len(branches) + len(rejected) != 16:
            n_b, n_r = len(branches), len(rejected)
            return [f"count {got.get('count')}, {n_b} branches + {n_r} rejections"]
        joints = np.array([b["joints"] for b in branches], dtype=float).reshape(-1, 7)
        fails = oracle.check_branches(self.params, R, p, psi, joints, worst)
        if q0 is not None and not oracle.contains(joints, q0):
            fails.append("generating configuration not among the branches")
        return fails


WORKLOADS = {"roundtrip": Roundtrip, "workcell": Workcell, "cli_batch": CliBatch}
