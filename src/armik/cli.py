"""Command line front end: JSON in, JSON out.

Subcommands: ik, fk, arm-angle, classify, sweep, bench, check. Input is a
single JSON object or a list of objects (batch); output mirrors the shape.
Exit codes: 0 success, 1 parse/validation errors, 2 solver degeneracies
(tagged machine-readable error objects either way). Floats are printed
with 17 significant digits so identical inputs give identical bytes.
"""

import argparse
import gc
import json
import math
import sys
import time

import numpy as np

from .errors import ArmikError, InvalidInput, InvalidRotation
from .robot import (
    JointConfig,
    RobotParams,
    Transform,
    default_params,
    forward_kinematics,
    frame_points,
    load_params,
)
from .arm_angle import arm_angle
from .ik_core import DEFAULT_TOLERANCES, IkRequest, SolutionSet, _run_kernel, solve
from .singularity import classify, family_distance
from .verify import _quat_to_mat, check_all
from ._kernels import BACKEND, active, jit, pure

# tags that indicate malformed input rather than a degenerate-but-valid request
_PARSE_TAGS = ("invalid_params", "invalid_rotation", "invalid_input")
# most arm-angle grid points one sweep may ask for
SWEEP_MAX_COUNT = 10000


# encoded rejection entries, keyed by (label, reason, category); labels and
# reasons come from fixed vocabularies, so the table stays small
_REJECTED_JSON = {}
# branch labels hold only letters, digits, "/", "+" and "-": nothing to escape
_BRANCH_JSON = (
    '{"label":"%s","joints":[%.17g,%.17g,%.17g,%.17g,%.17g,%.17g,%.17g],'
    '"root_index":%d,"q4_sign":%d,"q2_sign":%d,"t6":%.17g,"r6":%.17g,"q8":%.17g,'
    '"residuals":{"pose_error":%.17g,"arm_eq_residual":%.17g,"pose_eq_residual":%.17g}}'
)


def _fmt(obj):
    """JSON text of obj: floats with 17 significant digits, no spaces.

    A SolutionSet is written as the `ik` result object.
    """
    if obj is None:
        return "null"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, (np.floating, float)):
        return "%.17g" % float(obj)
    if isinstance(obj, (np.integer, int)):
        return str(int(obj))
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, np.ndarray):
        return _fmt(obj.tolist())
    if isinstance(obj, (list, tuple)):
        return "[" + ",".join(_fmt(v) for v in obj) + "]"
    if isinstance(obj, dict):
        return "{" + ",".join(json.dumps(str(k)) + ":" + _fmt(v) for k, v in obj.items()) + "}"
    if isinstance(obj, SolutionSet):
        return _fmt_solution_set(obj)
    raise TypeError(f"cannot serialize {type(obj)!r}")


def _fmt_solution_set(res):
    branches = [
        _BRANCH_JSON
        % (
            b.label, *b.joints.q.tolist(), b.root_index, b.q4_sign, b.q2_sign,
            b.t6, b.r6, b.q8, b.pose_error, b.arm_eq_residual, b.pose_eq_residual,
        )
        for b in res.branches
    ]
    rejected = []
    for r in res.rejected:
        key = (r.label, r.reason, r.category)
        enc = _REJECTED_JSON.get(key)
        if enc is None:
            enc = _REJECTED_JSON[key] = _fmt(
                {"branch": r.label, "reason": r.reason, "category": r.category}
            )
        rejected.append(enc)
    return '{"count":%d,"branches":[%s],"rejected":[%s]}' % (
        len(branches), ",".join(branches), ",".join(rejected),
    )


def _error_obj(exc):
    return {"error": {"tag": exc.tag, "message": str(exc)}}


def _exit_code(tag):
    return 1 if tag in _PARSE_TAGS else 2


def _parse_rotation(val):
    try:
        arr = np.asarray(val, dtype=float)
    except (TypeError, ValueError, OverflowError):
        raise InvalidRotation("rotation entries must be numbers") from None
    if arr.shape == (3, 3):
        R = arr
    elif arr.shape == (9,):
        R = arr.reshape(3, 3)
    elif arr.shape == (4,):
        n = float(np.linalg.norm(arr))
        if abs(n - 1.0) > 1e-9:
            raise InvalidRotation(f"quaternion norm {n:.12f} is not 1")
        R = _quat_to_mat(arr / n)
    else:
        raise InvalidRotation(
            "rotation must be a 3x3 matrix, a flat list of 9, or a quaternion [w,x,y,z]"
        )
    # Transform validates the rotation
    return R


def _parse_pose(item):
    if "position" not in item or "rotation" not in item:
        raise InvalidInput("pose needs 'position' and 'rotation' fields")
    try:
        pos = np.asarray(item["position"], dtype=float).reshape(-1)
    except (TypeError, ValueError, OverflowError):
        raise InvalidInput("position must be a list of 3 numbers") from None
    if pos.shape[0] != 3:
        raise InvalidInput("position must have 3 components")
    return Transform(_parse_rotation(item["rotation"]), pos)


def _get_joints(item):
    if "joints" not in item:
        raise InvalidInput("input needs a 'joints' field with 7 values")
    return JointConfig(item["joints"]).q


def _float_field(item, key, default):
    try:
        return float(item.get(key, default))
    except (TypeError, ValueError, OverflowError):
        raise InvalidInput(f"'{key}' must be a number") from None


def _cmd_ik(params, item):
    pose = _parse_pose(item)
    if "psi" not in item:
        raise InvalidInput("ik input needs a 'psi' field")
    return solve(IkRequest(pose=pose, psi=item["psi"], params=params))


def _cmd_fk(params, item):
    joints = _get_joints(item)
    t = forward_kinematics(params, joints)
    pts = frame_points(params, joints)
    out = {
        "pose": {"position": t.translation, "rotation": t.rotation},
        "frame_points": {
            "shoulder": pts.shoulder,
            "elbow": pts.elbow,
            "wrist": pts.wrist,
            "axis7": pts.axis7,
        },
    }
    try:
        out["psi"] = arm_angle(params, joints)
    except ArmikError as e:
        out["psi"] = None
        out["psi_error"] = e.tag
    return out


def _cmd_arm_angle(params, item):
    joints = _get_joints(item)
    return {"psi": arm_angle(params, joints)}


def _cmd_classify(params, item):
    joints = _get_joints(item)
    rep = classify(
        joints,
        params,
        hit_tol=_float_field(item, "hit_tol", 1e-6),
        hit_tol_m=_float_field(item, "hit_tol_m", 1e-9),
        with_jacobian=bool(item.get("with_jacobian", False)),
    )
    return {
        "kinematic_hits": [
            {"condition": n, "distance": d} for n, d in rep.kinematic_hits
        ],
        "algorithmic_hits": [
            {"condition": n, "distance": d} for n, d in rep.algorithmic_hits
        ],
        "distances": rep.distances,
        "min_singular_value": rep.min_singular_value,
    }


def _cmd_sweep(params, item):
    pose = _parse_pose(item)
    try:
        start = float(item["start"])
        stop = float(item["stop"])
        count = item["count"]
    except (KeyError, TypeError, ValueError):
        raise InvalidInput("sweep input needs numeric 'start', 'stop', 'count'") from None
    # a JSON integer, or a float with an integral value such as 5.0 or 1e3
    if type(count) is float and count.is_integer():
        count = int(count)
    if type(count) is not int:
        raise InvalidInput("sweep 'count' must be an integer")
    if count < 1 or count > SWEEP_MAX_COUNT:
        raise InvalidInput(f"sweep count must be between 1 and {SWEEP_MAX_COUNT}")
    if not math.isfinite(stop - start):
        raise InvalidInput("sweep 'start' and 'stop' must be finite, with a finite span")
    grid = np.linspace(start, stop, count)
    results = []
    for psi in grid:
        try:
            res = solve(IkRequest(pose=pose, psi=float(psi), params=params))
            results.append(
                {
                    "psi": float(psi),
                    "count": len(res.branches),
                    "branches": [
                        {"label": b.label, "joints": b.joints.q} for b in res.branches
                    ],
                    "rejected_count": len(res.rejected),
                }
            )
        except ArmikError as e:
            results.append({"psi": float(psi), **_error_obj(e)})
    return {"psi_grid": grid, "results": results}


def _bench_requests(params, n, seed):
    rng = np.random.default_rng(seed)
    reqs = []
    while len(reqs) < n:
        q = rng.uniform(-math.pi, math.pi, 7)
        if family_distance(q, params) < 0.05:
            continue
        pose = forward_kinematics(params, q)
        try:
            psi = arm_angle(params, q)
        except ArmikError:
            continue
        reqs.append((pose._rot, pose._pos, psi))
    return reqs


def _bench_core(K, params, R, p, psi, tol):
    d_sc, q, al, _, status = K.reduce_pose_core(
        R, p, params.d_bs, tol.tol_len, tol.tol_parallel
    )
    if status != 0:
        return None
    return _run_kernel(K, params, R, p, d_sc, q, al, psi, tol)


def _time_backend(K, params, reqs, tol):
    for R, p, psi in reqs[: min(20, len(reqs))]:
        _bench_core(K, params, R, p, psi, tol)
    samples = np.empty(len(reqs))
    gc.collect()
    gc.disable()
    try:
        for i, (R, p, psi) in enumerate(reqs):
            t0 = time.perf_counter_ns()
            _bench_core(K, params, R, p, psi, tol)
            samples[i] = time.perf_counter_ns() - t0
    finally:
        gc.enable()
    p50, p90, p99 = np.percentile(samples, (50, 90, 99))
    return {
        "p50_ns": float(p50),
        "p90_ns": float(p90),
        "p99_ns": float(p99),
        "mean_ns": float(samples.mean()),
        "ratio_p99_p50": float(p99 / p50),
    }


def _cmd_bench(params, n, seed, compare):
    tol = DEFAULT_TOLERANCES
    reqs = _bench_requests(params, n, seed)
    out = {"n": n, "seed": seed, "backend": BACKEND}
    out.update(_time_backend(active, params, reqs, tol))
    if compare:
        table = {}
        if jit is not None:
            table["numba"] = _time_backend(jit, params, reqs, tol)
        table["pure"] = _time_backend(pure, params, reqs, tol)
        out["backends"] = table
    return out


def _cmd_check(params, n, seed):
    res = check_all(params, n=n, seed=seed)
    return (
        {"passed": res.passed, "max_error": res.max_error, "detail": res.detail},
        0 if res.passed else 2,
    )


_ITEM_HANDLERS = {
    "ik": _cmd_ik,
    "fk": _cmd_fk,
    "arm-angle": _cmd_arm_angle,
    "classify": _cmd_classify,
    "sweep": _cmd_sweep,
}


def _read_input(args):
    if args.json is not None:
        text = args.json
    elif args.input == "-" or args.input is None:
        text = sys.stdin.read()
    else:
        try:
            with open(args.input, "r") as f:
                text = f.read()
        except OSError as e:
            raise InvalidInput(f"cannot read input: {e}") from None
    try:
        return json.loads(text)
    except json.JSONDecodeError as e:
        raise InvalidInput(f"input is not valid JSON: {e}") from None


def _write_output(args, obj):
    text = _fmt(obj) + "\n"
    if args.output:
        with open(args.output, "w") as f:
            f.write(text)
    else:
        sys.stdout.write(text)


def _build_parser():
    ap = argparse.ArgumentParser(
        prog="armik",
        description="Closed-form IK for a 7-DOF arm with wrist offset",
    )
    ap.add_argument("--params", help="robot parameter JSON file (default: built-in)")
    sub = ap.add_subparsers(dest="command", required=True)
    for name in ("ik", "fk", "arm-angle", "classify", "sweep"):
        p = sub.add_parser(name)
        p.add_argument("input", nargs="?", help="input JSON file, or - for stdin")
        p.add_argument("--json", help="inline JSON input")
        p.add_argument("--output", help="write result to file instead of stdout")
    for name in ("bench", "check"):
        p = sub.add_parser(name)
        p.add_argument("--n", type=int, default=1000 if name == "bench" else 200)
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--output", help="write result to file instead of stdout")
        if name == "bench":
            p.add_argument(
                "--compare-backends",
                action="store_true",
                help="time both the jit and pure backends",
            )
    return ap


# built once per process: parse_args keeps no state between calls, and the
# build costs more than a solve
_PARSER = _build_parser()


def main(argv=None):
    args = _PARSER.parse_args(argv)

    try:
        params = load_params(args.params) if args.params else default_params()
    except ArmikError as e:
        sys.stderr.write(_fmt(_error_obj(e)) + "\n")
        return 1

    try:
        if args.command == "bench":
            out = _cmd_bench(params, args.n, args.seed, args.compare_backends)
            _write_output(args, out)
            return 0
        if args.command == "check":
            out, code = _cmd_check(params, args.n, args.seed)
            _write_output(args, out)
            return code

        doc = _read_input(args)
        handler = _ITEM_HANDLERS[args.command]
        batch = isinstance(doc, list)
        items = doc if batch else [doc]
        results = []
        worst = 0
        for item in items:
            if not isinstance(item, dict):
                e = InvalidInput("each input item must be a JSON object")
                results.append(_error_obj(e))
                worst = max(worst, 1)
                continue
            try:
                out = handler(params, item)
            except ArmikError as e:
                results.append(_error_obj(e))
                worst = max(worst, _exit_code(e.tag))
                continue
            results.append(out)
            if args.command == "sweep":
                # a grid point that failed counts like a failed item
                for point in out["results"]:
                    if "error" in point:
                        worst = max(worst, _exit_code(point["error"]["tag"]))
        _write_output(args, results if batch else results[0])
        return worst
    except ArmikError as e:
        sys.stderr.write(_fmt(_error_obj(e)) + "\n")
        return _exit_code(e.tag)


if __name__ == "__main__":
    sys.exit(main())
