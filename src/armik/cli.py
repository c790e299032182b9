"""Command line front end: JSON in, JSON out.

Subcommands: ik, fk, arm-angle, classify, sweep, check. Input is a
single JSON object or a list of objects (batch); output mirrors the shape.
Exit codes: 0 success, 1 parse/validation errors, 2 solver degeneracies
(tagged machine-readable error objects either way). Floats are printed
with 17 significant digits so identical inputs give identical bytes.
"""

import argparse
import functools
import json
import math
import os
import stat
import sys

from .errors import ArmikError, InvalidInput, InvalidRotation
from .robot import JointConfig, Transform, _read_floats, default_params, load_params
from .arm_angle import arm_angle
from .ik_core import IkRequest, SolutionSet, _branch_label, solve
from . import _kernels_impl as _K
from ._kernels_impl import HIT_TOL, HIT_TOL_M, QUAT_NORM_TOL, TOL_LEN, TOL_PARALLEL

# tags that indicate malformed input rather than a degenerate-but-valid request
_PARSE_TAGS = ("invalid_params", "invalid_rotation", "invalid_input")
# most arm-angle grid points one sweep may ask for
SWEEP_MAX_COUNT = 10000


# encoded rejection entries of the kernel's shared LEAF_REJ records, keyed by
# the record's identity. Those records live as long as the kernel module, so
# no key is reused by another object, and the table holds at most one entry
# per (reason, leaf). A dict keyed by the record itself would hash its four
# fields in Python on every lookup
_REJECTED_JSON = {}
# A branch object is written in fragments. Per branch: its label, joints
# 1-3, q2_sign and pose_error. Per elbow pair (root slot and q4_sign):
# joints 4-5. Per root slot: joints 6-7, root_index, t6, r6, q8 and the two
# slot residuals. Branch labels hold only letters, digits, "/", "+" and "-":
# nothing to escape
_BRANCH_JSON = '{"label":"%s","joints":[%.17g,%.17g,%.17g,%s"q2_sign":%d%s%.17g%s'
_PAIR_JSON = '%.17g,%.17g,%s"q4_sign":%d,'
_SLOT_JOINTS_JSON = '%.17g,%.17g],"root_index":%d,'
_SLOT_HEAD_JSON = ',"t6":%.17g,"r6":%.17g,"q8":%.17g,"residuals":{"pose_error":'
_SLOT_TAIL_JSON = ',"arm_eq_residual":%.17g,"pose_eq_residual":%.17g}}'


def _fmt(obj):
    """JSON text of obj: floats with 17 significant digits, no spaces.

    A SolutionSet is written as the `ik` result object.
    """
    if isinstance(obj, SolutionSet):
        return _fmt_solution_set(obj)
    if obj is None:
        return "null"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, float):
        return "%.17g" % float(obj)
    if isinstance(obj, int):
        return str(int(obj))
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, (list, tuple)):
        return "[" + ",".join(_fmt(v) for v in obj) + "]"
    if isinstance(obj, dict):
        return "{" + ",".join(json.dumps(str(k)) + ":" + _fmt(v) for k, v in obj.items()) + "}"
    raise TypeError(f"cannot serialize {type(obj)!r}")


def _fmt_solution_set(res):
    branches = []
    # The slot and pair fragments are reused while the next branch holds the
    # same objects they print (solve hands a slot's leaves the same floats).
    # Identity gives equal bits and == does not: 0.0 == -0.0 prints apart.
    # The s_ and p_ names hold the printed objects, so none is freed and
    # none of their ids is reused while they are compared. No branch holds
    # `unset`, so the first branch builds every fragment
    unset = object()
    s_root = s_q6 = s_q7 = s_t6 = s_r6 = s_q8 = s_arm = s_pose = unset
    p_q4 = p_q5 = p_sign = unset
    for qu, root, t6, r6, q8, sign, q2_sign, arm, pose, perr in res._rows():
        q1, q2, q3, q4, q5, q6, q7 = qu
        if not (
            root is s_root and q6 is s_q6 and q7 is s_q7 and t6 is s_t6
            and r6 is s_r6 and q8 is s_q8 and arm is s_arm and pose is s_pose
        ):
            s_root, s_q6, s_q7, s_t6, s_r6, s_q8, s_arm, s_pose = (
                root, q6, q7, t6, r6, q8, arm, pose)
            slot_joints = _SLOT_JOINTS_JSON % (q6, q7, root)
            slot_head = _SLOT_HEAD_JSON % (t6, r6, q8)
            slot_tail = _SLOT_TAIL_JSON % (arm, pose)
            # the pair fragment holds slot_joints
            p_sign = unset
        if not (q4 is p_q4 and q5 is p_q5 and sign is p_sign):
            p_q4, p_q5, p_sign = q4, q5, sign
            pair = _PAIR_JSON % (q4, q5, slot_joints, sign)
        branches.append(_BRANCH_JSON % (_branch_label(root, sign, q2_sign), q1, q2, q3, pair,
                                        q2_sign, slot_head, perr, slot_tail))
    rejected = []
    for r in res.rejected:
        enc = _REJECTED_JSON.get(id(r))
        if enc is None:
            enc = _fmt({"branch": r.label, "reason": r.reason, "category": r.category})
            if _is_shared(r):
                _REJECTED_JSON[id(r)] = enc
        rejected.append(enc)
    return '{"count":%d,"branches":[%s],"rejected":[%s]}' % (
        len(branches), ",".join(branches), ",".join(rejected),
    )


def _is_shared(r):
    # r is the kernel's LEAF_REJ record of its reason and leaf
    try:
        return _K.LEAF_REJ[r.reason][r.leaf] is r
    except (KeyError, IndexError, TypeError):
        return False


def _error_obj(exc):
    return {"error": {"tag": exc.tag, "message": str(exc)}}


def _exit_code(tag):
    return 1 if tag in _PARSE_TAGS else 2


def _parse_rotation(val):
    # the rotation's rows, for Transform to validate
    try:
        shape, r = _read_floats(val)
    except (TypeError, ValueError, OverflowError):
        raise InvalidRotation("rotation entries must be numbers") from None
    if shape == (3, 3) or shape == (9,):
        return r[0:3], r[3:6], r[6:9]
    if shape != (4,):
        raise InvalidRotation(
            "rotation must be a 3x3 matrix, a flat list of 9, or a quaternion [w,x,y,z]"
        )
    # numpy on this branch only: the bits of np.linalg.norm's fused dot product
    import numpy as np
    n = float(np.linalg.norm(np.array(r)))
    if abs(n - 1.0) > QUAT_NORM_TOL:
        raise InvalidRotation(f"quaternion norm {n:.12f} is not 1")
    # verify._quat_to_mat's expressions in its order, on floats
    w, x, y, z = [v / n for v in r]
    return (
        (1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)),
        (2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)),
        (2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)),
    )


def _parse_pose(item):
    if "position" not in item or "rotation" not in item:
        raise InvalidInput("pose needs 'position' and 'rotation' fields")
    try:
        pos = _read_floats(item["position"])[1]
    except (TypeError, ValueError, OverflowError):
        raise InvalidInput("position must be a list of 3 numbers") from None
    if len(pos) != 3:
        raise InvalidInput("position must have 3 components")
    return Transform(_parse_rotation(item["rotation"]), pos)


def _get_joints(item):
    if "joints" not in item:
        raise InvalidInput("input needs a 'joints' field with 7 values")
    return JointConfig(item["joints"])


def _no_zero(v):
    # True if no number in the JSON value v equals zero. Numbers that compare
    # equal then parse to the same floats: 0.0 == -0.0 is the one exception
    if type(v) is list:
        return all(map(_no_zero, v))
    return v != 0


def _cmd_ik(params, item, last):
    # last: [[position, rotation], pose] of the last pose this main call
    # parsed without a zero entry, or Nones. An item with equal JSON values
    # reuses its Transform, which is immutable and already validated
    raw = [item.get("position"), item.get("rotation")]
    if raw == last[0]:
        pose = last[1]
    else:
        pose = _parse_pose(item)
        if _no_zero(raw):
            last[:] = raw, pose
    if "psi" not in item:
        raise InvalidInput("ik input needs a 'psi' field")
    return solve(IkRequest(pose=pose, psi=item["psi"], params=params))


def _cmd_fk(params, item):
    joints = _get_joints(item)
    R, p, S, E, W = _K.fk_chain(params._links, joints._q)
    out = {
        "pose": {"position": p, "rotation": (R[0:3], R[3:6], R[6:9])},
        "frame_points": {"shoulder": S, "elbow": E, "wrist": W, "axis7": p},
    }
    try:
        # arm_angle's computation, on the frame points above
        out["psi"] = _K.arm_dihedral(S, E, p, (R[2], R[5], R[8]), TOL_LEN, TOL_PARALLEL)
    except ArmikError as e:
        out["psi"] = None
        out["psi_error"] = e.tag
    return out


def _cmd_arm_angle(params, item):
    joints = _get_joints(item)
    return {"psi": arm_angle(params, joints)}


def _cmd_classify(params, item):
    from .singularity import classify
    joints = _get_joints(item)
    with_jacobian = item.get("with_jacobian", False)
    if type(with_jacobian) is not bool:
        raise InvalidInput("'with_jacobian' must be true or false")
    rep = classify(
        joints,
        params,
        hit_tol=item.get("hit_tol", HIT_TOL),
        hit_tol_m=item.get("hit_tol_m", HIT_TOL_M),
        with_jacobian=with_jacobian,
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
    import numpy as np
    grid = np.linspace(start, stop, count).tolist()
    results = []
    for psi in grid:
        try:
            res = solve(IkRequest(pose=pose, psi=psi, params=params))
            rows = res._rows()
            results.append(
                {
                    "psi": psi,
                    "count": len(rows),
                    "branches": [
                        {"label": _branch_label(root, q4_sign, q2_sign), "joints": qu}
                        for qu, root, _, _, _, q4_sign, q2_sign, *_ in rows
                    ],
                    "rejected_count": len(res.rejected),
                }
            )
        except ArmikError as e:
            results.append({"psi": psi, **_error_obj(e)})
    return {"psi_grid": grid, "results": results}


def _cmd_check(params, n, seed):
    # numpy's generator raises on a negative seed, and n = 0 checks nothing
    if n < 1:
        raise InvalidInput("check --n must be at least 1")
    if seed < 0:
        raise InvalidInput("check --seed must not be negative")
    from .verify import check_all
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
    try:
        if args.json is not None:
            text = args.json
        elif args.input == "-" or args.input is None:
            text = sys.stdin.read()
        else:
            with open(args.input, "r") as f:
                text = f.read()
    # ValueError: bytes that do not decode, or a NUL in the path
    except (OSError, ValueError) as e:
        raise InvalidInput(f"cannot read input: {e}") from None
    try:
        return json.loads(text)
    except json.JSONDecodeError as e:
        raise InvalidInput(f"input is not valid JSON: {e}") from None
    except RecursionError:
        raise InvalidInput("input JSON is nested too deeply") from None
    except ValueError as e:  # an integer with more digits than int() takes
        raise InvalidInput(f"input JSON cannot be read: {e}") from None


def _write_output(args, obj):
    text = _fmt(obj) + "\n"
    if not args.output:
        sys.stdout.write(text)
        return
    # overwrite in place, then cut to length: truncating on open makes the
    # file system free and allocate the file's blocks again on every call.
    # O_BINARY (Windows only) leaves newline translation to the text layer,
    # as open(path, "w") does
    flags = os.O_WRONLY | os.O_CREAT | getattr(os, "O_BINARY", 0)
    try:
        with open(os.open(args.output, flags, 0o666), "w") as f:
            f.write(text)
            # only a regular file has a length to cut: not /dev/null or a pipe
            if stat.S_ISREG(os.fstat(f.fileno()).st_mode):
                f.truncate()
    except OSError as e:
        raise InvalidInput(f"cannot write output: {e}") from None


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
    p = sub.add_parser("check")
    p.add_argument("--n", type=int, default=200)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--output", help="write result to file instead of stdout")
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
        if args.command == "check":
            out, code = _cmd_check(params, args.n, args.seed)
            _write_output(args, out)
            return code

        doc = _read_input(args)
        handler = _ITEM_HANDLERS[args.command]
        if handler is _cmd_ik:
            # pose reuse lasts for this call only
            handler = functools.partial(_cmd_ik, last=[None, None])
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
