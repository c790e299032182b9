"""Hashes of the solver's output over a fixed corpus, for bit-identity checks.

Run it as

    PYTHONPATH=src python3 tests/bit_identity.py [--record | --check]

With no option it prints the hashes. --record writes them to
tests/data/bit_identity.json; --check recomputes them, compares them with
that file and exits 1, naming each hash that differs.

It computes one sha256 for each of
- `solve` output (every branch's fields by repr, every rejection's leaf and
  reason, or the ArmikError tag) over round-trip and workcell requests at
  psi offsets 0, +0.1, -0.2 and +pi, the four kinematic families at offsets
  of 10^-k, special poses at q ~ U(-pi, 0), -pi/2 and -1e-7, each under the
  default and a loose ToleranceSet, and a subset of them at large
  angle_merge_tol;
- the same solves read as `armik ik` and a caller that never reads
  `branches` see them: `len(res)`, `res.joints_array()` bytes and
  `armik.cli._fmt(res)`, taken before `branches` is first read (the solve
  hash above reads `branches`, so it covers only the built objects);
- the output bytes and exit codes of `armik ik` over 300 batches like
  perfbench's cli_batch (one pose at five arm angles, three rotation
  encodings, one malformed item);
- `solve_quartic_core` over 100,000 fuzzed coefficient sets;
- `multiple`: solves of the first 100 requests of each solve pool with
  `solve_quartic_core` patched to give one of its real roots alone at
  multiplicity 2, 3 or 4 (conftest.merged_root), for each real root in
  turn, which reaches the extra slots of a merged root.

pytest does not collect this file; the inputs come from the tests' own
generators, so a change to them changes every hash.
"""

import argparse
import hashlib
import json
import math
import os
import sys
import tempfile
import time

import numpy as np

import armik
import armik.cli
from armik import ArmikError, IkRequest, ToleranceSet, Transform, solve
from armik.ik_core import DEFAULT_TOLERANCES
from armik import _kernels_impl as K
from armik.verify import fk_oracle
from conftest import family_sample, merged_root, special_pose
from test_golden import _roundtrip_request, _workcell_request
from test_golden_cli import _far_config, _pose_item, run_cli

LOOSE = ToleranceSet(pose_tol=1e-6, angle_merge_tol=1e-5, branch_residual_tol=1e-4,
                     sin_domain_tol=1e-6, psi_tol=1e-6, root_merge_tol=1e-6,
                     complex_accept=1e-5)
MERGE_TOLS = (1e-7, 1e-3, 0.5, 2.5, 3.0, 3.1, 3.2, 3.5, 6.0, 7.0)
PSI_OFFSETS = (0.0, 0.1, -0.2, math.pi)
FAMILIES = ("elbow_straight", "shoulder_flip_elbow_plane", "shoulder_flip_wrist_offset",
            "wrist_plane_wrist_offset")
BANDS = (None, 4, 5, 6, 7, 9)  # None: on the family; k: 10^-k off it
MALFORMED = (
    {"position": [0.3, 0.0, 0.8], "rotation": [1.0, 0.1, 0.0, 0.0], "psi": 0.0},
    {"position": [0.3, 0.0, 0.8], "rotation": [1.0, 0.0, 0.0, 0.0]},
    {"position": [0.3, 0.0], "rotation": [1.0, 0.0, 0.0, 0.0], "psi": 0.0},
    {"position": [0.3, 0.0, 0.8], "rotation": [1.001, 0, 0, 0, 1.001, 0, 0, 0, 1.001],
     "psi": 0.0},
    42,
)


def _requests(params):
    """(pose, psi) pools: roundtrip, workcell, families and special poses."""
    rng = np.random.default_rng(24)
    roundtrip = [_roundtrip_request(rng, params) for _ in range(500)]
    workcell = [_workcell_request(rng) for _ in range(500)]
    pools = {
        "roundtrip": [(R, p, psi + off) for R, p, psi in roundtrip for off in PSI_OFFSETS],
        "workcell": [(R, p, psi + off) for R, p, psi in workcell for off in PSI_OFFSETS],
    }
    frng = np.random.default_rng(11)
    fam = []
    for family in FAMILIES:
        for k in BANDS:
            for _ in range(40):
                q = family_sample(frng, params, family)
                if k is not None:
                    v = frng.normal(size=7)
                    q = q + 10.0 ** -k * v / np.linalg.norm(v)
                try:
                    psi = armik.arm_angle(params, q)
                except ArmikError:
                    continue
                pose = fk_oracle(params, q)
                fam.append((pose.rotation, pose.translation, psi))
    pools["families"] = fam
    srng = np.random.default_rng(7)
    special = []
    for q in (None, -math.pi / 2, -1e-7):
        for _ in range(400):
            qv = srng.uniform(-math.pi, 0.0) if q is None else q
            pose = special_pose(params, srng.uniform(0.2, 0.95), qv,
                                srng.uniform(-math.pi, math.pi))
            special.append((pose.rotation, pose.translation, srng.uniform(-math.pi, math.pi)))
    pools["special"] = special
    return pools


def _solve_record(params, R, p, psi, tol):
    """(record, unread record, branch count, duplicate count) of one solve."""
    try:
        res = solve(IkRequest(pose=Transform(R, p), psi=psi, params=params, tolerances=tol))
    except ArmikError as e:
        return ("raised", e.tag), ("raised", e.tag), 0, 0
    except Exception as e:  # a crash is an outcome too, and must hash equal
        rec = ("crashed", type(e).__name__, str(e))
        return rec, rec, 0, 0
    # before anything reads res.branches
    unread = (len(res), res.joints_array().tobytes(), armik.cli._fmt(res))
    branches = [(tuple(b.joints.q.tolist()), b.root_index, b.t6, b.r6, b.q8, b.q4_sign,
                 b.q2_sign, b.pose_error, b.arm_eq_residual, b.pose_eq_residual)
                for b in res.branches]
    rejected = [(r.leaf, r.reason) for r in res.rejected]
    dups = sum(r.reason == "duplicate" for r in res.rejected)
    return (branches, rejected), unread, len(branches), dups


def solve_hashes(params, pools):
    """Digests of the solve corpus: built branches, and the unread path."""
    jobs = [(req, tol) for pool in pools.values() for req in pool
            for tol in (DEFAULT_TOLERANCES, LOOSE)]
    subset = [req for pool in pools.values() for req in pool[:200]]
    jobs += [(req, ToleranceSet(angle_merge_tol=t)) for t in MERGE_TOLS for req in subset]
    h, hu = hashlib.sha256(), hashlib.sha256()
    n_branch = n_dup = crashes = 0
    for (R, p, psi), tol in jobs:
        rec, unread, nb, nd = _solve_record(params, R, p, psi, tol)
        h.update(repr(rec).encode())
        hu.update(repr(unread).encode())
        n_branch += nb
        n_dup += nd
        crashes += rec[0] == "crashed"
    what = (f"{len(jobs)} solves, {n_branch} branches, {n_dup} duplicate leaves, "
            f"{crashes} non-ArmikError exceptions")
    return (h.hexdigest(), what), (hu.hexdigest(), f"{len(jobs)} solves, read unbuilt")


def multiple_hash(params, pools):
    """Digest of the corpus slice solved with each real root merged alone."""
    h = hashlib.sha256()
    n = 0
    solve_quartic = K.solve_quartic_core
    try:
        for pool in pools.values():
            for R, p, psi in pool[:100]:
                for mult in (2, 3, 4):
                    for index in range(4):
                        K.solve_quartic_core = merged_root(solve_quartic, index, mult)
                        h.update(repr(_solve_record(params, R, p, psi, DEFAULT_TOLERANCES)[0])
                                 .encode())
                        n += 1
    finally:
        K.solve_quartic_core = solve_quartic
    return h.hexdigest(), f"{n} solves, one root at multiplicity 2, 3 or 4"


def _cli_batch(rng, params, b):
    items = []
    for k in range(3):
        q, psi0 = _far_config(rng, params)
        pose = fk_oracle(params, q)
        for off in (-0.2, -0.1, 0.0, 0.1, 0.2):
            items.append(_pose_item(pose.rotation, pose.translation, psi0 + off, k))
    items.insert(int(rng.integers(0, len(items) + 1)), MALFORMED[b % len(MALFORMED)])
    return items


def cli_hash(params):
    rng = np.random.default_rng(300)
    h = hashlib.sha256()
    codes = {}
    with tempfile.TemporaryDirectory() as tmp:
        src, out = os.path.join(tmp, "batch.json"), os.path.join(tmp, "out.json")
        for b in range(300):
            with open(src, "w") as f:
                json.dump(_cli_batch(rng, params, b), f)
            code = run_cli(["ik", src, "--output", out])[2]
            with open(out, "rb") as f:
                h.update(repr(code).encode() + f.read())
            codes[code] = codes.get(code, 0) + 1
    return h.hexdigest(), f"300 batches, exit codes {codes}"


def _quartic_inputs(rng, n):
    """Coefficient sets: random magnitudes, special values, repeated roots."""
    special = (0.0, -0.0, math.nan, math.inf, -math.inf, 1e300, -1e300, 1e-300, -1e-300)
    for i in range(n):
        kind = i % 4
        if kind == 0:
            # magnitudes over the whole float range, a fifth of them zero
            g = (rng.normal(size=5) * 10.0 ** rng.uniform(-320, 308, 5)).tolist()
            g = [0.0 if rng.random() < 0.2 else v for v in g]
        elif kind == 1:
            g = rng.normal(size=5).tolist()
            for j in rng.choice(5, int(rng.integers(1, 4)), replace=False):
                g[j] = special[int(rng.integers(len(special)))]
        else:
            # roots drawn with repeats, some within the merge tolerances
            r = rng.normal(size=4)
            r[1] = r[0] + (0.0 if kind == 2 else rng.normal() * 1e-8)
            if rng.random() < 0.5:
                r[3] = r[2]
            g = (np.poly(r) * rng.uniform(0.1, 10.0)).tolist()
        yield g


def quartic_hash():
    rng = np.random.default_rng(4)
    tol_sets = ((K.DEGREE_TOL, K.ROOT_MERGE_TOL, K.COMPLEX_PAIR_TOL),
                (K.DEGREE_TOL, LOOSE.root_merge_tol, LOOSE.complex_accept))
    h = hashlib.sha256()
    n = 100_000
    raised = 0
    with np.errstate(all="ignore"):  # overflowing draws are inf, as wanted
        for i, g in enumerate(_quartic_inputs(rng, n)):
            try:
                out = K.solve_quartic_core(*g, *tol_sets[i % 2])
            except ArmikError as e:
                out = ("raised", e.tag)
                raised += 1
            h.update(repr(out).encode())
    return h.hexdigest(), f"{n} coefficient sets, {raised} raised"


RECORD = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data", "bit_identity.json")


def main(argv=None):
    ap = argparse.ArgumentParser(description="Hashes of the solver's output over a fixed corpus.")
    mode = ap.add_mutually_exclusive_group()
    mode.add_argument("--record", action="store_true", help=f"write the hashes to {RECORD}")
    mode.add_argument("--check", action="store_true",
                      help="compare the hashes with the recorded ones; exit 1 on a difference")
    args = ap.parse_args(argv)
    params = armik.default_params()
    pools = _requests(params)
    hashes = {}
    for names, fn in ((("solve", "unread"), lambda: solve_hashes(params, pools)),
                      (("armik_ik",), lambda: [cli_hash(params)]),
                      (("quartic",), lambda: [quartic_hash()]),
                      (("multiple",), lambda: [multiple_hash(params, pools)])):
        t0 = time.perf_counter()
        results = fn()
        for name, (digest, what) in zip(names, results):
            hashes[name] = digest
            print(f"{name} {digest}  ({what}; {time.perf_counter() - t0:.1f} s)")
        sys.stdout.flush()
    if args.record:
        with open(RECORD, "w") as f:
            json.dump(hashes, f, indent=2)
            f.write("\n")
        print(f"recorded in {RECORD}")
    elif args.check:
        with open(RECORD) as f:
            want = json.load(f)
        differ = [n for n in sorted(set(want) | set(hashes)) if want.get(n) != hashes.get(n)]
        for name in differ:
            print(f"DIFFERS: {name} (recorded {want.get(name)}, now {hashes.get(name)})")
        if differ:
            return 1
        print(f"all {len(hashes)} hashes match {RECORD}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
