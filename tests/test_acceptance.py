"""Acceptance suite: one test and one printed metric line per criterion.

Run with -s to see the metric lines. Tolerances are pinned here and must
not be loosened; the unit-test files cover the same machinery at module
granularity.
"""

import gc
import math
import time

import numpy as np
import pytest

from armik import (
    AxisParallel,
    IkRequest,
    REASON_NAMES,
    arm_angle,
    classify,
    default_params,
    family_distance,
    fk_oracle_batch,
    forward_kinematics,
    frame_points,
    numeric_jacobian,
    quartic_oracle,
    reduce_pose,
    solve,
)
from armik import _kernels_impl as K
from armik.errors import ArmikError
from armik.ik_core import DEFAULT_TOLERANCES
from conftest import family_sample, quartic_roots, sample_far_joints, singular_distance

FAMILIES = (
    "elbow_straight",
    "shoulder_flip_elbow_plane",
    "shoulder_flip_wrist_offset",
    "wrist_plane_wrist_offset",
)


def _wrap(a):
    return np.arctan2(np.sin(a), np.cos(a))


def _report(n, ok, detail):
    print(f"\n[criterion {n}] {'PASS' if ok else 'FAIL'} {detail}", flush=True)


@pytest.fixture(scope="module")
def roundtrip_run(params):
    # shared 10k-sample run for criteria 1 and 2
    rng = np.random.default_rng(2024)
    n = 10000
    # warmup outside the timed region
    q_w = sample_far_joints(rng, params, margin=0.01)
    pose_w = forward_kinematics(params, q_w)
    solve(IkRequest(pose=pose_w, psi=arm_angle(params, q_w), params=params))

    t0 = time.perf_counter()
    recovered = 0
    max_count = 0
    accounting_ok = True
    reasons_ok = True
    all_joints = []
    all_targets = []
    for _ in range(n):
        while True:
            q0 = rng.uniform(-math.pi, math.pi, 7)
            if singular_distance(q0, params) < 0.01:
                continue
            try:
                pose = forward_kinematics(params, q0)
                psi = arm_angle(params, q0)
                res = solve(IkRequest(pose=pose, psi=psi, params=params))
            except ArmikError:
                # measure-zero reductions outside the excluded families
                continue
            break
        nb = len(res.branches)
        max_count = max(max_count, nb)
        if nb + len(res.rejected) != 16:
            accounting_ok = False
        for rej in res.rejected:
            if rej.reason not in REASON_NAMES.values():
                reasons_ok = False
        if nb:
            J = res.joints_array()
            d = np.abs(_wrap(J - q0))
            if np.min(np.max(d, axis=1)) < 1e-6:
                recovered += 1
            all_joints.append(J)
            all_targets.append(
                (len(all_joints) - 1, pose.rotation, pose.translation, nb)
            )
    # independent FK verification of every returned branch in one batch
    stack = np.concatenate(all_joints) if all_joints else np.zeros((0, 7))
    R, p = fk_oracle_batch(params, stack)
    verify_ok = 0
    total_branches = 0
    k = 0
    for _, R_t, p_t, nb in all_targets:
        for _ in range(nb):
            t_err = np.linalg.norm(p[k] - p_t)
            # geodesic angle via atan2(|skew|, trace): acos of the trace
            # cannot resolve angles below sqrt(2*eps) ~ 2.1e-8
            M = R[k] @ R_t.T
            sn = 0.5 * math.sqrt(
                (M[2, 1] - M[1, 2]) ** 2
                + (M[0, 2] - M[2, 0]) ** 2
                + (M[1, 0] - M[0, 1]) ** 2
            )
            cn = 0.5 * (np.trace(M) - 1.0)
            r_err = math.atan2(sn, cn)
            total_branches += 1
            verify_ok += max(t_err, r_err) < 1e-8
            k += 1
    runtime = time.perf_counter() - t0
    return {
        "n": n,
        "recovered": recovered,
        "max_count": max_count,
        "accounting_ok": accounting_ok,
        "reasons_ok": reasons_ok,
        "verify_ok": verify_ok,
        "total_branches": total_branches,
        "runtime": runtime,
    }


def test_criterion_1_round_trip_completeness(roundtrip_run):
    r = roundtrip_run
    rate = r["recovered"] / r["n"]
    verify_rate = r["verify_ok"] / max(1, r["total_branches"])
    ok = rate >= 0.995 and verify_rate == 1.0 and r["runtime"] < 60.0
    _report(
        1,
        ok,
        f"recovery={100 * rate:.2f}% (>=99.5) "
        f"fk_verify={100 * verify_rate:.3f}% of {r['total_branches']} branches "
        f"(tol 1e-8) runtime={r['runtime']:.1f}s (<60)",
    )
    assert rate >= 0.995
    assert verify_rate == 1.0
    assert r["runtime"] < 60.0


def test_criterion_2_branch_structure(roundtrip_run):
    r = roundtrip_run
    ok = r["max_count"] <= 16 and r["accounting_ok"] and r["reasons_ok"]
    _report(
        2,
        ok,
        f"max_branches={r['max_count']} (<=16) "
        f"leaf_accounting={'16/16 every pose' if r['accounting_ok'] else 'broken'} "
        f"coded_reasons={'all known' if r['reasons_ok'] else 'unknown reason seen'}",
    )
    assert r["max_count"] <= 16
    assert r["accounting_ok"]  # zero silent drops
    assert r["reasons_ok"]


def test_criterion_3_self_motion_sweep(params):
    rng = np.random.default_rng(2025)
    grid = np.linspace(-math.pi, math.pi, 66)[1:-1]
    grid = grid[np.abs(np.abs(grid) - math.pi / 2) > 0.15]
    worst_psi = 0.0
    worst_sc = 0.0
    n_branches = 0
    for _ in range(100):
        q0 = sample_far_joints(rng, params)
        pose = forward_kinematics(params, q0)
        S_t = np.array([0.0, 0.0, params.d_bs])
        for psi in grid:
            res = solve(IkRequest(pose=pose, psi=float(psi), params=params))
            for br in res.branches:
                n_branches += 1
                dpsi = abs(_wrap(arm_angle(params, br.joints.q) - psi))
                worst_psi = max(worst_psi, float(dpsi))
                pts = frame_points(params, br.joints.q)
                worst_sc = max(
                    worst_sc,
                    float(np.linalg.norm(pts.shoulder - S_t)),
                    float(np.linalg.norm(pts.axis7 - pose.translation)),
                )
    ok = worst_psi < 1e-8 and worst_sc < 1e-10
    _report(
        3,
        ok,
        f"branches={n_branches} max|psi_err|={worst_psi:.2e} (<1e-8) "
        f"max S/C drift={worst_sc:.2e} (<1e-10)",
    )
    assert n_branches > 0
    assert worst_psi < 1e-8
    assert worst_sc < 1e-10


def _disc4(c):
    a, b, cc, d, e = c[:, 0], c[:, 1], c[:, 2], c[:, 3], c[:, 4]
    return (
        256 * a**3 * e**3
        - 192 * a**2 * b * d * e**2
        - 128 * a**2 * cc**2 * e**2
        + 144 * a**2 * cc * d**2 * e
        - 27 * a**2 * d**4
        + 144 * a * b**2 * cc * e**2
        - 6 * a * b**2 * d**2 * e
        - 80 * a * b * cc**2 * d * e
        + 18 * a * b * cc * d**3
        + 16 * a * cc**4 * e
        - 4 * a * cc**3 * d**2
        - 27 * b**4 * e**2
        + 18 * b**3 * cc * d * e
        - 4 * b**3 * d**3
        - 4 * b**2 * cc**3 * e
        + b**2 * cc**2 * d**2
    )


def test_criterion_4_quartic_oracle_equivalence():
    rng = np.random.default_rng(2026)
    n = 100000
    C = rng.uniform(-10.0, 10.0, size=(n, 5))
    keep = np.abs(_disc4(C)) >= 1e-10
    C = C[keep]
    mismatches = 0
    worst = 0.0
    for c in C:
        mine, _ = quartic_roots(c)
        theirs, _ = quartic_oracle(c)
        if len(mine) != len(theirs):
            mismatches += 1
            continue
        if len(theirs):
            dev = np.max(np.abs(np.sort(mine) - np.sort(theirs)))
            worst = max(worst, float(dev))
    ok = mismatches == 0 and worst < 1e-10
    _report(
        4,
        ok,
        f"sets={len(C)} (|disc|>=1e-10) count_mismatches={mismatches} "
        f"max_root_dev={worst:.2e} (<1e-10)",
    )
    assert mismatches == 0
    assert worst < 1e-10


def _induced_requests(params, rng, condition, n):
    out = []
    while len(out) < n:
        q = rng.uniform(-2.5, 2.5, 7)
        if condition == "q2_half_pi":
            q[1] = rng.choice([math.pi / 2, -math.pi / 2])
        elif condition == "q6_offset_angle":
            q6s = math.acos(-params.a_wr / params.d_ew)
            q[5] = rng.choice([q6s, -q6s])
        elif condition == "branch_fold":
            q[3] = math.atan2(
                params.a_wr * math.sin(q[4]) * math.sin(q[5]),
                params.d_ew + params.a_wr * math.cos(q[5]),
            )
        elif condition == "reference_parallel":
            q[4] = rng.choice([math.pi / 2, -math.pi / 2])
            if not _align_reference(params, q):
                continue
        else:
            raise AssertionError(condition)
        rep = classify(q, params)
        if condition not in [name for name, _ in rep.algorithmic_hits]:
            continue  # landed on the locus only approximately
        out.append(q)
    return out


def _align_reference(params, q):
    # Newton on q6 to put the tool z-axis along SC (q5 at +-pi/2 brings
    # the offset into the alignment plane, leaving a 1-dof residual)
    def f(qq):
        pose = forward_kinematics(params, qq)
        pts = frame_points(params, qq)
        sc = pts.axis7 - pts.shoulder
        nn = np.linalg.norm(sc)
        if nn < 1e-9:
            return None
        return np.cross(sc / nn, pose.rotation[:, 2])

    for _ in range(60):
        r = f(q)
        if r is None:
            return False
        i = int(np.argmax(np.abs(r)))
        if abs(r[i]) < 1e-12:
            return True
        h = 1e-8
        qp = q.copy()
        qp[5] += h
        rp = f(qp)
        if rp is None:
            return False
        d = (rp[i] - r[i]) / h
        if abs(d) < 1e-12:
            return False
        q[5] -= r[i] / d
    return False


def _fold_evidence(res):
    if any(r.reason == "duplicate" for r in res.rejected):
        return True
    bs = res.branches
    for i in range(len(bs)):
        for j in range(i + 1, len(bs)):
            if (
                bs[i].root_index != bs[j].root_index
                and abs(bs[i].t6 - bs[j].t6) < 1e-6
            ):
                return True
    return False


def test_criterion_5_singularity_validation(params):
    rng = np.random.default_rng(2027)
    # rank loss on every kinematic family
    fam_worst = 0.0
    for family in FAMILIES:
        for _ in range(100):
            q = family_sample(rng, params, family)
            sv = np.linalg.svd(numeric_jacobian(q, params), compute_uv=False)[-1]
            fam_worst = max(fam_worst, float(sv))
    # full rank away from all families
    gen_floor = math.inf
    for _ in range(1000):
        q = sample_far_joints(rng, params, margin=0.1)
        sv = np.linalg.svd(numeric_jacobian(q, params), compute_uv=False)[-1]
        gen_floor = min(gen_floor, float(sv))
    # induced algorithmic degeneracies co-occur with solver errors
    co_ok = 0
    co_n = 0
    for condition in (
        "q2_half_pi",
        "q6_offset_angle",
        "branch_fold",
        "reference_parallel",
    ):
        for q in _induced_requests(params, rng, condition, 25):
            co_n += 1
            pose = forward_kinematics(params, q)
            try:
                psi = arm_angle(params, q)
                res = solve(IkRequest(pose=pose, psi=psi, params=params))
            except ArmikError:
                # reduction itself refuses: definitive solver degeneracy
                co_ok += condition == "reference_parallel"
                continue
            if condition == "reference_parallel":
                continue  # must have raised
            reasons = set(r.reason for r in res.rejected)
            if res.branches:
                d = np.abs(_wrap(res.joints_array() - q))
                missed = np.min(np.max(d, axis=1)) > 1e-6
            else:
                missed = True
            if condition == "q2_half_pi":
                co_ok += "wrist_degenerate" in reasons or missed
            elif condition == "q6_offset_angle":
                co_ok += "q8_degenerate" in reasons or missed
            elif condition == "branch_fold":
                co_ok += _fold_evidence(res) or missed
    ok = fam_worst < 1e-5 and gen_floor > 1e-3 and co_ok == co_n
    _report(
        5,
        ok,
        f"family_max_sv={fam_worst:.2e} (<1e-5) generic_min_sv={gen_floor:.2e} "
        f"(>1e-3) co-occurrence={co_ok}/{co_n} (=100%)",
    )
    assert fam_worst < 1e-5
    assert gen_floor > 1e-3
    assert co_ok == co_n


def _latency_requests(params, n, seed):
    # far-from-singular configurations solved at their own arm angle
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


def _kernel_solve(params, R, p, psi, tol):
    try:
        d_sc, q, al, _ = K.reduce_pose_core(R, p, params.d_bs, tol.tol_len, tol.tol_parallel)
    except ArmikError:
        return None
    return K.ik_solve_core(params, tol, R, p, d_sc, q, al, psi)


def test_criterion_6_determinism_and_latency(params):
    tol = DEFAULT_TOLERANCES
    reqs = _latency_requests(params, 10000, 2028)
    for R, p, psi in reqs[:20]:
        _kernel_solve(params, R, p, psi, tol)
    samples = np.empty(len(reqs))
    gc.collect()
    gc.disable()
    try:
        for i, (R, p, psi) in enumerate(reqs):
            t0 = time.perf_counter_ns()
            _kernel_solve(params, R, p, psi, tol)
            samples[i] = time.perf_counter_ns() - t0
    finally:
        gc.enable()
    p50, p99 = np.percentile(samples, (50, 99))
    ratio = p99 / p50
    median_us = p50 / 1000.0
    ok = ratio < 3.0
    soft = "met" if median_us < 50.0 else "missed (soft target, reported only)"
    _report(
        6,
        ok,
        f"p99/p50={ratio:.2f} (<3) median={median_us:.1f}us "
        f"(soft 50us {soft})",
    )
    assert ratio < 3.0


def test_criterion_7_polynomial_identity(params):
    rng = np.random.default_rng(2029)
    aw, de = params.a_wr, params.d_ew
    worst = 0.0
    for _ in range(10000):
        d_sc = rng.uniform(0.05, 0.9)
        qv = rng.uniform(-math.pi + 0.02, -0.02)
        psi = rng.uniform(-math.pi, math.pi)
        k, y, tm1, tm2, tm3, *coeffs = K.quartic_setup_core(
            d_sc, qv, psi, params.d_se, params.d_ew, params.a_wr
        )
        t = rng.uniform(-1.5, 1.5, 5)
        lhs = (tm1 + t * tm2 + t * t * tm3) ** 2 - (
            de**2 - (t - aw) ** 2
        ) * y**2 * (k - aw * t) ** 2
        rhs = np.polyval(coeffs, t)
        scale = np.maximum(np.max(np.abs(coeffs)) * np.maximum(1.0, np.abs(t)) ** 4,
                           np.abs(lhs))
        worst = max(worst, float(np.max(np.abs(lhs - rhs) / scale)))
    ok = worst < 1e-9
    _report(7, ok, f"samples=10000x5 max_rel_err={worst:.2e} (<1e-9)")
    assert worst < 1e-9
