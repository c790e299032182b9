"""Kernel rewrites against reference copies of the code they replaced.

fk_chain multiplies the link transforms in one loop over local floats, reading
the link constants of link_table; the reference below is the original product
of link affines (_mdh_link: the rotation row-major, then the translation) on
the raw rows. link_rot is the rotation of _mdh_link from the same constants. wrap_angle returns its argument unchanged on (-3, 3); the
reference is the floor formula alone. Each pair must agree to the last bit
(compared by repr, so the signs of zeros count). ik_solve_core's duplicate
scan settles most pairs of branches on joint 1 or joint 3 before its loop
over all 7 joints; the reference is that loop alone.
"""

import math

import numpy as np
import pytest

from armik import IkRequest, ToleranceSet, Transform, arm_angle, forward_kinematics, solve
from armik import _kernels_impl as K
from armik._kernels_impl import link_table
from conftest import sample_far_joints


def _mdh_link(alpha, a, d, theta):
    ca, sa = math.cos(alpha), math.sin(alpha)
    ct, st = math.cos(theta), math.sin(theta)
    return (ct, -st, 0.0, ca * st, ca * ct, -sa, sa * st, sa * ct, ca, a, -sa * d, ca * d)


def _affine_mul(A, B):
    a00, a01, a02, a10, a11, a12, a20, a21, a22, ax, ay, az = A
    b00, b01, b02, b10, b11, b12, b20, b21, b22, bx, by, bz = B
    return (a00 * b00 + a01 * b10 + a02 * b20,
            a00 * b01 + a01 * b11 + a02 * b21,
            a00 * b02 + a01 * b12 + a02 * b22,
            a10 * b00 + a11 * b10 + a12 * b20,
            a10 * b01 + a11 * b11 + a12 * b21,
            a10 * b02 + a11 * b12 + a12 * b22,
            a20 * b00 + a21 * b10 + a22 * b20,
            a20 * b01 + a21 * b11 + a22 * b21,
            a20 * b02 + a21 * b12 + a22 * b22,
            a00 * bx + a01 * by + a02 * bz + ax,
            a10 * bx + a11 * by + a12 * bz + ay,
            a20 * bx + a21 * by + a22 * bz + az)


def _fk_chain_reference(mdh, q):
    row = mdh[0]
    T = _mdh_link(row[0], row[1], row[2], row[3] + q[0])
    S = E = W = (0.0, 0.0, 0.0)
    for i in range(1, 7):
        row = mdh[i]
        T = _affine_mul(T, _mdh_link(row[0], row[1], row[2], row[3] + q[i]))
        if i == 1:
            S = (T[9], T[10], T[11])
        elif i == 3:
            E = (T[9], T[10], T[11])
        elif i == 5:
            W = (T[9], T[10], T[11])
    return T[:9], T[9:], S, E, W


def _wrap_reference(a):
    w = a - 2.0 * math.pi * math.floor((a + math.pi) / (2.0 * math.pi))
    if w <= -math.pi:
        w = math.pi
    return w


SPECIAL = (0.0, -0.0, 0.5 * math.pi, -0.5 * math.pi, math.pi, -math.pi)


def _joint_sets(rng, n):
    for _ in range(n):
        yield rng.uniform(-4.0, 4.0, 7).tolist()
        yield [SPECIAL[k] for k in rng.integers(0, len(SPECIAL), 7)]


def _planar_table(rng):
    # alpha = +-0 keeps exact zeros in the rotation along the whole chain;
    # only the `* 0.0` terms of the product give them their signs
    signed = (0.0, -0.0, 0.3, -0.3)
    return np.array([[rng.choice((0.0, -0.0)), rng.choice(signed), rng.choice(signed),
                      rng.choice(SPECIAL)] for _ in range(7)])


def _tables(params, rng):
    mdh = params.mdh.copy()
    mdh[:, 3] += rng.uniform(-1.0, 1.0, 7)  # non-zero theta offsets too
    return [params.mdh, mdh] + [_planar_table(rng) for _ in range(20)]


@pytest.mark.parametrize("as_numpy", [False, True], ids=["float_rows", "numpy_rows"])
def test_fk_chain_matches_link_product_bits(params, as_numpy):
    rng = np.random.default_rng(71)
    for table in _tables(params, rng):
        rows = table if as_numpy else tuple(map(tuple, table.tolist()))
        links = link_table(rows)
        for q in _joint_sets(rng, 150):
            if as_numpy:
                q = np.array(q)
            assert repr(K.fk_chain(links, q)) == repr(_fk_chain_reference(rows, q)), q


@pytest.mark.parametrize("as_numpy", [False, True], ids=["float_rows", "numpy_rows"])
def test_link_rot_matches_mdh_link_bits(params, as_numpy):
    rng = np.random.default_rng(73)
    thetas = list(SPECIAL) + rng.uniform(-4.0, 4.0, 40).tolist()
    for table in _tables(params, rng):
        rows = table if as_numpy else tuple(map(tuple, table.tolist()))
        for row, L in zip(rows, link_table(rows)):
            for th in thetas:
                want = _mdh_link(row[0], row[1], row[2], th)[:9]
                assert repr(K.link_rot(L, th)) == repr(want), (row, th)


def test_wrap_angle_matches_floor_formula_bits():
    edges = [3.0, math.pi, 0.0, 1e6, 2.0 * math.pi]
    values = []
    for e in edges:
        for x in (e, -e):
            values += [x, math.nextafter(x, math.inf), math.nextafter(x, -math.inf)]
    values += [-0.0, 5e-324, -5e-324, 1e-300, 2.9999999, -2.9999999]
    values += np.random.default_rng(72).uniform(-7.0, 7.0, 5000).tolist()
    for a in values:
        assert repr(K.wrap_angle(a)) == repr(_wrap_reference(a)), a
    assert repr(K.wrap_angle(-0.0)) == "-0.0"


def test_wrap_angle_rejects_nan():
    with pytest.raises(ValueError):
        K.wrap_angle(math.nan)


def _is_duplicate_reference(qu, accepted, tol):
    for qb in accepted:
        same = True
        for ji in range(7):
            if abs(K.wrap_angle(qu[ji] - qb[ji])) > tol:
                same = False
                break
        if same:
            return True
    return False


def _scan_requests(params, rng):
    # roundtrip-style: far configurations at their own arm angle;
    # workcell-style: goals in a box around the base at random arm angles
    for _ in range(40):
        q = sample_far_joints(rng, params)
        yield forward_kinematics(params, q), arm_angle(params, q)
    for _ in range(60):
        R = forward_kinematics(params, rng.uniform(-math.pi, math.pi, 7)).rotation
        p = rng.uniform((-1.0, -1.0, -0.5), (1.0, 1.0, 1.3))
        yield Transform(R, p), rng.uniform(-math.pi, math.pi)


# rejections of leaves that reached FK verification
_AFTER_FK = ("pose_mismatch", "psi_mismatch", "duplicate")


@pytest.mark.parametrize("merge_tol", [1e-7, 1e-3, 0.5, 2.9, 3.0, 3.5, 7.0])
def test_duplicate_scan_matches_seven_joint_loop(params, monkeypatch, merge_tol):
    # every leaf that reaches FK calls fk_chain once, in leaf order; those
    # past the pose and psi checks meet the duplicate scan, which must decide
    # as the 7-joint loop does on the accepted branches before them
    verified = []
    fk_chain = K.fk_chain

    def recording(links, qu):
        verified.append(qu)
        return fk_chain(links, qu)

    monkeypatch.setattr(K, "fk_chain", recording)
    tol = ToleranceSet(angle_merge_tol=merge_tol)
    rng = np.random.default_rng(74)
    duplicates = 0
    for pose, psi in _scan_requests(params, rng):
        verified.clear()
        res = solve(IkRequest(pose=pose, psi=psi, params=params, tolerances=tol))
        reasons = {r.leaf: r.reason for r in res.rejected}
        joints = {4 * b.root_index + 2 * (b.q4_sign < 0) + (b.q2_sign < 0): b.joints._q
                  for b in res.branches}
        fk_leaves = sorted(set(joints).union(
            leaf for leaf, reason in reasons.items() if reason in _AFTER_FK))
        assert len(fk_leaves) == len(verified)
        accepted = []
        for leaf, qu in zip(fk_leaves, verified):
            reason = reasons.get(leaf)
            if reason in ("pose_mismatch", "psi_mismatch"):
                continue
            want_duplicate = _is_duplicate_reference(qu, accepted, merge_tol)
            assert (reason == "duplicate") == want_duplicate, (leaf, qu)
            if want_duplicate:
                duplicates += 1
            else:
                assert repr(joints[leaf]) == repr(qu)
                accepted.append(qu)
    if merge_tol >= 3.0:
        assert duplicates > 0
