"""Independent numerical oracles.

Everything here deliberately avoids the homogeneous-matrix kernels and the
closed-form solver internals: forward kinematics is recomputed with unit
quaternions, quartic roots come from the companion-matrix eigenvalues, and
the iterative IK is a plain damped least squares loop on a finite-difference
Jacobian. Tests use these to cross-check the analytical code paths.
"""

from dataclasses import dataclass, field
import math

import numpy as np

from .errors import AllCoefficientsZero, InvalidInput, NoConvergence
from .robot import JointConfig, Transform, _joint_floats
from ._kernels_impl import COMPLEX_PAIR_TOL, DEGREE_TOL, ROOT_MERGE_TOL


def _quat_mul(a, b):
    # hamilton product, scalar-first, broadcasting over leading axes
    aw, ax, ay, az = a[..., 0], a[..., 1], a[..., 2], a[..., 3]
    bw, bx, by, bz = b[..., 0], b[..., 1], b[..., 2], b[..., 3]
    return np.stack(
        [
            aw * bw - ax * bx - ay * by - az * bz,
            aw * bx + ax * bw + ay * bz - az * by,
            aw * by - ax * bz + ay * bw + az * bx,
            aw * bz + ax * by - ay * bx + az * bw,
        ],
        axis=-1,
    )


def _quat_apply(q, v):
    # rotate v by q: v + 2 qv x (qv x v + w v)
    w = q[..., :1]
    qv = q[..., 1:]
    t = np.cross(qv, v) + w * v
    return v + 2.0 * np.cross(qv, t)


def _quat_to_mat(q):
    # q: a unit quaternion [w, x, y, z] of shape (4,), or (N, 4) for a batch;
    # one quaternion unpacks to numpy scalars, whose arithmetic is several
    # times cheaper than that of 0-d arrays (armik ik parses one per item).
    # The copy returns a C-ordered array that owns its data, not a view
    # that keeps the (9,) or (9, N) temporary alive.
    w, x, y, z = q.T
    R = np.array([
        1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y),
        2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x),
        2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y),
    ])
    return R.T.reshape(q.shape[:-1] + (3, 3)).copy()


def _axis_quat(axis, angle):
    # axis is 0 (x) or 2 (z); angle may be an array
    angle = np.asarray(angle, dtype=float)
    q = np.zeros(angle.shape + (4,))
    q[..., 0] = np.cos(angle / 2.0)
    q[..., 1 + axis] = np.sin(angle / 2.0)
    return q


def fk_oracle_batch(params, Q):
    """Quaternion-composition forward kinematics for joint rows Q (N,7).

    Returns (R (N,3,3), p (N,3)). Independent of the matrix FK path.
    """
    Q = np.asarray(Q, dtype=float)
    if Q.ndim != 2 or Q.shape[1] != 7:
        raise InvalidInput(f"joint batch must be (N,7), got {Q.shape}")
    n = Q.shape[0]
    quat = np.zeros((n, 4))
    quat[:, 0] = 1.0
    p = np.zeros((n, 3))
    for i in range(7):
        alpha, a, d, off = params.mdh[i]
        quat = _quat_mul(quat, _axis_quat(0, np.full(n, alpha)))
        if a != 0.0:
            p = p + _quat_apply(quat, np.array([a, 0.0, 0.0]))
        quat = _quat_mul(quat, _axis_quat(2, off + Q[:, i]))
        if d != 0.0:
            p = p + _quat_apply(quat, np.array([0.0, 0.0, d]))
    # normalize to fend off drift over the seven products
    quat = quat / np.linalg.norm(quat, axis=1, keepdims=True)
    return _quat_to_mat(quat), p


def fk_oracle(params, joints):
    """Single-pose quaternion forward kinematics. Returns a Transform."""
    q = np.array(_joint_floats(joints))
    R, p = fk_oracle_batch(params, q.reshape(1, 7))
    return Transform(R[0], p[0])


def quartic_oracle(
    coeffs,
    degree_tol=DEGREE_TOL,
    root_merge_tol=ROOT_MERGE_TOL,
    complex_accept=COMPLEX_PAIR_TOL,
):
    """Real roots of g4 t^4 + ... + g0 via companion-matrix eigenvalues.

    Applies the same near-real acceptance rule as the analytical solver and
    polishes each accepted root with two guarded Newton steps so the two
    paths agree to tight tolerance away from classification boundaries.
    Returns (roots ascending, multiplicities). Raises AllCoefficientsZero
    for the identically zero polynomial; a polynomial with no t-dependence
    after the degree cut has no roots.
    """
    c = np.asarray(coeffs, dtype=float).reshape(-1)
    if c.shape[0] != 5:
        raise InvalidInput(f"expected 5 coefficients, got {c.shape[0]}")
    scale = np.abs(c).max()
    if scale < 1e-300:
        raise AllCoefficientsZero("polynomial is identically zero")
    cn = c / scale
    # strip leading coefficients below the relative degree cut (np.roots
    # finds no roots of the constant left when all four go)
    lead = 0
    while lead < 4 and abs(cn[lead]) < degree_tol:
        lead += 1
    poly = cn[lead:]
    roots = np.roots(poly)
    out = []
    for r in roots:
        if abs(r.imag) >= complex_accept * max(1.0, abs(r.real)):
            continue
        t = r.real
        # two guarded Newton steps on the normalized polynomial
        for _ in range(2):
            pv = 0.0
            dv = 0.0
            for ck in poly:
                dv = dv * t + pv
                pv = pv * t + ck
            if dv == 0.0:
                break
            tn = t - pv / dv
            pn = 0.0
            for ck in poly:
                pn = pn * tn + ck
            if abs(pn) <= abs(pv):
                t = tn
        out.append(t)
    if not out:
        return np.empty(0), np.empty(0, dtype=int)
    out.sort()
    merged = []
    mult = []
    for t in out:
        if merged and abs(t - merged[-1]) <= root_merge_tol:
            mult[-1] += 1
        else:
            merged.append(t)
            mult.append(1)
    return np.asarray(merged), np.asarray(mult, dtype=int)


def _rotation_error_vec(R_target, R_current):
    # axis-angle of R_target R_current^T
    E = R_target @ R_current.T
    w = np.array(
        [E[2, 1] - E[1, 2], E[0, 2] - E[2, 0], E[1, 0] - E[0, 1]]
    )
    sn = 0.5 * np.linalg.norm(w)
    cn = 0.5 * (np.trace(E) - 1.0)
    ang = math.atan2(sn, cn)
    if sn < 1e-12:
        if cn > 0.0:
            return 0.5 * w
        # half-turn: axis from the symmetric part
        d = np.diagonal(E)
        k = int(np.argmax(d))
        axis = np.sqrt(np.maximum((d + 1.0) / 2.0, 0.0))
        axis_full = np.zeros(3)
        axis_full[k] = axis[k]
        for j in range(3):
            if j != k and axis[k] > 0.0:
                axis_full[j] = E[k, j] / (2.0 * axis_full[k]) + E[j, k] / (
                    2.0 * axis_full[k]
                )
        nrm = np.linalg.norm(axis_full)
        if nrm == 0.0:
            return np.zeros(3)
        return math.pi * axis_full / nrm
    return ang * w / (2.0 * sn)


@dataclass
class NumericIkResult:
    """Outcome of the damped least squares iteration."""

    joints: JointConfig
    iterations: int
    error: float


def numeric_ik(
    params,
    pose,
    seed,
    max_iters=200,
    damping=1e-6,
    tol=1e-12,
):
    """Damped least squares IK from a seed configuration.

    Pure numerical method on a finite-difference Jacobian; shares no code
    with the analytical solver. Raises NoConvergence if the error does not
    fall below tol within max_iters sweeps.
    """
    from .singularity import numeric_jacobian
    from .robot import forward_kinematics

    q = np.array(_joint_floats(seed))
    p_t = np.asarray(pose.translation, dtype=float)
    R_t = np.asarray(pose.rotation, dtype=float)
    err = math.inf
    for it in range(max_iters):
        cur = forward_kinematics(params, q)
        e = np.concatenate(
            [p_t - cur.translation, _rotation_error_vec(R_t, cur.rotation)]
        )
        err = np.linalg.norm(e)
        if err < tol:
            return NumericIkResult(JointConfig(q).wrapped(), it, float(err))
        J = numeric_jacobian(q, params)
        A = J @ J.T + (damping ** 2) * np.eye(6)
        dq = J.T @ np.linalg.solve(A, e)
        q = q + dq
    raise NoConvergence(
        f"damped least squares stalled at error {err:.3e} after {max_iters} iterations"
    )


@dataclass
class CheckResult:
    """Aggregate self-check outcome."""

    passed: bool
    max_error: float
    detail: dict = field(default_factory=dict)


def check_all(params, n=500, seed=0):
    """Cross-check the analytical paths against the oracles on random data."""
    from .robot import forward_kinematics
    from ._kernels_impl import solve_quartic_core
    from .ik_core import IkRequest, solve
    from .arm_angle import arm_angle
    from .singularity import family_distance
    from .errors import ArmikError

    rng = np.random.default_rng(seed)
    detail = {}

    Q = rng.uniform(-math.pi, math.pi, size=(n, 7))
    Ro, po = fk_oracle_batch(params, Q)
    fk_dev = 0.0
    for i in range(n):
        t = forward_kinematics(params, Q[i])
        fk_dev = max(
            fk_dev,
            float(np.abs(t.rotation - Ro[i]).max()),
            float(np.abs(t.translation - po[i]).max()),
        )
    detail["fk_max_dev"] = fk_dev

    quartic_dev = 0.0
    for _ in range(n):
        g = rng.uniform(-10.0, 10.0, size=5)
        count, roots, _ = solve_quartic_core(*g, DEGREE_TOL, ROOT_MERGE_TOL, COMPLEX_PAIR_TOL)
        ro, _ = quartic_oracle(g)
        if count != ro.shape[0]:
            quartic_dev = math.inf
        elif count:
            quartic_dev = max(quartic_dev, float(np.abs(np.array(roots) - ro).max()))
    detail["quartic_max_dev"] = quartic_dev

    n_rt = min(n, 200)
    hits = 0
    total = 0
    rt_pose = 0.0
    for i in range(n_rt):
        q = rng.uniform(-math.pi, math.pi, size=7)
        if family_distance(q, params) < 5e-2:
            continue
        total += 1
        pose = forward_kinematics(params, q)
        try:
            psi = arm_angle(params, q)
            res = solve(IkRequest(pose=pose, psi=psi, params=params))
        except ArmikError:
            continue
        best = math.inf
        for br in res.branches:
            best = min(best, np.abs(br.joints.q - JointConfig(q).wrapped().q).max())
        if best < 1e-6:
            hits += 1
        if res.branches:
            rt_pose = max(rt_pose, max(b.pose_error for b in res.branches))
    detail["roundtrip_total"] = total
    detail["roundtrip_recovered"] = hits
    detail["roundtrip_rate"] = hits / total if total else 0.0
    detail["roundtrip_max_pose_err"] = rt_pose

    passed = (
        fk_dev < 1e-12
        and quartic_dev < 1e-8
        and (total == 0 or hits / total >= 0.99)
        and rt_pose < 1e-8
    )
    max_error = max(fk_dev, quartic_dev if math.isfinite(quartic_dev) else 1.0, rt_pose)
    return CheckResult(passed=passed, max_error=float(max_error), detail=detail)
