"""Hot-path kernels: forward kinematics, quartic roots, branch enumeration.

Plain-Python bodies on float scalars, tuples, lists and math.*, which
Python runs far faster than numpy scalar indexing. Degenerate input raises
the package's typed errors (ZeroSC, AxisParallel, DegenerateArm,
AllCoefficientsZero); ik_solve_core ends each of its 16 leaves as a branch
tuple or as a shared RejectedBranch record.

The table below is the one home of every numeric threshold on the solve and
`armik ik` paths. The kernels read its fixed cut-offs as module globals.
"""

from dataclasses import dataclass
import math
from math import cos, sin  # fk_chain's trig: a global lookup, no attribute lookup
from operator import itemgetter

from .errors import AllCoefficientsZero, AxisParallel, DegenerateArm, ZeroSC

# --- thresholds: the condition each guards, and its unit ---
# defaults of the ToleranceSet fields, the only thresholds a caller can tune
POSE_TOL = 1e-8  # branch FK error: rotation geodesic plus translation distance (rad + m)
ANGLE_MERGE_TOL = 1e-7  # two branches are one: every joint this close, wrapped (rad)
BRANCH_RESIDUAL_TOL = 1e-7  # unsquared constraint residual over its largest term (unitless)
SIN_DOMAIN_TOL = 1e-9  # slack on |cos| <= 1 before a domain rejection (unitless)
PSI_TOL = 1e-8  # a branch's arm angle off the requested psi (rad)
TOL_LEN = 1e-9  # a shorter SC, shoulder-elbow, tool axis or |t6| counts as zero (m)
TOL_PARALLEL = 1e-8  # sine of the angle below which a direction is parallel to SC (unitless)
DEGREE_TOL = 1e-12  # a quartic coefficient over the largest one below this is 0 (unitless)
ROOT_MERGE_TOL = 1e-8  # quartic roots this close merge into one root (t6 units: m)
COMPLEX_PAIR_TOL = 1e-7  # complex root pair is real: |imag| / max(1, |real|) below (unitless)
# fixed cut-offs
ARM_EQ_TOL = 1e-2  # arm-equation residual of the better sin q8 sign (rad)
NEWTON_DET_TOL = 1e-13  # (q6, q8) Newton step: |det J| over its largest entry squared (unitless)
ELBOW_TOL = 1e-10  # both atan2 arguments of q5 below this: elbow plane undefined (m)
SHOULDER_CONSISTENCY_TOL = 1e-6  # residual of the q4/q5 equation that q5's atan2 leaves out (m)
WRIST_TOL = 1e-10  # 1 - |r33| below this: q1 and q3 do not separate (unitless)
BIQUAD_Q_TOL = 1e-13  # quartic is biquadratic: odd term |q| over 1 + |p| + |r| (unitless)
BIQUAD_S2_TOL = 1e-14  # the same: resolvent root 2m over (1 + |p| + sqrt|r|)^2 (unitless)
PARAMS_STRUCTURE_TOL = 1e-9  # parameter table off the supported chain (rad, m)
ROT_TOL = 1e-9  # rotation input off orthonormal, or its determinant off +1 (unitless)
QUAT_NORM_TOL = 1e-9  # quaternion input norm off 1 (unitless)
HIT_TOL = 1e-6  # classify: distance of a singular family that counts as a hit (rad)
HIT_TOL_M = 1e-9  # classify: the same for the branch-fold expression (m)
SC_LEN_TOL = 1e-12  # classify: a shorter SC sets reference_parallel to 0 (m)

TWO_PI = 2.0 * math.pi
HALF_PI = 0.5 * math.pi

# zero offsets of the solver's internal joint coordinates
BASE_OFFSETS = (0.0, -HALF_PI, HALF_PI, 0.0, HALF_PI, HALF_PI, 0.0)

# per-leaf rejection reasons with their categories, in code order (codes
# 1..13); each of the 16 leaves = 4 root slots x 2 elbow signs x 2 q2 signs
# ends as an accepted branch or as one of these
REASONS = (
    ("complex_root", "complex_root"),
    ("cos_domain", "domain"),
    ("unsquared_residual", "residual"),
    ("q8_degenerate", "degeneracy"),
    ("arm_equation_mismatch", "residual"),
    ("unreachable", "domain"),
    ("elbow_degenerate", "degeneracy"),
    ("shoulder_consistency", "residual"),
    ("wrist_degenerate", "degeneracy"),
    ("pose_mismatch", "residual"),
    ("psi_mismatch", "residual"),
    ("duplicate", "duplicate"),
    ("quartic_identically_zero", "degeneracy"),
)


def leaf_label(leaf):
    """Human-readable branch label for a leaf index 0..15."""
    slot = leaf // 4
    q4s = "+" if (leaf % 4) < 2 else "-"
    q2s = "+" if (leaf % 2) == 0 else "-"
    return f"root{slot}/q4{q4s}/q2{q2s}"


@dataclass(frozen=True)
class RejectedBranch:
    """A candidate leaf that was ruled out, with the reason."""

    label: str
    leaf: int
    reason: str
    category: str


# LEAF_REJ[reason][leaf] is the record of that rejection, built once and
# shared by every solve: a slot's four leaves are LEAF_REJ[reason][4 * slot:4 * slot + 4]
LEAF_REJ = {
    reason: tuple(RejectedBranch(leaf_label(leaf), leaf, reason, category) for leaf in range(16))
    for reason, category in REASONS
}


def wrap_angle(a):
    """Wrap to (-pi, pi]."""
    if -3.0 < a < 3.0:
        # (a + pi) / 2pi lies in (0.02, 0.98): the floor below is 0 and w == a
        return a
    w = a - TWO_PI * math.floor((a + math.pi) / TWO_PI)
    if w <= -math.pi:
        w = math.pi
    return w


def link_table(rows):
    """Constants of the rows (alpha, a, d, theta_offset) of a parameter table,
    one row (cos alpha, sin alpha, -sin alpha, a, -sin alpha * d,
    cos alpha * d, theta_offset) per joint. Setup code, not a kernel."""
    links = []
    for alpha, a, d, off in rows:
        ca = math.cos(alpha)
        sa = math.sin(alpha)
        links.append((ca, sa, -sa, a, -sa * d, ca * d, off))
    return tuple(links)


def link_rot(L, theta):
    """Rotation, row-major, of the link transform RotX(alpha) TransX(a)
    RotZ(theta) TransZ(d) of link_table row L at joint angle theta."""
    ca, sa, nsa = L[0], L[1], L[2]
    ct = math.cos(theta)
    st = math.sin(theta)
    return (ct, -st, 0.0,
            ca * st, ca * ct, nsa,
            sa * st, sa * ct, ca)


def rot_mul_nt(A, B):
    """Rotation A times the transpose of rotation B (row-major 9-tuples)."""
    a00, a01, a02, a10, a11, a12, a20, a21, a22 = A
    b00, b01, b02, b10, b11, b12, b20, b21, b22 = B
    return (a00 * b00 + a01 * b01 + a02 * b02,
            a00 * b10 + a01 * b11 + a02 * b12,
            a00 * b20 + a01 * b21 + a02 * b22,
            a10 * b00 + a11 * b01 + a12 * b02,
            a10 * b10 + a11 * b11 + a12 * b12,
            a10 * b20 + a11 * b21 + a12 * b22,
            a20 * b00 + a21 * b01 + a22 * b02,
            a20 * b10 + a21 * b11 + a22 * b12,
            a20 * b20 + a21 * b21 + a22 * b22)


def fk_chain(links, q):
    """Full chain product of the 7 link_table rows in links at joints q.

    Returns (R, p, S, E, W): the base-to-end rotation as a row-major 9-tuple,
    its translation, and the origins of frames 2/4/6 (after the odd steps).
    Each step multiplies by the link transform RotX(alpha) TransX(a)
    RotZ(theta) TransZ(d) at theta = theta_offset + q_i, with every term of
    the affine product, in order (the `* 0.0` terms fix the signs of zeros).
    The six steps are written out: a loop over them gives the same bits but
    takes 10-13% longer per call (5.4 -> 6.1 us on 2 cores, Python 3.11).
    """
    q0, q1, q2, q3, q4, q5, q6 = q
    L0, L1, L2, L3, L4, L5, L6 = links
    ca, sa, nsa, a, nsd, cad, off = L0
    th = off + q0
    ct, st = cos(th), sin(th)
    t00, t01, t02, tx = ct, -st, 0.0, a
    t10, t11, t12, ty = ca * st, ca * ct, nsa, nsd
    t20, t21, t22, tz = sa * st, sa * ct, ca, cad
    ca, sa, nsa, a, by, bz, off = L1
    th = off + q1
    ct, st = cos(th), sin(th)
    nst = -st
    b10, b11 = ca * st, ca * ct
    b20, b21 = sa * st, sa * ct
    tx = t00 * a + t01 * by + t02 * bz + tx
    ty = t10 * a + t11 * by + t12 * bz + ty
    tz = t20 * a + t21 * by + t22 * bz + tz
    t00, t01, t02 = (t00 * ct + t01 * b10 + t02 * b20,
                     t00 * nst + t01 * b11 + t02 * b21,
                     t00 * 0.0 + t01 * nsa + t02 * ca)
    t10, t11, t12 = (t10 * ct + t11 * b10 + t12 * b20,
                     t10 * nst + t11 * b11 + t12 * b21,
                     t10 * 0.0 + t11 * nsa + t12 * ca)
    t20, t21, t22 = (t20 * ct + t21 * b10 + t22 * b20,
                     t20 * nst + t21 * b11 + t22 * b21,
                     t20 * 0.0 + t21 * nsa + t22 * ca)
    S = (tx, ty, tz)
    ca, sa, nsa, a, by, bz, off = L2
    th = off + q2
    ct, st = cos(th), sin(th)
    nst = -st
    b10, b11 = ca * st, ca * ct
    b20, b21 = sa * st, sa * ct
    tx = t00 * a + t01 * by + t02 * bz + tx
    ty = t10 * a + t11 * by + t12 * bz + ty
    tz = t20 * a + t21 * by + t22 * bz + tz
    t00, t01, t02 = (t00 * ct + t01 * b10 + t02 * b20,
                     t00 * nst + t01 * b11 + t02 * b21,
                     t00 * 0.0 + t01 * nsa + t02 * ca)
    t10, t11, t12 = (t10 * ct + t11 * b10 + t12 * b20,
                     t10 * nst + t11 * b11 + t12 * b21,
                     t10 * 0.0 + t11 * nsa + t12 * ca)
    t20, t21, t22 = (t20 * ct + t21 * b10 + t22 * b20,
                     t20 * nst + t21 * b11 + t22 * b21,
                     t20 * 0.0 + t21 * nsa + t22 * ca)
    ca, sa, nsa, a, by, bz, off = L3
    th = off + q3
    ct, st = cos(th), sin(th)
    nst = -st
    b10, b11 = ca * st, ca * ct
    b20, b21 = sa * st, sa * ct
    tx = t00 * a + t01 * by + t02 * bz + tx
    ty = t10 * a + t11 * by + t12 * bz + ty
    tz = t20 * a + t21 * by + t22 * bz + tz
    t00, t01, t02 = (t00 * ct + t01 * b10 + t02 * b20,
                     t00 * nst + t01 * b11 + t02 * b21,
                     t00 * 0.0 + t01 * nsa + t02 * ca)
    t10, t11, t12 = (t10 * ct + t11 * b10 + t12 * b20,
                     t10 * nst + t11 * b11 + t12 * b21,
                     t10 * 0.0 + t11 * nsa + t12 * ca)
    t20, t21, t22 = (t20 * ct + t21 * b10 + t22 * b20,
                     t20 * nst + t21 * b11 + t22 * b21,
                     t20 * 0.0 + t21 * nsa + t22 * ca)
    E = (tx, ty, tz)
    ca, sa, nsa, a, by, bz, off = L4
    th = off + q4
    ct, st = cos(th), sin(th)
    nst = -st
    b10, b11 = ca * st, ca * ct
    b20, b21 = sa * st, sa * ct
    tx = t00 * a + t01 * by + t02 * bz + tx
    ty = t10 * a + t11 * by + t12 * bz + ty
    tz = t20 * a + t21 * by + t22 * bz + tz
    t00, t01, t02 = (t00 * ct + t01 * b10 + t02 * b20,
                     t00 * nst + t01 * b11 + t02 * b21,
                     t00 * 0.0 + t01 * nsa + t02 * ca)
    t10, t11, t12 = (t10 * ct + t11 * b10 + t12 * b20,
                     t10 * nst + t11 * b11 + t12 * b21,
                     t10 * 0.0 + t11 * nsa + t12 * ca)
    t20, t21, t22 = (t20 * ct + t21 * b10 + t22 * b20,
                     t20 * nst + t21 * b11 + t22 * b21,
                     t20 * 0.0 + t21 * nsa + t22 * ca)
    ca, sa, nsa, a, by, bz, off = L5
    th = off + q5
    ct, st = cos(th), sin(th)
    nst = -st
    b10, b11 = ca * st, ca * ct
    b20, b21 = sa * st, sa * ct
    tx = t00 * a + t01 * by + t02 * bz + tx
    ty = t10 * a + t11 * by + t12 * bz + ty
    tz = t20 * a + t21 * by + t22 * bz + tz
    t00, t01, t02 = (t00 * ct + t01 * b10 + t02 * b20,
                     t00 * nst + t01 * b11 + t02 * b21,
                     t00 * 0.0 + t01 * nsa + t02 * ca)
    t10, t11, t12 = (t10 * ct + t11 * b10 + t12 * b20,
                     t10 * nst + t11 * b11 + t12 * b21,
                     t10 * 0.0 + t11 * nsa + t12 * ca)
    t20, t21, t22 = (t20 * ct + t21 * b10 + t22 * b20,
                     t20 * nst + t21 * b11 + t22 * b21,
                     t20 * 0.0 + t21 * nsa + t22 * ca)
    W = (tx, ty, tz)
    ca, sa, nsa, a, by, bz, off = L6
    th = off + q6
    ct, st = cos(th), sin(th)
    nst = -st
    b10, b11 = ca * st, ca * ct
    b20, b21 = sa * st, sa * ct
    tx = t00 * a + t01 * by + t02 * bz + tx
    ty = t10 * a + t11 * by + t12 * bz + ty
    tz = t20 * a + t21 * by + t22 * bz + tz
    t00, t01, t02 = (t00 * ct + t01 * b10 + t02 * b20,
                     t00 * nst + t01 * b11 + t02 * b21,
                     t00 * 0.0 + t01 * nsa + t02 * ca)
    t10, t11, t12 = (t10 * ct + t11 * b10 + t12 * b20,
                     t10 * nst + t11 * b11 + t12 * b21,
                     t10 * 0.0 + t11 * nsa + t12 * ca)
    t20, t21, t22 = (t20 * ct + t21 * b10 + t22 * b20,
                     t20 * nst + t21 * b11 + t22 * b21,
                     t20 * 0.0 + t21 * nsa + t22 * ca)
    return ((t00, t01, t02, t10, t11, t12, t20, t21, t22), (tx, ty, tz),
            S, E, W)


def rot_geodesic(Ra, Rb):
    """Geodesic angle between two rotations (row-major 9-tuples), atan2 form
    (stable near 0 and pi)."""
    a00, a01, a02, a10, a11, a12, a20, a21, a22 = Ra
    b00, b01, b02, b10, b11, b12, b20, b21, b22 = Rb
    t00 = a00 * b00 + a01 * b01 + a02 * b02
    t11 = a10 * b10 + a11 * b11 + a12 * b12
    t22 = a20 * b20 + a21 * b21 + a22 * b22
    m21 = a20 * b10 + a21 * b11 + a22 * b12
    m12 = a10 * b20 + a11 * b21 + a12 * b22
    m02 = a00 * b20 + a01 * b21 + a02 * b22
    m20 = a20 * b00 + a21 * b01 + a22 * b02
    m10 = a10 * b00 + a11 * b01 + a12 * b02
    m01 = a00 * b10 + a01 * b11 + a02 * b12
    sx = m21 - m12
    sy = m02 - m20
    sz = m10 - m01
    sn = 0.5 * math.sqrt(sx * sx + sy * sy + sz * sz)
    cn = 0.5 * (t00 + t11 + t22 - 1.0)
    return math.atan2(sn, cn)


def _cbrt(x):
    if x >= 0.0:
        return x ** (1.0 / 3.0)
    return -((-x) ** (1.0 / 3.0))


def solve_cubic_monic(a2, a1, a0):
    """Real roots of x^3 + a2 x^2 + a1 x + a0 as an ascending tuple."""
    p = a1 - a2 * a2 / 3.0
    qq = 2.0 * a2 * a2 * a2 / 27.0 - a2 * a1 / 3.0 + a0
    shift = -a2 / 3.0
    disc = 0.25 * qq * qq + p * p * p / 27.0
    if disc > 0.0:
        sq = math.sqrt(disc)
        u = _cbrt(-0.5 * qq + sq)
        v = _cbrt(-0.5 * qq - sq)
        return (u + v + shift,)
    if p >= 0.0:
        # p ~ 0 with disc <= 0 forces q ~ 0: triple root
        return (shift, shift, shift)
    rho = math.sqrt(-p * p * p / 27.0)
    if rho == 0.0:
        # p in about (-1e-103, 0) underflows rho; the three roots lie within
        # 2 sqrt(-p / 3) < 1e-51 of shift: the same triple root
        return (shift, shift, shift)
    arg = -0.5 * qq / rho
    if arg > 1.0:
        arg = 1.0
    elif arg < -1.0:
        arg = -1.0
    th = math.acos(arg)
    amp = 2.0 * math.sqrt(-p / 3.0)
    return tuple(sorted((amp * math.cos(th / 3.0) + shift,
                         amp * math.cos((th - TWO_PI) / 3.0) + shift,
                         amp * math.cos((th + TWO_PI) / 3.0) + shift)))


def solve_quartic_core(g4, g3, g2, g1, g0, degree_tol, root_merge_tol, complex_accept):
    """Real roots of g4 t^4 + ... + g0, ascending, merged with multiplicities.

    Ferrari resolvent-cubic closed form with degree degradation and a
    guarded Newton polish with step backtracking. Returns (count, roots,
    mults), the roots and their multiplicities as lists; raises
    AllCoefficientsZero when every coefficient is zero.
    """
    scale = max(abs(g4), abs(g3), abs(g2), abs(g1), abs(g0))
    if scale < 1e-300:
        raise AllCoefficientsZero("polynomial is identically zero")
    c4 = g4 / scale
    c3 = g3 / scale
    c2 = g2 / scale
    c1 = g1 / scale
    c0 = g0 / scale

    raw = []
    cut = degree_tol
    if abs(c4) > cut:
        a = c3 / c4
        b = c2 / c4
        c = c1 / c4
        d = c0 / c4
        # depressed quartic y^4 + p y^2 + q y + r, t = y - a/4
        p = b - 3.0 * a * a / 8.0
        q = c - 0.5 * a * b + a * a * a / 8.0
        r = d - 0.25 * a * c + a * a * b / 16.0 - 3.0 * a * a * a * a / 256.0
        shift = -a / 4.0
        use_biquad = abs(q) <= BIQUAD_Q_TOL * (1.0 + abs(p) + abs(r))
        if not use_biquad:
            # resolvent m^3 + p m^2 + (p^2/4 - r) m - q^2/8 = 0; largest root
            m = solve_cubic_monic(p, 0.25 * p * p - r, -q * q / 8.0)[-1]
            s2 = 2.0 * m
            try:
                s2_cut = BIQUAD_S2_TOL * (1.0 + abs(p) + math.sqrt(abs(r))) ** 2
            except OverflowError:  # the square is beyond the float range
                s2_cut = math.inf
            use_biquad = s2 <= s2_cut
        if use_biquad:
            # y^4 + p y^2 + r = 0
            zd = p * p - 4.0 * r
            if zd >= 0.0:
                sz = math.sqrt(zd)
                z1 = 0.5 * (-p - sz)
                z2 = 0.5 * (-p + sz)
                for z in (z1, z2):
                    if z >= 0.0:
                        yv = math.sqrt(z)
                        raw.append(yv + shift)
                        raw.append(-yv + shift if yv > 0.0 else shift)
                    elif math.sqrt(-z) < complex_accept:
                        raw.append(shift)
                        raw.append(shift)
            else:
                # complex z pair; real y only if imaginary parts are noise
                zre = -0.5 * p
                if zre > 0.0:
                    yre = math.sqrt(zre)
                    yim = 0.5 * math.sqrt(-zd) / (2.0 * yre)
                    if yim < complex_accept * max(1.0, yre):
                        raw.append(yre + shift)
                        raw.append(yre + shift)
                        raw.append(-yre + shift)
                        raw.append(-yre + shift)
        else:
            s = math.sqrt(s2)
            u = 0.5 * p + m
            v = 0.5 * q / s
            # (y^2 + s y + u - v)(y^2 - s y + u + v)
            for B, C in ((s, u - v), (-s, u + v)):
                disc = B * B - 4.0 * C
                if disc >= 0.0:
                    sd = math.sqrt(disc)
                    if B >= 0.0:
                        y1 = 0.5 * (-B - sd)
                    else:
                        y1 = 0.5 * (-B + sd)
                    if y1 != 0.0:
                        y2 = C / y1
                    else:
                        y2 = -0.5 * B
                    raw.append(y1 + shift)
                    raw.append(y2 + shift)
                else:
                    re = -0.5 * B
                    im = 0.5 * math.sqrt(-disc)
                    if im < complex_accept * max(1.0, abs(re)):
                        raw.append(re + shift)
                        raw.append(re + shift)
    elif abs(c3) > cut:
        raw.extend(solve_cubic_monic(c2 / c3, c1 / c3, c0 / c3))
    elif abs(c2) > cut:
        disc = c1 * c1 - 4.0 * c2 * c0
        if disc >= 0.0:
            sd = math.sqrt(disc)
            if c1 >= 0.0:
                y1 = 0.5 * (-c1 - sd) / c2
            else:
                y1 = 0.5 * (-c1 + sd) / c2
            raw.append(y1)
            raw.append((c0 / c2) / y1 if y1 != 0.0 else -0.5 * c1 / c2)
        else:
            re = -0.5 * c1 / c2
            im = 0.5 * math.sqrt(-disc) / abs(c2)
            if im < complex_accept * max(1.0, abs(re)):
                raw.append(re)
                raw.append(re)
    elif abs(c1) > cut:
        raw.append(-c0 / c1)
    else:
        # nonzero constant: no roots
        return 0, [], []

    # Newton polish on the scaled polynomial; a full step that increases |P|
    # is halved up to 4 times (closed form can overshoot badly when the
    # depressed-quartic shift cancels against a small root). Each root keeps
    # |P| at its last evaluation, which picks the best root of a merged group
    polished = []
    for x in raw:
        fx = (((c4 * x + c3) * x + c2) * x + c1) * x + c0
        for _ in range(8):
            if fx == 0.0:
                break
            dfx = ((4.0 * c4 * x + 3.0 * c3) * x + 2.0 * c2) * x + c1
            if abs(dfx) < 1e-300:
                break
            step = fx / dfx
            for _ in range(5):
                xn = x - step
                fn = (((c4 * xn + c3) * xn + c2) * xn + c1) * xn + c0
                if abs(fn) <= abs(fx):
                    break
                step *= 0.5
            else:
                break
            if xn == x:
                break
            x = xn
            fx = fn
        polished.append((x, abs(fx)))
    # stable on the root alone, so 0.0 and -0.0 keep their order
    polished.sort(key=itemgetter(0))

    # merge roots within root_merge_tol of their group's first into the one
    # of least |P| (the first of equal ones); there are at most 4 raw roots
    roots = []
    mults = []
    for x, fx in polished:
        if roots and x - first <= root_merge_tol:
            mults[-1] += 1
            if fx < best_f:
                roots[-1] = x
                best_f = fx
        else:
            roots.append(x)
            mults.append(1)
            first, best_f = x, fx
    return len(roots), roots, mults


def reduce_pose_core(R, p, d_bs, tol_len, tol_parallel):
    """Reduce an end pose (R a row-major 9-list) to (d_sc, q, al, A), A the
    rows of the aligning rotation as a row-major 9-tuple."""
    scx = p[0]
    scy = p[1]
    scz = p[2] - d_bs
    ss = scx * scx + scy * scy + scz * scz
    m = 1.0
    if math.isinf(ss):
        # the squares overflow: scale by the largest component
        m = max(abs(scx), max(abs(scy), abs(scz)))
        scx /= m
        scy /= m
        scz /= m
        ss = scx * scx + scy * scy + scz * scz
    n = math.sqrt(ss)
    d_sc = m * n
    if d_sc < tol_len:
        raise ZeroSC("axis-7 center coincides with the shoulder")
    zvx = scx / n
    zvy = scy / n
    zvz = scz / n
    z7x = R[2]
    z7y = R[5]
    z7z = R[8]
    crx = z7y * zvz - z7z * zvy
    cry = z7z * zvx - z7x * zvz
    crz = z7x * zvy - z7y * zvx
    cn = math.sqrt(crx * crx + cry * cry + crz * crz)
    if cn < tol_parallel:
        raise AxisParallel("tool z-axis is parallel to the shoulder-to-axis7 line")
    yvx = crx / cn
    yvy = cry / cn
    yvz = crz / cn
    dd = zvx * z7x + zvy * z7y + zvz * z7z
    if dd > 1.0:
        dd = 1.0
    elif dd < -1.0:
        dd = -1.0
    q = -math.acos(dd)
    # A rows: yv x zv, yv, zv
    A = (yvy * zvz - yvz * zvy, yvz * zvx - yvx * zvz, yvx * zvy - yvy * zvx,
         yvx, yvy, yvz,
         zvx, zvy, zvz)
    # al: signed angle from x72 = yv x z7 to x7 about z7
    x72x = yvy * z7z - yvz * z7y
    x72y = yvz * z7x - yvx * z7z
    x72z = yvx * z7y - yvy * z7x
    x7x = R[0]
    x7y = R[3]
    x7z = R[6]
    cxx = x72y * x7z - x72z * x7y
    cxy = x72z * x7x - x72x * x7z
    cxz = x72x * x7y - x72y * x7x
    al = math.atan2(cxx * z7x + cxy * z7y + cxz * z7z,
                    x72x * x7x + x72y * x7y + x72z * x7z)
    return d_sc, q, al, A


def arm_dihedral(S, E, C, z7, tol_len, tol_parallel):
    """Signed dihedral about SC from plane(SC, z7) to plane(SC, SE), in
    (-pi, pi]. Raises ZeroSC, AxisParallel or DegenerateArm when SC, the
    reference plane or the arm plane is undefined."""
    ux = C[0] - S[0]
    uy = C[1] - S[1]
    uz = C[2] - S[2]
    un = math.sqrt(ux * ux + uy * uy + uz * uz)
    if un < tol_len:
        raise ZeroSC("axis-7 center coincides with the shoulder")
    ux /= un
    uy /= un
    uz /= un
    # reference direction: z7 projected off u (z7 is unit)
    dzu = z7[0] * ux + z7[1] * uy + z7[2] * uz
    ax = z7[0] - dzu * ux
    ay = z7[1] - dzu * uy
    az = z7[2] - dzu * uz
    if math.sqrt(ax * ax + ay * ay + az * az) < tol_parallel:
        raise AxisParallel("tool z-axis is parallel to the SC line")
    sex = E[0] - S[0]
    sey = E[1] - S[1]
    sez = E[2] - S[2]
    sen = math.sqrt(sex * sex + sey * sey + sez * sez)
    if sen < tol_len:
        raise DegenerateArm("elbow lies on the SC line, arm angle undefined")
    dsu = (sex * ux + sey * uy + sez * uz)
    bx = sex - dsu * ux
    by = sey - dsu * uy
    bz = sez - dsu * uz
    if math.sqrt(bx * bx + by * by + bz * bz) < tol_parallel * sen:
        raise DegenerateArm("elbow lies on the SC line, arm angle undefined")
    cxx = ay * bz - az * by
    cxy = az * bx - ax * bz
    cxz = ax * by - ay * bx
    psi = math.atan2(cxx * ux + cxy * uy + cxz * uz,
                     ax * bx + ay * by + az * bz)
    return wrap_angle(psi)


def arm_angle_core(links, q, tol_len, tol_parallel):
    """Arm angle of a joint configuration via the FK frame points; raises as
    arm_dihedral does."""
    R, C, S, E, W = fk_chain(links, q)
    return arm_dihedral(S, E, C, (R[2], R[5], R[8]), tol_len, tol_parallel)


def quartic_setup_core(d_sc, q, psi, d_se, d_ew, a_wr):
    """k, y, tm1..tm3 and the quartic coefficients for given (d_sc, q, psi)."""
    k = 0.5 * (a_wr * a_wr + d_se * d_se - d_sc * d_sc - d_ew * d_ew)
    cq = math.cos(q)
    y = 2.0 * d_sc * cq
    cp = math.cos(psi)
    sp = math.sin(psi)
    c2q = math.cos(2.0 * q)
    aw2 = a_wr * a_wr
    de2 = d_ew * d_ew
    ds2 = d_sc * d_sc
    tm1 = (cp * cp * (k * k - (aw2 - de2) * ds2 * cq * cq)
           + 0.5 * (-2.0 * aw2 * ds2 + 2.0 * de2 * ds2 + k * k
                    + k * k * c2q) * sp * sp)
    tm2 = (-2.0 * a_wr * cp * cp * (k - ds2 * cq * cq)
           + a_wr * (2.0 * ds2 - k - k * c2q) * sp * sp)
    tm3 = (6.0 * aw2 - 8.0 * ds2 + 2.0 * aw2 * math.cos(2.0 * psi)
           - aw2 * math.cos(2.0 * (psi - q)) + 2.0 * aw2 * c2q
           - aw2 * math.cos(2.0 * (psi + q))) / 8.0
    g4 = tm3 * tm3 + aw2 * y * y
    g3 = 2.0 * tm2 * tm3 - 2.0 * a_wr * (aw2 + k) * y * y
    g2 = (tm2 * tm2 + 2.0 * tm1 * tm3
          + (aw2 * aw2 - aw2 * (de2 - 4.0 * k) + k * k) * y * y)
    g1 = 2.0 * tm1 * tm2 - 2.0 * a_wr * k * (aw2 - de2 + k) * y * y
    g0 = tm1 * tm1 + (aw2 - de2) * k * k * y * y
    return k, y, tm1, tm2, tm3, g4, g3, g2, g1, g0


def ik_solve_core(params, tol, R07, p07, d_sc, q, al, psi):
    """Enumerate all 16 candidate branches for a reduced pose.

    R07/p07 is the pose every branch is verified against (and the rotation fed
    to the q1..q3 decomposition): the original pose of the request, of which
    (d_sc, q, al) is the reduced form. params is a RobotParams, tol a
    ToleranceSet, R07 a row-major 9-tuple and p07 a 3-tuple.
    Every one of the 16 leaves is either accepted or rejected with a reason;
    nothing is silently dropped.

    Returns (accepted, rejected): accepted holds one tuple (joints, slot, t6,
    r6, q8, q4 sign, q2 sign, arm_eq_res, pose_eq_res, pose error) per
    branch, with the joints a 7-tuple and the signs +-1; rejected holds the
    LEAF_REJ record of each rejected leaf.
    """
    links = params._links
    delta = params._delta
    d_se = params.d_se
    d_ew = params.d_ew
    a_wr = params.a_wr
    pose_tol = tol.pose_tol
    angle_merge_tol = tol.angle_merge_tol
    wrap_band = TWO_PI - angle_merge_tol
    branch_residual_tol = tol.branch_residual_tol
    sin_domain_tol = tol.sin_domain_tol
    psi_tol = tol.psi_tol
    tol_len = tol.tol_len
    tol_parallel = tol.tol_parallel
    acc = []

    k, y, tm1, tm2, tm3, g4, g3, g2, g1, g0 = quartic_setup_core(
        d_sc, q, psi, d_se, d_ew, a_wr)
    try:
        _, roots, mults = solve_quartic_core(
            g4, g3, g2, g1, g0, tol.degree_tol, tol.root_merge_tol, tol.complex_accept)
    except AllCoefficientsZero:
        return acc, list(LEAF_REJ["quartic_identically_zero"])

    # expand multiplicities (summing to at most 4) into the root slots; a
    # slot born from a double root is retried with the opposite elbow-plane
    # sign (branch fold)
    slots = [(t6, dup) for t6, m in zip(roots, mults) for dup in range(m)]
    rej = list(LEAF_REJ["complex_root"][len(slots) * 4:])
    if not slots:
        return acc, rej

    sq = math.sin(q)
    cq = math.cos(q)
    cp = math.cos(psi)
    sp = math.sin(psi)

    px, py, pz = p07
    L3 = links[3]
    L4 = links[4]
    L5 = links[5]
    L6 = links[6]
    prev_sign = 1.0

    for slot, (t6, dup) in enumerate(slots):
        lo = 4 * slot
        # cos q6; `not <=` also rejects a NaN root, whose comparisons are False
        c6 = (t6 - a_wr) / d_ew
        if not abs(c6) <= 1.0 + sin_domain_tol:
            rej.extend(LEAF_REJ["cos_domain"][lo:lo + 4])
            continue
        if c6 > 1.0:
            c6 = 1.0
        elif c6 < -1.0:
            c6 = -1.0
        r6_mag = d_ew * math.sqrt(max(0.0, 1.0 - c6 * c6))

        # the unsquared constraint tm1 + t6 tm2 + t6^2 tm3 + r6 y (k - a_wr t6)
        # at r6 = +-r6_mag, over the scale of its largest term (equal for both)
        t2 = t6 * tm2
        t3 = t6 * t6 * tm3
        t4 = r6_mag * y * (k - a_wr * t6)
        s = tm1 + t2 + t3
        res_p = s + t4
        res_m = s - t4
        sc6 = max(abs(tm1), abs(t2), abs(t3), abs(t4), 1.0e-300)
        if dup:
            # duplicate slot: the merged second branch has the opposite sign
            sgn6 = -prev_sign
        else:
            sgn6 = 1.0 if abs(res_p) <= abs(res_m) else -1.0
            prev_sign = sgn6
        res6 = res_p if sgn6 > 0.0 else res_m
        if dup:
            if abs(res6) > branch_residual_tol * sc6 or r6_mag == 0.0:
                rej.extend(LEAF_REJ["duplicate"][lo:lo + 4])
                continue
        elif abs(res6) > branch_residual_tol * sc6:
            rej.extend(LEAF_REJ["unsquared_residual"][lo:lo + 4])
            continue
        r6 = sgn6 * r6_mag
        q6 = math.atan2(r6, t6 - a_wr)

        # q8: cos from the pose equation, sign of sin from the arm equation;
        # q rounds to 0 for tilts off SC of about 1e-8 rad, which pass the
        # parallel test of reduce_pose_core
        den = d_sc * sq * t6
        if abs(t6) < tol_len or den == 0.0:
            rej.extend(LEAF_REJ["q8_degenerate"][lo:lo + 4])
            continue
        xv = a_wr * t6 - k - d_sc * r6 * cq
        cq8 = -xv / den
        if not abs(cq8) <= 1.0 + sin_domain_tol:
            rej.extend(LEAF_REJ["cos_domain"][lo:lo + 4])
            continue
        if cq8 > 1.0:
            cq8 = 1.0
        elif cq8 < -1.0:
            cq8 = -1.0
        sq8_mag = math.sqrt(max(0.0, 1.0 - cq8 * cq8))
        ex = -r6 * sq - t6 * cq * cq8
        ey = t6 * sq8_mag
        arm_p = abs(wrap_angle(math.atan2(ey, ex) + math.pi - psi))
        arm_m = abs(wrap_angle(math.atan2(-ey, ex) + math.pi - psi))
        s8 = 1.0 if arm_p <= arm_m else -1.0
        if min(arm_p, arm_m) > ARM_EQ_TOL:
            rej.extend(LEAF_REJ["arm_equation_mismatch"][lo:lo + 4])
            continue
        q8 = math.atan2(s8 * sq8_mag, cq8)

        # two guarded Newton steps on (q6, q8) against the unsquared pair;
        # the last evaluation is the branch's
        for step in range(3):
            c6 = math.cos(q6)
            s6 = math.sin(q6)
            t6 = a_wr + d_ew * c6
            r6 = d_ew * s6
            cq8 = math.cos(q8)
            sq8 = math.sin(q8)
            pose_eq_res = a_wr * t6 - d_sc * (r6 * cq - t6 * cq8 * sq) - k
            if step == 2:
                break
            F2 = t6 * sq8 * cp + sp * (r6 * sq + t6 * cq * cq8)
            dt6 = -r6
            dr6 = t6 - a_wr
            J11 = a_wr * dt6 - d_sc * (dr6 * cq - dt6 * cq8 * sq)
            J12 = -d_sc * t6 * sq * sq8
            J21 = dt6 * sq8 * cp + sp * (dr6 * sq + dt6 * cq * cq8)
            J22 = t6 * cq8 * cp - sp * t6 * cq * sq8
            det = J11 * J22 - J12 * J21
            jsc = max(abs(J11), max(abs(J12), max(abs(J21), abs(J22))))
            if abs(det) < NEWTON_DET_TOL * jsc * jsc:
                break
            q6 -= (J22 * pose_eq_res - J12 * F2) / det
            q8 -= (-J21 * pose_eq_res + J11 * F2) / det
        arm_eq_res = wrap_angle(
            math.atan2(t6 * sq8, -r6 * sq - t6 * cq * cq8) + math.pi - psi)

        q7 = wrap_angle(q8 + al)

        s6x = a_wr + d_sc * sq * cq8
        s6y = d_sc * cq
        s6z = d_sc * sq * sq8
        n2 = s6x * s6x + s6y * s6y + s6z * s6z
        carg = (n2 - d_ew * d_ew - d_se * d_se) / (2.0 * d_se * d_ew)
        if not abs(carg) <= 1.0 + sin_domain_tol:
            rej.extend(LEAF_REJ["unreachable"][lo:lo + 4])
            continue
        if carg > 1.0:
            carg = 1.0
        elif carg < -1.0:
            carg = -1.0
        q4a = math.acos(carg)

        # neither the elbow nor the shoulder check reads the elbow sign
        a1 = -s6x * s6 - s6y * c6
        a2 = s6z
        cons = s6y * s6 - s6x * c6 - (d_ew + d_se * carg)
        if abs(a1) < ELBOW_TOL and abs(a2) < ELBOW_TOL:
            rej.extend(LEAF_REJ["elbow_degenerate"][lo:lo + 4])
            continue
        if abs(cons) > SHOULDER_CONSISTENCY_TOL:
            rej.extend(LEAF_REJ["shoulder_consistency"][lo:lo + 4])
            continue
        # R03 = R07 R67' R56' R45' R34' (primes are transposes); the first
        # two factors do not depend on the elbow sign
        R05 = rot_mul_nt(rot_mul_nt(R07, link_rot(L6, BASE_OFFSETS[6] + q7)),
                         link_rot(L5, BASE_OFFSETS[5] + q6))
        # user coordinates of the joints shared by the slot's leaves
        u6 = wrap_angle(q6 - delta[5])
        u7 = wrap_angle(q7 - delta[6])
        for s4i in (1, -1):
            base = lo + (0 if s4i > 0 else 2)
            q4 = s4i * q4a
            q5 = math.atan2(s4i * a1, s4i * a2)
            u4 = wrap_angle(q4 - delta[3])
            u5 = wrap_angle(q5 - delta[4])

            R03 = rot_mul_nt(rot_mul_nt(R05, link_rot(L4, BASE_OFFSETS[4] + q5)),
                             link_rot(L3, BASE_OFFSETS[3] + q4))
            r13 = R03[2]
            r23 = R03[5]
            r31 = R03[6]
            r32 = R03[7]
            r33 = R03[8]
            if abs(r33) >= 1.0 - WRIST_TOL:
                rej.extend(LEAF_REJ["wrist_degenerate"][base:base + 2])
                continue
            ac2 = math.acos(max(-1.0, min(1.0, r33)))
            for s2i in (1, -1):
                leaf = base + (0 if s2i > 0 else 1)
                q2 = wrap_angle(s2i * ac2 + HALF_PI)
                q1 = math.atan2(s2i * r23, s2i * r13)
                q3 = math.atan2(s2i * r31, s2i * r32)

                qu = (wrap_angle(q1 - delta[0]), wrap_angle(q2 - delta[1]),
                      wrap_angle(q3 - delta[2]), u4, u5, u6, u7)

                Rb, Cb, Sb, Eb, _ = fk_chain(links, qu)
                dx = Cb[0] - px
                dy = Cb[1] - py
                dz = Cb[2] - pz
                perr = (rot_geodesic(Rb, R07)
                        + math.sqrt(dx * dx + dy * dy + dz * dz))
                if perr > pose_tol:
                    rej.append(LEAF_REJ["pose_mismatch"][leaf])
                    continue
                try:
                    psi_b = arm_dihedral(Sb, Eb, Cb, (Rb[2], Rb[5], Rb[8]), tol_len,
                                         tol_parallel)
                except (ZeroSC, AxisParallel, DegenerateArm):
                    # an undefined arm angle matches no psi
                    rej.append(LEAF_REJ["psi_mismatch"][leaf])
                    continue
                if abs(wrap_angle(psi_b - psi)) > psi_tol:
                    rej.append(LEAF_REJ["psi_mismatch"][leaf])
                    continue
                for br in acc:
                    qb = br[0]
                    # a gap d between two joints in (-pi, pi] with
                    # tol < |d| < 2 pi - tol settles the pair: wrap_angle(d)
                    # is d, d -+ TWO_PI (exact by Sterbenz) or pi, each above
                    # tol. Joints 1 and 3 most often tell branches apart
                    d = qu[1] - qb[1]
                    if angle_merge_tol < abs(d) < wrap_band:
                        continue
                    d = u4 - qb[3]
                    if angle_merge_tol < abs(d) < wrap_band:
                        continue
                    for ji in range(7):
                        if abs(wrap_angle(qu[ji] - qb[ji])) > angle_merge_tol:
                            break
                    else:
                        rej.append(LEAF_REJ["duplicate"][leaf])
                        break
                else:
                    acc.append((qu, slot, t6, r6, q8, s4i, s2i, arm_eq_res,
                                pose_eq_res, perr))

    return acc, rej
