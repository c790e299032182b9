import math

import numpy as np
import pytest

from armik import Transform, classify, default_params
from armik import _kernels_impl as K
from armik._kernels_impl import COMPLEX_PAIR_TOL, DEGREE_TOL, ROOT_MERGE_TOL


@pytest.fixture(scope="session")
def params():
    return default_params()


_KIN = (
    "elbow_straight",
    "shoulder_flip_elbow_plane",
    "shoulder_flip_wrist_offset",
    "wrist_plane_wrist_offset",
)
_ALG_ANG = ("q2_half_pi", "q6_offset_angle", "reference_parallel")


def singular_distance(q, params):
    """Radian distance to the nearest singular family of any kind.

    The meter-valued branch-fold expression is converted with a gradient
    upper bound so the result is a lower bound on the true distance.
    """
    rep = classify(q, params)
    d = min(rep.distances[n] for n in _KIN + _ALG_ANG)
    g_max = params.d_ew + 2.0 * params.a_wr
    return min(d, rep.distances["branch_fold"] / g_max)


def quartic_roots(coeffs):
    """(roots, multiplicities) of the kernel's quartic solver at the default
    tolerances; the coefficients go in as numpy float64 scalars."""
    _, roots, mult = K.solve_quartic_core(
        *np.asarray(coeffs, dtype=float), DEGREE_TOL, ROOT_MERGE_TOL, COMPLEX_PAIR_TOL)
    return np.array(roots), np.array(mult)


def merged_root(solve_quartic, index, mult):
    """solve_quartic (solve_quartic_core's signature) with its real root
    number index, where there is one, returned alone at multiplicity mult:
    the root slots of a merged root, on any pose."""
    def merged(*args):
        count, roots, mults = solve_quartic(*args)
        if index >= count:
            return count, roots, mults
        return 1, [roots[index]], [mult]
    return merged


def special_pose(params, d_sc, q, al):
    """Tool pose whose standard form is (d_sc, q, al): C on the base z-axis
    at height d_bs + d_sc and tool rotation Ry(q) Rz(al), so SC is +z."""
    cq, sq = math.cos(q), math.sin(q)
    ca, sa = math.cos(al), math.sin(al)
    Ry = np.array([[cq, 0.0, sq], [0.0, 1.0, 0.0], [-sq, 0.0, cq]])
    Rz = np.array([[ca, -sa, 0.0], [sa, ca, 0.0], [0.0, 0.0, 1.0]])
    return Transform(Ry @ Rz, np.array([0.0, 0.0, params.d_bs + d_sc]))


def sample_far_joints(rng, params, margin=5e-2):
    """One random configuration at least margin from every singular family."""
    while True:
        q = rng.uniform(-math.pi, math.pi, 7)
        if singular_distance(q, params) >= margin:
            return q


def family_sample(rng, params, family):
    """One configuration placed exactly on a kinematic singular family.

    Values are internal coordinates; the default table has zero offset
    between user and internal joints.
    """
    q6s = math.acos(-params.a_wr / params.d_ew)
    q = rng.uniform(-2.9, 2.9, 7)
    if family == "elbow_straight":
        q[3] = rng.choice([0.0, math.pi])
    elif family == "shoulder_flip_elbow_plane":
        q[1] = rng.choice([math.pi / 2, -math.pi / 2])
        q[2] = rng.choice([0.0, math.pi])
    elif family == "shoulder_flip_wrist_offset":
        q[1] = rng.choice([math.pi / 2, -math.pi / 2])
        q[5] = rng.choice([q6s, -q6s])
    elif family == "wrist_plane_wrist_offset":
        q[4] = rng.choice([0.0, math.pi])
        q[5] = rng.choice([q6s, -q6s])
    else:
        raise AssertionError(family)
    return q
