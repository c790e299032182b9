"""Kernel rewrites against reference copies of the code they replaced.

fk_chain multiplies the link transforms in one loop over local floats, reading
the link constants of link_table; the reference below is the original product
of mdh_link affines on the raw rows. link_rot is the rotation of mdh_link from
the same constants. wrap_angle returns its argument unchanged on (-3, 3); the
reference is the floor formula alone. Each pair must agree to the last bit
(compared by repr, so the signs of zeros count).
"""

import math

import numpy as np
import pytest

from armik._kernels import active as K
from armik._kernels_impl import link_table


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
                want = K.mdh_link(row[0], row[1], row[2], th)[:9]
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
