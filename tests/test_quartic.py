import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from armik import AllCoefficientsZero
from armik.verify import quartic_oracle
from armik import _kernels_impl as K
from armik._kernels_impl import COMPLEX_PAIR_TOL, DEGREE_TOL, ROOT_MERGE_TOL
from conftest import quartic_roots


def _poly(roots):
    # monic polynomial coefficients from roots, highest degree first
    c = np.array([1.0])
    for r in roots:
        c = np.convolve(c, [1.0, -r])
    return c


def test_four_simple_roots():
    roots, mult = quartic_roots(_poly([1.0, 2.0, 3.0, 4.0]))
    assert len(roots) == 4
    assert_allclose(sorted(roots), [1.0, 2.0, 3.0, 4.0], atol=1e-10)
    assert all(m == 1 for m in mult)


def test_no_real_roots():
    roots, _ = quartic_roots([1.0, 0.0, 0.0, 0.0, 1.0])  # t^4 + 1
    assert len(roots) == 0


def test_biquadratic():
    # t^4 - 5 t^2 + 4 = (t^2-1)(t^2-4)
    roots, _ = quartic_roots([1.0, 0.0, -5.0, 0.0, 4.0])
    assert_allclose(sorted(roots), [-2.0, -1.0, 1.0, 2.0], atol=1e-10)


def test_double_root_multiplicity():
    roots, mult = quartic_roots(_poly([2.0, 2.0, -1.0, 5.0]))
    order = np.argsort(roots)
    assert_allclose(roots[order], [-1.0, 2.0, 5.0], atol=1e-6)
    assert list(mult[order]) == [1, 2, 1]


def test_quadruple_root():
    roots, mult = quartic_roots(_poly([3.0, 3.0, 3.0, 3.0]))
    assert sum(mult) == 4
    assert_allclose(roots, [3.0] * len(roots), atol=1e-3)


def test_degree_degradation():
    # leading zeros hand off to cubic / quadratic / linear solvers
    roots, _ = quartic_roots([0.0, 1.0, -6.0, 11.0, -6.0])  # (t-1)(t-2)(t-3)
    assert_allclose(sorted(roots), [1.0, 2.0, 3.0], atol=1e-10)
    roots, _ = quartic_roots([0.0, 0.0, 1.0, -3.0, 2.0])
    assert_allclose(sorted(roots), [1.0, 2.0], atol=1e-12)
    roots, _ = quartic_roots([0.0, 0.0, 0.0, 2.0, -5.0])
    assert_allclose(roots, [2.5], atol=1e-12)
    roots, _ = quartic_roots([0.0, 0.0, 0.0, 0.0, 3.0])  # nonzero constant
    assert len(roots) == 0


def test_all_zero_raises():
    with pytest.raises(AllCoefficientsZero, match="^polynomial is identically zero$"):
        quartic_roots([0.0, 0.0, 0.0, 0.0, 0.0])


def test_underflowing_resolvent_gives_a_triple_root():
    # p of about -1e-110 underflows sqrt(-p^3 / 27) to 0, which the cubic
    # divided by; its roots lie within 1e-51 of the triple root at 0
    assert K.solve_cubic_monic(0.0, -1e-110, 0.0) == (-0.0, -0.0, -0.0)
    count, roots, mult = K.solve_quartic_core(
        -6.407831978558478e-159, 1.3278083636377705e+232, -6.890142271562975e-160,
        -3.8362693743725876e+105, -2.5320822017350393e-85,
        DEGREE_TOL, ROOT_MERGE_TOL, COMPLEX_PAIR_TOL)
    assert (count, mult) == (1, [3])
    assert abs(roots[0]) < 1e-150


def test_fuzzed_coefficients_raise_only_all_coefficients_zero():
    # magnitudes over the whole float range, a fifth of them zero: about one
    # draw in 26 hits the underflow above
    rng = np.random.default_rng(77)
    with np.errstate(over="ignore"):
        g = rng.normal(size=(20000, 5)) * 10.0 ** rng.uniform(-320, 308, size=(20000, 5))
    g[rng.random(g.shape) < 0.2] = 0.0
    zero = 0
    for c in g.tolist():
        try:
            count, roots, mult = K.solve_quartic_core(*c, DEGREE_TOL, ROOT_MERGE_TOL,
                                                      COMPLEX_PAIR_TOL)
        except AllCoefficientsZero:
            zero += 1
            continue
        assert count == len(roots) == len(mult) <= sum(mult) <= 4
    assert 0 < zero < 100
    # the same with tiny random tolerances, which a ToleranceSet may hold:
    # the biquadratic test squares huge depressed coefficients, as here
    count, _, _ = K.solve_quartic_core(
        1.3190500126822497e+18, -3.0061481919055313e+23, 1e+308, -3.145180304345356e-21,
        -1.1676053293127218e-10, 3.4394167951102114e-298, 3.1303926847980066e-08,
        0.0927943666807005)
    assert count <= 4
    tols = 10.0 ** rng.uniform(-320, 0, size=(20000, 3))
    for c, t in zip(g.tolist(), tols.tolist()):
        try:
            count, roots, mult = K.solve_quartic_core(*c, *t)
        except AllCoefficientsZero:
            continue
        assert count == len(roots) == len(mult) <= sum(mult) <= 4


def test_deterministic():
    coeffs = [2.0, -3.0, -11.0, 6.0, 1.0]
    ra, ma = quartic_roots(coeffs)
    rb, mb = quartic_roots(coeffs)
    assert np.array_equal(ra, rb)  # bitwise identical
    assert np.array_equal(ma, mb)


def test_matches_companion_oracle():
    rng = np.random.default_rng(41)
    checked = 0
    for _ in range(2000):
        c = rng.uniform(-10.0, 10.0, size=5)
        if abs(c[0]) < 1e-3:
            continue
        mine, _ = quartic_roots(c)
        theirs, _ = quartic_oracle(c)
        # skip near-degenerate sets where root count is tolerance sensitive
        if len(mine) != len(theirs):
            r = np.sort(np.concatenate([mine, theirs]))
            assert np.any(np.diff(r) < 1e-5) or np.any(
                np.abs(np.polyval(c, r)) < 1e-4 * np.max(np.abs(c))
            )
            continue
        checked += 1
        assert_allclose(sorted(mine), sorted(theirs), atol=1e-8)
    assert checked > 1500


def test_residuals_small():
    rng = np.random.default_rng(42)
    for _ in range(500):
        c = rng.uniform(-10.0, 10.0, size=5)
        if abs(c[0]) < 1e-3:
            continue
        roots, _ = quartic_roots(c)
        scale = np.max(np.abs(c))
        for r in roots:
            # relative backward error of each reported root
            assert abs(np.polyval(c, r)) < 1e-7 * scale * max(1.0, abs(r)) ** 4


# edge cases of the polish, sort and merge: coefficients and the output
# (count, roots, multiplicities) recorded by repr from the if-chain and
# flag form of solve_quartic_core
NAN, INF = math.nan, math.inf
EDGE_CASES = {
    "double_root_at_zero": ([1.0, 0.0, -1.0, 0.0, 0.0], (3, [-1.0, 0.0, 1.0], [1, 2, 1])),
    "double_root_at_signed_zero": ([1.0, -0.0, -1.0, -0.0, -0.0],
                                   (3, [-1.0, 0.0, 1.0], [1, 2, 1])),
    "double_root_at_zero_ferrari": ([1.0, -3.0, 2.0, 0.0, 0.0],
                                    (3, [0.0, 0.9999999999999998, 2.0000000000000004], [2, 1, 1])),
    "double_root_at_minus_zero": ([-0.0, -0.0, -1.0, -0.0, 0.0], (1, [-0.0], [2])),
    "triple_root_at_minus_zero": ([-1.0, -0.0, 3.0, -2.0, -0.0], (2, [-2.0, -0.0], [1, 3])),
    "three_merged_least_not_first": ([1.0, 4.508565296493996, -5.9978958967454155,
                                      2.3858061757354876, -0.3087555336624386],
                                     (2, [-5.647193528029998, 0.37954274384533404], [1, 3])),
    "close_roots_group_on_their_first": ([1.0, -0.8154066280484014, 0.10045475471033039,
                                          0.058082227695733665, -0.01268108817072213],
                                         (3, [-0.2687129952141483, 0.36137320814854745,
                                              0.3613732146009395], [1, 2, 1])),
    "nan_leading": ([NAN, 1.0, -2.0, 0.5, 1.0], (0, [], [])),
    "nan_middle": ([1.0, -3.0, NAN, 1.0, 2.0], (0, [], [])),
    "nan_constant": ([1.0, -3.0, 2.0, 1.0, NAN], (0, [], [])),
    "nan_coefficient_gives_nan_roots": ([0.7542256340479634, -1e+300, 42.499736884243475, NAN,
                                         0.01215521913039327],
                                        (3, [NAN, NAN, NAN], [1, 1, 1])),
    "nan_constant_gives_a_nan_root": ([-0.03364920173925638, 2.8063705431784345, 4.654181539155186,
                                       -1e+300, NAN],
                                      (1, [NAN], [1])),
    "nan_coefficient_gives_a_finite_root": ([-0.004550729712246006, NAN, 1e+300,
                                             142.38603101459455, 2.4391106002761824],
                                            (1, [-7.119301550729727e-299], [2])),
    "inf_leading": ([INF, 1.0, -2.0, 0.5, 1.0], (0, [], [])),
    "inf_middle": ([1.0, -3.0, -INF, 1.0, 2.0], (0, [], [])),
    "inf_constant": ([1.0, -3.0, 2.0, 1.0, -INF], (0, [], [])),
    "biquad_complex_pair_accepted": ([1.0, 0.0, -2.0, 0.0, 1.000000000000001],
                                     (2, [-1.0, 1.0], [2, 2])),
    "backtracking_runs_out": ([-0.002039277339174826, 1641.3985978131495, -4.382371443180145e-05,
                               -7.378586338357413e-07, -1572.2538619450306],
                              (2, [8.847564458847046e-09, 804892.2852628133], [3, 1])),
}


@pytest.mark.parametrize("name", sorted(EDGE_CASES))
def test_edge_case_outputs_are_pinned(name):
    # repr tells 0.0 from -0.0 and compares NaN roots
    coeffs, want = EDGE_CASES[name]
    out = K.solve_quartic_core(*coeffs, DEGREE_TOL, ROOT_MERGE_TOL, COMPLEX_PAIR_TOL)
    assert repr(out) == repr(want)
