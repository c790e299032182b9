import numpy as np
import pytest
from numpy.testing import assert_allclose

from armik import AllCoefficientsZero, quartic_oracle
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
