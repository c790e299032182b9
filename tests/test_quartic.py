import numpy as np
from numpy.testing import assert_allclose

from armik import quartic_oracle
from armik._kernels_impl import ERR_ALL_COEFFS_ZERO, OK
from conftest import quartic_roots


def _poly(roots):
    # monic polynomial coefficients from roots, highest degree first
    c = np.array([1.0])
    for r in roots:
        c = np.convolve(c, [1.0, -r])
    return c


def test_four_simple_roots():
    _, roots, mult = quartic_roots(_poly([1.0, 2.0, 3.0, 4.0]))
    assert len(roots) == 4
    assert_allclose(sorted(roots), [1.0, 2.0, 3.0, 4.0], atol=1e-10)
    assert all(m == 1 for m in mult)


def test_no_real_roots():
    status, roots, _ = quartic_roots([1.0, 0.0, 0.0, 0.0, 1.0])  # t^4 + 1
    assert status == OK and len(roots) == 0


def test_biquadratic():
    # t^4 - 5 t^2 + 4 = (t^2-1)(t^2-4)
    _, roots, _ = quartic_roots([1.0, 0.0, -5.0, 0.0, 4.0])
    assert_allclose(sorted(roots), [-2.0, -1.0, 1.0, 2.0], atol=1e-10)


def test_double_root_multiplicity():
    _, roots, mult = quartic_roots(_poly([2.0, 2.0, -1.0, 5.0]))
    order = np.argsort(roots)
    assert_allclose(roots[order], [-1.0, 2.0, 5.0], atol=1e-6)
    assert list(mult[order]) == [1, 2, 1]


def test_quadruple_root():
    _, roots, mult = quartic_roots(_poly([3.0, 3.0, 3.0, 3.0]))
    assert sum(mult) == 4
    assert_allclose(roots, [3.0] * len(roots), atol=1e-3)


def test_degree_degradation():
    # leading zeros hand off to cubic / quadratic / linear solvers
    _, roots, _ = quartic_roots([0.0, 1.0, -6.0, 11.0, -6.0])  # (t-1)(t-2)(t-3)
    assert_allclose(sorted(roots), [1.0, 2.0, 3.0], atol=1e-10)
    _, roots, _ = quartic_roots([0.0, 0.0, 1.0, -3.0, 2.0])
    assert_allclose(sorted(roots), [1.0, 2.0], atol=1e-12)
    _, roots, _ = quartic_roots([0.0, 0.0, 0.0, 2.0, -5.0])
    assert_allclose(roots, [2.5], atol=1e-12)
    status, roots, _ = quartic_roots([0.0, 0.0, 0.0, 0.0, 3.0])  # nonzero constant
    assert status == OK and len(roots) == 0


def test_all_zero_status():
    status, roots, _ = quartic_roots([0.0, 0.0, 0.0, 0.0, 0.0])
    assert status == ERR_ALL_COEFFS_ZERO and len(roots) == 0


def test_deterministic():
    coeffs = [2.0, -3.0, -11.0, 6.0, 1.0]
    _, ra, ma = quartic_roots(coeffs)
    _, rb, mb = quartic_roots(coeffs)
    assert np.array_equal(ra, rb)  # bitwise identical
    assert np.array_equal(ma, mb)


def test_matches_companion_oracle():
    rng = np.random.default_rng(41)
    checked = 0
    for _ in range(2000):
        c = rng.uniform(-10.0, 10.0, size=5)
        if abs(c[0]) < 1e-3:
            continue
        _, mine, _ = quartic_roots(c)
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
        _, roots, _ = quartic_roots(c)
        scale = np.max(np.abs(c))
        for r in roots:
            # relative backward error of each reported root
            assert abs(np.polyval(c, r)) < 1e-7 * scale * max(1.0, abs(r)) ** 4
