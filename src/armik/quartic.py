"""Closed-form real roots of quartic polynomials.

Ferrari's method through the resolvent cubic, with graceful degree
degradation for vanishing leading coefficients and a guarded Newton
polish with step backtracking. The operation count is bounded and
input-independent, which is what makes the whole IK pipeline real-time
safe.
"""

from dataclasses import dataclass

from .errors import AllCoefficientsZero, InvalidInput
from ._kernels import active as _K
from ._kernels_impl import OK

DEGREE_TOL = 1e-12
ROOT_MERGE_TOL = 1e-8
COMPLEX_PAIR_TOL = 1e-7


@dataclass
class RealRoots:
    """Ascending real roots with multiplicities."""

    roots: "np.ndarray"
    multiplicities: "np.ndarray"

    def __len__(self):
        return len(self.roots)


def solve_quartic(
    coeffs,
    degree_tol=DEGREE_TOL,
    root_merge_tol=ROOT_MERGE_TOL,
    complex_accept=COMPLEX_PAIR_TOL,
):
    """Real roots of g4 t^4 + g3 t^3 + g2 t^2 + g1 t + g0.

    coeffs is (g4, g3, g2, g1, g0). Coefficients are scale-normalized;
    leading coefficients below degree_tol (relative) degrade the degree.
    Near-real conjugate pairs within complex_accept are folded into real
    double roots (squaring upstream manufactures such pairs at branch
    boundaries). Roots closer than root_merge_tol are merged with summed
    multiplicity. Raises AllCoefficientsZero for the identically zero
    polynomial; a nonzero constant simply has no roots.
    """
    import numpy as np
    c = np.asarray(coeffs, dtype=float).reshape(-1)
    if c.shape[0] != 5:
        raise InvalidInput(f"expected 5 coefficients, got {c.shape[0]}")
    if not np.all(np.isfinite(c)):
        raise InvalidInput("coefficients must be finite")
    roots = [0.0] * 4
    mult = [0] * 4
    count, status = _K.solve_quartic_core(
        c[0], c[1], c[2], c[3], c[4],
        degree_tol, root_merge_tol, complex_accept, roots, mult,
    )
    if status != OK:
        raise AllCoefficientsZero("polynomial is identically zero")
    return RealRoots(
        roots=np.array(roots[:count], dtype=float),
        multiplicities=np.array(mult[:count], dtype=np.int64),
    )
