"""Kernel backend selection.

Loads the kernel bodies twice: one copy stays pure Python, the other is
rebound through numba.njit when numba is importable and the
ARMIK_DISABLE_NUMBA environment variable is not set. Both copies stay
importable so the benchmark can compare backends in one process.
"""

import importlib.util
import os

from . import _kernels_impl as _impl

# rebinding order: callees first so dispatcher globals resolve when compiling
KERNEL_NAMES = (
    "wrap_angle",
    "mdh_link",
    "link_rot",
    "rot_mul_nt",
    "fk_chain",
    "rot_geodesic",
    "_cbrt",
    "solve_cubic_monic",
    "solve_quartic_core",
    "reduce_pose_core",
    "arm_dihedral",
    "arm_angle_core",
    "quartic_setup_core",
    "eq7_residual",
    "ik_solve_core",
)


def _fresh_copy(name):
    spec = importlib.util.find_spec("armik._kernels_impl")
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    mod.__name__ = name
    return mod


pure = _fresh_copy("armik._kernels_impl_pure")

_disabled = os.environ.get("ARMIK_DISABLE_NUMBA", "") not in ("", "0")
jit = None
if not _disabled:
    try:
        import numba

        for _name in KERNEL_NAMES:
            setattr(_impl, _name, numba.njit(cache=True)(getattr(_impl, _name)))
        jit = _impl
    except ImportError:
        jit = None

active = jit if jit is not None else pure
BACKEND = "numba" if jit is not None else "pure"


def backend_name():
    return BACKEND
