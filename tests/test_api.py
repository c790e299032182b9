import armik


def test_all_names_resolve_once():
    missing = [name for name in armik.__all__ if not hasattr(armik, name)]
    assert not missing
    assert len(set(armik.__all__)) == len(armik.__all__)


def test_star_import():
    ns = {}
    exec("from armik import *", ns)
    assert set(armik.__all__) <= set(ns)


def test_one_kernel_module():
    # perfbench wraps kernel attributes on armik._kernels.active and records
    # armik.BACKEND; ik_solve_core must resolve its helpers in that module
    assert armik._kernels.active is armik._kernels_impl
    assert armik.BACKEND == "pure"
    assert armik.ik_core._K.ik_solve_core.__globals__ is vars(armik._kernels.active)
