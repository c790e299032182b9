import armik


def test_all_names_resolve_once():
    missing = [name for name in armik.__all__ if not hasattr(armik, name)]
    assert not missing
    assert len(set(armik.__all__)) == len(armik.__all__)


def test_star_import():
    ns = {}
    exec("from armik import *", ns)
    assert set(armik.__all__) <= set(ns)
