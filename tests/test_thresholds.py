"""The threshold table of armik._kernels_impl: its values, who reads it, and
a guard against thresholds written as bare literals elsewhere."""

import ast
import dataclasses
import inspect
from pathlib import Path

import armik
import armik.verify
from armik import _kernels_impl as T
from armik.ik_core import DEFAULT_TOLERANCES, ToleranceSet
from armik.robot import check_rotation

# every entry of the table, at the value the solver has always used
TABLE = {
    "POSE_TOL": 1e-8,
    "ANGLE_MERGE_TOL": 1e-7,
    "BRANCH_RESIDUAL_TOL": 1e-7,
    "SIN_DOMAIN_TOL": 1e-9,
    "PSI_TOL": 1e-8,
    "TOL_LEN": 1e-9,
    "TOL_PARALLEL": 1e-8,
    "DEGREE_TOL": 1e-12,
    "ROOT_MERGE_TOL": 1e-8,
    "COMPLEX_PAIR_TOL": 1e-7,
    "ARM_EQ_TOL": 1e-2,
    "NEWTON_DET_TOL": 1e-13,
    "ELBOW_TOL": 1e-10,
    "SHOULDER_CONSISTENCY_TOL": 1e-6,
    "WRIST_TOL": 1e-10,
    "BIQUAD_Q_TOL": 1e-13,
    "BIQUAD_S2_TOL": 1e-14,
    "PARAMS_STRUCTURE_TOL": 1e-9,
    "ROT_TOL": 1e-9,
    "QUAT_NORM_TOL": 1e-9,
    "HIT_TOL": 1e-6,
    "HIT_TOL_M": 1e-9,
}

# modules on the solve and `armik ik` paths
GUARDED = ("_kernels_impl.py", "robot.py", "ik_core.py", "cli.py")
# underflow guards of divisions, not thresholds
UNDERFLOW_GUARD = 1e-300


def _default(fn, name):
    return inspect.signature(fn).parameters[name].default


def test_table_values():
    for name, value in TABLE.items():
        got = getattr(T, name)
        assert type(got) is float and got == value, name
    assert armik.ik_core.PSI_TOL is T.PSI_TOL


def test_defaults_read_the_table():
    fields = {f.name: f.default for f in dataclasses.fields(ToleranceSet)}
    assert fields == {
        "pose_tol": T.POSE_TOL,
        "angle_merge_tol": T.ANGLE_MERGE_TOL,
        "branch_residual_tol": T.BRANCH_RESIDUAL_TOL,
        "sin_domain_tol": T.SIN_DOMAIN_TOL,
        "psi_tol": T.PSI_TOL,
        "tol_len": T.TOL_LEN,
        "tol_parallel": T.TOL_PARALLEL,
        "degree_tol": T.DEGREE_TOL,
        "root_merge_tol": T.ROOT_MERGE_TOL,
        "complex_accept": T.COMPLEX_PAIR_TOL,
    }
    defaults = ToleranceSet()
    for name, value in fields.items():
        assert getattr(defaults, name) is value, name
    assert _default(armik.reduce_pose, "tolerances") is DEFAULT_TOLERANCES
    assert "ROT_TOL" in check_rotation.__code__.co_names
    assert _default(armik.classify, "hit_tol") is T.HIT_TOL
    assert _default(armik.classify, "hit_tol_m") is T.HIT_TOL_M
    assert _default(armik.verify.quartic_oracle, "degree_tol") is T.DEGREE_TOL
    assert _default(armik.verify.quartic_oracle, "root_merge_tol") is T.ROOT_MERGE_TOL
    assert _default(armik.verify.quartic_oracle, "complex_accept") is T.COMPLEX_PAIR_TOL


def _table_literals(tree):
    # the value nodes of the module-level assignments to table names
    allowed = set()
    for node in tree.body:
        if (isinstance(node, ast.Assign) and len(node.targets) == 1
                and isinstance(node.targets[0], ast.Name) and node.targets[0].id in TABLE):
            allowed.update(map(id, ast.walk(node.value)))
    return allowed


def test_no_threshold_literal_outside_the_table():
    src = Path(T.__file__).parent
    found = []
    for fname in GUARDED:
        tree = ast.parse((src / fname).read_text())
        allowed = _table_literals(tree) if fname == "_kernels_impl.py" else set()
        for node in ast.walk(tree):
            if (isinstance(node, ast.Constant) and type(node.value) is float
                    and 0.0 < abs(node.value) < 0.1 and node.value != UNDERFLOW_GUARD
                    and id(node) not in allowed):
                found.append(f"{fname}:{node.lineno}: {node.value!r}")
    assert not found, "thresholds outside the table of _kernels_impl.py: " + ", ".join(found)
