"""Hostile input gets the same coded error at every validating entry point.

Each case builds a `Transform`, `JointConfig`, `RobotParams` (directly or
through `from_dict`) or an `armik ik` item from one malformed field. The
expected (tag, message) pairs were recorded from the numpy-based
validators that the float validators replaced, which read input as
`np.asarray(x, dtype=float)` does: nested lists and tuples must be
rectangular, None reads as nan, bools and numeric strings read as numbers,
and anything else goes through numpy. "ok" marks input that is accepted.

Record the table again (only when a validator is meant to change) with

    PYTHONPATH=src:tests python3 -c "import test_hostile_input as t; t.record()"
"""

import contextlib
import io
import json
import math

import numpy as np
import pytest

from armik import ArmikError, JointConfig, RobotParams, Transform
from armik.cli import main

NAN, INF = math.nan, math.inf
EYE = [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]
POS = [0.3, 0.1, 0.5]
Q0 = [0.3, -0.7, 1.1, -1.9, 0.4, 0.9, -2.2]
GEOM = (0.36, 0.42, 0.4, 0.0905)


def _eye_with(v):
    return [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, v]]


def _nested(v, depth):
    for _ in range(depth):
        v = [v]
    return v


def _mdh():
    return RobotParams(*GEOM).to_dict()["mdh"]


def _mdh_with(v):
    m = _mdh()
    m[3][3] = v
    return m


# malformed values that JSON can carry, for any field
JSON_ANY = {
    "none": None,
    "text": "abc",
    "true": True,
    "dict": {},
    "nan": NAN,
    "inf": INF,
    "empty": [],
    "scalar": 1.0,
    "deep": _nested(1.0, 100),
}
ROTATIONS = dict(
    JSON_ANY,
    ragged=[[1.0, 0.0, 0.0], [0.0, 1.0], [0.0, 0.0, 1.0]],
    ragged_deep=[[1.0, 0.0, 0.0], [0.0, [1.0], 0.0], [0.0, 0.0, 1.0]],
    none_entry=_eye_with(None),
    text_entry=_eye_with("x"),
    numeric_text=[["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]],
    bools=[[True, False, False], [False, True, False], [False, False, True]],
    dict_entry=_eye_with({}),
    list_entry=_eye_with([1.0]),
    nan_entry=_eye_with(NAN),
    inf_entry=_eye_with(INF),
    neg_inf_entry=_eye_with(-INF),
    huge_int_entry=_eye_with(10**400),
    shape_2x3=EYE[:2],
    shape_9=sum(EYE, []),
    shape_4=[1.0, 0.0, 0.0, 0.0],
    shape_3x3x1=[[[v] for v in row] for row in EYE],
    reflection=[[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, -1.0]],
    sheared=[[1.0, 1e-3, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]],
)
VECTORS = dict(
    JSON_ANY,
    ragged=[0.3, [0.1], 0.5],
    none_entry=[0.3, None, 0.5],
    text_entry=[0.3, "x", 0.5],
    numeric_text=["0.3", "0.1", "0.5"],
    bools=[True, False, True],
    dict_entry=[0.3, {}, 0.5],
    nan_entry=[0.3, NAN, 0.5],
    inf_entry=[0.3, INF, 0.5],
    neg_inf_entry=[0.3, -INF, 0.5],
    shape_2=[0.3, 0.1],
    shape_4=[0.3, 0.1, 0.5, 0.0],
    shape_1x3=[POS],
    shape_3x1=[[v] for v in POS],
)
JOINTS = dict(
    JSON_ANY,
    ragged=Q0[:6] + [[Q0[6]]],
    none_entry=Q0[:6] + [None],
    text_entry=Q0[:6] + ["x"],
    numeric_text=[str(v) for v in Q0],
    bools=[True, False] * 3 + [True],
    dict_entry=Q0[:6] + [{}],
    nan_entry=Q0[:6] + [NAN],
    inf_entry=Q0[:6] + [INF],
    shape_3=Q0[:3],
    shape_1x7=[Q0],
    shape_7x1=[[v] for v in Q0],
)
TABLES = dict(
    JSON_ANY,
    ragged=_mdh()[:6] + [_mdh()[6][:3]],
    none_entry=_mdh_with(None),
    text_entry=_mdh_with("x"),
    numeric_text=[[str(v) for v in row] for row in _mdh()],
    dict_entry=_mdh_with({}),
    nan_entry=_mdh_with(NAN),
    inf_entry=_mdh_with(INF),
    shape_6x4=_mdh()[:6],
    shape_28=sum(_mdh(), []),
    shape_4x7=[list(col) for col in zip(*_mdh())],
    offset_shift=_mdh_with(0.25),
    alpha_changed=[[0.3] + row[1:] if i == 1 else row for i, row in enumerate(_mdh())],
)
QUATERNIONS = {
    "quat_none_entry": [1.0, 0.0, 0.0, None],
    "quat_text_entry": [1.0, 0.0, 0.0, "x"],
    "quat_numeric_text": ["1", "0", "0", "0"],
    "quat_bools": [True, False, False, False],
    "quat_nan_entry": [1.0, 0.0, 0.0, NAN],
    "quat_inf_entry": [1.0, 0.0, 0.0, INF],
    "quat_not_unit": [1.0, 0.1, 0.0, 0.0],
    "quat_zero": [0.0, 0.0, 0.0, 0.0],
}


def _numpy_variants(good):
    """Wrong-shape and wrong-type numpy versions of a good value."""
    a = np.asarray(good, dtype=float)
    return {
        "np_flat": a.ravel(),
        "np_transposed": a.T.copy(),
        "np_2d_row": a.reshape(1, -1),
        "np_extra_row": np.vstack([a.reshape(-1, a.shape[-1]), a.reshape(-1, a.shape[-1])[:1]]),
        "np_0d": np.array(1.0),
        "np_nan": np.full(a.shape, np.nan),
        "np_int": a.astype(np.int64),
        "np_float32": a.astype(np.float32),
        "np_text": a.astype(str),
        "np_object_none": np.array([None] * a.size, dtype=object).reshape(a.shape),
        "np_row_list": list(a),
    }


def _cli(item):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        main(["ik", "--json", json.dumps(item)])
    doc = json.loads(out.getvalue() or err.getvalue())
    if "error" in doc:
        return doc["error"]["tag"], doc["error"]["message"]
    return "ok", None


def _cases():
    cases = {}
    for label, v in list(ROTATIONS.items()) + list(_numpy_variants(EYE).items()):
        cases[f"transform/rotation/{label}"] = lambda v=v: Transform(v, POS)
    for label, v in list(VECTORS.items()) + list(_numpy_variants(POS).items()):
        cases[f"transform/translation/{label}"] = lambda v=v: Transform(EYE, v)
    for label, v in list(JOINTS.items()) + list(_numpy_variants(Q0).items()):
        cases[f"joints/{label}"] = lambda v=v: JointConfig(v)
    for label, v in list(TABLES.items()) + list(_numpy_variants(_mdh()).items()):
        cases[f"params/mdh/{label}"] = lambda v=v: RobotParams(*GEOM, mdh=v)
    for i, name in enumerate(("d_bs", "d_se", "d_ew", "a_wr")):
        for label, v in list(JSON_ANY.items()) + [("list", [0.3]), ("np_0d", np.array(0.3))]:
            geom = list(GEOM)
            geom[i] = v
            cases[f"params/{name}/{label}"] = lambda g=geom: RobotParams(*g)
    base = dict(zip(("d_bs", "d_se", "d_ew", "a_wr"), GEOM))
    for label, v in TABLES.items():
        cases[f"from_dict/mdh/{label}"] = lambda v=v: RobotParams.from_dict(dict(base, mdh=v))
    cases["from_dict/list"] = lambda: RobotParams.from_dict([GEOM])
    cases["from_dict/missing"] = lambda: RobotParams.from_dict({"d_bs": 0.36})
    cases["from_dict/text_length"] = lambda: RobotParams.from_dict(dict(base, d_se="x"))
    ik = {"position": POS, "rotation": EYE, "psi": 0.3}
    for label, v in list(ROTATIONS.items()) + list(QUATERNIONS.items()):
        cases[f"cli/rotation/{label}"] = lambda v=v: _cli(dict(ik, rotation=v))
    for label, v in VECTORS.items():
        cases[f"cli/position/{label}"] = lambda v=v: _cli(dict(ik, position=v))
    for label, v in JSON_ANY.items():
        cases[f"cli/psi/{label}"] = lambda v=v: _cli(dict(ik, psi=v))
    return cases


def outcome(call):
    """(tag, message) of the ArmikError a call raises; ("ok", None) when it
    returns normally, or its own (tag, message) for a cli call."""
    try:
        out = call()
    except ArmikError as e:
        return e.tag, str(e)
    return out if isinstance(out, tuple) else ("ok", None)


def record():
    print("EXPECTED = {")
    for label, call in _cases().items():
        print(f"    {label!r}: {outcome(call)!r},")
    print("}")


EXPECTED = {
    'transform/rotation/none': ('invalid_rotation', 'rotation must be 3x3, got ()'),
    'transform/rotation/text': ('invalid_rotation', 'rotation entries must be numbers'),
    'transform/rotation/true': ('invalid_rotation', 'rotation must be 3x3, got ()'),
    'transform/rotation/dict': ('invalid_rotation', 'rotation entries must be numbers'),
    'transform/rotation/nan': ('invalid_rotation', 'rotation must be 3x3, got ()'),
    'transform/rotation/inf': ('invalid_rotation', 'rotation must be 3x3, got ()'),
    'transform/rotation/empty': ('invalid_rotation', 'rotation must be 3x3, got (0,)'),
    'transform/rotation/scalar': ('invalid_rotation', 'rotation must be 3x3, got ()'),
    'transform/rotation/deep': ('invalid_rotation', 'rotation entries must be numbers'),
    'transform/rotation/ragged': ('invalid_rotation', 'rotation entries must be numbers'),
    'transform/rotation/ragged_deep': ('invalid_rotation', 'rotation entries must be numbers'),
    'transform/rotation/none_entry': ('invalid_rotation', 'rotation contains non-finite values'),
    'transform/rotation/text_entry': ('invalid_rotation', 'rotation entries must be numbers'),
    'transform/rotation/numeric_text': ('ok', None),
    'transform/rotation/bools': ('ok', None),
    'transform/rotation/dict_entry': ('invalid_rotation', 'rotation entries must be numbers'),
    'transform/rotation/list_entry': ('invalid_rotation', 'rotation entries must be numbers'),
    'transform/rotation/nan_entry': ('invalid_rotation', 'rotation contains non-finite values'),
    'transform/rotation/inf_entry': ('invalid_rotation', 'rotation contains non-finite values'),
    'transform/rotation/neg_inf_entry': ('invalid_rotation', 'rotation contains non-finite values'),
    'transform/rotation/huge_int_entry': ('invalid_rotation', 'rotation entries must be numbers'),
    'transform/rotation/shape_2x3': ('invalid_rotation', 'rotation must be 3x3, got (2, 3)'),
    'transform/rotation/shape_9': ('invalid_rotation', 'rotation must be 3x3, got (9,)'),
    'transform/rotation/shape_4': ('invalid_rotation', 'rotation must be 3x3, got (4,)'),
    'transform/rotation/shape_3x3x1': ('invalid_rotation', 'rotation must be 3x3, got (3, 3, 1)'),
    'transform/rotation/reflection': ('invalid_rotation', 'rotation determinant is -1.000000000000, expected +1'),
    'transform/rotation/sheared': ('invalid_rotation', 'rotation is not orthonormal (deviation 1.000e-03)'),
    'transform/rotation/np_flat': ('invalid_rotation', 'rotation must be 3x3, got (9,)'),
    'transform/rotation/np_transposed': ('ok', None),
    'transform/rotation/np_2d_row': ('invalid_rotation', 'rotation must be 3x3, got (1, 9)'),
    'transform/rotation/np_extra_row': ('invalid_rotation', 'rotation must be 3x3, got (4, 3)'),
    'transform/rotation/np_0d': ('invalid_rotation', 'rotation must be 3x3, got ()'),
    'transform/rotation/np_nan': ('invalid_rotation', 'rotation contains non-finite values'),
    'transform/rotation/np_int': ('ok', None),
    'transform/rotation/np_float32': ('ok', None),
    'transform/rotation/np_text': ('ok', None),
    'transform/rotation/np_object_none': ('invalid_rotation', 'rotation contains non-finite values'),
    'transform/rotation/np_row_list': ('ok', None),
    'transform/translation/none': ('invalid_input', 'translation must have 3 elements, got 1'),
    'transform/translation/text': ('invalid_input', 'translation must be a list of 3 numbers'),
    'transform/translation/true': ('invalid_input', 'translation must have 3 elements, got 1'),
    'transform/translation/dict': ('invalid_input', 'translation must be a list of 3 numbers'),
    'transform/translation/nan': ('invalid_input', 'translation must have 3 elements, got 1'),
    'transform/translation/inf': ('invalid_input', 'translation must have 3 elements, got 1'),
    'transform/translation/empty': ('invalid_input', 'translation must have 3 elements, got 0'),
    'transform/translation/scalar': ('invalid_input', 'translation must have 3 elements, got 1'),
    'transform/translation/deep': ('invalid_input', 'translation must be a list of 3 numbers'),
    'transform/translation/ragged': ('invalid_input', 'translation must be a list of 3 numbers'),
    'transform/translation/none_entry': ('invalid_input', 'translation contains non-finite values'),
    'transform/translation/text_entry': ('invalid_input', 'translation must be a list of 3 numbers'),
    'transform/translation/numeric_text': ('ok', None),
    'transform/translation/bools': ('ok', None),
    'transform/translation/dict_entry': ('invalid_input', 'translation must be a list of 3 numbers'),
    'transform/translation/nan_entry': ('invalid_input', 'translation contains non-finite values'),
    'transform/translation/inf_entry': ('invalid_input', 'translation contains non-finite values'),
    'transform/translation/neg_inf_entry': ('invalid_input', 'translation contains non-finite values'),
    'transform/translation/shape_2': ('invalid_input', 'translation must have 3 elements, got 2'),
    'transform/translation/shape_4': ('invalid_input', 'translation must have 3 elements, got 4'),
    'transform/translation/shape_1x3': ('ok', None),
    'transform/translation/shape_3x1': ('ok', None),
    'transform/translation/np_flat': ('ok', None),
    'transform/translation/np_transposed': ('ok', None),
    'transform/translation/np_2d_row': ('ok', None),
    'transform/translation/np_extra_row': ('invalid_input', 'translation must have 3 elements, got 6'),
    'transform/translation/np_0d': ('invalid_input', 'translation must have 3 elements, got 1'),
    'transform/translation/np_nan': ('invalid_input', 'translation contains non-finite values'),
    'transform/translation/np_int': ('ok', None),
    'transform/translation/np_float32': ('ok', None),
    'transform/translation/np_text': ('ok', None),
    'transform/translation/np_object_none': ('invalid_input', 'translation contains non-finite values'),
    'transform/translation/np_row_list': ('ok', None),
    'joints/none': ('invalid_input', 'joints must have 7 elements, got 1'),
    'joints/text': ('invalid_input', 'joints must be a list of 7 numbers'),
    'joints/true': ('invalid_input', 'joints must have 7 elements, got 1'),
    'joints/dict': ('invalid_input', 'joints must be a list of 7 numbers'),
    'joints/nan': ('invalid_input', 'joints must have 7 elements, got 1'),
    'joints/inf': ('invalid_input', 'joints must have 7 elements, got 1'),
    'joints/empty': ('invalid_input', 'joints must have 7 elements, got 0'),
    'joints/scalar': ('invalid_input', 'joints must have 7 elements, got 1'),
    'joints/deep': ('invalid_input', 'joints must be a list of 7 numbers'),
    'joints/ragged': ('invalid_input', 'joints must be a list of 7 numbers'),
    'joints/none_entry': ('invalid_input', 'joints contains non-finite values'),
    'joints/text_entry': ('invalid_input', 'joints must be a list of 7 numbers'),
    'joints/numeric_text': ('ok', None),
    'joints/bools': ('ok', None),
    'joints/dict_entry': ('invalid_input', 'joints must be a list of 7 numbers'),
    'joints/nan_entry': ('invalid_input', 'joints contains non-finite values'),
    'joints/inf_entry': ('invalid_input', 'joints contains non-finite values'),
    'joints/shape_3': ('invalid_input', 'joints must have 7 elements, got 3'),
    'joints/shape_1x7': ('ok', None),
    'joints/shape_7x1': ('ok', None),
    'joints/np_flat': ('ok', None),
    'joints/np_transposed': ('ok', None),
    'joints/np_2d_row': ('ok', None),
    'joints/np_extra_row': ('invalid_input', 'joints must have 7 elements, got 14'),
    'joints/np_0d': ('invalid_input', 'joints must have 7 elements, got 1'),
    'joints/np_nan': ('invalid_input', 'joints contains non-finite values'),
    'joints/np_int': ('ok', None),
    'joints/np_float32': ('ok', None),
    'joints/np_text': ('ok', None),
    'joints/np_object_none': ('invalid_input', 'joints contains non-finite values'),
    'joints/np_row_list': ('ok', None),
    'params/mdh/none': ('ok', None),
    'params/mdh/text': ('invalid_params', 'mdh table must be a (7,4) table of numbers'),
    'params/mdh/true': ('invalid_params', 'mdh table must be (7,4), got ()'),
    'params/mdh/dict': ('invalid_params', 'mdh table must be a (7,4) table of numbers'),
    'params/mdh/nan': ('invalid_params', 'mdh table must be (7,4), got ()'),
    'params/mdh/inf': ('invalid_params', 'mdh table must be (7,4), got ()'),
    'params/mdh/empty': ('invalid_params', 'mdh table must be (7,4), got (0,)'),
    'params/mdh/scalar': ('invalid_params', 'mdh table must be (7,4), got ()'),
    'params/mdh/deep': ('invalid_params', 'mdh table must be a (7,4) table of numbers'),
    'params/mdh/ragged': ('invalid_params', 'mdh table must be a (7,4) table of numbers'),
    'params/mdh/none_entry': ('invalid_params', 'mdh table contains non-finite values'),
    'params/mdh/text_entry': ('invalid_params', 'mdh table must be a (7,4) table of numbers'),
    'params/mdh/numeric_text': ('ok', None),
    'params/mdh/dict_entry': ('invalid_params', 'mdh table must be a (7,4) table of numbers'),
    'params/mdh/nan_entry': ('invalid_params', 'mdh table contains non-finite values'),
    'params/mdh/inf_entry': ('invalid_params', 'mdh table contains non-finite values'),
    'params/mdh/shape_6x4': ('invalid_params', 'mdh table must be (7,4), got (6, 4)'),
    'params/mdh/shape_28': ('invalid_params', 'mdh table must be (7,4), got (28,)'),
    'params/mdh/shape_4x7': ('invalid_params', 'mdh table must be (7,4), got (4, 7)'),
    'params/mdh/offset_shift': ('ok', None),
    'params/mdh/alpha_changed': ('invalid_params', 'mdh alpha column deviates from the supported chain structure by 1.871e+00'),
    'params/mdh/np_flat': ('invalid_params', 'mdh table must be (7,4), got (28,)'),
    'params/mdh/np_transposed': ('invalid_params', 'mdh table must be (7,4), got (4, 7)'),
    'params/mdh/np_2d_row': ('invalid_params', 'mdh table must be (7,4), got (1, 28)'),
    'params/mdh/np_extra_row': ('invalid_params', 'mdh table must be (7,4), got (8, 4)'),
    'params/mdh/np_0d': ('invalid_params', 'mdh table must be (7,4), got ()'),
    'params/mdh/np_nan': ('invalid_params', 'mdh table contains non-finite values'),
    'params/mdh/np_int': ('invalid_params', 'mdh alpha column deviates from the supported chain structure by 5.708e-01'),
    'params/mdh/np_float32': ('invalid_params', 'mdh alpha column deviates from the supported chain structure by 4.371e-08'),
    'params/mdh/np_text': ('ok', None),
    'params/mdh/np_object_none': ('invalid_params', 'mdh table contains non-finite values'),
    'params/mdh/np_row_list': ('ok', None),
    'params/d_bs/none': ('invalid_params', 'd_bs must be a number'),
    'params/d_bs/text': ('invalid_params', 'd_bs must be a number'),
    'params/d_bs/true': ('ok', None),
    'params/d_bs/dict': ('invalid_params', 'd_bs must be a number'),
    'params/d_bs/nan': ('invalid_params', 'd_bs is not finite'),
    'params/d_bs/inf': ('invalid_params', 'd_bs is not finite'),
    'params/d_bs/empty': ('invalid_params', 'd_bs must be a number'),
    'params/d_bs/scalar': ('ok', None),
    'params/d_bs/deep': ('invalid_params', 'd_bs must be a number'),
    'params/d_bs/list': ('invalid_params', 'd_bs must be a number'),
    'params/d_bs/np_0d': ('ok', None),
    'params/d_se/none': ('invalid_params', 'd_se must be a number'),
    'params/d_se/text': ('invalid_params', 'd_se must be a number'),
    'params/d_se/true': ('ok', None),
    'params/d_se/dict': ('invalid_params', 'd_se must be a number'),
    'params/d_se/nan': ('invalid_params', 'd_se is not finite'),
    'params/d_se/inf': ('invalid_params', 'd_se is not finite'),
    'params/d_se/empty': ('invalid_params', 'd_se must be a number'),
    'params/d_se/scalar': ('ok', None),
    'params/d_se/deep': ('invalid_params', 'd_se must be a number'),
    'params/d_se/list': ('invalid_params', 'd_se must be a number'),
    'params/d_se/np_0d': ('ok', None),
    'params/d_ew/none': ('invalid_params', 'd_ew must be a number'),
    'params/d_ew/text': ('invalid_params', 'd_ew must be a number'),
    'params/d_ew/true': ('ok', None),
    'params/d_ew/dict': ('invalid_params', 'd_ew must be a number'),
    'params/d_ew/nan': ('invalid_params', 'd_ew is not finite'),
    'params/d_ew/inf': ('invalid_params', 'd_ew is not finite'),
    'params/d_ew/empty': ('invalid_params', 'd_ew must be a number'),
    'params/d_ew/scalar': ('ok', None),
    'params/d_ew/deep': ('invalid_params', 'd_ew must be a number'),
    'params/d_ew/list': ('invalid_params', 'd_ew must be a number'),
    'params/d_ew/np_0d': ('ok', None),
    'params/a_wr/none': ('invalid_params', 'a_wr must be a number'),
    'params/a_wr/text': ('invalid_params', 'a_wr must be a number'),
    'params/a_wr/true': ('invalid_params', 'wrist offset a_wr must be smaller than d_ew'),
    'params/a_wr/dict': ('invalid_params', 'a_wr must be a number'),
    'params/a_wr/nan': ('invalid_params', 'a_wr is not finite'),
    'params/a_wr/inf': ('invalid_params', 'a_wr is not finite'),
    'params/a_wr/empty': ('invalid_params', 'a_wr must be a number'),
    'params/a_wr/scalar': ('invalid_params', 'wrist offset a_wr must be smaller than d_ew'),
    'params/a_wr/deep': ('invalid_params', 'a_wr must be a number'),
    'params/a_wr/list': ('invalid_params', 'a_wr must be a number'),
    'params/a_wr/np_0d': ('ok', None),
    'from_dict/mdh/none': ('ok', None),
    'from_dict/mdh/text': ('invalid_params', 'mdh table must be a (7,4) table of numbers'),
    'from_dict/mdh/true': ('invalid_params', 'mdh table must be (7,4), got ()'),
    'from_dict/mdh/dict': ('invalid_params', 'mdh table must be a (7,4) table of numbers'),
    'from_dict/mdh/nan': ('invalid_params', 'mdh table must be (7,4), got ()'),
    'from_dict/mdh/inf': ('invalid_params', 'mdh table must be (7,4), got ()'),
    'from_dict/mdh/empty': ('invalid_params', 'mdh table must be (7,4), got (0,)'),
    'from_dict/mdh/scalar': ('invalid_params', 'mdh table must be (7,4), got ()'),
    'from_dict/mdh/deep': ('invalid_params', 'mdh table must be a (7,4) table of numbers'),
    'from_dict/mdh/ragged': ('invalid_params', 'mdh table must be a (7,4) table of numbers'),
    'from_dict/mdh/none_entry': ('invalid_params', 'mdh table contains non-finite values'),
    'from_dict/mdh/text_entry': ('invalid_params', 'mdh table must be a (7,4) table of numbers'),
    'from_dict/mdh/numeric_text': ('ok', None),
    'from_dict/mdh/dict_entry': ('invalid_params', 'mdh table must be a (7,4) table of numbers'),
    'from_dict/mdh/nan_entry': ('invalid_params', 'mdh table contains non-finite values'),
    'from_dict/mdh/inf_entry': ('invalid_params', 'mdh table contains non-finite values'),
    'from_dict/mdh/shape_6x4': ('invalid_params', 'mdh table must be (7,4), got (6, 4)'),
    'from_dict/mdh/shape_28': ('invalid_params', 'mdh table must be (7,4), got (28,)'),
    'from_dict/mdh/shape_4x7': ('invalid_params', 'mdh table must be (7,4), got (4, 7)'),
    'from_dict/mdh/offset_shift': ('ok', None),
    'from_dict/mdh/alpha_changed': ('invalid_params', 'mdh alpha column deviates from the supported chain structure by 1.871e+00'),
    'from_dict/list': ('invalid_params', 'parameter document must be a JSON object'),
    'from_dict/missing': ('invalid_params', 'missing parameter keys: d_se, d_ew, a_wr'),
    'from_dict/text_length': ('invalid_params', 'd_se must be a number'),
    'cli/rotation/none': ('invalid_rotation', 'rotation must be a 3x3 matrix, a flat list of 9, or a quaternion [w,x,y,z]'),
    'cli/rotation/text': ('invalid_rotation', 'rotation entries must be numbers'),
    'cli/rotation/true': ('invalid_rotation', 'rotation must be a 3x3 matrix, a flat list of 9, or a quaternion [w,x,y,z]'),
    'cli/rotation/dict': ('invalid_rotation', 'rotation entries must be numbers'),
    'cli/rotation/nan': ('invalid_rotation', 'rotation must be a 3x3 matrix, a flat list of 9, or a quaternion [w,x,y,z]'),
    'cli/rotation/inf': ('invalid_rotation', 'rotation must be a 3x3 matrix, a flat list of 9, or a quaternion [w,x,y,z]'),
    'cli/rotation/empty': ('invalid_rotation', 'rotation must be a 3x3 matrix, a flat list of 9, or a quaternion [w,x,y,z]'),
    'cli/rotation/scalar': ('invalid_rotation', 'rotation must be a 3x3 matrix, a flat list of 9, or a quaternion [w,x,y,z]'),
    'cli/rotation/deep': ('invalid_rotation', 'rotation entries must be numbers'),
    'cli/rotation/ragged': ('invalid_rotation', 'rotation entries must be numbers'),
    'cli/rotation/ragged_deep': ('invalid_rotation', 'rotation entries must be numbers'),
    'cli/rotation/none_entry': ('invalid_rotation', 'rotation contains non-finite values'),
    'cli/rotation/text_entry': ('invalid_rotation', 'rotation entries must be numbers'),
    'cli/rotation/numeric_text': ('ok', None),
    'cli/rotation/bools': ('ok', None),
    'cli/rotation/dict_entry': ('invalid_rotation', 'rotation entries must be numbers'),
    'cli/rotation/list_entry': ('invalid_rotation', 'rotation entries must be numbers'),
    'cli/rotation/nan_entry': ('invalid_rotation', 'rotation contains non-finite values'),
    'cli/rotation/inf_entry': ('invalid_rotation', 'rotation contains non-finite values'),
    'cli/rotation/neg_inf_entry': ('invalid_rotation', 'rotation contains non-finite values'),
    'cli/rotation/huge_int_entry': ('invalid_rotation', 'rotation entries must be numbers'),
    'cli/rotation/shape_2x3': ('invalid_rotation', 'rotation must be a 3x3 matrix, a flat list of 9, or a quaternion [w,x,y,z]'),
    'cli/rotation/shape_9': ('ok', None),
    'cli/rotation/shape_4': ('ok', None),
    'cli/rotation/shape_3x3x1': ('invalid_rotation', 'rotation must be a 3x3 matrix, a flat list of 9, or a quaternion [w,x,y,z]'),
    'cli/rotation/reflection': ('invalid_rotation', 'rotation determinant is -1.000000000000, expected +1'),
    'cli/rotation/sheared': ('invalid_rotation', 'rotation is not orthonormal (deviation 1.000e-03)'),
    'cli/rotation/quat_none_entry': ('invalid_rotation', 'rotation contains non-finite values'),
    'cli/rotation/quat_text_entry': ('invalid_rotation', 'rotation entries must be numbers'),
    'cli/rotation/quat_numeric_text': ('ok', None),
    'cli/rotation/quat_bools': ('ok', None),
    'cli/rotation/quat_nan_entry': ('invalid_rotation', 'rotation contains non-finite values'),
    'cli/rotation/quat_inf_entry': ('invalid_rotation', 'quaternion norm inf is not 1'),
    'cli/rotation/quat_not_unit': ('invalid_rotation', 'quaternion norm 1.004987562112 is not 1'),
    'cli/rotation/quat_zero': ('invalid_rotation', 'quaternion norm 0.000000000000 is not 1'),
    'cli/position/none': ('invalid_input', 'position must have 3 components'),
    'cli/position/text': ('invalid_input', 'position must be a list of 3 numbers'),
    'cli/position/true': ('invalid_input', 'position must have 3 components'),
    'cli/position/dict': ('invalid_input', 'position must be a list of 3 numbers'),
    'cli/position/nan': ('invalid_input', 'position must have 3 components'),
    'cli/position/inf': ('invalid_input', 'position must have 3 components'),
    'cli/position/empty': ('invalid_input', 'position must have 3 components'),
    'cli/position/scalar': ('invalid_input', 'position must have 3 components'),
    'cli/position/deep': ('invalid_input', 'position must be a list of 3 numbers'),
    'cli/position/ragged': ('invalid_input', 'position must be a list of 3 numbers'),
    'cli/position/none_entry': ('invalid_input', 'translation contains non-finite values'),
    'cli/position/text_entry': ('invalid_input', 'position must be a list of 3 numbers'),
    'cli/position/numeric_text': ('ok', None),
    'cli/position/bools': ('ok', None),
    'cli/position/dict_entry': ('invalid_input', 'position must be a list of 3 numbers'),
    'cli/position/nan_entry': ('invalid_input', 'translation contains non-finite values'),
    'cli/position/inf_entry': ('invalid_input', 'translation contains non-finite values'),
    'cli/position/neg_inf_entry': ('invalid_input', 'translation contains non-finite values'),
    'cli/position/shape_2': ('invalid_input', 'position must have 3 components'),
    'cli/position/shape_4': ('invalid_input', 'position must have 3 components'),
    'cli/position/shape_1x3': ('ok', None),
    'cli/position/shape_3x1': ('ok', None),
    'cli/psi/none': ('invalid_input', 'psi must be a number'),
    'cli/psi/text': ('invalid_input', 'psi must be a number'),
    'cli/psi/true': ('ok', None),
    'cli/psi/dict': ('invalid_input', 'psi must be a number'),
    'cli/psi/nan': ('invalid_input', 'psi must be finite'),
    'cli/psi/inf': ('invalid_input', 'psi must be finite'),
    'cli/psi/empty': ('invalid_input', 'psi must be a number'),
    'cli/psi/scalar': ('ok', None),
    'cli/psi/deep': ('invalid_input', 'psi must be a number'),
}


@pytest.mark.parametrize("label", sorted(_cases()))
def test_hostile_input_keeps_its_coded_error(label):
    assert outcome(_cases()[label]) == EXPECTED[label]


def test_every_case_is_recorded():
    assert set(EXPECTED) == set(_cases())
