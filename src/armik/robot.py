"""Robot model: link-transform convention, parameters, forward kinematics.

The kinematic chain is described by modified Denavit-Hartenberg rows
(alpha, a, d, theta_offset), one per joint, with the link transform

    T_i = RotX(alpha_i) * TransX(a_i) * RotZ(theta_offset_i + q_i) * TransZ(d_i)

applied left to right from the base. Joint values q are the user-facing
coordinates; theta_offset absorbs any constant rotation between the
user zero and the solver's internal zero.

Input is validated and kept as floats, which the kernels take; the public
numpy arrays are built when first read, so a solve imports no numpy.
"""

from dataclasses import MISSING, dataclass
import functools
import json
import math
import importlib.resources
import sys

from .errors import InvalidInput, InvalidParams, InvalidRotation
from . import _kernels_impl as _K
from ._kernels_impl import BASE_OFFSETS, PARAMS_STRUCTURE_TOL, ROT_TOL, link_table

# canonical chain structure: alpha and a columns are fixed by the geometry,
# d column carries the three link lengths, row 7 carries the wrist offset
_CANON_ALPHA = (0.0,) + (-math.pi / 2, math.pi / 2) * 3


def _read_floats(x, depth=0):
    """Shape and row-major floats of x as np.asarray(x, dtype=float) reads it,
    raising TypeError, ValueError or OverflowError where numpy does: lists and
    tuples nest, rectangular and at most 64 deep; None is nan; numbers,
    strings and bytes go through float(); anything else through numpy."""
    t = type(x)
    np = sys.modules.get("numpy")
    if np is not None and t is np.ndarray and x.dtype.char == "d":
        return x.shape, x.ravel().tolist()
    if t is list or t is tuple:
        if depth == 64:
            raise ValueError("more than 64 nesting levels")
        shape = None
        flat = []
        for v in x:
            if type(v) is float:
                s = ()
                flat.append(v)
            else:
                s, f = _read_floats(v, depth + 1)
                flat += f
            if s != shape:
                if shape is not None:
                    raise ValueError("nested sequences of unequal shapes")
                shape = s
        return (len(x),) + (shape or ()), flat
    if np is None or not isinstance(x, np.ndarray):
        if x is None or isinstance(x, (float, int, str, bytes, dict)):
            # float() raises on a dict, as numpy does
            return (), [math.nan if x is None else float(x)]
        import numpy as np
    a = np.asarray(x, dtype=float)
    return a.shape, a.ravel().tolist()


def _vec(x, n, name):
    """x as a list of n finite floats (nested in any shape), or InvalidInput."""
    try:
        v = _read_floats(x)[1]
    except (TypeError, ValueError, OverflowError):
        raise InvalidInput(f"{name} must be a list of {n} numbers") from None
    if len(v) != n:
        raise InvalidInput(f"{name} must have {n} elements, got {len(v)}")
    if not all(map(math.isfinite, v)):
        raise InvalidInput(f"{name} contains non-finite values")
    return v


def _check_tolerance(name, v):
    """InvalidInput unless v is a positive finite int or float (not a bool)."""
    number = isinstance(v, (int, float)) and not isinstance(v, bool)
    if not (number and 0 < v < math.inf):
        raise InvalidInput(f"tolerance {name} must be a positive finite number")


def _check_params(params):
    """InvalidInput unless params is a RobotParams."""
    if not isinstance(params, RobotParams):
        raise InvalidInput("params must be a RobotParams")


def check_rotation(R):
    """Validate that R is a proper rotation within ROT_TOL. Returns its
    entries as a row-major 9-tuple of floats."""
    try:
        shape, flat = _read_floats(R)
    except (TypeError, ValueError, OverflowError):
        raise InvalidRotation("rotation entries must be numbers") from None
    if shape != (3, 3):
        raise InvalidRotation(f"rotation must be 3x3, got {shape}")
    a, b, c, d, e, f, g, h, i = flat
    if not all(map(math.isfinite, flat)):
        raise InvalidRotation("rotation contains non-finite values")
    err = max(abs(a * a + b * b + c * c - 1.0), abs(d * d + e * e + f * f - 1.0),
              abs(g * g + h * h + i * i - 1.0), abs(a * d + b * e + c * f),
              abs(a * g + b * h + c * i), abs(d * g + e * h + f * i))
    if err > ROT_TOL:
        raise InvalidRotation(f"rotation is not orthonormal (deviation {err:.3e})")
    det = a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)
    if abs(det - 1.0) > ROT_TOL:
        raise InvalidRotation(f"rotation determinant is {det:.12f}, expected +1")
    return tuple(flat)


def _array(floats, writeable=True, shape=None):
    import numpy as np
    a = np.array(floats) if shape is None else np.array(floats).reshape(shape)
    a.setflags(write=writeable)
    return a


class Transform:
    """Rigid transform: rotation (3,3) and translation (3,).

    Immutable. The constructor validates its input and keeps it as floats
    (_rot: the rotation as a row-major 9-tuple, _pos: the translation), which
    the kernels read. rotation and translation are read-only float64 arrays
    built from those floats when first read, so writes to the caller's
    arrays never reach a validated pose.
    """

    __slots__ = ("_rot", "_pos", "_arrays")

    def __init__(self, rotation, translation):
        self._rot = check_rotation(rotation)
        self._pos = tuple(_vec(translation, 3, "translation"))
        self._arrays = None

    @classmethod
    def _from_floats(cls, rot, pos):
        # rot (a row-major 9-tuple) and pos (a 3-tuple) are floats a kernel
        # computed from validated input: finite and orthonormal by
        # construction, so this skips the checks of __init__
        T = object.__new__(cls)
        T._rot = rot
        T._pos = pos
        T._arrays = None
        return T

    def _built(self):
        if self._arrays is None:
            self._arrays = (_array(self._rot, False, (3, 3)), _array(self._pos, False))
        return self._arrays

    @property
    def rotation(self):
        return self._built()[0]

    @property
    def translation(self):
        return self._built()[1]

    def __repr__(self):
        return f"Transform(rotation={self.rotation!r}, translation={self.translation!r})"


class _ArrayOnRead:
    """A dataclass field that __post_init__ keeps as floats under "_" + its
    name, read as a float64 array built once, then a plain attribute."""

    def __init__(self, writeable, default=MISSING):
        self.writeable, self.default = writeable, default

    def __set_name__(self, owner, name):
        self.name = name

    def __get__(self, obj, owner=None):
        if obj is None:  # on the class: the field's default, MISSING if none
            return self.default
        value = obj.__dict__[self.name] = _array(obj.__dict__["_" + self.name], self.writeable)
        return value


@dataclass
class JointConfig:
    """Seven joint values in radians; q is built from the floats _q when read."""

    q: "np.ndarray" = _ArrayOnRead(True)

    def __post_init__(self):
        self._q = _vec(self.__dict__.pop("q"), 7, "joints")

    def wrapped(self):
        return JointConfig([_K.wrap_angle(v) for v in _joint_floats(self)])

    def __iter__(self):
        return iter(self.q)

    def __len__(self):
        return 7


@dataclass
class FramePoints:
    """Key chain points in base coordinates.

    shoulder: intersection of axes 1-3, elbow: intersection of axes 3-5,
    wrist: intersection of axes 5-6, axis7: a point on joint axis 7.
    """

    shoulder: "np.ndarray"
    elbow: "np.ndarray"
    wrist: "np.ndarray"
    axis7: "np.ndarray"


@dataclass(frozen=True)
class RobotParams:
    """Geometry of the arm (immutable; derive variants with dataclasses.replace).

    d_bs: base to shoulder, d_se: shoulder to elbow, d_ew: elbow to wrist,
    a_wr: perpendicular offset between joint axes 6 and 7. All in meters.
    mdh: (7,4) table of (alpha, a, d, theta_offset) rows, a read-only array
    built from the floats _mdh when first read.
    """

    d_bs: float
    d_se: float
    d_ew: float
    a_wr: float
    mdh: "np.ndarray" = _ArrayOnRead(False, None)

    def __post_init__(self):
        for name in ("d_bs", "d_se", "d_ew", "a_wr"):
            try:
                v = float(getattr(self, name))
            except (TypeError, ValueError, OverflowError):
                raise InvalidParams(f"{name} must be a number") from None
            if not math.isfinite(v):
                raise InvalidParams(f"{name} is not finite")
            self.__dict__[name] = v
        if self.d_bs <= 0 or self.d_se <= 0 or self.d_ew <= 0:
            raise InvalidParams("link lengths d_bs, d_se, d_ew must be positive")
        if self.a_wr < 0:
            raise InvalidParams("wrist offset a_wr must be non-negative")
        if self.a_wr >= self.d_ew:
            raise InvalidParams("wrist offset a_wr must be smaller than d_ew")
        table = self.__dict__.pop("mdh")
        try:
            shape, flat = _read_floats(self._canonical_mdh() if table is None else table)
        except (TypeError, ValueError, OverflowError):
            raise InvalidParams("mdh table must be a (7,4) table of numbers") from None
        if shape != (7, 4):
            raise InvalidParams(f"mdh table must be (7,4), got {shape}")
        if not all(map(math.isfinite, flat)):
            raise InvalidParams("mdh table contains non-finite values")
        rows = tuple(tuple(flat[k:k + 4]) for k in range(0, 28, 4))
        # the kernels' float tables: the link constants and the joint offsets
        delta = tuple([r[3] - off for r, off in zip(rows, BASE_OFFSETS)])
        self.__dict__.update(_mdh=rows, _links=link_table(rows), _delta=delta)
        self._check_structure()

    def _canonical_mdh(self):
        d = (self.d_bs, 0.0, -self.d_se, 0.0, -self.d_ew, 0.0, 0.0)
        a = (0.0,) * 6 + (self.a_wr,)
        return tuple(zip(_CANON_ALPHA, a, d, BASE_OFFSETS))

    def _check_structure(self):
        canon = self._canonical_mdh()
        # theta offsets are free, everything else must match the canonical chain
        for col, name in ((0, "alpha"), (1, "a"), (2, "d")):
            dev = max(abs(r[col] - c[col]) for r, c in zip(self._mdh, canon))
            if dev > PARAMS_STRUCTURE_TOL:
                raise InvalidParams(
                    f"mdh {name} column deviates from the supported chain "
                    f"structure by {dev:.3e}"
                )
        # cross-check the declared lengths against a zero-joint FK pass; its
        # rounding grows with the coordinates, so the tolerance scales with
        # the chain's size (a short a_wr is placed among long links)
        _, C, S, E, W = _K.fk_chain(self._links, [0.0] * 7)
        tol = PARAMS_STRUCTURE_TOL * max(1.0, self.d_bs + self.d_se + self.d_ew + self.a_wr)
        checks = (
            (math.dist(E, S), self.d_se, "shoulder-elbow"),
            (math.dist(W, E), self.d_ew, "elbow-wrist"),
            (math.dist(C, W), self.a_wr, "wrist-axis7"),
            (S[2], self.d_bs, "base-shoulder height"),
        )
        for got, want, name in checks:
            if abs(got - want) > tol:
                raise InvalidParams(
                    f"zero-pose {name} distance {got:.12f} does not match "
                    f"declared {want:.12f}"
                )

    @property
    def delta(self):
        """Offset between user joint coordinates and internal coordinates."""
        return _array(self._delta)

    def to_dict(self):
        return {
            "d_bs": self.d_bs,
            "d_se": self.d_se,
            "d_ew": self.d_ew,
            "a_wr": self.a_wr,
            "mdh": [list(r) for r in self._mdh],
        }

    @classmethod
    def from_dict(cls, d):
        if not isinstance(d, dict):
            raise InvalidParams("parameter document must be a JSON object")
        missing = [k for k in ("d_bs", "d_se", "d_ew", "a_wr") if k not in d]
        if missing:
            raise InvalidParams(f"missing parameter keys: {', '.join(missing)}")
        return cls(d["d_bs"], d["d_se"], d["d_ew"], d["a_wr"], d.get("mdh"))


def load_params(path):
    """Load robot parameters from a JSON file."""
    try:
        with open(path, "r") as f:
            doc = json.load(f)
    except OSError as e:
        raise InvalidParams(f"cannot read parameter file: {e}") from None
    except json.JSONDecodeError as e:
        raise InvalidParams(f"parameter file is not valid JSON: {e}") from None
    except RecursionError:
        raise InvalidParams("parameter file JSON is nested too deeply") from None
    return RobotParams.from_dict(doc)


@functools.cache
def default_params():
    """Built-in parameter set shipped with the package.

    Read once per process: every call returns the same immutable instance
    (derive variants with dataclasses.replace).
    """
    ref = importlib.resources.files("armik").joinpath("data/default_params.json")
    return RobotParams.from_dict(json.loads(ref.read_text()))


def _joint_floats(joints):
    # a JointConfig's floats (its q array's, once built) or validated input
    if isinstance(joints, JointConfig):
        return joints.q.tolist() if "q" in joints.__dict__ else joints._q
    return _vec(joints, 7, "joints")


def forward_kinematics(params, joints):
    """Pose of frame 7 in base coordinates."""
    _check_params(params)
    R, p, _, _, _ = _K.fk_chain(params._links, _joint_floats(joints))
    return Transform._from_floats(R, p)


def frame_points(params, joints):
    """Shoulder, elbow, wrist and axis-7 points in base coordinates."""
    _check_params(params)
    _, p, S, E, W = _K.fk_chain(params._links, _joint_floats(joints))
    return FramePoints(_array(S), _array(E), _array(W), _array(p))
