"""Robot model: link-transform convention, parameters, forward kinematics.

The kinematic chain is described by modified Denavit-Hartenberg rows
(alpha, a, d, theta_offset), one per joint, with the link transform

    T_i = RotX(alpha_i) * TransX(a_i) * RotZ(theta_offset_i + q_i) * TransZ(d_i)

applied left to right from the base. Joint values q are the user-facing
coordinates; theta_offset absorbs any constant rotation between the
user zero and the solver's internal zero.
"""

from dataclasses import dataclass, field
import functools
import json
import math
import importlib.resources

import numpy as np

from .errors import InvalidInput, InvalidParams, InvalidRotation
from ._kernels import active as _K
from ._kernels_impl import BASE_OFFSETS, link_table

ROT_TOL = 1e-9

# canonical chain structure: alpha and a columns are fixed by the geometry,
# d column carries the three link lengths, row 7 carries the wrist offset
_CANON_ALPHA = np.array(
    [0.0, -math.pi / 2, math.pi / 2, -math.pi / 2, math.pi / 2, -math.pi / 2, math.pi / 2]
)


def _as_vec(x, n, name):
    try:
        v = np.asarray(x, dtype=float).reshape(-1)
    except (TypeError, ValueError, OverflowError):
        raise InvalidInput(f"{name} must be a list of {n} numbers") from None
    if v.shape[0] != n:
        raise InvalidInput(f"{name} must have {n} elements, got {v.shape[0]}")
    if not all(map(math.isfinite, v.tolist())):
        raise InvalidInput(f"{name} contains non-finite values")
    return v


def check_rotation(R, tol=ROT_TOL):
    """Validate that R is a proper rotation within tol. Returns R as float64."""
    try:
        R = np.asarray(R, dtype=float)
    except (TypeError, ValueError, OverflowError):
        raise InvalidRotation("rotation entries must be numbers") from None
    if R.shape != (3, 3):
        raise InvalidRotation(f"rotation must be 3x3, got {R.shape}")
    a, b, c, d, e, f, g, h, i = flat = R.ravel().tolist()
    if not all(map(math.isfinite, flat)):
        raise InvalidRotation("rotation contains non-finite values")
    err = max(abs(a * a + b * b + c * c - 1.0), abs(d * d + e * e + f * f - 1.0),
              abs(g * g + h * h + i * i - 1.0), abs(a * d + b * e + c * f),
              abs(a * g + b * h + c * i), abs(d * g + e * h + f * i))
    if err > tol:
        raise InvalidRotation(f"rotation is not orthonormal (deviation {err:.3e})")
    det = a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)
    if abs(det - 1.0) > tol:
        raise InvalidRotation(f"rotation determinant is {det:.12f}, expected +1")
    return R


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
        self._rot = tuple(check_rotation(rotation).ravel().tolist())
        self._pos = tuple(_as_vec(translation, 3, "translation").tolist())
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
            R = np.array(self._rot).reshape(3, 3)
            p = np.array(self._pos)
            R.setflags(write=False)
            p.setflags(write=False)
            self._arrays = (R, p)
        return self._arrays

    @property
    def rotation(self):
        return self._built()[0]

    @property
    def translation(self):
        return self._built()[1]

    def __repr__(self):
        return f"Transform(rotation={self.rotation!r}, translation={self.translation!r})"

    @classmethod
    def identity(cls):
        return cls(np.eye(3), np.zeros(3))

    @classmethod
    def from_matrix(cls, T):
        try:
            T = np.asarray(T, dtype=float)
        except (TypeError, ValueError, OverflowError):
            raise InvalidInput("homogeneous matrix entries must be numbers") from None
        if T.shape != (4, 4):
            raise InvalidInput(f"homogeneous matrix must be 4x4, got {T.shape}")
        return cls(T[:3, :3], T[:3, 3])

    @property
    def matrix(self):
        T = np.eye(4)
        T[:3, :3] = self.rotation
        T[:3, 3] = self.translation
        return T

    def compose(self, other):
        return Transform(
            self.rotation @ other.rotation,
            self.rotation @ other.translation + self.translation,
        )

    def inverse(self):
        Rt = self.rotation.T
        return Transform(Rt, -Rt @ self.translation)

    def apply(self, point):
        p = _as_vec(point, 3, "point")
        return self.rotation @ p + self.translation


@dataclass
class JointConfig:
    """Seven joint values in radians."""

    q: np.ndarray

    def __post_init__(self):
        self.q = np.array(_as_vec(self.q, 7, "joints"))

    def wrapped(self):
        return JointConfig(np.array([_K.wrap_angle(v) for v in self.q]))

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

    shoulder: np.ndarray
    elbow: np.ndarray
    wrist: np.ndarray
    axis7: np.ndarray


@dataclass(frozen=True)
class RobotParams:
    """Geometry of the arm (immutable; derive variants with dataclasses.replace).

    d_bs: base to shoulder, d_se: shoulder to elbow, d_ew: elbow to wrist,
    a_wr: perpendicular offset between joint axes 6 and 7. All in meters.
    mdh: (7,4) table of (alpha, a, d, theta_offset) rows, held as a
    read-only copy.
    """

    d_bs: float
    d_se: float
    d_ew: float
    a_wr: float
    mdh: np.ndarray = field(default=None)

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
        try:
            mdh = np.array(
                self._canonical_mdh() if self.mdh is None else self.mdh, dtype=float
            )
        except (TypeError, ValueError, OverflowError):
            raise InvalidParams("mdh table must be a (7,4) table of numbers") from None
        if mdh.shape != (7, 4):
            raise InvalidParams(f"mdh table must be (7,4), got {mdh.shape}")
        if not np.all(np.isfinite(mdh)):
            raise InvalidParams("mdh table contains non-finite values")
        mdh.setflags(write=False)
        # the kernels' float tables: the link constants and the joint offsets
        rows = mdh.tolist()
        delta = tuple([r[3] - off for r, off in zip(rows, BASE_OFFSETS)])
        self.__dict__.update(mdh=mdh, _links=link_table(rows), _delta=delta)
        self._check_structure()

    def _canonical_mdh(self):
        m = np.zeros((7, 4))
        m[:, 0] = _CANON_ALPHA
        m[6, 1] = self.a_wr
        m[0, 2] = self.d_bs
        m[2, 2] = -self.d_se
        m[4, 2] = -self.d_ew
        m[:, 3] = BASE_OFFSETS
        return m

    def _check_structure(self):
        canon = self._canonical_mdh()
        # theta offsets are free, everything else must match the canonical chain
        for col, name in ((0, "alpha"), (1, "a"), (2, "d")):
            dev = np.abs(self.mdh[:, col] - canon[:, col]).max()
            if dev > 1e-9:
                raise InvalidParams(
                    f"mdh {name} column deviates from the supported chain "
                    f"structure by {dev:.3e}"
                )
        # cross-check the declared lengths against a zero-joint FK pass
        pts = frame_points(self, np.zeros(7))
        checks = (
            (np.linalg.norm(pts.elbow - pts.shoulder), self.d_se, "shoulder-elbow"),
            (np.linalg.norm(pts.wrist - pts.elbow), self.d_ew, "elbow-wrist"),
            (np.linalg.norm(pts.axis7 - pts.wrist), self.a_wr, "wrist-axis7"),
            (pts.shoulder[2], self.d_bs, "base-shoulder height"),
        )
        for got, want, name in checks:
            if abs(got - want) > 1e-9:
                raise InvalidParams(
                    f"zero-pose {name} distance {got:.12f} does not match "
                    f"declared {want:.12f}"
                )

    @property
    def delta(self):
        """Offset between user joint coordinates and internal coordinates."""
        return self.mdh[:, 3] - BASE_OFFSETS

    def to_dict(self):
        return {
            "d_bs": self.d_bs,
            "d_se": self.d_se,
            "d_ew": self.d_ew,
            "a_wr": self.a_wr,
            "mdh": self.mdh.tolist(),
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
    return RobotParams.from_dict(doc)


@functools.cache
def default_params():
    """Built-in parameter set shipped with the package.

    Read once per process: every call returns the same immutable instance
    (derive variants with dataclasses.replace).
    """
    ref = importlib.resources.files("armik").joinpath("data/default_params.json")
    return RobotParams.from_dict(json.loads(ref.read_text()))


def _joints_array(joints):
    if isinstance(joints, JointConfig):
        return joints.q
    return _as_vec(joints, 7, "joints")


def mdh_transform(alpha, a, d, theta):
    """Single link transform for one table row at joint angle theta."""
    link = _K.mdh_link(*_as_vec((alpha, a, d, theta), 4, "link parameters").tolist())
    return Transform._from_floats(link[:9], link[9:])


def forward_kinematics(params, joints):
    """Pose of frame 7 in base coordinates."""
    R, p, _, _, _ = _K.fk_chain(params._links, _joints_array(joints).tolist())
    return Transform._from_floats(R, p)


def frame_points(params, joints):
    """Shoulder, elbow, wrist and axis-7 points in base coordinates."""
    _, p, S, E, W = _K.fk_chain(params._links, _joints_array(joints).tolist())
    return FramePoints(
        shoulder=np.array(S), elbow=np.array(E), wrist=np.array(W), axis7=np.array(p)
    )
