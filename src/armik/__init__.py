"""Closed-form inverse kinematics for a 7-DOF arm with a wrist offset.

The arm angle about the shoulder-to-axis7-center line parameterizes the
redundancy; for a fixed pose and arm angle the solver returns every
feasible branch (up to 16) analytically, with per-branch diagnostics and
singularity classification.
"""

from .errors import (
    AllCoefficientsZero,
    ArmikError,
    AxisParallel,
    DegenerateArm,
    InvalidInput,
    InvalidParams,
    InvalidRotation,
    NoConvergence,
    ZeroSC,
)
from .robot import (
    FramePoints,
    JointConfig,
    RobotParams,
    Transform,
    default_params,
    forward_kinematics,
    frame_points,
    load_params,
)
from .arm_angle import (
    ReducedPose,
    arm_angle,
    arm_angle_points,
    reduce_pose,
    special_pose,
)
from .ik_core import (
    PSI_TOL,
    REASON_CATEGORY,
    REASON_NAMES,
    IkBranch,
    IkRequest,
    RejectedBranch,
    SolutionSet,
    ToleranceSet,
    leaf_label,
    solve,
)
from ._kernels import BACKEND

__version__ = "0.1.0"

# numpy-based modules and their names, imported on first access (PEP 562)
_LAZY = {
    **dict.fromkeys(("singularity", "SingularityReport", "classify", "family_distance",
                     "numeric_jacobian"), "singularity"),
    **dict.fromkeys(("verify", "CheckResult", "check_all", "fk_oracle", "fk_oracle_batch",
                     "numeric_ik", "quartic_oracle"), "verify"),
}


def __getattr__(name):
    from importlib import import_module
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = import_module("." + _LAZY[name], __name__)
    value = globals()[name] = module if name == _LAZY[name] else getattr(module, name)
    return value


def __dir__():
    return sorted({*globals(), *_LAZY})


__all__ = [
    "leaf_label",
    "RejectedBranch",
    "REASON_NAMES",
    "REASON_CATEGORY",
    "PSI_TOL",
    "AllCoefficientsZero",
    "ArmikError",
    "AxisParallel",
    "BACKEND",
    "CheckResult",
    "DegenerateArm",
    "FramePoints",
    "IkBranch",
    "IkRequest",
    "InvalidInput",
    "InvalidParams",
    "InvalidRotation",
    "JointConfig",
    "NoConvergence",
    "ReducedPose",
    "RobotParams",
    "SingularityReport",
    "SolutionSet",
    "ToleranceSet",
    "Transform",
    "ZeroSC",
    "arm_angle",
    "arm_angle_points",
    "check_all",
    "classify",
    "default_params",
    "family_distance",
    "fk_oracle",
    "fk_oracle_batch",
    "forward_kinematics",
    "frame_points",
    "load_params",
    "numeric_ik",
    "numeric_jacobian",
    "quartic_oracle",
    "reduce_pose",
    "solve",
    "special_pose",
]
