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
    ZeroSC,
)
from .robot import (
    FramePoints,
    JointConfig,
    RobotParams,
    Transform,
    arm_angle,
    default_params,
    forward_kinematics,
    frame_points,
    load_params,
)
from .ik_core import (
    REASON_CATEGORY,
    REASON_NAMES,
    IkBranch,
    IkRequest,
    ReducedPose,
    RejectedBranch,
    SolutionSet,
    ToleranceSet,
    reduce_pose,
    solve,
)
from .singularity import SingularityReport, classify
from ._kernels import BACKEND

__version__ = "0.1.0"

__all__ = [
    "RejectedBranch",
    "REASON_NAMES",
    "REASON_CATEGORY",
    "AllCoefficientsZero",
    "ArmikError",
    "AxisParallel",
    "DegenerateArm",
    "FramePoints",
    "IkBranch",
    "IkRequest",
    "InvalidInput",
    "InvalidParams",
    "InvalidRotation",
    "JointConfig",
    "ReducedPose",
    "RobotParams",
    "SingularityReport",
    "SolutionSet",
    "ToleranceSet",
    "Transform",
    "ZeroSC",
    "arm_angle",
    "classify",
    "default_params",
    "forward_kinematics",
    "frame_points",
    "load_params",
    "reduce_pose",
    "solve",
]
