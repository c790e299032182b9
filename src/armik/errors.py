"""Typed errors with machine-readable tags.

Every error the library raises carries a short stable ``tag`` string so the
CLI (and downstream tooling) can route on it without parsing messages.
"""


class ArmikError(Exception):
    """Base class for all armik errors."""

    tag = "error"


class InvalidParams(ArmikError):
    """Robot parameters violate an invariant or the supported structure."""

    tag = "invalid_params"


class InvalidRotation(ArmikError):
    """A rotation input is not orthonormal (or a quaternion is not unit)."""

    tag = "invalid_rotation"


class InvalidInput(ArmikError):
    """Malformed request payload (wrong shape, missing field, non-finite)."""

    tag = "invalid_input"


class ZeroSC(ArmikError):
    """The 7th-axis center coincides with the shoulder: the SC line, hence
    the whole redundancy parameterization, is undefined."""

    tag = "zero_sc"


class AxisParallel(ArmikError):
    """The end z-axis is parallel to SC: the reference plane is undefined
    (algorithmic singularity of the reduction)."""

    tag = "axis_parallel"


class DegenerateReference(ArmikError):
    """Reference plane undefined: z7 parallel to SC."""

    tag = "degenerate_reference"


class DegenerateArm(ArmikError):
    """Arm plane undefined: the elbow lies on the SC line."""

    tag = "degenerate_arm"


class AllCoefficientsZero(ArmikError):
    """The quartic is identically zero."""

    tag = "all_coefficients_zero"


class DegreeZero(ArmikError):
    """No nonzero coefficient after degree reduction (oracle-side)."""

    tag = "degree_zero"


class NoConvergence(ArmikError):
    """The damped-least-squares iteration did not reach the tolerance."""

    tag = "no_convergence"
