"""The kernel module the rest of the package calls through.

perfbench wraps kernel attributes on ``active`` and records ``BACKEND`` in
its run metadata, so both names stay.
"""

from . import _kernels_impl as active

BACKEND = "pure"
