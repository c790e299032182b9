"""Alias of the kernel module, kept only for perfbench.

perfbench wraps kernel attributes on ``active`` and records ``BACKEND``
(also ``armik.BACKEND``) in its run metadata. The package's modules import
``_kernels_impl`` directly.
"""

from . import _kernels_impl as active

BACKEND = "pure"
