"""Scan-kernel selection.

The windowed mixture-GLR scan dominates the runtime of calibration and
delay experiments, so it ships both as a Cython extension and as a
pure-numpy fallback with the same contract. The compiled kernel is used
whenever it was built and imports.
"""

from ._scan_py import mixture_terms, scan_step as scan_step_python

try:
    from ._scan_cy import scan_step as scan_step_compiled
except ImportError:
    scan_step_compiled = None

USING_COMPILED = scan_step_compiled is not None

scan_step = scan_step_compiled if USING_COMPILED else scan_step_python

__all__ = [
    "USING_COMPILED",
    "mixture_terms",
    "scan_step",
    "scan_step_compiled",
    "scan_step_python",
]
