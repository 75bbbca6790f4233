"""Scan kernels.

Live monitoring scans one step at a time (``scan_step``). That kernel
ships both as a Cython extension and as a pure-numpy fallback with the
same contract; the compiled one is used whenever it was built and
imports. Calibration replicates and simulated trials hold their whole
stream up front and scan it with ``scan_trace``, which reproduces the
numpy ``scan_step`` bit for bit in blocks of steps.
"""

from ._scan_py import mixture_terms, scan_step as scan_step_python, scan_trace

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
    "scan_trace",
]
