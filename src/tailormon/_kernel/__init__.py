"""Scan kernels.

``Monitor.step`` scans one step at a time (``scan_step``). That kernel
ships both as a Cython extension and as a pure-numpy fallback with the
same contract; the compiled one is used whenever it was built and
imports. ``scan_trace`` scans a stretch of trace in blocks of steps and
reproduces the numpy ``scan_step`` bit for bit, clamp counts included.
It takes and returns a ``ScanState``, so a trace can be scanned in
pieces: ``Monitor.feed`` resumes it from the monitor's state block after
block, while calibration replicates and simulated trials scan their whole
stream from a fresh state.
"""

from ._scan_py import ScanState, advance_state, mixture_terms, scan_step as scan_step_python, scan_trace

try:
    from ._scan_cy import scan_step as scan_step_compiled
except ImportError:
    scan_step_compiled = None

USING_COMPILED = scan_step_compiled is not None

scan_step = scan_step_compiled if USING_COMPILED else scan_step_python

__all__ = [
    "USING_COMPILED",
    "ScanState",
    "advance_state",
    "mixture_terms",
    "scan_step",
    "scan_step_compiled",
    "scan_step_python",
    "scan_trace",
]
