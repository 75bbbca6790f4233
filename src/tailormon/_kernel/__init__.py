"""Scan kernels.

Both scans run one cell scan, ``_scan_py._scan_cells``. ``Monitor.step``
scans one step at a time through ``scan_step``. ``scan_trace`` scans a
stretch of trace in blocks of steps and gives ``scan_step``'s results
bit for bit, clamp counts included. It takes and returns a
``ScanState``, so a trace can be scanned in pieces: ``Monitor.feed``
resumes it from the monitor's state block after block, while calibration
replicates and simulated trials scan their whole stream from a fresh
state.
"""

from ._scan_py import ScanState, advance_state, mixture_terms, scan_step, scan_trace

# There is no compiled kernel. perfbench/run.py stamps both names into
# every benchmark record.
USING_COMPILED = False
scan_step_compiled = None

__all__ = [
    "USING_COMPILED",
    "ScanState",
    "advance_state",
    "mixture_terms",
    "scan_step",
    "scan_step_compiled",
    "scan_trace",
]
