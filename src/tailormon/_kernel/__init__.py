"""Scan kernels.

Both scans run one cell scan, ``_scan_py._scan_cells``. ``Monitor.step``
scans one step at a time through ``scan_step``. ``scan_trace`` scans a
stretch of trace in blocks of steps and gives ``scan_step``'s results
bit for bit, clamp counts included. It takes and returns a
``ScanState``, so a trace can be scanned in pieces: ``Monitor.feed``
resumes it from the monitor's state block after block, while calibration
replicates and simulated trials scan their whole stream from a fresh
state.

The cell scan is stream-major: it holds its cells as (J, cells) arrays,
so its elementwise passes run numpy loops over all the cells of a block
rather than over the few (J) streams a tailored monitor watches. Each
cell's J terms are summed left to right below J = 8 and by numpy's own
contiguous row sum from J = 8 on, the order of a (cells, J) row sum, so
the results stay bit for bit those of the per-step reference scan.
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
