"""Pin ``scan_trace`` to one of its two block paths, so that every input of a test checks both against the same reference.

``scan_trace`` sweeps a block by segment length (``_sweep_cells``) when
each pass holds at least ``SWEEP_VALUES`` values and scans it as one
rectangle (``_scan_cells``) otherwise. Pinning that crossover to 0 sweeps
every block; pinning it to infinity scans every block as a rectangle.
"""

import contextlib
import math

from tailormon._kernel import _scan_py

PATHS = ("rectangle", "sweep")
_SIZES = ("SWEEP_VALUES", "TRACE_BLOCK_CELLS", "SWEEP_MAX_VALUES", "SWEEP_CHUNK_VALUES")


@contextlib.contextmanager
def pinned(path, cells=None):
    """Every block of a trace scan on ``path``; with ``cells``, blocks of about that many cells or values a pass.

    Small blocks make a short trace span many of them, so that sets leave a
    stacked scan, and a state is cut, at every block alignment.
    """
    saved = {name: getattr(_scan_py, name) for name in _SIZES}
    _scan_py.SWEEP_VALUES = 0 if path == "sweep" else math.inf
    if cells is not None:
        _scan_py.TRACE_BLOCK_CELLS = _scan_py.SWEEP_MAX_VALUES = _scan_py.SWEEP_CHUNK_VALUES = cells
    try:
        yield
    finally:
        for name, value in saved.items():
            setattr(_scan_py, name, value)


def block_ends(T, n_streams, window, thresholded):
    """The last steps of the blocks of a scan from time 2 on the path in force, while no set leaves it."""
    ends, t0 = [], 2
    while t0 <= T:
        t0 = _scan_py._next_block(t0, T, n_streams, window, thresholded)[0]
        ends.append(t0 - 1)
    return ends
