"""Scan kernels.

Both scans compute every cell with ``_scan_py._cell_terms``.
``Monitor.step`` scans one step at a time through ``scan_step``.
``scan_trace`` scans a stretch of trace in blocks of steps and gives
``scan_step``'s results bit for bit, clamp counts included. It takes and
returns a ``ScanState``, so a trace can be scanned in pieces; with a
threshold it stops at the first step that reaches it and returns that
step's state. ``ScanState`` is the one form of a monitor's running
state: ``StreamStats`` holds it, ``Monitor.step`` advances it a row at a
time through ``advance_state``, and ``Monitor.feed`` resumes
``scan_trace`` from it block after block. Calibration scans a batch of
replicates at once, and simulation a group of trials, their streams side
by side as one ``scan_trace`` of (T, G, J) values. Every scan copies the
stretch it is given whole and returns its state. A replicate's whole
stream is scanned from a fresh state, and its caller drops the end
state. A trial group is scanned a stretch at a time: with a threshold
each set of a stacked scan stops at its own first crossing and leaves
the later blocks, and the scan returns the state of the sets still
running, from which the next stretch resumes. ``stack_size`` is the one
rule that sizes those batches and groups. ``_kahan`` adds every row to
the running totals on all these paths, so they agree bit for bit.
Besides the totals at its time and its last w + 1 values, a state
carries the running totals before each of those values' times (its
``prefix``): every candidate's pre-change segment is the training plus
the running totals at the candidate, and its term depends on the
candidate alone, so each scan computes it once per stream and time
(``_scan_py._pre_change_terms``) rather than once per cell.

A block of a trace scan is cut into cells one of two ways, chosen by its
size, steps x streams (``_scan_py._next_block``). A wide block is swept
by segment length (``_scan_py._sweep_cells``): each pass takes one
post-change length n2 of every step and stream, adding one time-major
row of values to the window sums of the pass before, the additions a
cumulative sum along each window makes, in its order. A narrow block is
one stream-major rectangle, steps by lengths (``_scan_py._scan_cells``),
whose passes cost the same however few streams it holds; ``scan_step``
scans its one step that way. Each cell's J terms are summed in the order
numpy sums a contiguous row of J values on both paths, so the results
stay bit for bit those of the per-step reference scan. A stacked trace
scan keeps the clamp count, that sum and the tie rule per set of J
streams, and every other pass is elementwise, so each set's results are
those of its own scan.
"""

from ._scan_py import ScanState, advance_state, mixture_terms, scan_step, scan_trace, stack_size

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
    "stack_size",
]
