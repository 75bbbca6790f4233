"""One bootstrap replicate's re-fit as a test reference, written apart from the library.

This is the per-matrix preparation a calibration replicate went through
before replicates came to be prepared as stacks: the training estimate
with the ``CorrelationMatrix`` and ``TrainingSummary`` checks, the sorted
and sign-normalized eigensystem with the ``EigenSystem`` checks, the
projector with its eigenvalue floor, the training sums, and the row
checks and projections of the monitoring rows, each raising what the
library raises, in the same order. The bitwise tests compare the stacked
preparation against it, so a fault in the shared code cannot hide by
being on both sides of a comparison. Only the exception types and the
trace scan, with its correction table, come from the library.
"""

import math

import numpy as np

from tailormon import _kernel
from tailormon.errors import (
    ConstantColumn,
    DegenerateCorrelation,
    DegenerateSpectrum,
    ZeroEigenvalue,
)

PD_FLOOR = 1e-8
VAR_FLOOR = 1e-12


def lag_extend(x, lag):
    if lag == 0:
        return x.copy()
    n = x.shape[0]
    return np.hstack([x[i:n - lag + i] for i in range(lag + 1)])


def estimate_training(x):
    """(mean, sdev, corr) of one (m, D) training set."""
    m, d = x.shape
    if not np.isfinite(x).all():
        raise ValueError("training data contain a non-finite value")
    # every sum of the estimate stays below m * (2a)^2, a the largest magnitude
    with np.errstate(over="ignore"):
        if not np.abs(x).max() ** 2 * (4.0 * m) < math.inf:
            raise ValueError("training data contain values too large: their sums of squares overflow")
    spread = x.max(axis=0) - x.min(axis=0)
    if np.any(spread == 0.0):
        raise ConstantColumn(int(np.argmin(spread)))
    mean = x.mean(axis=0)
    centered = x - mean
    sdev = np.sqrt((centered * centered).mean(axis=0))
    if np.any(sdev == 0.0):
        raise ConstantColumn(int(np.argmin(sdev)))
    u = centered / sdev
    corr = (u.T @ u) / m
    corr = (corr + corr.T) / 2.0
    np.fill_diagonal(corr, 1.0)
    if not np.isfinite(corr).all():
        raise DegenerateCorrelation("entries must be finite")
    if np.abs(corr - corr.T).max() > 1e-10:
        raise DegenerateCorrelation("matrix is not symmetric within 1e-10")
    if np.any(np.diag(corr) != 1.0):
        raise DegenerateCorrelation("diagonal entries must be exactly 1")
    off = corr[~np.eye(d, dtype=bool)]
    if off.size and np.abs(off).max() >= 1.0:
        raise DegenerateCorrelation("off-diagonal entries must lie strictly inside (-1, 1)")
    if np.linalg.eigvalsh(corr)[0] <= d * 1e-14:
        raise DegenerateCorrelation("matrix is not strictly positive definite")
    if np.any(sdev <= 0.0):
        raise ConstantColumn(int(np.argmin(sdev)))
    return mean, sdev, corr


def eigensystem(corr):
    """(values, vectors), non-increasing, each vector's largest-magnitude entry positive."""
    lam, vec = np.linalg.eigh(corr)
    lam = lam[::-1].copy()
    vec = vec[:, ::-1].copy()
    anchor = np.argmax(np.abs(vec), axis=0)
    signs = np.sign(vec[anchor, np.arange(vec.shape[1])])
    signs[signs == 0.0] = 1.0
    vec *= signs
    d = lam.shape[0]
    if np.any(np.diff(lam) > 0.0):
        raise DegenerateSpectrum("eigenvalues must be sorted in non-increasing order")
    if lam[-1] < -1e-10:
        raise DegenerateCorrelation("negative eigenvalue in eigensystem")
    if np.abs(vec.T @ vec - np.eye(d)).max() > 1e-8:
        raise DegenerateCorrelation("eigenvectors are not orthonormal within 1e-8")
    if abs(lam.sum() - d) > 1e-8:
        raise DegenerateCorrelation("eigenvalue sum does not match the trace of a correlation matrix")
    return lam, vec


def projector(vectors, sdev, lam):
    if np.any(lam <= PD_FLOOR):
        raise ZeroEigenvalue("a selected eigenvalue is at or below the PD floor")
    return vectors / sdev[:, None] / np.sqrt(lam)[None, :]


def training_sums(ext, mean, proj):
    z = (ext - mean) @ proj
    return z.sum(axis=0), (z * z).sum(axis=0)


def monitor_projections(rows, mean, proj, train_sumsq, m, lag):
    """Checked projections of one replicate's monitoring rows, from a fresh state."""
    with np.errstate(over="ignore", invalid="ignore"):
        if not np.isfinite(rows * rows).all():
            raise ValueError("observation contains a non-finite value or one whose square overflows")
        ext = lag_extend(rows, lag) if rows.shape[0] > lag else np.empty((0, mean.shape[0]))
        z = np.matmul((ext - mean)[:, None, :], proj)[:, 0]
        if not np.isfinite(z * z).all():
            raise ValueError("observation projects to a value whose square is non-finite")
        sumsq = train_sumsq + np.zeros_like(train_sumsq) + (z * z).sum(axis=0)
        if not float(sumsq.max()) * (2.0 * (m + z.shape[0])) < math.inf:
            raise ValueError("observation makes the running sums of squares too large to scan")
    return z


def prepare(model, train, mon):
    """(train_sum, train_sumsq, z) of one replicate: the re-fit keeps the model's axis indices."""
    ext = lag_extend(np.asarray(train, dtype=float), model.lag)
    mean, sdev, corr = estimate_training(ext)
    d = ext.shape[1]
    if model.selection.identity:
        lam, vectors = np.ones(d), np.eye(d)
    else:
        values, vecs = eigensystem(corr)
        idx = np.asarray(model.selection.indices)
        lam, vectors = values[idx], vecs[:, idx]
    proj = projector(vectors, sdev, lam)
    train_sum, train_sumsq = training_sums(ext, mean, proj)
    z = monitor_projections(np.asarray(mon, dtype=float), mean, proj, train_sumsq, ext.shape[0], model.lag)
    return train_sum, train_sumsq, z


def replicate_maximum(model, train, mon):
    """The largest statistic of one replicate's own trace scan."""
    train_sum, train_sumsq, z = prepare(model, train, mon)
    m = np.asarray(train).shape[0] - model.lag
    stat, _, _, _ = _kernel.scan_trace(z, train_sum, train_sumsq, m, model.window, model.p0, VAR_FLOOR)
    return stat.max(initial=-math.inf)
