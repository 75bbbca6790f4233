"""Exception types shared across the package."""


class TailormonError(Exception):
    """Base class for all package-specific errors."""


class DimensionMismatch(TailormonError):
    """Input shapes are inconsistent with each other or with the model."""


class ConstantColumn(TailormonError):
    """A training column has zero spread, so it cannot be standardized."""

    def __init__(self, column: int):
        self.column = column
        super().__init__(f"column {column} is constant (zero sample standard deviation)")

    def __reduce__(self):
        # rebuilt from its column, so it crosses a worker pool unchanged
        return type(self), (self.column,)


class DegenerateCorrelation(TailormonError):
    """A matrix violates the correlation-matrix invariants (PD, unit diagonal, bounds)."""


class NoConvergence(TailormonError):
    """An iterative repair or rejection-sampling loop hit its iteration limit."""


class DegenerateSpectrum(TailormonError):
    """Eigenvalues are not pairwise distinct where distinctness is required."""


class ZeroEigenvalue(TailormonError):
    """An eigenvalue at or below the positive-definiteness floor was encountered."""


class DegenerateSegment(TailormonError):
    """A data segment has variance below the variance floor."""


class InsufficientHistory(TailormonError):
    """Not enough past observations to build a lag-extended vector."""


class InsufficientReplicates(TailormonError):
    """Too few bootstrap replicates to place the threshold below the sample maximum."""


class TooFewDetections(TailormonError):
    """Not enough detecting trials to estimate a detection delay."""


class ConfigError(TailormonError):
    """Invalid configuration document or command-line input."""
