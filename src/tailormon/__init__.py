"""Streaming change detection on tailored principal-axis projections.

Workflow: estimate a training summary, tailor a minimal set of principal
axes to a user-specified change distribution, calibrate an alarm
threshold by bootstrap so the probability of a false alarm over a fixed
horizon is controlled, then monitor the standardized projections with a
windowed, Bartlett-corrected mixture GLR statistic.
"""

__version__ = "0.1.0"

from ._kernel import USING_COMPILED
from .calibrate import (
    CalibrationConfig,
    CalibrationResult,
    block_bootstrap_sample,
    calibrate_threshold,
    replicate_maximum,
    threshold_from_maxima,
)
from .changemodel import (
    ChangeDistributionSpec,
    ChangeScenario,
    PostChangeParams,
    apply_change,
    apply_change_lagged,
    projection_sensitivities,
    sample_change,
)
from .corrcore import (
    CorrelationMatrix,
    EigenSystem,
    TrainingSummary,
    eigensystem,
    estimate_training,
    nearest_pd_correlation,
    random_correlation,
)
from .errors import (
    ConfigError,
    ConstantColumn,
    DegenerateCorrelation,
    DegenerateSegment,
    DegenerateSpectrum,
    DimensionMismatch,
    InsufficientHistory,
    InsufficientReplicates,
    NoConvergence,
    TailormonError,
    TooFewDetections,
    ZeroEigenvalue,
)
from .evalharness import (
    DetectorSpec,
    EddEstimate,
    PfaEstimate,
    TrialOutcome,
    estimate_edd,
    estimate_pfa,
    simulate_grid,
    verify_bivariate_propositions,
)
from .mixmonitor import (
    Monitor,
    MonitorModel,
    MonitorRun,
    StepResult,
    StreamStats,
    bartlett_correction,
    build_monitor_model,
    lag_extend_matrix,
    mixture_statistic,
    project_observation,
    restore_monitor_model,
    stream_llr,
)
from .tailor import (
    ProjectionSelection,
    identity_selection,
    manual_selection,
    max_variance_selection,
    min_variance_selection,
    select_axes,
    tailor,
)
