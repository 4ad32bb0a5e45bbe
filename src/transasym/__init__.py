"""Transasymptotic expansions and movable-singularity arrays for nonlinear
ODE systems near a rank-one irregular singular point."""

from .errors import (
    InsufficientCoefficients,
    NoBlowup,
    NotConverging,
    OscillatoryCoefficients,
    OutsideReliableDisk,
    ResonantOrder,
    SingularApproach,
    StepUnderflow,
    TransasymError,
)
from .series import AnalyticGerm, TaylorSeries
from .systems import (
    BUILTIN_LABELS,
    NormalSystem,
    builtin,
)
from .expansion import (
    GevreyFit,
    TwoScaleExpansion,
    build_expansion,
    eval_two_scale,
    formal_power_series,
    gevrey_fit,
    least_term_index,
)
from .singular import (
    ArrayEntry,
    ContinuationResult,
    RadiusEstimate,
    SingularityArray,
    continue_f0,
    predict_array,
    radius_estimate,
)
from .walk import PoleObservation
from .validate import (
    CEstimate,
    ComparisonReport,
    ValidationRun,
    compare_arrays,
    detect_singularity,
    extract_C,
    extraction_ladder,
    hunt_singularity,
    ladder_radii,
    run_validation,
)
from . import oracles

__version__ = "0.1.0"
