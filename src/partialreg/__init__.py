"""Least-squares fits and the identities relating their coefficients.

The library fits ordinary least-squares regressions over named-column
datasets and makes the classical coefficient identities executable: a
multiple-regression slope equals the simple-regression slope on the
residualized predictor; under a nonsingular linear transform of the
predictors the coefficient vector moves by the inverse transform; slopes
on a predictor subset are the full-model slopes contracted with
predictor-on-subset slopes.  Every identity exists both as a callable
check (:func:`run_verification_suite`) and as sweepable plot data
(:func:`gamma_sweep`, :func:`gamma_surface`).
"""

from .dataset import Dataset
from .errors import (
    CollinearPredictors,
    DegenerateCofactor,
    DegenerateDirection,
    DuplicateColumn,
    DuplicateHeader,
    GridTooLarge,
    IndexOutOfRange,
    IoError,
    LengthMismatch,
    MissingPredictorValue,
    MissingValue,
    NonCanonicalSubsetRows,
    NonNumericCell,
    NumericalOvershoot,
    ParseError,
    PartialRegError,
    RaggedRow,
    ShapeMismatch,
    SingularDesign,
    SingularTransform,
    TooFewRows,
    UnknownColumn,
    ZeroLeadSlope,
    ZeroVariance,
)
from .gamma import (
    GammaSweep,
    combined_slope,
    gamma_roots,
    gamma_surface,
    gamma_sweep,
    grid_points,
    slope_on_gamma,
)
from .identities import (
    DEFAULT_TOLERANCE,
    VerificationReport,
    aggregate_coefficients,
    decompose_coefficients,
    run_verification_suite,
    verify_residualized_slope,
)
from .io import format_number, load_csv, round_to_printed, save_csv, to_csv
from .ols import (
    RegressionFit,
    fit,
    fit_simple,
    predict,
    residuals,
)
from .stats import (
    SummaryStats,
    column_stats,
    correlation_matrix,
    covariance,
    multiple_correlation,
    pearson_r,
)
from .transform import (
    PredictorTransform,
    ResidualizedVariable,
    apply_transform,
    build_transform,
    map_coefficients,
    residualize,
    residualize_with,
)

__version__ = "0.1.0"

__all__ = [
    "Dataset",
    "SummaryStats",
    "RegressionFit",
    "PredictorTransform",
    "ResidualizedVariable",
    "GammaSweep",
    "VerificationReport",
    "DEFAULT_TOLERANCE",
    "column_stats",
    "covariance",
    "pearson_r",
    "correlation_matrix",
    "multiple_correlation",
    "fit",
    "fit_simple",
    "predict",
    "residuals",
    "residualize",
    "residualize_with",
    "build_transform",
    "apply_transform",
    "map_coefficients",
    "slope_on_gamma",
    "combined_slope",
    "gamma_roots",
    "gamma_sweep",
    "gamma_surface",
    "grid_points",
    "verify_residualized_slope",
    "aggregate_coefficients",
    "decompose_coefficients",
    "run_verification_suite",
    "load_csv",
    "save_csv",
    "to_csv",
    "format_number",
    "round_to_printed",
    "PartialRegError",
    "UnknownColumn",
    "DuplicateColumn",
    "LengthMismatch",
    "TooFewRows",
    "ZeroVariance",
    "NumericalOvershoot",
    "DegenerateCofactor",
    "SingularDesign",
    "CollinearPredictors",
    "MissingPredictorValue",
    "IndexOutOfRange",
    "SingularTransform",
    "ShapeMismatch",
    "NonCanonicalSubsetRows",
    "DegenerateDirection",
    "ZeroLeadSlope",
    "GridTooLarge",
    "IoError",
    "ParseError",
    "MissingValue",
    "NonNumericCell",
    "DuplicateHeader",
    "RaggedRow",
]
