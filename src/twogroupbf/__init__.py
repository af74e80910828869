"""Bayes factors for two-group superiority, non-inferiority, and equivalence designs."""

from .datamodel import (
    DerivedStats,
    RawGroups,
    StudyInput,
    SummaryCi,
    SummaryMoments,
    ValidationError,
    derive_stats,
    pooled_sd,
    sd_from_ci,
    standardize_margin,
)
from .engine import (
    DEFAULT_PRIOR_SCALE,
    BfResult,
    CauchyPrior,
    SweepEntry,
    SweepResult,
    TestSpec,
    equiv_bf,
    get_bf,
    infer_bf,
    posterior_log_density,
    prior_sweep,
    savage_dickey_bf,
    super_bf,
)
from .quadrature import Interval, QuadratureError, integrate_log
from .report import emit_density_curves, render_json, render_text

__version__ = "0.1.0"

__all__ = [
    "BfResult",
    "CauchyPrior",
    "DEFAULT_PRIOR_SCALE",
    "DerivedStats",
    "Interval",
    "QuadratureError",
    "RawGroups",
    "StudyInput",
    "SummaryCi",
    "SummaryMoments",
    "SweepEntry",
    "SweepResult",
    "TestSpec",
    "ValidationError",
    "__version__",
    "derive_stats",
    "emit_density_curves",
    "equiv_bf",
    "get_bf",
    "infer_bf",
    "integrate_log",
    "pooled_sd",
    "posterior_log_density",
    "prior_sweep",
    "render_json",
    "render_text",
    "savage_dickey_bf",
    "sd_from_ci",
    "standardize_margin",
    "super_bf",
]
