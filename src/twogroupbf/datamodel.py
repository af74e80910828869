"""Study inputs and their reduction to the sufficient statistics.

Evidence about the two groups arrives in one of three forms: the raw
observations, per-group moments (n, mean, sd), or per-group n and mean plus
the half-width of a confidence interval for the mean difference.  All three
reduce to the same :class:`DerivedStats` under the pooled-variance model,
and every Bayes factor downstream is a function of those statistics alone.

Group ``x`` is the control condition, group ``y`` the experimental one;
the observed t statistic is oriented as y - x.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence, Union

import numpy as np

from .specfun import student_t_quantile

__all__ = [
    "ValidationError",
    "RawGroups",
    "SummaryMoments",
    "SummaryCi",
    "DerivedStats",
    "StudyInput",
    "pooled_sd",
    "sd_from_ci",
    "derive_stats",
    "standardize_margin",
]

# The CI input path inverts a t quantile; keep df away from the explosive
# low end so the inversion stays well conditioned.
_CI_MIN_DF = 3


class ValidationError(ValueError):
    """Invalid study input or test specification."""


@dataclass(frozen=True)
class RawGroups:
    """Raw observations per group: x = control, y = experimental."""

    x: Sequence[float]
    y: Sequence[float]

    def __post_init__(self):
        for name, obs in (("x", self.x), ("y", self.y)):
            arr = np.asarray(obs, dtype=float)
            if arr.ndim != 1 or arr.size < 2:
                raise ValidationError(f"group {name} needs at least 2 observations")
            if not np.all(np.isfinite(arr)):
                raise ValidationError(f"group {name} contains non-finite values")
            with np.errstate(over="ignore"):  # an infinite variance fails later, by name
                if np.var(arr, ddof=1) == 0.0:
                    raise ValidationError(f"group {name} has zero sample variance")


def _check_group_sizes(n_x, n_y) -> None:
    if not (float(n_x).is_integer() and float(n_y).is_integer()):
        raise ValidationError("group sizes must be whole numbers")
    if n_x < 2 or n_y < 2:
        raise ValidationError("group sizes must be at least 2")


@dataclass(frozen=True)
class SummaryMoments:
    """Per-group sample size, mean, and standard deviation (ddof 1)."""

    n_x: int
    n_y: int
    mean_x: float
    mean_y: float
    sd_x: float
    sd_y: float

    def __post_init__(self):
        _check_group_sizes(self.n_x, self.n_y)
        if not (self.sd_x > 0.0 and self.sd_y > 0.0):
            raise ValidationError("group standard deviations must be positive")
        for v in (self.mean_x, self.mean_y, self.sd_x, self.sd_y):
            if not math.isfinite(v):
                raise ValidationError("summary moments must be finite")


@dataclass(frozen=True)
class SummaryCi:
    """Per-group n and mean plus the CI half-width of the mean difference."""

    n_x: int
    n_y: int
    mean_x: float
    mean_y: float
    ci_margin: float
    ci_level: float = 0.95

    def __post_init__(self):
        _check_group_sizes(self.n_x, self.n_y)
        if self.n_x + self.n_y - 2 < _CI_MIN_DF:
            raise ValidationError(
                f"confidence-interval input needs df >= {_CI_MIN_DF}; "
                "supply standard deviations for smaller studies"
            )
        if not (self.ci_margin > 0.0 and math.isfinite(self.ci_margin)):
            raise ValidationError("ci_margin must be a positive number")
        if not 0.0 < self.ci_level < 1.0:
            raise ValidationError("ci_level must lie strictly between 0 and 1")
        if not (math.isfinite(self.mean_x) and math.isfinite(self.mean_y)):
            raise ValidationError("group means must be finite")


StudyInput = Union[RawGroups, SummaryMoments, SummaryCi]


@dataclass(frozen=True)
class DerivedStats:
    """Sufficient statistics of the pooled two-sample design.

    df        degrees of freedom, n_x + n_y - 2
    sd_pooled pooled standard deviation in outcome units
    n_eff     n_x * n_y / (n_x + n_y); the noncentrality of the observed
              t statistic is delta * sqrt(n_eff)
    t_obs     observed two-sample t statistic, oriented as y - x
    """

    df: float
    sd_pooled: float
    n_eff: float
    t_obs: float


def pooled_sd(s: SummaryMoments) -> float:
    """Pooled standard deviation under the equal-variance model.

    The variance is formed relative to the larger sd, so that squaring
    neither overflows nor underflows.
    """
    big = max(s.sd_x, s.sd_y)
    var = (
        (s.n_x - 1) * (s.sd_x / big) ** 2 + (s.n_y - 1) * (s.sd_y / big) ** 2
    ) / (s.n_x + s.n_y - 2)
    if not var > 0.0:
        raise ValidationError("degenerate pooled variance")
    return big * math.sqrt(var)


def sd_from_ci(s: SummaryCi) -> float:
    """Recover the pooled sd from a reported CI half-width.

    The CI is taken to be the symmetric pooled-variance t interval with
    df = n_x + n_y - 2, so
    SE = ci_margin / t_quantile((1 + level)/2, df) and
    sd_pooled = SE / sqrt(1/n_x + 1/n_y).
    """
    df = s.n_x + s.n_y - 2
    # the lower tail (1 - level)/2 is exact where (1 + level)/2 would round to 1
    q = -student_t_quantile((1.0 - s.ci_level) / 2.0, df)
    se = s.ci_margin / q
    return se / math.sqrt(1.0 / s.n_x + 1.0 / s.n_y)


def _moments_from_raw(raw: RawGroups) -> SummaryMoments:
    x = np.asarray(raw.x, dtype=float)
    y = np.asarray(raw.y, dtype=float)
    with np.errstate(over="ignore"):  # SummaryMoments rejects an infinite moment by name
        return SummaryMoments(
            n_x=int(x.size),
            n_y=int(y.size),
            mean_x=float(np.mean(x)),
            mean_y=float(np.mean(y)),
            sd_x=float(np.std(x, ddof=1)),
            sd_y=float(np.std(y, ddof=1)),
        )


def derive_stats(data: StudyInput) -> DerivedStats:
    """Reduce any of the three input forms to :class:`DerivedStats`."""
    if isinstance(data, RawGroups):
        return derive_stats(_moments_from_raw(data))
    if isinstance(data, SummaryMoments):
        sd = pooled_sd(data)
    elif isinstance(data, SummaryCi):
        sd = sd_from_ci(data)
    else:
        raise ValidationError(f"unsupported study input type: {type(data).__name__}")

    n_x, n_y = data.n_x, data.n_y
    se = sd * math.sqrt(1.0 / n_x + 1.0 / n_y)
    t_obs = (data.mean_y - data.mean_x) / se if se > 0.0 else math.inf
    if not math.isfinite(t_obs):
        raise ValidationError(
            f"the t statistic (mean_y - mean_x) / SE is not finite: mean_x = {data.mean_x!r}, "
            f"mean_y = {data.mean_y!r}, SE = {se!r}")
    return DerivedStats(
        df=float(n_x + n_y - 2),
        sd_pooled=sd,
        n_eff=n_x * n_y / (n_x + n_y),
        t_obs=t_obs,
    )


def standardize_margin(value: float, is_standardized: bool, stats: DerivedStats) -> float:
    """Convert a margin to standardized (effect-size) units."""
    if is_standardized:
        return float(value)
    return float(value) / stats.sd_pooled
