"""Bayes factor engine for the three two-group designs.

The sampling model is reduced to the observed t statistic, whose likelihood
given the standardized effect delta is noncentral t with noncentrality
delta * sqrt(n_eff).  A zero-location Cauchy prior is placed on delta.

Every test weighs two hypotheses about delta by their average likelihood
and reports the ratio.  A hypothesis made of pieces of the delta axis
averages the likelihood against the prior over those pieces (the
interval-null odds of Morey & Rouder, 2011); the point null delta = 0
takes the likelihood there.  Each design is one table row: the region of
delta in play, the cuts that split it into pieces, and which pieces make
up H1 and H0.  All pieces of one Bayes factor come from a single
quadrature pass.

A benefit direction of "low" is folded away at the door: the mean
difference is negated and the computation proceeds as if high scores were
beneficial, so both directions share one code path and mirror exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Literal, Optional, Sequence, Tuple, Union

import numpy as np

from . import specfun
from .datamodel import (
    DerivedStats,
    RawGroups,
    StudyInput,
    SummaryCi,
    SummaryMoments,
    ValidationError,
    derive_stats,
    standardize_margin,
)
from .quadrature import Interval, QuadratureError, integrate_log

__all__ = [
    "DEFAULT_PRIOR_SCALE",
    "CauchyPrior",
    "TestSpec",
    "BfResult",
    "SweepEntry",
    "SweepResult",
    "posterior_log_density",
    "super_bf",
    "infer_bf",
    "equiv_bf",
    "savage_dickey_bf",
    "prior_sweep",
    "get_bf",
]

DEFAULT_PRIOR_SCALE = 1.0 / math.sqrt(2.0)

# A hypothesis holding less prior mass than this is rejected; its average
# likelihood is meaningless beyond it.
_MIN_REGION_PRIOR_MASS = 1e-15

_WHOLE_LINE = Interval(-math.inf, math.inf)

Design = Literal["superiority", "non_inferiority", "equivalence"]
Direction = Literal["high", "low"]
Alternative = Literal["one_sided", "two_sided"]
Orientation = Literal["bf10", "bf01"]


@dataclass(frozen=True)
class CauchyPrior:
    """Zero-location Cauchy on delta."""

    scale: float = DEFAULT_PRIOR_SCALE

    def __post_init__(self):
        if not (self.scale > 0.0 and math.isfinite(self.scale)):
            raise ValidationError("prior scale must be a positive finite number")

    def mass(self, lower: float, upper: float) -> float:
        """Cauchy mass of (lower, upper), to full relative accuracy in the tails.

        Each end enters as an angle measured from the axis it is nearer to,
        atan(x/scale) in the body and atan(scale/x) in the tail, so a far
        tail's mass is not the difference of two numbers near 1/2.
        """
        if upper <= 0.0:  # mirror into the upper half
            lower, upper = -upper, -lower
        if lower >= self.scale:
            return (math.atan2(self.scale, lower) - math.atan2(self.scale, upper)) / math.pi
        return (math.atan2(upper, self.scale) - math.atan2(lower, self.scale)) / math.pi

    def logpdf(self, delta):
        return specfun.cauchy_logpdf(delta, self.scale)


@dataclass(frozen=True)
class TestSpec:
    """Which test to run and how its hypotheses are laid out.

    Only the fields relevant to ``design`` may be set; use the factory
    classmethods rather than filling fields by hand.
    """

    __test__ = False  # keep pytest from collecting this as a test class

    design: Design
    direction: Direction = "high"
    alternative: Optional[Alternative] = None
    ni_margin: Optional[float] = None
    ni_margin_std: bool = False
    interval: Optional[Tuple[float, float]] = None
    interval_std: bool = False

    def __post_init__(self):
        if self.direction not in ("high", "low"):
            raise ValidationError("direction must be 'high' or 'low'")
        if self.design == "superiority":
            if self.alternative not in ("one_sided", "two_sided"):
                raise ValidationError("superiority needs alternative one_sided or two_sided")
            if self.ni_margin is not None or self.interval is not None:
                raise ValidationError("margins are not part of a superiority test")
        elif self.design == "non_inferiority":
            if self.ni_margin is None or not 0.0 <= self.ni_margin < math.inf:
                raise ValidationError(f"non-inferiority needs a finite ni_margin >= 0, "
                                      f"got {self.ni_margin}")
            if self.alternative is not None or self.interval is not None:
                raise ValidationError("only ni_margin applies to a non-inferiority test")
        elif self.design == "equivalence":
            if self.interval is None:
                raise ValidationError("equivalence needs an interval")
            lo, hi = self.interval
            if not -math.inf < lo <= hi < math.inf:
                raise ValidationError("equivalence interval needs finite bounds with "
                                      f"lower <= upper, got {self.interval}")
            if self.alternative is not None or self.ni_margin is not None:
                raise ValidationError("only interval applies to an equivalence test")
        else:
            raise ValidationError(f"unknown design: {self.design!r}")

    @classmethod
    def superiority(cls, direction: Direction = "high",
                    alternative: Alternative = "two_sided") -> "TestSpec":
        return cls(design="superiority", direction=direction, alternative=alternative)

    @classmethod
    def non_inferiority(cls, ni_margin: float, standardized: bool = False,
                        direction: Direction = "high") -> "TestSpec":
        return cls(design="non_inferiority", direction=direction,
                   ni_margin=float(ni_margin), ni_margin_std=standardized)

    @classmethod
    def equivalence(cls, interval: Union[float, Tuple[float, float]] = (0.0, 0.0),
                    standardized: bool = False,
                    direction: Direction = "high") -> "TestSpec":
        # a scalar v means the symmetric interval (-v, v); 0 is the point null
        if np.ndim(interval) == 0:
            v = abs(float(interval))
            interval = (0.0, 0.0) if v == 0.0 else (-v, v)
        else:
            interval = (float(interval[0]), float(interval[1]))
        return cls(design="equivalence", direction=direction,
                   interval=interval, interval_std=standardized)


@dataclass(frozen=True)
class BfResult:
    """A computed Bayes factor plus everything needed to report it."""

    log_bf: float
    orientation: Orientation
    design: Design
    direction: Direction
    prior_scale: float
    input_mode: Literal["raw", "summary-moments", "summary-ci"]
    alternative: Optional[Alternative] = None
    margin_std: Optional[float] = None
    margin_unstd: Optional[float] = None
    interval_std: Optional[Tuple[float, float]] = None
    interval_unstd: Optional[Tuple[float, float]] = None


@dataclass(frozen=True)
class SweepEntry:
    scale: float
    result: Optional[BfResult] = None
    error: Optional[str] = None


@dataclass(frozen=True)
class SweepResult:
    entries: Tuple[SweepEntry, ...]
    min_log_bf: Optional[float]
    max_log_bf: Optional[float]


def get_bf(result: BfResult) -> float:
    """The Bayes factor on the linear scale, in the result's orientation;
    ``math.inf`` above the float range and 0.0 below it."""
    try:
        return math.exp(result.log_bf)
    except OverflowError:
        return math.inf


# ---------------------------------------------------------------------------
# internals
# ---------------------------------------------------------------------------

_INPUT_MODES = ((RawGroups, "raw"), (SummaryMoments, "summary-moments"), (SummaryCi, "summary-ci"))


def _log_joint(stats: DerivedStats, t: float, scales: Sequence[float]):
    """ln of likelihood times prior density, as a function of a 1-D array
    of delta, with one row per prior scale (the likelihood is evaluated
    once per delta), and the (delta, width) features it has: the
    likelihood's peak near t / sqrt(n_eff) and the prior spike at 0."""
    sqrt_n = math.sqrt(stats.n_eff)
    column = np.asarray(scales, dtype=float)[:, None]

    def joint(delta):
        return (specfun.noncentral_t_logpdf(t, stats.df, delta * sqrt_n)
                + specfun.cauchy_logpdf(delta, column))

    # the likelihood's sd in ncp units is about sqrt(1 + t^2 / (2 df))
    peak = (t / sqrt_n, math.hypot(1.0, t / math.sqrt(2.0 * stats.df)) / sqrt_n)
    return joint, (peak, (0.0, min(scales)))


def posterior_log_density(delta, stats: DerivedStats, prior: CauchyPrior):
    """Normalized log posterior density of delta given the observed t.

    Proportional to likelihood times prior, normalized over the whole line.
    Broadcasts over ``delta``.
    """
    joint, features = _log_joint(stats, stats.t_obs, [prior.scale])
    (row,) = integrate_log(joint, _WHOLE_LINE, (), features)
    if isinstance(row, QuadratureError):
        raise row
    (log_norm,) = row
    delta = np.asarray(delta, dtype=float)
    return joint(delta.ravel())[0].reshape(delta.shape) - log_norm


def savage_dickey_bf(stats: DerivedStats, prior: CauchyPrior, delta0: float) -> float:
    """BF01 for the point null delta = delta0 against the prior.

    The density ratio shortcut: posterior density over prior density at the
    null point.  The engine does not use it; it is an independent route to
    the point-null Bayes factor.
    """
    if not math.isfinite(delta0):
        raise ValidationError("delta0 must be finite")
    log_post = posterior_log_density(delta0, stats, prior)
    return math.exp(float(log_post) - float(prior.logpdf(delta0)))


# Each design lays its hypotheses out on the effect axis: the region of
# delta in play, the cuts that split it into pieces, and which pieces make
# up H1 and H0.  H0 = None is the point null delta = 0.  The layout also
# carries the fields its report shows.

@dataclass(frozen=True)
class _Layout:
    region: Interval = _WHOLE_LINE
    cuts: Tuple[float, ...] = ()
    h1: Tuple[int, ...] = (0,)
    h0: Optional[Tuple[int, ...]] = None
    fields: dict = field(default_factory=dict)


def _superiority(spec: TestSpec, stats: DerivedStats) -> _Layout:
    region = _WHOLE_LINE if spec.alternative == "two_sided" else Interval(0.0, math.inf)
    return _Layout(region, fields={"alternative": spec.alternative})


def _non_inferiority(spec: TestSpec, stats: DerivedStats) -> _Layout:
    # H0: delta < -margin versus H1: delta > -margin, in benefit-oriented units
    margin_std = standardize_margin(spec.ni_margin, spec.ni_margin_std, stats)
    margin_unstd = spec.ni_margin if not spec.ni_margin_std else spec.ni_margin * stats.sd_pooled
    return _Layout(cuts=(-margin_std,), h1=(1,), h0=(0,),
                   fields={"margin_std": margin_std, "margin_unstd": margin_unstd})


def _equivalence(spec: TestSpec, stats: DerivedStats) -> _Layout:
    # H0: delta inside the interval, in benefit-oriented units; (0, 0) is
    # the point null
    lo, hi = (standardize_margin(v, spec.interval_std, stats) for v in spec.interval)
    unstd = (tuple(v * stats.sd_pooled for v in spec.interval) if spec.interval_std
             else spec.interval)
    fields = {"interval_std": (lo, hi), "interval_unstd": unstd}
    if lo == hi == 0.0:
        return _Layout(fields=fields)
    if lo == hi:
        raise ValidationError("a point equivalence hypothesis must sit at 0")
    return _Layout(cuts=(lo, hi), h1=(0, 2), h0=(1,), fields=fields)


# design -> (orientation of the reported BF, layout)
_DESIGNS = {
    "superiority": ("bf10", _superiority),
    "non_inferiority": ("bf10", _non_inferiority),
    "equivalence": ("bf01", _equivalence),
}


def _log_prior_masses(hyp: _Layout, prior: CauchyPrior) -> list:
    """ln prior mass of H1 and of H0; the point null holds all of its mass
    at delta = 0."""
    edges = (hyp.region.lower, *hyp.cuts, hyp.region.upper)
    masses = [prior.mass(a, b) for a, b in zip(edges[:-1], edges[1:])]
    log_prior = []
    for name, pieces in (("H1", hyp.h1), ("H0", hyp.h0)):
        mass = 1.0 if pieces is None else sum(masses[k] for k in pieces)
        if not mass >= _MIN_REGION_PRIOR_MASS:
            raise ValidationError(f"{name} carries essentially no prior mass ({mass:.3g})")
        log_prior.append(math.log(mass))
    return log_prior


def _evaluate(data: StudyInput, stats: DerivedStats, spec: TestSpec,
              scales: Sequence[float]) -> list:
    """The Bayes factor of ``spec``'s table row at each prior scale, from
    already derived stats, as a BfResult or the error that scale ended in.

    ln BF10 = avg(H1) - avg(H0), where a hypothesis's log average
    likelihood is the log marginal of its pieces minus their log prior
    mass, or the log likelihood at delta = 0 for the point null.  All
    scales share one quadrature pass, one integrand row each.
    """
    orientation, layout = _DESIGNS[spec.design]
    hyp = layout(spec, stats)
    outcomes, log_priors = {}, {}
    for i, scale in enumerate(scales):
        try:
            log_priors[i] = _log_prior_masses(hyp, CauchyPrior(scale=scale))
        except ValidationError as exc:
            outcomes[i] = exc
    live = list(log_priors)
    if live:
        t_c = stats.t_obs if spec.direction == "high" else -stats.t_obs
        try:
            joint, features = _log_joint(stats, t_c, [scales[i] for i in live])
            rows = integrate_log(joint, hyp.region, hyp.cuts, features)
        except QuadratureError as exc:  # the integrand or the cuts fail every scale
            rows = [exc] * len(live)
        input_mode = next(m for cls, m in _INPUT_MODES if isinstance(data, cls))
        for i, log_m in zip(live, rows):
            if isinstance(log_m, QuadratureError):
                outcomes[i] = QuadratureError(
                    f"{spec.design} at prior scale {scales[i]:.6g}: {log_m}",
                    log_m.best_log_estimate, log_m.log_error_bound)
                continue
            log_avg = [(float(specfun.central_t_logpdf(t_c, stats.df)) if pieces is None
                        else float(np.logaddexp.reduce([log_m[k] for k in pieces]))) - log_p
                       for pieces, log_p in zip((hyp.h1, hyp.h0), log_priors[i])]
            log_bf10 = log_avg[0] - log_avg[1]
            if not math.isfinite(log_bf10):
                outcomes[i] = QuadratureError(
                    f"{spec.design} at prior scale {scales[i]:.6g}: the log Bayes factor is "
                    f"not finite (log average likelihood {log_avg[0]!r} under H1, "
                    f"{log_avg[1]!r} under H0)", log_bf10, math.inf)
                continue
            outcomes[i] = BfResult(
                log_bf=log_bf10 if orientation == "bf10" else -log_bf10,
                orientation=orientation, design=spec.design, direction=spec.direction,
                prior_scale=scales[i], input_mode=input_mode, **hyp.fields)
    return [outcomes[i] for i in range(len(scales))]


def run_test(data: StudyInput, spec: TestSpec,
             prior_scale: float = DEFAULT_PRIOR_SCALE) -> BfResult:
    """The Bayes factor of whichever design ``spec`` names."""
    (outcome,) = _evaluate(data, derive_stats(data), spec, [prior_scale])
    if isinstance(outcome, Exception):
        raise outcome
    return outcome


def _require(spec: TestSpec, design: Design, message: str) -> None:
    if spec.design != design:
        raise ValidationError(message)


def super_bf(data: StudyInput, spec: TestSpec,
             prior_scale: float = DEFAULT_PRIOR_SCALE) -> BfResult:
    """Superiority test (BF10): the point null delta = 0 against the full
    Cauchy (two-sided) or the Cauchy restricted to the beneficial side
    delta > 0 (one-sided)."""
    _require(spec, "superiority", "super_bf requires a superiority TestSpec")
    return run_test(data, spec, prior_scale)


def infer_bf(data: StudyInput, spec: TestSpec,
             prior_scale: float = DEFAULT_PRIOR_SCALE) -> BfResult:
    """Non-inferiority test (BF10): with benefit = high, H0: delta < -margin
    against H1: delta > -margin (mirrored for benefit = low)."""
    _require(spec, "non_inferiority", "infer_bf requires a non-inferiority TestSpec")
    return run_test(data, spec, prior_scale)


def equiv_bf(data: StudyInput, spec: TestSpec,
             prior_scale: float = DEFAULT_PRIOR_SCALE) -> BfResult:
    """Equivalence test (BF01): delta inside the interval against outside.

    The interval bounds the benefit-oriented effect, so mirrored data under
    the flipped direction give the same answer; (0, 0) is the point null.
    """
    _require(spec, "equivalence", "equiv_bf requires an equivalence TestSpec")
    return run_test(data, spec, prior_scale)


def prior_sweep(data: StudyInput, spec: TestSpec, scales: Sequence[float]) -> SweepResult:
    """Robustness sweep: one Bayes factor per prior scale, from stats derived once.

    A failure at one scale is recorded on its entry and the sweep carries
    on.  Entries keep the order of ``scales``; the summary holds the min
    and max log Bayes factor over the successful entries.
    """
    if len(scales) == 0:
        raise ValidationError("prior_sweep needs at least one scale")
    if any(not (s > 0.0 and math.isfinite(s)) for s in scales):
        raise ValidationError("all prior scales must be positive finite numbers")

    scales = [float(s) for s in scales]
    try:
        # derived inside, so input that cannot be reduced fails at every scale
        outcomes = _evaluate(data, derive_stats(data), spec, scales)
    except (ValidationError, QuadratureError) as exc:
        outcomes = [exc] * len(scales)
    entries = [SweepEntry(scale=s, result=o) if isinstance(o, BfResult)
               else SweepEntry(scale=s, error=str(o)) for s, o in zip(scales, outcomes)]
    log_bfs = [e.result.log_bf for e in entries if e.result is not None]
    return SweepResult(
        entries=tuple(entries),
        min_log_bf=min(log_bfs) if log_bfs else None,
        max_log_bf=max(log_bfs) if log_bfs else None,
    )
