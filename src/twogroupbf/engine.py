"""Bayes factor engine for the three two-group designs.

The sampling model is reduced to the observed t statistic, whose likelihood
given the standardized effect delta is noncentral t with noncentrality
delta * sqrt(n_eff).  A zero-location Cauchy prior is placed on delta.

Every test weighs two hypotheses about delta by their average likelihood
and reports the ratio.  A hypothesis made of pieces of the delta axis
averages the likelihood against the prior over those pieces (the
interval-null odds of Morey & Rouder, 2011); the point null delta = 0
takes the likelihood there.  Each design is one table row: the edges of
the pieces of delta in play, and which pieces make up H1 and H0.  All
pieces of one Bayes factor come from a single quadrature pass.

A benefit direction of "low" is folded away at the door: the mean
difference is negated and the computation proceeds as if high scores were
beneficial, so both directions share one code path and mirror exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Literal, Optional, Sequence, Tuple, Union

import numpy as np

from . import specfun
from .datamodel import (
    HORIZON_NATS,
    DerivedStats,
    RawGroups,
    StudyInput,
    SummaryCi,
    SummaryMoments,
    ValidationError,
    derive_stats,
    standardize_margin,
)
from .quadrature import QuadratureError, integrate_log

__all__ = [
    "DEFAULT_PRIOR_SCALE",
    "DESIGN_FIELDS",
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

_WHOLE_LINE = (-math.inf, math.inf)

Design = Literal["superiority", "non_inferiority", "equivalence"]
Direction = Literal["high", "low"]
Alternative = Literal["one_sided", "two_sided"]
Orientation = Literal["bf10", "bf01"]

# the TestSpec fields each design reads; those of another design stay unset
DESIGN_FIELDS = {"superiority": ("alternative",),
                 "non_inferiority": ("ni_margin", "ni_margin_std"),
                 "equivalence": ("interval", "interval_std")}


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

    Only ``design``'s fields in ``DESIGN_FIELDS`` may be set; use the
    factory classmethods rather than filling fields by hand.
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
        if self.design not in DESIGN_FIELDS:
            raise ValidationError(f"unknown design: {self.design!r}")
        own = DESIGN_FIELDS[self.design]
        for field in (f for fields in DESIGN_FIELDS.values() for f in fields if f not in own):
            if (value := getattr(self, field)) is not None and value is not False:  # 0.0 == False
                raise ValidationError(f"only {own[0]} applies to {self.design} tests, not {field}")
        if self.design == "superiority" and self.alternative not in ("one_sided", "two_sided"):
            raise ValidationError("superiority needs alternative one_sided or two_sided")
        elif self.design == "non_inferiority":
            if self.ni_margin is None or not 0.0 <= self.ni_margin < math.inf:
                raise ValidationError(f"non-inferiority needs a finite ni_margin >= 0, "
                                      f"got {self.ni_margin}")
        elif self.design == "equivalence":
            if self.interval is None:
                raise ValidationError("equivalence needs an interval")
            lo, hi = self.interval
            if not -math.inf < lo <= hi < math.inf:
                raise ValidationError("equivalence interval needs finite bounds with "
                                      f"lower <= upper, got {self.interval}")

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
    except OverflowError:  # also raised by an int below the float range
        return math.inf if result.log_bf > 0 else 0.0


# ---------------------------------------------------------------------------
# internals
# ---------------------------------------------------------------------------

_INPUT_MODES = ((RawGroups, "raw"), (SummaryMoments, "summary-moments"), (SummaryCi, "summary-ci"))


def _log_joint(stats: DerivedStats, t: float, scales: Sequence[float]):
    """ln of likelihood times prior density, as a function of a 1-D array
    of delta, with one row per prior scale (the likelihood is evaluated
    once per delta), and the features it has: the likelihood's peak near
    t / sqrt(n_eff), and the prior spike at 0, each as (delta, width, reach).

    For fixed t, ln f = -ncp^2 / 2 + ln Z(ncp t / sqrt(t^2 + df)), with Z
    the partition function of v^df e^(a v - v^2 / 2) on v > 0.  That
    density is strongly log-concave, so its variance is at most 1
    (Brascamp-Lieb), and ln f is concave in ncp with curvature in
    [df / (df + t^2), 1].  So ln f has fallen HORIZON_NATS (T) below its
    peak by sqrt(2 T (1 + t^2 / df)) in ncp from it, and the peak lies
    within the feature's width of t: their sum is the reach.  The
    heavy-tailed prior spike has none: its reach is infinite.
    """
    sqrt_n = math.sqrt(stats.n_eff)
    column = np.asarray(scales, dtype=float)[:, None]

    def joint(delta):
        with np.errstate(over="ignore"):  # ncp past the float range is +-inf
            ncp = delta * sqrt_n
        out = specfun.cauchy_logpdf(delta, column)  # a fresh (scales, delta) array
        out += specfun.noncentral_t_logpdf(t, stats.df, ncp)
        return out

    # the likelihood's sd in ncp units is about sqrt(1 + t^2 / (2 df)); its
    # peak lies within that of t
    width = math.hypot(1.0, t / math.sqrt(2.0 * stats.df))
    reach = width + math.sqrt(2.0 * HORIZON_NATS) * math.hypot(1.0, t / math.sqrt(stats.df))
    peak = (t / sqrt_n, width / sqrt_n, reach / sqrt_n)
    return joint, (peak, (0.0, min(scales), math.inf))


def posterior_log_density(delta, stats: DerivedStats, prior: CauchyPrior):
    """Normalized log posterior density of delta given the observed t.

    Proportional to likelihood times prior, normalized over the whole line.
    Broadcasts over ``delta``.
    """
    joint, features = _log_joint(stats, stats.t_obs, [prior.scale])
    (row,) = integrate_log(joint, _WHOLE_LINE, features)
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


def _hypotheses(spec: TestSpec, stats: DerivedStats) -> tuple:
    """``spec``'s table row: the orientation of the reported BF, the edges
    of the pieces of delta in play, which pieces make up H1 and which H0
    (None: the point null delta = 0), and the fields its report shows.
    Effects are in benefit-oriented units."""
    if spec.design == "superiority":
        edges = _WHOLE_LINE if spec.alternative == "two_sided" else (0.0, math.inf)
        return "bf10", edges, (0,), None, {"alternative": spec.alternative}
    if spec.design == "non_inferiority":  # H0: delta < -margin versus H1: delta > -margin
        margin_std = standardize_margin(spec.ni_margin, spec.ni_margin_std, stats)
        margin_unstd = spec.ni_margin if not spec.ni_margin_std else spec.ni_margin * stats.sd_pooled
        return ("bf10", (-math.inf, -margin_std, math.inf), (1,), (0,),
                {"margin_std": margin_std, "margin_unstd": margin_unstd})
    # equivalence, H0: delta inside the interval; (0, 0) is the point null
    lo, hi = (standardize_margin(v, spec.interval_std, stats) for v in spec.interval)
    unstd = (tuple(v * stats.sd_pooled for v in spec.interval) if spec.interval_std
             else spec.interval)
    fields = {"interval_std": (lo, hi), "interval_unstd": unstd}
    if lo == hi == 0.0:
        return "bf01", _WHOLE_LINE, (0,), None, fields
    if lo == hi:
        raise ValidationError("a point equivalence hypothesis must sit at 0")
    return "bf01", (-math.inf, lo, hi, math.inf), (0, 2), (1,), fields


def _log_prior_masses(edges: Tuple[float, ...], pieces: tuple, prior: CauchyPrior) -> list:
    """ln prior mass of H1 and of H0, given as ``pieces`` between ``edges``;
    the point null holds all of its mass at delta = 0."""
    masses = [prior.mass(a, b) for a, b in zip(edges[:-1], edges[1:])]
    log_prior = []
    for name, ks in zip(("H1", "H0"), pieces):
        mass = 1.0 if ks is None else sum([masses[k] for k in ks])
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
    orientation, edges, h1, h0, fields = _hypotheses(spec, stats)
    # each scale's prior-mass error, or its log prior masses until its result
    outcomes = []
    for scale in scales:
        try:
            outcomes.append(_log_prior_masses(edges, (h1, h0), CauchyPrior(scale)))
        except ValidationError as exc:
            outcomes.append(exc)
    live = [i for i, o in enumerate(outcomes) if isinstance(o, list)]
    if live:
        t_c = stats.t_obs if spec.direction == "high" else -stats.t_obs
        try:
            joint, features = _log_joint(stats, t_c, [scales[i] for i in live])
            rows = integrate_log(joint, edges, features)
        except QuadratureError as exc:  # the integrand or the edges fail every scale
            rows = [exc] * len(live)
        shared = dict(orientation=orientation, design=spec.design, direction=spec.direction,
                      input_mode=next(m for cls, m in _INPUT_MODES if isinstance(data, cls)),
                      **fields)
        # the point null's likelihood, the same at every scale
        log_point = float(specfun.central_t_logpdf(t_c, stats.df)) if h0 is None else math.nan
        for i, log_m in zip(live, rows):
            if not isinstance(log_m, QuadratureError):
                log_avg = [(log_point if ks is None else log_m[ks[0]] if len(ks) == 1
                            else float(np.logaddexp.reduce([log_m[k] for k in ks]))) - log_p
                           for ks, log_p in zip((h1, h0), outcomes[i])]
                log_bf10 = log_avg[0] - log_avg[1]
                if math.isfinite(log_bf10):
                    outcomes[i] = BfResult(log_bf=log_bf10 if orientation == "bf10" else -log_bf10,
                                           prior_scale=scales[i], **shared)
                    continue
                log_m = QuadratureError(
                    f"the log Bayes factor is not finite (log average likelihood "
                    f"{log_avg[0]!r} under H1, {log_avg[1]!r} under H0)", log_bf10, math.inf)
            outcomes[i] = QuadratureError(f"{spec.design} at prior scale {scales[i]:.6g}: {log_m}",
                                          log_m.best_log_estimate, log_m.log_error_bound)
    return outcomes


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
