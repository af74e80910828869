"""Brute-force reference computations used only by the test suite.

Nothing here shares numerical machinery with the engine: the noncentral t
density is integrated from its defining chi scale mixture on dense grids,
and every Bayes factor integral is a trapezoid sum over a fixed grid, with
no adaptive subdivision anywhere.  The gamma constants come from the C
library (math.lgamma) rather than the package's own approximation, so
these routines also validate ``specfun`` itself.

The Bayes factor grid lives in the Cauchy angle coordinate
theta = arctan(delta / scale): a uniform theta grid concentrates nodes
where the prior has mass while still reaching past 1e9 scale units, and
the prior's pullback to theta is a constant, so the heavy tails cannot
poison the trapezoid sums.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .datamodel import DerivedStats, standardize_margin
from .engine import CauchyPrior, TestSpec
from .quadrature import Interval

__all__ = ["GridSpec", "default_span", "grid_bf", "nct_logpdf_mixture"]

# fraction of prior mass a default span may leave uncovered
_SPAN_TAIL = 1e-10
# nats below the peak at which mixture-integrand grids are cut off
_MIX_DROP = 60.0


def _logsumexp(values: np.ndarray) -> float:
    m = float(np.max(values))
    if not math.isfinite(m):
        return m
    return m + math.log(float(np.exp(values - m).sum()))


def _log_trapezoid(log_f: np.ndarray, x: np.ndarray) -> float:
    """ln of the trapezoid-rule integral of exp(log_f) on the grid x."""
    log_dx = np.log(np.diff(x))
    pair = np.logaddexp(log_f[:-1], log_f[1:]) - math.log(2.0)
    return _logsumexp(pair + log_dx)


@dataclass(frozen=True)
class GridSpec:
    """Fixed effect-size grid for the trapezoid Bayes factors."""

    span: Interval
    nodes: int = 1_000_001

    def __post_init__(self):
        if self.nodes < 100_000 or self.nodes % 2 == 0:
            raise ValueError("grid needs an odd node count of at least 1e5")
        if not self.span.is_finite:
            raise ValueError("grid span must be finite")


def default_span(prior: CauchyPrior) -> Interval:
    """Symmetric span leaving less than 1e-10 of the prior's mass outside."""
    # aim at 0.9e-10 so rounding cannot push the uncovered mass over 1e-10
    half = prior.scale * math.tan(math.pi * (0.5 - 0.45 * _SPAN_TAIL))
    return Interval(-half, half)


# ---------------------------------------------------------------------------
# noncentral t by dense-grid mixture integration
# ---------------------------------------------------------------------------

def _mixture_log_const(df: float) -> float:
    # f(t) = C * int_0^inf u^df exp(-((u t - ncp)^2 + df u^2)/2) du
    return (
        math.log(2.0)
        + (df / 2.0) * math.log(df / 2.0)
        - math.lgamma(df / 2.0)
        - 0.5 * math.log(2.0 * math.pi)
    )


def _mixture_exponent(u, t, df, ncp):
    with np.errstate(divide="ignore", invalid="ignore"):
        out = df * np.log(u) - ((u * t - ncp) ** 2 + df * u * u) / 2.0
    return np.where(u > 0.0, out, -math.inf)


def _grid_exponent(u, t, df, ncp):
    """_mixture_exponent on rows of nodes u >= 0, one ncp per row, in two work arrays."""
    g = u * t
    g -= ncp[:, None]
    g *= g
    work = u * df
    work *= u
    g += work
    g *= -0.5
    with np.errstate(divide="ignore"):  # u = 0 only where the left cutoff underflows: -inf
        np.log(u, out=work)
    work *= df
    g += work
    return g


# locating the cutoffs to ~1e-7 of the bracket is plenty: the integrand is
# ~e^-60 there, so the cut-off error barely moves
_BISECT_STEPS = 24


def _bisect_falling(g, target, lo, hi, steps=_BISECT_STEPS):
    """Roots of g(u) = target where g is decreasing on each (lo, hi)."""
    lo = np.array(lo, dtype=float, copy=True)
    hi = np.array(hi, dtype=float, copy=True)
    for _ in range(steps):
        mid = (lo + hi) / 2.0
        above = g(mid) > target
        lo = np.where(above, mid, lo)
        hi = np.where(above, hi, mid)
    return (lo + hi) / 2.0


def nct_logpdf_mixture(t: float, df: float, ncp: float,
                       nodes: int = 2_000_001) -> float:
    """ln noncentral t density from the defining scale-mixture integral.

    Uniform grid in the mixing variable u from 0 to the point where the
    integrand has fallen 60 nats below its peak, trapezoid rule throughout.
    """
    a2 = t * t + df
    m = ncp * t / a2
    u_peak = (m + math.sqrt(m * m + 4.0 * df / a2)) / 2.0

    def g(u):
        return _mixture_exponent(np.asarray(u, dtype=float), t, df, ncp)

    g_peak = float(g(u_peak))
    # expand an upper bracket until the integrand has died off
    hi = u_peak + 1.0 / math.sqrt(a2)
    while float(g(hi)) > g_peak - _MIX_DROP:
        hi = u_peak + 2.0 * (hi - u_peak)
    u_hi = float(_bisect_falling(g, g_peak - _MIX_DROP, np.array(u_peak), np.array(hi)))
    u = np.linspace(0.0, u_hi, nodes)
    return _mixture_log_const(df) + _log_trapezoid(g(u), u)


def _loglik_on_grid(t: float, df: float, ncp: np.ndarray,
                    inner_nodes: int = 201, chunk: int = 20_000) -> np.ndarray:
    """Mixture-integral log likelihood for a whole grid of noncentralities.

    Same mathematics as :func:`nct_logpdf_mixture` but with per-element
    uniform grids between bisection-located drop-off points, so the whole
    effect-size grid can be done in vectorized chunks.
    """
    a2 = t * t + df
    const = _mixture_log_const(df)
    z01 = np.linspace(0.0, 1.0, inner_nodes)
    log_w = np.zeros(inner_nodes)
    log_w[0] = log_w[-1] = math.log(0.5)

    out = np.empty(ncp.shape)
    for start in range(0, ncp.size, chunk):
        nc = ncp[start:start + chunk]
        m = nc * t / a2
        disc = np.sqrt(m * m + 4.0 * df / a2)
        # stable peak for either sign of m, and its stable offset from m
        with np.errstate(divide="ignore"):  # the unused where-branch
            u_peak = np.where(m >= 0.0, (m + disc) / 2.0, (2.0 * df / a2) / (disc - m))
        gap = (2.0 * df / a2) / (disc + np.abs(m))
        gap = np.where(m >= 0.0, gap, u_peak - m)

        # conservative cutoffs from exponent bounds:
        # right: g'' <= -a2 everywhere, so the drop point is inside
        # u_peak + sqrt(2 D / a2)
        u_hi = u_peak + math.sqrt(2.0 * _MIX_DROP / a2)
        # left: below the peak, g(u) <= df ln u + qmax with qmax the
        # quadratic part's maximum there; the gap g_peak - qmax is formed
        # analytically because both terms can reach 1e20
        log_u_peak = np.log(u_peak)
        over_qmax = np.where(
            m > 0.0,
            df * log_u_peak - a2 * gap * gap / 2.0,
            df * log_u_peak - a2 * u_peak * u_peak / 2.0 + m * a2 * u_peak,
        )
        u_lo = np.exp((over_qmax - _MIX_DROP) / df)

        u = (u_hi - u_lo)[:, None] * z01
        u += u_lo[:, None]
        vals = _grid_exponent(u, t, df, nc)
        vals += log_w
        peak = vals.max(axis=1)
        vals -= peak[:, None]
        s = np.exp(vals, out=vals).sum(axis=1)
        step = (u_hi - u_lo) / (inner_nodes - 1)
        out[start:start + chunk] = const + peak + np.log(s) + np.log(step)
    return out


# ---------------------------------------------------------------------------
# grid Bayes factors
# ---------------------------------------------------------------------------

def _central_t_logpdf(t: float, df: float) -> float:
    return (
        math.lgamma((df + 1.0) / 2.0)
        - math.lgamma(df / 2.0)
        - 0.5 * math.log(df * math.pi)
        - ((df + 1.0) / 2.0) * math.log1p(t * t / df)
    )


class _ThetaGrid:
    """Uniform grid in theta = arctan(delta/scale) with exact split nodes."""

    def __init__(self, prior: CauchyPrior, grid: GridSpec, split_points):
        self.scale = prior.scale
        th_lo = math.atan(grid.span.lower / prior.scale)
        th_hi = math.atan(grid.span.upper / prior.scale)
        theta = np.linspace(th_lo, th_hi, grid.nodes)
        inserts = [math.atan(x / prior.scale) for x in split_points
                   if grid.span.lower < x < grid.span.upper]
        if inserts:
            theta = np.unique(np.concatenate([theta, np.asarray(inserts)]))
        self.theta = theta
        self.delta = prior.scale * np.tan(theta)

    def log_prior_pullback(self) -> np.ndarray:
        # cauchy(delta) * d delta/d theta = 1/pi, for every theta
        return np.full(self.theta.shape, -math.log(math.pi))

    def slice_logint(self, log_f_theta: np.ndarray, lo: float, hi: float) -> float:
        """Trapezoid integral (in theta) over grid nodes with delta in [lo, hi]."""
        th_lo = math.atan(lo / self.scale) if math.isfinite(lo) else -math.pi / 2
        th_hi = math.atan(hi / self.scale) if math.isfinite(hi) else math.pi / 2
        mask = (self.theta >= th_lo - 1e-15) & (self.theta <= th_hi + 1e-15)
        if mask.sum() < 2:
            raise ValueError("region contains fewer than two grid nodes")
        return _log_trapezoid(log_f_theta[mask], self.theta[mask])


def grid_bf(stats: DerivedStats, prior: CauchyPrior, spec: TestSpec,
            grid: GridSpec | None = None) -> float:
    """Design-appropriate Bayes factor by pure trapezoid sums on the grid.

    Returns the Bayes factor in the same orientation the engine reports
    (BF10 for superiority and non-inferiority, BF01 for equivalence).
    """
    grid = grid or GridSpec(span=default_span(prior))

    t_c = stats.t_obs if spec.direction == "high" else -stats.t_obs
    sqrt_n = math.sqrt(stats.n_eff)

    if spec.design == "superiority":
        split_points: tuple = (0.0,)
    elif spec.design == "non_inferiority":
        margin = standardize_margin(spec.ni_margin, spec.ni_margin_std, stats)
        split_points = (-margin,)
    else:
        # the interval applies to the benefit-oriented effect, like t_c
        lo = standardize_margin(spec.interval[0], spec.interval_std, stats)
        hi = standardize_margin(spec.interval[1], spec.interval_std, stats)
        if lo == hi == 0.0:
            # finite-difference Savage-Dickey window, two grid steps wide
            th = np.pi * (1.0 - _SPAN_TAIL) / (grid.nodes - 1)
            h = prior.scale * math.tan(2.0 * th)
            split_points = (-h, h)
        else:
            split_points = (lo, hi)

    tg = _ThetaGrid(prior, grid, split_points)
    log_prior_th = tg.log_prior_pullback()
    log_joint_th = _loglik_on_grid(t_c, stats.df, tg.delta * sqrt_n) + log_prior_th
    d_lo, d_hi = float(tg.delta[0]), float(tg.delta[-1])

    if spec.design == "superiority":
        if spec.alternative == "two_sided":
            log_m1 = tg.slice_logint(log_joint_th, d_lo, d_hi)
        else:
            # half-Cauchy on the beneficial side: restrict and renormalize
            log_mass = tg.slice_logint(log_prior_th, 0.0, d_hi)
            log_m1 = tg.slice_logint(log_joint_th, 0.0, d_hi) - log_mass
        return math.exp(log_m1 - _central_t_logpdf(t_c, stats.df))

    if spec.design == "non_inferiority":
        b = split_points[0]
        log_odds_post = (tg.slice_logint(log_joint_th, b, d_hi)
                         - tg.slice_logint(log_joint_th, d_lo, b))
        log_odds_prior = (tg.slice_logint(log_prior_th, b, d_hi)
                          - tg.slice_logint(log_prior_th, d_lo, b))
        return math.exp(log_odds_post - log_odds_prior)

    lo, hi = split_points
    if spec.interval[0] == spec.interval[1] == 0.0:
        # point equivalence: posterior over prior density at 0, both
        # estimated as mass over the same narrow window
        log_z = tg.slice_logint(log_joint_th, d_lo, d_hi)
        log_post_mass = tg.slice_logint(log_joint_th, lo, hi) - log_z
        log_prior_mass = tg.slice_logint(log_prior_th, lo, hi)
        return math.exp(log_post_mass - log_prior_mass)

    log_m_in = tg.slice_logint(log_joint_th, lo, hi)
    log_m_out = np.logaddexp(tg.slice_logint(log_joint_th, d_lo, lo),
                             tg.slice_logint(log_joint_th, hi, d_hi))
    log_p_in = tg.slice_logint(log_prior_th, lo, hi)
    log_p_out = np.logaddexp(tg.slice_logint(log_prior_th, d_lo, lo),
                             tg.slice_logint(log_prior_th, hi, d_hi))
    return math.exp((log_m_in - float(log_m_out)) - (log_p_in - float(log_p_out)))
