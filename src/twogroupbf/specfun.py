"""Log-space special functions and probability densities.

Everything here returns natural-log densities (or plain reals for the
gamma/quantile helpers) so that downstream marginal-likelihood integrals
never overflow or underflow: the Bayes factors this package targets can
exceed 1e9, and the tail masses feeding them are far smaller than the
smallest positive double.

All functions are pure and accept scalars; the density functions also
broadcast over numpy arrays, which the integration engine relies on.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "DomainError",
    "log_gamma",
    "central_t_logpdf",
    "noncentral_t_logpdf",
    "cauchy_logpdf",
    "student_t_quantile",
    "student_t_cdf",
]

LN_SQRT_2PI = 0.9189385332046727  # ln sqrt(2*pi)
LN_2 = 0.6931471805599453
LN_PI = 1.1447298858494002


class DomainError(ValueError):
    """Argument outside the mathematical domain of a special function."""


# ---------------------------------------------------------------------------
# log gamma
# ---------------------------------------------------------------------------

def _stirling_tail(x):
    """ln Gamma(x) - [(x - 1/2) ln x - x + ln sqrt(2 pi)] for x >= 20 (Stirling)."""
    y = 1.0 / (x * x)
    return (1 / 12 - y * (1 / 360 - y * (1 / 1260 - y * (1 / 1680 - y / 1188)))) / x


def log_gamma(x):
    """ln Gamma(x) for x > 0: libm's lgamma below 20, Stirling's series above."""
    x = np.asarray(x, dtype=float)
    if np.any(x <= 0.0) or np.any(np.isnan(x)):
        raise DomainError("log_gamma requires x > 0")
    big = np.maximum(x, 20.0)
    out = np.asarray((big - 0.5) * np.log(big) - big + LN_SQRT_2PI + _stirling_tail(big))
    out[x < 20.0] = [math.lgamma(v) for v in x[x < 20.0]]
    return float(out) if out.ndim == 0 else out


def _stirling_rest(x):
    """ln Gamma(x) - [(x - 1/2) ln x - x + ln sqrt(2 pi)] for a scalar x > 0.

    Differences of ln Gamma near 1e7 lose ~1e-9 to rounding; written
    through this small remainder they keep full absolute accuracy.
    """
    if x < 20.0:
        return math.lgamma(x) - ((x - 0.5) * math.log(x) - x + LN_SQRT_2PI)
    return _stirling_tail(x)


def _log_gamma_half_ratio(x):
    """ln Gamma(x + 1/2) - ln Gamma(x) for a scalar x > 0."""
    return (0.5 * math.log(x) + (x * math.log1p(0.5 / x) - 0.5)
            + _stirling_rest(x + 0.5) - _stirling_rest(x))


# ---------------------------------------------------------------------------
# Student t (central)
# ---------------------------------------------------------------------------

def central_t_logpdf(t, df):
    """ln density of Student's t with ``df`` degrees of freedom at ``t``."""
    if df <= 0.0 or math.isnan(df):
        raise DomainError("central_t_logpdf requires df > 0")
    t = np.asarray(t, dtype=float)
    return (
        _log_gamma_half_ratio(df / 2.0)
        - 0.5 * (math.log(df) + LN_PI)
        - ((df + 1.0) / 2.0) * np.log1p(t * t / df)
    )


# ---------------------------------------------------------------------------
# Cauchy (location zero)
# ---------------------------------------------------------------------------

def cauchy_logpdf(x, scale):
    """ln density of a zero-location Cauchy with the given scale."""
    if scale <= 0.0 or math.isnan(scale):
        raise DomainError("cauchy_logpdf requires scale > 0")
    x = np.asarray(x, dtype=float)
    z = x / scale
    return -math.log(math.pi * scale) - np.log1p(z * z)


# ---------------------------------------------------------------------------
# Noncentral t density
# ---------------------------------------------------------------------------
#
# The observed two-sample t statistic has the noncentral t law, which this
# module evaluates through the integral representation over the chi scale
# variable.  Writing A = t^2 + df and a = ncp * t / sqrt(A):
#
#   f(t; df, ncp) = K * exp(-ncp^2 df / (2A)) * A^(-(df+1)/2) * I(a)
#   K             = 2 (df/2)^(df/2) / (Gamma(df/2) sqrt(2 pi))
#   I(a)          = integral_0^inf  v^df exp(-(v - a)^2 / 2)  dv
#
# I(a) is evaluated in log space by one of three routes, picked by where the
# integrand's mode x* = (a + sqrt(a^2 + 4 df))/2 sits: with curvature width
# sigma = x* / sqrt(df + x*^2), it lies sqrt(df + x*^2) widths from v = 0.
#   * df + x*^2 > W^2: a trapezoid on x* +- W sigma, clear of the branch
#     point v = 0, so it converges geometrically (Trefethen & Weideman,
#     SIAM Review 56(3), 2014);
#   * otherwise a > 0: an exact positive-term series (here a < x* < W);
#   * otherwise (a <= 0 near v = 0): Gauss-Legendre panels in w = ln v.
# The test suite checks them against the mixture oracle, mpmath and each other.

_QUAD_NODES = 96  # agree with 1600 nodes to 5e-16 (relative, on ln I)
_QUAD_DROP = 60.0  # integrand truncated where it falls this many nats below its peak
_TRAPEZOID_HALF = math.sqrt(2.0 * _QUAD_DROP) + 12.0  # W, the window's half-width in sigma
_TRAPEZOID_Z = np.linspace(-1.0, 1.0, _QUAD_NODES)
_SERIES_TABLES = {}  # df -> the k-only part of the log series terms, for the last 8 df


def _series_table(df, n):
    """ln[2^((df+k-1)/2) Gamma((df+k+1)/2) / k!] for k = 0 .. at least n - 1.

    Built on first use, grown by doubling, kept for the last few df only.
    """
    table = _SERIES_TABLES.pop(df, None)
    if table is None or table.size < n:
        k = np.arange(max(n, 256, 2 * (0 if table is None else table.size)), dtype=float)
        table = (df + k - 1.0) / 2.0 * LN_2 + log_gamma((df + k + 1.0) / 2.0) - log_gamma(k + 1.0)
    _SERIES_TABLES[df] = table  # most recently used last
    if len(_SERIES_TABLES) > 8:
        del _SERIES_TABLES[next(iter(_SERIES_TABLES))]
    return table


def _log_hh_series(df, a):
    """ln I(a) by the exact series, vectorized over a > 0.

    I(a) = e^{-a^2/2} sum_k  a^k / k!  2^{(df+k-1)/2} Gamma((df+k+1)/2),
    all terms positive, summed by log-sum-exp.  Each point sums only a
    window around its own largest term, where (k+1)^2 ~ a^2 (df + k + 1/2):
    12 widths sqrt(2k + 1) of the log terms' parabola, plus 20 terms for a
    peak near k = 0 at df < 1, where the fall-off is slower (with 10, ln I
    at df = 0.01, a ~ 1.4 was 2e-9 short; with 20, within 5e-15).
    """
    a = np.atleast_1d(np.asarray(a, dtype=float))
    a2 = a * a
    disc = np.sqrt(np.maximum(a2 * (a2 + 4.0 * (df - 0.5)), 0.0))
    k_peak = np.maximum((a2 + disc) / 2.0 - 1.0, 0.0)
    half = 12.0 * np.sqrt(2.0 * k_peak + 1.0) + 20.0
    lo = np.maximum(k_peak - half, 0.0).astype(np.intp)
    size = (k_peak + half).astype(np.intp) + 1 - lo
    first = np.cumsum(size) - size  # each window's offset in the flat arrays
    owner = np.repeat(np.arange(a.size), size)
    k = np.arange(first[-1] + size[-1]) - np.repeat(first - lo, size)
    log_terms = k * np.log(a)[owner] + _series_table(df, int(k.max()) + 1)[k]
    m = np.maximum.reduceat(log_terms, first)
    return m + np.log(np.add.reduceat(np.exp(log_terms - m[owner]), first)) - a2 / 2.0


# Gauss-Legendre panels for the w-space route: edges double away from the
# mode in curvature units so the long exponential tail at small df is
# resolved as sharply as the peak.
_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(20)  # as 64 to 9e-16
_PANEL_EDGES = np.array(
    [-64.0, -32.0, -16.0, -8.0, -4.0, -2.0, -1.0, 0.0, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0]
)


def _log_hh_quad_small(df, a):
    """ln I(a) via Gauss-Legendre in w = ln v, vectorized; for moderate a.

    In w the integrand exp((df+1)w - (e^w - a)^2/2) is smooth with
    exponential left decay and super-exponential right decay; panels laid
    out geometrically around the mode give spectral accuracy on both.
    """
    a = np.atleast_1d(np.asarray(a, dtype=float))
    # mode of the transformed integrand: x^2 - a x - (df + 1) = 0
    disc = np.sqrt(a * a + 4.0 * (df + 1.0))
    x_star = np.where(a >= 0.0, (a + disc) / 2.0, 2.0 * (df + 1.0) / (disc - a))
    w_star = np.log(x_star)
    h_star = (df + 1.0) * w_star - (x_star - a) ** 2 / 2.0
    sigma_w = 1.0 / np.sqrt(x_star * (2.0 * x_star - a))

    # left cutoff from the bound h(w) <= (df+1) w - min_v (v-a)^2 / 2,
    # the minimum taken over v left of the mode
    min_sq = np.where(a < 0.0, a * a, 0.0)
    w_lo = (h_star - _QUAD_DROP + min_sq / 2.0) / (df + 1.0)
    w_lo = np.minimum(w_lo, w_star - 10.0 * sigma_w)

    def log_gauss_cut(pad):
        # ln(a + sqrt((x*-a)^2 + pad)); the a < 0 branch is rearranged so
        # huge |a| does not cancel
        num = x_star * x_star - 2.0 * a * x_star + pad
        rad = np.sqrt((x_star - a) ** 2 + pad)
        return np.log(np.where(a >= 0.0, a + rad, num / (rad - a)))

    # right cutoff: invert the Gaussian factor, once directly and once
    # with the (df+1) w growth folded in
    w_hi = log_gauss_cut(2.0 * _QUAD_DROP)
    extra = np.maximum(0.0, 2.0 * (df + 1.0) * (w_hi - w_star))
    w_hi = np.maximum(log_gauss_cut(2.0 * _QUAD_DROP + extra), w_star + 10.0 * sigma_w)

    # beyond 64 curvature units the integrand is at least ~45 nats down
    edges = w_star[:, None] + sigma_w[:, None] * _PANEL_EDGES[None, :]
    edges = np.clip(edges, w_lo[:, None], w_hi[:, None])
    half = (edges[:, 1:] - edges[:, :-1]) / 2.0          # (n, panels)
    mid = (edges[:, 1:] + edges[:, :-1]) / 2.0
    w = mid[:, :, None] + half[:, :, None] * _GL_NODES[None, None, :]
    g = (df + 1.0) * w - (np.exp(w) - a[:, None, None]) ** 2 / 2.0
    m = g.max(axis=(1, 2))
    # collapsed panels have zero width and drop out of the weighted sum
    vals = np.exp(g - m[:, None, None]) * (half[:, :, None] * _GL_WEIGHTS)
    return m + np.log(vals.sum(axis=(1, 2)))


def _log_hh_trapezoid(df, x_star):
    """ln I(a) by a 96-node trapezoid on x* +- W sigma, for df + x*^2 > W^2.

    With s = v - x* = u x* and x* - a = df / x*, the log integrand is its peak
    plus df (log1p(u) - u) - s^2 / 2: no large terms cancel.  Both window ends
    lie over 160 nats below the peak, so all nodes weigh the same.
    """
    r = np.sqrt(df + x_star * x_star)  # x* / sigma, > W, so that u > -1
    u = (_TRAPEZOID_HALF / r)[:, None] * _TRAPEZOID_Z
    h = df * (np.log1p(u) - u) - (x_star[:, None] * u) ** 2 / 2.0
    step = 2.0 * _TRAPEZOID_HALF / (_QUAD_NODES - 1) * x_star / r
    return df * np.log(x_star) - (df / x_star) ** 2 / 2.0 + np.log(np.exp(h).sum(axis=1) * step)


def _log_hh(df, a):
    """ln I(a) for an array of reduced noncentralities, routed by the mode."""
    out = np.empty(a.shape)
    # the mode, without cancellation for either sign of a: x* (x* - a) = df
    big = (np.abs(a) + np.hypot(a, 2.0 * math.sqrt(df))) / 2.0
    x_star = np.where(a >= 0.0, big, df / big)
    clear = np.sqrt(df + x_star * x_star) > _TRAPEZOID_HALF  # x* > W sigma
    series = ~clear & (a > 0.0)
    for route, where, arg in ((_log_hh_trapezoid, clear, x_star), (_log_hh_series, series, a),
                              (_log_hh_quad_small, ~(clear | series), a)):
        if where.any():
            out[where] = route(df, arg[where])
    return out


_EVAL_CHUNK = 2048  # bounds the per-call work arrays (series windows, quadrature nodes)


def noncentral_t_logpdf(t, df, ncp):
    """ln density of the noncentral t law at ``t``.

    Evaluated entirely in log space via the scale-variable integral
    representation; see the module notes above.  Broadcasts over ``t`` and
    ``ncp``.
    """
    if df <= 0.0 or math.isnan(df):
        raise DomainError("noncentral_t_logpdf requires df > 0")
    t_arr, ncp_arr = np.broadcast_arrays(np.asarray(t, dtype=float), np.asarray(ncp, dtype=float))
    t_flat, n_flat = t_arr.ravel(), ncp_arr.ravel()

    # ln K = ln 2 + x ln x - ln Gamma(x) - ln sqrt(2 pi), x = df/2, through Stirling
    x = df / 2.0
    log_k = LN_2 + 0.5 * math.log(x) + x - _stirling_rest(x) - 2.0 * LN_SQRT_2PI

    out = np.full(t_flat.shape, -math.inf)
    for s in range(0, t_flat.size, _EVAL_CHUNK):
        tt = t_flat[s:s + _EVAL_CHUNK]
        nn = n_flat[s:s + _EVAL_CHUNK]
        big_a = tt * tt + df
        with np.errstate(over="ignore", invalid="ignore"):
            gauss = nn * nn * df / (2.0 * big_a)
        # beyond the overflow horizon the density is zero in any scale
        ok = np.isfinite(gauss) & np.isfinite(tt)
        if ok.any():
            a = nn[ok] * tt[ok] / np.sqrt(big_a[ok])
            out[s:s + _EVAL_CHUNK][ok] = (log_k - gauss[ok] + _log_hh(df, a)
                                          - (df + 1.0) / 2.0 * np.log(big_a[ok]))
    return float(out[0]) if t_arr.ndim == 0 else out.reshape(t_arr.shape)


# ---------------------------------------------------------------------------
# Student t CDF and quantile
# ---------------------------------------------------------------------------

_BETACF_MAX_ITER = 400
_BETACF_EPS = 1e-15
_BETACF_FPMIN = 1e-300


def _betacf(a, b, x):
    """Continued fraction for the regularized incomplete beta (Lentz)."""
    qab = a + b
    qap = a + 1.0
    qam = a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < _BETACF_FPMIN:
        d = _BETACF_FPMIN
    d = 1.0 / d
    h = d
    for m in range(1, _BETACF_MAX_ITER + 1):
        m2 = 2 * m
        for aa in (m * (b - m) * x / ((qam + m2) * (a + m2)),  # even, then odd step
                   -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))):
            d = 1.0 + aa * d
            if abs(d) < _BETACF_FPMIN:
                d = _BETACF_FPMIN
            c = 1.0 + aa / c
            if abs(c) < _BETACF_FPMIN:
                c = _BETACF_FPMIN
            d = 1.0 / d
            delta = d * c
            h *= delta
        if abs(delta - 1.0) < _BETACF_EPS:
            return h
    return h  # converged to working precision in practice long before this


def student_t_cdf(t, df):
    """CDF of Student's t via the regularized incomplete beta I_x(df/2, 1/2)."""
    if df <= 0.0 or math.isnan(df):
        raise DomainError("student_t_cdf requires df > 0")
    if math.isnan(t):
        raise DomainError("student_t_cdf requires finite t")
    if t == 0.0:
        return 0.5
    a, tsq = df / 2.0, t * t
    x, xc = df / (df + tsq), tsq / (df + tsq)
    if x <= 0.0:
        return 0.0 if t < 0.0 else 1.0
    # ln[x^a xc^(1/2) / B(a, 1/2)], with ln x = -log1p(t^2/df): no rounded x
    ln_front = (_log_gamma_half_ratio(a) - 0.5 * LN_PI
                - a * math.log1p(tsq / df) + 0.5 * math.log(xc))
    # the direct fraction keeps a far tail's relative accuracy but loses ~a * 1e-16
    # near its switch; for t^2 < 9 the complement is exact to ~1e-16 in <= 40 steps
    if tsq >= 9.0 and x < (a + 1.0) / (a + 2.5):
        tail = math.exp(ln_front) * _betacf(a, 0.5, x) / a
    else:
        tail = 1.0 - math.exp(ln_front) * _betacf(0.5, a, xc) / 0.5
    return 0.5 * tail if t < 0.0 else 1.0 - 0.5 * tail


def _hill_start(p, df):
    """Hill's approximate t quantile (CACM Algorithm 396, 1970) for p > 1/2.

    Its normal deviate (A&S 26.2.23) is good to 4.5e-4: ample for a start.
    """
    p2 = 2.0 * (1.0 - p)  # two-sided tail probability
    if df <= 1.0:  # Cauchy quantile, below the true one for df < 1
        return math.tan(math.pi * (p - 0.5))
    a = 1.0 / (df - 0.5)
    b = 48.0 / (a * a)
    c = ((20700.0 * a / b - 98.0) * a - 16.0) * a + 96.36
    d = ((94.5 / (b + c) - 3.0) / b + 1.0) * math.sqrt(a * math.pi / 2.0) * df
    y = (d * p2) ** (2.0 / df)
    if y > 0.05 + a:
        r = math.sqrt(-2.0 * math.log(p2 / 2.0))
        x = r - (2.515517 + r * (0.802853 + r * 0.010328)) / (
            1.0 + r * (1.432788 + r * (0.189269 + r * 0.001308)))
        y = x * x
        if df < 5.0:
            c += 0.3 * (df - 4.5) * (x + 0.6)
        c += (((0.05 * d * x - 5.0) * x - 7.0) * x - 2.0) * x + b
        y = (((((0.4 * y + 6.3) * y + 36.0) * y + 94.5) / c - y - 3.0) / b + 1.0) * x
        y = math.expm1(a * y * y)
    else:
        y = ((1.0 / (((df + 6.0) / (df * y) - 0.089 * d - 0.822) * (df + 2.0) * 3.0)
              + 0.5 / (df + 4.0)) * y - 1.0) * (df + 1.0) / (df + 2.0) + 1.0 / y
    return math.sqrt(df * y)




def student_t_quantile(p, df):
    """Quantile of Student's t: bracketed Halley steps on the CDF from Hill's start.

    DomainError names what it cannot resolve: p below 2^-54 (1 - p rounds
    to 1), quantiles beyond 1e150, and steps unconverged after 100.
    """
    if not 0.0 < p < 1.0:
        raise DomainError("student_t_quantile requires 0 < p < 1")
    if df <= 0.0 or math.isnan(df):
        raise DomainError("student_t_quantile requires df > 0")
    if p == 0.5:
        return 0.0
    if p < 0.5:
        if 1.0 - p == 1.0:
            raise DomainError("student_t_quantile cannot resolve p below 2^-54 (~5.6e-17): "
                              "the lower tail is solved through 1 - p, which rounds to 1")
        return -student_t_quantile(1.0 - p, df)

    lo, hi = 0.0, math.inf  # CDF(lo) < p <= CDF(hi)
    x = _hill_start(p, df)
    for _ in range(100):
        g = student_t_cdf(x, df) - p
        if g == 0.0:
            return x
        if g < 0.0 and x >= 1e150:
            raise DomainError("student_t_quantile cannot resolve quantiles beyond 1e+150 "
                              f"(p = {p!r}, df = {df!r})")
        lo, hi = (x, hi) if g < 0.0 else (lo, x)
        # Halley, with the density's log-derivative -(df + 1) x / (df + x^2);
        # Newton where Halley would more than double its step (heavy tails)
        u = g / math.exp(central_t_logpdf(x, df))
        halley = 1.0 + u * (df + 1.0) * x / (2.0 * (df + x * x))
        step = x - u / (halley if halley > 0.5 else 1.0)
        if not lo < step < hi:  # outside the bracket: bisect, or widen it
            step = 0.5 * (lo + hi) if hi < math.inf else 2.0 * x
        step = min(step, 1e150)  # keeps t^2 finite in the CDF: larger quantiles are refused
        if abs(step - x) <= 1e-13 * step:
            return step
        x = step
    raise DomainError(f"student_t_quantile did not converge in 100 steps (p = {p!r}, df = {df!r})")
