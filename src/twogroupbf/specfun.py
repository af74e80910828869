"""Log-space special functions and probability densities.

Everything here returns natural-log densities (or plain reals for the
t CDF and quantile) so that downstream marginal-likelihood integrals
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
# ln Gamma differences
# ---------------------------------------------------------------------------

def _stirling_rest(x):
    """ln Gamma(x) - [(x - 1/2) ln x - x + ln sqrt(2 pi)] for a scalar x > 0.

    libm's lgamma below 20, Stirling's series above.  Differences of ln Gamma
    near 1e7 lose ~1e-9 to rounding; written through this small remainder
    they keep full absolute accuracy.
    """
    if x < 20.0:
        return math.lgamma(x) - ((x - 0.5) * math.log(x) - x + LN_SQRT_2PI)
    y = 1.0 / (x * x)
    return (1 / 12 - y * (1 / 360 - y * (1 / 1260 - y * (1 / 1680 - y / 1188)))) / x


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
    with np.errstate(over="ignore"):  # t^2 = inf: a density of zero in any scale
        return (
            _log_gamma_half_ratio(df / 2.0)
            - 0.5 * (math.log(df) + LN_PI)
            - ((df + 1.0) / 2.0) * np.log1p(t * t / df)
        )


# ---------------------------------------------------------------------------
# Cauchy (location zero)
# ---------------------------------------------------------------------------

def cauchy_logpdf(x, scale):
    """ln density of a zero-location Cauchy with the given scale.

    Broadcasts over ``x`` and ``scale``.
    """
    scale = np.asarray(scale, dtype=float)
    scales = scale.ravel().tolist()
    if not all(s > 0.0 for s in scales):
        raise DomainError("cauchy_logpdf requires scale > 0")
    z = np.asarray(x, dtype=float) / scale
    # libm's log for the normalizer, whose last bit numpy's log may not match
    neg_log_norm = np.array([-math.log(math.pi * s) for s in scales]).reshape(scale.shape)
    with np.errstate(over="ignore"):  # z^2 = inf: a density of zero in any scale
        return neg_log_norm - np.log1p(z * z)


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
# I(a) is one trapezoid in s = ln(v / x*), with x* the integrand's mode in
# ln v: x* (x* - a) = c, c = df + 1.  In s the integrand is entire with a
# single peak at s = 0,
#
#   ln I = c ln x* - c^2 / (2 x*^2)
#          + ln integral exp(-c (e^s - 1 - s) - x*^2 (e^s - 1)^2 / 2) ds,
#
# both subtracted terms >= 0 and zero at s = 0, so nothing cancels for any
# sign or size of a.  The peak's curvature width is sigma = 1 / sqrt(c + x*^2).
#
# Every size below follows from one target _EPS for the relative error in I.
# The trapezoid converges geometrically (Trefethen & Weideman, SIAM Review
# 56(3), 2014): with node spacing h, shifting the contour to Im s = y bounds
# the error by about 2 exp(-2 pi y / h) times the growth of |integrand| there.
# - Narrow peaks are near-Gaussian: the best shift, y = 2 pi sigma^2 / h, gives
#   2 exp(-2 pi^2 sigma^2 / h^2), which is _EPS at h = _SPACING sigma.
# - The x*^2 e^{2s} term keeps the integrand decaying only in |Im s| < pi/4,
#   so wide peaks cannot shift that far.  At y = pi/6 the term still decays at
#   half its rate, and |integrand| grows at most e^{1/4} at sigma = 1, the
#   widest peak (c >= 1).  So 2 exp(-pi^2 / (3h)) = _EPS sets the cap _CAP =
#   0.116, which governs wherever c + x*^2 < (_SPACING / _CAP)^2 = 52.
# Both window ends lie _TAIL = ln(1/_EPS) + ln 10 nats below the peak: the
# tail beyond a left end at s < -1 holds at most e^{-_TAIL} / ((1 - 1/e) c)
# of the peak, below 8 e^{-_TAIL} of I (c >= 1, x*^2 < 2 _TAIL / (1 - 1/e)^2).
# The peak's skew makes the error at a full _SPACING sigma step exceed the
# Gaussian estimate where sigma > ~0.05; the node count is the worst case over
# modes, so those modes get finer steps, and the tests check the kernel
# against itself at half the spacing and a wider window.

_EPS = 1e-12  # target relative error in I(a)
_TAIL = math.log(10.0 / _EPS)  # nats below the peak at both window ends
_RIGHT = math.sqrt(2.0 * _TAIL)  # right end, in sigma
_LEFT = math.e * _RIGHT  # left end in sigma, while that stays within s >= -1
_SPACING = math.pi * math.sqrt(2.0 / math.log(2.0 / _EPS))  # node spacing in sigma
_CAP = math.pi ** 2 / (3.0 * math.log(2.0 / _EPS))  # node spacing cap in s
_Q = 1.0 - 1.0 / math.e  # below s = -1 the log integrand falls at least _Q c per unit s


def _window(c, x2):
    """Left and right trapezoid ends in s for modes with x*^2 = x2.

    For -1 <= s <= 0 the log integrand falls at least e^-2 (c + x*^2) s^2 / 2,
    which reaches _TAIL at s = -_LEFT sigma.  Below s = -1 it falls at least
    _Q^2 x*^2 / 2 + c max(-1 - s, 1/e + _Q (-1 - s)), which reaches _TAIL at
    s = -1 - w.  w = 0 wherever _LEFT sigma <= 1, so the left end is
    continuous across that switch.
    """
    sigma = 1.0 / np.sqrt(c + x2)
    r = _TAIL - _Q * _Q * x2 / 2.0
    w = np.maximum(np.minimum(r, (r - c / math.e) / _Q), 0.0) / c
    return -np.minimum(_LEFT * sigma, 1.0) - w, _RIGHT * sigma


def _worst_modes(c):
    """The x*^2 whose windows need the most nodes at c = df + 1.

    Where c + x*^2 >= _LEFT^2 the window spans (1 + e) _RIGHT sigma, the same
    number of _SPACING sigma steps for every mode.  Below, the step count
    (_RIGHT + (1 + w) / sigma) / _SPACING is concave on each linear piece of
    w: it peaks at a piece's stationary point or at a piece end.  Capped
    steps peak at x* -> 0.
    """
    q2 = _Q * _Q
    u_switch = max(_LEFT * _LEFT - c, 0.0)  # stands for every mode beyond it
    return [min(max(u, 0.0), u_switch) for u in (
        0.0,
        2.0 * (c * (1.0 - q2) + _TAIL) / (3.0 * q2),  # stationary, w = r / c
        2.0 * (c / math.e + (_TAIL - c / math.e) / _Q) / (3.0 * _Q),  # w = (r - c/e) / (_Q c)
        2.0 * (_TAIL - c) / q2,  # piece ends: r = c and r = c / e
        2.0 * (_TAIL - c / math.e) / q2,
        u_switch)]


def _node_count(c):
    """Trapezoid nodes at c = df + 1: the worst case over every mode x*.

    _window's spans at the _worst_modes, in scalar arithmetic: on six modes,
    numpy's per-call overhead costs about as much as the trapezoid on a
    hundred points.
    """
    steps = 0.0
    for u in set(_worst_modes(c)):
        sigma = 1.0 / math.sqrt(c + u)
        r = _TAIL - _Q * _Q * u / 2.0
        w = max(min(r, (r - c / math.e) / _Q), 0.0) / c
        span = _RIGHT * sigma + min(_LEFT * sigma, 1.0) + w
        steps = max(steps, span / min(_SPACING * sigma, _CAP))
    return math.ceil(steps) + 1


def _log_hh(df, a):
    """ln I(a) for an array of reduced noncentralities: one trapezoid in ln v per point."""
    c = df + 1.0
    # the mode, without cancellation for either sign of a
    big = (np.abs(a) + np.hypot(a, 2.0 * math.sqrt(c))) / 2.0
    x_star = np.where(a >= 0.0, big, c / big)
    x2 = x_star * x_star
    left, right = _window(c, x2)
    n = _node_count(c)
    step = (right - left) / (n - 1)
    s = left[:, None] + step[:, None] * np.arange(n)
    e = np.expm1(s)
    h = -c * (e - s) - x2[:, None] * (e * e) / 2.0
    # both ends are far below the peak, so every node weighs the same
    return c * np.log(x_star) - (c / x_star) ** 2 / 2.0 + np.log(np.exp(h).sum(axis=1) * step)


_EVAL_CHUNK = 2048  # points per pass: bounds the (points x trapezoid nodes) work arrays


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
        with np.errstate(over="ignore", invalid="ignore"):
            big_a = tt * tt + df
            gauss = nn * nn * df / (2.0 * big_a)
        # beyond the overflow horizon the density is zero in any scale
        ok = np.isfinite(gauss) & np.isfinite(big_a)
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


def _hill_start(p2, df):
    """Hill's approximate t quantile for the two-sided tail probability p2 < 1.

    CACM Algorithm 396, 1970.  Its normal deviate (A&S 26.2.23) is good to
    4.5e-4: ample for a start.
    """
    if df <= 1.0:  # Cauchy quantile, below the true one for df < 1
        return 1.0 / math.tan(math.pi * p2 / 2.0)
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
    """Quantile of Student's t: bracketed Halley steps on the upper tail from Hill's start.

    The tail r = min(p, 1 - p) is solved as S(x) = CDF(-x) = r, so p keeps its
    relative accuracy far into the lower tail.  It stops when a step or the
    bracket falls below 1e-13 relative.  DomainError names what it cannot
    resolve: quantiles beyond 1e150 and steps unconverged after 100.
    """
    if not 0.0 < p < 1.0:
        raise DomainError("student_t_quantile requires 0 < p < 1")
    if df <= 0.0 or math.isnan(df):
        raise DomainError("student_t_quantile requires df > 0")
    if p == 0.5:
        return 0.0
    r = p if p < 0.5 else 1.0 - p  # exact for p >= 1/2

    lo, hi = 0.0, math.inf  # S(lo) > r >= S(hi)
    x = _hill_start(2.0 * r, df)
    for _ in range(100):
        g = student_t_cdf(-x, df) - r
        if g == 0.0:
            break
        if g > 0.0 and x >= 1e150:
            raise DomainError("student_t_quantile cannot resolve quantiles beyond 1e+150 "
                              f"(p = {p!r}, df = {df!r})")
        lo, hi = (x, hi) if g > 0.0 else (lo, x)
        # Halley, with the density's log-derivative -(df + 1) x / (df + x^2) and
        # g / density formed in logs (the density underflows in far tails);
        # Newton where Halley would more than double its step (heavy tails)
        u = math.copysign(math.exp(math.log(abs(g)) - central_t_logpdf(x, df)), g)
        halley = 1.0 - u * (df + 1.0) * x / (2.0 * (df + x * x))
        step = x + u / (halley if halley > 0.5 else 1.0)
        if abs(step - x) <= 1e-13 * step:
            x = step
            break
        if hi - lo <= 1e-13 * hi < math.inf:  # steps below the CDF's rounding noise wander
            break
        if not lo < step < hi:  # outside the bracket: bisect, or widen it
            step = 0.5 * (lo + hi) if hi < math.inf else 2.0 * x
        x = min(step, 1e150)  # keeps t^2 finite in the CDF: larger quantiles are refused
    else:
        raise DomainError("student_t_quantile did not converge in 100 steps "
                          f"(p = {p!r}, df = {df!r})")
    return x if p > 0.5 else -x
