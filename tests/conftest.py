import json

import mpmath
import numpy as np

from twogroupbf.datamodel import RawGroups, SummaryMoments


def strict_json(text):
    """json.loads that refuses NaN and Infinity, as RFC 8259 parsers do."""
    def refuse(constant):
        raise ValueError(f"{constant} is not JSON")
    return json.loads(text, parse_constant=refuse)


def random_moments(rng, n_lo=3, n_hi=50):
    """Random small-study summary with a moderate standardized effect."""
    n_x = int(rng.integers(n_lo, n_hi + 1))
    n_y = int(rng.integers(n_lo, n_hi + 1))
    sd_x = float(rng.uniform(0.3, 3.0))
    sd_y = float(rng.uniform(0.3, 3.0))
    mean_x = float(rng.normal(0.0, 2.0))
    mean_y = mean_x + float(rng.uniform(-1.5, 1.5)) * sd_x
    return SummaryMoments(n_x, n_y, mean_x, mean_y, sd_x, sd_y)


def raw_with_exact_moments(n, mean, sd):
    """Observations whose sample mean and sd (ddof=1) are exact by construction.

    Half the points sit at mean - a and half at mean + a with a chosen so the
    ddof-1 variance equals sd^2; odd n gets one point at the mean.
    """
    half = n // 2
    a = sd * np.sqrt((n - 1) / (2.0 * half))
    values = [mean - a] * half + [mean + a] * half
    if n % 2:
        values.append(mean)
    return values


def random_raw(rng, n_lo=4, n_hi=40):
    n_x = int(rng.integers(n_lo, n_hi + 1))
    n_y = int(rng.integers(n_lo, n_hi + 1))
    x = rng.normal(rng.uniform(-2, 2), rng.uniform(0.5, 2.0), size=n_x)
    y = rng.normal(rng.uniform(-2, 2), rng.uniform(0.5, 2.0), size=n_y)
    return RawGroups(x=list(x), y=list(y))


def nct_logpdf_mpmath(t, df, ncp):
    """ln f(t; df, ncp) from the scale-mixture integral in 30-digit arithmetic.

    The integrand v^df exp(-(v - a)^2 / 2) is divided by its peak value, and
    breakpoints double away from its mode in curvature units; without the
    division mpmath's error estimate misses 4.5e-7 of ln I at a = -1e3.  It
    is integrated in z = (v - mode) / width, with the mode's offset from a
    formed without cancellation: in v itself, 30 digits cannot resolve the
    peak's width once a passes ~1e15.
    """
    with mpmath.workdps(30):
        t, df, ncp = mpmath.mpf(t), mpmath.mpf(df), mpmath.mpf(ncp)
        big_a = t * t + df
        a = ncp * t / mpmath.sqrt(big_a)
        root = mpmath.sqrt(a * a + 4 * df)
        # the mode of v^df exp(-(v - a)^2 / 2) and mode - a, without
        # cancellation for either sign of a
        mode = (a + root) / 2 if a >= 0 else 2 * df / (root - a)
        gap = 2 * df / (root + a) if a >= 0 else mode - a
        width = 1 / mpmath.sqrt(1 + df / mode ** 2)
        peak = df * mpmath.log(mode) - gap ** 2 / 2
        steps = (-64, -16, -4, -1, 0, 1, 4, 16, 64)
        z0 = -mode / width  # v = 0
        pts = [z0] + [k for k in steps if k > z0] + [mpmath.inf]
        # max(., -1): the end z0 may round to just below v = 0
        log_i = peak + mpmath.log(width) + mpmath.log(mpmath.quad(
            lambda z: mpmath.exp(df * mpmath.log1p(max(width * z / mode, -1))
                                 - width * z * (gap + width * z / 2)), pts))
        return float(mpmath.log(2) + df / 2 * mpmath.log(df / 2) - mpmath.loggamma(df / 2)
                     - mpmath.log(2 * mpmath.pi) / 2 - ncp ** 2 * df / (2 * big_a)
                     - (df + 1) / 2 * mpmath.log(big_a) + log_i)
