"""Adaptive Gauss-Kronrod integration of log-scale integrands.

``integrate_log`` returns ln of the integral of exp(f) over an interval
whose endpoints may be infinite, or over each piece of it between given
cut points.  All bookkeeping stays in log space: the integrands this
package feeds in routinely span thousands of nats, and the interesting
region integrals can be smaller than 1e-300 in linear scale.

Infinite endpoints are mapped to finite ones by a change of variables
(x = tan(theta) for a doubly infinite interval, x = a + u/(1-u) and its
mirror for half-infinite ones).  The transformed log-integrand is scanned
once on a coarse grid, and the initial panels of each piece are clustered
geometrically around its scanned maximum so that sharp posterior peaks are
resolved from the first pass.  The integrand is then called once for all
initial panels and once per refinement round for all the panels it bisects
(as SciPy's ``quad_vec`` refines many intervals at a time).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

__all__ = ["Interval", "QuadratureSettings", "QuadratureError", "integrate_log"]


@dataclass(frozen=True)
class Interval:
    """Open integration region; either endpoint may be +-inf."""

    lower: float
    upper: float

    def __post_init__(self):
        if math.isnan(self.lower) or math.isnan(self.upper):
            raise ValueError("interval endpoints must not be NaN")
        if not self.lower < self.upper:
            raise ValueError(f"interval requires lower < upper, got ({self.lower}, {self.upper})")

    @property
    def is_finite(self) -> bool:
        return math.isfinite(self.lower) and math.isfinite(self.upper)


@dataclass(frozen=True)
class QuadratureSettings:
    rel_tol: float = 1e-8
    abs_tol_log: float = 1e-12  # absolute floor on the linear (shifted) scale
    max_subdivisions: int = 2000

    def __post_init__(self):
        if self.rel_tol <= 0.0:
            raise ValueError("rel_tol must be > 0")
        if self.max_subdivisions < 1:
            raise ValueError("max_subdivisions must be >= 1")


class QuadratureError(RuntimeError):
    """Raised when the error estimate fails to meet tolerance.

    Carries the best available answer so callers can decide to proceed.
    """

    def __init__(self, message: str, best_log_estimate: float, log_error_bound: float):
        super().__init__(message)
        self.best_log_estimate = best_log_estimate
        self.log_error_bound = log_error_bound


# 15-point Kronrod nodes with Kronrod and embedded 7-point Gauss weights,
# on [-1, 1].  Zero Gauss weight marks Kronrod-only nodes.
_GK15 = (
    (+0.991455371120813, 0.022935322010529, 0.0),
    (-0.991455371120813, 0.022935322010529, 0.0),
    (+0.949107912342759, 0.063092092629979, 0.129484966168870),
    (-0.949107912342759, 0.063092092629979, 0.129484966168870),
    (+0.864864423359769, 0.104790010322250, 0.0),
    (-0.864864423359769, 0.104790010322250, 0.0),
    (+0.741531185599394, 0.140653259715525, 0.279705391489277),
    (-0.741531185599394, 0.140653259715525, 0.279705391489277),
    (+0.586087235467691, 0.169004726639267, 0.0),
    (-0.586087235467691, 0.169004726639267, 0.0),
    (+0.405845151377397, 0.190350578064785, 0.381830050505119),
    (-0.405845151377397, 0.190350578064785, 0.381830050505119),
    (+0.207784955007898, 0.204432940075298, 0.0),
    (-0.207784955007898, 0.204432940075298, 0.0),
    (0.000000000000000, 0.209482141084728, 0.417959183673469),
)

_NODES = np.array([row[0] for row in _GK15])
_LOG_WK = np.log(np.array([row[1] for row in _GK15]))
_GAUSS_MASK = np.array([row[2] > 0.0 for row in _GK15])
_LOG_WG = np.log(np.array([row[2] for row in _GK15 if row[2] > 0.0]))

_SCAN_POINTS = 129
_NEG_INF = float("-inf")


def _logsumexp(values):
    values = np.asarray(values, dtype=float)
    m = np.max(values) if values.size else _NEG_INF
    if not math.isfinite(m):
        return m if values.size else _NEG_INF
    return float(m + math.log(np.exp(values - m).sum()))


def _make_transform(region: Interval):
    """Map region to a finite (lo, hi): the log-integrand there, with its
    log-Jacobian term, and the map from x to the new variable."""
    lo_inf = math.isinf(region.lower)
    hi_inf = math.isinf(region.upper)
    if lo_inf and hi_inf:
        def g(theta, f):
            x = np.tan(theta)
            return f(x) + np.log1p(x * x)
        return g, math.atan, (-math.pi / 2.0, math.pi / 2.0)
    if hi_inf:
        a = region.lower

        def g(u, f):
            return f(a + u / (1.0 - u)) - 2.0 * np.log1p(-u)
        return g, (lambda x: (x - a) / (1.0 + (x - a))), (0.0, 1.0)
    if lo_inf:
        b = region.upper

        def g(u, f):
            return f(b - u / (1.0 - u)) - 2.0 * np.log1p(-u)
        return g, (lambda x: (b - x) / (1.0 + (b - x))), (0.0, 1.0)
    return (lambda x, f: f(x)), (lambda x: x), (region.lower, region.upper)


def _panels(g, f, lo, hi):
    """Log GK15 estimates, log errors and node maxima of the panels
    (lo[i], hi[i]), from one call of g over all their nodes."""
    half = (hi - lo) / 2.0
    x = (_NODES + 1.0) * half[:, None] + lo[:, None]
    fx = np.asarray(g(x.ravel(), f), dtype=float).reshape(x.shape)
    bad = (np.isnan(fx) | (fx == math.inf)).any(axis=1)
    if bad.any():
        i = int(np.argmax(bad))
        raise QuadratureError(f"integrand returned NaN or +inf in panel ({lo[i]}, {hi[i]})",
                              _NEG_INF, math.inf)
    # both rules are summed relative to the panel's own maximum, so their
    # difference keeps its relative accuracy at any log magnitude
    top = fx.max(axis=1)
    m = np.where(np.isfinite(top), top, 0.0)
    with np.errstate(divide="ignore"):
        sum_k = np.exp(fx + _LOG_WK - m[:, None]).sum(axis=1)
        sum_g = np.exp(fx[:, _GAUSS_MASK] + _LOG_WG - m[:, None]).sum(axis=1)
        log_scale = m + np.log(half)
        return np.log(sum_k) + log_scale, np.log(np.abs(sum_k - sum_g)) + log_scale, top


def _initial_breakpoints(grid, vals, lo: float, hi: float):
    """Breakpoints of (lo, hi) clustered around the scanned maximum inside
    it, and that maximum (None when no finite scan value falls inside)."""
    inside = (grid > lo) & (grid < hi) & np.isfinite(vals)
    peak = int(np.argmax(np.where(inside, vals, _NEG_INF)))
    mode = float(grid[peak]) if inside.any() else (lo + hi) / 2.0

    span = hi - lo
    points = {lo, hi}
    width = span / 2.0
    while width > span / 512.0:
        for p in (mode - width, mode + width):
            if lo < p < hi:
                points.add(p)
        width /= 2.0
    points.add(mode)
    return sorted(points), (float(vals[peak]) if inside.any() else None)


def integrate_log(f, region: Interval, settings: QuadratureSettings | None = None,
                  cuts: Sequence[float] = ()):
    """ln of the integral of exp(f(x)) dx over ``region``, or over its pieces.

    ``f`` must accept a numpy array of abscissae and return log values
    (-inf is fine, NaN and +inf are not).  Increasing interior ``cuts`` split the
    region into pieces, integrated in one pass with a breakpoint forced at
    every cut (as QUADPACK's QAGP does); the result is then a list with
    one log integral per piece, in increasing x, else a float.  Each piece
    converges on its own: when its summed panel error is below ``rel_tol``
    relative to its integral, or below ``abs_tol_log`` on the linear scale
    shifted by its own maximum, so a far-tail piece keeps its relative
    accuracy.  Failure to converge raises :class:`QuadratureError` naming
    each unconverged piece, with the best estimate for the whole region
    attached.
    """
    settings = settings or QuadratureSettings()
    cuts = [float(c) for c in cuts]
    if any(not region.lower < c < region.upper for c in cuts) or cuts != sorted(set(cuts)):
        raise ValueError("cuts must increase strictly inside the region")
    g, to_u, (lo, hi) = _make_transform(region)
    edges = sorted([lo, hi, *(to_u(c) for c in cuts)])
    if any(a >= b for a, b in zip(edges[:-1], edges[1:])):
        raise QuadratureError(f"cuts {cuts} cannot be told apart from each other or from "
                              "the region's ends at double precision", _NEG_INF, math.inf)
    flip = math.isinf(region.lower) and math.isfinite(region.upper)  # (-inf, b) runs against x

    # one scan of the whole region; each piece's breakpoints cluster around
    # its own scanned maximum, and all initial panels go in one call
    inset = (hi - lo) / (_SCAN_POINTS + 1)
    grid = np.linspace(lo + inset, hi - inset, _SCAN_POINTS)
    vals = np.asarray(g(grid, f), dtype=float)
    seeds = [_initial_breakpoints(grid, vals, a, b) for a, b in zip(edges[:-1], edges[1:])]
    owner = np.repeat(np.arange(len(seeds)), [len(br) - 1 for br, _ in seeds])
    lo_p = np.concatenate([br[:-1] for br, _ in seeds])
    hi_p = np.concatenate([br[1:] for br, _ in seeds])
    log_k, err, top = _panels(g, f, lo_p, hi_p)

    # each piece's log shift, which makes the linear-scale floor meaningful:
    # its scanned maximum, else the maximum of its own nodes
    shifts = [s if s is not None else float(top[owner == k].max())
              for k, (_, s) in enumerate(seeds)]

    log_abs_floor = math.log(settings.abs_tol_log) if settings.abs_tol_log > 0 else _NEG_INF
    log_rel = math.log(settings.rel_tol)
    budget = settings.max_subdivisions

    while True:
        totals = [_logsumexp(log_k[owner == k]) for k in range(len(seeds))]
        errs = [_logsumexp(err[owner == k]) for k in range(len(seeds))]
        unconverged = [k for k, (total, e, s) in enumerate(zip(totals, errs, shifts))
                       if not (e <= total + log_rel or e <= s + log_abs_floor)]
        if not unconverged:
            logs = totals[::-1] if flip else totals
            return logs if cuts else logs[0]
        if not budget:
            break
        # one round: in each unconverged piece, bisect its largest-error
        # panels until the rest is within the piece's tolerance
        picks = []
        for k in unconverged:
            idx = np.flatnonzero(owner == k)
            idx = idx[np.argsort(-err[idx])]
            rest = np.append(np.logaddexp.accumulate(err[idx][::-1])[-2::-1], _NEG_INF)
            target = max(totals[k] + log_rel, shifts[k] + log_abs_floor)
            picks.append(idx[:int(np.argmax(rest <= target)) + 1])
        pick = np.concatenate(picks)
        if pick.size > budget:  # the largest errors relative to their pieces
            rel = err[pick] - np.array(totals)[owner[pick]]
            pick = pick[np.argsort(-rel)[:budget]]
        a, b = lo_p[pick], hi_p[pick]
        mid = (a + b) / 2.0
        split = (a < mid) & (mid < b)
        err[pick[~split]] = _NEG_INF  # interval exhausted at double precision
        pick, a, b, mid = pick[split], a[split], b[split], mid[split]
        if not pick.size:
            continue
        n = pick.size
        budget -= n
        new_k, new_err, _ = _panels(g, f, np.concatenate([a, mid]), np.concatenate([mid, b]))
        hi_p[pick], log_k[pick], err[pick] = mid, new_k[:n], new_err[:n]
        lo_p, hi_p, owner = np.append(lo_p, mid), np.append(hi_p, b), np.append(owner, owner[pick])
        log_k, err = np.append(log_k, new_k[n:]), np.append(err, new_err[n:])

    x_edges = [region.lower, *cuts, region.upper]
    names = list(zip(x_edges[:-1], x_edges[1:]))[::-1 if flip else 1]
    detail = "; ".join(f"piece ({names[k][0]:.6g}, {names[k][1]:.6g}) log estimate "
                       f"{totals[k]:.6g}, log error {errs[k]:.6g}"
                       for k in (unconverged[::-1] if flip else unconverged))
    total, error = _logsumexp(totals), _logsumexp(errs)
    raise QuadratureError(
        f"quadrature did not converge after {settings.max_subdivisions} subdivisions in "
        f"{detail} (whole region: log estimate {total:.6g}, log error bound {error:.6g})",
        total, error)
