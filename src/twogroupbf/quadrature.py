"""Adaptive Gauss-Kronrod integration of log-scale integrands.

``integrate_log`` returns ln of the integral of exp(f) over an interval
whose endpoints may be infinite, or over each piece of it between given
cut points.  All bookkeeping stays in log space: the integrands this
package feeds in routinely span thousands of nats, and the interesting
region integrals can be smaller than 1e-300 in linear scale.

Infinite endpoints are mapped to finite ones by a change of variables
(x = tan(theta) for a doubly infinite interval, x = a + u/(1-u) and its
mirror for half-infinite ones).  Before subdividing, the transformed
log-integrand is scanned once on a coarse grid, and the initial panels of
each piece are clustered geometrically around its scanned maximum so that
sharp posterior peaks are resolved from the first pass.
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


def _log_diff_exp(a: float, b: float) -> float:
    """ln|e^a - e^b|, stable for a ~ b."""
    hi, lo = (a, b) if a >= b else (b, a)
    if hi == _NEG_INF:
        return _NEG_INF
    if lo == _NEG_INF:
        return hi
    diff = lo - hi
    if diff > -1e-15:
        return _NEG_INF
    return hi + math.log(-math.expm1(diff))


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


def _panel(g, f, lo: float, hi: float):
    """Log-space GK15 estimate and log error for one panel."""
    half = (hi - lo) / 2.0
    x = (_NODES + 1.0) * half + lo
    fx = np.asarray(g(x, f), dtype=float)
    if np.any(np.isnan(fx)):
        raise QuadratureError(
            f"integrand returned NaN in panel ({lo}, {hi})", _NEG_INF, math.inf
        )
    log_half = math.log(half)
    log_k = _logsumexp(fx + _LOG_WK) + log_half
    log_g = _logsumexp(fx[_GAUSS_MASK] + _LOG_WG) + log_half
    return log_k, _log_diff_exp(log_k, log_g)


def _initial_breakpoints(grid, vals, lo: float, hi: float):
    """Breakpoints of (lo, hi) clustered around the scanned maximum inside it."""
    inside = (grid > lo) & (grid < hi) & np.isfinite(vals)
    mode = float(grid[np.argmax(np.where(inside, vals, _NEG_INF))]) if inside.any() else (lo + hi) / 2.0

    span = hi - lo
    points = {lo, hi}
    width = span / 2.0
    while width > span / 512.0:
        for p in (mode - width, mode + width):
            if lo < p < hi:
                points.add(p)
        width /= 2.0
    points.add(mode)
    return sorted(points)


def integrate_log(f, region: Interval, settings: QuadratureSettings | None = None,
                  cuts: Sequence[float] = ()):
    """ln of the integral of exp(f(x)) dx over ``region``, or over its pieces.

    ``f`` must accept a numpy array of abscissae and return log values
    (-inf is fine, NaN is not).  Increasing interior ``cuts`` split the
    region into pieces, integrated in one pass with a breakpoint forced at
    every cut (as QUADPACK's QAGP does); the result is then a list with
    one log integral per piece, in increasing x, else a float.  Each piece
    converges on its own: when its summed panel error is below ``rel_tol``
    relative to its integral, or below ``abs_tol_log`` on the linear scale
    shifted by its own maximum, so a far-tail piece keeps its relative
    accuracy.  Failure to converge raises :class:`QuadratureError` with
    the best estimate for the whole region attached.
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

    # one scan of the whole region; each piece's breakpoints cluster around
    # its own scanned maximum
    inset = (hi - lo) / (_SCAN_POINTS + 1)
    grid = np.linspace(lo + inset, hi - inset, _SCAN_POINTS)
    vals = np.asarray(g(grid, f), dtype=float)
    breaks = [_initial_breakpoints(grid, vals, a, b) for a, b in zip(edges[:-1], edges[1:])]

    # shift each piece by the maximum of its own probe so the linear-scale
    # floor is meaningful; all pieces are probed in one call
    probes = [b[1:-1] or [(b[0] + b[-1]) / 2.0] for b in breaks]
    probe_vals = np.asarray(g(np.concatenate(probes), f), dtype=float)
    shifts = [float(np.max(v[np.isfinite(v)])) if np.isfinite(v).any() else 0.0
              for v in np.split(probe_vals, np.cumsum([len(p) for p in probes])[:-1])]
    g_pieces = [lambda x, func, s=s: g(x, func) - s for s in shifts]
    pieces = [[(a, b, *_panel(gp, f, a, b)) for a, b in zip(br[:-1], br[1:])]
              for br, gp in zip(breaks, g_pieces)]

    log_abs_floor = math.log(settings.abs_tol_log) if settings.abs_tol_log > 0 else _NEG_INF
    log_rel = math.log(settings.rel_tol)

    for budget in range(settings.max_subdivisions, -1, -1):
        totals = [_logsumexp([p[2] for p in panels]) for panels in pieces]
        errs = [_logsumexp([p[3] for p in panels]) for panels in pieces]
        unconverged = [k for k, (total, err) in enumerate(zip(totals, errs))
                       if not (err <= total + log_rel or err <= log_abs_floor)]
        if not unconverged:
            logs = [total + shift for total, shift in zip(totals, shifts)]
            if not cuts:
                return logs[0]
            # the (-inf, b) map runs against x
            return logs[::-1] if math.isinf(region.lower) and math.isfinite(region.upper) else logs
        if not budget:
            break
        # bisect the panel with the largest error relative to its piece
        k = max(unconverged, key=lambda k: max(p[3] for p in pieces[k]) - totals[k])
        panels = pieces[k]
        worst = max(range(len(panels)), key=lambda i: panels[i][3])
        a, b, _, _ = panels[worst]
        mid = (a + b) / 2.0
        if mid <= a or mid >= b:  # interval exhausted at double precision
            panels[worst] = (a, b, panels[worst][2], _NEG_INF)
            continue
        panels[worst] = (a, mid, *_panel(g_pieces[k], f, a, mid))
        panels.append((mid, b, *_panel(g_pieces[k], f, mid, b)))

    total, err = (_logsumexp([v + s for v, s in zip(vs, shifts)]) for vs in (totals, errs))
    raise QuadratureError(
        f"quadrature did not converge after {settings.max_subdivisions} subdivisions "
        f"(log estimate {total:.6g}, log error bound {err:.6g})", total, err)
