"""Adaptive Gauss-Kronrod integration of log-scale integrands.

``integrate_log`` takes a log-integrand f with one row per integrand (a
prior sweep's scales, say) and returns ln of each row's integral of exp(f)
over each piece of an interval, whose endpoints may be infinite, between
given cut points.  All bookkeeping stays in log space: the integrands
this package feeds in routinely span thousands of nats, and the
interesting region integrals can be smaller than 1e-300 in linear scale.

Infinite endpoints are mapped to finite ones by a change of variables
(x = tan(theta) for a doubly infinite interval, x = a + u/(1-u) and its
mirror for half-infinite ones).  The initial panels of each piece cluster
geometrically around the (x, width) features the caller names, down to each
feature's width, so that sharp peaks are resolved from the first pass.  The
integrand is then called once for all initial panels and once per
refinement round for all the panels it bisects (as SciPy's ``quad_vec``
refines many intervals at a time).  All rows share every panel, and each
row converges on its own.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

__all__ = ["Interval", "QuadratureError", "integrate_log"]

_REL_TOL = 1e-8
_ABS_TOL_LOG = 1e-12  # absolute floor on the linear (shifted) scale
_MAX_SUBDIVISIONS = 2000


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


class QuadratureError(RuntimeError):
    """A quadrature that failed: a row that did not converge, or an
    integrand or cuts that no row can be integrated with.

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

_GRAIN = 2.0 ** -44  # narrowest panel with 15 distinct nodes, relative to its place in u
_NEG_INF = float("-inf")


def _make_transform(region: Interval):
    """Map region to a finite (lo, hi): the log-integrand there, with its
    log-Jacobian term, the map from x to the new variable u, and du/dx as a
    function of u."""
    lo_inf = math.isinf(region.lower)
    hi_inf = math.isinf(region.upper)
    if lo_inf and hi_inf:
        def g(theta, f):
            x = np.tan(theta)
            return f(x) + np.log1p(x * x)
        return g, math.atan, (lambda u: math.cos(u) ** 2), (-math.pi / 2.0, math.pi / 2.0)
    if lo_inf or hi_inf:  # x = a + u/(1-u) from the finite end a, or its mirror
        a, s = (region.upper, -1.0) if lo_inf else (region.lower, 1.0)

        def g(u, f):
            return f(a + s * u / (1.0 - u)) - 2.0 * np.log1p(-u)
        return (g, (lambda x: s * (x - a) / (1.0 + s * (x - a))), (lambda u: (1.0 - u) ** 2),
                (0.0, 1.0))
    return (lambda x, f: f(x)), (lambda x: x), (lambda u: 1.0), (region.lower, region.upper)


def _panels(g, f, lo, hi):
    """Log GK15 estimates, log errors and node maxima of the panels
    (lo[i], hi[i]), one row per integrand, from one call of g over all their
    nodes."""
    half = (hi - lo) / 2.0
    x = (_NODES + 1.0) * half[:, None] + lo[:, None]
    fx = np.asarray(g(x.ravel(), f), dtype=float).reshape(-1, *x.shape)
    bad = np.isnan(fx) | (fx == math.inf)
    if bad.any():
        i = int(np.argmax(bad.any(axis=(0, 2))))
        raise QuadratureError(f"integrand returned NaN or +inf in panel ({lo[i]}, {hi[i]})",
                              _NEG_INF, math.inf)
    # both rules are summed relative to the panel's own maximum, so their
    # difference keeps its relative accuracy at any log magnitude
    top = fx.max(axis=2)
    m = np.where(np.isfinite(top), top, 0.0)
    with np.errstate(divide="ignore"):
        sum_k = np.exp(fx + _LOG_WK - m[..., None]).sum(axis=2)
        sum_g = np.exp(fx[..., _GAUSS_MASK] + _LOG_WG - m[..., None]).sum(axis=2)
        log_scale = m + np.log(half)
        return np.log(sum_k) + log_scale, np.log(np.abs(sum_k - sum_g)) + log_scale, top


def _initial_breakpoints(seeds, lo: float, hi: float) -> list:
    """Breakpoints of (lo, hi) clustered geometrically around each (u,
    width) seed, clipped into it: at u +- span/2, span/4, ... down to the
    seed's width there, but not below the grain of u."""
    span = hi - lo
    points = {lo, hi}
    for u, width in seeds:
        mode = min(max(u, lo), hi)
        # a peak clipped to an edge falls off there over width^2 / distance
        far = abs(u - mode)
        stop = max(width * width / far if far > width else width, _GRAIN * abs(mode))
        step = span / 2.0
        while step > stop:
            points.update(p for p in (mode - step, mode + step) if lo < p < hi)
            step /= 2.0
        points.add(mode)  # at an end of (lo, hi) it is there already
    return sorted(points)


def _piece_logsumexp(owner, pieces: int, *arrays):
    """ln sum exp of each row of each array over each piece's panels, as
    arrays of shape (rows, pieces).

    Each array is reduced on its own: numpy sums the rows of a taller
    array in another order, and one row must match a 1-D sum bit for bit.
    """
    out = [np.empty((v.shape[0], pieces)) for v in arrays]
    with np.errstate(invalid="ignore"):
        for k in range(pieces):
            member = owner == k if pieces > 1 else slice(None)
            for values, into in zip(arrays, out):
                v = values[:, member]
                top = np.maximum.reduce(v, axis=1)
                sums = np.add.reduce(np.exp(v - top[:, None]), axis=1)
                # libm's log: numpy's differs in the last bit, which would
                # move the reported values
                into[:, k] = [t + math.log(s) if math.isfinite(t) else t
                              for t, s in zip(top.tolist(), sums.tolist())]
    return out


def integrate_log(f, region: Interval, cuts: Sequence[float],
                  features: Sequence[tuple]) -> list:
    """ln of the integral of exp(f(x)) dx over each piece of ``region``,
    for each row of ``f``.

    ``f`` maps a numpy array of n abscissae to an (m, n) array of log
    values (-inf is fine, NaN and +inf are not): m integrands, one per row,
    that share every panel (as SciPy's ``quad_vec`` does for vector-valued
    integrands); a 1-D return is one row.  Increasing interior ``cuts``
    split the region into pieces, integrated in one pass with a breakpoint
    forced at every cut (as QUADPACK's QAGP does).  Each piece starts from
    panels clustered around every (x, width) pair in ``features``, clipped
    into it: the peaks and spikes of the rows.  A structure no node sees
    can be missed; without features, each piece starts as one panel.

    The result holds one entry per row: a list of that row's log integrals
    per piece, in increasing x (one entry when there are no cuts), or, for
    a row that did not converge, its own :class:`QuadratureError` naming
    each unconverged piece, with the best estimate for the whole region
    attached.  Each (row, piece) pair converges on its own: when its summed
    panel error is below ``_REL_TOL`` relative to its integral, or below
    ``_ABS_TOL_LOG`` on the linear scale shifted by its largest value on the
    initial panels' nodes, so a far-tail piece keeps its relative accuracy.
    A refinement round bisects the union of the panels the unconverged
    pairs pick, and one bisection serves every row, for at most
    ``_MAX_SUBDIVISIONS`` bisections in all.  Only failures that hit every
    row raise :class:`QuadratureError`: a NaN or +inf integrand value, or
    cuts that cannot be told apart.
    """
    cuts = [float(c) for c in cuts]
    if any(not region.lower < c < region.upper for c in cuts) or cuts != sorted(set(cuts)):
        raise ValueError("cuts must increase strictly inside the region")
    g, to_u, slope, (lo, hi) = _make_transform(region)
    edges = sorted([lo, hi, *(to_u(c) for c in cuts)])
    if any(a >= b for a, b in zip(edges[:-1], edges[1:])):
        raise QuadratureError(f"cuts {cuts} cannot be told apart from each other or from "
                              "the region's ends at double precision", _NEG_INF, math.inf)
    flip = math.isinf(region.lower) and math.isfinite(region.upper)  # (-inf, b) runs against x
    pieces = len(edges) - 1

    # each feature in u, clipped into the region first, where the map is
    # monotone; all initial panels go in one call
    seeds = []
    for x, width in features:
        u = to_u(min(max(float(x), region.lower), region.upper))
        seeds.append((u, float(width) * slope(u)))
    breaks = [_initial_breakpoints(seeds, a, b) for a, b in zip(edges[:-1], edges[1:])]
    counts = [len(br) - 1 for br in breaks]
    owner = np.repeat(np.arange(pieces), counts)
    lo_p = np.concatenate([br[:-1] for br in breaks])
    hi_p = np.concatenate([br[1:] for br in breaks])
    log_k, err, top = _panels(g, f, lo_p, hi_p)

    # each (row, piece) pair's log shift, which makes the linear-scale
    # floor meaningful: the maximum over its initial panels' nodes
    shifts = np.maximum.reduceat(top, np.cumsum([0, *counts[:-1]]), axis=1)

    log_abs_floor = math.log(_ABS_TOL_LOG)
    log_rel = math.log(_REL_TOL)
    budget = _MAX_SUBDIVISIONS

    while True:
        totals, errs = _piece_logsumexp(owner, pieces, log_k, err)
        target = np.maximum(totals + log_rel, shifts + log_abs_floor)
        unconverged = errs > target
        converged = not unconverged.any()
        if converged or not budget:
            break
        # one round: each unconverged (row, piece) pair picks its
        # largest-error panels until the rest is within its tolerance, and
        # the union of the picks is bisected, in first-pick order
        picks = []
        for k in np.flatnonzero(unconverged.any(axis=0)):
            rows = unconverged[:, k]
            idx = np.flatnonzero(owner == k)
            pair_err = err[rows][:, idx]
            order = np.argsort(-pair_err, axis=1)
            # the summed error left after bisecting the i + 1 largest; it
            # falls along each row, so the count of entries above the
            # target is where the picks stop
            rest = np.logaddexp.accumulate(np.sort(pair_err, axis=1), axis=1)[:, -2::-1]
            counts = (rest > target[rows, k:k + 1]).sum(axis=1) + 1
            chosen = [idx[o[:c]] for o, c in zip(order, counts)]
            if len(chosen) > 1:  # rows of one piece share panels: keep first picks
                chosen = np.concatenate(chosen)
                chosen = [chosen[np.sort(np.unique(chosen, return_index=True)[1])]]
            picks += chosen
        pick = np.concatenate(picks)
        if pick.size > budget:  # the largest errors relative to their unconverged pieces
            rel = np.where(unconverged[:, owner[pick]],
                           err[:, pick] - totals[:, owner[pick]], _NEG_INF).max(axis=0)
            pick = pick[np.argsort(-rel)[:budget]]
        a, b = lo_p[pick], hi_p[pick]
        mid = (a + b) / 2.0
        split = (a < mid) & (mid < b)
        if not split.all():
            err[:, pick[~split]] = _NEG_INF  # interval exhausted at double precision
            pick, a, b, mid = pick[split], a[split], b[split], mid[split]
            if not pick.size:
                continue
        n = pick.size
        budget -= n
        new_k, new_err, _ = _panels(g, f, np.concatenate([a, mid]), np.concatenate([mid, b]))
        hi_p[pick], log_k[:, pick], err[:, pick] = mid, new_k[:, :n], new_err[:, :n]
        lo_p, hi_p = np.concatenate((lo_p, mid)), np.concatenate((hi_p, b))
        owner = np.concatenate((owner, owner[pick]))
        log_k = np.concatenate((log_k, new_k[:, n:]), axis=1)
        err = np.concatenate((err, new_err[:, n:]), axis=1)

    if flip:
        totals, errs, unconverged = totals[:, ::-1], errs[:, ::-1], unconverged[:, ::-1]
    results = totals.tolist()
    if converged:
        return results
    log_errs = errs.tolist()
    x_edges = [region.lower, *cuts, region.upper]
    names = list(zip(x_edges[:-1], x_edges[1:]))
    for j in np.flatnonzero(unconverged.any(axis=1)):
        detail = "; ".join(f"piece ({names[k][0]:.6g}, {names[k][1]:.6g}) log estimate "
                           f"{results[j][k]:.6g}, log error {log_errs[j][k]:.6g}"
                           for k in np.flatnonzero(unconverged[j]))
        total = float(np.logaddexp.reduce(results[j]))
        error = float(np.logaddexp.reduce(log_errs[j]))
        results[j] = QuadratureError(
            f"quadrature did not converge after {_MAX_SUBDIVISIONS} subdivisions in "
            f"{detail} (whole region: log estimate {total:.6g}, log error bound {error:.6g})",
            total, error)
    return results
