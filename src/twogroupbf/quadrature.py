"""Adaptive Gauss-Kronrod integration of log-scale integrands.

``integrate_log`` takes a log-integrand f with one row per integrand (a
prior sweep's scales, say) and returns ln of each row's integral of exp(f)
over each piece between consecutive edges, of which the first and last
may be infinite.  All bookkeeping stays in log space: the integrands
this package feeds in routinely span thousands of nats, and the
interesting region integrals can be smaller than 1e-300 in linear scale.

Every piece goes through one change of variables, x = s tan(u), with s
spanning every point the caller names (features and finite edges):
each of them then sits at |u| <= pi/4, where x keeps full relative
precision at any magnitude, and an infinite edge is u = +-pi/2.  The
initial panels of each piece cluster geometrically around the features,
down to each feature's width, so that sharp peaks are resolved from the
first pass, and out no further than a light-tailed feature's reach, past
which it is negligible.  The integrand is then called once for all
initial panels and once per refinement round for all the panels it
bisects (as SciPy's ``quad_vec`` refines many intervals at a time).  All
rows share every panel, and each row converges on its own.
"""

from __future__ import annotations

import itertools
import math
from typing import Sequence

import numpy as np

__all__ = ["QuadratureError", "integrate_log"]

_REL_TOL = 1e-8
_ABS_TOL_LOG = 1e-12  # absolute floor on the linear (shifted) scale
_MAX_SUBDIVISIONS = 2000


class QuadratureError(RuntimeError):
    """A quadrature that failed: a row that did not converge, or an
    integrand or edges that no row can be integrated with.

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

_NODES_1 = np.array([row[0] for row in _GK15])[:, None] + 1.0  # a column: node by node
_LOG_WK = np.log(np.array([row[1] for row in _GK15]))[:, None]
_GAUSS_NODES = np.flatnonzero([row[2] > 0.0 for row in _GK15])
_LOG_WG = np.log(np.array([row[2] for row in _GK15 if row[2] > 0.0]))[:, None]

# narrowest panel with 15 distinct nodes, relative to its place in u; at
# |u| <= pi/4, where the named points sit, that is < 1e-13 of their x
_GRAIN = 2.0 ** -44
_NEG_INF = float("-inf")


def _panels(g, f, lo, hi):
    """Log GK15 estimates, log errors and node maxima of the panels
    (lo[i], hi[i]), one row per integrand, from one call of g over all their
    nodes."""
    half = (hi - lo) / 2.0
    x = _NODES_1 * half + lo  # node by node, so that each op runs along the panels
    fx = g(x.ravel(), f).reshape(-1, *x.shape)  # g's own array: the sums go in place
    # both rules are summed relative to the panel's own maximum, so their
    # difference keeps its relative accuracy at any log magnitude
    top = fx.max(axis=1)
    if not top.max() < math.inf:  # NaN or +inf at some node: max propagates NaN
        i = int(np.argmin((top < math.inf).all(axis=0)))
        raise QuadratureError(f"integrand returned NaN or +inf in panel ({lo[i]}, {hi[i]})",
                              _NEG_INF, math.inf)
    m = np.where(np.isfinite(top), top, 0.0)
    gauss = fx.take(_GAUSS_NODES, axis=1)
    for v, log_w in ((gauss, _LOG_WG), (fx, _LOG_WK)):
        v += log_w
        np.exp(np.subtract(v, m[:, None], out=v), out=v)
    # numpy sums 15 nodes pairwise only side by side, as a panel's row; 7 in order either way
    sum_k = np.ascontiguousarray(fx.transpose(0, 2, 1)).sum(axis=2)
    with np.errstate(divide="ignore"):
        log_scale = m + np.log(half)
        return (np.log(sum_k) + log_scale,
                np.log(np.abs(sum_k - gauss.sum(axis=1))) + log_scale, top)


def _initial_breakpoints(seeds, lo: float, hi: float) -> list:
    """Breakpoints of (lo, hi) clustered geometrically around each (u,
    width, reach below, reach above) seed, clipped into it: at u +- span/2,
    span/4, ... down to the seed's width there, but not below the grain of
    u.  On each side of a seed inside (lo, hi) the ladder starts at the
    first level at or past its reach; a seed clipped to an edge keeps it
    all."""
    span = hi - lo
    points = {lo, hi}
    for u, width, below, above in seeds:
        mode = min(max(u, lo), hi)
        # a peak clipped to an edge falls off there over width^2 / distance
        far = abs(u - mode)
        stop = max(width * width / far if far > width else width, _GRAIN * abs(mode))
        if far:
            below = above = math.inf
        step = span / 2.0
        while step > stop:
            # the level below 2 * reach is the first one at or past it
            if lo < mode - step and step < 2.0 * below:
                points.add(mode - step)
            if mode + step < hi and step < 2.0 * above:
                points.add(mode + step)
            step /= 2.0
        points.add(mode)  # at an end of (lo, hi) it is there already
    return sorted(points)


def _piece_logsumexp(owner, ends: list, *arrays):
    """ln sum exp of each row of each array over each piece's panels, which lie
    side by side from ``ends[k]`` to ``ends[k + 1]``, as lists of rows.  Sums
    run pairwise (C order) where a row or a piece stands alone, as a 1-D sum
    does, and left to right (F order) over several rows of each of several
    pieces: the orders the reported values were always summed in."""
    rows, pieces = len(arrays[0]), len(ends) - 1
    values = np.concatenate(arrays)  # all arrays as one block of rows
    top = np.maximum.reduceat(values, ends[:-1], axis=1)
    with np.errstate(invalid="ignore"):
        e = np.subtract(values, top[:, owner] if pieces > 1 else top,  # a lone piece broadcasts
                        order="F" if pieces > 1 and rows > 1 else "C")
        np.exp(e, out=e)
    sums = zip(*[np.add.reduce(e[:, a:b], axis=1).tolist() for a, b in zip(ends[:-1], ends[1:])])
    # libm's log: numpy's differs in the last bit, which would move the reported values
    logs = [[t + math.log(s) if math.isfinite(t) else t for t, s in zip(tops, row)]
            for tops, row in zip(top.tolist(), sums)]
    return [logs[i:i + rows] for i in range(0, len(logs), rows)]


def integrate_log(f, edges: Sequence[float], features: Sequence[tuple]) -> list:
    """ln of the integral of exp(f(x)) dx over each piece between
    consecutive ``edges``, for each row of ``f``.

    ``f`` maps a numpy array of n abscissae to an (m, n) array of log
    values (-inf is fine, NaN and +inf are not): m integrands, one per row,
    that share every panel (as SciPy's ``quad_vec`` does for vector-valued
    integrands); a 1-D return is one row.  At least two strictly
    increasing ``edges`` bound the pieces, integrated in one pass with a
    breakpoint forced at every interior edge (as QUADPACK's QAGP does);
    only the first and last may be infinite.  Each piece starts from
    panels clustered around every feature in ``features``, clipped into
    it: the peaks and spikes of the rows.  A feature is
    ``(x, width, reach)``.  Its breakpoints lie at x +- span/2, span/4, ...
    of the piece in the mapped variable, down to its width.  A reach is a
    distance from x past which the feature is negligible (a light tail;
    ``math.inf`` for none); on each side of a feature that lies inside the
    piece, the ladder then starts at the first level at or past the reach
    there, converted through the map itself.  A feature clipped to a
    piece's edge (or into the outer edges) keeps its full ladder: the
    piece's mass lies at that edge, in the feature's tail, however far
    down its peak that is.  So does one without a reach, which a heavy
    tail needs: 2 / (pi K) of a Cauchy's mass lies beyond K widths.  A
    structure no node sees can be missed; without features, each piece
    starts as one panel.

    The result holds one entry per row: a list of that row's log integrals
    per piece, in increasing x, or, for a row that did not converge, its
    own :class:`QuadratureError` naming each unconverged piece, with the
    best estimate for the whole region attached.  Each (row, piece)
    pair converges on its own: when its summed panel error is below
    ``_REL_TOL`` relative to its integral, or below ``_ABS_TOL_LOG`` on the
    linear scale shifted by its largest value on the initial panels'
    nodes, so a far-tail piece keeps its relative accuracy.  A refinement
    round bisects every panel whose error is above an unconverged pair's
    tolerance over its piece's panel count, for at most
    ``_MAX_SUBDIVISIONS`` bisections in all (the largest errors relative to
    their pieces first), and one bisection serves every row.  Only failures
    that hit every row raise :class:`QuadratureError`: a NaN or +inf
    integrand value, or edges that cannot be told apart.
    """
    edges = [float(x) for x in edges]
    if len(edges) < 2 or not all(a < b for a, b in zip(edges[:-1], edges[1:])):
        raise ValueError(f"edges must be at least two and increase strictly, got {edges}")
    # x = s tan(u) puts every named point (the features clipped into the
    # outer edges, the finite edges) at |u| <= pi/4; s >= 1 keeps
    # x = tan(u) where nothing named lies beyond 1
    named = []
    for x, w, reach in features:
        x, w, reach = float(x), float(w), float(reach)
        if math.isnan(x) or not (w >= 0.0 and reach >= 0.0):
            raise ValueError("a feature needs a location, and a width and reach >= 0, "
                             f"got {(x, w, reach)}")
        clipped = min(max(x, edges[0]), edges[-1])
        # a reach counts only from a feature inside the outer edges
        named.append((clipped, w, reach if clipped == x else math.inf))
    s = max([1.0, *(abs(x) for x in edges + [x for x, _, _ in named] if math.isfinite(x))])
    log_s = math.log(s)

    def g(u, f):
        t = np.tan(u)
        if s == 1.0:  # x = t, and ln dx/du is formed before f sees it
            return np.log1p(t * t) + f(t)  # in an array of its own
        with np.errstate(over="ignore"):  # x past the float range is +-inf
            x = s * t
        out = f(x) + np.log1p(t * t)
        return np.add(out, log_s, out=out)

    u_edges = [math.atan(x / s) for x in edges]  # +-pi/2 at infinite ends
    if any(a >= b for a, b in zip(u_edges[:-1], u_edges[1:])):
        raise QuadratureError(f"edges {edges} cannot be told apart at double precision",
                              _NEG_INF, math.inf)
    pieces = len(u_edges) - 1

    # each feature in u, its width times du/dx = cos(u)^2 / s, and its reach
    # on either side through the map itself; all initial panels go in one call
    seeds = []
    for x, w, reach in named:
        u = math.atan(x / s)
        below, above = ((u - math.atan((x - reach) / s), math.atan((x + reach) / s) - u)
                        if reach < math.inf else (math.inf, math.inf))
        seeds.append((u, w * math.cos(u) ** 2 / s, below, above))
    breaks = [_initial_breakpoints(seeds, a, b) for a, b in zip(u_edges[:-1], u_edges[1:])]
    lo_p = np.array([x for br in breaks for x in br[:-1]])  # each piece's panels side by side
    hi_p = np.array([x for br in breaks for x in br[1:]])
    owner = np.array([k for k, br in enumerate(breaks) for _ in br[1:]])
    ends = [0, *itertools.accumulate(len(br) - 1 for br in breaks)]  # each piece's panels
    log_k, err, top = _panels(g, f, lo_p, hi_p)

    # each (row, piece) pair's log shift, which makes the linear-scale
    # floor meaningful: the maximum over its initial panels' nodes
    floors = (np.maximum.reduceat(top, ends[:-1], axis=1) + math.log(_ABS_TOL_LOG)).tolist()

    budget = _MAX_SUBDIVISIONS
    log_rel = math.log(_REL_TOL)

    while True:  # the convergence test runs on lists: a few values each
        totals, errs = _piece_logsumexp(owner, ends, log_k, err)
        target = [[max(t + log_rel, x) for t, x in zip(*r)] for r in zip(totals, floors)]
        unconverged = [[e > x for e, x in zip(*r)] for r in zip(errs, target)]
        converged = not any(map(any, unconverged))
        if converged or not budget:
            break
        totals, target, unconverged = np.array(totals), np.array(target), np.array(unconverged)
        # one round bisects every panel whose error is above its even share
        # of an unconverged (row, piece) pair's target (the local strategy
        # of Malcolm & Simpson, ACM TOMS 1(2), 1975); that pair's summed
        # error is above the target, so some panel is.  Past the budget, the
        # largest errors relative to their pieces go first
        share = target - np.log(np.diff(ends))
        over = unconverged[:, owner] & (err > share[:, owner])
        rel = (err - np.where(over, totals[:, owner], math.inf)).max(axis=0)  # -inf if not over
        pick = np.flatnonzero(rel > _NEG_INF)
        pick = pick[np.argsort(-rel[pick], kind="stable")[:budget]]
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
        owner = np.concatenate((owner, owner[pick]))
        ends = [0, *itertools.accumulate(np.bincount(owner, minlength=pieces).tolist())]
        order = np.argsort(owner, kind="stable")  # each piece's panels side by side again
        owner, lo_p, hi_p = owner[order], np.append(lo_p, mid)[order], np.append(hi_p, b)[order]
        log_k = np.concatenate((log_k, new_k[:, n:]), axis=1)[:, order]
        err = np.concatenate((err, new_err[:, n:]), axis=1)[:, order]

    for j, flags in enumerate(unconverged):
        if not any(flags):
            continue
        detail = "; ".join(f"piece ({edges[k]:.6g}, {edges[k + 1]:.6g}) log estimate "
                           f"{totals[j][k]:.6g}, log error {errs[j][k]:.6g}"
                           for k, bad in enumerate(flags) if bad)
        total = float(np.logaddexp.reduce(totals[j]))
        error = float(np.logaddexp.reduce(errs[j]))
        totals[j] = QuadratureError(
            f"quadrature did not converge after {_MAX_SUBDIVISIONS} subdivisions in "
            f"{detail} (whole region: log estimate {total:.6g}, log error bound {error:.6g})",
            total, error)
    return totals
