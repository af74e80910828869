import math
import re

import numpy as np
import pytest

from conftest import random_moments
from twogroupbf import quadrature
from twogroupbf.datamodel import derive_stats
from twogroupbf.engine import CauchyPrior
from twogroupbf.quadrature import QuadratureError, integrate_log
from twogroupbf.specfun import cauchy_logpdf, noncentral_t_logpdf

TOL = 2 * quadrature._REL_TOL


def _one(f, edges, features):
    """The single row of a plain integrand's result: its log integral, or
    its per-piece list when there are several pieces; an unconverged row is
    raised."""
    (row,) = integrate_log(f, edges, features)
    if isinstance(row, QuadratureError):
        raise row
    return row if len(edges) > 2 else row[0]


def test_cauchy_normalization_full_line():
    res = _one(lambda x: cauchy_logpdf(x, 1.0), (-math.inf, math.inf), [(0.0, 1.0, math.inf)])
    assert res == pytest.approx(0.0, abs=1e-10)


def test_cauchy_half_line():
    res = _one(lambda x: cauchy_logpdf(x, 1.0), (0.0, math.inf), [(0.0, 1.0, math.inf)])
    assert res == pytest.approx(math.log(0.5), abs=1e-10)


def test_gaussian_kernel():
    res = _one(lambda x: -x * x, (-math.inf, math.inf), [(0.0, 0.7, math.inf)])
    assert res == pytest.approx(0.5 * math.log(math.pi), abs=1e-10)


def test_left_half_line():
    res = _one(lambda x: cauchy_logpdf(x, 2.0), (-math.inf, -2.0), [(0.0, 2.0, math.inf)])
    assert res == pytest.approx(math.log(0.25), abs=1e-10)


def test_finite_interval():
    # no structure: one initial panel
    res = _one(lambda x: np.zeros_like(x), (3.0, 7.0), [])
    assert res == pytest.approx(math.log(4.0), abs=1e-12)


def test_additivity_at_split_points():
    f = lambda x: -0.5 * (x - 0.7) ** 2
    peak = [(0.7, 1.0, math.inf)]
    whole = _one(f, (-math.inf, math.inf), peak)
    for c in (-3.0, 0.0, 0.7, 4.2):
        left = _one(f, (-math.inf, c), peak)
        right = _one(f, (c, math.inf), peak)
        assert np.logaddexp(left, right) == pytest.approx(whole, abs=TOL)
        # one pass over the cut line gives the same pieces
        pieces = _one(f, (-math.inf, c, math.inf), peak)
        assert pieces == pytest.approx([left, right], abs=TOL)
        assert np.logaddexp(*pieces) == pytest.approx(whole, abs=TOL)


def test_pieces_converge_on_their_own_mass():
    # the right piece holds e^-50 of the mass; judged against the whole
    # line it would only get absolute accuracy
    sd, c = 1e-4, 9.7e-4
    f = lambda x: -0.5 * (x / sd) ** 2
    z = c / (sd * math.sqrt(2.0))
    scale = sd * math.sqrt(math.pi / 2.0)
    exact = [math.log(scale * math.erfc(-z)), math.log(scale * math.erfc(z))]
    assert exact[1] - exact[0] == pytest.approx(-50.2, abs=0.1)
    pieces = _one(f, (-math.inf, c, math.inf), [(0.0, sd, math.inf)])
    for got, want in zip(pieces, exact):
        assert math.exp(got - want) == pytest.approx(1.0, abs=1e-8)


def test_pieces_of_left_half_line_come_in_increasing_order():
    # the pieces come in increasing x
    f = lambda x: cauchy_logpdf(x, 1.0)
    cdf = lambda x: 0.5 + math.atan(x) / math.pi
    pieces = _one(f, (-math.inf, -4.0, 0.5, 1.0), [(0.0, 1.0, math.inf)])
    exact = [cdf(-4.0), cdf(0.5) - cdf(-4.0), cdf(1.0) - cdf(0.5)]
    assert pieces == pytest.approx([math.log(p) for p in exact], abs=1e-10)


def test_cut_validation():
    # interior edges must increase strictly inside the outer ones
    f = lambda x: -x * x
    peak = [(0.0, 0.7, math.inf)]
    for cuts in ((2.0,), (0.5, 0.5), (0.7, 0.3), (-1.0,), (math.nan,)):
        with pytest.raises(ValueError):
            integrate_log(f, (0.0, *cuts, 1.5), peak)
    # adjacent doubles map to one u: the piece between them would have no width
    with pytest.raises(QuadratureError):
        integrate_log(f, (-math.inf, 1e300, math.nextafter(1e300, math.inf), math.inf), peak)
    # a far cut is placed: the map's scale spans it
    (pieces,) = integrate_log(f, (-math.inf, 1e17, math.inf), peak)
    assert all(math.isfinite(p) for p in pieces)


def test_log_shift_invariance():
    f = lambda x: cauchy_logpdf(x, 0.5)
    peak = [(0.0, 0.5, math.inf)]
    base = _one(f, (-math.inf, math.inf), peak)
    for k in (-700.0, -3.0, 250.0, 5000.0):
        shifted = _one(lambda x: f(x) + k, (-math.inf, math.inf), peak)
        assert shifted - k == pytest.approx(base, abs=1e-12)


def test_against_trapezoid_oracle_on_engine_integrands():
    """Adaptive result matches a dense fixed-grid sum on posterior-type
    integrands (likelihood times prior over the effect size)."""
    rng = np.random.default_rng(21)
    for _ in range(1):
        stats = derive_stats(random_moments(rng))
        prior = CauchyPrior()
        sqrt_n = math.sqrt(stats.n_eff)

        def f(delta):
            return noncentral_t_logpdf(stats.t_obs, stats.df, delta * sqrt_n) + prior.logpdf(delta)

        features = [(stats.t_obs / sqrt_n, 1.0 / sqrt_n, math.inf), (0.0, prior.scale, math.inf)]
        adaptive = _one(f, (-math.inf, math.inf), features)
        # theta-warped trapezoid over >= 1 - 1e-10 of the prior's mass
        theta = np.linspace(-math.pi / 2 * (1 - 1e-10), math.pi / 2 * (1 - 1e-10), 300_001)
        delta = prior.scale * np.tan(theta)
        vals = f(delta) + math.log(prior.scale) - 2.0 * np.log(np.abs(np.cos(theta)))
        m = vals.max()
        oracle = m + math.log(np.trapezoid(np.exp(vals - m), theta))
        assert adaptive == pytest.approx(oracle, abs=1e-6)


def _gaussian_spike(k, centre):
    """-k (x - centre)^2, its feature and the exact ln of its integral."""
    return (lambda x: -k * (x - centre) ** 2, [(centre, 1.0 / math.sqrt(2.0 * k), math.inf)],
            0.5 * math.log(math.pi / k))


def test_narrow_peak_is_found():
    # a spike far from the domain midpoint is resolved from its feature,
    # and the floor must not accept it unresolved
    for k in (1e6, 1e8):
        f, spike, exact = _gaussian_spike(k, 37.25)
        res = _one(f, (-math.inf, math.inf), spike)
        assert res == pytest.approx(exact, abs=1e-8)
    # so is a peak of relative width 0.1 far out, on every region that
    # holds it
    for k, centre in ((5e-33, 1e17), (5e-201, 1e101)):
        f, spike, exact = _gaussian_spike(k, centre)
        for region in ((-math.inf, math.inf), (0.0, math.inf),
                       (-math.inf, 2.0 * centre)):
            assert _one(f, region, spike) == pytest.approx(exact, abs=1e-12)


def test_spike_far_below_the_region_span():
    f, spike, exact = _gaussian_spike(1e10, 0.4)
    assert _one(f, (-math.inf, math.inf), spike) == pytest.approx(exact, abs=1e-8)


def test_spike_at_the_grain_of_the_tan_map():
    # doubles next to x = 1234.5 are 2.3e-13 apart, 1/300000 of the spike's
    # sd, and the map, scaled to the spike's place, puts nodes that close;
    # rounding x moves the integrand there by ~1e-6, which no map avoids
    f, spike, exact = _gaussian_spike(1e14, 1234.5)
    assert _one(f, (-math.inf, math.inf), spike) == pytest.approx(exact, abs=1e-5)


def test_reach_ends_the_ladder_at_its_first_level_past_it():
    # a light-tailed feature's ladder stops, on each side, at the first level
    # at or past its reach there; nearer levels all stay, and a reach past
    # the piece keeps the side's full ladder
    lo, hi, u, width = -1.5, 1.5, 0.3, 1e-6
    full = quadrature._initial_breakpoints([(u, width, math.inf, math.inf)], lo, hi)
    for below, above in ((1e-3, 1e-3), (2e-4, 5e-2), (3.0 * 2.0 ** -7, 3.0)):
        kept = quadrature._initial_breakpoints([(u, width, below, above)], lo, hi)
        assert set(kept) < set(full)
        for side, reach in ((-1.0, below), (1.0, above)):
            gone = [side * (p - u) for p in full if p not in kept]
            near = [side * (p - u) for p in kept if lo < p < hi and side * (p - u) > 0.0]
            if reach >= (hi - u if side > 0.0 else u - lo):
                assert not [d for d in gone if d > 0.0]
                continue
            assert max(near) >= reach and max(near) / 2.0 < reach
            assert all(d > max(near) for d in gone if d > 0.0)


def test_reach_is_kept_only_for_a_feature_inside_the_piece():
    # a feature clipped to a piece's edge, or into the region, falls off
    # from that edge, where the piece's own mass lies: it keeps its full ladder
    for u in (-2.0, 2.0):
        assert (quadrature._initial_breakpoints([(u, 1e-6, 1e-3, 1e-3)], -1.5, 1.5)
                == quadrature._initial_breakpoints([(u, 1e-6, math.inf, math.inf)], -1.5, 1.5))
    f = lambda x: -0.5 * ((x - 0.3) / 1e-4) ** 2
    for edges in ((0.5, math.inf), (-math.inf, 0.2, math.inf)):
        layouts = []
        for feature in ((0.3, 1e-4, math.inf), (0.3, 1e-4, 1e-3)):
            xs = []
            integrate_log(lambda x: xs.append(x) or f(x), edges, [feature])
            layouts.append(xs[0][xs[0] < edges[1]])
        assert layouts[0].size and np.array_equal(*layouts)


def test_reach_trims_panels_and_keeps_the_result():
    # a Gaussian of sd w holds e^-40 of its peak at sqrt(80) w; past that
    # its ladder only adds panels
    for centre, w in ((0.3, 1e-4), (-2e5, 3.0), (1e17, 1e14)):
        f = lambda x: -0.5 * ((x - centre) / w) ** 2
        results, counts = [], []
        for feature in ((centre, w, math.inf), (centre, w, math.sqrt(80.0) * w)):
            g, sizes = _recording(f)
            results.append(_one(g, (-math.inf, math.inf), [feature]))
            counts.append(sizes[0])
        assert results[1] == pytest.approx(results[0], rel=1e-14, abs=1e-14)
        assert results[1] == pytest.approx(math.log(w * math.sqrt(2.0 * math.pi)), abs=1e-10)
        assert counts[1] < counts[0]


def _recording(f):
    """f, plus the list of array sizes it is called with."""
    sizes = []

    def g(x):
        sizes.append(np.size(x))
        return f(x)
    return g, sizes


def _bisections(sizes):
    """Panels bisected, from the call sizes: the initial GK15 panels, then
    two 15-node children per bisected panel in each round."""
    assert sizes[0] % 15 == 0
    assert all(n % 30 == 0 for n in sizes[1:])
    return sum(sizes[1:]) // 30


def test_nonconvergence_raises_with_best_estimate(monkeypatch):
    # integrable endpoint singularity x^-0.9 needs many panels near zero
    f, sizes = _recording(lambda x: -0.9 * np.log(x))
    monkeypatch.setattr(quadrature, "_MAX_SUBDIVISIONS", 4)
    with pytest.raises(QuadratureError) as err:
        _one(f, (0.0, 1.0), [(0.0, 0.1, math.inf)])
    assert math.isfinite(err.value.best_log_estimate)
    # true integral is 10; the carried estimate must be in the vicinity
    assert err.value.best_log_estimate == pytest.approx(math.log(10.0), abs=0.5)
    assert err.value.log_error_bound > -math.inf
    assert "piece (0, 1)" in str(err.value)
    # one call per refinement round, and the whole budget spent
    assert len(sizes) <= 1 + 4
    assert _bisections(sizes) == 4


def test_error_names_each_unconverged_piece_in_x(monkeypatch):
    # the singularity at the cut leaves both pieces short; each is named
    # by its range in x, in increasing x
    f = lambda x: -0.9 * np.log(np.abs(x + 0.19)) - 2.0 * np.log1p(x * x)
    monkeypatch.setattr(quadrature, "_MAX_SUBDIVISIONS", 4)
    with pytest.raises(QuadratureError) as err:
        _one(f, (-math.inf, -0.19, 0.0), [(-0.19, 0.1, math.inf)])
    message = str(err.value)
    assert "piece (-inf, -0.19)" in message and "piece (-0.19, 0)" in message
    assert message.index("piece (-inf, -0.19)") < message.index("piece (-0.19, 0)")


def test_round_is_cut_to_the_remaining_budget(monkeypatch):
    # many oscillations per initial panel: the second round wants more
    # bisections than a budget of 5 leaves after the first
    f = lambda x: np.log(2.0 + np.sin(200.0 * x))
    free, free_sizes = _recording(f)
    integrate_log(free, (0.0, 1.0), [])
    first, second = free_sizes[1] // 30, free_sizes[2] // 30
    budget = first + 1
    assert second > 1
    # batching makes far fewer calls than one per bisected panel
    assert len(free_sizes) < _bisections(free_sizes)

    capped, sizes = _recording(f)
    monkeypatch.setattr(quadrature, "_MAX_SUBDIVISIONS", budget)
    with pytest.raises(QuadratureError):
        _one(capped, (0.0, 1.0), [])
    assert sizes[:2] == free_sizes[:2]
    assert _bisections(sizes) == budget


def test_columns_keep_relative_accuracy_in_their_own_pieces():
    # each column holds e^-700 of its mass in one piece, in a peak narrower
    # than the other column's there; judged against the columns' envelope,
    # that piece would be accepted unresolved (off by ~1e-2)
    def f(x):
        return np.stack([np.where(x < 0.0, -0.5 * x * x, -700.0 - 0.5 * ((x - 2.0) / 0.05) ** 2),
                         np.where(x < 0.0, -700.0 - 0.5 * ((x + 2.0) / 0.05) ** 2,
                                  -0.5 * (x - 1.0) ** 2)])

    def log_normal_mass(mean, sd, lo, hi):
        cdf = lambda z: 0.5 * math.erfc(-z / math.sqrt(2.0))
        return math.log(sd * math.sqrt(2.0 * math.pi)
                        * (cdf((hi - mean) / sd) - cdf((lo - mean) / sd)))

    exact = [[log_normal_mass(0.0, 1.0, -math.inf, 0.0),
              log_normal_mass(2.0, 0.05, 0.0, math.inf) - 700.0],
             [log_normal_mass(-2.0, 0.05, -math.inf, 0.0) - 700.0,
              log_normal_mass(1.0, 1.0, 0.0, math.inf)]]
    peaks = [(x, w, math.inf) for x, w in ((-2.0, 0.05), (0.0, 1.0), (1.0, 1.0), (2.0, 0.05))]
    got = integrate_log(f, (-math.inf, 0.0, math.inf), peaks)
    for column, want in zip(got, exact):
        assert column == pytest.approx(want, abs=1e-8)


def test_columns_share_one_point_layout():
    # every call takes one 1-D array of abscissae for all columns, laid out
    # as for a plain integrand, whatever the number of columns
    base = lambda x: np.log(2.0 + np.sin(200.0 * x))
    plain, plain_sizes = _recording(base)
    integrate_log(plain, (0.0, 1.0), [])
    for m in (1, 4, 50):
        def f(x):
            assert np.ndim(x) == 1
            return base(x)[None, :] * np.linspace(1.0, 2.0, m)[:, None]
        recorded, sizes = _recording(f)
        assert len(integrate_log(recorded, (0.0, 1.0), [])) == m
        assert _bisections(sizes) > 0
        if m == 1:
            assert sizes == plain_sizes


def test_columns_that_converge_keep_their_results(monkeypatch):
    # only the column with the x^-0.9 endpoint singularity runs out of
    # subdivisions; the smooth one keeps its result
    f = lambda x: np.stack([-0.9 * np.log(x), -x * x])
    monkeypatch.setattr(quadrature, "_MAX_SUBDIVISIONS", 4)
    singular, smooth = integrate_log(f, (0.0, 1.0), [(0.0, 0.1, math.inf)])
    assert isinstance(singular, QuadratureError) and "piece (0, 1)" in str(singular)
    assert singular.best_log_estimate == pytest.approx(math.log(10.0), abs=0.5)
    assert smooth == pytest.approx([math.log(math.sqrt(math.pi) / 2.0 * math.erf(1.0))],
                                   abs=1e-10)


def test_nan_integrand_raises():
    for bad in (np.nan, np.inf):
        f = lambda x: np.where(x > 0.5, bad, 0.0)
        with pytest.raises(QuadratureError, match="NaN or \\+inf"):
            integrate_log(f, (0.0, 1.0), [])


@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("rounds", [0, 1])
def test_one_bad_node_in_one_row_names_its_panel(bad, rounds):
    """One NaN or +inf at one Kronrod-only node of one row, beside a row at
    -inf everywhere, is caught from the panel maxima, in the first pass or
    in a refinement round, and the panel holding that node is named."""
    spike, _, _ = _gaussian_spike(1e3, 0.3)  # unflagged, so the first pass bisects
    nodes = []  # u of the bad node, once it is set

    def f(x):
        out = np.stack([spike(x), np.full(x.shape, -math.inf), spike(x)])
        calls = f.calls = getattr(f, "calls", 0) + 1
        if calls == rounds + 1:
            # the abscissae run node by node: Kronrod-only node 4 of panel 1
            at = x.size // 15 * 4 + 1
            out[2, at] = bad
            nodes.append(math.atan(x[at]))  # x = tan(u) on (0, 1)
        return out

    with pytest.raises(QuadratureError, match="NaN or \\+inf in panel") as err:
        integrate_log(f, (0.0, 1.0), [(0.0, 0.05, math.inf)])
    assert f.calls == rounds + 1 and len(nodes) == 1
    lo, hi = map(float, re.search(r"panel \((\S+), (\S+)\)", str(err.value)).groups())
    # the node sits 0.8649 of the half-width above the middle of the named panel
    assert nodes[0] == pytest.approx((lo + hi) / 2.0 + 0.864864423359769 * (hi - lo) / 2.0,
                                     rel=1e-12)


@pytest.mark.parametrize("feature", [
    (math.nan, 0.1, 1.0), (0.0, -1.0, 1.0), (0.0, math.nan, 1.0), (0.0, 0.1, math.nan),
    (0.0, 0.1, -1.0)], ids=["nan-x", "negative-width", "nan-width", "nan-reach",
                            "negative-reach"])
def test_feature_validation(feature):
    # a width of -1 divided by zero, a NaN location was blamed on the
    # integrand, and a NaN width or reach passed silently
    with pytest.raises(ValueError, match="a feature needs a location, and a width and reach"):
        integrate_log(lambda x: -x * x, (-1.0, 1.0), [(0.3, 0.1, 1.0), feature])


def test_interval_validation():
    # the outer edges: at least two, increasing strictly, and no NaN
    f = lambda x: -x * x
    for edges in ((1.0, 1.0), (2.0, -2.0), (math.nan, 1.0), (0.0, math.nan), (0.0,), ()):
        with pytest.raises(ValueError, match="edges must be at least two"):
            integrate_log(f, edges, [])


@pytest.mark.parametrize("rows", [1, 3])
def test_the_array_an_integrand_returns_is_left_as_it_was(rows):
    """integrate_log writes only into arrays of its own: every array the
    integrand returned, here a view of one the integrand keeps, reads the
    same after the call as when it was returned, over refinement rounds and
    pieces."""
    store = np.zeros((rows, 200_000))
    widths = np.arange(1.0, rows + 1.0)[:, None]
    returned = []

    def f(x):
        at = sum(len(r) for r, _ in returned)
        out = store[:, at:at + x.size]
        out[...] = -0.5 * (x / widths) ** 2
        returned.append((range(at, at + x.size), out.copy()))
        return out if rows > 1 else out[0]

    results = integrate_log(f, (-math.inf, -0.5, 1.0, math.inf), [])
    assert len(returned) > 1
    for span, values in returned:
        assert np.array_equal(store[:, span.start:span.stop], values)
    for row, w in zip(results, widths.ravel()):
        assert np.logaddexp.reduce(row) == pytest.approx(math.log(w * math.sqrt(2.0 * math.pi)),
                                                         abs=1e-10)
