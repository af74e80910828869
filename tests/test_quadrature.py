import math

import numpy as np
import pytest

from conftest import random_moments
from twogroupbf import quadrature
from twogroupbf.datamodel import derive_stats
from twogroupbf.engine import CauchyPrior
from twogroupbf.quadrature import Interval, QuadratureError, integrate_log
from twogroupbf.specfun import cauchy_logpdf, noncentral_t_logpdf

TOL = 2 * quadrature._REL_TOL


def _one(f, region, features, cuts=()):
    """The single row of a plain integrand's result: its log integral, or
    its per-piece list when there are cuts; an unconverged row is raised."""
    (row,) = integrate_log(f, region, cuts, features)
    if isinstance(row, QuadratureError):
        raise row
    return row if cuts else row[0]


def test_cauchy_normalization_full_line():
    res = _one(lambda x: cauchy_logpdf(x, 1.0), Interval(-math.inf, math.inf), [(0.0, 1.0)])
    assert res == pytest.approx(0.0, abs=1e-10)


def test_cauchy_half_line():
    res = _one(lambda x: cauchy_logpdf(x, 1.0), Interval(0.0, math.inf), [(0.0, 1.0)])
    assert res == pytest.approx(math.log(0.5), abs=1e-10)


def test_gaussian_kernel():
    res = _one(lambda x: -x * x, Interval(-math.inf, math.inf), [(0.0, 0.7)])
    assert res == pytest.approx(0.5 * math.log(math.pi), abs=1e-10)


def test_left_half_line():
    res = _one(lambda x: cauchy_logpdf(x, 2.0), Interval(-math.inf, -2.0), [(0.0, 2.0)])
    assert res == pytest.approx(math.log(0.25), abs=1e-10)


def test_finite_interval():
    # no structure: one initial panel
    res = _one(lambda x: np.zeros_like(x), Interval(3.0, 7.0), [])
    assert res == pytest.approx(math.log(4.0), abs=1e-12)


def test_additivity_at_split_points():
    f = lambda x: -0.5 * (x - 0.7) ** 2
    peak = [(0.7, 1.0)]
    whole = _one(f, Interval(-math.inf, math.inf), peak)
    for c in (-3.0, 0.0, 0.7, 4.2):
        left = _one(f, Interval(-math.inf, c), peak)
        right = _one(f, Interval(c, math.inf), peak)
        assert np.logaddexp(left, right) == pytest.approx(whole, abs=TOL)
        # one pass over the cut line gives the same pieces
        pieces = _one(f, Interval(-math.inf, math.inf), peak, cuts=(c,))
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
    pieces = _one(f, Interval(-math.inf, math.inf), [(0.0, sd)], cuts=(c,))
    for got, want in zip(pieces, exact):
        assert math.exp(got - want) == pytest.approx(1.0, abs=1e-8)


def test_pieces_of_left_half_line_come_in_increasing_order():
    # the (-inf, b) map runs against x; the pieces must not
    f = lambda x: cauchy_logpdf(x, 1.0)
    cdf = lambda x: 0.5 + math.atan(x) / math.pi
    pieces = _one(f, Interval(-math.inf, 1.0), [(0.0, 1.0)], cuts=(-4.0, 0.5))
    exact = [cdf(-4.0), cdf(0.5) - cdf(-4.0), cdf(1.0) - cdf(0.5)]
    assert pieces == pytest.approx([math.log(p) for p in exact], abs=1e-10)


def test_cut_validation():
    f = lambda x: -x * x
    for cuts in ((2.0,), (0.5, 0.5), (0.7, 0.3), (-1.0,)):
        with pytest.raises(ValueError):
            integrate_log(f, Interval(0.0, 1.5), cuts, [(0.0, 0.7)])
    # atan(1e17) rounds to pi/2: the last piece would have no width
    with pytest.raises(QuadratureError):
        integrate_log(f, Interval(-math.inf, math.inf), (1e17,), [(0.0, 0.7)])


def test_log_shift_invariance():
    f = lambda x: cauchy_logpdf(x, 0.5)
    peak = [(0.0, 0.5)]
    base = _one(f, Interval(-math.inf, math.inf), peak)
    for k in (-700.0, -3.0, 250.0, 5000.0):
        shifted = _one(lambda x: f(x) + k, Interval(-math.inf, math.inf), peak)
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

        features = [(stats.t_obs / sqrt_n, 1.0 / sqrt_n), (0.0, prior.scale)]
        adaptive = _one(f, Interval(-math.inf, math.inf), features)
        # theta-warped trapezoid over >= 1 - 1e-10 of the prior's mass
        theta = np.linspace(-math.pi / 2 * (1 - 1e-10), math.pi / 2 * (1 - 1e-10), 300_001)
        delta = prior.scale * np.tan(theta)
        vals = f(delta) + math.log(prior.scale) - 2.0 * np.log(np.abs(np.cos(theta)))
        m = vals.max()
        oracle = m + math.log(np.trapezoid(np.exp(vals - m), theta))
        assert adaptive == pytest.approx(oracle, abs=1e-6)


def _gaussian_spike(k, centre):
    """-k (x - centre)^2, its feature and the exact ln of its integral."""
    return (lambda x: -k * (x - centre) ** 2, [(centre, 1.0 / math.sqrt(2.0 * k))],
            0.5 * math.log(math.pi / k))


def test_narrow_peak_is_found():
    # a spike far from the domain midpoint is resolved from its feature,
    # and the floor must not accept it unresolved
    for k in (1e6, 1e8):
        f, spike, exact = _gaussian_spike(k, 37.25)
        res = _one(f, Interval(-math.inf, math.inf), spike)
        assert res == pytest.approx(exact, abs=1e-8)


def test_spike_far_below_the_region_span():
    f, spike, exact = _gaussian_spike(1e10, 0.4)
    assert _one(f, Interval(-math.inf, math.inf), spike) == pytest.approx(exact, abs=1e-8)


def test_spike_at_the_grain_of_the_tan_map():
    # theta next to x = 1234.5 steps ~3e-10 in x, 1/200 of the spike's sd:
    # the integrand itself is sampled no finer than that
    f, spike, exact = _gaussian_spike(1e14, 1234.5)
    assert _one(f, Interval(-math.inf, math.inf), spike) == pytest.approx(exact, abs=1e-4)


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
        _one(f, Interval(0.0, 1.0), [(0.0, 0.1)])
    assert math.isfinite(err.value.best_log_estimate)
    # true integral is 10; the carried estimate must be in the vicinity
    assert err.value.best_log_estimate == pytest.approx(math.log(10.0), abs=0.5)
    assert err.value.log_error_bound > -math.inf
    assert "piece (0, 1)" in str(err.value)
    # one call per refinement round, and the whole budget spent
    assert len(sizes) <= 1 + 4
    assert _bisections(sizes) == 4


def test_error_names_each_unconverged_piece_in_x(monkeypatch):
    # the singularity at the cut leaves both pieces short; the (-inf, b)
    # map runs against x, but the pieces are named in x
    f = lambda x: -0.9 * np.log(np.abs(x + 0.19)) - 2.0 * np.log1p(x * x)
    monkeypatch.setattr(quadrature, "_MAX_SUBDIVISIONS", 4)
    with pytest.raises(QuadratureError) as err:
        _one(f, Interval(-math.inf, 0.0), [(-0.19, 0.1)], cuts=(-0.19,))
    message = str(err.value)
    assert "piece (-inf, -0.19)" in message and "piece (-0.19, 0)" in message
    assert message.index("piece (-inf, -0.19)") < message.index("piece (-0.19, 0)")


def test_round_is_cut_to_the_remaining_budget(monkeypatch):
    # many oscillations per initial panel: the second round wants more
    # bisections than a budget of 5 leaves after the first
    f = lambda x: np.log(2.0 + np.sin(200.0 * x))
    free, free_sizes = _recording(f)
    integrate_log(free, Interval(0.0, 1.0), (), [])
    first, second = free_sizes[1] // 30, free_sizes[2] // 30
    budget = first + 1
    assert second > 1
    # batching makes far fewer calls than one per bisected panel
    assert len(free_sizes) < _bisections(free_sizes)

    capped, sizes = _recording(f)
    monkeypatch.setattr(quadrature, "_MAX_SUBDIVISIONS", budget)
    with pytest.raises(QuadratureError):
        _one(capped, Interval(0.0, 1.0), [])
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
    peaks = [(-2.0, 0.05), (0.0, 1.0), (1.0, 1.0), (2.0, 0.05)]
    got = integrate_log(f, Interval(-math.inf, math.inf), (0.0,), peaks)
    for column, want in zip(got, exact):
        assert column == pytest.approx(want, abs=1e-8)


def test_columns_share_one_point_layout():
    # every call takes one 1-D array of abscissae for all columns, laid out
    # as for a plain integrand, whatever the number of columns
    base = lambda x: np.log(2.0 + np.sin(200.0 * x))
    plain, plain_sizes = _recording(base)
    integrate_log(plain, Interval(0.0, 1.0), (), [])
    for m in (1, 4, 50):
        def f(x):
            assert np.ndim(x) == 1
            return base(x)[None, :] * np.linspace(1.0, 2.0, m)[:, None]
        recorded, sizes = _recording(f)
        assert len(integrate_log(recorded, Interval(0.0, 1.0), (), [])) == m
        assert _bisections(sizes) > 0
        if m == 1:
            assert sizes == plain_sizes


def test_columns_that_converge_keep_their_results(monkeypatch):
    # only the column with the x^-0.9 endpoint singularity runs out of
    # subdivisions; the smooth one keeps its result
    f = lambda x: np.stack([-0.9 * np.log(x), -x * x])
    monkeypatch.setattr(quadrature, "_MAX_SUBDIVISIONS", 4)
    singular, smooth = integrate_log(f, Interval(0.0, 1.0), (), [(0.0, 0.1)])
    assert isinstance(singular, QuadratureError) and "piece (0, 1)" in str(singular)
    assert singular.best_log_estimate == pytest.approx(math.log(10.0), abs=0.5)
    assert smooth == pytest.approx([math.log(math.sqrt(math.pi) / 2.0 * math.erf(1.0))],
                                   abs=1e-10)


def test_nan_integrand_raises():
    for bad in (np.nan, np.inf):
        f = lambda x: np.where(x > 0.5, bad, 0.0)
        with pytest.raises(QuadratureError, match="NaN or \\+inf"):
            integrate_log(f, Interval(0.0, 1.0), (), [])


def test_interval_validation():
    with pytest.raises(ValueError):
        Interval(1.0, 1.0)
    with pytest.raises(ValueError):
        Interval(2.0, -2.0)
    with pytest.raises(ValueError):
        Interval(math.nan, 1.0)
    assert not Interval(-math.inf, 0.0).is_finite
    assert Interval(0.0, 1.0).is_finite
