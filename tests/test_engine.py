import math
import sys
from dataclasses import replace

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_moments
from twogroupbf import engine as engine_module
from twogroupbf import quadrature as quadrature_module
from twogroupbf import specfun
from twogroupbf.datamodel import (
    HORIZON_NATS,
    DerivedStats,
    SummaryCi,
    SummaryMoments,
    ValidationError,
    _max_abs_t,
    derive_stats,
)
from twogroupbf.engine import (
    DEFAULT_PRIOR_SCALE,
    DESIGN_FIELDS,
    CauchyPrior,
    TestSpec,
    equiv_bf,
    get_bf,
    infer_bf,
    posterior_log_density,
    prior_sweep,
    savage_dickey_bf,
    super_bf,
)
from twogroupbf.oracle import GridSpec, default_span, grid_bf
from twogroupbf.quadrature import integrate_log
from twogroupbf.report import render_json
from twogroupbf.specfun import noncentral_t_logpdf

STUDY_51 = SummaryMoments(100, 100, 0.0, 0.5, 1.0, 1.0)
STUDY_47 = SummaryCi(193, 205, 4.7, 4.8, ci_margin=0.19, ci_level=0.95)


def _peaks(stats, prior):
    """The likelihood's peak and the prior spike, as quadrature features."""
    sqrt_n = math.sqrt(stats.n_eff)
    return [(stats.t_obs / sqrt_n, 1.0 / sqrt_n, math.inf), (0.0, prior.scale, math.inf)]


def test_the_joint_leaves_the_density_s_array_as_it_was(monkeypatch):
    """The engine adds the likelihood into the prior's fresh array: an
    array the density returns, here a view of one it keeps, is not written."""
    store = np.zeros(1000)
    returned = []

    def density(t, df, ncp):
        out = store[:ncp.size]
        out[...] = noncentral_t_logpdf(t, df, ncp)
        returned.append(out.copy())
        return out

    monkeypatch.setattr(specfun, "noncentral_t_logpdf", density)
    stats = derive_stats(STUDY_51)
    joint, _ = engine_module._log_joint(stats, stats.t_obs, [0.5, 1.0, 2.0])
    values = joint(np.linspace(-1.0, 1.0, 50))
    assert values.shape == (3, 50)
    assert np.array_equal(store[:50], returned[0])


class TestPosteriorDensity:
    def test_normalizes_over_full_line(self):
        stats = derive_stats(STUDY_51)
        prior = CauchyPrior(scale=0.5)
        (total,), = integrate_log(
            lambda d: posterior_log_density(d, stats, prior),
            (-math.inf, math.inf), _peaks(stats, prior),
        )
        assert total == pytest.approx(0.0, abs=1e-8)

    def test_symmetric_when_t_is_zero(self):
        stats = derive_stats(SummaryMoments(20, 20, 1.0, 1.0, 1.0, 1.0))
        assert stats.t_obs == 0.0
        prior = CauchyPrior()
        d = np.array([0.3, 1.1, 2.7])
        left = posterior_log_density(-d, stats, prior)
        right = posterior_log_density(d, stats, prior)
        np.testing.assert_allclose(left, right, atol=1e-10)

    def test_mode_matches_grid_search(self):
        """Continuous mode against an argmax over a 1e6-point grid of the
        unnormalized posterior evaluated by the oracle's own likelihood."""
        from twogroupbf.oracle import _loglik_on_grid

        stats = derive_stats(STUDY_51)
        prior = CauchyPrior(scale=0.5)
        grid = np.linspace(-1.0, 2.0, 1_000_001)
        log_post = _loglik_on_grid(stats.t_obs, stats.df, grid * math.sqrt(stats.n_eff))
        log_post = log_post + prior.logpdf(grid)
        grid_mode = grid[int(np.argmax(log_post))]

        # golden-section on the engine's density
        lo, hi = -1.0, 2.0
        phi = (math.sqrt(5.0) - 1.0) / 2.0
        f = lambda d: float(posterior_log_density(d, stats, prior))
        a, b = lo, hi
        c, d_ = b - phi * (b - a), a + phi * (b - a)
        fc, fd = f(c), f(d_)
        for _ in range(80):
            if fc > fd:
                b, d_, fd = d_, c, fc
                c = b - phi * (b - a)
                fc = f(c)
            else:
                a, c, fc = c, d_, fd
                d_ = a + phi * (b - a)
                fd = f(d_)
        engine_mode = (a + b) / 2.0
        assert engine_mode == pytest.approx(grid_mode, abs=1e-4)


class TestSuperiority:
    def test_prior_scale_half(self):
        bf = get_bf(super_bf(STUDY_51, TestSpec.superiority(), prior_scale=0.5))
        assert bf == pytest.approx(51.6, rel=5e-3)

    def test_prior_scale_five(self):
        bf = get_bf(super_bf(STUDY_51, TestSpec.superiority(), prior_scale=5.0))
        assert bf == pytest.approx(9.9, rel=1e-2)

    def test_one_sided_mirror_identity(self):
        spec_high = TestSpec.superiority(direction="high", alternative="one_sided")
        spec_low = TestSpec.superiority(direction="low", alternative="one_sided")
        a = super_bf(SummaryMoments(14, 9, 0.1, 0.8, 1.0, 1.2), spec_high)
        b = super_bf(SummaryMoments(14, 9, 0.8, 0.1, 1.0, 1.2), spec_low)
        assert a.log_bf == pytest.approx(b.log_bf, abs=1e-10)

    def test_one_sided_beats_two_sided_when_aligned(self):
        data = SummaryMoments(30, 30, 0.0, 0.6, 1.0, 1.0)
        one = super_bf(data, TestSpec.superiority(alternative="one_sided"))
        two = super_bf(data, TestSpec.superiority(alternative="two_sided"))
        assert one.log_bf > two.log_bf

    def test_monotone_in_mean_difference(self):
        spec = TestSpec.superiority(direction="high", alternative="one_sided")
        bfs = [
            super_bf(SummaryMoments(25, 25, 0.0, d, 1.0, 1.0), spec).log_bf
            for d in np.linspace(0.1, 1.0, 10)
        ]
        assert all(b2 > b1 for b1, b2 in zip(bfs, bfs[1:]))

    def test_result_metadata(self):
        res = super_bf(STUDY_51, TestSpec.superiority(), prior_scale=0.5)
        assert res.orientation == "bf10"
        assert res.design == "superiority"
        assert res.input_mode == "summary-moments"
        assert res.margin_std is None

    def test_wrong_spec_rejected(self):
        with pytest.raises(ValidationError):
            super_bf(STUDY_51, TestSpec.non_inferiority(1.0))


class TestTinyPriorScale:
    # n 10/10, d = 1: as the prior scale s shrinks, H1 closes in on the
    # point null and ln BF10 on 0, along a law fixed by the likelihood at 0;
    # a prior spike narrower than the quadrature's panels shows as a jump
    DATA = SummaryMoments(10, 10, 0.0, 1.0, 1.0, 1.0)

    def _log_bf(self, alternative, scale):
        return super_bf(self.DATA, TestSpec.superiority(alternative=alternative), scale).log_bf

    def test_two_sided_log_bf_is_linear_in_the_scale(self):
        # the slope of ln L at 0 cancels over the symmetric prior
        ratios = [self._log_bf("two_sided", s) / s for s in (1e-4, 1e-6, 1e-8, 1e-10)]
        assert ratios == pytest.approx([ratios[0]] * 4, rel=1e-3)

    def test_one_sided_log_bf_grows_like_scale_log_scale(self):
        # over the half-Cauchy the slope a of ln L at 0 survives:
        # ln BF10 ~ s (2a/pi) ln(1/s) + c s, so ln BF10 / s steps by
        # (2a/pi) ln 100 per factor of 100 in s.  For a noncentral t,
        # a = sqrt(n_eff) t / sqrt(t^2 + df) sqrt(2) Gamma(df/2 + 1) / Gamma((df + 1)/2)
        stats = derive_stats(self.DATA)
        t, df = stats.t_obs, stats.df
        a = (math.sqrt(stats.n_eff) * t / math.sqrt(t * t + df) * math.sqrt(2.0)
             * math.exp(math.lgamma(df / 2.0 + 1.0) - math.lgamma((df + 1.0) / 2.0)))
        ratios = [self._log_bf("one_sided", s) / s for s in (1e-6, 1e-8, 1e-10)]
        steps = np.diff(ratios)
        assert steps == pytest.approx([2.0 * a / math.pi * math.log(100.0)] * 2, rel=1e-3)

    @pytest.mark.parametrize("alternative", ["two_sided", "one_sided"])
    def test_vanishing_scale_gives_unit_bf(self, alternative):
        for scale in (1e-20, 1e-100, 1e-300):
            assert abs(self._log_bf(alternative, scale)) <= 1e-7

    @pytest.mark.parametrize("alternative", ["two_sided", "one_sided"])
    def test_far_spike_follows_the_tail_law(self, alternative):
        """t = -2.5e107 at df 384: at scales far below |delta*| ~ 1.3e106 the
        prior's spike holds no likelihood, so ln BF10(s) = ln BF10(1e-10) +
        ln(s / 1e-10).  These scales put (delta / s)^2 past the float range,
        where it once read as a prior density of zero."""
        data = SummaryMoments(50, 336, 0.0, -3.8e106, 1.0, 1.0)
        spec = TestSpec.superiority(direction="low", alternative=alternative)
        base = super_bf(data, spec, 1e-10).log_bf
        for scale in (1e-100, 1e-200, 1.5e-298):
            law = base + math.log(scale / 1e-10)
            assert super_bf(data, spec, scale).log_bf == pytest.approx(law, rel=1e-12)


class TestHugePriorScale:
    """n 20/20, d = 0.5: at scales far above the likelihood's peak the prior
    is flat across it, at height 1 / (pi s), so ln BF10(s) = ln BF10(1e300) -
    ln(s / 1e300) for either alternative, and the point null's BF01 mirrors
    it.  Past max / pi ~ 5.72e307, pi s overflowed and these scales once
    ended in a non-finite log Bayes factor."""
    DATA = SummaryMoments(20, 20, 0.0, 0.5, 1.0, 1.0)
    SCALES = (5.8e307, 1e308, 1.7e308, sys.float_info.max)

    @pytest.mark.parametrize("alternative", ["two_sided", "one_sided"])
    def test_superiority_follows_the_wide_prior_law(self, alternative):
        spec = TestSpec.superiority(alternative=alternative)
        base = super_bf(self.DATA, spec, 1e300).log_bf
        for scale in self.SCALES:
            law = base - math.log(scale / 1e300)
            assert super_bf(self.DATA, spec, scale).log_bf == pytest.approx(law, rel=1e-12)

    def test_point_null_follows_the_mirrored_law(self):
        spec = TestSpec.equivalence(0.0)
        base = equiv_bf(self.DATA, spec, 1e300).log_bf
        for scale in self.SCALES:
            law = base + math.log(scale / 1e300)
            assert equiv_bf(self.DATA, spec, scale).log_bf == pytest.approx(law, rel=1e-12)


HUGE_T = (1e12, 1e14, 1e16, 1e18, 1e30, 1e150)


class TestHugeT:
    # n 20/20 (df 38): for t far past the prior's scale the marginal falls as
    # the Cauchy tail, t^-2, and the point null as t^-(df+1), so
    # ln BF10 = C + (df - 1) ln t + O(t^-2) for either alternative
    @staticmethod
    def _at(t, alternative):
        base = derive_stats(SummaryCi(20, 20, 0.0, 0.5, ci_margin=1.0)).t_obs
        data = SummaryCi(20, 20, 0.0, 0.5, ci_margin=base / t)
        stats = derive_stats(data)
        log_bf = super_bf(data, TestSpec.superiority(alternative=alternative)).log_bf
        return log_bf - (stats.df - 1.0) * math.log(stats.t_obs)

    @pytest.mark.parametrize("alternative", ["two_sided", "one_sided"])
    def test_log_bf_follows_the_large_t_law(self, alternative):
        c = self._at(1e6, alternative)
        for t in (1e7, 1e8, 1e9, 1e10, 1e11, *HUGE_T):
            assert self._at(t, alternative) == pytest.approx(c, abs=1e-6)

    def test_one_sided_is_two_sided_plus_ln_2(self):
        # all of the likelihood lies on delta > 0, where the one-sided prior
        # is twice as dense
        for t in HUGE_T:
            assert self._at(t, "one_sided") - self._at(t, "two_sided") == pytest.approx(
                math.log(2.0), abs=1e-12)

    def test_hand_built_stats_follow_the_law_up_to_the_limit(self):
        # the posterior at delta = 0 falls as t^-(df - 1): ln p(0) + 37 ln t is
        # flat up to the limit on |t|, and stats past it cannot be built, so no
        # density or curve reads a wrong value there
        prior = CauchyPrior(DEFAULT_PRIOR_SCALE)

        def at(t):
            stats = DerivedStats(df=38.0, sd_pooled=1.0, n_eff=10.0, t_obs=t)
            return posterior_log_density(0.0, stats, prior) + 37.0 * math.log(t)

        assert at(1e150) == pytest.approx(69.529178, abs=1e-6)
        for t in (1e151, 1e152, 9e152, 0.999999 * _max_abs_t(38.0)):
            assert at(t) == pytest.approx(at(1e150), abs=1e-9)
        for t in (2e153, 5e153, 1e154):
            with pytest.raises(ValidationError, match="computed for \\|t\\| <= 9.58e\\+152"):
                at(t)

    @pytest.mark.parametrize("n", [2, 20, 5000, 1_000_000])
    def test_law_holds_up_to_the_limit_on_t(self, n):
        # just inside _max_abs_t the likelihood's peak is still in the float
        # range at every df; just past it the input is refused
        def log_bf_less_law(t):
            sd = 1.0 / (t * math.sqrt(2.0 / n))
            data = SummaryMoments(n, n, 0.0, 1.0, sd, sd)
            stats = derive_stats(data)
            log_bf = super_bf(data, TestSpec.superiority()).log_bf
            return log_bf - (stats.df - 1.0) * math.log(stats.t_obs)

        limit = _max_abs_t(2.0 * n - 2.0)
        c = log_bf_less_law(1e12)
        assert log_bf_less_law(0.999999 * limit) == pytest.approx(c, abs=1e-6)
        with pytest.raises(ValidationError, match="is too large"):
            log_bf_less_law(1.000001 * limit)


def _megatrial(n, t):
    """Equal groups of n with unit sds and t statistic t."""
    return SummaryMoments(n, n, 0.0, t * math.sqrt(2.0 / n), 1.0, 1.0)


class TestLikelihoodReach:
    """The likelihood's reach trims the panels around its peak and nothing
    else: every Bayes factor matches the one from the full ladder, an
    unbounded reach, to 1e-12 relative."""

    @staticmethod
    def _with_and_without(monkeypatch, compute):
        """compute()'s log BFs and density points, with the likelihood's reach
        and then with an unbounded one."""
        points = []
        density = specfun.noncentral_t_logpdf
        monkeypatch.setattr(specfun, "noncentral_t_logpdf",
                            lambda t, df, ncp: points.append(np.size(ncp)) or density(t, df, ncp))
        runs = []
        for horizon in (HORIZON_NATS, math.inf):
            monkeypatch.setattr(engine_module, "HORIZON_NATS", horizon)
            points.clear()
            runs.append((np.atleast_1d(compute()), sum(points)))
        return runs

    def _assert_unchanged(self, monkeypatch, compute):
        (reach, reach_points), (full, full_points) = self._with_and_without(monkeypatch, compute)
        assert np.all(np.abs(reach - full) <= 1e-12 * np.maximum(1.0, np.abs(full)))
        assert reach_points <= full_points
        return reach_points, full_points

    @pytest.mark.parametrize("df", [2.0, 38.0, 396.0, 2e4, 2e6])
    def test_the_bound_the_reach_rests_on(self, df):
        """ln f = -ncp^2 / 2 + ln Z(ncp t / sqrt(t^2 + df)) with Z strongly
        log-concave, so in ncp ln f has curvature within [-1, -df / (df + t^2)];
        its peak lies within the feature's width of t, so at t +- reach it has
        fallen HORIZON_NATS below the peak."""
        for t in (0.0, 2.0, -2.0, 25.0, -25.0, 1e3):
            stats = DerivedStats(df=df, sd_pooled=1.0, n_eff=1.0, t_obs=t)  # delta = ncp
            _, ((x, width, reach), _) = engine_module._log_joint(stats, t, [1.0])
            assert x == t
            ncp = t + reach * np.linspace(-1.5, 1.5, 601)
            h = ncp[1] - ncp[0]
            y = noncentral_t_logpdf(t, df, ncp)
            second = (y[2:] - 2.0 * y[1:-1] + y[:-2]) / (h * h)
            rounding = 64.0 * np.spacing(np.abs(y).max()) / (h * h)
            assert second.min() >= -1.0 - rounding, (t, second.min())
            assert second.max() <= -df / (df + t * t) + rounding, (t, second.max())
            # concave, so the peak lies within h of the grid's best node
            assert abs(ncp[y.argmax()] - t) <= width - h, (t, ncp[y.argmax()] - t, width)
            ends = noncentral_t_logpdf(t, df, np.array([t - reach, t + reach]))
            assert np.all(y.max() - ends >= HORIZON_NATS), (t, y.max() - ends)

    @pytest.mark.parametrize("n", [10_000, 100_000, 1_000_000, 10_000_000, 100_000_000])
    def test_megatrial_superiority(self, monkeypatch, n):
        for t in (0.0, 3.0, -7.0, 25.0):
            for alternative in ("two_sided", "one_sided"):
                spec = TestSpec.superiority(alternative=alternative)
                points = self._assert_unchanged(
                    monkeypatch, lambda: super_bf(_megatrial(n, t), spec).log_bf)
                if alternative == "two_sided":
                    assert points[0] < points[1], (t, points)

    @pytest.mark.parametrize("t", [-5.0, 5.0])
    def test_non_inferiority_margin_inside_and_outside_the_reach(self, monkeypatch, t):
        # the cut at -margin lies k reaches from the likelihood's peak, on
        # whichever side of it the margin allows
        n = 1_000_000
        stats = derive_stats(_megatrial(n, t))
        sqrt_n = math.sqrt(stats.n_eff)
        _, ((_, _, reach), _) = engine_module._log_joint(stats, t, [1.0])
        for k in (0.1, 0.5, 0.9, 1.1, 3.0, 1e3):
            cut = t / sqrt_n + (k if t < 0.0 else -k) * reach
            if cut > 0.0:
                continue
            spec = TestSpec.non_inferiority(-cut, standardized=True)
            self._assert_unchanged(monkeypatch, lambda: infer_bf(_megatrial(n, t), spec).log_bf)

    def test_equivalence_sweep_and_extreme_scales(self, monkeypatch):
        data = _megatrial(1_000_000, 5.0)
        for half_width in (0.001, 0.005, 0.02, 0.1):
            spec = TestSpec.equivalence(half_width, standardized=True)
            self._assert_unchanged(monkeypatch, lambda: equiv_bf(data, spec).log_bf)
        spec = TestSpec.superiority()
        scales = [0.1 * 100.0 ** (k / 9.0) for k in range(10)]
        self._assert_unchanged(monkeypatch, lambda: [
            e.result.log_bf for e in prior_sweep(data, spec, scales).entries])
        for scale in (1e-6, 1e3):
            self._assert_unchanged(monkeypatch, lambda: super_bf(data, spec, scale).log_bf)
        for alternative in ("two_sided", "one_sided"):
            self._assert_unchanged(monkeypatch, lambda: TestHugeT._at(1e12, alternative))

    def test_fewer_points_on_a_megatrial_the_same_on_the_reference_study(self, monkeypatch):
        spec = TestSpec.superiority()
        (_, reach), (_, full) = self._with_and_without(
            monkeypatch, lambda: super_bf(_megatrial(1_000_000, 3.0), spec).log_bf)
        assert reach < 0.7 * full
        spec = TestSpec.non_inferiority(1.0, direction="low")
        (with_reach, reach), (without, full) = self._with_and_without(
            monkeypatch, lambda: infer_bf(STUDY_47, spec).log_bf)
        assert reach == full and with_reach.tolist() == without.tolist()


class TestNonInferiority:
    def test_zero_margin_prior_odds_are_even(self):
        assert CauchyPrior().mass(0.0, math.inf) == 0.5
        data = SummaryMoments(18, 22, 0.3, 0.55, 1.0, 1.1)
        res = infer_bf(data, TestSpec.non_inferiority(0.0, standardized=True))
        # with even prior odds the BF is the posterior odds at zero
        stats = derive_stats(data)
        prior = CauchyPrior()
        (above,), = integrate_log(lambda d: posterior_log_density(d, stats, prior),
                                  (0.0, math.inf), _peaks(stats, prior))
        (below,), = integrate_log(lambda d: posterior_log_density(d, stats, prior),
                                  (-math.inf, 0.0), _peaks(stats, prior))
        assert res.log_bf == pytest.approx(above - below, abs=1e-8)

    def test_small_instance_against_grid_oracle(self):
        data = SummaryMoments(5, 5, 0.0, 0.1, 1.0, 1.0)
        spec = TestSpec.non_inferiority(0.5, standardized=True)
        engine = infer_bf(data, spec)
        prior = CauchyPrior()
        oracle = grid_bf(derive_stats(data), prior, spec,
                         GridSpec(span=default_span(prior), nodes=1_000_001))
        assert engine.log_bf == pytest.approx(math.log(oracle), abs=1e-6)

    def test_far_tail_margin_gives_the_gaussian_tail(self):
        # a margin far past the data leaves H0 only the likelihood's tail
        # at the cut, so ln BF10 = (margin sqrt(n_eff))^2 / 2 to leading order
        data = SummaryMoments(50, 50, 0.0, 0.3, 1.0, 1.0)
        sqrt_n = math.sqrt(derive_stats(data).n_eff)
        for margin, scale in ((1e10, 0.707), (1e10, 1e125), (1e74, 1e125)):
            res = infer_bf(data, TestSpec.non_inferiority(margin, standardized=True),
                           prior_scale=scale)
            assert res.log_bf == pytest.approx((margin * sqrt_n) ** 2 / 2.0, rel=1e-12)

    def test_margin_growth_never_decreases_evidence(self):
        data = SummaryMoments(20, 20, 0.5, 0.45, 1.0, 1.0)
        bfs = [
            infer_bf(data, TestSpec.non_inferiority(m, standardized=True)).log_bf
            for m in (0.0, 0.2, 0.4, 0.6, 0.8, 1.0)
        ]
        assert all(b2 >= b1 - 1e-12 for b1, b2 in zip(bfs, bfs[1:]))

    def test_margins_stored_in_both_unit_systems(self):
        res = infer_bf(STUDY_47, TestSpec.non_inferiority(1.0, direction="low"))
        assert res.margin_unstd == 1.0
        assert res.margin_std == pytest.approx(1.0377, abs=2e-3)
        res_std = infer_bf(STUDY_47, TestSpec.non_inferiority(0.5, standardized=True,
                                                              direction="low"))
        assert res_std.margin_std == 0.5
        stats = derive_stats(STUDY_47)
        assert res_std.margin_unstd == pytest.approx(0.5 * stats.sd_pooled, rel=1e-12)

    def test_reference_study_batches_its_density_calls(self, monkeypatch):
        # one call for the initial panels and one per refinement round; a
        # call per GK15 panel would make ~30
        from twogroupbf import specfun

        calls = []
        density = specfun.noncentral_t_logpdf
        monkeypatch.setattr(specfun, "noncentral_t_logpdf",
                            lambda *args: calls.append(1) or density(*args))
        res = infer_bf(STUDY_47, TestSpec.non_inferiority(1.0, direction="low"))
        assert f"{res.log_bf:.4f}" == "46.1335"
        assert len(calls) <= 3

    def test_degenerate_margin_rejected(self):
        with pytest.raises(ValidationError):
            infer_bf(
                SummaryMoments(10, 10, 0.0, 0.1, 1.0, 1.0),
                TestSpec.non_inferiority(1e16, standardized=True),
                prior_scale=1e-3,
            )


class TestEquivalence:
    def test_point_null_duality_with_two_sided_superiority(self):
        rng = np.random.default_rng(99)
        for _ in range(10):
            data = random_moments(rng)
            e = equiv_bf(data, TestSpec.equivalence(0.0))
            s = super_bf(data, TestSpec.superiority(alternative="two_sided"))
            # both come from the same marginal and the same point likelihood
            assert e.log_bf == -s.log_bf

    def test_small_instance_against_grid_oracle(self):
        data = SummaryMoments(10, 10, 0.0, 0.05, 1.0, 1.0)
        spec = TestSpec.equivalence(0.3, standardized=True)
        engine = equiv_bf(data, spec)
        prior = CauchyPrior()
        oracle = grid_bf(derive_stats(data), prior, spec,
                         GridSpec(span=default_span(prior), nodes=1_000_001))
        assert engine.log_bf == pytest.approx(math.log(oracle), abs=1e-6)

    def test_huge_interval_absorbs_the_marginal_likelihood(self):
        # as the interval absorbs all prior mass, the H0 marginal tends to
        # the unrestricted one and the posterior sits entirely inside
        data = SummaryMoments(10, 10, 0.0, 0.05, 1.0, 1.0)
        stats = derive_stats(data)
        prior = CauchyPrior()
        sqrt_n = math.sqrt(stats.n_eff)

        def joint(d):
            return noncentral_t_logpdf(stats.t_obs, stats.df, d * sqrt_n) + prior.logpdf(d)

        (inside,), = integrate_log(joint, (-50.0, 50.0), _peaks(stats, prior))
        (full,), = integrate_log(joint, (-math.inf, math.inf), _peaks(stats, prior))
        assert inside == pytest.approx(full, abs=1e-3)
        # the posterior-to-prior ratio for the inside region approaches
        # 1/p_in, i.e. the interval has absorbed all posterior mass
        p_in = prior.mass(-50.0, 50.0)
        assert math.exp(inside - full) == pytest.approx(1.0, abs=1e-6)
        assert p_in == pytest.approx(1.0, abs=1e-2)

    def test_scalar_interval_expands_symmetrically(self):
        spec = TestSpec.equivalence(0.3, standardized=True)
        assert spec.interval == (-0.3, 0.3)
        assert TestSpec.equivalence(0.0).interval == (0.0, 0.0)

    def test_asymmetric_interval_mirrors_with_direction(self):
        data_high = SummaryMoments(16, 13, 0.2, 0.5, 1.0, 1.1)
        data_low = SummaryMoments(16, 13, 0.5, 0.2, 1.0, 1.1)
        a = equiv_bf(data_high, TestSpec.equivalence((-0.5, 0.3), standardized=True,
                                                     direction="high"))
        b = equiv_bf(data_low, TestSpec.equivalence((-0.5, 0.3), standardized=True,
                                                    direction="low"))
        assert a.log_bf == pytest.approx(b.log_bf, abs=1e-10)

    def test_interval_bounds_stored_in_both_unit_systems(self):
        data = SummaryMoments(12, 12, 0.0, 0.1, 2.0, 2.0)
        res = equiv_bf(data, TestSpec.equivalence((-0.6, 0.6)))
        assert res.interval_unstd == (-0.6, 0.6)
        assert res.interval_std[1] == pytest.approx(0.3, rel=1e-12)

    def test_zero_mass_interval_rejected(self):
        data = SummaryMoments(10, 10, 0.0, 0.1, 1.0, 1.0)
        with pytest.raises(ValidationError):
            equiv_bf(data, TestSpec.equivalence(1e-9, standardized=True),
                     prior_scale=1e9)
        # an interval holding all but ~6e-20 of the prior leaves H1 empty
        with pytest.raises(ValidationError):
            equiv_bf(data, TestSpec.equivalence(1e16, standardized=True),
                     prior_scale=1e-3)

    def test_orientation_is_bf01(self):
        res = equiv_bf(SummaryMoments(10, 10, 0.0, 0.1, 1.0, 1.0),
                       TestSpec.equivalence(0.3, standardized=True))
        assert res.orientation == "bf01"


class TestPriorMass:
    @pytest.mark.parametrize("ratio", [10.0 ** k for k in range(2, 15)])
    def test_tails_against_mpmath(self, ratio):
        for scale in (1e-5, DEFAULT_PRIOR_SCALE, 3.0):
            prior = CauchyPrior(scale)
            x = ratio * scale
            with mpmath.workdps(50):
                tail = mpmath.atan(mpmath.mpf(scale) / mpmath.mpf(x)) / mpmath.pi
                body = 1 - tail
            for got, exact in ((prior.mass(-math.inf, -x), tail),
                               (prior.mass(x, math.inf), tail),
                               (prior.mass(-x, math.inf), body),
                               (prior.mass(-math.inf, x), body)):
                assert got == pytest.approx(float(exact), rel=1e-13, abs=0.0)

    def test_halves_and_whole_line_are_exact(self):
        prior = CauchyPrior(0.3)
        assert prior.mass(-math.inf, math.inf) == 1.0
        for lower, upper in ((0.0, math.inf), (-0.0, math.inf), (-math.inf, 0.0),
                             (-math.inf, -0.0)):
            assert prior.mass(lower, upper) == 0.5

    def test_center_and_quartiles(self):
        for r in (0.2, 1.0, 5.0):
            prior = CauchyPrior(r)
            assert prior.mass(0.0, math.inf) == 0.5
            # half the mass lies between -r and r
            assert prior.mass(-r, r) == pytest.approx(0.5, abs=1e-15)
            assert prior.mass(0.0, r) == pytest.approx(0.25, abs=1e-15)
            assert prior.mass(-math.inf, r) == pytest.approx(0.75, abs=1e-15)

    def test_limits(self):
        prior = CauchyPrior(2.0)
        assert prior.mass(-math.inf, math.inf) == 1.0
        assert prior.mass(-math.inf, -math.inf) == 0.0
        assert prior.mass(math.inf, math.inf) == 0.0

    @given(st.floats(-1e12, 1e12), st.floats(0.01, 100.0))
    @settings(max_examples=200, deadline=None)
    def test_reflection(self, x, r):
        prior = CauchyPrior(r)
        assert prior.mass(x, math.inf) == prior.mass(-math.inf, -x)
        assert prior.mass(-math.inf, x) + prior.mass(-math.inf, -x) == pytest.approx(1.0, abs=1e-14)

    def test_monotone(self):
        prior = CauchyPrior(0.7)
        below = [prior.mass(-math.inf, x) for x in np.linspace(-50, 50, 10_001)]
        assert np.all(np.diff(below) >= 0.0)

    @pytest.mark.parametrize("scale", [1e-3, 1e-4, 1e-5])
    def test_far_tail_margin_against_mpmath_masses(self, scale):
        # the margin sits 1e9 to 1e11 prior scales out; the prior odds of
        # its two sides must not lose digits to cancellation
        data = SummaryMoments(50, 50, 0.0, -1e6, 1.0, 1.0)
        res = infer_bf(data, TestSpec.non_inferiority(1e6, standardized=True),
                       prior_scale=scale)
        stats = derive_stats(data)
        prior = CauchyPrior(scale)
        sqrt_n = math.sqrt(stats.n_eff)

        def log_mass(y):
            # a dense trapezoid in y = ln|delta| on the negative side, where
            # the likelihood peaks at the margin with a relative width ~0.07;
            # the positive side is thousands of nats down
            delta = -np.exp(y)
            v = (noncentral_t_logpdf(stats.t_obs, stats.df, delta * sqrt_n)
                 + prior.logpdf(delta) + y)
            top = v.max()
            return top + math.log(np.trapezoid(np.exp(v - top), y))

        cut = math.log(1e6)
        log_below = log_mass(np.linspace(cut, cut + 8.0, 1_000_001))
        log_above = log_mass(np.linspace(cut - 8.0, cut, 1_000_001))
        with mpmath.workdps(50):
            tail = mpmath.atan(mpmath.mpf(scale) / mpmath.mpf(1e6)) / mpmath.pi
            log_prior_odds = float(mpmath.log((1 - tail) / tail))
        assert res.log_bf == pytest.approx(log_above - log_below - log_prior_odds, abs=1e-9)


class TestSavageDickey:
    def test_reciprocal_of_two_sided_superiority(self):
        stats = derive_stats(STUDY_51)
        bf01 = savage_dickey_bf(stats, CauchyPrior(scale=0.5), 0.0)
        assert bf01 == pytest.approx(1.0 / 51.6, rel=5e-3)

    def test_matches_marginal_likelihood_route(self):
        rng = np.random.default_rng(4)
        for _ in range(5):
            data = random_moments(rng)
            stats = derive_stats(data)
            sd = savage_dickey_bf(stats, CauchyPrior(), 0.0)
            ml = 1.0 / get_bf(super_bf(data, TestSpec.superiority(alternative="two_sided")))
            assert sd == pytest.approx(ml, rel=1e-6)

    def test_interval_limit(self):
        data = SummaryMoments(25, 30, 0.1, 0.45, 1.0, 0.9)
        stats = derive_stats(data)
        sd = savage_dickey_bf(stats, CauchyPrior(), 0.0)
        eps = equiv_bf(data, TestSpec.equivalence(1e-4, standardized=True))
        assert get_bf(eps) == pytest.approx(sd, rel=1e-3)

    def test_equal_density_point_gives_unit_bf(self):
        stats = derive_stats(SummaryMoments(8, 8, 0.0, 0.3, 1.0, 1.0))
        prior = CauchyPrior()
        f = lambda d: float(posterior_log_density(d, stats, prior)) - float(prior.logpdf(d))
        lo, hi = 0.0, 5.0
        assert f(lo) > 0.0 > f(hi)
        for _ in range(60):
            mid = (lo + hi) / 2.0
            if f(mid) > 0.0:
                lo = mid
            else:
                hi = mid
        delta0 = (lo + hi) / 2.0
        assert savage_dickey_bf(stats, prior, delta0) == pytest.approx(1.0, rel=1e-8)

    def test_non_finite_point_rejected(self):
        stats = derive_stats(SummaryMoments(8, 8, 0.0, 0.3, 1.0, 1.0))
        for delta0 in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValidationError):
                savage_dickey_bf(stats, CauchyPrior(), delta0)


class TestDirectionMirror:
    @pytest.mark.parametrize("make_spec", [
        lambda d: TestSpec.superiority(direction=d, alternative="one_sided"),
        lambda d: TestSpec.superiority(direction=d, alternative="two_sided"),
        lambda d: TestSpec.non_inferiority(0.4, standardized=True, direction=d),
        lambda d: TestSpec.equivalence(0.35, standardized=True, direction=d),
    ])
    def test_mirroring_data_and_direction(self, make_spec):
        rng = np.random.default_rng(17)
        for _ in range(5):
            data = random_moments(rng)
            mirrored = SummaryMoments(data.n_x, data.n_y, data.mean_y, data.mean_x,
                                      data.sd_x, data.sd_y)
            run = {"superiority": super_bf, "non_inferiority": infer_bf,
                   "equivalence": equiv_bf}
            spec_h = make_spec("high")
            spec_l = make_spec("low")
            a = run[spec_h.design](data, spec_h)
            b = run[spec_l.design](mirrored, spec_l)
            assert a.log_bf == pytest.approx(b.log_bf, abs=1e-10)


class TestReciprocity:
    def test_get_bf_of_unit_log(self):
        res = replace(super_bf(STUDY_51, TestSpec.superiority(), 0.5), log_bf=0.0)
        assert get_bf(res) == 1.0

    def test_get_bf_beyond_float_range(self):
        res = super_bf(STUDY_51, TestSpec.superiority(), 0.5)
        assert get_bf(replace(res, log_bf=710.0)) == math.inf
        # math.exp raises OverflowError for an int past the float range of either sign
        for log_bf, bf in ((10**400, math.inf), (800.0, math.inf),
                           (-10**400, 0.0), (-800.0, 0.0)):
            assert get_bf(replace(res, log_bf=log_bf)) == bf, log_bf
        assert '"bf": 0.0,' in render_json(replace(res, log_bf=-10**400))


class TestPriorSweep:
    def test_singleton_matches_single_run(self):
        spec = TestSpec.superiority()
        single = super_bf(STUDY_51, spec, 0.7)
        sweep = prior_sweep(STUDY_51, spec, [0.7])
        assert sweep.entries[0].result.log_bf == single.log_bf
        assert sweep.min_log_bf == sweep.max_log_bf == single.log_bf

    def test_extrema_match_elementwise_results(self, monkeypatch):
        spec = TestSpec.superiority()
        scales = [0.25, 0.5, 1.0, 2.0]
        sweep = prior_sweep(STUDY_51, spec, scales)
        assert [e.scale for e in sweep.entries] == scales
        # the scales share one set of panels, so an entry matches its single
        # run to rounding, not bit for bit, and the grid oracle to 1e-6
        log_bfs = [e.result.log_bf for e in sweep.entries]
        stats = derive_stats(STUDY_51)
        for scale, log_bf in zip(scales, log_bfs):
            assert log_bf == pytest.approx(super_bf(STUDY_51, spec, scale).log_bf, abs=1e-12)
            prior = CauchyPrior(scale=scale)
            grid = GridSpec(span=default_span(prior), nodes=100_001)
            assert log_bf == pytest.approx(math.log(grid_bf(stats, prior, spec, grid)), abs=1e-6)
        assert sweep.min_log_bf == min(log_bfs)
        assert sweep.max_log_bf == max(log_bfs)
        # the stats, with the CI's t quantile, are derived once per sweep
        calls = []
        monkeypatch.setattr(engine_module, "derive_stats",
                            lambda data: calls.append(data) or derive_stats(data))
        sweep = prior_sweep(STUDY_47, TestSpec.non_inferiority(1.0, direction="low"), scales)
        assert len(calls) == 1
        assert all(e.result is not None for e in sweep.entries)
        # and the point null's likelihood once per sweep: the engine passes a
        # scalar t, the density its points as an array
        t_dims = []
        central = specfun.central_t_logpdf
        monkeypatch.setattr(specfun, "central_t_logpdf",
                            lambda t, df: t_dims.append(np.ndim(t)) or central(t, df))
        prior_sweep(STUDY_51, spec, scales)
        assert t_dims.count(0) == 1

    def test_per_scale_failure_is_isolated(self):
        data = SummaryMoments(10, 10, 0.0, 0.1, 1.0, 1.0)
        spec = TestSpec.equivalence(1e-4, standardized=True)
        sweep = prior_sweep(data, spec, [0.7071, 1e12])
        assert sweep.entries[0].result is not None
        assert sweep.entries[1].error is not None
        assert sweep.min_log_bf == sweep.entries[0].result.log_bf
        # input that cannot be reduced fails at every scale, not the sweep
        degenerate = SummaryMoments(10, 10, -1e308, 1e308, 1.0, 1.0)
        with pytest.raises(ValidationError) as exc:
            derive_stats(degenerate)
        assert "t statistic" in str(exc.value)
        sweep = prior_sweep(degenerate, spec, [0.5, 1.0])
        assert [e.error for e in sweep.entries] == [str(exc.value)] * 2
        assert sweep.min_log_bf is None
        # nor can a t statistic past the limit on |t| (t = 2.2e160)
        tiny_sds = SummaryMoments(10, 10, 0.0, 1.0, 1e-160, 1e-160)
        sweep = prior_sweep(tiny_sds, spec, [0.5, 1.0, 2.0])
        assert all("is too large" in e.error for e in sweep.entries)
        assert sweep.max_log_bf is None

    def test_unconverged_scale_is_isolated(self, monkeypatch):
        # an integrable singularity in the last scale's row, under a capped
        # budget, leaves only that scale unconverged
        def singular(f, edges, features):
            def g(x):
                out = f(x)
                out[-1] -= 0.9 * np.log(np.abs(x - 0.3))
                return out
            return integrate_log(g, edges, features)

        spec = TestSpec.superiority()
        monkeypatch.setattr(quadrature_module, "_MAX_SUBDIVISIONS", 20)
        monkeypatch.setattr(engine_module, "integrate_log", singular)
        sweep = prior_sweep(STUDY_51, spec, [0.5, 1.0, 2.0])
        monkeypatch.undo()
        for entry in sweep.entries[:2]:
            single = super_bf(STUDY_51, spec, entry.scale).log_bf
            assert entry.result.log_bf == pytest.approx(single, abs=1e-12)
        error = sweep.entries[2].error
        assert error.startswith("superiority at prior scale 2: quadrature did not converge "
                                "after 20 subdivisions")
        assert "piece (-inf, inf)" in error

    def test_sweep_costs_at_most_three_single_runs(self, monkeypatch):
        points = []
        density = specfun.noncentral_t_logpdf
        monkeypatch.setattr(specfun, "noncentral_t_logpdf",
                            lambda t, df, ncp: points.append(np.size(ncp)) or density(t, df, ncp))
        spec = TestSpec.non_inferiority(1.0, direction="low")
        infer_bf(STUDY_47, spec)
        single = sum(points)
        points.clear()
        sweep = prior_sweep(STUDY_47, spec, list(np.geomspace(0.1, 10.0, 50)))
        assert all(e.result is not None for e in sweep.entries)
        assert sum(points) <= 3 * single

    def test_empty_scales_rejected(self):
        with pytest.raises(ValidationError):
            prior_sweep(STUDY_51, TestSpec.superiority(), [])
        with pytest.raises(ValidationError):
            prior_sweep(STUDY_51, TestSpec.superiority(), [0.5, -1.0])


class TestSpecValidation:
    def test_exclusive_fields(self):
        with pytest.raises(ValidationError):
            TestSpec(design="superiority", alternative="two_sided", ni_margin=1.0)
        with pytest.raises(ValidationError):
            TestSpec(design="non_inferiority")
        with pytest.raises(ValidationError):
            TestSpec(design="equivalence", interval=(0.5, -0.5))
        with pytest.raises(ValidationError):
            TestSpec(design="mystery")  # type: ignore[arg-type]
        for fields, message in (
                ({"design": "superiority", "direction": "up", "alternative": "two_sided"},
                 "direction must be"),
                ({"design": "superiority"}, "superiority needs alternative"),
                ({"design": "non_inferiority", "ni_margin": 1.0, "interval": (-1.0, 1.0)},
                 "only ni_margin applies"),
                ({"design": "equivalence"}, "equivalence needs an interval"),
                ({"design": "equivalence", "interval": (-1.0, 1.0), "ni_margin": 1.0},
                 "only interval applies")):
            with pytest.raises(ValidationError, match=message):
                TestSpec(**fields)
        # each design's valid fields, plus any one field of another design set,
        # to a value that == False or None would let through: refused by name
        valid = {"superiority": {"alternative": "two_sided"},
                 "non_inferiority": {"ni_margin": 1.0, "ni_margin_std": True},
                 "equivalence": {"interval": (-1.0, 1.0), "interval_std": True}}
        stray = {"alternative": "one_sided", "ni_margin": 0.0, "ni_margin_std": True,
                 "interval": (0.0, 0.0), "interval_std": True}
        pairs = [(design, field) for design in DESIGN_FIELDS
                 for other, fields in DESIGN_FIELDS.items() if other != design for field in fields]
        assert len(pairs) == 10 and set(stray) == {f for fs in DESIGN_FIELDS.values() for f in fs}
        for design, field in pairs:
            TestSpec(design=design, **valid[design])
            with pytest.raises(ValidationError, match=f"not {field}$"):
                TestSpec(design=design, **valid[design], **{field: stray[field]})

    def test_non_finite_margins_are_rejected(self):
        # a NaN interval must not fold into the point null
        for bad in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValidationError, match="ni_margin"):
                TestSpec(design="non_inferiority", ni_margin=bad)
            with pytest.raises(ValidationError, match="interval"):
                TestSpec.equivalence(bad)
            with pytest.raises(ValidationError, match="interval"):
                TestSpec.equivalence((0.0, bad))
            with pytest.raises(ValidationError, match="interval"):
                TestSpec.equivalence((bad, 0.0))
        for bad in (math.nan, math.inf):
            with pytest.raises(ValidationError, match="ni_margin"):
                TestSpec.non_inferiority(bad)

    def test_equivalence_reads_any_0d_real_as_a_scalar(self):
        for v in (1, 1.0, -1.0, np.int64(1), np.float32(1.0), np.array(1.0)):
            assert TestSpec.equivalence(v).interval == (-1.0, 1.0)
        for v in (0, -0.0, np.int64(0)):
            assert TestSpec.equivalence(v).interval == (0.0, 0.0)

    def test_prior_validation(self):
        with pytest.raises(ValidationError):
            CauchyPrior(scale=0.0)
        with pytest.raises(ValidationError):
            CauchyPrior(scale=-2.0)
