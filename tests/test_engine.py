import math
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
from twogroupbf.datamodel import SummaryCi, SummaryMoments, ValidationError, derive_stats
from twogroupbf.engine import (
    DEFAULT_PRIOR_SCALE,
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
from twogroupbf.quadrature import Interval, integrate_log
from twogroupbf.specfun import noncentral_t_logpdf

STUDY_51 = SummaryMoments(100, 100, 0.0, 0.5, 1.0, 1.0)
STUDY_47 = SummaryCi(193, 205, 4.7, 4.8, ci_margin=0.19, ci_level=0.95)


def _peaks(stats, prior):
    """The likelihood's peak and the prior spike, as quadrature features."""
    sqrt_n = math.sqrt(stats.n_eff)
    return [(stats.t_obs / sqrt_n, 1.0 / sqrt_n), (0.0, prior.scale)]


class TestPosteriorDensity:
    def test_normalizes_over_full_line(self):
        stats = derive_stats(STUDY_51)
        prior = CauchyPrior(scale=0.5)
        (total,), = integrate_log(
            lambda d: posterior_log_density(d, stats, prior),
            Interval(-math.inf, math.inf), (), _peaks(stats, prior),
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


class TestNonInferiority:
    def test_zero_margin_prior_odds_are_even(self):
        assert CauchyPrior().mass(0.0, math.inf) == 0.5
        data = SummaryMoments(18, 22, 0.3, 0.55, 1.0, 1.1)
        res = infer_bf(data, TestSpec.non_inferiority(0.0, standardized=True))
        # with even prior odds the BF is the posterior odds at zero
        stats = derive_stats(data)
        prior = CauchyPrior()
        (above,), = integrate_log(lambda d: posterior_log_density(d, stats, prior),
                                  Interval(0.0, math.inf), (), _peaks(stats, prior))
        (below,), = integrate_log(lambda d: posterior_log_density(d, stats, prior),
                                  Interval(-math.inf, 0.0), (), _peaks(stats, prior))
        assert res.log_bf == pytest.approx(above - below, abs=1e-8)

    def test_small_instance_against_grid_oracle(self):
        data = SummaryMoments(5, 5, 0.0, 0.1, 1.0, 1.0)
        spec = TestSpec.non_inferiority(0.5, standardized=True)
        engine = infer_bf(data, spec)
        prior = CauchyPrior()
        oracle = grid_bf(derive_stats(data), prior, spec,
                         GridSpec(span=default_span(prior), nodes=1_000_001))
        assert engine.log_bf == pytest.approx(math.log(oracle), abs=1e-6)

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

        (inside,), = integrate_log(joint, Interval(-50.0, 50.0), (), _peaks(stats, prior))
        (full,), = integrate_log(joint, Interval(-math.inf, math.inf), (), _peaks(stats, prior))
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
        assert get_bf(replace(res, log_bf=-800.0)) == 0.0


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

    def test_unconverged_scale_is_isolated(self, monkeypatch):
        # an integrable singularity in the last scale's row, under a capped
        # budget, leaves only that scale unconverged
        def singular(f, region, cuts, features):
            def g(x):
                out = f(x)
                out[-1] -= 0.9 * np.log(np.abs(x - 0.3))
                return out
            return integrate_log(g, region, cuts, features)

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
