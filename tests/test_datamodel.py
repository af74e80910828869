import math
import sys

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_raw, raw_with_exact_moments
from twogroupbf.datamodel import (
    DerivedStats,
    RawGroups,
    SummaryCi,
    SummaryMoments,
    ValidationError,
    _max_abs_t,
    _moments,
    derive_stats,
    pooled_sd,
    sd_from_ci,
    standardize_margin,
)
from twogroupbf.specfun import student_t_quantile


class TestPooledSd:
    def test_equal_groups_identity(self):
        s = SummaryMoments(40, 40, 0.0, 1.0, 1.7, 1.7)
        assert pooled_sd(s) == pytest.approx(1.7, rel=1e-15)

    def test_unit_sds(self):
        s = SummaryMoments(100, 100, 0.0, 0.5, 1.0, 1.0)
        assert pooled_sd(s) == pytest.approx(1.0, rel=1e-15)

    def test_hand_computed(self):
        s = SummaryMoments(3, 2, 0.0, 0.0, 2.0, 1.0)
        assert pooled_sd(s) == pytest.approx(math.sqrt(3.0), rel=1e-14)


class TestSdFromCi:
    def test_reference_study_reconstruction(self):
        s = SummaryCi(193, 205, 4.7, 4.8, ci_margin=0.19, ci_level=0.95)
        sd = sd_from_ci(s)
        q = student_t_quantile(0.975, 396.0)
        expected = (0.19 / q) / math.sqrt(1 / 193 + 1 / 205)
        assert sd == pytest.approx(expected, rel=1e-13)
        assert sd == pytest.approx(0.9636, abs=5e-4)
        # the standardized unit margin this implies is reported as 1.04
        assert 1.0 / sd == pytest.approx(1.04, abs=5e-3)

    def test_linearity_in_margin(self):
        a = sd_from_ci(SummaryCi(30, 35, 0.0, 0.0, ci_margin=0.4))
        b = sd_from_ci(SummaryCi(30, 35, 0.0, 0.0, ci_margin=0.8))
        assert b == pytest.approx(2.0 * a, rel=1e-14)

    def test_roundtrip_from_known_sd(self):
        sd_true = 0.2
        n_x = n_y = 51
        q = student_t_quantile(0.975, float(n_x + n_y - 2))
        margin = q * sd_true * math.sqrt(1 / n_x + 1 / n_y)
        s = SummaryCi(n_x, n_y, 0.0, 0.0, ci_margin=margin, ci_level=0.95)
        assert sd_from_ci(s) == pytest.approx(sd_true, abs=1e-10)


class TestDeriveStats:
    def test_moments_arithmetic(self):
        st_ = derive_stats(SummaryMoments(100, 100, 0.0, 0.5, 1.0, 1.0))
        assert st_.t_obs == pytest.approx(0.5 / math.sqrt(2 / 100), rel=1e-14)
        assert st_.t_obs == pytest.approx(3.5355339, abs=1e-6)
        assert st_.df == 198.0
        assert st_.n_eff == pytest.approx(50.0, rel=1e-15)

    def test_raw_path_equals_moments_path(self):
        x = raw_with_exact_moments(12, 1.5, 0.8)
        y = raw_with_exact_moments(9, 2.1, 1.3)
        from_raw = derive_stats(RawGroups(x=x, y=y))
        from_moments = derive_stats(SummaryMoments(12, 9, 1.5, 2.1, 0.8, 1.3))
        assert from_raw.t_obs == pytest.approx(from_moments.t_obs, abs=1e-12)
        assert from_raw.sd_pooled == pytest.approx(from_moments.sd_pooled, abs=1e-12)
        assert from_raw.df == from_moments.df
        assert from_raw.n_eff == from_moments.n_eff

    def test_raw_moments_are_numpys_bit_for_bit(self):
        # the raw reduction runs np.mean's and np.std's operations without
        # their wrappers: the same bits, overflow to inf included
        rng = np.random.default_rng(30)
        for n in (2, 3, 17, 150, 5000):
            for scale in (1e-300, 1.0, 1e150, 1e307):
                x = rng.normal(rng.uniform(-5, 5), 1.0, n) * scale
                with np.errstate(over="ignore"):
                    want = (n, float(np.mean(x)), float(np.std(x, ddof=1)))
                    assert _moments(x.tolist()) == want, (n, scale)

    def test_ci_path_reference_study(self):
        st_ = derive_stats(SummaryCi(193, 205, 4.7, 4.8, ci_margin=0.19, ci_level=0.95))
        assert st_.t_obs == pytest.approx(1.035, abs=1e-3)
        assert st_.df == 396.0

    def test_orientation_is_experimental_minus_control(self):
        up = derive_stats(SummaryMoments(10, 10, 0.0, 1.0, 1.0, 1.0))
        down = derive_stats(SummaryMoments(10, 10, 1.0, 0.0, 1.0, 1.0))
        assert up.t_obs > 0.0
        assert down.t_obs == pytest.approx(-up.t_obs, rel=1e-15)

    def test_n_eff_bounded_by_smaller_group(self):
        st_ = derive_stats(SummaryMoments(4, 400, 0.0, 0.0, 1.0, 1.0))
        assert st_.n_eff <= 4.0


class TestStandardizeMargin:
    def test_already_standardized_is_identity(self):
        st_ = derive_stats(SummaryMoments(10, 10, 0.0, 0.0, 2.0, 2.0))
        assert standardize_margin(0.3, True, st_) == 0.3

    def test_divides_by_pooled_sd(self):
        st_ = derive_stats(SummaryCi(193, 205, 4.7, 4.8, ci_margin=0.19))
        assert standardize_margin(1.0, False, st_) == pytest.approx(1.0377, abs=2e-3)
        assert round(standardize_margin(1.0, False, st_), 2) == 1.04

    def test_zero(self):
        st_ = derive_stats(SummaryMoments(10, 10, 0.0, 0.0, 2.0, 2.0))
        assert standardize_margin(0.0, False, st_) == 0.0
        assert standardize_margin(0.0, True, st_) == 0.0


class TestInvariances:
    @given(st.integers(0, 2**32 - 1), st.floats(-50.0, 50.0))
    @settings(max_examples=30, deadline=None)
    def test_location_shift_leaves_t_unchanged(self, seed, shift):
        rng = np.random.default_rng(seed)
        raw = random_raw(rng)
        base = derive_stats(raw)
        moved = derive_stats(RawGroups(x=[v + shift for v in raw.x],
                                       y=[v + shift for v in raw.y]))
        assert moved.t_obs == pytest.approx(base.t_obs, abs=1e-9 * max(1, abs(shift)))

    @given(st.integers(0, 2**32 - 1), st.floats(0.01, 100.0))
    @settings(max_examples=30, deadline=None)
    def test_rescaling_leaves_t_unchanged(self, seed, c):
        rng = np.random.default_rng(seed)
        raw = random_raw(rng)
        base = derive_stats(raw)
        scaled = derive_stats(RawGroups(x=[v * c for v in raw.x],
                                        y=[v * c for v in raw.y]))
        assert scaled.t_obs == pytest.approx(base.t_obs, rel=1e-10)
        assert scaled.sd_pooled == pytest.approx(base.sd_pooled * c, rel=1e-10)
        # an unstandardized margin scaled along with the data standardizes
        # to the same value
        m = standardize_margin(0.7 * c, False, scaled)
        assert m == pytest.approx(standardize_margin(0.7, False, base), rel=1e-10)


class TestValidation:
    def test_raw_group_too_small(self):
        with pytest.raises(ValidationError):
            RawGroups(x=[1.0], y=[0.0, 1.0])

    def test_raw_zero_variance(self):
        with pytest.raises(ValidationError):
            RawGroups(x=[2.0, 2.0, 2.0], y=[0.0, 1.0])

    def test_raw_nonfinite(self):
        with pytest.raises(ValidationError):
            RawGroups(x=[0.0, math.nan], y=[0.0, 1.0])

    def test_moments_validation(self):
        with pytest.raises(ValidationError):
            SummaryMoments(1, 10, 0.0, 0.0, 1.0, 1.0)
        with pytest.raises(ValidationError):
            SummaryMoments(10, 10, 0.0, 0.0, 0.0, 1.0)

    def test_ci_validation(self):
        with pytest.raises(ValidationError):
            SummaryCi(10, 10, 0.0, 0.0, ci_margin=-0.1)
        with pytest.raises(ValidationError):
            SummaryCi(10, 10, 0.0, 0.0, ci_margin=0.2, ci_level=1.0)
        with pytest.raises(ValidationError, match="ci_level"):
            SummaryCi(10, 10, 0.0, 0.0, ci_margin=0.2, ci_level=2.0 ** -54)
        # df floor: 2+2-2 = 2 < 3
        with pytest.raises(ValidationError):
            SummaryCi(2, 2, 0.0, 0.0, ci_margin=0.2)
        for mean_x, mean_y in ((math.nan, 0.0), (0.0, math.inf), (-math.inf, 0.0)):
            with pytest.raises(ValidationError, match="means must be finite"):
                SummaryCi(10, 10, mean_x, mean_y, ci_margin=0.2)

    def test_non_integral_sizes_rejected(self):
        # and sizes past the float range, which float() cannot take
        for n_x, n_y in ((2.5, 3), (10, 10.5), (math.nan, 10), (math.inf, 10),
                         (10 ** 400 - 1, 10), (10, -10 ** 400)):
            with pytest.raises(ValidationError):
                SummaryMoments(n_x, n_y, 0.0, 1.0, 1.0, 1.0)
            with pytest.raises(ValidationError):
                SummaryCi(n_x, n_y, 0.0, 1.0, ci_margin=0.5)
        assert SummaryMoments(10.0, 12, 0.0, 1.0, 1.0, 1.0).n_x == 10
        with pytest.raises(ValidationError, match="group size n_x ~ 1e400 is too large"):
            SummaryMoments(10 ** 400 - 1, 10, 0.0, 1.0, 1.0, 1.0)

    def test_sizes_whose_sum_passes_the_float_range(self):
        # each size fits in a float, their sum does not: as ints it raised
        # OverflowError, as floats it read as a degenerate pooled variance
        for n in (10 ** 308, 1e308, 9e307):
            with pytest.raises(ValidationError, match="n_x \\+ n_y passes the float range"):
                SummaryMoments(n, n, 0.0, 1.0, 1.0, 1.0)
            with pytest.raises(ValidationError, match="n_x \\+ n_y passes the float range"):
                SummaryCi(n, n, 0.0, 1.0, ci_margin=0.5)
        assert SummaryMoments(8e307, 8e307, 0.0, 1.0, 1.0, 1.0).n_x == 8e307

    def test_t_statistic_past_the_limit(self):
        # t = 2.2e160 from moments, 1e300 from a CI, and t = 2e153 at n 20/20,
        # whose square is finite but whose ncp^2 df overflows at the peak
        for data in (SummaryMoments(10, 10, 0.0, 1.0, 1e-160, 1e-160),
                     SummaryCi(20, 20, 0.0, 0.5, ci_margin=1e-300),
                     SummaryMoments(20, 20, 0.0, 2e153 * math.sqrt(0.1), 1.0, 1.0)):
            with pytest.raises(ValidationError, match="t statistic .* is too large"):
                derive_stats(data)
        # the limit falls with df: 1.34e153 at df 2, 9.58e152 at df 38
        assert _max_abs_t(2.0) == pytest.approx(1.342e153, rel=1e-3)
        assert _max_abs_t(38.0) == pytest.approx(9.58e152, rel=1e-3)
        t = 0.999 * _max_abs_t(38.0)
        assert derive_stats(SummaryMoments(20, 20, 0.0, t * math.sqrt(0.1), 1.0, 1.0)).t_obs == (
            pytest.approx(t, rel=1e-12))

    def test_limit_at_df_past_the_overflow_of_its_terms(self):
        # 40 df overflows past df 4.5e306, which read as a limit of 0
        for df in (1e306, 1.6e308):
            want = mpmath.sqrt(mpmath.mpf(sys.float_info.max)
                               / (df + 2 * mpmath.sqrt(40 * mpmath.mpf(df)) + 80))
            assert _max_abs_t(df) == pytest.approx(float(want), rel=1e-15), df
        # n = 8e307 per group, t = 63: refused by the true limit
        with pytest.raises(ValidationError, match="computed for \\|t\\| <= 1.06 "):
            derive_stats(SummaryMoments(8e307, 8e307, 0.0, 63.0 * math.sqrt(2.0 / 8e307),
                                        1.0, 1.0))

    def test_hand_built_stats_past_the_limit(self):
        # DerivedStats holds the one limit on |t|, so stats built by hand meet
        # it too, and NaN and inf with it
        for t in (2e153, -5e153, 1e154, math.inf, -math.inf, math.nan):
            with pytest.raises(ValidationError, match="at df 38 is computed for "
                                                      "\\|t\\| <= 9.58e\\+152$"):
                DerivedStats(df=38.0, sd_pooled=1.0, n_eff=10.0, t_obs=t)
        assert DerivedStats(df=38.0, sd_pooled=1.0, n_eff=10.0, t_obs=-9e152).t_obs == -9e152

    def test_unsupported_input_type(self):
        with pytest.raises(ValidationError):
            derive_stats({"n_x": 3})
