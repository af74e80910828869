import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twogroupbf import specfun
from twogroupbf.oracle import nct_logpdf_mixture
from twogroupbf.specfun import (
    DomainError,
    cauchy_logpdf,
    central_t_logpdf,
    log_gamma,
    noncentral_t_logpdf,
    student_t_cdf,
    student_t_quantile,
)


class TestLogGamma:
    def test_gamma_one_is_one(self):
        assert abs(log_gamma(1.0)) < 5e-15

    def test_gamma_half_is_sqrt_pi(self):
        assert log_gamma(0.5) == pytest.approx(math.log(math.sqrt(math.pi)), abs=1e-14)

    def test_gamma_ten_is_nine_factorial(self):
        assert log_gamma(10.0) == pytest.approx(math.log(362880.0), rel=1e-14)

    def test_accuracy_against_libm(self):
        """Relative error below 1e-13 across [1e-3, 1e6]."""
        x = np.concatenate([
            np.logspace(-3, 6, 2000),
            np.linspace(0.9, 2.1, 500),  # the zeros of ln Gamma live here
        ])
        mine = log_gamma(x)
        exact = np.array([math.lgamma(v) for v in x])
        err = np.abs(mine - exact) / np.maximum(1.0, np.abs(exact))
        assert err.max() < 1e-13

    def test_vector_matches_scalar(self):
        x = np.array([0.25, 1.0, 7.7])
        np.testing.assert_allclose(log_gamma(x), [log_gamma(v) for v in x], rtol=1e-15)

    @pytest.mark.parametrize("bad", [0.0, -1.0, math.nan])
    def test_domain(self, bad):
        with pytest.raises(DomainError):
            log_gamma(bad)


class TestCentralT:
    def test_cauchy_at_zero(self):
        assert central_t_logpdf(0.0, 1.0) == pytest.approx(-math.log(math.pi), abs=1e-14)

    def test_normal_limit(self):
        target = -0.5 * math.log(2.0 * math.pi)
        assert central_t_logpdf(0.0, 1e6) == pytest.approx(target, abs=1e-5)

    def test_closed_form_high_precision(self):
        """t=2, df=5 against a 50-digit evaluation of the density formula."""
        mpmath.mp.dps = 50
        df = mpmath.mpf(5)
        t = mpmath.mpf(2)
        ref = (
            mpmath.loggamma((df + 1) / 2)
            - mpmath.loggamma(df / 2)
            - mpmath.log(df * mpmath.pi) / 2
            - (df + 1) / 2 * mpmath.log(1 + t * t / df)
        )
        assert central_t_logpdf(2.0, 5.0) == pytest.approx(float(ref), rel=1e-12)

    @pytest.mark.parametrize("df", [8.0, 20.0, 200.0])
    def test_normalizes_on_wide_grid(self, df):
        t = np.linspace(-200.0, 200.0, 400_001)
        total = np.trapezoid(np.exp(central_t_logpdf(t, df)), t)
        assert total == pytest.approx(1.0, abs=1e-6)

    @pytest.mark.parametrize("df", [0.5, 1.0, 3.0])
    def test_normalizes_small_df(self, df):
        # power-law tails: integrate |t| <= 1 directly and map the tails
        # through s = t^(-df), which makes the tail integrand smooth in s
        t_mid = np.linspace(-1.0, 1.0, 200_001)
        mid = np.trapezoid(np.exp(central_t_logpdf(t_mid, df)), t_mid)
        s = np.linspace(1e-12, 1.0, 200_001)
        t_tail = s ** (-1.0 / df)
        log_jac = -math.log(df) + (-1.0 / df - 1.0) * np.log(s)
        tail = np.trapezoid(np.exp(central_t_logpdf(t_tail, df) + log_jac), s)
        assert mid + 2.0 * tail == pytest.approx(1.0, abs=1e-6)

    def test_large_df_against_mpmath(self):
        df = 2e6
        with mpmath.workdps(40):
            d = mpmath.mpf(df)
            const = mpmath.loggamma((d + 1) / 2) - mpmath.loggamma(d / 2) - mpmath.log(d * mpmath.pi) / 2
            for t in (0.0, 2.0, 25.0):
                ref = const - (d + 1) / 2 * mpmath.log1p(mpmath.mpf(t) ** 2 / d)
                assert abs(central_t_logpdf(t, df) - float(ref)) <= 1e-12

    def test_domain(self):
        with pytest.raises(DomainError):
            central_t_logpdf(1.0, 0.0)


class TestCauchy:
    def test_density_at_zero(self):
        assert cauchy_logpdf(0.0, 1.0) == pytest.approx(-math.log(math.pi), abs=1e-14)

    def test_half_height_point(self):
        # at x = scale the density is half its peak: 1/(2 pi r)
        for r in (0.3, 1.0, 7.0):
            assert cauchy_logpdf(r, r) == pytest.approx(-math.log(2 * math.pi * r), abs=1e-13)

    def test_closed_form_value(self):
        assert cauchy_logpdf(1.0, 1.0 / math.sqrt(2.0)) == pytest.approx(
            math.log(math.sqrt(2.0) / (3.0 * math.pi)), abs=1e-13
        )

    def test_domain(self):
        with pytest.raises(DomainError):
            cauchy_logpdf(0.0, 0.0)


class TestNoncentralT:
    def test_zero_ncp_reduces_to_central(self):
        for df in (1.0, 4.0, 50.0, 2000.0):
            t = np.linspace(-8, 8, 41)
            nct = noncentral_t_logpdf(t, df, 0.0)
            ct = central_t_logpdf(t, df)
            np.testing.assert_allclose(nct, ct, rtol=1e-10)

    def test_sign_symmetry(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            t = rng.uniform(-6, 6)
            df = rng.uniform(1, 500)
            ncp = rng.uniform(-20, 20)
            a = noncentral_t_logpdf(t, df, ncp)
            b = noncentral_t_logpdf(-t, df, -ncp)
            assert a == pytest.approx(b, rel=1e-12, abs=1e-12)

    def test_against_dense_mixture_grid(self):
        """Frozen case checked against the defining integral on 2e6 nodes."""
        mine = noncentral_t_logpdf(3.5355, 198.0, 2.0)
        ref = nct_logpdf_mixture(3.5355, 198.0, 2.0, nodes=2_000_001)
        assert mine == pytest.approx(ref, rel=1e-8)

    def test_high_precision_small_df(self):
        """df=0.5 against a 40-digit quadrature of the mixture integral."""
        mpmath.mp.dps = 40
        t, df, ncp = -9.9, 0.5, 10.0
        a2 = t * t + df
        hh = mpmath.quad(
            lambda v: v ** mpmath.mpf(df)
            * mpmath.e ** (-((v - mpmath.mpf(ncp * t / math.sqrt(a2))) ** 2) / 2),
            [0, mpmath.mpf("0.2"), 1, 5, mpmath.inf],
        )
        ref = (
            mpmath.log(2)
            + mpmath.mpf(df) / 2 * mpmath.log(mpmath.mpf(df) / 2)
            - mpmath.loggamma(mpmath.mpf(df) / 2)
            - mpmath.log(2 * mpmath.pi) / 2
            - mpmath.mpf(ncp) ** 2 * df / (2 * a2)
            - (df + 1) / 2 * mpmath.log(a2)
            + mpmath.log(hh)
        )
        assert noncentral_t_logpdf(t, df, ncp) == pytest.approx(float(ref), rel=1e-11)

    def test_series_and_quadrature_routes_agree(self):
        from twogroupbf.specfun import _log_hh_quad_small, _log_hh_series

        rng = np.random.default_rng(11)
        for df in (1.0, 7.3, 396.0, 5000.0):
            a = np.concatenate([rng.uniform(1e-3, 40.0, 60), [0.002, 0.5, 39.99, 40.0]])
            np.testing.assert_allclose(
                _log_hh_series(df, a), _log_hh_quad_small(df, a), rtol=0, atol=5e-11
            )

    @pytest.mark.parametrize("df", [0.5, 3.0, 38.0, 396.0, 2e4, 2e5, 2e6])
    def test_wide_domain_against_mpmath(self, df):
        """Every route and route boundary of the reduced noncentrality a.

        The mode x* = (a + sqrt(a^2 + 4 df))/2 decides: where df + x*^2
        exceeds W^2, W the trapezoid's half-width in curvature widths, the
        trapezoid runs; elsewhere a > 0 takes the series and a <= 0
        Gauss-Legendre.  Below df = W^2 the boundary sits at
        a_b = x_b - df / x_b with x_b = sqrt(W^2 - df).
        """
        targets = [-1e3, -5.0, 0.0, 1e-300, 0.999e-3, 1.001e-3, 0.5, 10.0, 39.99, 40.01,
                   300.0, 1e3]
        w2 = specfun._TRAPEZOID_HALF ** 2
        if df < w2:
            x_b = math.sqrt(w2 - df)
            a_b = x_b - df / x_b
            targets += [a_b * (1.0 - 1e-6), a_b * (1.0 + 1e-6)]
        for t in (2.0, 25.0):
            for a in targets:
                ncp = a * math.sqrt(t * t + df) / t
                ref = _nct_logpdf_mpmath(t, df, ncp)
                got = noncentral_t_logpdf(t, df, ncp)
                assert abs(got - ref) <= 1e-8 + 1e-14 * abs(ref), (t, a)

    def test_series_work_follows_each_points_window(self, monkeypatch):
        """Terms summed per point do not grow with the largest a in the call."""
        proxy = _ExpSizes()
        monkeypatch.setattr(specfun, "np", proxy)
        df = 396.0
        sizes = []
        for a in ([0.5], [39.0], [0.5, 39.0]):
            proxy.sizes.clear()
            specfun._log_hh_series(df, np.array(a))
            sizes.append(sum(proxy.sizes))
        assert sizes[2] == sizes[0] + sizes[1]
        # summing k = 0 .. n_terms(39) would be ~3600 terms for a = 0.5 alone
        assert sizes[0] < 100

    def test_point_value_does_not_depend_on_its_companions(self):
        # at df = 38 the trapezoid takes a just past the boundary a_b, the
        # series a just short of it, and Gauss-Legendre a = -1
        t, df = 2.0, 38.0
        x_b = math.sqrt(specfun._TRAPEZOID_HALF ** 2 - df)
        a_b = x_b - df / x_b
        ncp = np.array([a_b * (1.0 - 1e-6), a_b * (1.0 + 1e-6), -1.0]) * math.sqrt(t * t + df) / t
        together = noncentral_t_logpdf(t, df, ncp)
        alone = [noncentral_t_logpdf(t, df, v) for v in ncp]
        assert together.tolist() == alone

    def test_extreme_ncp_never_nan(self):
        # at df >= W^2 every point, negative a included, takes the trapezoid
        for df in (50.0, 2e4, 2e6):
            vals = noncentral_t_logpdf(1.3, df, np.array([-1e300, -1e150, 1e150, 1e300]))
            assert not np.any(np.isnan(vals)), df
            assert np.all(vals < -1e100), df

    def test_broadcast_and_chunking(self):
        ncp = np.linspace(-30, 30, 5000)
        out = noncentral_t_logpdf(1.0, 12.0, ncp)
        assert out.shape == ncp.shape
        spot = [noncentral_t_logpdf(1.0, 12.0, float(v)) for v in ncp[::1000]]
        np.testing.assert_allclose(out[::1000], spot, rtol=1e-14)

    def test_domain(self):
        with pytest.raises(DomainError):
            noncentral_t_logpdf(1.0, -2.0, 0.0)


def _nct_logpdf_mpmath(t, df, ncp):
    """ln f(t; df, ncp) from the scale-mixture integral in 30-digit arithmetic.

    The integrand v^df exp(-(v - a)^2 / 2) is divided by its peak value, and
    breakpoints double away from its mode in curvature units; without the
    division mpmath's error estimate misses 4.5e-7 of ln I at a = -1e3.
    """
    with mpmath.workdps(30):
        t, df, ncp = mpmath.mpf(t), mpmath.mpf(df), mpmath.mpf(ncp)
        big_a = t * t + df
        a = ncp * t / mpmath.sqrt(big_a)
        mode = (a + mpmath.sqrt(a * a + 4 * df)) / 2
        width = 1 / mpmath.sqrt(1 + df / mode ** 2)
        peak = df * mpmath.log(mode) - (mode - a) ** 2 / 2
        steps = (-64, -16, -4, -1, 0, 1, 4, 16, 64)
        pts = [0] + [mode + k * width for k in steps if mode + k * width > 0] + [mpmath.inf]
        log_i = peak + mpmath.log(mpmath.quad(
            lambda v: mpmath.exp(df * mpmath.log(v) - (v - a) ** 2 / 2 - peak), pts))
        return float(mpmath.log(2) + df / 2 * mpmath.log(df / 2) - mpmath.loggamma(df / 2)
                     - mpmath.log(2 * mpmath.pi) / 2 - ncp ** 2 * df / (2 * big_a)
                     - (df + 1) / 2 * mpmath.log(big_a) + log_i)


class _ExpSizes:
    """numpy stand-in that records the size of every ``exp`` argument."""

    def __init__(self):
        self.sizes = []

    def __getattr__(self, name):
        return getattr(np, name)

    def exp(self, x, *args, **kwargs):
        self.sizes.append(np.size(x))
        return np.exp(x, *args, **kwargs)


def _t_cdf_reference(q, df, nodes=400_001):
    """Independent t CDF: trapezoid of the density in the angle variable.

    With x = sqrt(df) tan(theta) the integrand becomes
    C sqrt(df) cos(theta)^(df-1), evaluated with libm's lgamma only.
    """
    c = math.exp(
        math.lgamma((df + 1.0) / 2.0) - math.lgamma(df / 2.0)
    ) / math.sqrt(df * math.pi)
    theta = np.linspace(-math.pi / 2.0, math.atan(q / math.sqrt(df)), nodes)
    integrand = c * math.sqrt(df) * np.cos(theta) ** (df - 1.0)
    return float(np.trapezoid(integrand, theta))


class TestStudentTQuantile:
    def test_median_is_zero(self):
        for df in (1.0, 17.0, 396.0):
            assert student_t_quantile(0.5, df) == 0.0

    def test_symmetry(self):
        assert student_t_quantile(0.2, 9.0) == -student_t_quantile(0.8, 9.0)

    def test_reference_value_for_ci_inversion(self):
        q = student_t_quantile(0.975, 396.0)
        assert q == pytest.approx(1.96596, abs=5e-5)
        # independent route: bisection on a trapezoid-integrated density
        lo, hi = 1.5, 2.5
        for _ in range(40):
            mid = (lo + hi) / 2.0
            if _t_cdf_reference(mid, 396.0) < 0.975:
                lo = mid
            else:
                hi = mid
        assert q == pytest.approx((lo + hi) / 2.0, abs=1e-6)

    def test_normal_limit(self):
        assert student_t_quantile(0.975, 1e7) == pytest.approx(1.959964, abs=1e-4)

    @given(st.floats(0.001, 0.999), st.floats(0.5, 2000.0))
    @settings(max_examples=150, deadline=None)
    def test_quantile_inverts_cdf(self, p, df):
        q = student_t_quantile(p, df)
        assert abs(student_t_cdf(q, df) - p) <= 1e-12

    def test_cdf_quantile_roundtrip(self):
        # q chosen so the probabilities stay inside [0.001, 0.999]
        for df in (1.0, 5.0, 100.0):
            for q in (-2.9, -0.1, 0.4, 3.0):
                p = student_t_cdf(q, df)
                assert student_t_quantile(p, df) == pytest.approx(q, rel=1e-10, abs=1e-10)

    @pytest.mark.parametrize("df", [3.0, 38.0, 396.0, 2e4, 2e5, 2e6])
    def test_against_mpmath_at_ci_levels(self, df):
        for p in (0.95, 0.975, 0.995):
            q = student_t_quantile(p, df)
            with mpmath.workdps(40):
                def upper_tail(x):
                    x2 = x * x
                    return mpmath.betainc(df / 2, 0.5, 0, df / (df + x2), regularized=True) / 2
                ref = mpmath.findroot(lambda x: upper_tail(x) - (1 - mpmath.mpf(p)),
                                      mpmath.mpf(q))
            assert q == pytest.approx(float(ref), rel=1e-11, abs=0.0)

    def test_cdf_calls_per_quantile(self, monkeypatch):
        calls = []

        def counting_cdf(t, df):
            calls.append(t)
            return student_t_cdf(t, df)

        monkeypatch.setattr(specfun, "student_t_cdf", counting_cdf)
        for df in (3.0, 4.0, 10.0, 38.0, 396.0, 2e4, 2e5, 2e6):
            for level in (0.90, 0.95, 0.99):
                calls.clear()
                specfun.student_t_quantile((1.0 + level) / 2.0, df)
                assert len(calls) <= 8, (df, level, len(calls))

    def test_domain(self):
        with pytest.raises(DomainError):
            student_t_quantile(0.0, 5.0)
        with pytest.raises(DomainError):
            student_t_quantile(1.0, 5.0)
        with pytest.raises(DomainError):
            student_t_quantile(0.5, -1.0)

    def test_lower_tail_below_resolution_is_refused_by_name(self):
        assert student_t_quantile(1e-16, 5.0) < 0.0
        for p in (2.0 ** -54, 1e-300):
            with pytest.raises(DomainError, match="below 2\\^-54"):
                student_t_quantile(p, 5.0)

    def test_quantile_beyond_1e150_is_refused_by_name(self):
        # at df 0.03 the upper 1e-10 tail starts near 1.7e322 (mpmath)
        with pytest.raises(DomainError, match="beyond 1e\\+150"):
            student_t_quantile(1.0 - 1e-10, 0.03)

    def test_unconverged_steps_are_refused_by_name(self):
        # the quantile (~1.6e146, mpmath) lies below 1e150, but the heavy-tail
        # steps grow x only ~11-fold each and end 100 steps short of it
        with pytest.raises(DomainError, match="did not converge"):
            student_t_quantile(1e-15, 0.1)
