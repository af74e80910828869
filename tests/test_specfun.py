import math
import re
import sys
import tracemalloc

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import nct_logpdf_mpmath
from twogroupbf import specfun
from twogroupbf.oracle import nct_logpdf_mixture
from twogroupbf.specfun import (
    DomainError,
    cauchy_logpdf,
    central_t_logpdf,
    noncentral_t_logpdf,
    student_t_cdf,
    student_t_quantile,
)


def _log_gamma(x):
    """ln Gamma(x) through the Stirling remainder, as the t densities use it."""
    return (x - 0.5) * math.log(x) - x + specfun.LN_SQRT_2PI + specfun._stirling_rest(x)


class TestLogGamma:
    def test_gamma_one_is_one(self):
        assert abs(_log_gamma(1.0)) < 5e-15

    def test_gamma_half_is_sqrt_pi(self):
        assert _log_gamma(0.5) == pytest.approx(math.log(math.sqrt(math.pi)), abs=1e-14)

    def test_gamma_ten_is_nine_factorial(self):
        assert _log_gamma(10.0) == pytest.approx(math.log(362880.0), rel=1e-14)

    def test_accuracy_against_libm(self):
        """Relative error below 1e-13 across [1e-3, 1e6]."""
        x = np.concatenate([
            np.logspace(-3, 6, 2000),
            np.linspace(0.9, 2.1, 500),  # the zeros of ln Gamma live here
        ])
        mine = np.array([_log_gamma(v) for v in x])
        exact = np.array([math.lgamma(v) for v in x])
        err = np.abs(mine - exact) / np.maximum(1.0, np.abs(exact))
        assert err.max() < 1e-13

    @pytest.mark.parametrize("bad", [0.0, -1.0, math.nan])
    def test_domain(self, bad):
        # ln Gamma(df / 2) is reached only through these, which refuse df <= 0 and NaN
        for call in (lambda: central_t_logpdf(1.0, bad),
                     lambda: noncentral_t_logpdf(1.0, bad, 1.0),
                     lambda: student_t_cdf(1.0, bad),
                     lambda: student_t_quantile(0.3, bad)):
            with pytest.raises(DomainError):
                call()


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

    @pytest.mark.parametrize("df", [0.5, 0.9])
    def test_df_below_one_at_huge_t(self, df):
        # t^2 / df reaches the float range first for df < 1, at |t| = sqrt(max df):
        # up to there ln f is right, and past it the densities refuse t by name
        edge = math.sqrt(sys.float_info.max * df)
        for t in (1e100, 1e150, 0.999 * edge):
            want = nct_logpdf_mpmath(t, df, 0.0)
            for got in (central_t_logpdf(t, df), central_t_logpdf(-t, df),
                        noncentral_t_logpdf(t, df, 0.0)):
                assert got == pytest.approx(want, rel=1e-14)
        for t in (1.001 * edge, 1e155, 1e200, 1e300):
            for call in (lambda: central_t_logpdf(t, df), lambda: central_t_logpdf(-t, df),
                         lambda: noncentral_t_logpdf(t, df, 0.0)):
                with pytest.raises(DomainError, match=re.escape(f"|t| <= {edge:.3g}")):
                    call()

    def test_domain(self):
        with pytest.raises(DomainError):
            central_t_logpdf(1.0, 0.0)

    def test_infinite_df_is_refused(self):
        # it read as nan with a RuntimeWarning
        with pytest.raises(DomainError, match="central_t_logpdf requires a finite df > 0"):
            central_t_logpdf(2.0, math.inf)

    def test_scalar_t_keeps_the_bits_of_an_array(self):
        # a scalar t runs as Python floats, an array as numpy's: the same operations
        rng = np.random.default_rng(30)
        for df in (0.5, 3.0, 38.0, 2e4, 2e10):
            t = rng.standard_t(3.0, 200) * 10.0 ** rng.uniform(-3, 3, 200)
            assert [central_t_logpdf(v, df) for v in t.tolist()] == (
                central_t_logpdf(t, df).tolist()), df


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

    def test_past_the_overflow_of_z_squared(self):
        # ln(1 + z^2) = 2 (ln|x| - ln scale) where z^2 = (x / scale)^2 overflows
        for x, scale in ((1e200, 1e-200), (-3e160, 2.0), (1e300, 1e-300)):
            want = -math.log(math.pi * scale) - 2.0 * (math.log(abs(x)) - math.log(scale))
            assert cauchy_logpdf(x, scale) == pytest.approx(want, rel=1e-15)
        # a point keeps its bits beside points past the overflow
        x = np.array([0.0, 0.3, -2.0, 1e200, -1e300])
        alone = [float(cauchy_logpdf(v, 0.7)) for v in x]
        assert cauchy_logpdf(x, 0.7).tolist() == alone
        assert cauchy_logpdf(x[:3], 0.7).tolist() == alone[:3]

    def test_scales_past_the_overflow_of_pi_times_scale(self):
        # past max / pi the normalizer is -(ln pi + ln scale), not ln(inf)
        for scale in (1e308, sys.float_info.max):
            norm = -(math.log(math.pi) + math.log(scale))
            assert cauchy_logpdf(0.0, scale) == pytest.approx(norm, rel=1e-15)
            assert cauchy_logpdf(-scale, scale) == pytest.approx(norm - math.log(2.0), rel=1e-15)
        # an ordinary scale keeps its bits beside one past the overflow
        pair = cauchy_logpdf(0.5, np.array([[0.7], [1e308]]))
        assert pair[0, 0] == cauchy_logpdf(0.5, 0.7)

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

    @pytest.mark.parametrize("df", [0.5, 1.0, 3.0, 10.0, 38.0, 396.0, 2e4, 2e5, 2e6,
                                    2e7, 2e8, 2e9])
    def test_wide_domain_against_mpmath(self, df):
        """Both signs and every scale of the reduced noncentrality a, down to
        a = -1e50, where ln f is ~-5e99.

        Besides fixed a, the targets hold 1e-6 either side of a_b, where the
        integrand's mode in v, x (x - a) = df, lies W = sqrt(120) + 12
        curvature widths from v = 0, and modes x of the trapezoid's equation
        x (x - a) = c, c = df + 1, each taken as a = x - c / x: where an
        earlier window's node bound peaked, x^2 = (60 + 0.62 c) / 0.57, 1e-6
        either side of its left-end switch c + x^2 = 120 e^2, and the same
        for the kernel's own window: its worst-case modes, and 1e-6 either
        side of its switch c + x^2 = _LEFT^2.
        """
        targets = [-1e50, -1e20, -1e15, -1e3, -5.0, 0.0, 1e-300, 0.999e-3, 1.001e-3, 0.5, 10.0,
                   39.99, 40.01, 300.0, 1e3]
        w2 = (math.sqrt(120.0) + 12.0) ** 2
        if df < w2:
            x_b = math.sqrt(w2 - df)
            a_b = x_b - df / x_b
            targets += [a_b * (1.0 - 1e-6), a_b * (1.0 + 1e-6)]
        c = df + 1.0
        modes = [math.sqrt((60.0 + 0.62 * c) / 0.57)]
        if c < 120.0 * math.e ** 2:
            x_switch = math.sqrt(120.0 * math.e ** 2 - c)
            modes += [x_switch * (1.0 - 1e-6), x_switch * (1.0 + 1e-6)]
        targets += [x - c / x for x in modes + _kernel_modes(c)]
        for t in (2.0, 25.0):
            for a in targets:
                ncp = a * math.sqrt(t * t + df) / t
                ref = nct_logpdf_mpmath(t, df, ncp)
                got = noncentral_t_logpdf(t, df, ncp)
                assert abs(got - ref) <= 1e-8 + 1e-14 * abs(ref), (t, a)

    def test_work_per_point_depends_on_df_alone(self, monkeypatch):
        """Every point takes the same trapezoid nodes, whatever its a or its
        companions, and so does the one a = 0 row of each call."""
        proxy = _ExpSizes()
        monkeypatch.setattr(specfun, "np", proxy)
        t = 2.0

        def work(df, a):
            proxy.sizes.clear()
            noncentral_t_logpdf(t, df, np.array(a) * math.sqrt(t * t + df) / t)
            return sum(proxy.sizes)

        n = work(396.0, [0.5])
        assert work(396.0, [39.0]) == n
        assert work(396.0, [0.5, 39.0]) == 3 * n // 2
        for df, nodes in ((38.0, 36), (396.0, 36), (580.0, 31), (885.0, 28), (2e4, 21),
                          (2e6, 20)):
            assert work(df, [0.5]) == 2 * nodes, df
        assert work(0.5, [0.5]) <= 2 * 236

    @pytest.mark.parametrize("df", [4e2, 2e6, 2e7, 2e8, 2e9])
    def test_no_rounding_noise_that_grows_with_df(self, df):
        """ln f at t = 22.4 is smooth in ncp: over ncp = 22.4 +- 1e-6 a
        quadratic fits it to 1e-12.  Terms of ln f that each grow like df
        and cancel would leave noise of ~1e-15 df there."""
        d = np.linspace(-1e-6, 1e-6, 201)
        y = noncentral_t_logpdf(22.4, df, 22.4 + d)
        residual = y - np.polyval(np.polyfit(d * 1e6, y, 2), d * 1e6)
        assert np.abs(residual).max() <= 1e-12

    @pytest.mark.parametrize("df", [1e-3, 0.5, 3.0, 10.0, 20.0, 38.0, 100.0, 396.0, 700.0, 2e6])
    def test_node_count_is_the_worst_case_over_modes(self, df):
        most = _most_steps(df + 1.0)
        assert specfun._node_count(df + 1.0) >= math.ceil(most) + 1
        assert specfun._node_count(df + 1.0) == math.ceil(most) + 1

    def test_node_count_is_tight_on_a_dense_df_grid(self):
        """The count from the two modes x* -> 0 and the switch is the worst case
        over a dense grid of modes, from df 1e-3 to 1e12 and densely in 150-460,
        where the switch sets it."""
        for df in np.concatenate([np.geomspace(1e-3, 1e12, 200), np.linspace(150.0, 460.0, 50)]):
            most = _most_steps(df + 1.0)
            assert specfun._node_count(df + 1.0) >= math.ceil(most) + 1, df
            assert specfun._node_count(df + 1.0) == math.ceil(most) + 1, df

    @pytest.mark.parametrize("df", [0.5, 3.0, 10.0, 20.0, 38.0, 100.0, 396.0, 441.0, 700.0,
                                    2e4, 2e6, 2e9])
    def test_window_ends_are_tail_below_the_peak(self, df):
        """At both ends of every mode's window the log integrand has fallen at
        least _TAIL from its peak of 0, up to rounding."""
        c = df + 1.0
        u = np.concatenate([[0.0], np.geomspace(1e-6, 1e7, 20_001)])
        for end in specfun._window(c, u):
            e = np.expm1(end)
            log_integrand = -c * (e - end) - u * (e * e) / 2.0
            assert log_integrand.max() <= -specfun._TAIL * (1.0 - 1e-12), end[log_integrand.argmax()]

    @pytest.mark.parametrize("df", [0.5, 1.0, 3.0, 10.0, 20.0, 38.0, 396.0, 700.0, 2e4, 2e6])
    def test_trapezoid_converged_at_its_spacing(self, df, monkeypatch):
        """ln I agrees with itself at half the node spacing and a window 10 nats
        wider, within the kernel's error target relative to max(1, |ln I|)."""
        c = df + 1.0
        a = np.concatenate([-np.geomspace(1e-3, 1e4, 300), [0.0], np.geomspace(1e-3, 1e4, 300),
                            [x - c / x for x in _kernel_modes(c)]])
        windows, window = [], specfun._window

        def recorded(c, x2):
            windows.append(window(c, x2))
            return windows[-1]

        monkeypatch.setattr(specfun, "_window", recorded)
        coarse = specfun._log_hh(df, a)
        tail = specfun._TAIL + 10.0
        for name, value in (("_TAIL", tail), ("_RIGHT", math.sqrt(2.0 * tail)),
                            ("_LEFT", math.e * math.sqrt(2.0 * tail)),
                            ("_SPACING", specfun._SPACING / 2.0), ("_CAP", specfun._CAP / 2.0)):
            monkeypatch.setattr(specfun, name, value)
        fine = specfun._log_hh(df, a)
        (left, right), (wide_left, wide_right) = windows
        # wider at both ends; a left end at s = -1 may stay there (w = 0 both times)
        assert np.all(wide_right > right)
        assert np.all(wide_left <= left) and np.all(wide_left[left > -1.0] < left[left > -1.0])
        err = np.abs(coarse - fine) / np.maximum(1.0, np.abs(fine))
        assert err.max() <= specfun._EPS, a[err.argmax()]

    def test_point_value_does_not_depend_on_its_companions(self):
        # a either side of the left-end switch, where the window's left end
        # changes form, and a = -1
        t, df = 2.0, 38.0
        c = df + 1.0
        x_switch = math.sqrt(specfun._LEFT ** 2 - c)
        a = [x - c / x for x in (x_switch * (1.0 - 1e-6), x_switch * (1.0 + 1e-6))] + [-1.0]
        ncp = np.array(a) * math.sqrt(t * t + df) / t
        together = noncentral_t_logpdf(t, df, ncp)
        alone = [noncentral_t_logpdf(t, df, v) for v in ncp]
        assert together.tolist() == alone

    @pytest.mark.parametrize("df", [0.5, 2.0, 38.0, 224.0, 2e4, 1e9])
    def test_in_place_kernel_equals_the_formula_out_of_place(self, df):
        """The kernel runs in place, node by node, in the formula's order of
        operations, so it equals the formula written out of place bit for
        bit, over more points than one chunk; so does the density."""
        a = np.concatenate([[0.0, 1e-3, -1e-3, 1.0, -1.0, 1e3, -1e3, 1e12, -1e12],
                            np.linspace(-40.0, 40.0, specfun._EVAL_CHUNK + 300)])
        with np.errstate(all="ignore"):
            got, want = specfun._log_hh(df, a), _log_hh_out_of_place(df, a)
        np.testing.assert_array_equal(got, want)
        t = 1.5
        ncp = a * math.sqrt(t * t + df) / t
        np.testing.assert_array_equal(noncentral_t_logpdf(t, df, ncp),
                                      _noncentral_t_out_of_place(t, df, ncp))

    @pytest.mark.parametrize("df", [2.0, 200.0, 1e6])
    def test_density_peaks_below_three_work_arrays(self, df):
        """The kernel holds two (points x nodes) work arrays at a time: its
        temporaries cannot come back unnoticed."""
        ncp = np.linspace(-3.0, 5.0, 2000)
        work = 2001 * specfun._node_count(df + 1.0) * 8  # the a = 0 row rides along
        noncentral_t_logpdf(1.5, df, ncp)
        tracemalloc.start()
        try:
            noncentral_t_logpdf(1.5, df, ncp)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3 * work, peak / work

    def test_extreme_ncp_never_nan(self):
        for df in (0.5, 3.0, 50.0, 2e4, 2e6):
            vals = noncentral_t_logpdf(1.3, df, np.array([-1e300, -1e150, 1e150, 1e300]))
            assert not np.any(np.isnan(vals)), df
            assert np.all(vals < -1e100), df

    def test_broadcast_and_chunking(self):
        # three 2048-row passes, and points past the overflow horizon
        ncp = np.concatenate([np.linspace(-30, 30, 5000), [-1e300, 1e300]])
        out = noncentral_t_logpdf(1.0, 12.0, ncp)
        assert out.shape == ncp.shape
        assert out[-2:].tolist() == [-math.inf, -math.inf] and np.all(np.isfinite(out[:-2]))
        # a scalar t, the same t as an array and one point at a time agree bit for bit
        assert np.array_equal(noncentral_t_logpdf(np.full(ncp.shape, 1.0), 12.0, ncp), out)
        assert np.array_equal(noncentral_t_logpdf(np.ones((2, 1)), 12.0, ncp), [out, out])
        spot = [noncentral_t_logpdf(1.0, 12.0, float(v)) for v in ncp[::1000].tolist() + [1e300]]
        assert spot == out[::1000].tolist() + [-math.inf]
        assert isinstance(spot[0], float)

    def test_finite_inside_the_overflow_horizon(self):
        # every point whose t^2 and ncp^2 df are finite has a finite density:
        # only a point past that horizon may read as a density of zero
        root_max = math.sqrt(sys.float_info.max)
        for df in (1.0, 2.0, 38.0, 2e5, 2e9):
            top = math.log10(0.999 * root_max / math.sqrt(df))
            ncp = np.array([10.0 ** e for e in np.linspace(-300.0, top, 80)])
            ncp = np.concatenate([-ncp, [0.0], ncp])
            for t in (-0.999 * root_max, -1e150, -3.0, -1e-300, 0.0, 1e-300, 2.0, 1e20,
                      0.999 * root_max):
                out = noncentral_t_logpdf(t, df, ncp)
                assert np.all(np.isfinite(out)), (df, t, ncp[~np.isfinite(out)])

    @pytest.mark.parametrize("df", [2.0, 38.0])
    def test_past_the_overflow_of_t_squared(self, df):
        """t = ncp = 1e50 and 1e100 are the peak at a large a, and match mpmath.
        Where t^2 overflows, past |t| ~ 1.34e154, the densities refuse t by name,
        alone or beside points inside the float range."""
        for t in (1e50, -1e50, 1e100, -1e100):
            for ncp in (1.0, 5.0) + ((t,) if t > 0 else ()):
                ref = nct_logpdf_mpmath(t, df, ncp)
                got = noncentral_t_logpdf(t, df, ncp)
                assert abs(got - ref) <= 1e-8 + 1e-14 * abs(ref), (t, ncp)
        # a point keeps its value beside points far from it
        t, ncp = np.array([0.0, 2.0, -1e150, 1e100]), np.array([1.0, 1.0, 5.0, 1e100])
        alone = [noncentral_t_logpdf(float(a), df, float(b)) for a, b in zip(t, ncp)]
        assert noncentral_t_logpdf(t, df, ncp).tolist() == alone
        for t in (1e155, -1e155, 1e200, 1e300):
            for call in (lambda: central_t_logpdf(t, df), lambda: noncentral_t_logpdf(t, df, 5.0),
                         lambda: noncentral_t_logpdf(np.array([0.0, 2.0, t]), df, 1.0)):
                with pytest.raises(DomainError, match=re.escape("|t| <= 1.34e+154")):
                    call()

    def test_domain(self):
        with pytest.raises(DomainError):
            noncentral_t_logpdf(1.0, -2.0, 0.0)

    def test_infinite_df_is_refused(self):
        # it raised a bare ZeroDivisionError
        with pytest.raises(DomainError, match="noncentral_t_logpdf requires a finite df > 0"):
            noncentral_t_logpdf(2.0, math.inf, 1.0)


def _most_steps(c):
    """The most trapezoid steps that any mode's window needs at c = df + 1,
    over a dense grid of x*^2 that holds x*^2 = 0 and the switch."""
    u = np.concatenate([[0.0, max(specfun._LEFT ** 2 - c, 0.0)], np.geomspace(1e-6, 1e7, 20_001)])
    left, right = specfun._window(c, u)
    sigma = 1.0 / np.sqrt(c + u)
    return np.max((right - left) / np.minimum(specfun._SPACING * sigma, specfun._CAP))


def _kernel_modes(c):
    """Modes x* of the kernel's window at c = df + 1: where the count of an
    exact search over modes could peak (a linear piece of w's stationary point
    or end, and the switch c + x*^2 = _LEFT^2), and 1e-6 either side of the
    switch."""
    q2, tail = specfun._Q ** 2, specfun._TAIL
    u_switch = max(specfun._LEFT ** 2 - c, 0.0)
    candidates = (
        2.0 * (c * (1.0 - q2) + tail) / (3.0 * q2),  # stationary, w = r / c
        2.0 * (c / math.e + (tail - c / math.e) / specfun._Q) / (3.0 * specfun._Q),
        2.0 * (tail - c) / q2,  # piece ends: r = c and r = c / e
        2.0 * (tail - c / math.e) / q2,
        u_switch)
    modes = [math.sqrt(u) for u in (min(max(u, 0.0), u_switch) for u in candidates) if u > 0.0]
    if c < specfun._LEFT ** 2:
        x_switch = math.sqrt(specfun._LEFT ** 2 - c)
        modes += [x_switch * (1.0 - 1e-6), x_switch * (1.0 + 1e-6)]
    return modes


def _log_hh_out_of_place(df, a):
    """specfun._log_hh as the formula, one out-of-place expression per step
    over all points at once, with every point's window ends in full."""
    c = df + 1.0
    big = (np.abs(a) + np.hypot(a, 2.0 * math.sqrt(c))) / 2.0
    x_star = np.where(a >= 0.0, big, c / big)
    x2 = x_star * x_star
    k = specfun._RIGHT / np.sqrt(c + x2)
    r = specfun._TAIL - specfun._Q * specfun._Q * x2 / 2.0
    w = np.maximum(np.minimum(r, (r - c / math.e) / specfun._Q), 0.0) / c
    left = -k / np.maximum(1.0 - (math.e - 1.0) * k, k) - w
    n = specfun._node_count(c)
    step = (k - left) / (n - 1)
    s = left[:, None] + step[:, None] * np.arange(n)
    e = np.expm1(s)
    h = -c * (e - s) - x2[:, None] * (e * e) / 2.0
    return (c * np.arcsinh(a / (2.0 * math.sqrt(c))) + c * a / (2.0 * x_star)
            + np.log(np.exp(h).sum(axis=1) * step))


def _noncentral_t_out_of_place(t, df, ncp):
    """noncentral_t_logpdf for a scalar t, on _log_hh_out_of_place."""
    with np.errstate(all="ignore"):
        big_a = t * t + df
        gauss = ncp * ncp * df / (2.0 * big_a)
        log_i = _log_hh_out_of_place(df, np.concatenate(([0.0], ncp * t / np.sqrt(big_a))))
        out = central_t_logpdf(t, df) - gauss + (log_i[1:] - log_i[0])
    return np.fmax(out, -math.inf)


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
        # complements exact in binary, so both calls solve the same tail
        for p in (0.25, 0.125, 0.0625):
            assert student_t_quantile(p, 9.0) == -student_t_quantile(1.0 - p, 9.0)

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

    def test_stops_at_the_cdfs_rounding_floor(self):
        # the CDF's ~4e-15 noise here moves Halley steps by ~1e-12, above the
        # 1e-13 step tolerance, so only the bracket's width can stop them
        p, df = 0.0015911318339730147, 144.24428907652296
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

    def test_cdf_at_huge_and_nan_t(self):
        # x = df / (df + t^2) rounds to 0 at |t| = 1e200: the tail is all or nothing
        assert student_t_cdf(1e200, 3.0) == 1.0 and student_t_cdf(-1e200, 3.0) == 0.0
        with pytest.raises(DomainError):
            student_t_cdf(math.nan, 3.0)

    def test_cdf_refuses_infinite_df(self):
        # it raised a bare "math domain error"
        with pytest.raises(DomainError, match="student_t_cdf requires a finite df > 0"):
            student_t_cdf(-2.0, math.inf)

    def test_infinite_df_is_refused(self):
        # it raised a bare ZeroDivisionError
        with pytest.raises(DomainError, match="student_t_quantile requires a finite df > 0"):
            student_t_quantile(0.025, math.inf)

    def test_df_past_the_underflow_of_hills_start(self):
        # Hill's 1 / (df - 1/2)^2 underflows past df ~7e161, where it divided by
        # zero; there t is normal to ~1 / df, and the steps start from the normal
        z = -1.959963984540054  # the normal 2.5% quantile (mpmath)
        for df in (7e161, 1e200, 2 * 10 ** 200 - 2, 1e300):
            assert student_t_quantile(0.025, df) == pytest.approx(z, rel=1e-13), df
            assert student_t_quantile(0.975, df) == pytest.approx(-z, rel=1e-13), df
        # below the switch the start is Hill's, as ever
        assert student_t_quantile(0.025, 6e161) == pytest.approx(z, rel=1e-13)

    def test_domain(self):
        with pytest.raises(DomainError):
            student_t_quantile(0.0, 5.0)
        with pytest.raises(DomainError):
            student_t_quantile(1.0, 5.0)
        with pytest.raises(DomainError):
            student_t_quantile(0.5, -1.0)

    @pytest.mark.parametrize("df", [5.0, 38.0, 396.0, 2e4, 2e6])
    def test_lower_tail_keeps_relative_accuracy(self, df):
        # solving through 1 - p lost 7e-8 of p at 1e-10 and 11% at 1e-16 (df 5)
        for p in (1e-10, 1e-12, 1e-14, 1e-16, 1e-100, 1e-300):
            q = student_t_quantile(p, df)
            assert abs(student_t_cdf(q, df) / p - 1.0) <= 1e-10, p

    def test_quantile_beyond_1e150_is_refused_by_name(self):
        # at df 0.03 the upper 1e-10 tail starts near 1.7e322 (mpmath)
        with pytest.raises(DomainError, match="beyond 1e\\+150"):
            student_t_quantile(1.0 - 1e-10, 0.03)

    def test_far_tails_end_in_a_quantile_or_its_own_refusal(self):
        # Hill's start underflows here (df 1.05-1.85 at p 1e-300) or lands past
        # the densities' |t| limit (df <= 1); neither may end in their errors
        for p in (1e-160, 1e-200, 1e-300):
            for df in (0.05 * k for k in range(2, 61)):
                try:
                    q = student_t_quantile(p, df)
                except DomainError as exc:
                    assert "cannot resolve quantiles beyond 1e+150" in str(exc), (p, df)
                else:
                    assert abs(student_t_cdf(q, df) / p - 1.0) <= 1e-10, (p, df)

    def test_unconverged_steps_are_refused_by_name(self):
        # the quantile (~1.6e146, mpmath) lies below 1e150, but the heavy-tail
        # steps grow x only ~11-fold each and end 100 steps short of it
        with pytest.raises(DomainError, match="did not converge"):
            student_t_quantile(1e-15, 0.1)
