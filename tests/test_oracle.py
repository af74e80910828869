import math

import numpy as np
import pytest

from conftest import nct_logpdf_mpmath
from twogroupbf import oracle
from twogroupbf.datamodel import SummaryMoments, derive_stats
from twogroupbf.engine import CauchyPrior, TestSpec, equiv_bf, super_bf
from twogroupbf.oracle import GridSpec, default_span, grid_bf, nct_logpdf_mixture


def test_default_span_covers_prior_mass():
    prior = CauchyPrior()
    span = default_span(prior)
    outside = 2.0 * (0.5 - math.atan(span[1] / prior.scale) / math.pi)
    assert outside <= 1e-10


def test_grid_spec_validation():
    with pytest.raises(ValueError):
        GridSpec(span=(-10.0, 10.0), nodes=99_999)
    with pytest.raises(ValueError):
        GridSpec(span=(-10.0, 10.0), nodes=100_000)  # even
    for span in ((-math.inf, 10.0), (-10.0, math.inf), (10.0, -10.0), (1.0, 1.0),
                 (math.nan, 10.0)):
        with pytest.raises(ValueError, match="grid span"):
            GridSpec(span=span, nodes=100_001)


def test_reference_superiority_value():
    data = SummaryMoments(100, 100, 0.0, 0.5, 1.0, 1.0)
    prior = CauchyPrior(scale=0.5)
    bf = grid_bf(derive_stats(data), prior, TestSpec.superiority(),
                 GridSpec(span=default_span(prior), nodes=1_000_001))
    assert bf == pytest.approx(51.6, rel=5e-3)


def test_grid_converged_at_default_node_count():
    data = SummaryMoments(9, 14, 0.1, 0.55, 1.0, 0.8)
    stats = derive_stats(data)
    prior = CauchyPrior()
    spec = TestSpec.non_inferiority(0.4, standardized=True)
    span = default_span(prior)
    base = grid_bf(stats, prior, spec, GridSpec(span=span, nodes=1_000_001))
    doubled = grid_bf(stats, prior, spec, GridSpec(span=span, nodes=2_000_001))
    assert math.log(doubled) == pytest.approx(math.log(base), abs=1e-8)


def test_mixture_density_grid_convergence():
    a = nct_logpdf_mixture(2.2, 37.0, 5.5, nodes=1_000_001)
    b = nct_logpdf_mixture(2.2, 37.0, 5.5, nodes=2_000_001)
    assert a == pytest.approx(b, abs=1e-10)


@pytest.mark.parametrize("df", [5.0, 38.0, 2e4, 2e5, 2e6])
@pytest.mark.parametrize("t", [2.0, 25.0])
def test_grid_likelihood_against_mpmath(t, df):
    """The 201-node mixture trapezoid against 30-digit mpmath, out to df 2e6.

    Not asserted: at df 2-3, t = 2 the 201 nodes resolve the integrand's
    u^df shape near u = 0 only to ~1.4e-7, and at df 2e9 the rounding of
    lgamma in the constant alone reaches ~2.4e-7.
    """
    ncp = np.array([t - 3.0, t, t + 3.0])
    got = oracle._loglik_on_grid(t, df, ncp)
    ref = np.array([nct_logpdf_mpmath(t, df, c) for c in ncp])
    np.testing.assert_allclose(got, ref, rtol=0.0, atol=1e-8)


def test_megatrial_two_sided_matches_the_engine():
    """n = 1e6 per group, d = 0.01 (df ~2e6): engine and grid oracle agree."""
    data = SummaryMoments(1_000_000, 1_000_000, 0.0, 0.01, 1.0, 1.0)
    spec = TestSpec.superiority(alternative="two_sided")
    prior = CauchyPrior()
    bf = grid_bf(derive_stats(data), prior, spec,
                 GridSpec(span=default_span(prior), nodes=100_001))
    assert super_bf(data, spec).log_bf == pytest.approx(math.log(bf), abs=1e-6)


@pytest.mark.parametrize("scale", [0.5, 1.0 / math.sqrt(2.0), 2.0])
def test_point_equivalence_matches_the_engine(scale):
    """The Savage-Dickey window of grid_bf against the engine's point null."""
    data = SummaryMoments(12, 15, 0.0, 0.4, 1.0, 1.1)
    spec = TestSpec.equivalence(0.0)
    prior = CauchyPrior(scale=scale)
    bf = grid_bf(derive_stats(data), prior, spec,
                 GridSpec(span=default_span(prior), nodes=100_001))
    assert equiv_bf(data, spec, scale).log_bf == pytest.approx(math.log(bf), abs=1e-6)
