import math

import numpy as np
import pytest

from twogroupbf import oracle
from twogroupbf.datamodel import SummaryMoments, derive_stats
from twogroupbf.engine import CauchyPrior, TestSpec
from twogroupbf.oracle import GridSpec, default_span, grid_bf, nct_logpdf_mixture
from twogroupbf.quadrature import Interval


def test_default_span_covers_prior_mass():
    prior = CauchyPrior()
    span = default_span(prior)
    outside = 2.0 * (0.5 - math.atan(span.upper / prior.scale) / math.pi)
    assert outside <= 1e-10


def test_grid_spec_validation():
    with pytest.raises(ValueError):
        GridSpec(span=Interval(-10.0, 10.0), nodes=99_999)
    with pytest.raises(ValueError):
        GridSpec(span=Interval(-10.0, 10.0), nodes=100_000)  # even
    with pytest.raises(ValueError):
        GridSpec(span=Interval(-math.inf, 10.0), nodes=100_001)


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


def test_grid_exponent_matches_the_mixture_formula(monkeypatch):
    """The in-place grid exponent gives the log likelihoods of _mixture_exponent."""
    ncp = np.linspace(-30.0, 30.0, 2001)
    cases = [(2.0, 38.0), (-3.1, 396.0), (25.0, 2e4), (5.0, 0.7)]
    fast = [oracle._loglik_on_grid(t, df, ncp) for t, df in cases]
    monkeypatch.setattr(oracle, "_grid_exponent",
                        lambda u, t, df, nc: oracle._mixture_exponent(u, t, df, nc[:, None]))
    for (t, df), got in zip(cases, fast):
        np.testing.assert_allclose(got, oracle._loglik_on_grid(t, df, ncp), rtol=1e-12, atol=1e-12)
