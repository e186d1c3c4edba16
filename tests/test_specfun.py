"""Special functions: examples, degenerate conventions, invariants."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dsplim.specfun import (
    IntegrationError,
    QuadratureConfig,
    beta_cdf,
    beta_pdf,
    gamma_cdf,
    integrate,
    log_gamma,
)
from oracles import binomial_sum_beta_cdf, poisson_tail_gamma_cdf


class TestLogGamma:
    def test_trivial_values(self):
        assert log_gamma(1.0) == pytest.approx(0.0, abs=1e-14)
        assert log_gamma(2.0) == pytest.approx(0.0, abs=1e-14)
        assert log_gamma(5.0) == pytest.approx(math.log(24.0), rel=1e-13)

    def test_relative_accuracy_against_lgamma(self):
        for x in [1e-3, 0.1, 1.5, 17.0, 1234.5, 1e6]:
            assert log_gamma(x) == pytest.approx(math.lgamma(x), rel=1e-13)

    def test_domain_error(self):
        with pytest.raises(ValueError):
            log_gamma(0.0)
        with pytest.raises(ValueError):
            log_gamma(-2.0)


class TestGammaCdf:
    def test_exponential_case(self):
        assert gamma_cdf(1.0, 1.0, 1.0) == pytest.approx(1 - math.exp(-1), rel=1e-13)

    def test_degenerate_shape_zero(self):
        assert gamma_cdf(0.0, 1.0, 0.5) == 1.0
        assert gamma_cdf(0.0, 1.0, 0.0) == 1.0

    def test_against_series_oracle(self):
        # frozen from poisson_tail_gamma_cdf(5, 5.0)
        assert gamma_cdf(5.0, 1.0, 5.0) == pytest.approx(0.5595067149347877, rel=1e-12)

    def test_poisson_tail_identity_sweep(self):
        for k in (1, 2, 7, 20):
            for x in (0.0, 0.3, 2.0, 9.5, 40.0):
                assert gamma_cdf(k, 1.0, x) == pytest.approx(
                    poisson_tail_gamma_cdf(k, x), abs=1e-12
                )

    def test_scale_and_monotonicity(self):
        xs = np.linspace(0.0, 30.0, 200)
        vals = gamma_cdf(4.0, 2.0, xs)
        assert np.all(np.diff(vals) >= 0)
        assert gamma_cdf(4.0, 2.0, 10.0) == pytest.approx(
            gamma_cdf(4.0, 1.0, 5.0), rel=1e-13
        )
        # nonincreasing in shape at fixed x
        shapes = np.arange(1.0, 30.0)
        v = gamma_cdf(shapes, 1.0, 7.0)
        assert np.all(np.diff(v) <= 0)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            gamma_cdf(-1.0, 1.0, 1.0)
        with pytest.raises(ValueError):
            gamma_cdf(1.0, 0.0, 1.0)
        with pytest.raises(ValueError):
            gamma_cdf(1.0, 1.0, -1.0)


class TestBetaCdf:
    def test_uniform(self):
        for x in (0.0, 0.25, 1.0):
            assert beta_cdf(x, 1.0, 1.0) == pytest.approx(x, abs=1e-15)

    def test_symmetry_point(self):
        assert beta_cdf(0.5, 2.0, 2.0) == pytest.approx(0.5, rel=1e-13)

    def test_against_binomial_sum_oracle(self):
        # frozen from binomial_sum_beta_cdf(0.3, 3, 5)
        assert beta_cdf(0.3, 3.0, 5.0) == pytest.approx(0.3529305, rel=1e-12)
        for a, b, x in [(1, 4, 0.2), (6, 2, 0.77), (10, 10, 0.41)]:
            assert beta_cdf(x, a, b) == pytest.approx(
                binomial_sum_beta_cdf(x, a, b), rel=1e-11
            )

    def test_degenerate_conventions(self):
        assert beta_cdf(0.0, 0.0, 3.0) == 1.0
        assert beta_cdf(0.7, 0.0, 3.0) == 1.0
        assert beta_cdf(0.7, 3.0, 0.0) == 0.0
        assert beta_cdf(1.0, 3.0, 0.0) == 1.0

    @settings(max_examples=200, deadline=None)
    @given(
        x=st.floats(0.0, 1.0),
        a=st.floats(1.0, 200.0),
        b=st.floats(1.0, 200.0),
    )
    def test_symmetry_identity(self, x, a, b):
        assert beta_cdf(x, a, b) == pytest.approx(
            1.0 - beta_cdf(1.0 - x, b, a), abs=1e-13
        )

    @settings(max_examples=100, deadline=None)
    @given(a=st.floats(0.5, 50.0), b=st.floats(0.5, 50.0))
    def test_monotone_in_x(self, a, b):
        xs = np.linspace(0.0, 1.0, 101)
        vals = beta_cdf(xs, a, b)
        assert np.all(np.diff(vals) >= -1e-15)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            beta_cdf(-0.1, 1.0, 1.0)
        with pytest.raises(ValueError):
            beta_cdf(0.5, 0.0, 0.0)


class TestBetaPdf:
    def test_interior_values(self):
        assert beta_pdf(0.5, 1.0, 1.0) == pytest.approx(1.0, rel=1e-14)
        assert beta_pdf(0.25, 2.0, 1.0) == pytest.approx(0.5, rel=1e-13)

    def test_degenerate_atoms(self):
        assert beta_pdf(0.0, 0.0, 2.0) == math.inf
        assert beta_pdf(0.3, 0.0, 2.0) == 0.0
        assert beta_pdf(1.0, 2.0, 0.0) == math.inf
        assert beta_pdf(0.3, 2.0, 0.0) == 0.0

    def test_endpoint_values(self):
        assert beta_pdf(0.0, 1.0, 3.0) == pytest.approx(3.0)
        assert beta_pdf(1.0, 3.0, 1.0) == pytest.approx(3.0)
        assert beta_pdf(0.0, 2.0, 2.0) == 0.0
        assert beta_pdf(0.0, 0.5, 1.0) == math.inf


class TestIntegrate:
    def test_trivial(self):
        assert integrate(lambda x: 1.0, 0.0, 1.0) == pytest.approx(1.0, rel=1e-12)
        assert integrate(lambda x: x, 0.0, 2.0) == pytest.approx(2.0, rel=1e-12)
        assert integrate(lambda x: x, 1.0, 1.0) == 0.0

    def test_beta_density_normalizes(self):
        val = integrate(lambda x: beta_pdf(x, 3.0, 4.0), 0.0, 1.0)
        assert val == pytest.approx(1.0, rel=1e-9)
        for a, b in [(1, 1), (2, 9), (40, 7), (100, 100)]:
            val = integrate(lambda x: beta_pdf(x, a, b), 0.0, 1.0)
            assert val == pytest.approx(1.0, rel=1e-8)

    def test_deterministic(self):
        f = lambda x: math.sin(3 * x) * math.exp(-x)
        a = integrate(f, 0.0, 4.0)
        b = integrate(f, 0.0, 4.0)
        assert a == b

    def test_nonconvergence_reported(self):
        cfg = QuadratureConfig(rel_tol=1e-13, abs_tol=1e-15, max_subdivisions=8)
        with pytest.raises(IntegrationError):
            integrate(lambda x: math.sqrt(abs(x - math.pi / 7)), 0.0, 1.0, cfg)

    def test_bad_bounds(self):
        with pytest.raises(ValueError):
            integrate(lambda x: x, 1.0, 0.0)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            QuadratureConfig(rel_tol=0.0)
        with pytest.raises(ValueError):
            QuadratureConfig(max_subdivisions=0)
