"""Special functions: examples, degenerate conventions, invariants."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import special as sp

from dsplim.specfun import (
    BRACKET_CAP,
    IntegrationError,
    QuadratureConfig,
    beta_cdf,
    beta_pdf,
    gamma_cdf,
    integrate,
    log_gamma,
    solve_monotone,
)
from oracles import binomial_sum_beta_cdf, bisection_root, poisson_tail_gamma_cdf


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


def _recorded(residual):
    """residual plus the list of the points it was called at."""
    calls = []

    def wrapped(x):
        calls.append(np.array(x, dtype=float))
        return residual(x)

    return wrapped, calls


def _gamma_log_tail(k, q):
    # log(1 - q) - log P(Gamma(k) > x): >= 0 from the q-quantile on
    return lambda x: math.log(1.0 - q) - np.log(sp.gammaincc(k, x))


class TestSolveMonotone:
    def test_smooth_log_tail_converges_fast(self):
        for k, q in [(3.0, 0.9), (20.0, 0.99), (150.0, 0.5)]:
            residual, calls = _recorded(_gamma_log_tail(k, q))
            got = solve_monotone(residual, (), 1e-10, ValueError)
            assert got == pytest.approx(sp.gammaincinv(k, q), rel=1e-10)
            # doubling to the bracket, then far fewer steps than the 33
            # bisection needs at rel_tol 1e-10
            doublings = math.ceil(math.log2(got)) + 1
            assert len(calls) <= doublings + 12

    def test_concave_residual_converges_fast(self):
        # Secant points of a concave residual land above the root, so the
        # low end is kept; Illinois halves its residual to move it.
        for root in (5.5, 77.0, 12345.678):
            residual, calls = _recorded(lambda x, r=root: np.log(x / r))
            got = solve_monotone(residual, (), 1e-10, ValueError)
            assert got == pytest.approx(root, rel=1e-10)
            assert len(calls) <= math.ceil(math.log2(root)) + 1 + 9

    def test_root_below_one_bisects_first(self):
        # No doubling happens, so nothing is known at 0: the first step is
        # the midpoint of [0, 1], not a secant through f(1).
        for root in (0.3, 0.7, 1e-3):
            residual, calls = _recorded(lambda x, r=root: np.log(x / r))
            got = solve_monotone(residual, (), 1e-10, ValueError)
            assert got == pytest.approx(root, rel=1e-10)
            assert calls[0] == 1.0 and calls[1] == 0.5

    def test_zero_residual_at_a_step(self):
        # From the bracket [2, 4] the secant lands exactly on the root 3;
        # the next step stays rel_tol / 4 * hi inside and closes the
        # bracket, instead of crawling by bisection.
        residual, calls = _recorded(lambda x: x - 3.0)
        got = solve_monotone(residual, (), 1e-10, ValueError)
        assert got == pytest.approx(3.0, rel=1e-10)
        assert [float(c) for c in calls[:4]] == [1.0, 2.0, 4.0, 3.0]
        assert len(calls) == 5

    def test_infinite_residual_takes_the_midpoint(self):
        # +inf above 1.9, as the log of a tail that is 0 there: the secant
        # through an infinite end is NaN, so the step is the midpoint.
        def residual(x):
            with np.errstate(divide="ignore"):
                return np.where(x >= 1.9, np.inf, np.log(x / 1.7))

        residual, calls = _recorded(residual)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = solve_monotone(residual, (), 1e-10, ValueError)
        assert got == pytest.approx(1.7, rel=1e-10)
        assert [float(c) for c in calls[:4]] == [1.0, 2.0, 1.5, 1.75]

    def test_nan_residual_counts_as_short(self):
        residual = lambda x: np.where(x >= 5.0, 1.0, np.nan)
        got = solve_monotone(residual, (), 1e-10, ValueError)
        assert got == pytest.approx(5.0, rel=1e-10)

    @pytest.mark.parametrize("jump", [1.0, 1e300])
    @pytest.mark.parametrize("root", [1e-3, 0.3, 1.0, 3.7, 1000.5, 123456.789])
    def test_step_function_within_twice_bisection(self, root, jump):
        # A jump of 1e300 pins every secant point to the low end of the
        # bracket; the step budget then hands the root over to bisection.
        residual, calls = _recorded(lambda x: np.where(x >= root, jump, -1.0))
        got = solve_monotone(residual, (), 1e-10, ValueError)
        assert got == pytest.approx(root, rel=1e-10)
        reached, plain = _recorded(lambda x: x >= root)
        assert bisection_root(reached, 1e-10) == pytest.approx(root, rel=1e-10)
        bracket = 1 + next(i for i, x in enumerate(plain) if x >= root)
        assert len(calls) <= bracket + 2 * (len(plain) - bracket)

    def test_bracket_cap_raises_the_callers_error(self):
        class Missing(RuntimeError):
            pass

        with pytest.raises(Missing, match="exceeded"):
            solve_monotone(lambda x: np.full(np.shape(x), -1.0), (), 1e-8, Missing)
        # one element beyond the cap fails the call
        residual = lambda x: np.log(x / np.array([2.0, 10 * BRACKET_CAP]))
        with pytest.raises(Missing):
            solve_monotone(residual, (2,), 1e-8, Missing)

    def test_elements_keep_their_bits_in_any_company(self):
        ks = np.array([2.0, 7.5, 40.0, 400.0, 3.0, 0.5])
        qs = np.array([0.9, 0.99, 0.5, 0.9, 0.999999, 0.1])

        def solve(idx):
            k, q = ks[idx], qs[idx]
            residual = lambda x: np.log(1.0 - q) - np.log(sp.gammaincc(k, x))
            return solve_monotone(residual, idx.shape, 1e-10, ValueError)

        together = solve(np.arange(ks.size))
        for i in range(ks.size):
            assert solve(np.array([i]))[0] == together[i]
            assert float(solve(np.array(i))) == together[i]
        assert np.array_equal(solve(np.array([5, 1]))[::-1], together[[1, 5]])
        np.testing.assert_allclose(together, sp.gammaincinv(ks, qs), rtol=1e-10)
