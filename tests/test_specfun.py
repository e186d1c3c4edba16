"""Special functions: examples, degenerate conventions, invariants."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import special as sp

import dsplim._gamma_ratio as gamma_ratio
from dsplim._gamma_ratio import _trigamma, quantile_start
from dsplim.bayes import PRIOR_PRESETS, bayes_upper_limits_batch
from dsplim.ds_limits import ds_upper_limits_batch
from dsplim.specfun import (
    BRACKET_CAP,
    BRACKET_FLOOR,
    IntegrationError,
    QuadratureConfig,
    beta_cdf,
    beta_pdf,
    integrate,
    solve_monotone,
)
from oracles import binomial_sum_beta_cdf, bisection_root


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


def _bracketing_calls(calls, root):
    """Residual calls up to the first one on the far side of the root
    from the first call: the calls that bracket the root."""
    below = calls[0] < root
    return 1 + next(i for i, x in enumerate(calls) if (x < root) != below)


class TestSolveMonotone:
    def test_smooth_log_tail_converges_fast(self):
        # From the start k, the mean of Gamma(k): far fewer passes than the
        # 33 bisection needs at rel_tol 1e-10 once the root is bracketed
        for k, q in [(3.0, 0.9), (20.0, 0.99), (150.0, 0.5)]:
            residual, calls = _recorded(_gamma_log_tail(k, q))
            got = solve_monotone(residual, k, 1e-10, ValueError)
            assert got == pytest.approx(sp.gammaincinv(k, q), rel=1e-10)
            assert _bracketing_calls(calls, got) <= 3
            assert len(calls) <= 12

    def test_concave_residual_converges_fast(self):
        # Secant points of a concave residual land above the root, so the
        # low end is kept; Illinois halves its residual to move it.
        for root in (5.5, 77.0, 12345.678):
            for start in (root / 3, 3 * root):
                residual, calls = _recorded(lambda x, r=root: np.log(x / r))
                got = solve_monotone(residual, start, 1e-10, ValueError)
                assert got == pytest.approx(root, rel=1e-10)
                assert len(calls) <= _bracketing_calls(calls, root) + 9

    def test_root_below_one_bisects_first(self):
        # Widening down from the start stops once the lower end would
        # fall below BRACKET_FLOOR; it becomes 0, where nothing is known,
        # so the first step is the midpoint of [0, hi], not a secant.
        for root in (0.3 * BRACKET_FLOOR, 0.7 * BRACKET_FLOOR, 1e-3 * BRACKET_FLOOR):
            residual, calls = _recorded(lambda x, r=root: np.log(x / r))
            got = solve_monotone(residual, 1.0, 1e-10, ValueError)
            assert got == pytest.approx(root, rel=1e-10)
            hi = max(i for i, x in enumerate(calls) if x >= BRACKET_FLOOR)
            assert all(np.diff(calls[: hi + 1]) < 0)
            assert calls[hi + 1] == 0.5 * calls[hi]

    def test_zero_residual_at_a_step(self):
        # From the start 2 the bracket widens to [2.5, 3.90625], and the
        # secant lands exactly on the root 3; the next step stays
        # rel_tol / 4 * hi inside and closes the bracket, instead of
        # crawling by bisection.
        residual, calls = _recorded(lambda x: x - 3.0)
        got = solve_monotone(residual, 2.0, 1e-10, ValueError)
        assert got == pytest.approx(3.0, rel=1e-10)
        assert [float(c) for c in calls[:4]] == [2.0, 2.5, 3.90625, 3.0]
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
            got = solve_monotone(residual, 1.0, 1e-10, ValueError)
        assert got == pytest.approx(1.7, rel=1e-10)
        assert [float(c) for c in calls[:4]] == [1.0, 1.25, 1.953125, 1.6015625]

    def test_nan_residual_counts_as_short(self):
        residual = lambda x: np.where(x >= 5.0, 1.0, np.nan)
        got = solve_monotone(residual, 1.0, 1e-10, ValueError)
        assert got == pytest.approx(5.0, rel=1e-10)

    @pytest.mark.parametrize("jump", [1.0, 1e300])
    @pytest.mark.parametrize("root", [1e-3, 0.3, 1.0, 3.7, 1000.5, 123456.789])
    def test_step_function_within_twice_bisection(self, root, jump):
        # A jump of 1e300 pins every secant point to the low end of the
        # bracket; the step budget then hands the root over to bisection.
        residual, calls = _recorded(lambda x: np.where(x >= root, jump, -1.0))
        got = solve_monotone(residual, 1.0, 1e-10, ValueError)
        assert got == pytest.approx(root, rel=1e-10)
        assert bisection_root(lambda x: x >= root, 1e-10) == pytest.approx(
            root, rel=1e-10
        )
        # at most twice the steps plain bisection of the widened bracket takes
        bracket = _bracketing_calls(calls, root)
        lo, hi = sorted(float(x) for x in calls[bracket - 2 : bracket])
        bisection = 0
        while hi - lo > 1e-10 * hi:
            mid = 0.5 * (lo + hi)
            lo, hi = (lo, mid) if mid >= root else (mid, hi)
            bisection += 1
        assert len(calls) <= bracket + 2 * bisection

    @pytest.mark.parametrize("offset", [1e-6, 1e6, 1.0])
    @pytest.mark.parametrize("root", [1e-3, 3.7, 123456.789])
    def test_start_off_the_root(self, root, offset):
        # A start 1e6 times off the root in either direction costs nine
        # bracketing passes (the start and eight widenings by at most 16);
        # a start on the root costs two.
        residual, calls = _recorded(lambda x: np.log(x / root))
        got = solve_monotone(residual, root * offset, 1e-10, ValueError)
        assert got == pytest.approx(root, rel=1e-10)
        assert _bracketing_calls(calls, root) == (2 if offset == 1.0 else 9)

    def test_poor_starts_cost_few_passes(self):
        # The nine residuals above from the starts 1, 1e-6 and 1e6.  With a
        # widening factor that squared without bound (brackets up to 1262
        # times wide, in which the Illinois steps crawl) these 27 roots
        # took 536 residual calls; growth capped at 16 takes 482.
        tails = [(3.0, 0.9), (20.0, 0.99), (150.0, 0.5)]
        cases = [(_gamma_log_tail(k, q), sp.gammaincinv(k, q)) for k, q in tails]
        cases += [
            (lambda x, r=r: np.log(x / r), r)
            for r in (5.5, 77.0, 12345.678, 1e-3, 3.7, 123456.789)
        ]
        total = 0
        for f, root in cases:
            for start in (1.0, 1e-6, 1e6):
                residual, calls = _recorded(f)
                with np.errstate(divide="ignore"):  # a Gamma tail of 0 at 1e6
                    got = solve_monotone(residual, start, 1e-10, ValueError)
                assert got == pytest.approx(root, rel=1e-10)
                total += len(calls)
        assert total < 536

    @pytest.mark.parametrize("root", [0.5 * BRACKET_CAP, 1e3])
    def test_start_near_the_cap(self, root):
        residual = lambda x: np.log(x / root)
        for start in (0.999 * BRACKET_CAP, BRACKET_CAP, 1e300, np.inf):
            got = solve_monotone(residual, start, 1e-10, ValueError)
            assert got == pytest.approx(root, rel=1e-10)

    def test_nan_start_counts_as_one(self):
        residual, calls = _recorded(lambda x: np.log(x / 3.0))
        got = solve_monotone(residual, np.nan, 1e-10, ValueError)
        assert got == pytest.approx(3.0, rel=1e-10)
        assert calls[0] == 1.0

    def test_bracket_cap_raises_the_callers_error(self):
        class Missing(RuntimeError):
            pass

        with pytest.raises(Missing, match="exceeded"):
            solve_monotone(lambda x: np.full(np.shape(x), -1.0), 1.0, 1e-8, Missing)
        # one element beyond the cap fails the call, from any start
        residual = lambda x: np.log(x / np.array([2.0, 10 * BRACKET_CAP]))
        for start in ([1.0, 1.0], [2.0, 0.5 * BRACKET_CAP], [1.0, 10 * BRACKET_CAP]):
            with pytest.raises(Missing):
                solve_monotone(residual, np.array(start), 1e-8, Missing)

    def test_elements_keep_their_bits_in_any_company(self):
        ks = np.array([2.0, 7.5, 40.0, 400.0, 3.0, 0.5])
        qs = np.array([0.9, 0.99, 0.5, 0.9, 0.999999, 0.1])
        root = sp.gammaincinv(400.0, 0.9)
        starts = np.array([1.0, 1e-6, 1e6, root, BRACKET_CAP, 0.2])

        def solve(idx):
            k, q = ks[idx], qs[idx]
            def residual(x):
                with np.errstate(divide="ignore"):  # the tail is 0 at the cap
                    return np.log(1.0 - q) - np.log(sp.gammaincc(k, x))

            return solve_monotone(residual, starts[idx], 1e-10, ValueError)

        together = solve(np.arange(ks.size))
        for i in range(ks.size):
            assert solve(np.array([i]))[0] == together[i]
            assert float(solve(np.array(i))) == together[i]
        assert np.array_equal(solve(np.array([5, 1]))[::-1], together[[1, 5]])
        np.testing.assert_allclose(together, sp.gammaincinv(ks, qs), rtol=1e-10)
        # new starts for two elements leave the others' bits alone
        starts[[0, 2]] = starts[[2, 0]]
        moved = solve(np.arange(ks.size))
        kept = [1, 3, 4, 5]
        assert np.array_equal(moved[kept], together[kept])
        np.testing.assert_allclose(moved, together, rtol=1e-10)


def _study_block(t, u, eps, b, s_values, reps=80, seed=17):
    """The distinct (n, y, z) rows of one simulate block, as three arrays."""
    gen = np.random.default_rng(seed)
    s = np.repeat(s_values, reps)
    counts = [
        gen.poisson(eps * s + b), gen.poisson(t * b, s.size), gen.poisson(u * eps, s.size)
    ]
    return np.unique(np.stack(counts, axis=1), axis=0).T


PAPER_BLOCK = (33.0, 100.0, _study_block(33.0, 100.0, 1.0, 3.0, [20, 25, 30, 35, 40]))
SMALL_BLOCK = (3.3, 10.0, _study_block(3.3, 10.0, 0.1, 0.3, np.arange(5, 26)))
QS = np.array([0.9, 0.99])


class TestRootStarts:
    """Every batched limit starts at quantile_start of its own row."""

    @pytest.mark.parametrize("block,within", [(PAPER_BLOCK, 1.15), (SMALL_BLOCK, 2.6)],
                             ids=["paper", "small"])
    def test_start_lies_near_the_limit(self, block, within):
        t, u, (n, y, z) = block
        exact = z >= 2
        n_x, y_x, z_x = n[exact], y[exact], z[exact]
        ratio = quantile_start(n_x + 1, y_x, z_x - 1, t, u, QS[:, None]) / (
            ds_upper_limits_batch(n_x, y_x, z_x, t, u, QS)
        )
        assert 1 / within <= ratio.min() and ratio.max() <= within
        for prior in PRIOR_PRESETS.values():
            shapes = (n + prior.a_n, y + prior.a_b, z + prior.a_e)
            start = quantile_start(*shapes, t, u, QS[:, None])
            ratio = start / bayes_upper_limits_batch(n, y, z, t, u, prior, QS)
            assert 1 / within <= ratio.min() and ratio.max() <= within

    def test_passes_per_series_roots_call(self, monkeypatch):
        # One call solves every (row, quantile) pair of its block, so its
        # passes are the most any pair needs; from the bracket [0, 1] this
        # block needs 16.
        passes = []

        def counting(residual, start, rel_tol, error):
            def counted(x):
                passes[-1] += 1
                return residual(x)

            passes.append(0)
            return solve_monotone(counted, start, rel_tol, error)

        monkeypatch.setattr(gamma_ratio, "solve_monotone", counting)
        t, u, (n, y, z) = PAPER_BLOCK
        exact = z >= 2
        ds_upper_limits_batch(n[exact], y[exact], z[exact], t, u, QS)
        for prior in PRIOR_PRESETS.values():
            bayes_upper_limits_batch(n, y, z, t, u, prior, QS)
        assert len(passes) == 5
        assert max(passes) <= 10

    def test_trigamma(self):
        x = np.geomspace(1e-3, 1e6, 500)
        np.testing.assert_allclose(_trigamma(x), sp.polygamma(1, x), rtol=1e-8)

    def test_start_is_clipped_into_the_solver_range(self):
        # pb = 1/(1 + t) rounds to 1 at t = 1e-17: the guess for (5, 3, 10)
        # lies far beyond BRACKET_CAP, and the limit is found from the cap.
        assert quantile_start(6, 3, 9, 1e-17, 10.0, 0.9) > BRACKET_CAP
        limit = ds_upper_limits_batch([5], [3], [10], 1e-17, 10.0, (0.9,))[0, 0]
        assert 0 < limit < BRACKET_CAP
