"""Conjugate posteriors, the closed-form posterior CDF, and quantiles."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import special as sp

import dsplim._gamma_ratio as gamma_ratio
from dsplim._gamma_ratio import conditioning_probability, series_roots
from dsplim.bayes import (
    GammaPosteriors,
    PriorConfig,
    bayes_posterior_cdf,
    bayes_upper_limit,
    bayes_upper_limits_batch,
    conjugate_posteriors,
    prior_preset,
)
from dsplim.ds_limits import ChannelObservation, Dataset, channel_cdf_lower, dataset_limits
from dsplim.sampling import RngHandle
from dsplim.specfun import QuadratureConfig
from oracles import bisection_root, mc_posterior_ratio_cdf

CH = ChannelObservation(5, 10, 100, 33.0, 100.0)


class TestPresets:
    def test_preset_shapes(self):
        assert prior_preset("B1") == PriorConfig(1, 1, 1, "B1")
        assert prior_preset("B2").a_n == 2
        assert prior_preset("upper") == PriorConfig(2, 1, 1, "upper")
        assert prior_preset("lower") == PriorConfig(1, 2, 2, "lower")
        with pytest.raises(ValueError):
            prior_preset("B3")

    def test_prior_validation(self):
        with pytest.raises(ValueError):
            PriorConfig(0.0, 1.0, 1.0)


class TestConjugatePosteriors:
    def test_paper_parameterization(self):
        post = conjugate_posteriors(CH, prior_preset("B1"))
        assert post.ln == (6, 1.0)
        assert post.lb == (11, pytest.approx(1 / 33))
        assert post.le == (101, pytest.approx(1 / 100))

    def test_all_zero_counts_b2(self):
        post = conjugate_posteriors(
            ChannelObservation(0, 0, 0, 2.0, 5.0), prior_preset("B2")
        )
        assert (post.ln[0], post.lb[0], post.le[0]) == (2, 2, 2)

    def test_upper_lower_differ_only_in_shapes(self):
        up = conjugate_posteriors(CH, prior_preset("upper"))
        lo = conjugate_posteriors(CH, prior_preset("lower"))
        assert (up.ln[0], up.lb[0], up.le[0]) == (CH.n + 2, CH.y + 1, CH.z + 1)
        assert (lo.ln[0], lo.lb[0], lo.le[0]) == (CH.n + 1, CH.y + 2, CH.z + 2)
        assert (up.ln[1], up.lb[1], up.le[1]) == (lo.ln[1], lo.lb[1], lo.le[1])

    def test_common_scale_cancels_in_the_signal_posterior(self):
        # the signal is a ratio, so the textbook half-scales of a proper
        # unit-scale prior give the same CDF as the shape-only update
        literal = conjugate_posteriors(CH, prior_preset("B1"))
        half = GammaPosteriors(
            *((shape, 0.5 * scale) for shape, scale in (literal.ln, literal.lb, literal.le))
        )
        xs = np.array([0.5, 3.0, 9.0])
        np.testing.assert_allclose(
            bayes_posterior_cdf(literal, xs),
            bayes_posterior_cdf(half, xs),
            atol=1e-12,
        )


class TestPosteriorCdf:
    def test_boundary_values(self):
        post = conjugate_posteriors(CH, prior_preset("B1"))
        assert bayes_posterior_cdf(post, 0.0) == pytest.approx(0.0, abs=1e-9)
        assert bayes_posterior_cdf(post, 1e9) == pytest.approx(1.0, abs=1e-6)

    def test_monotone(self):
        post = conjugate_posteriors(CH, prior_preset("B2"))
        xs = np.linspace(0.0, 40.0, 300)
        vals = bayes_posterior_cdf(post, xs)
        assert np.all(np.diff(vals) >= -1e-12)

    def test_against_gamma_ratio_oracle(self):
        """Spec-listed configuration: shapes (6, 11, 101), scales (1, 1/33, 1/100)."""
        post = GammaPosteriors((6, 1.0), (11, 1 / 33), (101, 1 / 100))
        xs = [1.0, 3.0, 10.0]
        est, m = mc_posterior_ratio_cdf(
            (6, 11, 101), (1.0, 1 / 33, 1 / 100), xs, 2_000_000,
            RngHandle(31).generator,
        )
        exact = bayes_posterior_cdf(post, np.array(xs))
        se = np.sqrt(np.maximum(exact * (1 - exact), 1e-12) / m)
        assert np.all(np.abs(est - exact) <= 4 * se + 1e-9)

    def test_series_vs_quadrature(self):
        quad = QuadratureConfig(rel_tol=1e-11, abs_tol=1e-14)
        for prior in ("B1", "B2", "upper", "lower"):
            post = conjugate_posteriors(CH, prior_preset(prior))
            xs = np.array([0.0, 0.4, 2.0, 9.0, 25.0])
            a = bayes_posterior_cdf(post, xs, method="series")
            b = bayes_posterior_cdf(post, xs, method="quadrature", quad=quad)
            np.testing.assert_allclose(a, b, atol=5e-10)

    def test_noninteger_shapes_use_quadrature(self):
        post = GammaPosteriors((5.5, 1.0), (10.25, 1 / 33), (99.5, 1 / 100))
        v = bayes_posterior_cdf(post, 8.0)
        est, m = mc_posterior_ratio_cdf(
            (5.5, 10.25, 99.5), (1.0, 1 / 33, 1 / 100), [8.0], 1_000_000,
            RngHandle(32).generator,
        )
        se = np.sqrt(max(v * (1 - v), 1e-12) / m)
        assert abs(est[0] - v) <= 4 * se


class TestUpperLimitQuantile:
    def test_inversion_contract(self):
        for q in (0.5, 0.9, 0.99):
            lim = bayes_upper_limit(CH, prior_preset("B1"), q)
            post = conjugate_posteriors(CH, prior_preset("B1"))
            assert bayes_posterior_cdf(post, lim) == pytest.approx(q, abs=1e-7)

    def test_batch_matches_scalar(self):
        # Both routes stop within rel_tol = 1e-8 of a bisection run to 1e-12.
        rng = RngHandle(33).generator
        ns = rng.poisson(20.0, 50)
        ys = rng.poisson(99.0, 50)
        zs = rng.poisson(100.0, 50)
        for name in ("B1", "upper"):
            prior = prior_preset(name)
            batch = bayes_upper_limits_batch(ns, ys, zs, 33.0, 100.0, prior, (0.9, 0.99))
            for j in range(ns.size):
                ch = ChannelObservation(int(ns[j]), int(ys[j]), int(zs[j]), 33.0, 100.0)
                post = conjugate_posteriors(ch, prior)
                for i, q in enumerate((0.90, 0.99)):
                    want = bisection_root(lambda x: bayes_posterior_cdf(post, x) >= q)
                    assert batch[i, j] == pytest.approx(want, rel=1e-8)
                    assert bayes_upper_limit(ch, prior, q) == batch[i, j]

    def test_lower_prior_limits_below_upper_prior_limits(self):
        rng = RngHandle(34).generator
        ns = rng.poisson(25.0, 200)
        ys = rng.poisson(99.0, 200)
        zs = rng.poisson(100.0, 200)
        lo = bayes_upper_limits_batch(ns, ys, zs, 33.0, 100.0, prior_preset("lower"), (0.9,))
        up = bayes_upper_limits_batch(ns, ys, zs, 33.0, 100.0, prior_preset("upper"), (0.9,))
        assert np.all(lo[0] <= up[0] + 1e-9)

    def test_quantile_domain(self):
        with pytest.raises(ValueError):
            bayes_upper_limit(CH, prior_preset("B1"), 1.0)

    @pytest.mark.parametrize(
        "q,t", [(0.0, 33.0), (1.0, 33.0), (1.5, 33.0), (0.9, 0.0), (0.9, -1.0)]
    )
    def test_batch_input_checks(self, q, t):
        # the checks of bayes_upper_limit, made before any 1 / t
        with pytest.raises(ValueError, match="quantile|scales"):
            bayes_upper_limits_batch([5], [10], [100], t, 100.0, prior_preset("B1"), (q,))

    def test_batch_takes_quadrature_above_series_bound(self, monkeypatch):
        # With the bound patched to 8, (4, 3, 9) has ke = 10 above it and
        # takes the quadrature state; the other rows stay on the series.
        prior, qs = prior_preset("B1"), (0.9, 0.99)
        ns, ys, zs = [2, 4, 1], [3, 3, 0], [5, 9, 6]
        unpatched = bayes_upper_limits_batch(ns, ys, zs, 3.3, 10.0, prior, qs)
        monkeypatch.setattr(gamma_ratio, "_SERIES_MAX_SHAPE", 8)
        got = bayes_upper_limits_batch(ns, ys, zs, 3.3, 10.0, prior, qs)
        series = bayes_upper_limits_batch([2, 1], [3, 0], [5, 6], 3.3, 10.0, prior, qs)
        assert np.array_equal(got[:, [0, 2]], series)
        ch = ChannelObservation(4, 3, 9, 3.3, 10.0)
        assert [bayes_upper_limit(ch, prior, q) for q in qs] == got[:, 1].tolist()
        np.testing.assert_allclose(got[:, 1], unpatched[:, 1], rtol=1e-7, atol=0.0)

    def test_noninteger_prior_takes_quadrature(self):
        prior = PriorConfig(1.5, 1.0, 1.0)
        ch = ChannelObservation(4, 3, 9, 3.3, 10.0)
        batch = bayes_upper_limits_batch([4], [3], [9], 3.3, 10.0, prior, (0.9,))
        assert bayes_upper_limit(ch, prior, 0.9) == batch[0, 0]
        post = conjugate_posteriors(ch, prior)
        assert bayes_posterior_cdf(post, batch[0, 0]) == pytest.approx(0.9, abs=1e-7)

    def test_batch_term_budget_keeps_bits(self, monkeypatch):
        import dsplim._gamma_ratio as gamma_ratio

        rng = RngHandle(35).generator
        ns, ys, zs = rng.poisson(20.0, 40), rng.poisson(99.0, 40), rng.poisson(100.0, 40)
        prior = prior_preset("lower")
        want = bayes_upper_limits_batch(ns, ys, zs, 33.0, 100.0, prior, (0.9, 0.99))
        monkeypatch.setattr(gamma_ratio, "_SERIES_TERMS", 200)
        got = bayes_upper_limits_batch(ns, ys, zs, 33.0, 100.0, prior, (0.9, 0.99))
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("name", ["B1", "B2"])
    def test_single_row_batch_keeps_bits(self, name):
        # A batch of one (row, quantile) pair sums its series terms in the
        # same order as a larger batch.
        rows = np.array([(0, 3, 3), (2, 0, 4), (5, 1, 8), (12, 4, 3), (19, 12, 12),
                         (7, 7, 5), (290, 2, 9), (150, 40, 30)])
        prior = prior_preset(name)
        together = bayes_upper_limits_batch(*rows.T, 3.3, 10.0, prior, (0.9,))
        for j, row in enumerate(rows):
            alone = bayes_upper_limits_batch(*row[:, None], 3.3, 10.0, prior, (0.9,))
            assert alone[0, 0] == together[0, j]

    def test_conditioning_probability_only_on_the_quadrature_route(self, monkeypatch):
        calls = []

        def counted(*args):
            calls.append(args)
            return conditioning_probability(*args)

        monkeypatch.setattr(gamma_ratio, "conditioning_probability", counted)
        prior = prior_preset("B1")
        post = conjugate_posteriors(CH, prior)
        xs = np.array([0.5, 5.0])
        series = bayes_upper_limit(CH, prior, 0.9)
        series_cdf = bayes_posterior_cdf(post, xs)
        bayes_upper_limits_batch([CH.n], [CH.y], [CH.z], CH.t, CH.u, prior, (0.9,))
        assert calls == []
        # Shapes above the series bound: one beta CDF per posterior.
        monkeypatch.setattr(gamma_ratio, "_SERIES_MAX_SHAPE", 8)
        assert bayes_upper_limit(CH, prior, 0.9) == pytest.approx(series, rel=1e-7)
        assert len(calls) == 1
        np.testing.assert_allclose(bayes_posterior_cdf(post, xs), series_cdf, atol=1e-9)
        assert len(calls) == 2


# The series den sums log-pmf terms of order 1e3, so at shapes near 600
# it carries up to about 1.5e-12 relative error, where scipy's betainc is
# within 2e-13 of a 40-digit value; a CDF divides the survival by the den
# of its own state, whose background sums it shares.
@settings(max_examples=200, deadline=None)
@given(
    rows=st.lists(
        st.tuples(st.integers(1, 600), st.integers(0, 600), st.integers(1, 200)),
        min_size=1,
        max_size=6,
    ),
    t=st.floats(0.05, 100.0),
    u=st.floats(0.05, 100.0),
)
def test_batch_den_is_the_posterior_mass(rows, t, u):
    """The den series_roots hands the Bayes residual is P(NB(kb, pb) <=
    kn - 1), a regularized incomplete beta, and the CDF it gives is 0 at
    x = 0 exactly."""
    kn, kb, ke = np.array(rows, dtype=float).T
    seen = {}

    def residual(values, den, pairs, qs):
        seen.update(pairs=pairs, den=den, at_zero=values(np.zeros(pairs.size)))
        return np.ones(pairs.size), np.log  # the root x = 1

    series_roots((kn, kb, ke), t, u, (0.5, 0.9), 1e-8, residual)
    den, at_zero, pairs = seen["den"], seen["at_zero"], seen["pairs"]
    want = sp.betainc(kb[pairs], kn[pairs], 1.0 / (1.0 + 1.0 / t))
    normal = want > 1e-280
    np.testing.assert_allclose(den[normal], want[normal], rtol=3e-12)
    assert np.all(den[~normal] < 1e-270)
    positive = den > 0
    assert np.all(1.0 - at_zero[positive] / den[positive] == 0.0)


class TestCrossModuleIdentity:
    def test_channel_lower_cdf_is_a_posterior_cdf(self):
        """The belief-interval lower-end CDF equals the posterior CDF at
        shifted shapes (n, y+1, z+1), up to the conditioning event."""
        from dsplim._gamma_ratio import conditioning_probability, survival

        xs = np.array([0.3, 2.0, 7.0])
        num = survival(xs, CH.n, 1.0, CH.y + 1, 1 / CH.t, CH.z + 1, 1 / CH.u)
        den = conditioning_probability(CH.n + 1, 1.0, CH.y, 1 / CH.t)
        np.testing.assert_allclose(
            channel_cdf_lower(CH, xs), 1.0 - num / den, atol=1e-13
        )


def test_ds_sandwich_report(capsys):
    """Observed relation of DS limits to the lower/upper prior limits.

    Reported, not asserted: the belief-interval limit is expected to
    fall between the lower-prior and upper-prior Bayesian limits on
    most datasets with all counts >= 1.
    """
    rng = RngHandle(35).generator
    inside = total = 0
    for _ in range(100):
        n, y, z = rng.poisson((25.0, 99.0, 100.0))
        if min(n, y, z) < 1:
            continue
        ch = ChannelObservation(int(n), int(y), int(z), 33.0, 100.0)
        ds_lim = dataset_limits(Dataset((ch,)), [0.9])[0]
        lo = bayes_upper_limit(ch, prior_preset("lower"), 0.9)
        up = bayes_upper_limit(ch, prior_preset("upper"), 0.9)
        total += 1
        inside += lo <= ds_lim <= up
    print(f"\nDS limit within [lower, upper] Bayesian limits: {inside}/{total}")
    assert total > 0
