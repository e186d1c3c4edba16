"""Coverage estimators, credibility, study machinery, length quantiles."""

import math

import numpy as np
import pytest

from dsplim.bayes import bayes_upper_limit, prior_preset
from dsplim.ds_limits import ChannelObservation, GridConfig
from dsplim.evalharness import (
    CredibilityConfig,
    EnumerationTooLarge,
    NoPosteriorMass,
    NuisanceTruth,
    coverage_enumerate,
    coverage_importance,
    credibility,
    credibility_limit,
    length_quantiles,
    make_bayes_method,
    make_ds_method,
    simulate_study,
)
from dsplim.evalharness import _credibility_curve, _posterior_nuisance_draws
from dsplim.sampling import RngHandle
from oracles import mc_credibility

TASK1B = dict(t=3.3, u=10.0, truth_nuisance=(0.1, 0.3))

# (n, y, z) at t = u = 1 whose B1 background block underflows the series
# (871 * log(1/2) < -600), although its posterior mass on s >= 0 is
# about 1/2; the scalar route reaches its limit by quadrature.
UNDERFLOW_ROW = (870, 870, 1)


@pytest.fixture(scope="module")
def underflow_limit():
    ch = ChannelObservation(*UNDERFLOW_ROW, 1.0, 1.0)
    return bayes_upper_limit(ch, prior_preset("B1"), 0.9)


def _const_method(value):
    def method(counts, t, u, quantiles):
        return np.full((len(quantiles), len(counts)), value)

    return method


class TestCoverageEnumerate:
    def test_positive_limits_cover_zero(self):
        rep = coverage_enumerate(
            _const_method(0.5), s_grid=[0.0], q=0.9, tail_eps=1e-8, **TASK1B
        )
        assert rep.estimate[0] == pytest.approx(1.0, abs=1e-7)

    def test_infinite_limits_cover_everything(self):
        rep = coverage_enumerate(
            _const_method(math.inf), s_grid=[0.0, 10.0, 25.0], q=0.9,
            tail_eps=1e-8, **TASK1B
        )
        np.testing.assert_allclose(rep.estimate, 1.0, atol=1e-7)

    def test_strict_inequality(self):
        # limit exactly equal to s does not cover
        rep = coverage_enumerate(
            _const_method(10.0), s_grid=[10.0], q=0.9, tail_eps=1e-8, **TASK1B
        )
        assert rep.estimate[0] == 0.0

    def test_cell_budget(self):
        with pytest.raises(EnumerationTooLarge):
            coverage_enumerate(
                _const_method(1.0), s_grid=[5.0], q=0.9, cell_budget=10, **TASK1B
            )

    def test_truncation_bound_reported(self):
        rep = coverage_enumerate(
            _const_method(1.0), s_grid=[1.0], q=0.9, tail_eps=1e-9, **TASK1B
        )
        assert rep.truncation_bound == pytest.approx(3e-9)
        assert rep.mode == "enumeration"
        assert np.all(rep.std_err == 0.0)


class TestCoverageImportance:
    def test_weights_are_unit_at_reference(self):
        method = _const_method(12.0)
        rng = RngHandle(41)
        rep = coverage_importance(
            method, s_grid=[8.0], q=0.9, n_samples=2000, s_ref=8.0, rng=rng,
            **TASK1B
        )
        # at s == s_ref the weights are identically 1, so the estimate
        # is the plain frequency: here every limit is 12 > 8
        assert rep.estimate[0] == pytest.approx(1.0)
        assert rep.std_err[0] == pytest.approx(0.0, abs=1e-12)
        assert rep.ess[0] == pytest.approx(2000.0)

    def test_weight_mean_is_one(self):
        (eps, b) = TASK1B["truth_nuisance"]
        rng = RngHandle(42)
        gen = rng.generator
        mu_ref = eps * 10.0 + b
        ns = gen.poisson(mu_ref, 50_000)
        for s in (5.0, 10.0, 15.0):
            mu = eps * s + b
            w = np.exp(-(mu - mu_ref) + ns * np.log(mu / mu_ref))
            se = w.std(ddof=1) / math.sqrt(w.size)
            assert abs(w.mean() - 1.0) <= 4 * se

    def test_agrees_with_enumeration(self):
        method = make_ds_method(GridConfig(points=128))
        s_grid = [5.0, 10.0, 15.0]
        enum = coverage_enumerate(
            method, s_grid=s_grid, q=0.9, tail_eps=1e-7, **TASK1B
        )
        imp = coverage_importance(
            method, s_grid=s_grid, q=0.9, n_samples=4000, s_ref=10.0,
            rng=RngHandle(43), **TASK1B
        )
        assert np.all(np.abs(imp.estimate - enum.estimate) <= 4 * imp.std_err)

    def test_degenerate_weights_warn(self):
        method = _const_method(100.0)
        with pytest.warns(RuntimeWarning, match="degenerate"):
            coverage_importance(
                method, t=33.0, u=100.0, truth_nuisance=(1.0, 3.0),
                s_grid=np.arange(0.0, 41.0, 5.0), q=0.9, n_samples=500,
                s_ref=20.0, rng=RngHandle(44),
            )

    def test_s_ref_must_be_in_hull(self):
        with pytest.raises(ValueError):
            coverage_importance(
                _const_method(1.0), s_grid=[5.0, 10.0], q=0.9, n_samples=10,
                s_ref=50.0, rng=RngHandle(45), **TASK1B
            )


CRED_CFG = CredibilityConfig(b_prior=(3.0, 0.3), e_prior=(1.0, 0.1))
CRED_CH = ChannelObservation(5, 10, 100, 33.0, 100.0)


class TestCredibility:
    def test_zero_limit(self):
        assert credibility(0.0, CRED_CH, CRED_CFG, 1000, RngHandle(51)) == 0.0

    def test_infinite_limit(self):
        assert credibility(math.inf, CRED_CH, CRED_CFG, 1000, RngHandle(52)) == 1.0

    def test_monotone_in_limit_with_shared_draws(self):
        bs, es = _posterior_nuisance_draws(CRED_CH, CRED_CFG, 4000, RngHandle(53))
        curve = _credibility_curve(CRED_CH.n, bs, es)
        vals = [curve(lim) for lim in (0.0, 1.0, 3.0, 6.0, 12.0, 30.0)]
        assert all(b >= a for a, b in zip(vals, vals[1:]))

    def test_against_full_monte_carlo_oracle(self):
        est = credibility(9.0, CRED_CH, CRED_CFG, 400_000, RngHandle(54))
        orc = mc_credibility(
            9.0, CRED_CH.n, CRED_CH.y, CRED_CH.z, CRED_CH.t, CRED_CH.u,
            (3.0, 0.3), (1.0, 0.1), 2_000_000, RngHandle(55).generator,
        )
        assert est == pytest.approx(orc, abs=0.01)

    def test_no_posterior_mass(self):
        cfg = CredibilityConfig(b_prior=(900.0, 1.0), e_prior=(1.0, 0.1))
        ch = ChannelObservation(0, 0, 100, 1.0, 100.0)
        with pytest.raises(NoPosteriorMass):
            credibility(1.0, ch, cfg, 100, RngHandle(56))

    def test_quantile_self_consistency(self):
        lim = credibility_limit(CRED_CH, CRED_CFG, 0.9, 30_000, RngHandle(57))
        back = credibility(lim, CRED_CH, CRED_CFG, 30_000, RngHandle(58))
        assert back == pytest.approx(0.9, abs=0.02)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            CredibilityConfig(b_prior=(0.0, 1.0), e_prior=(1.0, 0.1))


class TestSimulateStudy:
    def test_reps_one_degenerate(self):
        res = simulate_study(
            3.3, 10.0, 0.1, 0.3, [2.0, 5.0], reps=1, methods=("ds", "B1"),
            seed=7, grid=GridConfig(points=64),
        )
        for key, cov in res.coverage.items():
            assert set(np.unique(cov)) <= {0.0, 1.0}

    def test_same_datasets_across_methods(self):
        # the generated datasets belong to the s cell, not to the method
        # list, so adding a method must not change anyone else's limits
        alone = simulate_study(
            3.3, 10.0, 0.1, 0.3, [5.0], reps=40, methods=("B1",), seed=8
        )
        paired = simulate_study(
            3.3, 10.0, 0.1, 0.3, [5.0], reps=40, methods=("B1", "B2"), seed=8
        )
        assert np.array_equal(
            alone.limits[("B1", 0.9)], paired.limits[("B1", 0.9)]
        )

    def test_determinism_across_worker_counts(self):
        kw = dict(
            t=3.3, u=10.0, eps=0.1, b=0.3, s_grid=[3.0, 9.0], reps=25,
            methods=("ds", "B1"), seed=9, grid=GridConfig(points=64),
        )
        serial = simulate_study(**kw, threads=1)
        pooled = simulate_study(**kw, threads=2)
        for key in serial.coverage:
            assert np.array_equal(serial.coverage[key], pooled.coverage[key])
            assert np.array_equal(serial.limits[key], pooled.limits[key])

    def test_summary_rows(self):
        res = simulate_study(
            3.3, 10.0, 0.1, 0.3, [20.0, 30.0, 40.0], reps=20, methods=("B1",),
            seed=10,
        )
        rows = res.summary(20.0, 40.0)
        assert len(rows) == 2
        method, level, mean, sd = rows[0]
        assert method == "B1" and level == 0.9
        assert 0.0 <= mean <= 1.0 and sd >= 0.0

    def test_reps_validation(self):
        with pytest.raises(ValueError):
            simulate_study(3.3, 10.0, 0.1, 0.3, [1.0], reps=0)


class TestNuisanceTruth:
    def test_rates(self):
        truth = NuisanceTruth(s=10.0, eps=0.1, b=0.3)
        mu, nu, rho = truth.rates(3.3, 10.0)
        assert mu == pytest.approx(1.3)
        assert nu == pytest.approx(0.99)
        assert rho == pytest.approx(1.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            NuisanceTruth(s=-1.0, eps=1.0, b=0.0)


class TestLengthQuantiles:
    def test_constant_sequence(self):
        assert length_quantiles([4.2] * 10, [0.1, 0.5, 0.99]) == [4.2, 4.2, 4.2]

    def test_lower_prior_intervals_shorter_than_ds(self):
        # one batch, two methods: the conservative-prior method should
        # produce shorter upper limits in the median
        res = simulate_study(
            33.0, 100.0, 1.0, 3.0, [25.0], reps=150, methods=("ds", "lower"),
            seed=11,
        )
        ds_med = length_quantiles(res.limits[("ds", 0.9)][0], [0.5])[0]
        lo_med = length_quantiles(res.limits[("lower", 0.9)][0], [0.5])[0]
        assert lo_med <= ds_med

    def test_nearest_rank_lower(self):
        assert length_quantiles([1.0, 2.0, 3.0, 4.0], [0.5]) == [2.0]
        assert length_quantiles([4.0, 1.0, 3.0, 2.0], [0.25, 0.75, 1.0]) == [
            1.0,
            3.0,
            4.0,
        ]

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            length_quantiles([], [0.5])


class TestMethodFactories:
    def test_ds_method_returns_inf_when_unbounded(self):
        method = make_ds_method()
        lims = method(np.array([[3, 2, 0], [3, 2, 4]]), 3.3, 10.0, (0.9, 0.99))
        assert lims.shape == (2, 2)
        assert np.all(lims[:, 0] == math.inf)
        assert np.all(np.isfinite(lims[:, 1])) and lims[0, 1] < lims[1, 1]

    def test_bayes_method_shape(self):
        method = make_bayes_method("B1")
        lims = method(np.array([[3, 2, 0], [3, 2, 4], [0, 0, 1]]), 3.3, 10.0, (0.9,))
        assert lims.shape == (1, 3)
        assert np.all(np.isfinite(lims)) and np.all(lims > 0)

    def test_bayes_method_underflowing_row_alone(self, underflow_limit):
        method = make_bayes_method("B1")
        lims = method(np.array([UNDERFLOW_ROW]), 1.0, 1.0, (0.9,))
        assert lims[0, 0] == underflow_limit

    def test_bayes_method_underflowing_row_in_block(self, underflow_limit):
        method = make_bayes_method("B1")
        counts = np.array([(3, 2, 5), UNDERFLOW_ROW, (10, 4, 0), (3, 2, 5)])
        lims = method(counts, 1.0, 1.0, (0.9,))
        assert lims[0, 1] == underflow_limit
        others = method(counts[[0, 2]], 1.0, 1.0, (0.9,))
        assert np.array_equal(lims[0, [0, 2, 3]], others[0, [0, 1, 0]])
