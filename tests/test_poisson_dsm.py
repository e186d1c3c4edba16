"""The Poisson belief-interval law and its two functionals."""

import math

import numpy as np
import pytest

from dsplim.sampling import RngHandle
from dsplim.specfun import QuadratureConfig, integrate
from oracles import (
    ARandomIntervalLaw,
    commonality,
    mc_interval_commonality,
    poisson_tail_gamma_cdf,
    sample_interval,
    sample_intervals,
    singleton_plausibility,
)


class TestCommonality:
    def test_count_zero(self):
        law = ARandomIntervalLaw(0, 1.0)
        assert commonality(law, 0.7, 2.0) == pytest.approx(math.exp(-2.0), rel=1e-14)

    def test_direct_formula(self):
        law = ARandomIntervalLaw(2, 1.0)
        assert commonality(law, 1.0, 2.0) == pytest.approx(
            0.5 * math.exp(-2.0), rel=1e-14
        )

    def test_against_interval_sampling_oracle(self):
        law = ARandomIntervalLaw(3, 1.0)
        exact = commonality(law, 2.0, 2.5)
        # frozen closed form (1/3!) 2^3 e^-2.5
        assert exact == pytest.approx(0.10944666483186506, rel=1e-13)
        est = mc_interval_commonality(
            3, 1.0, 2.0, 2.5, 10_000_000, RngHandle(11).generator
        )
        se = math.sqrt(exact * (1 - exact) / 10_000_000)
        assert abs(est - exact) < 4 * se

    def test_domain_error(self):
        with pytest.raises(ValueError):
            commonality(ARandomIntervalLaw(1), 2.0, 1.0)

    def test_large_count_no_overflow(self):
        law = ARandomIntervalLaw(500, 1.0)
        v = commonality(law, 480.0, 500.0)
        assert 0.0 < v < 1.0


class TestSingletonPlausibility:
    def test_count_zero_unit_point(self):
        law = ARandomIntervalLaw(0, 1.0)
        assert singleton_plausibility(law, 1.0) == pytest.approx(
            math.exp(-1.0), rel=1e-14
        )

    def test_zero_at_origin_for_positive_count(self):
        for k in (1, 2, 5):
            assert singleton_plausibility(ARandomIntervalLaw(k), 0.0) == 0.0

    def test_equals_commonality_of_trivial_range(self):
        for k, lam in [(0, 0.5), (1, 1.0), (3, 2.0), (10, 9.5)]:
            law = ARandomIntervalLaw(k, 1.0)
            assert singleton_plausibility(law, lam) == commonality(law, lam, lam)

    def test_equals_cdf_difference(self):
        for k, scale, lam in [(0, 1.0, 0.9), (3, 1.0, 2.0), (7, 0.25, 1.3)]:
            law = ARandomIntervalLaw(k, scale)
            gap = poisson_tail_gamma_cdf(k, lam / scale) - poisson_tail_gamma_cdf(
                k + 1, lam / scale
            )
            assert singleton_plausibility(law, lam) == pytest.approx(gap, abs=1e-14)

    def test_against_interval_sampling_oracle(self):
        law = ARandomIntervalLaw(3, 1.0)
        exact = singleton_plausibility(law, 2.0)
        lo, hi = sample_intervals(law, RngHandle(12), 1_000_000)
        est = float(np.mean((lo <= 2.0) & (hi >= 2.0)))
        se = math.sqrt(exact * (1 - exact) / 1_000_000)
        assert abs(est - exact) < 4 * se

    def test_curve_integrates_to_scale(self):
        cfg = QuadratureConfig(rel_tol=1e-10, abs_tol=1e-12)
        for k, scale in [(0, 1.0), (4, 1.0), (2, 0.5), (3, 2.0)]:
            law = ARandomIntervalLaw(k, scale)
            hi = scale * (k + 60.0)
            mass = integrate(lambda x: singleton_plausibility(law, x), 0.0, hi, cfg)
            assert mass == pytest.approx(scale, abs=1e-8 * max(1.0, scale))

    def test_scaling_consistency(self):
        """Plausibility with scale 1/t at lam equals unit scale at t*lam."""
        t = 33.0
        scaled = ARandomIntervalLaw(5, 1.0 / t)
        unit = ARandomIntervalLaw(5, 1.0)
        for lam in (0.01, 0.1, 0.2, 0.33):
            assert singleton_plausibility(scaled, lam) == pytest.approx(
                singleton_plausibility(unit, t * lam), rel=1e-13
            )


class TestSampleInterval:
    def test_count_zero_lower_is_exactly_zero(self):
        rng = RngHandle(13)
        for _ in range(20):
            lo, hi = sample_interval(ARandomIntervalLaw(0, 1.0), rng)
            assert lo == 0.0
            assert hi > 0.0

    def test_lower_mean(self):
        lo, hi = sample_intervals(ARandomIntervalLaw(4, 1.0), RngHandle(14), 1_000_000)
        assert abs(lo.mean() - 4.0) < 0.02
        assert np.all(lo <= hi)

    def test_gap_mean_scaled(self):
        lo, hi = sample_intervals(
            ARandomIntervalLaw(4, 0.5), RngHandle(15), 1_000_000
        )
        assert abs((hi - lo).mean() - 0.5) < 0.01

    def test_law_validation(self):
        with pytest.raises(ValueError):
            ARandomIntervalLaw(-1, 1.0)
        with pytest.raises(ValueError):
            ARandomIntervalLaw(2, 0.0)
