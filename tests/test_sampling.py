"""Variate generation: moments, distributional identities, determinism."""

import numpy as np
import pytest
from scipy import stats

from dsplim.sampling import RngHandle, derive_stream_id
from oracles import sample_exponential, sample_gamma


class TestExponential:
    def test_unit_scale_mean(self):
        rng = RngHandle(1)
        xs = sample_exponential(rng, 1.0, size=1_000_000)
        assert abs(xs.mean() - 1.0) < 0.01

    def test_scale_two_mean(self):
        rng = RngHandle(2)
        xs = sample_exponential(rng, 2.0, size=1_000_000)
        assert abs(xs.mean() - 2.0) < 0.02

    def test_tail_probability(self):
        rng = RngHandle(3)
        xs = sample_exponential(rng, 1.0, size=1_000_000)
        assert abs(np.mean(xs > 3.0) - np.exp(-3.0)) < 0.002

    def test_scale_validation(self):
        with pytest.raises(ValueError):
            sample_exponential(RngHandle(1), 0.0)


class TestGamma:
    def test_shape_zero_is_exactly_zero(self):
        rng = RngHandle(4)
        assert sample_gamma(rng, 0.0, 1.0) == 0.0
        assert np.all(sample_gamma(rng, 0.0, 1.0, size=100) == 0.0)

    def test_mean(self):
        rng = RngHandle(5)
        xs = sample_gamma(rng, 3.0, 1.0, size=1_000_000)
        assert abs(xs.mean() - 3.0) < 0.02

    def test_matches_sum_of_exponentials(self):
        """Gamma(3) equals three summed unit exponentials in law (KS)."""
        rng = RngHandle(6)
        n = 100_000
        direct = sample_gamma(rng, 3.0, 1.0, size=n)
        summed = sample_exponential(rng, 1.0, size=(n, 3)).sum(axis=1)
        stat = stats.ks_2samp(direct, summed).statistic
        # 0.1% two-sample KS critical value: 1.949 * sqrt(2/n)
        assert stat < 1.949 * np.sqrt(2.0 / n)


class TestDeterminism:
    def test_equal_handles_equal_streams(self):
        a = sample_gamma(RngHandle(123, 42), 2.5, 1.0, size=100)
        b = sample_gamma(RngHandle(123, 42), 2.5, 1.0, size=100)
        assert np.array_equal(a, b)

    def test_distinct_streams_differ(self):
        a = sample_gamma(RngHandle(123, 1), 2.5, 1.0, size=100)
        b = sample_gamma(RngHandle(123, 2), 2.5, 1.0, size=100)
        assert not np.array_equal(a, b)

    def test_stream_id_is_stable_hash(self):
        assert derive_stream_id("simulate", 3, 1) == derive_stream_id("simulate", 3, 1)
        assert derive_stream_id("simulate", 3, 1) != derive_stream_id("simulate", 1, 3)
        assert derive_stream_id("coverage", 3) != derive_stream_id("simulate", 3)

    def test_split_matches_manual_derivation(self):
        h = RngHandle(99)
        child = h.split("task", 7)
        assert child.seed == 99
        assert child.stream_id == derive_stream_id("task", 7)
