"""The series engine and the root finder against the loops they replaced.

The reference functions below are the scalar negative-binomial series,
the row-batched series, and the three doubling-plus-bisection loops as
they stood before one engine and one bracket-and-bisect helper served
every caller.  Shared-shape survival and every limit must agree
bitwise; the per-row series sums in another order and agrees to 1e-13.
"""

import math

import numpy as np
import pytest
from scipy import special as sp

from dsplim._gamma_ratio import NumericalError, survival_series
from dsplim.bayes import (
    _posterior_cdf,
    _posterior_conditioning,
    bayes_upper_limit,
    bayes_upper_limits_batch,
    conjugate_posteriors,
    prior_preset,
)
from dsplim.ds_limits import (
    ChannelObservation,
    Dataset,
    GridConfig,
    dataset_limits,
    shared_grid,
)
from dsplim.evalharness import (
    CredibilityConfig,
    NoPosteriorMass,
    _posterior_nuisance_draws,
    credibility_limit,
)
from dsplim.sampling import RngHandle

# ---------------------------------------------------------------------------
# reference implementations


def _ref_nb_pmf_block(r, p, count):
    p = np.atleast_1d(np.asarray(p, dtype=float))
    out = np.zeros((count, p.size))
    if r == 0:
        out[0] = 1.0
        return out
    with np.errstate(divide="ignore"):
        log_start = r * np.log1p(-p)
    out[0] = np.exp(log_start)
    for m in range(1, count):
        out[m] = out[m - 1] * p * ((r + m - 1.0) / m)
    return out


def _ref_survival_series(x, kn, wn, kb, wb, ke, we):
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if kn == 0:
        return np.zeros(x.shape)
    pb = wb / (wn + wb)
    nb_b = _ref_nb_pmf_block(kb, pb, kn)[:, 0]
    with np.errstate(invalid="ignore"):
        pe = np.where(np.isinf(x), 1.0, x * we / (wn + x * we))
    cum_e = np.cumsum(_ref_nb_pmf_block(ke, pe, kn), axis=0)
    return nb_b[::-1] @ cum_e


def _ref_survival_series_rows(x, kn, kb, ke, wn, wb, we):
    rows = x.size
    kmax = int(kn.max())
    m = np.arange(kmax, dtype=float)
    pb = wb / (wn + wb)
    nb_b = np.empty((rows, kmax))
    nb_b[:, 0] = np.exp(kb * math.log1p(-pb))
    for j in range(1, kmax):
        nb_b[:, j] = nb_b[:, j - 1] * (pb * (kb + j - 1.0) / j)
    pe = x * we / (wn + x * we)
    nb_e = np.empty((rows, kmax))
    with np.errstate(divide="ignore"):
        nb_e[:, 0] = np.exp(ke * np.log1p(-pe))
    for j in range(1, kmax):
        nb_e[:, j] = nb_e[:, j - 1] * (pe * (ke + j - 1.0) / j)
    cum_e = np.cumsum(nb_e, axis=1)
    mask = m[None, :] < kn[:, None]
    take = np.clip(kn[:, None] - 1 - m[None, :].astype(int), 0, kmax - 1)
    rev = np.take_along_axis(cum_e, take.astype(int), axis=1)
    return np.sum(nb_b * rev * mask, axis=1)


def _ref_posterior_quantile(post, q, rel_tol=1e-8):
    den = _posterior_conditioning(post)
    lo, hi = 0.0, 1.0
    while _posterior_cdf(post, hi, den, "auto", None) < q:
        lo = hi
        hi *= 2.0
        if hi > 1e15:
            raise NumericalError("posterior quantile bracket exceeded 1e15")
    while hi - lo > rel_tol * max(hi, 1e-300):
        mid = 0.5 * (lo + hi)
        if _posterior_cdf(post, mid, den, "auto", None) >= q:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


def _ref_limits_batch(ns, ys, zs, t, u, prior, quantiles, rel_tol=1e-8):
    ns, ys, zs = (np.asarray(a, dtype=int) for a in (ns, ys, zs))
    quantiles = np.asarray(quantiles, dtype=float)
    wn, wb, we = 1.0, 1.0 / t, 1.0 / u
    kn = np.repeat(ns + int(prior.a_n), quantiles.size)
    kb = np.repeat(ys + int(prior.a_b), quantiles.size).astype(float)
    ke = np.repeat(zs + int(prior.a_e), quantiles.size).astype(float)
    thresh = (1.0 - np.tile(quantiles, ns.size)) * sp.betainc(
        kb, kn.astype(float), wn / (wn + wb)
    )
    lo = np.zeros(kn.size)
    hi = np.ones(kn.size)
    for _ in range(64):
        need = _ref_survival_series_rows(hi, kn, kb, ke, wn, wb, we) > thresh
        if not need.any():
            break
        lo = np.where(need, hi, lo)
        hi = np.where(need, hi * 2.0, hi)
    else:
        raise NumericalError("batched quantile bracket did not close")
    active = np.ones(kn.size, dtype=bool)
    while active.any():
        mid = 0.5 * (lo + hi)
        ok = _ref_survival_series_rows(mid, kn, kb, ke, wn, wb, we) <= thresh
        hi = np.where(active & ok, mid, hi)
        lo = np.where(active & ~ok, mid, lo)
        active = (hi - lo) > rel_tol * np.maximum(hi, 1e-300)
    return (0.5 * (lo + hi)).reshape(ns.size, quantiles.size).T


def _credibility_from_draws(limit, n, bs, es):
    tail = 1.0 - sp.gammainc(n + 1.0, bs)
    den = float(np.mean(tail / es))
    if not den > 0.0:
        raise NoPosteriorMass("posterior denominator underflowed")
    if math.isinf(limit):
        return 1.0
    num = (sp.gammainc(n + 1.0, bs + es * limit) - sp.gammainc(n + 1.0, bs)) / es
    return float(np.mean(num) / den)


def _ref_credibility_limit(ch, cfg, q, n_samples, rng, rel_tol=1e-6):
    bs, es = _posterior_nuisance_draws(ch, cfg, n_samples, rng)
    lo, hi = 0.0, 1.0
    while _credibility_from_draws(hi, ch.n, bs, es) < q:
        lo = hi
        hi *= 2.0
        if hi > 1e15:
            raise NoPosteriorMass("credibility quantile bracket exceeded 1e15")
    while hi - lo > rel_tol * max(hi, 1e-300):
        mid = 0.5 * (lo + hi)
        if _credibility_from_draws(mid, ch.n, bs, es) >= q:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


# ---------------------------------------------------------------------------
# series engine

SHAPES = [
    (1, 0, 0), (1, 1, 1), (2, 0, 5), (3, 4, 0), (6, 11, 101),
    (20, 99, 100), (40, 7, 2), (0, 3, 3), (150, 30, 1),
]
SCALES = [(33.0, 100.0), (3.3, 10.0), (0.5, 2.0)]


def _grid_and_ladder():
    grid = shared_grid([ChannelObservation(5, 10, 100, 33.0, 100.0)], GridConfig())
    ladder = np.ldexp(1.0, np.arange(40))
    return [grid, ladder, np.array([0.0, 1.0, math.inf])]


class TestSeriesEngine:
    @pytest.mark.parametrize("kn, kb, ke", SHAPES)
    def test_shared_shapes_bitwise(self, kn, kb, ke):
        for t, u in SCALES:
            for xs in _grid_and_ladder():
                want = _ref_survival_series(xs, kn, 1.0, kb, 1 / t, ke, 1 / u)
                got = survival_series(xs, kn, 1.0, kb, 1 / t, ke, 1 / u)
                assert np.array_equal(got, want)

    def test_point_mass_shapes_at_infinity(self):
        # ke == 0: E is the constant 0, so survival keeps its x = 0 value.
        got = survival_series([0.0, math.inf], 4, 1.0, 2, 0.5, 0, 1.0)
        assert got[1] == got[0] > 0.0
        assert survival_series(math.inf, 4, 1.0, 2, 0.5, 3, 1.0)[0] == 0.0

    def test_per_row_shapes_match_row_batch(self):
        gen = np.random.default_rng(2024)
        for _ in range(20):
            rows = 200
            kn = gen.integers(1, 90, rows)
            kb = gen.integers(0, 400, rows).astype(float)
            ke = gen.integers(0, 200, rows).astype(float)
            x = gen.uniform(0.0, 80.0, rows)
            t, u = gen.uniform(0.5, 50.0), gen.uniform(1.0, 200.0)
            want = _ref_survival_series_rows(x, kn, kb, ke, 1.0, 1 / t, 1 / u)
            got = survival_series(x, kn, 1.0, kb, 1 / t, ke, 1 / u)
            np.testing.assert_allclose(got, want, rtol=1e-13, atol=0.0)

    def test_per_row_background_underflow_raises(self):
        kb = np.array([3.0, 4000.0])  # 4000 * log(1 - 1/1.2) < -600
        with pytest.raises(NumericalError):
            survival_series(
                np.array([1.0, 2.0]), np.array([3, 3]), 1.0, kb, 5.0,
                np.array([2.0, 2.0]), 0.1,
            )
        with pytest.raises(NumericalError):
            bayes_upper_limits_batch([3, 0], [2, 5000], [5, 1], 0.05, 10.0,
                                     prior_preset("B1"), (0.9,))

    def test_background_probability_rounding_to_one(self):
        # At t ~ 1e-17, pb = (1/t) / (1 + 1/t) rounds to 1: the start
        # value (1 - pb)**kb is 0, which is underflow, not a domain error.
        ch = ChannelObservation(5, 3, 10, 1e-17, 10.0)
        with pytest.raises(NumericalError):
            survival_series(np.array([1.0]), 6, 1.0, 3, 1e17, 10, 0.1)
        with pytest.raises(NumericalError):
            dataset_limits(Dataset((ch,)), [0.9])
        with pytest.raises(NumericalError):
            bayes_upper_limit(ch, prior_preset("B1"), 0.9)

    def test_per_row_validation(self):
        x = np.array([1.0, 2.0])
        with pytest.raises(ValueError):
            survival_series(x, np.array([3, -1]), 1.0, np.ones(2), 1.0, np.ones(2), 1.0)
        with pytest.raises(ValueError):
            survival_series(x, np.array([3, 2.5]), 1.0, np.ones(2), 1.0, np.ones(2), 1.0)


# ---------------------------------------------------------------------------
# root finder

CHANNELS = [
    ChannelObservation(n, y, z, t, u)
    for n, y, z in [(0, 0, 1), (1, 3, 0), (5, 10, 100), (12, 2, 7), (40, 90, 95)]
    for t, u in [(3.3, 10.0), (33.0, 100.0)]
]


class TestRootFinder:
    def test_posterior_quantile_bitwise(self):
        for ch in CHANNELS:
            for name in ("B1", "upper"):
                post = conjugate_posteriors(ch, prior_preset(name))
                for q in (0.5, 0.9, 0.99):
                    want = _ref_posterior_quantile(post, q)
                    assert bayes_upper_limit(ch, prior_preset(name), q) == want

    def test_batch_bitwise(self):
        gen = np.random.default_rng(7)
        for t, u, rates in [(33.0, 100.0, (20.0, 99.0, 100.0)), (3.3, 10.0, (2.0, 1.0, 1.0))]:
            ns, ys, zs = (gen.poisson(r, 60) for r in rates)
            for name in ("B1", "B2", "upper", "lower"):
                prior = prior_preset(name)
                want = _ref_limits_batch(ns, ys, zs, t, u, prior, (0.9, 0.99))
                got = bayes_upper_limits_batch(ns, ys, zs, t, u, prior, (0.9, 0.99))
                assert np.array_equal(got, want)

    def test_credibility_limit_bitwise(self):
        cfg = CredibilityConfig(b_prior=(3.0, 0.3), e_prior=(1.0, 0.1))
        for ch in CHANNELS[::2]:
            want = _ref_credibility_limit(ch, cfg, 0.9, 2000, RngHandle(11))
            assert credibility_limit(ch, cfg, 0.9, 2000, RngHandle(11)) == want

    def test_posterior_limit_beyond_cap(self):
        ch = ChannelObservation(5, 10, 100, 33.0, 1e16)
        with pytest.raises(NumericalError):
            bayes_upper_limit(ch, prior_preset("B1"), 0.9)
        with pytest.raises(NumericalError):
            bayes_upper_limits_batch([5, 2], [10, 3], [100, 4], 33.0, 1e16,
                                     prior_preset("B1"), (0.9,))

    def test_credibility_limit_beyond_cap(self):
        cfg = CredibilityConfig(b_prior=(3.0, 0.3), e_prior=(1e-17, 1e-18))
        ch = ChannelObservation(5, 10, 100, 33.0, 100.0)
        with pytest.raises(NoPosteriorMass):
            credibility_limit(ch, cfg, 0.9, 1000, RngHandle(3))
