"""The log-space negative-binomial series on channels whose start value
(1 - p)**r lies far below the double range, and on one whose background
probability pb rounds to 1.  The oracles are scipy's nbinom (its CDF is
a regularized incomplete beta, independent of the series) with the
success probabilities taken from the scales, adaptive quadrature for
one Bayes row, and the grid route against the grid-free route for DS
limits.  Every call under test has a time budget."""

import math
import time

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.stats import nbinom

from dsplim._gamma_ratio import (
    NumericalError,
    _interval_series,
    _log_binomials,
    _nb_pmf_block,
    integrated_survival_series,
    survival_series,
)
from dsplim.bayes import (
    bayes_posterior_cdf,
    bayes_upper_limit,
    bayes_upper_limits_batch,
    conjugate_posteriors,
    prior_preset,
)
from dsplim.cli import main
from dsplim.ds_limits import (
    ChannelObservation,
    Dataset,
    channel_cdf_lower,
    channel_cdf_upper,
    dataset_limits,
    ds_upper_limits_batch,
)
from dsplim.evalharness import make_ds_method
from oracles import bisection_root, nb_convolution_integral, nb_convolution_survival

BUDGET_S = 2.0  # per call under test
QUANTILES = (0.9, 0.99)
# The default 512-knot grid's error: at most 4.2e-3 relative on the
# stored single-channel samples.
GRID_RTOL = 5e-3

# (n, y, z, t, u): three channels whose efficiency block starts far below
# the double range while it holds mass below n + 1, and one at t = 1e-17,
# where pb = (1/t) / (1 + 1/t) rounds to 1.
ROWS = [
    (5000, 0, 5000, 1.0, 1.0),
    (1500, 10, 1500, 10.0, 10.0),
    (2000, 400, 100, 0.2, 10.0),
    (5, 3, 10, 1e-17, 10.0),
]


def timed(fn, *args):
    start = time.perf_counter()
    out = fn(*args)
    elapsed = time.perf_counter() - start
    assert elapsed < BUDGET_S, f"{fn.__name__} took {elapsed:.2f} s"
    return out


def _oracle_plausibility_cdf(x, n, y, z, t, u):
    """G(x) of one DS channel from the scipy integrated survivals."""

    def mass(v):
        up = nb_convolution_integral(v, n + 1, 1.0, y, 1.0 / t, z, 1.0 / u)
        lo = nb_convolution_integral(v, n, 1.0, y + 1, 1.0 / t, z + 1, 1.0 / u)
        return up - lo

    return mass(x) / mass(math.inf)


class TestBlock:
    def test_block_past_start_underflow(self):
        # NB(5000, 1/2) starts from 2**-5000, yet holds all its mass here
        count = 10_001
        got = _nb_pmf_block(
            _log_binomials(5000.0, count), 5000.0, math.log(0.5), math.log(0.5)
        )
        want = nbinom.pmf(np.arange(count), 5000, 0.5)
        np.testing.assert_allclose(got, want, rtol=1e-10, atol=1e-300)
        assert abs(got.sum() - 1.0) < 1e-10

    def test_block_with_background_probability_rounding_to_one(self):
        wb = 1e17  # pb = wb / (1 + wb) rounds to 1
        got = _nb_pmf_block(
            _log_binomials(3.0, 10), 3.0, -math.log1p(1.0 / wb), -math.log1p(wb)
        )
        want = nbinom.pmf(np.arange(10), 3, 1.0 / (1.0 + wb))
        assert want[0] > 0.0
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=0.0)

    def test_survival_past_start_underflow(self):
        got = timed(survival_series, 1.0, 5001, 1.0, 0, 1.0, 5000, 1.0)[0]
        assert abs(got - nbinom.cdf(5000, 5000, 0.5)) < 1e-10


@pytest.mark.parametrize("row", ROWS, ids=str)
class TestReproducers:
    def test_channel_cdfs(self, row):
        n, y, z, t, u = row
        ch = ChannelObservation(*row)
        (lim,) = ds_upper_limits_batch([n], [y], [z], t, u, (0.9,))[:, 0]
        xs = lim * np.array([0.0, 0.5, 0.9, 1.0, 1.1, 2.0])
        # P(N_upper >= Y_lower / t) is the upper shapes' survival at x = 0
        den = nb_convolution_survival(0.0, n + 1, 1.0, y, 1.0 / t, z, 1.0 / u)
        for cdf, shapes in (
            (channel_cdf_upper, (n + 1, y, z)),
            (channel_cdf_lower, (n, y + 1, z + 1)),
        ):
            kn, kb, ke = shapes
            got = timed(cdf, ch, xs)
            want = [
                1.0 - nb_convolution_survival(x, kn, 1.0, kb, 1 / t, ke, 1 / u) / den
                for x in xs
            ]
            np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-9)

    def test_ds_limits_grid_and_exact(self, row):
        n, y, z, t, u = row
        grid = timed(dataset_limits, Dataset((ChannelObservation(*row),)), QUANTILES)
        exact = timed(ds_upper_limits_batch, [n], [y], [z], t, u, QUANTILES)[:, 0]
        assert np.all(np.isfinite(exact)) and np.all(exact > 0)
        np.testing.assert_allclose(grid, exact, rtol=GRID_RTOL)
        for q, lim in zip(QUANTILES, exact):
            assert abs(_oracle_plausibility_cdf(lim, n, y, z, t, u) - q) < 1e-8


# z = 2 rows with n, y > 0 at the small-rate scales.  The studies take
# them by the grid-free batch; the 512-knot grid is up to 1e-2 off there.
Z2_ROWS = [(3, 2, 2, 3.3, 10.0), (10, 4, 2, 3.3, 10.0)]


@pytest.mark.parametrize("row", Z2_ROWS, ids=str)
def test_z2_study_limits_against_scipy(row):
    n, y, z, t, u = row
    lims = timed(make_ds_method(), np.array([(n, y, z)]), t, u, QUANTILES)[:, 0]
    for q, lim in zip(QUANTILES, lims):
        assert abs(_oracle_plausibility_cdf(lim, n, y, z, t, u) - q) < 1e-8
    exact = ds_upper_limits_batch([n], [y], [z], t, u, QUANTILES)[:, 0]
    assert np.array_equal(lims, exact)


class TestBayes:
    def test_b1_row_past_start_underflow(self):
        # B1 at (870, 870, 1), t = u = 1: the background block NB(871, 1/2)
        # starts from 2**-871; its posterior mass on s >= 0 is about 1/2
        ch = ChannelObservation(870, 870, 1, 1.0, 1.0)
        prior = prior_preset("B1")
        scalar = timed(bayes_upper_limit, ch, prior, 0.9)
        batch = timed(bayes_upper_limits_batch, [870], [870], [1], 1.0, 1.0,
                      prior, (0.9,))
        post = conjugate_posteriors(ch, prior)
        want = bisection_root(lambda x: bayes_posterior_cdf(post, x) >= 0.9)
        assert batch[0, 0] == pytest.approx(want, rel=1e-8)
        assert scalar == pytest.approx(want, rel=1e-8)
        assert abs(bayes_posterior_cdf(post, scalar, method="quadrature") - 0.9) < 1e-7

    def test_background_probability_rounding_to_one(self):
        n, y, z, t, u = ROWS[-1]
        prior = prior_preset("B1")
        scalar = timed(bayes_upper_limit, ChannelObservation(*ROWS[-1]), prior, 0.9)
        batch = timed(bayes_upper_limits_batch, [n], [y], [z], t, u, prior, (0.9,))
        assert batch[0, 0] == pytest.approx(scalar, rel=1e-8)
        # posterior shapes (n + 1, y + 1, z + 1), scales (1, 1/t, 1/u)
        shapes = (n + 1, 1.0, y + 1, 1.0 / t, z + 1, 1.0 / u)
        cdf = 1.0 - (
            nb_convolution_survival(scalar, *shapes)
            / nb_convolution_survival(0.0, *shapes)
        )
        assert abs(cdf - 0.9) < 1e-7


class TestConditioningUnderflow:
    """Channels whose conditioning probability is below 1e-250 keep a
    named error: the survival and its normalizer are not on one scale."""

    ROWS = [(0, 5000, 1, 0.05, 10.0), (3, 2000, 5, 0.1, 10.0)]

    @pytest.mark.parametrize("row", ROWS, ids=str)
    def test_named_errors(self, row, tmp_path):
        n, y, z, t, u = row
        ch = ChannelObservation(*row)
        with pytest.raises(NumericalError, match="conditioning probability"):
            timed(dataset_limits, Dataset((ch,)), QUANTILES)
        with pytest.raises(NumericalError, match="posterior mass"):
            timed(bayes_upper_limit, ch, prior_preset("B1"), 0.9)
        inp = tmp_path / "in.txt"
        inp.write_text(f"channels 1\nscales {t} {u}\n{n} {y} {z}\n")
        out = tmp_path / "out.csv"
        assert main(["limits", "--input", str(inp), "--output", str(out)]) == 3
        assert out.read_text().splitlines()[1] == "0,,,failed"

    def test_exact_route_raises_named_error(self):
        with pytest.raises(NumericalError, match="plausibility mass") as err:
            timed(ds_upper_limits_batch, [3], [2000], [5], 0.1, 10.0, QUANTILES)
        assert "(n, y, z) = (3, 2000, 5)" in str(err.value)


# 500 examples take 3.0-3.7 s on a 2-core host.
@settings(max_examples=500, deadline=None)
@given(
    kn=st.integers(0, 2000),
    kb=st.integers(0, 5000),
    ke=st.integers(0, 5000),
    t=st.floats(0.05, 100.0),
    u=st.floats(0.05, 100.0),
    xs=st.lists(st.floats(0.0, 1e4), min_size=1, max_size=4),
)
def test_survival_series_against_scipy(kn, kb, ke, t, u, xs):
    xs = np.sort(xs)
    shapes = (kn, 1.0, kb, 1.0 / t, ke, 1.0 / u)
    got = survival_series(xs, *shapes)
    assert np.all((got >= 0.0) & (got <= 1.0))
    # non-increasing in x up to the engine's stated accuracy, 1e-10
    # absolute (long blocks sum log-pmf terms of order 1e3 in magnitude)
    assert np.all(np.diff(got) <= 1e-10)
    want = [nb_convolution_survival(x, *shapes) for x in xs]
    np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-10)


# The domain of test_survival_series_against_scipy with ke >= 2.  J(x)
# rises from 0 to J(inf) = u * E[(kn - B)^+] / (ke - 1); it is held to
# the survival's 1e-10 absolute accuracy as a share of J(inf), and that
# share to at least the smallest normal double: a subnormal J(inf) holds
# fewer than 53 bits, so a 1-ulp difference there exceeds 1e-10 of it.
@settings(max_examples=300, deadline=None)
@given(
    kn=st.integers(0, 2000),
    kb=st.integers(0, 5000),
    ke=st.integers(2, 5000),
    t=st.floats(0.05, 100.0),
    u=st.floats(0.05, 100.0),
    xs=st.lists(st.floats(0.0, 1e4), min_size=1, max_size=4),
)
@example(kn=2, kb=242, ke=2, t=0.05078125, u=1.0, xs=[1.0])
@example(kn=104, kb=319, ke=2, t=0.05, u=5.0, xs=[459.0])
def test_integrated_survival_series_against_scipy(kn, kb, ke, t, u, xs):
    xs = np.sort(xs)
    shapes = (kn, 1.0, kb, 1.0 / t, ke, 1.0 / u)
    got = integrated_survival_series(xs, *shapes)
    scale = max(nb_convolution_integral(math.inf, *shapes), np.finfo(float).tiny)
    want = [nb_convolution_integral(x, *shapes) for x in xs]
    np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-10 * scale)
    # nondecreasing in x to the same accuracy
    assert np.all(np.diff(got) >= -1e-10 * scale)
    if kn >= 1:
        # The interval state's lower row, (kn - 1, kb + 1, ke + 1) summed
        # from the upper end's block, to the same share of its own J(inf).
        with np.errstate(all="ignore"):
            got = _interval_series(*shapes, integrated=True)[1](xs[None])[0, 0]
        lower = (kn - 1, 1.0, kb + 1, 1.0 / t, ke + 1, 1.0 / u)
        scale = max(nb_convolution_integral(math.inf, *lower), np.finfo(float).tiny)
        want = [nb_convolution_integral(x, *lower) for x in xs]
        np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-10 * scale)
