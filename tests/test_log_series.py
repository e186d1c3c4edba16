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

import dsplim._gamma_ratio as _gamma_ratio
import dsplim.ds_limits as ds_limits
from dsplim._gamma_ratio import (
    _LOG_PMF_FLOOR,
    NumericalError,
    _interval_integrals,
    _interval_series,
    _log_binomials,
    _nb_pmf_block,
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


def _recorded_blocks(monkeypatch):
    """Patch the efficiency block to record each log-pmf it returns, as
    (a copy, the array itself): a state exponentiates the array in place,
    so after a pass it holds the block's masses."""
    blocks = []
    efficiency_block = _gamma_ratio._efficiency_block

    def record(*args):
        odds, log_pmf = efficiency_block(*args)
        blocks.append((log_pmf.copy(), log_pmf))
        return odds, log_pmf

    monkeypatch.setattr(_gamma_ratio, "_efficiency_block", record)
    return blocks


class TestExpFloor:
    """The grid route's efficiency blocks clamp a log-pmf below
    _LOG_PMF_FLOOR, where numpy's exp leaves its fast path, to the floor,
    and give every other mass as np.exp gives it.  A clamped mass is
    e**-707 in place of a smaller one, so a survival moves by less than
    count**2 * e**-707; the grid route divides by den >=
    _MIN_CONDITIONING = 1e-250, and its CDFs keep their bits.  The
    integral and Bayes blocks keep every mass."""

    # About 4 s on a 2-core host.
    @settings(max_examples=150, deadline=None)
    @given(
        n=st.integers(0, 1000),
        y=st.integers(0, 300),
        z=st.integers(0, 300),
        t=st.floats(0.05, 50.0),
        u=st.floats(0.05, 200.0),
        rung=st.integers(0, 39),
    )
    @example(n=1000, y=0, z=300, t=1.0, u=10.0, rung=39)
    @example(n=284, y=14, z=53, t=6.0, u=60.0, rung=12)
    @example(n=0, y=0, z=1, t=3.3, u=10.0, rung=30)
    def test_floored_block_and_state(self, n, y, z, t, u, rung):
        # The grid's knots: x = 0, then from 1e-9 * x_max up to x_max.
        xs = ds_limits._rung_knots(2.0**rung, 64)

        def state_values():
            with np.errstate(all="ignore"):
                den, values = _interval_series(n + 1, 1.0, y, 1 / t, z, 1 / u)
                surv = values(xs[None])
            counts = np.array([[(n, y, z)]])
            if den < ds_limits._MIN_CONDITIONING:
                return surv, None
            return surv, ds_limits._channel_state(counts, [t], [u])(xs[None])

        with pytest.MonkeyPatch.context() as mp:
            blocks = _recorded_blocks(mp)
            surv, cdfs = state_values()
        for log_pmf, masses in blocks:
            low = log_pmf < _LOG_PMF_FLOOR
            assert np.all(masses[low] == np.exp(_LOG_PMF_FLOOR))
            assert masses[~low].tobytes() == np.exp(log_pmf[~low]).tobytes()
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(_gamma_ratio, "_LOG_PMF_FLOOR", -math.inf)
            want, want_cdfs = state_values()
        assert np.all(np.abs(surv - want) <= (n + 1) ** 2 * math.exp(_LOG_PMF_FLOOR))
        above = want >= ds_limits._MIN_CONDITIONING
        assert surv[above].tobytes() == want[above].tobytes()
        if cdfs is not None:
            assert cdfs.tobytes() == want_cdfs.tobytes()

    @pytest.mark.parametrize(
        "row, reached",
        [((284, 14, 53, 6.0, 60.0), True), ((300, 5, 2, 3.3, 10.0), True),
         ((12, 5, 3, 3.3, 10.0), False), ((0, 0, 1, 3.3, 10.0), False)],
    )
    def test_integral_and_bayes_blocks_keep_every_mass(self, row, reached, monkeypatch):
        # On these rows' own knots the grid-free integrals' block and a
        # Bayes survival's block hold the grid block's log-pmf, which
        # reaches a finite value below the floor on the first two rows.
        # Their den has no 1e-250 floor, so neither block is clamped:
        # every mass is np.exp of its log-pmf, bit for bit.
        n, y, z, t, u = row
        xs = ds_limits.shared_grid([ChannelObservation(*row)])
        k = xs.size
        per_point = (np.repeat(n + 1, k), 1.0, np.repeat(y, k), 1 / t,
                     np.repeat(z + 1, k), 1 / u)
        blocks = _recorded_blocks(monkeypatch)
        with np.errstate(all="ignore"):
            _interval_integrals(*per_point)[1](xs)
            _gamma_ratio._prepared_series(n + 1, 1.0, y, 1 / t, z, 1 / u)[1](xs)
        assert len(blocks) == 2
        for log_pmf, masses in blocks:
            assert np.isfinite(log_pmf[log_pmf < _LOG_PMF_FLOOR]).any() == reached
            assert masses.tobytes() == np.exp(log_pmf).tobytes()


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
    # One shape triple per point of xs.
    k = xs.size
    per_point = (np.repeat(kn, k), 1.0, np.repeat(kb, k), 1.0 / t, np.repeat(ke, k), 1.0 / u)
    with np.errstate(all="ignore"):
        got = _interval_integrals(*per_point)[1](xs)[1]
    scale = max(nb_convolution_integral(math.inf, *shapes), np.finfo(float).tiny)
    want = [nb_convolution_integral(x, *shapes) for x in xs]
    np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-10 * scale)
    # nondecreasing in x to the same accuracy
    assert np.all(np.diff(got) >= -1e-10 * scale)
    if kn >= 1:
        # The interval state's lower row, (kn - 1, kb + 1, ke + 1) summed
        # from the upper end's block, to the same share of its own J(inf).
        with np.errstate(all="ignore"):
            got = _interval_integrals(*per_point)[1](xs)[0]
        lower = (kn - 1, 1.0, kb + 1, 1.0 / t, ke + 1, 1.0 / u)
        scale = max(nb_convolution_integral(math.inf, *lower), np.finfo(float).tiny)
        want = [nb_convolution_integral(x, *lower) for x in xs]
        np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-10 * scale)
