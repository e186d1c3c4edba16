"""Belief-interval channel CDFs, combination, and upper limits."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import dsplim._gamma_ratio as _gamma_ratio
import dsplim.ds_limits as ds_limits
from dsplim._gamma_ratio import NumericalError, survival
from dsplim.ds_limits import (
    ChannelObservation,
    Dataset,
    GridConfig,
    UnboundedLimit,
    channel_cdf_lower,
    channel_cdf_upper,
    channel_curves,
    combine_channels,
    dataset_density,
    dataset_limits,
    shared_grid,
    upper_limit,
)
from dsplim.evalharness import _row_limits, make_ds_method
from dsplim.sampling import RngHandle
from oracles import mc_channel_cdfs

TASK1A = ChannelObservation(5, 10, 100, 33.0, 100.0)
TASK1B = ChannelObservation(0, 3, 10, 3.3, 10.0)


class TestZeroCountConventions:
    def test_n_zero_lower_cdf_is_one(self):
        ch = ChannelObservation(0, 7, 12, 2.0, 9.0)
        xs = np.array([0.0, 0.3, 5.0, 400.0])
        assert np.all(channel_cdf_lower(ch, xs) == 1.0)

    def test_z_zero_upper_cdf_is_zero(self):
        ch = ChannelObservation(4, 7, 0, 2.0, 9.0)
        xs = np.array([0.0, 0.3, 5.0, 4e5])
        assert np.all(channel_cdf_upper(ch, xs) == 0.0)
        curves = channel_curves(ch, xs=xs)
        assert curves.improper

    def test_y_zero_conditioning_is_trivial(self):
        # with y == 0 the conditioning event has probability 1, so the
        # lower CDF is an unconditional probability; MC-checked below
        ch = ChannelObservation(3, 0, 8, 3.3, 10.0)
        v = channel_cdf_lower(ch, 1.0)
        assert 0.0 < v < 1.0

    def test_single_improper_channel_has_no_limit(self):
        ds = Dataset((ChannelObservation(4, 7, 0, 2.0, 9.0),))
        with pytest.raises(UnboundedLimit):
            dataset_limits(ds, [0.9])

    def test_n0_y0_z1_curve_shape(self):
        ch = ChannelObservation(0, 0, 1, 1.0, 1.0)
        curves = channel_curves(ch)
        assert curves.r[0] == pytest.approx(1.0, abs=1e-12)
        np.testing.assert_allclose(curves.r, 1.0 - curves.f_upper, atol=1e-12)


class TestRouteAgreement:
    """Series and quadrature evaluations of the same CDFs must agree."""

    @pytest.mark.parametrize(
        "ch",
        [
            TASK1A,
            TASK1B,
            ChannelObservation(12, 0, 25, 3.3, 10.0),
            ChannelObservation(49, 20, 30, 3.3, 10.0),
            ChannelObservation(3, 0, 8, 3.3, 10.0),
        ],
    )
    def test_lower_and_upper(self, ch):
        xs = np.array([0.0, 0.05, 0.5, 2.0, 8.0, 20.0])
        for fn in (channel_cdf_lower, channel_cdf_upper):
            a = fn(ch, xs, method="series")
            b = fn(ch, xs, method="quadrature")
            np.testing.assert_allclose(a, b, atol=5e-10)


class TestMonteCarloOracle:
    """Closed-form CDFs vs the conditional interval-sampling oracle.

    Moderate sample size here for speed; the acceptance suite runs the
    full 1e6-sample version over the complete channel set.
    """

    @pytest.mark.parametrize(
        "ch,seed",
        [(TASK1A, 21), (ChannelObservation(12, 0, 25, 3.3, 10.0), 22)],
    )
    def test_conditional_frequencies(self, ch, seed):
        xs = np.array([0.0, 0.5, 2.0, 8.0])
        n_samp = 200_000
        f_lo, f_up, m = mc_channel_cdfs(
            ch.n, ch.y, ch.z, ch.t, ch.u, xs, n_samp, RngHandle(seed).generator
        )
        lo = channel_cdf_lower(ch, xs)
        up = channel_cdf_upper(ch, xs)
        for est, exact in ((f_lo, lo), (f_up, up)):
            se = np.sqrt(np.maximum(exact * (1 - exact), 1e-12) / m)
            assert np.all(np.abs(est - exact) <= 4 * se + 1e-9)

    def test_x_zero_matches_oracle(self):
        ch = TASK1A
        f_lo, f_up, m = mc_channel_cdfs(
            ch.n, ch.y, ch.z, ch.t, ch.u, [0.0], 300_000, RngHandle(23).generator
        )
        v = channel_cdf_lower(ch, 0.0)
        se = math.sqrt(v * (1 - v) / m)
        assert abs(f_lo[0] - v) < 4 * se + 1e-9
        # upper CDF at 0 is the complement of the conditioning event
        assert channel_cdf_upper(ch, 0.0) == pytest.approx(0.0, abs=1e-9)
        assert f_up[0] <= 4.0 / math.sqrt(m)


class TestCurves:
    def test_dominance_and_monotonicity(self):
        for ch in (TASK1A, TASK1B, ChannelObservation(49, 20, 30, 3.3, 10.0)):
            c = channel_curves(ch)
            assert np.all(c.f_upper <= c.f_lower + 1e-12)
            assert np.all(np.diff(c.f_lower) >= -1e-12)
            assert np.all(np.diff(c.f_upper) >= -1e-12)
            assert np.all(c.r >= 0.0)
            assert c.r.max() <= 1.0
            assert c.r[-1] <= GridConfig().tail_eps

    def test_grid_policy(self):
        grid = GridConfig(points=128, tail_eps=1e-8)
        xs = shared_grid([TASK1A], grid)
        assert xs[0] == 0.0
        assert np.all(np.diff(xs) > 0)
        assert channel_cdf_upper(TASK1A, float(xs[-1])) >= 1 - grid.tail_eps

    def test_grid_config_validation(self):
        with pytest.raises(ValueError):
            GridConfig(points=4)
        with pytest.raises(ValueError):
            GridConfig(tail_eps=0.5)

    @pytest.mark.parametrize("points", [100.5, 512.0])
    def test_grid_config_needs_an_integer_point_count(self, points):
        # 100.5 passed the >= 16 check and failed in np.linspace with a
        # bare TypeError.
        with pytest.raises(ValueError, match="points must be an integer >= 16"):
            GridConfig(points=points)
        assert GridConfig(points=np.int64(64)).points == 64

    def test_hard_cap_is_a_hard_error(self):
        # u this large pushes the upper-end tail beyond the cap
        assert ds_limits.HARD_CAP == 1e12
        ch = ChannelObservation(0, 0, 1, 1.0, 1e11)
        with pytest.raises(NumericalError, match="still short") as err:
            shared_grid([TASK1A, ch], GridConfig())
        assert "grid search exceeded hard_cap=1000000000000.0" in str(err.value)
        assert str(ch) in str(err.value)
        assert str(TASK1A) not in str(err.value)

    def test_clamp_policy(self):
        from dsplim._gamma_ratio import clamp_unit

        assert clamp_unit(1.0 + 1e-10) == 1.0
        assert clamp_unit(-1e-10) == 0.0
        with pytest.raises(NumericalError):
            clamp_unit(1.0 + 1e-8)


def _doubling_grid(channels, grid):
    """Reference x_max search: one scalar upper-CDF probe per doubling."""
    proper = [ch for ch in channels if ch.z > 0]
    x_max = 1.0
    while any(
        channel_cdf_upper(ch, x_max) < 1.0 - grid.tail_eps for ch in proper
    ):
        x_max *= 2.0
        if x_max > ds_limits.HARD_CAP:
            raise NumericalError("grid search exceeded hard_cap")
    k_lin = grid.points // 2
    k_log = grid.points - k_lin
    lin = np.linspace(x_max / k_lin, x_max, k_lin)
    log = np.geomspace(x_max * 1e-9, x_max, k_log)
    return np.unique(np.concatenate([[0.0], lin, log]))


def _assert_same_grid(channels, grid=GridConfig()):
    assert np.array_equal(shared_grid(channels, grid), _doubling_grid(channels, grid))


class TestGridLadder:
    """The vectorized ladder picks the x_max the doubling loop picked."""

    def test_criterion4_box_slice(self):
        cells = [
            (n, y, z)
            for n in range(20)
            for y in range(13)
            for z in range(1, 13)
        ]
        for n, y, z in cells[::7]:
            _assert_same_grid([ChannelObservation(n, y, z, 3.3, 10.0)])

    def test_multi_channel(self):
        a = ChannelObservation(5, 10, 100, 33.0, 100.0)
        b = ChannelObservation(3, 4, 40, 15.0, 53.0)
        c = ChannelObservation(0, 2, 1, 3.3, 10.0)
        d = ChannelObservation(9, 1, 0, 2.0, 20.0)
        e = ChannelObservation(14, 3, 6, 1.0, 4.0)
        for chans in ((a, b), (b, c), (a, c, d), (a, b, c, e), (d, e)):
            _assert_same_grid(list(chans))

    def test_heavy_tailed_channels(self):
        for z in (1, 2):
            for n in (0, 3, 12, 40):
                for u in (10.0, 100.0):
                    _assert_same_grid([ChannelObservation(n, 2, z, 3.3, u)])

    def test_cap_at_a_power_of_two_allows_that_rung(self, monkeypatch):
        ch = ChannelObservation(12, 2, 1, 3.3, 100.0)
        top = _doubling_grid([ch], GridConfig())[-1]
        assert top > 1.0
        monkeypatch.setattr(ds_limits, "HARD_CAP", top)
        _assert_same_grid([ch])
        assert shared_grid([ch])[-1] == top
        monkeypatch.setattr(ds_limits, "HARD_CAP", np.nextafter(top, 0.0))
        with pytest.raises(NumericalError):
            _doubling_grid([ch], GridConfig())
        with pytest.raises(NumericalError):
            shared_grid([ch])

    def test_every_rung_holds_exactly_points_knots(self):
        # Where a linear and a log knot coincide (at 200 points on some
        # rungs) both stay, as a zero-width panel, so every grid of a
        # GridConfig holds the same knot count.  About 2 s on a 2-core host.
        ladder = np.ldexp(1.0, np.arange(math.frexp(ds_limits.HARD_CAP)[1])).tolist()
        for points in [*range(16, 1025), 4096, 16384]:
            for x_max in ladder:
                # Uncached: the ladder times these point counts would fill the cache.
                xs = ds_limits._rung_knots.__wrapped__(x_max, GridConfig(points).points)
                assert xs.size == points and xs[0] == 0.0 and xs[-1] == x_max
                assert (np.diff(xs) >= 0.0).all()

    def test_cap_below_one_still_checks_rung_one(self, monkeypatch):
        monkeypatch.setattr(ds_limits, "HARD_CAP", 0.5)
        easy = ChannelObservation(0, 0, 200, 1.0, 1.0)
        _assert_same_grid([easy])
        assert shared_grid([easy])[-1] == 1.0
        with pytest.raises(NumericalError):
            shared_grid([TASK1B])


@pytest.fixture
def counts(monkeypatch):
    """Calls of the state builder and of the per-end survival and
    conditioning routes, at the bindings ds_limits calls them through."""
    tally = {"_interval_series": 0, "survival": 0, "conditioning_probability": 0}
    for name in tally:
        fn = getattr(ds_limits, name)

        def counted(*args, _fn=fn, _name=name, **kwargs):
            tally[_name] += 1
            return _fn(*args, **kwargs)

        monkeypatch.setattr(ds_limits, name, counted)
    return tally


class TestEvaluationCount:
    """One state for all channels of a chunk, which the ladder probe and
    both endpoint curves share; no per-end survival and no conditioning
    probability on the series route."""

    IMPROPER = ChannelObservation(2, 3, 0, 3.3, 10.0)
    HEAVY = ChannelObservation(12, 2, 1, 3.3, 100.0)

    def test_dataset_density_one_state_for_all_channels(self, counts):
        dataset_density(Dataset((TASK1A, self.IMPROPER, self.HEAVY, TASK1B)))
        assert counts == {
            "_interval_series": 1, "survival": 0, "conditioning_probability": 0
        }

    def test_shared_grid_one_state_for_the_proper_channels(self, counts):
        shared_grid([TASK1A, self.IMPROPER, self.HEAVY, TASK1B])
        assert counts == {
            "_interval_series": 1, "survival": 0, "conditioning_probability": 0
        }

    def test_block_one_state_per_chunk(self, counts):
        rows = np.array([[3, 1, 1, 12, 2, 1], [40, 6, 1, 0, 0, 2], [9, 2, 0, 4, 1, 1]])
        _block_limits(rows, [3.3, 1.2], [10.0, 100.0])
        assert counts == {
            "_interval_series": 1, "survival": 0, "conditioning_probability": 0
        }

    def test_channel_curves_one_state(self, counts):
        xs = shared_grid([TASK1A])
        counts.update(_interval_series=0)
        channel_curves(TASK1A, xs=xs)
        assert counts == {
            "_interval_series": 1, "survival": 0, "conditioning_probability": 0
        }

    def test_unbounded_before_any_state(self, counts):
        with pytest.raises(UnboundedLimit):
            dataset_density(Dataset((self.IMPROPER, self.IMPROPER)))
        assert counts["_interval_series"] == 0


class TestIntervalState:
    """Both ends from one block of efficiency masses at shape z, by
    P(NB(z + 1, p) = j) = P(NB(z, p) = j) (z + j) / z (1 - p)."""

    XS = np.concatenate([[0.0], np.geomspace(1e-4, 1e6, 11)])

    # 300 examples take about 2 s on a 2-core host.
    @settings(max_examples=300, deadline=None)
    @given(
        n=st.integers(0, 600),
        y=st.integers(0, 600),
        z=st.integers(0, 100),
        t=st.floats(0.05, 100.0),
        u=st.floats(0.05, 100.0),
    )
    @example(n=3, y=7, z=0, t=3.3, u=10.0)
    @example(n=40, y=2, z=1, t=1.0, u=0.05)
    @example(n=0, y=0, z=2, t=100.0, u=100.0)
    def test_matches_per_end_series(self, n, y, z, t, u):
        ch = ChannelObservation(n, y, z, t, u)
        # Each end's single-end series survival, divided by the state's
        # own den = P(NB(y, pb) <= n).
        with np.errstate(all="ignore"):
            den = _gamma_ratio._interval_series(n + 1, 1.0, y, 1 / t, z, 1 / u)[0]
        if den < ds_limits._MIN_CONDITIONING:
            with pytest.raises(NumericalError, match="conditioning probability"):
                channel_curves(ch, xs=self.XS)
            return
        curves = channel_curves(ch, xs=self.XS)
        for got, (kn, kb, ke) in [
            (curves.f_lower, (n, y + 1, z + 1)),
            (curves.f_upper, (n + 1, y, z)),
        ]:
            surv = survival(self.XS, kn, 1.0, kb, 1 / t, ke, 1 / u, "series")
            want = np.clip(1.0 - surv / den, 0.0, 1.0)
            np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-12)
        if z == 0:
            assert np.all(curves.f_upper == 0.0)
        if n == 0:
            assert np.all(curves.f_lower == 1.0)

    def test_off_series_channel_takes_per_end_quadrature(self, counts, monkeypatch):
        xs = np.array([0.0, 0.05, 0.5, 2.0, 5.0, 8.0, 20.0, 60.0])
        want = channel_curves(TASK1B, xs=xs)
        monkeypatch.setattr(_gamma_ratio, "_SERIES_MAX_SHAPE", 8)
        counts.update(_interval_series=0)
        got = channel_curves(TASK1B, xs=xs)
        assert counts == {
            "_interval_series": 0, "survival": 2, "conditioning_probability": 1
        }
        np.testing.assert_allclose(got.f_lower, want.f_lower, rtol=0.0, atol=1e-9)
        np.testing.assert_allclose(got.f_upper, want.f_upper, rtol=0.0, atol=1e-9)

    def test_quadrature_per_end_evaluates_that_end(self, counts):
        xs = np.array([0.5, 5.0])
        upper = channel_cdf_upper(TASK1B, xs, method="quadrature")
        assert counts == {
            "_interval_series": 0, "survival": 1, "conditioning_probability": 1
        }
        series = channel_cdf_upper(TASK1B, xs, method="series")
        np.testing.assert_allclose(upper, series, rtol=0.0, atol=1e-9)
        assert counts["conditioning_probability"] == 1


class TestOneStatePerChunk:
    """All C channels of a chunk share one state, each channel row on its
    own scales, and every channel row keeps the bits it has alone."""

    # About 3 s on a 2-core host.
    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_channel_rows_keep_their_one_row_bits(self, data):
        n_channels = data.draw(st.integers(2, 4))
        channel = st.tuples(st.integers(0, 300), st.integers(0, 60), st.integers(0, 40),
                            st.sampled_from([0.3, 1.2, 3.3, 25.0]),
                            st.sampled_from([2.0, 10.0, 15.0, 150.0]))
        chans = data.draw(st.lists(channel, min_size=n_channels, max_size=n_channels))
        rows = data.draw(st.integers(1, 3))
        counts = np.array([[ch[:3] for ch in chans]] * rows)
        counts[:, :, 0] += np.arange(rows)[:, None]  # rows of other counts
        ts, us = [ch[3] for ch in chans], [ch[4] for ch in chans]
        xs = np.stack([ds_limits._rung_knots(2.0 ** (8 + 4 * k), 64) for k in range(rows)])
        probe = np.geomspace(1.0, 2.0**39, 40 * rows).reshape(rows, 40)
        try:
            state = ds_limits._channel_state(counts, ts, us)
        except NumericalError:  # a den below _MIN_CONDITIONING
            return
        for x in (xs, probe):
            together = state(x)
            for c in range(n_channels):
                alone = ds_limits._channel_state(counts[:, c : c + 1], ts[c : c + 1],
                                                 us[c : c + 1])(x)[:, 0]
                assert together[:, c].tobytes() == alone.tobytes()

    def test_one_series_length_on_other_scales(self):
        # Every channel row has n = 250, so the state runs one block with
        # one efficiency scale per row; its probe and curves take the floor.
        counts = np.array([[(250, 3, 40), (250, 90, 180), (250, 0, 1)]])
        ts, us = [1.2, 25.0, 3.3], [15.0, 150.0, 10.0]
        state = ds_limits._channel_state(counts, ts, us)
        x = np.array([ds_limits._rung_knots(2.0**12, 512)])
        for c in range(3):
            alone = ds_limits._channel_state(counts[:, c : c + 1], ts[c : c + 1], us[c : c + 1])
            assert state(x)[:, c].tobytes() == alone(x)[:, 0].tobytes()

    def test_off_series_channel_beside_series_channels(self, monkeypatch):
        # With the series bound at 8, the middle channel takes quadrature
        # on its own scales while the others share the series state.
        monkeypatch.setattr(_gamma_ratio, "_SERIES_MAX_SHAPE", 8)
        counts = np.array([[(3, 1, 2), (12, 2, 3), (5, 0, 1)]])
        ts, us = [3.3, 1.2, 25.0], [10.0, 15.0, 150.0]
        x = np.array([[0.0, 0.5, 2.0, 8.0, 40.0]])
        together = ds_limits._channel_state(counts, ts, us)(x)
        for c in range(3):
            alone = ds_limits._channel_state(counts[:, c : c + 1], ts[c : c + 1], us[c : c + 1])
            assert together[:, c].tobytes() == alone(x)[:, 0].tobytes()

    def test_error_names_the_failing_channel_and_its_scales(self):
        # (0, 5000, 1) at t = 0.05 has a den near 0.048**5001.
        counts = np.array([[(3, 1, 1), (0, 5000, 1), (2, 2, 2)]])
        with pytest.raises(NumericalError, match=r"conditioning probability underflows "
                           r"for channel ChannelObservation\(n=0, y=5000, z=1, "
                           r"t=0.05, u=20.0\)"):
            ds_limits._channel_state(counts, [3.3, 0.05, 1.2], [10.0, 20.0, 15.0])
        rows = np.array([[3, 1, 1, 0, 5000, 1, 2, 2, 2]])
        limits, failures = _row_limits(make_ds_method(), rows, [3.3, 0.05, 1.2],
                                       [10.0, 20.0, 15.0], (0.9,))
        assert "n=0, y=5000, z=1, t=0.05, u=20.0" in failures[0]


class TestPerEndCdfs:
    """channel_cdf_lower / channel_cdf_upper are the rows of the channel
    state, bit for bit, on the series route."""

    XS = np.array([0.0, 0.05, 0.5, 2.0, 20.0, 1e4, math.inf])

    @pytest.mark.parametrize(
        "counts",
        [(373, 566, 3, 0.2274, 1.0), (5, 10, 100, 33.0, 100.0), (3, 7, 0, 3.3, 10.0),
         (0, 4, 2, 3.3, 10.0), (12, 2, 1, 3.3, 100.0)],
    )
    def test_rows_of_the_state(self, counts):
        ch = ChannelObservation(*counts)
        state = ds_limits._channel_state(np.array([[counts[:3]]]), [ch.t], [ch.u])
        for method in ("auto", "series"):
            rows = state(self.XS[None])[:, 0, 0]
            assert np.array_equal(channel_cdf_lower(ch, self.XS, method), rows[0])
            assert np.array_equal(channel_cdf_upper(ch, self.XS, method), rows[1])
            # A matrix product sums a single point in another order than
            # many, so scalar x is compared with the state at scalar x.
            for x in self.XS:
                lower, upper = state(np.array([[x]]))[:, 0, 0, 0]
                assert channel_cdf_lower(ch, x, method) == lower
                assert channel_cdf_upper(ch, x, method) == upper


class TestCombine:
    def test_single_channel_density_proportional_to_r(self):
        xs = shared_grid([TASK1A], GridConfig())
        c = channel_curves(TASK1A, xs=xs)
        d = combine_channels([c])
        ratio = d.pdf[c.r > 1e-12] / c.r[c.r > 1e-12]
        np.testing.assert_allclose(ratio, ratio[0], rtol=1e-12)

    def test_two_identical_channels_shift_left(self):
        ds1 = Dataset((TASK1A,))
        ds2 = Dataset((TASK1A, TASK1A))
        l1 = dataset_limits(ds1, [0.9])[0]
        l2 = dataset_limits(ds2, [0.9])[0]
        assert l2 < l1

    def test_order_invariance(self):
        a = ChannelObservation(5, 10, 100, 33.0, 100.0)
        b = ChannelObservation(3, 4, 40, 15.0, 53.0)
        d_ab = dataset_density(Dataset((a, b)))
        d_ba = dataset_density(Dataset((b, a)))
        np.testing.assert_allclose(d_ab.pdf, d_ba.pdf, atol=1e-12)
        np.testing.assert_allclose(d_ab.cdf, d_ba.cdf, atol=1e-12)

    def test_improper_channel_rescued_by_proper_one(self):
        improper = ChannelObservation(2, 3, 0, 3.3, 10.0)
        ds = Dataset((improper, TASK1A))
        lim = dataset_limits(ds, [0.9])[0]
        assert np.isfinite(lim) and lim > 0

    def test_all_improper_raises(self):
        improper = ChannelObservation(2, 3, 0, 3.3, 10.0)
        with pytest.raises(UnboundedLimit):
            dataset_density(Dataset((improper, improper)))

    def test_mismatched_grids_rejected(self):
        c1 = channel_curves(TASK1A, xs=np.array([0.0, 1.0, 2.0]))
        c2 = channel_curves(TASK1A, xs=np.array([0.0, 1.5, 3.0]))
        with pytest.raises(ValueError):
            combine_channels([c1, c2])

    def test_normalization(self):
        d = dataset_density(Dataset((TASK1A,)))
        assert np.trapezoid(d.pdf, d.xs) == pytest.approx(1.0, abs=1e-6)
        assert d.cdf[-1] >= 1.0 - 1e-6
        assert d.normalization > 0


class TestUpperLimit:
    def test_boundary_quantile(self):
        d = dataset_density(Dataset((TASK1A,)))
        tiny = d.cdf[d.cdf > 0][0] * 0.5
        assert upper_limit(d, float(tiny)) <= d.xs[np.argmax(d.cdf > 0)]

    def test_inversion_contract(self):
        d = dataset_density(Dataset((TASK1A,)))
        for q in (0.5, 0.9, 0.99):
            s = upper_limit(d, q)
            i = np.searchsorted(d.xs, s)
            gap = d.cdf[min(i + 1, d.cdf.size - 1)] - d.cdf[max(i - 1, 0)]
            assert abs(float(np.interp(s, d.xs, d.cdf)) - q) <= gap + 1e-12

    def test_limit_monotone_in_n(self):
        limits = [
            dataset_limits(
                Dataset((ChannelObservation(n, 10, 100, 33.0, 100.0),)), [0.9]
            )[0]
            for n in range(21)
        ]
        assert all(b >= a - 1e-9 for a, b in zip(limits, limits[1:]))

    def test_quantile_domain(self):
        d = dataset_density(Dataset((TASK1A,)))
        with pytest.raises(ValueError):
            upper_limit(d, 0.0)
        with pytest.raises(ValueError):
            upper_limit(d, 1.0)


class TestValidation:
    def test_channel_validation(self):
        with pytest.raises(ValueError):
            ChannelObservation(-1, 0, 0, 1.0, 1.0)
        with pytest.raises(ValueError):
            ChannelObservation(1, 0, 0, 0.0, 1.0)

    def test_dataset_needs_channels(self):
        with pytest.raises(ValueError):
            Dataset(())


def _block_limits(counts, ts, us, grid=GridConfig()):
    """Grid-route limits at q = 0.9 and 0.99 of rows of counts, one block."""
    return ds_limits._grid_limits(np.asarray(counts), ts, us, (0.9, 0.99), grid)


class TestBatchedGridRoute:
    """The grid route on a block of rows, one state per channel for all of
    them (ds_limits._grid_limits), gives every row the bits it has alone
    and in dataset_limits, whatever rows sit beside it."""

    # (channels (n, y, z, t, u), limits at q = 0.9 and 0.99 as float.hex),
    # pinned from the per-dataset grid route this block route replaced.
    PINNED = [
        ([(3, 1, 1, 3.3, 10.0)], ("0x1.4b83096a18a06p+29", "0x1.aac2768e22f6fp+31")),
        ([(0, 0, 1, 3.3, 10.0)], ("0x1.41d2bc8c051fcp+27", "0x1.a97effd55c217p+29")),
        ([(17, 4, 1, 1.2, 15.0)], ("0x1.45e098442a5ecp+32", "0x1.aa0731166cd9fp+34")),
        ([(40, 6, 1, 5.0, 50.0)], ("0x1.4be6c48b23516p+35", "0x1.aacf4aabfe025p+37")),
        ([(9, 2, 0, 3.3, 10.0), (4, 1, 1, 3.3, 10.0)],
         ("0x1.63548a10a6306p+30", "0x1.adbb25274e1f5p+32")),
        ([(12, 5, 3, 3.3, 10.0), (30, 9, 1, 1.0, 30.0)],
         ("0x1.2710dabbe4676p+9", "0x1.808077a3b86e7p+10")),
        ([(12, 5, 3, 3.3, 10.0), (30, 9, 1, 1.0, 30.0), (4, 2, 0, 2.0, 20.0),
          (8, 3, 6, 4.0, 40.0)], ("0x1.60ca92b25b0c8p+7", "0x1.234ca55ed0e4fp+8")),
        ([(2, 0, 1, 0.3, 2.0), (5, 1, 1, 0.3, 2.0), (1, 3, 2, 0.3, 2.0),
          (7, 2, 0, 0.3, 2.0)], ("0x1.08b817d4503b4p+3", "0x1.83ffa9d9e9b3cp+4")),
        # Heavy rows of the kind that set the `limits` benchmark's p99:
        # their probe and curve blocks take the exp floor of the grid
        # route, pinned from the route before that floor.
        ([(123, 7, 7, 1.2, 15.0), (284, 14, 53, 6.0, 60.0), (240, 42, 140, 25.0, 150.0),
          (236, 27, 127, 50.0, 200.0)], ("0x1.554aa9ee1e2e1p+8", "0x1.71649e3a71036p+8")),
        ([(236, 5, 19, 1.2, 15.0), (16, 2, 3, 6.0, 60.0), (238, 67, 137, 25.0, 150.0),
          (287, 102, 187, 50.0, 200.0)], ("0x1.366fd02c498b6p+8", "0x1.524992f978eacp+8")),
    ]

    @pytest.mark.parametrize("channels, pinned", PINNED)
    def test_pinned_bits(self, channels, pinned):
        want = [float.fromhex(v) for v in pinned]
        dataset = Dataset(tuple(ChannelObservation(*ch) for ch in channels))
        assert dataset_limits(dataset, (0.9, 0.99)) == want
        counts = [[v for ch in channels for v in ch[:3]]]
        ts, us = [ch[3] for ch in channels], [ch[4] for ch in channels]
        assert _block_limits(counts, ts, us)[:, 0].tolist() == want

    # About 8 s on a 2-core host.
    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_row_bits_alone_beside_others_and_in_any_split(self, data):
        n_channels = data.draw(st.sampled_from([1, 2, 4]))
        scales = st.lists(st.sampled_from([0.3, 1.2, 3.3, 5.0, 15.0]),
                          min_size=n_channels, max_size=n_channels)
        ts, us = data.draw(scales), data.draw(scales)
        # Counts near 1000 make a row's (2, count) x (count, knots) product
        # large enough for BLAS to take another kernel: a short row padded
        # to a long row's length would show there.
        n = st.integers(0, 40) | st.integers(0, 40) | st.integers(900, 1100)
        channel = st.tuples(n, st.integers(0, 12), st.integers(0, 3))
        rows = data.draw(st.lists(
            st.lists(channel, min_size=n_channels, max_size=n_channels).map(
                lambda chans: [v for ch in chans for v in ch]),
            min_size=2, max_size=5))
        kept, alone = [], []
        for row in rows:
            try:
                alone.append(_block_limits([row], ts, us)[:, 0])
            except NumericalError:  # no limits; test_hard_cap_row_fails_alone covers it
                continue
            kept.append(row)
            chans = zip(*[iter(row)] * 3, ts, us)
            dataset = Dataset(tuple(ChannelObservation(*ch, t, u) for *ch, t, u in chans))
            if any(row[2::3]):
                assert dataset_limits(dataset, (0.9, 0.99)) == alone[-1].tolist()
            else:
                assert np.all(alone[-1] == math.inf)
                with pytest.raises(UnboundedLimit):
                    dataset_limits(dataset, (0.9, 0.99))
        if len(kept) < 2:
            return
        counts, want = np.array(kept), np.array(alone).T
        assert _block_limits(counts, ts, us).tobytes() == want.tobytes()
        split = data.draw(st.integers(1, len(counts) - 1))
        halves = [_block_limits(part, ts, us) for part in np.split(counts, [split])]
        assert np.concatenate(halves, axis=1).tobytes() == want.tobytes()
        assert _block_limits(counts[::-1], ts, us).tobytes() == want[:, ::-1].tobytes()

    def test_rows_whose_grids_hold_coincident_knots(self):
        # At 200 points some rungs' linear and log knots coincide: these
        # rows' grids keep both as a zero-width panel (one on the rung
        # 2**31, two on 2**15, none on 2**18), hold 200 knots each and run
        # in one block.
        grid = GridConfig(points=200)
        counts = np.array([(0, 0, 1), (0, 0, 2), (24, 0, 4), (0, 5, 1), (27, 5, 4),
                           (3, 2, 0)])
        grids = [shared_grid([ChannelObservation(*row, 1.2, 15.0)], grid)
                 for row in counts[:5]]
        assert [xs.size for xs in grids] == [200] * 5
        assert [int((np.diff(xs) == 0).sum()) for xs in grids] == [1, 0, 2, 1, 2]
        together = _block_limits(counts, [1.2], [15.0], grid)
        for k in range(len(counts)):
            alone = _block_limits(counts[k : k + 1], [1.2], [15.0], grid)
            assert alone.tobytes() == together[:, k : k + 1].tobytes()

    def test_hard_cap_row_fails_alone(self):
        # (120, 11, 1) at t = 5, u = 50 reaches no rung of the ladder.
        counts = np.array([(3, 1, 1), (120, 11, 1), (40, 6, 1), (9, 2, 0), (7, 3, 1)])
        with pytest.raises(NumericalError, match="still short at"):
            _block_limits(counts[1:2], [5.0], [50.0])
        limits, failures = _row_limits(make_ds_method(), counts, 5.0, 50.0, (0.9, 0.99))
        assert list(failures) == [1]
        assert "ChannelObservation(n=120, y=11, z=1, t=5.0, u=50.0)" in failures[1]
        assert np.isnan(limits[:, 1]).all() and np.isinf(limits[:, 3]).all()
        for k in (0, 2, 3, 4):
            alone = _block_limits(counts[k : k + 1], [5.0], [50.0])
            assert limits[:, k : k + 1].tobytes() == alone.tobytes()

    def test_large_n_row_bounds_its_chunk(self, monkeypatch):
        # One row of n = 19999 among 150 small rows of 2 channels: the
        # block runs in chunks of 2**22 // (2 * 20000 * 2) = 52 rows, so
        # that no chunk's state holds more than _SERIES_TERMS terms in an
        # x-free array (2 * max(n + 1) * rows * C), and every row keeps
        # the bits it has alone.
        rng = np.random.default_rng(1)
        small = rng.integers(0, [20, 8, 3, 20, 8, 3], size=(150, 6))
        small[:, 5] += 1  # every row bounded
        counts = np.insert(small, 75, [3, 1, 1, 19999, 16000, 300], axis=0)
        ts, us = [1.2, 1.2], [15.0, 15.0]
        chunks = []
        channel_state = ds_limits._channel_state

        def record(chunk, *args):
            chunks.append(chunk)
            return channel_state(chunk, *args)

        monkeypatch.setattr(ds_limits, "_channel_state", record)
        limits = _block_limits(counts, ts, us)
        assert [len(chunk) for chunk in chunks] == [52, 52, 47]
        for chunk in chunks:
            terms = 2 * (chunk[:, :, 0].max() + 1) * len(chunk) * chunk.shape[1]
            assert terms <= _gamma_ratio._SERIES_TERMS
        for k in (0, 75, 150):
            alone = _block_limits(counts[k : k + 1], ts, us)
            assert limits[:, k : k + 1].tobytes() == alone.tobytes()
