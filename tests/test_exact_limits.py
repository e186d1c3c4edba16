"""Grid-free single-channel DS limits: the integrated survival function
and the grid-free batch that the studies use for rows with z >= 2."""

import math
from functools import partial

import numpy as np
import pytest
from scipy import integrate
from scipy.stats import nbinom

from dsplim import evalharness
from dsplim._gamma_ratio import (
    NumericalError,
    _interval_series,
    _prepared_series,
    integrated_survival_series,
    survival_series,
)
from dsplim.ds_limits import (
    ChannelObservation,
    Dataset,
    GridConfig,
    dataset_limits,
    ds_upper_limits_batch,
    exact_rows,
)
from dsplim.evalharness import _row_limits, make_ds_method

SMALL = (3.3, 10.0)  # (t, u) of the small-rate configuration
PAPER = (33.0, 100.0)  # (t, u) of the paper configuration


def _quad_integral(x, kn, kb, ke, t, u):
    """int_0^x survival by adaptive quadrature of the series survival."""
    f = lambda v: survival_series(v, kn, 1.0, kb, 1.0 / t, ke, 1.0 / u)[0]
    val, _ = integrate.quad(f, 0.0, x, epsabs=1e-14, epsrel=1e-13, limit=400)
    return val


class TestIntegratedSurvival:
    SHAPES = [(1, 0, 3), (6, 4, 5), (21, 3, 7), (3, 0, 2), (10, 12, 3), (44, 90, 101)]

    @pytest.mark.parametrize("kn,kb,ke", SHAPES)
    @pytest.mark.parametrize("t,u", [SMALL, PAPER])
    def test_against_quadrature(self, kn, kb, ke, t, u):
        xs = np.array([0.0, 0.3 * u, u, 7.0 * u, 300.0 * u, math.inf])
        got = integrated_survival_series(xs, kn, 1.0, kb, 1.0 / t, ke, 1.0 / u)
        for x, g in zip(xs, got):
            want = _quad_integral(x, kn, kb, ke, t, u)
            assert g == pytest.approx(want, rel=1e-11, abs=1e-13 * u)

    def test_per_row_shapes_match_shared_shapes(self):
        # Both rows of the integrated interval state: the lower end
        # (kn - 1, kb + 1, ke + 1) and the upper end (kn, kb, ke).
        t, u = SMALL
        xs = np.array([0.5, 4.0, 30.0, math.inf])
        kn, kb, ke = (np.array(c, dtype=float) for c in zip(*self.SHAPES))
        rows = np.repeat(np.arange(kn.size), xs.size)
        x = np.tile(xs, kn.size)
        with np.errstate(all="ignore"):
            per_row = _interval_series(kn[rows], 1.0, kb[rows], 1 / t, ke[rows], 1 / u, True)
            got = per_row[1](x)
            for i, (kn_i, kb_i, ke_i) in enumerate(self.SHAPES):
                shared = _interval_series(kn_i, 1.0, kb_i, 1 / t, ke_i, 1 / u, True)
                want = shared[1](xs[None])[:, 0]  # one row, at every point of xs
                np.testing.assert_allclose(got[:, rows == i], want, rtol=1e-13)

    def test_needs_ke_at_least_two(self):
        with pytest.raises(ValueError, match="ke >= 2"):
            integrated_survival_series([1.0], 3, 1.0, 2, 0.5, 1, 0.1)

    @pytest.mark.parametrize("t,u", [SMALL, PAPER, (1e-17, 10.0)])
    def test_total_from_the_background_block(self, t, u):
        # The series at x = inf, for shared shapes and for one row per
        # shape triple, is J(inf) = u * E[(kn - B)^+] / (ke - 1) with
        # B ~ NB(kb, 1 / (1 + t)), summed here from scipy's nbinom.
        kn, kb, ke = (np.array(c, dtype=float) for c in zip(*self.SHAPES))
        x = np.full(kn.size, math.inf)
        rows = integrated_survival_series(x, kn, 1.0, kb, 1 / t, ke, 1 / u)
        for i, (kn_i, kb_i, ke_i) in enumerate(self.SHAPES):
            b = np.arange(kn_i)
            pmf = nbinom.pmf(b, kb_i, t / (1.0 + t)) if kb_i else (b == 0)
            want = u * np.sum((kn_i - b) * pmf) / (ke_i - 1)
            scales = (kn_i, 1.0, kb_i, 1 / t, ke_i, 1 / u)
            shared = integrated_survival_series([math.inf], *scales)
            assert shared[0] == pytest.approx(want, rel=1e-12)
            assert rows[i] == pytest.approx(want, rel=1e-12)


class TestClosedForm:
    @pytest.mark.parametrize("z", [2, 3, 4, 7, 20])
    @pytest.mark.parametrize("u", [1.0, 10.0, 100.0])
    def test_zero_counts(self, z, u):
        # (0, 0, z): G(X) = 1 - (u / (u + X))**(z - 1)
        qs = np.array([0.5, 0.9, 0.99])
        got = ds_upper_limits_batch([0], [0], [z], 3.3, u, qs)[:, 0]
        want = u * ((1.0 - qs) ** (-1.0 / (z - 1)) - 1.0)
        np.testing.assert_allclose(got, want, rtol=2e-10)

    def test_worked_values(self):
        got = ds_upper_limits_batch([0, 0], [0, 0], [3, 2], 1.0, 10.0, [0.9, 0.99])
        np.testing.assert_allclose(got[:, 0], [21.6227766016838, 90.0], rtol=1e-10)
        np.testing.assert_allclose(got[:, 1], [90.0, 990.0], rtol=1e-10)


ROWS = {
    SMALL: [(0, 3, 3), (2, 0, 4), (5, 1, 8), (12, 4, 3), (19, 12, 12), (7, 7, 5)],
    PAPER: [(5, 10, 100), (40, 100, 100), (23, 60, 77), (0, 120, 130), (61, 80, 95)],
}


@pytest.mark.parametrize("scales", [SMALL, PAPER], ids=["small", "paper"])
def test_fine_grid_agreement(scales):
    t, u = scales
    rows = np.array(ROWS[scales])
    qs = (0.9, 0.99)
    got = ds_upper_limits_batch(*rows.T, t, u, qs)
    fine = GridConfig(points=16384)
    for j, (n, y, z) in enumerate(rows):
        ds = Dataset((ChannelObservation(int(n), int(y), int(z), t, u),))
        want = dataset_limits(ds, qs, fine)
        np.testing.assert_allclose(got[:, j], want, rtol=1e-4)


class TestBitwiseIndependence:
    def test_block_composition(self):
        t, u = SMALL
        rows = np.array(ROWS[SMALL] + [(290, 2, 9), (150, 40, 30)])
        together = ds_upper_limits_batch(*rows.T, t, u, (0.9, 0.99))
        for j, row in enumerate(rows):
            alone = ds_upper_limits_batch(*row[:, None], t, u, (0.9, 0.99))
            assert np.array_equal(alone[:, 0], together[:, j])
            for qi, q in enumerate((0.9, 0.99)):
                one_q = ds_upper_limits_batch(*row[:, None], t, u, (q,))
                assert one_q[0, 0] == together[qi, j]

    @pytest.mark.parametrize("integrated", [False, True])
    def test_series_row_beside_longer_rows(self, integrated):
        # A row padded past its kn in a batch with longer rows, or repeated
        # to share its x-free arrays, keeps the bits it has alone, and so
        # does its conditioning probability P(A >= B): every value of the
        # single-end survival, or both rows (lower end, upper end) of the
        # integrated interval state.
        t, u = PAPER
        kn = np.array([3.0, 40.0, 1.0, 300.0, 17.0, 0.0])
        kb = np.array([0.0, 90.0, 5.0, 2.0, 33.0, 4.0])
        ke = np.array([2.0, 100.0, 7.0, 9.0, 2.0, 3.0])
        x = np.array([0.0, 3.0, math.inf, 50.0, 1e4, 0.7])
        shapes = (kn, 1.0, kb, 1 / t, ke, 1 / u)
        state = partial(_interval_series, integrated=True) if integrated else _prepared_series
        with np.errstate(all="ignore"):
            den, series = state(*shapes)
            together = np.reshape(series(x), (-1, kn.size))
            den_2, series_2 = state(*shapes, repeats=2)
            repeated = np.reshape(series_2(np.repeat(x, 2)), (-1, 2 * kn.size))
            for i in range(kn.size):
                one = (kn[i : i + 1], 1.0, kb[i : i + 1], 1 / t, ke[i : i + 1], 1 / u)
                den_1, series_1 = state(*one)
                alone = np.reshape(series_1(x[i : i + 1]), -1)
                assert np.array_equal(alone, together[:, i])
                assert np.array_equal(alone, repeated[:, 2 * i])
                assert np.array_equal(alone, repeated[:, 2 * i + 1])
                assert den_1[0] == den[i] == den_2[2 * i] == den_2[2 * i + 1]
        # kn = 0: A is the constant 0
        assert np.all(together[:, 5] == 0.0) and den[5] == 0.0

    def test_term_budget_keeps_bits(self, monkeypatch):
        import dsplim._gamma_ratio as gamma_ratio

        t, u = PAPER
        rows = np.array(ROWS[PAPER])
        want = ds_upper_limits_batch(*rows.T, t, u, (0.9, 0.99))
        monkeypatch.setattr(gamma_ratio, "_SERIES_TERMS", 300)
        got = ds_upper_limits_batch(*rows.T, t, u, (0.9, 0.99))
        assert np.array_equal(got, want)

    def test_worker_count(self):
        t, u = SMALL
        counts = np.indices((12, 6, 9)).reshape(3, -1).T
        method = make_ds_method(GridConfig(points=64))
        serial, serial_failures = _row_limits(method, counts, t, u, (0.9, 0.99), threads=1)
        pooled, pooled_failures = _row_limits(method, counts, t, u, (0.9, 0.99), threads=2)
        assert np.array_equal(serial, pooled)
        assert serial_failures == pooled_failures == {}


class TestRouting:
    def test_exact_rows(self):
        ns, ys, zs = np.array([[3, 3, 3, 3, 3], [2, 2, 2, 2, 2000], [0, 1, 2, 3, 5]])
        assert exact_rows(ns, ys, zs).tolist() == [False, False, True, True, True]
        # long series stay on the route up to the series shape bound
        ns, ys, zs = np.array([[5000, 19999, 3, 3], [0, 0, 19999, 20000], [5000, 3, 3, 3]])
        assert exact_rows(ns, ys, zs).tolist() == [True, True, True, False]
        assert not exact_rows([3], [2], [20000]).any()

    def test_batch_rejects_rows_off_the_route(self):
        with pytest.raises(ValueError, match="z >= 2"):
            ds_upper_limits_batch([3], [2], [1], 3.3, 10.0, (0.9,))
        with pytest.raises(ValueError, match="series shapes"):
            ds_upper_limits_batch([3], [2], [20000], 3.3, 10.0, (0.9,))
        with pytest.raises(ValueError, match="quantile"):
            ds_upper_limits_batch([3], [2], [4], 3.3, 10.0, (1.0,))

    def test_grid_affects_only_rows_below_z2(self):
        t, u = SMALL
        counts = np.array([(3, 2, 0), (3, 2, 1), (3, 2, 2), (3, 2, 3), (9, 1, 6)])
        coarse = make_ds_method(GridConfig(points=64))(counts, t, u, (0.9,))[0]
        fine = make_ds_method(GridConfig(points=4096))(counts, t, u, (0.9,))[0]
        assert math.isinf(coarse[0]) and math.isinf(fine[0])
        assert coarse[1] != fine[1]
        assert np.array_equal(coarse[2:], fine[2:])
        exact = ds_upper_limits_batch(*counts[2:].T, t, u, (0.9,))[0]
        assert np.array_equal(coarse[2:], exact)

    def test_conditioning_underflow_row_takes_the_exact_route(self, monkeypatch):
        seen = []
        real = evalharness._grid_limits

        def counting(counts, *args):
            seen.extend(map(tuple, counts.tolist()))
            return real(counts, *args)

        monkeypatch.setattr(evalharness, "_grid_limits", counting)
        counts = np.array([(3, 2, 5), (3, 2000, 5)])
        lims = make_ds_method()(counts[:1], 0.1, 10.0, (0.9,))
        assert seen == [] and np.isfinite(lims).all()
        # (3, 2000, 5) at t = 0.1 is a study row now; its plausibility
        # mass on s >= 0 underflows, which ends in an error naming the row
        with pytest.raises(NumericalError, match="plausibility mass") as err:
            make_ds_method()(counts, 0.1, 10.0, (0.9,))
        assert "(n, y, z) = (3, 2000, 5)" in str(err.value)
        assert seen == []
