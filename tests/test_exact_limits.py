"""Grid-free single-channel DS limits: the integrated survival function
and the grid-free batch that the studies use for rows with z >= 2."""

import math

import numpy as np
import pytest
from scipy import integrate
from scipy.stats import nbinom

from dsplim import evalharness
from dsplim._gamma_ratio import (
    NumericalError,
    _interval_integrals,
    _prepared_series,
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
        with np.errstate(all="ignore"):
            got = _interval_integrals(kn, 1.0, kb, 1.0 / t, ke, 1.0 / u, xs.size)[1](xs)[1]
        for x, g in zip(xs, got):
            want = _quad_integral(x, kn, kb, ke, t, u)
            assert g == pytest.approx(want, rel=1e-11, abs=1e-13 * u)

    def test_per_row_shapes_match_shared_shapes(self):
        # Both rows of the interval integrals: the lower end
        # (kn - 1, kb + 1, ke + 1) and the upper end (kn, kb, ke).
        t, u = SMALL
        xs = np.array([0.5, 4.0, 30.0, math.inf])
        kn, kb, ke = (np.array(c, dtype=float) for c in zip(*self.SHAPES))
        rows = np.repeat(np.arange(kn.size), xs.size)
        x = np.tile(xs, kn.size)
        with np.errstate(all="ignore"):
            per_row = _interval_integrals(kn[rows], 1.0, kb[rows], 1 / t, ke[rows], 1 / u)
            got = per_row[1](x)
            for i, (kn_i, kb_i, ke_i) in enumerate(self.SHAPES):
                shared = _interval_integrals(kn_i, 1.0, kb_i, 1 / t, ke_i, 1 / u,
                                             repeats=xs.size)
                want = shared[1](xs)  # one row, repeated at every point of xs
                np.testing.assert_allclose(got[:, rows == i], want, rtol=1e-13)

    # Per row (kn, kb, ke) at t = 3.3, u = 10: den and both ends'
    # integrals at x = 0.5, 4, 30 and inf as float.hex, pinned from the
    # integrated mode of the one interval state these integrals split from.
    PINNED = [
        ((1, 0, 3), "0x1.0000000000000p+0",
         ["0x0.0p+0"] * 4,
         ["0x1.dc02526e4b776p-2", "0x1.397829cbc14e6p+1", "0x1.2c00000000000p+2",
          "0x1.4000000000000p+2"]),
        ((6, 4, 5), "0x1.fc7e7fb15da05p-1",
         ["0x1.e87edeb6597c0p-2", "0x1.a7eb31dcd8e37p+1", "0x1.bb20c9cd6e666p+2",
          "0x1.c0c5b3e1fe268p+2"],
         ["0x1.fb7d10199ac60p-2", "0x1.e540687464d1ep+1", "0x1.6b617ba2c64c1p+3",
          "0x1.7f4a61d86c556p+3"]),
        ((21, 3, 7), "0x1.ffffffffef3a9p-1",
         ["0x1.fffffffd1d2b7p-2", "0x1.ffffd12233d48p+1", "0x1.737e02eded376p+4",
          "0x1.ad6fee44bc13ep+4"],
         ["0x1.ffffffffe1c56p-2", "0x1.fffffc2d3b893p+1", "0x1.9c9d831c6c750p+4",
          "0x1.0be0f83e0fa9cp+5"]),
        ((44, 90, 101), "0x1.fcc6e87039fe6p-1",
         ["0x1.ef31a8408f377p-2", "0x1.875ac17e434d8p+0", "0x1.8780434c42d1ap+0",
          "0x1.8780434c42d1ap+0"],
         ["0x1.f5271ca4acbe0p-2", "0x1.ac3f3ae5fa60ap+0", "0x1.ac87bbdce134cp+0",
          "0x1.ac87bbdce134cp+0"]),
        ((300, 2, 2), "0x1.ffffffffffffep-1",
         ["0x1.0000000001800p-1", "0x1.0000000000180p+2", "0x1.e000000000190p+4",
          "0x1.749d1745d1745p+10"],
         ["0x1.0000000000400p-1", "0x1.0000000000180p+2", "0x1.dfffffffffc40p+4",
          "0x1.763e0f83e0f84p+11"]),
    ]

    def test_pinned_bits(self):
        t, u = SMALL
        xs = np.array([0.5, 4.0, 30.0, math.inf])
        kn, kb, ke = np.array([shapes for shapes, *_ in self.PINNED]).T
        with np.errstate(all="ignore"):
            den, integrals, at_infinity = _interval_integrals(kn, 1.0, kb, 1 / t, ke, 1 / u,
                                                              xs.size)
            got = integrals(np.tile(xs, kn.size))
        for i, (_, den_i, lower, upper) in enumerate(self.PINNED):
            assert den[4 * i : 4 * i + 4].tolist() == [float.fromhex(den_i)] * 4
            row = got[:, 4 * i : 4 * i + 4].tolist()
            assert row == [[float.fromhex(v) for v in end] for end in (lower, upper)]
            inf = at_infinity[:, 4 * i : 4 * i + 4].tolist()
            assert inf == [[float.fromhex(end[-1])] * 4 for end in (lower, upper)]

    def test_needs_ke_at_least_two(self):
        with pytest.raises(ValueError, match="ke >= 2"):
            _interval_integrals(3, 1.0, 2, 0.5, 1, 0.1)

    @pytest.mark.parametrize("t,u", [SMALL, PAPER, (1e-17, 10.0)])
    def test_total_from_the_background_block(self, t, u):
        # The series at x = inf, for shared shapes and for one row per
        # shape triple, is J(inf) = u * E[(kn - B)^+] / (ke - 1) with
        # B ~ NB(kb, 1 / (1 + t)), summed here from scipy's nbinom.
        kn, kb, ke = (np.array(c, dtype=float) for c in zip(*self.SHAPES))
        x = np.full(kn.size, math.inf)
        with np.errstate(all="ignore"):
            rows = _interval_integrals(kn, 1.0, kb, 1 / t, ke, 1 / u)[1](x)[1]
        for i, (kn_i, kb_i, ke_i) in enumerate(self.SHAPES):
            b = np.arange(kn_i)
            pmf = nbinom.pmf(b, kb_i, t / (1.0 + t)) if kb_i else (b == 0)
            want = u * np.sum((kn_i - b) * pmf) / (ke_i - 1)
            scales = (kn_i, 1.0, kb_i, 1 / t, ke_i, 1 / u)
            with np.errstate(all="ignore"):
                shared = _interval_integrals(*scales)[1](np.array([math.inf]))[1]
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
        # interval integrals.  Rows 1 and 6 share kb and ke, and so do rows
        # 4 and 7, so they share the columns of the x-free tables; row 8's
        # kb + 1 is row 1's kb, so the lower end of one row shares the upper
        # end's column of another; rows 2 and 5, kn = 1 and kn = 0, have
        # the lower-end lags -1 and -2.
        t, u = PAPER
        kn = np.array([3.0, 40.0, 1.0, 300.0, 17.0, 0.0, 12.0, 5.0, 8.0])
        kb = np.array([0.0, 90.0, 4.0, 2.0, 33.0, 4.0, 90.0, 33.0, 89.0])
        ke = np.array([2.0, 100.0, 3.0, 9.0, 2.0, 3.0, 100.0, 2.0, 7.0])
        x = np.array([0.0, 3.0, math.inf, 50.0, 1e4, 0.7, 60.0, 2.5, 8.0])
        shapes = (kn, 1.0, kb, 1 / t, ke, 1 / u)
        state = _interval_integrals if integrated else _prepared_series
        with np.errstate(all="ignore"):
            den, series, *_ = state(*shapes)
            together = np.reshape(series(x), (-1, kn.size))
            repeated = {}
            for repeats in (2, 3):
                den_r, series_r, *_ = state(*shapes, repeats=repeats)
                values = series_r(np.repeat(x, repeats))
                repeated[repeats] = den_r, np.reshape(values, (-1, repeats * kn.size))
            for i in range(kn.size):
                one = (kn[i : i + 1], 1.0, kb[i : i + 1], 1 / t, ke[i : i + 1], 1 / u)
                den_1, series_1, *_ = state(*one)
                alone = np.reshape(series_1(x[i : i + 1]), -1)
                assert np.array_equal(alone, together[:, i])
                assert den_1[0] == den[i]
                for repeats, (den_r, values) in repeated.items():
                    for k in range(repeats * i, repeats * i + repeats):
                        assert np.array_equal(alone, values[:, k])
                        assert den_r[k] == den[i]
        # kn = 0: A is the constant 0
        assert np.all(together[:, 5] == 0.0) and den[5] == 0.0

    @pytest.mark.parametrize("repeats", [1, 2])
    def test_mass_at_infinity_from_the_x_free_sums(self, repeats, monkeypatch):
        # ds_upper_limits_batch normalises by J_up(inf) - J_lo(inf), which
        # the interval integrals hand out from their x-free sums: bit for
        # bit their pass at x = inf, and so are the limits it gives.
        from dsplim import ds_limits

        t, u = PAPER
        ns = np.array([0, 3, 40, 1, 17, 61, 5, 23, 0, 120])
        ys = np.array([0, 90, 100, 5, 33, 80, 10, 60, 120, 2])
        zs = np.array([2, 3, 100, 7, 2, 95, 100, 77, 4, 50])
        with np.errstate(all="ignore"):
            _, integrals, at_infinity = _interval_integrals(
                ns + 1.0, 1.0, ys, 1 / t, zs, 1 / u, repeats=repeats
            )
            passed = integrals(np.full(ns.size * repeats, math.inf))
        assert np.array_equal(at_infinity, passed)
        assert np.array_equal(at_infinity[1] - at_infinity[0], passed[1] - passed[0])

        def pass_at_infinity(*args, repeats=1):  # the mass from a pass at x = inf
            den, values, _ = _interval_integrals(*args, repeats=repeats)
            return den, values, values(np.full(args[0].size * repeats, math.inf))

        qs = (0.9, 0.99)
        want = ds_upper_limits_batch(ns, ys, zs, t, u, qs)
        monkeypatch.setattr(ds_limits, "_interval_integrals", pass_at_infinity)
        assert np.array_equal(ds_upper_limits_batch(ns, ys, zs, t, u, qs), want)

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

    @pytest.mark.parametrize(
        "counts", [([3.9], [1.2], [5.7]), ([3], [1], [5.5]), ([-1], [1], [5]),
                   ([3], [float("nan")], [5]), ([3], [1], [float("inf")])],
    )
    def test_batch_rejects_counts_that_are_not_nonnegative_integers(self, counts):
        # (3.9, 1.2, 5.7) was cast to (3, 1, 5) and gave that row's limit.
        with pytest.raises(ValueError, match="must be a nonnegative integer"):
            ds_upper_limits_batch(*counts, 3.3, 10.0, (0.9,))
        got = ds_upper_limits_batch([3.0], [1.0], [5.0], 3.3, 10.0, (0.9,))
        assert np.array_equal(got, ds_upper_limits_batch([3], [1], [5], 3.3, 10.0, (0.9,)))

    def test_batch_without_quantiles(self):
        # An empty quantile list raised an IndexError.
        assert ds_upper_limits_batch([3, 4], [1, 1], [5, 6], 3.3, 10.0, ()).shape == (0, 2)

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

    def test_exact_rows_take_the_batch_and_other_rows_dataset_limits(self):
        # dataset_limits always takes the grid, so an exact row's limit
        # differs from it: 174.3607 / 449.3289 against 174.8909 / 450.1045
        # at (20, 7, 4).
        t, u, qs = 3.3, 10.0, (0.9, 0.99)
        counts = np.array([(20, 7, 4), (9, 1, 6), (3, 2, 1), (12, 0, 1)])
        got = make_ds_method()(counts, t, u, qs)
        exact = exact_rows(*counts.T)
        assert exact.tolist() == [True, True, False, False]
        batch = ds_upper_limits_batch(*counts[exact].T, t, u, qs)
        assert np.array_equal(got[:, exact], batch)
        grid = [dataset_limits(Dataset([ChannelObservation(*row, t, u)]), qs)
                for row in counts.tolist()]
        assert np.array_equal(got[:, ~exact], np.transpose(grid)[:, ~exact])
        assert got[:, 0] == pytest.approx([174.3607, 449.3289], abs=1e-4)
        assert grid[0] == pytest.approx([174.8909, 450.1045], abs=1e-4)
        # Rows of several channels all take the grid route.
        ts, us = (3.3, 5.0), (10.0, 20.0)
        counts = np.array([(20, 7, 4, 3, 2, 5), (4, 1, 3, 9, 1, 6)])
        got = make_ds_method()(counts, ts, us, qs)
        for row, lims in zip(counts.tolist(), got.T.tolist()):
            channels = [ChannelObservation(*row[3 * c : 3 * c + 3], ts[c], us[c])
                        for c in range(2)]
            assert lims == dataset_limits(Dataset(channels), qs)

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
