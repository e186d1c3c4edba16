"""The one (n, y, z) -> limit path against the paths it replaced.

The reference functions below are the per-dataset coverage estimators,
the per-cell simulation study and the credibility ratio as they stood
before every study went through one deduplicated, blocked path.  Their
DS limits come from the same limit method called on one row at a time,
so limits and coverage estimates must agree bitwise, and each distinct
(n, y, z) must be evaluated once.  The credibility limit is a root of
the package's solver, so it agrees with plain bisection within its
rel_tol of 1e-6.
"""

import math

import numpy as np
import pytest
from scipy import special as sp

from dsplim import evalharness
from dsplim.bayes import bayes_upper_limit, bayes_upper_limits_batch, prior_preset
from dsplim.ds_limits import ChannelObservation, Dataset, GridConfig
from dsplim.evalharness import (
    CredibilityConfig,
    NoPosteriorMass,
    _posterior_nuisance_draws,
    coverage_enumerate,
    coverage_importance,
    credibility,
    credibility_limit,
    make_bayes_method,
    make_ds_method,
    simulate_study,
)
from dsplim.sampling import RngHandle, derive_stream_id
from oracles import bisection_root

# ---------------------------------------------------------------------------
# reference implementations


def _ref_ds_row(ch, quantiles, grid):
    """DS limits of one channel: the study's limit method on one row."""
    row = np.array([[ch.n, ch.y, ch.z]])
    return make_ds_method(grid)(row, ch.t, ch.u, tuple(quantiles))[:, 0]


def _ref_ds_limit(dataset, q, grid):
    (ch,) = dataset.channels
    return _ref_ds_row(ch, [q], grid)[0]


def _ref_bayes_limit(dataset, q, prior):
    return bayes_upper_limit(dataset.channels[0], prior, q)


def _ref_method(name, grid):
    if name == "ds":
        return lambda dataset, q: _ref_ds_limit(dataset, q, grid)
    return lambda dataset, q: _ref_bayes_limit(dataset, q, prior_preset(name))


def _ref_coverage_enumerate(method, t, u, truth, s_grid, q, tail_eps):
    eps, b = truth
    s_grid = np.asarray(s_grid, dtype=float)
    nu, rho = t * b, u * eps
    n_max = evalharness._poisson_box_max(eps * float(s_grid.max()) + b, tail_eps)
    y_max = evalharness._poisson_box_max(nu, tail_eps)
    z_max = evalharness._poisson_box_max(rho, tail_eps)
    datasets = [
        Dataset((ChannelObservation(n, y, z, t, u),), label=f"{n}-{y}-{z}")
        for n in range(n_max + 1)
        for y in range(y_max + 1)
        for z in range(z_max + 1)
    ]
    limits = np.array([method(ds, q) for ds in datasets]).reshape(
        n_max + 1, y_max + 1, z_max + 1
    )
    py = evalharness._poisson_pmf(np.arange(y_max + 1, dtype=float), nu)
    pz = evalharness._poisson_pmf(np.arange(z_max + 1, dtype=float), rho)
    w_yz = py[:, None] * pz[None, :]
    ks = np.arange(n_max + 1, dtype=float)
    estimate = np.empty(s_grid.size)
    for i, s in enumerate(s_grid):
        pn = evalharness._poisson_pmf(ks, eps * s + b)
        covered = (limits > s).astype(float)
        estimate[i] = float(pn @ (covered * w_yz).sum(axis=(1, 2)))
    return estimate


def _ref_coverage_importance(method, t, u, truth, s_grid, q, n_samples, s_ref, rng):
    eps, b = truth
    s_grid = np.asarray(s_grid, dtype=float)
    mu_ref = eps * s_ref + b
    gen = rng.generator
    ns = gen.poisson(mu_ref, n_samples)
    ys = gen.poisson(t * b, n_samples)
    zs = gen.poisson(u * eps, n_samples)
    datasets = [
        Dataset((ChannelObservation(int(n), int(y), int(z), t, u),), label=str(i))
        for i, (n, y, z) in enumerate(zip(ns, ys, zs))
    ]
    limits = np.array([method(ds, q) for ds in datasets])
    estimate = np.empty(s_grid.size)
    std_err = np.empty(s_grid.size)
    for i, s in enumerate(s_grid):
        mu_s = eps * s + b
        w = np.exp(-(mu_s - mu_ref) + ns * math.log(mu_s / mu_ref))
        wc = w * (limits > s)
        estimate[i] = float(wc.mean())
        std_err[i] = float(wc.std(ddof=1) / math.sqrt(n_samples))
    return estimate, std_err


def _ref_study_cell(idx, s, t, u, eps, b, reps, methods, quantiles, grid, seed):
    gen = RngHandle(seed, derive_stream_id("simulate", idx)).generator
    ns = gen.poisson(eps * s + b, reps)
    ys = gen.poisson(t * b, reps)
    zs = gen.poisson(u * eps, reps)
    out = {}
    for m in methods:
        if m == "ds":
            lims = np.empty((len(quantiles), reps))
            for j in range(reps):
                ch = ChannelObservation(int(ns[j]), int(ys[j]), int(zs[j]), t, u)
                lims[:, j] = _ref_ds_row(ch, quantiles, grid)
        else:
            lims = bayes_upper_limits_batch(ns, ys, zs, t, u, prior_preset(m), quantiles)
        out[m] = lims
    return out


def _ref_simulate_limits(t, u, eps, b, s_grid, reps, methods, seed, quantiles, grid):
    cells = [
        _ref_study_cell(i, float(s), t, u, eps, b, reps, methods, quantiles, grid, seed)
        for i, s in enumerate(s_grid)
    ]
    return {
        (m, q): np.stack([c[m][qi] for c in cells])
        for m in methods
        for qi, q in enumerate(quantiles)
    }


def _ref_credibility_from_draws(limit, n, bs, es):
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
    return bisection_root(
        lambda r: _ref_credibility_from_draws(r, ch.n, bs, es) >= q, rel_tol
    )


def _count_ds_rows(monkeypatch):
    """Record the (n, y, z) of every row handed to the grid route and to
    ds_upper_limits_batch."""
    grid_rows, batch_rows = [], []
    real_grid = evalharness._grid_limits
    real_exact = evalharness.ds_upper_limits_batch

    def counting_grid(counts, *args):
        grid_rows.extend(map(tuple, counts.tolist()))
        return real_grid(counts, *args)

    def counting_exact(ns, ys, zs, *args):
        batch_rows.extend(zip(ns.tolist(), ys.tolist(), zs.tolist()))
        return real_exact(ns, ys, zs, *args)

    monkeypatch.setattr(evalharness, "_grid_limits", counting_grid)
    monkeypatch.setattr(evalharness, "ds_upper_limits_batch", counting_exact)
    return grid_rows, batch_rows


def _assert_once_per_triple(grid_rows, batch_rows, draws):
    """Each distinct triple is evaluated once: z <= 1 on the grid, z >= 2
    (all carried by the series here) by the exact batch."""
    assert len(grid_rows) == len(set(grid_rows))
    assert len(batch_rows) == len(set(batch_rows))
    assert set(grid_rows) == {d for d in draws if d[2] <= 1}
    assert set(batch_rows) == {d for d in draws if d[2] >= 2}
    assert grid_rows and batch_rows


# ---------------------------------------------------------------------------
# studies

SMALL = dict(t=3.3, u=10.0, eps=0.1, b=0.3, s_grid=[5.0, 15.0, 25.0], reps=30)
PAPER = dict(t=33.0, u=100.0, eps=1.0, b=3.0, s_grid=[20.0, 30.0, 40.0], reps=12)
METHODS = ("ds", "B1", "B2", "upper", "lower")
QUANTILES = (0.9, 0.99)


class TestSimulateStudy:
    @pytest.mark.parametrize("config", [SMALL, PAPER], ids=["small", "paper"])
    def test_limits_bitwise(self, config):
        grid = GridConfig()
        want = _ref_simulate_limits(
            **config, methods=METHODS, seed=31, quantiles=QUANTILES, grid=grid
        )
        s_grid = np.asarray(config["s_grid"])
        for threads in (1, 2):
            got = simulate_study(
                **config, methods=METHODS, seed=31, quantiles=QUANTILES,
                grid=grid, threads=threads,
            )
            assert set(got.limits) == set(want)
            for key, lim in want.items():
                assert np.array_equal(got.limits[key], lim), (key, threads)
                cov = (lim > s_grid[:, None]).mean(axis=1)
                assert np.array_equal(got.coverage[key], cov)

    def test_one_evaluation_per_distinct_triple(self, monkeypatch):
        grid_rows, batch_rows = _count_ds_rows(monkeypatch)
        simulate_study(**SMALL, methods=("ds",), seed=32, grid=GridConfig(points=64))
        draws = set()
        for idx, s in enumerate(SMALL["s_grid"]):
            gen = RngHandle(32, derive_stream_id("simulate", idx)).generator
            ns = gen.poisson(SMALL["eps"] * s + SMALL["b"], SMALL["reps"])
            ys = gen.poisson(SMALL["t"] * SMALL["b"], SMALL["reps"])
            zs = gen.poisson(SMALL["u"] * SMALL["eps"], SMALL["reps"])
            draws.update(zip(ns.tolist(), ys.tolist(), zs.tolist()))
        _assert_once_per_triple(grid_rows, batch_rows, draws)
        assert len(draws) < 3 * SMALL["reps"]  # the study does repeat triples


# ---------------------------------------------------------------------------
# coverage estimators

TASK1B = dict(t=3.3, u=10.0, truth=(0.1, 0.3))
GRID64 = GridConfig(points=64)


@pytest.mark.parametrize("name", ["ds", "B1"])
def test_coverage_enumerate_bitwise(name):
    method = make_ds_method(GRID64) if name == "ds" else make_bayes_method(name)
    s_grid = [5.0, 10.0, 15.0]
    want = _ref_coverage_enumerate(
        _ref_method(name, GRID64), **TASK1B, s_grid=s_grid, q=0.9, tail_eps=1e-5
    )
    for threads in (1, 2):
        got = coverage_enumerate(
            method, TASK1B["t"], TASK1B["u"], TASK1B["truth"], s_grid, 0.9,
            tail_eps=1e-5, threads=threads,
        )
        assert np.array_equal(got.estimate, want)


@pytest.mark.parametrize("name", ["ds", "B1"])
def test_coverage_importance_bitwise(name):
    method = make_ds_method(GRID64) if name == "ds" else make_bayes_method(name)
    s_grid = [5.0, 10.0, 15.0]
    want, want_se = _ref_coverage_importance(
        _ref_method(name, GRID64), **TASK1B, s_grid=s_grid, q=0.9,
        n_samples=400, s_ref=10.0, rng=RngHandle(33),
    )
    got = coverage_importance(
        method, TASK1B["t"], TASK1B["u"], TASK1B["truth"], s_grid, 0.9,
        n_samples=400, s_ref=10.0, rng=RngHandle(33),
    )
    assert np.array_equal(got.estimate, want)
    assert np.array_equal(got.std_err, want_se)


def test_coverage_importance_one_evaluation_per_distinct_triple(monkeypatch):
    grid_rows, batch_rows = _count_ds_rows(monkeypatch)
    coverage_importance(
        make_ds_method(GRID64), TASK1B["t"], TASK1B["u"], TASK1B["truth"],
        [5.0, 10.0], 0.9, n_samples=300, s_ref=5.0, rng=RngHandle(34),
    )
    gen = RngHandle(34).generator
    (eps, b) = TASK1B["truth"]
    ns = gen.poisson(eps * 5.0 + b, 300)
    ys = gen.poisson(TASK1B["t"] * b, 300)
    zs = gen.poisson(TASK1B["u"] * eps, 300)
    draws = set(zip(ns.tolist(), ys.tolist(), zs.tolist()))
    assert len(draws) < 300
    _assert_once_per_triple(grid_rows, batch_rows, draws)


# ---------------------------------------------------------------------------
# credibility

CRED_CFG = CredibilityConfig(b_prior=(3.0, 0.3), e_prior=(1.0, 0.1))
CRED_CH = ChannelObservation(5, 10, 100, 33.0, 100.0)


class TestCredibility:
    def test_bitwise(self):
        # The limit lies within rel_tol = 1e-6 of plain bisection to 1e-12;
        # the credibility of any given limit is unchanged bitwise.
        for ch in (CRED_CH, ChannelObservation(0, 2, 7, 3.3, 10.0)):
            want = _ref_credibility_limit(ch, CRED_CFG, 0.9, 3000, RngHandle(35), 1e-12)
            got = credibility_limit(ch, CRED_CFG, 0.9, 3000, RngHandle(35))
            assert got == pytest.approx(want, rel=1e-6)
            for limit in (0.0, 2.5, want, math.inf):
                bs, es = _posterior_nuisance_draws(ch, CRED_CFG, 3000, RngHandle(36))
                assert credibility(limit, ch, CRED_CFG, 3000, RngHandle(36)) == (
                    _ref_credibility_from_draws(limit, ch.n, bs, es)
                )

    def test_gammainc_passes(self, monkeypatch):
        calls = []
        real = sp.gammainc

        def counting(a, x):
            calls.append(1)
            return real(a, x)

        monkeypatch.setattr(sp, "gammainc", counting)
        want = _ref_credibility_limit(CRED_CH, CRED_CFG, 0.9, 10_000, RngHandle(37))
        assert len(calls) == 69
        calls.clear()
        got = credibility_limit(CRED_CH, CRED_CFG, 0.9, 10_000, RngHandle(37))
        # P(n + 1, b) once, then one pass per residual: from the start
        # n + 1 = 6, 3 passes bracket the root and 4 false-position steps
        # close it, where bisection took 23 passes
        assert len(calls) == 1 + 7
        assert got == pytest.approx(want, rel=1e-6)
