"""Coverage estimators, credibility, study machinery, length quantiles."""

import math
import multiprocessing
import multiprocessing.connection
import os
import signal
import subprocess
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from functools import partial
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from dsplim._gamma_ratio import NumericalError
from dsplim.bayes import (
    PriorConfig,
    bayes_upper_limits_batch,
    bayes_posterior_cdf,
    conjugate_posteriors,
    prior_preset,
)
from dsplim.ds_limits import ChannelObservation, GridConfig
from dsplim.evalharness import (
    CredibilityConfig,
    EnumerationTooLarge,
    NoPosteriorMass,
    coverage_enumerate,
    coverage_importance,
    credibility,
    credibility_limit,
    make_bayes_method,
    make_ds_method,
    simulate_study,
)
from dsplim import evalharness
from dsplim.evalharness import _credibility_curve, _posterior_nuisance_draws, _row_limits
from dsplim.sampling import RngHandle, derive_stream_id
from oracles import bisection_root, mc_credibility

TASK1B = dict(t=3.3, u=10.0, truth_nuisance=(0.1, 0.3))

# (n, y, z) at t = u = 1 whose B1 background block starts from 2**-871,
# below the double range, although its posterior mass on s >= 0 is about
# 1/2; the batch and the scalar route both carry it by the series.
UNDERFLOW_ROW = (870, 870, 1)


@pytest.fixture(scope="module")
def underflow_limit():
    """B1 limit at q = 0.9, by bisection of the posterior CDF to 1e-12."""
    ch = ChannelObservation(*UNDERFLOW_ROW, 1.0, 1.0)
    post = conjugate_posteriors(ch, prior_preset("B1"))
    return bisection_root(lambda x: bayes_posterior_cdf(post, x) >= 0.9)


def _const_method(value):
    def method(counts, t, u, quantiles):
        return np.full((len(quantiles), len(counts)), value)

    return method


class _FailingMethod:
    """Picklable limit method whose limits encode each row's counts as
    n * 1e6 + y * 1e3 + z.  A block raises if it holds a row whose count
    in ``column`` is one of ``values``.  Records the blocks it gets."""

    def __init__(self, column=0, values=()):
        self.column, self.values = column, frozenset(values)
        self.blocks = []

    def __call__(self, counts, t, u, quantiles):
        self.blocks.append(counts.tolist())
        for row in counts.tolist():
            if row[self.column] in self.values:
                raise NumericalError(f"stub failure at {tuple(row)}")
        code = counts[:, 0] * 1e6 + counts[:, 1] * 1e3 + counts[:, 2]
        return np.tile(code, (len(quantiles), 1))


@pytest.fixture
def stub_pool(monkeypatch):
    """Patch a pool into ``evalharness`` that records its worker count and
    runs in this process, so no process starts; yields the counts.  The
    patched class's ``log`` records each start and shutdown in order."""
    workers = []

    class Pool:
        log = []  # ("start" or "shutdown", worker count), in call order

        def __init__(self, max_workers):
            workers.append(max_workers)
            self.max_workers = max_workers
            self.log.append(("start", max_workers))

        def shutdown(self):
            self.log.append(("shutdown", self.max_workers))

        def map(self, fn, items, chunksize=1):
            return map(fn, items)

    monkeypatch.setattr(evalharness, "ProcessPoolExecutor", Pool)
    return workers


class TestRowLimits:
    COUNTS = np.array([(n, n % 5, 3) for n in range(64)])
    # int posteriors of the four presets, as _preset_limits builds them
    INT_POSTERIORS = (np.random.default_rng(6).poisson((40, 99, 100), (2000, 3))
                      + np.array([(1, 1, 1), (2, 2, 2), (2, 1, 1), (1, 2, 2)])[:, None, :]
                      ).reshape(-1, 3)
    # 65**12 > 2**63: the packed key would overflow, so the lexsort runs
    KEY_OVERFLOW = np.random.default_rng(7).integers(0, 2**6 + 1, (400, 12))

    def test_failing_row_is_isolated_by_halving(self):
        method = _FailingMethod(0, {37})
        limits, failures = _row_limits(method, self.COUNTS, 3.3, 10.0, (0.9, 0.99))
        # one block of 64 rows at one worker; 64 -> 32 -> ... -> 1 adds 2
        # calls per halving
        assert len(method.blocks) <= 1 + 2 * 6
        assert failures == {37: "stub failure at (37, 2, 3)"}
        assert np.isnan(limits[:, 37]).all()
        ok = np.arange(64) != 37
        code = self.COUNTS[:, 0] * 1e6 + self.COUNTS[:, 1] * 1e3 + self.COUNTS[:, 2]
        assert np.array_equal(limits[:, ok], np.tile(code[ok], (2, 1)))

    def test_repeated_failing_row_is_evaluated_once(self):
        bad = [0, 5000, 1]
        counts = np.insert(self.COUNTS[:40], [5, 20, 40], bad, axis=0)
        method = _FailingMethod(1, {5000})
        limits, failures = _row_limits(method, counts, 3.3, 10.0, (0.9,))
        # one block of the 41 distinct rows holds the failing row, and it
        # is halved down to that row alone once
        assert [block for block in method.blocks if bad in block][-1] == [bad]
        assert sum(block == [bad] for block in method.blocks) == 1
        assert failures == dict.fromkeys([5, 21, 42], "stub failure at (0, 5000, 1)")
        ok = np.ones(len(counts), bool)
        ok[[5, 21, 42]] = False
        assert np.isfinite(limits[:, ok]).all() and np.isnan(limits[:, ~ok]).all()

    def test_bitwise_equal_across_worker_counts(self):
        fails = [2, 17, 18, 40, 63]
        counts = np.concatenate([self.COUNTS, self.COUNTS[::-3]])

        def run(threads):
            method = _FailingMethod(0, fails)
            return _row_limits(method, counts, 3.3, 10.0, (0.9, 0.99), threads)

        (serial, serial_failures), (pooled, pooled_failures) = run(1), run(2)
        assert serial.tobytes() == pooled.tobytes()
        assert serial_failures == pooled_failures
        assert sorted(serial_failures) == [
            i for i, row in enumerate(counts) if row[0] in fails
        ]

    def test_workers_capped_at_cores(self, stub_pool, monkeypatch):
        monkeypatch.setattr(evalharness.os, "cpu_count", lambda: 3)
        serial = _row_limits(_FailingMethod(0, {37}), self.COUNTS, 3.3, 10.0, (0.9,))
        pooled = _row_limits(_FailingMethod(0, {37}), self.COUNTS, 3.3, 10.0, (0.9,), 5000)
        assert stub_pool == [3]
        assert serial[0].tobytes() == pooled[0].tobytes() and serial[1] == pooled[1]

    @pytest.mark.parametrize("cores, threads, blocks", [(3, 5000, 12), (2, 2, 8), (2, 64, 8)])
    def test_blocks_follow_the_capped_workers(self, stub_pool, monkeypatch,
                                              cores, threads, blocks):
        # 4 blocks per worker once a pool runs, with no more workers than cores
        monkeypatch.setattr(evalharness.os, "cpu_count", lambda: cores)
        method = _FailingMethod()
        _row_limits(method, self.COUNTS, 3.3, 10.0, (0.9,), threads)
        assert stub_pool == [min(cores, threads)] and len(method.blocks) == blocks

    @pytest.mark.parametrize(
        "counts",
        [
            np.random.default_rng(3).integers(0, 6, (500, 3)),
            np.random.default_rng(4).integers(0, 4, (300, 12)),  # (N, 3C), C = 4
            np.array([[7, 0, 2]]),
            np.empty((0, 6), dtype=int),
            2**53 - np.random.default_rng(5).integers(0, 3, (200, 3)),
            np.array([[2**53, 5, 1], [2**53 - 1, 5, 1], [2**53, 5, 1], [0, 2**53, 1]]),
            INT_POSTERIORS,
            KEY_OVERFLOW,
        ],
        ids=["random", "multichannel", "one-row", "no-rows", "near-2**53", "2**53-ties",
             "int-posteriors", "key-overflow"],
    )
    def test_distinct_rows_match_np_unique(self, counts):
        distinct, inverse = evalharness._distinct_rows(counts)
        want, want_inverse = np.unique(counts, axis=0, return_inverse=True)
        assert distinct.dtype == counts.dtype
        assert np.array_equal(distinct, want) and distinct.shape == want.shape
        assert np.array_equal(inverse, want_inverse.reshape(-1))
        assert np.array_equal(distinct[inverse], counts)

    def test_packed_key_only_where_it_fits(self):
        assert evalharness._packed_key(self.INT_POSTERIORS) is not None
        assert evalharness._packed_key(self.KEY_OVERFLOW) is None

    def test_no_failure_is_one_call_per_block(self):
        method = _FailingMethod()
        limits, failures = _row_limits(method, self.COUNTS, 3.3, 10.0, (0.9,))
        assert failures == {} and len(method.blocks) == 1
        big = np.array([(n, 0, 3) for n in range(2 * evalharness._BLOCK_ROWS + 1)])
        method = _FailingMethod()
        _row_limits(method, big, 3.3, 10.0, (0.9,))
        assert [len(block) for block in method.blocks] == [683, 683, 683]
        assert _row_limits(method, np.empty((0, 3), int), 3.3, 10.0, (0.9,))[1] == {}


class TestWorkerPool:
    """One worker pool per process, forked at the first pooled call."""

    COUNTS = TestRowLimits.COUNTS

    def test_one_block_runs_in_process(self, stub_pool, monkeypatch):
        monkeypatch.setattr(evalharness.os, "cpu_count", lambda: 2)
        method = _FailingMethod()
        limits, _ = _row_limits(method, np.repeat(self.COUNTS[:1], 5, axis=0),
                                3.3, 10.0, (0.9,), 2)
        assert stub_pool == [] and method.blocks == [self.COUNTS[:1].tolist()]
        assert (limits == 3.0).all()

    def test_pool_is_reused_at_one_worker_count(self, stub_pool, monkeypatch):
        monkeypatch.setattr(evalharness.os, "cpu_count", lambda: 2)
        for threads in (2, 2, 64):  # 64 threads are capped at the 2 cores
            _row_limits(_FailingMethod(), self.COUNTS, 3.3, 10.0, (0.9,), threads)
        assert stub_pool == [2]
        monkeypatch.setattr(evalharness.os, "cpu_count", lambda: 3)
        _row_limits(_FailingMethod(), self.COUNTS, 3.3, 10.0, (0.9,), 3)
        _row_limits(_FailingMethod(), self.COUNTS, 3.3, 10.0, (0.9,), 1)
        assert evalharness.ProcessPoolExecutor.log == [
            ("start", 2), ("shutdown", 2), ("start", 3)]

    def test_methods_share_one_pool_and_keep_their_bits(self, monkeypatch):
        monkeypatch.setattr(evalharness.os, "cpu_count", lambda: 2)
        counts = np.indices((8, 4, 4)).reshape(3, -1).T  # z = 0, 1 and z >= 2 rows
        methods = [make_ds_method(), make_bayes_method("B1"), make_ds_method()]
        pools = []
        for method in methods:
            serial, serial_failures = _row_limits(method, counts, 3.3, 10.0, (0.9, 0.99))
            pooled, pooled_failures = _row_limits(method, counts, 3.3, 10.0, (0.9, 0.99), 2)
            assert serial.tobytes() == pooled.tobytes()
            assert serial_failures == pooled_failures == {}
            pools.append(evalharness._pool)
        assert pools[0] is not None and pools == [pools[0]] * 3

    def test_killed_worker_breaks_one_call(self, monkeypatch):
        monkeypatch.setattr(evalharness.os, "cpu_count", lambda: 2)
        method = _FailingMethod(0, {37})
        want, want_failures = _row_limits(method, self.COUNTS, 3.3, 10.0, (0.9,))
        _row_limits(method, self.COUNTS, 3.3, 10.0, (0.9,), 2)
        pool = evalharness._pool
        victim = multiprocessing.active_children()[0]
        os.kill(victim.pid, signal.SIGKILL)
        assert multiprocessing.connection.wait([victim.sentinel], timeout=10)
        # Wait for the pool's own thread to see the death; a map submitted
        # before it does could still finish on the other worker.
        deadline = time.monotonic() + 10
        while not pool._broken and time.monotonic() < deadline:
            time.sleep(0.01)
        with pytest.raises(BrokenProcessPool):
            _row_limits(method, self.COUNTS, 3.3, 10.0, (0.9,), 2)
        assert evalharness._pool is None
        got, failures = _row_limits(method, self.COUNTS, 3.3, 10.0, (0.9,), 2)
        assert evalharness._pool not in (None, pool)
        assert got.tobytes() == want.tobytes() and failures == want_failures

    def test_workers_end_with_their_process(self):
        script = (
            "import multiprocessing\n"
            "from dsplim import evalharness\n"
            "for _ in range(2):\n"
            "    assert evalharness._parallel_map(abs, [-1, -2, -3], 2) == [1, 2, 3]\n"
            "print(*(p.pid for p in multiprocessing.active_children()))\n"
        )
        src = str(Path(evalharness.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        done = subprocess.run([sys.executable, "-c", script], env=env,
                              capture_output=True, text=True, timeout=60, check=True)
        pids = [int(pid) for pid in done.stdout.split()]
        assert len(pids) == 2

        def running(pid):
            try:
                os.kill(pid, 0)
            except ProcessLookupError:
                return False
            return True

        deadline = time.monotonic() + 10
        while any(map(running, pids)) and time.monotonic() < deadline:
            time.sleep(0.05)
        assert not any(map(running, pids))


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

    @pytest.mark.parametrize("tail_eps", [0.0, 1.0, -0.5, 2.0, math.nan])
    def test_tail_eps_inside_unit_interval(self, tail_eps):
        with pytest.raises(ValueError, match="tail_eps"):
            coverage_enumerate(
                _const_method(1.0), s_grid=[1.0], q=0.9, tail_eps=tail_eps, **TASK1B
            )

    def test_truncation_bound_reported(self):
        rep = coverage_enumerate(
            _const_method(1.0), s_grid=[1.0], q=0.9, tail_eps=1e-9, **TASK1B
        )
        assert rep.truncation_bound == pytest.approx(3e-9)
        assert rep.mode == "enumeration"
        assert np.all(rep.std_err == 0.0)


class TestPoissonBoxMax:
    @settings(max_examples=300, deadline=None)
    @given(rate=st.floats(0.0, 1e3, exclude_min=True),
           tail_eps=st.floats(1e-15, 0.5))
    def test_equals_scipy_poisson_ppf(self, rate, tail_eps):
        want = int(stats.poisson.ppf(1.0 - tail_eps, rate))
        assert evalharness._poisson_box_max(rate, tail_eps) == want

    def test_rate_zero_is_zero(self):
        assert evalharness._poisson_box_max(0.0, 1e-10) == 0
        assert int(stats.poisson.ppf(1.0 - 1e-10, 0.0)) == 0

    def test_criterion4_box(self):
        # the acceptance enumeration: s in [5, 25], (eps, b) = (0.1, 0.3)
        rows = []

        def method(counts, t, u, quantiles):
            rows.append(counts)
            return np.ones((len(quantiles), len(counts)))

        coverage_enumerate(method, s_grid=np.arange(5.0, 26.0), q=0.9,
                           tail_eps=1e-10, **TASK1B)
        box = np.concatenate(rows).max(axis=0) + 1
        assert box.tolist() == [20, 13, 13]


def test_cli_imports_without_scipy_stats():
    script = ("import sys\n"
              "import dsplim.cli\n"
              "print(sorted(m for m in sys.modules if m.startswith('scipy.stats')))\n")
    src = str(Path(evalharness.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=60, check=True)
    assert done.stdout.strip() == "[]"


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

    def test_summary_range_without_grid_points(self):
        res = simulate_study(3.3, 10.0, 0.1, 0.3, [5.0, 6.0], reps=3, methods=("B1",))
        with pytest.raises(ValueError, match="no s-grid point"):
            res.summary(20.0, 40.0)

    def test_reps_validation(self):
        with pytest.raises(ValueError):
            simulate_study(3.3, 10.0, 0.1, 0.3, [1.0], reps=0)

    def test_failing_row_is_named(self, monkeypatch):
        kw = dict(t=3.3, u=10.0, eps=0.1, b=0.3, s_grid=[3.0, 9.0], reps=25,
                  methods=("ds",), seed=9, quantiles=(0.9,))
        monkeypatch.setattr(
            evalharness, "make_ds_method", lambda grid: _FailingMethod()
        )
        code = simulate_study(**kw).limits[("ds", 0.9)].reshape(-1).astype(int)
        rows = np.stack([code // 10**6, code // 10**3 % 1000, code % 1000], axis=1)
        first = int(np.flatnonzero(rows[:, 2] == 0)[0])
        n, y, z = rows[first]
        monkeypatch.setattr(
            evalharness, "make_ds_method", lambda grid: _FailingMethod(2, {0})
        )
        messages = set()
        for threads in (1, 2):
            with pytest.raises(NumericalError) as err:
                simulate_study(**kw, threads=threads)
            messages.add(str(err.value))
        assert messages == {
            f"study row {first}, (n, y, z) = ({n}, {y}, {z}): "
            f"stub failure at ({n}, {y}, {z})"
        }


SMALL_STUDY = dict(t=3.3, u=10.0, eps=0.1, b=0.3, s_grid=np.arange(5.0, 26.0), reps=20)
PAPER_STUDY = dict(t=33.0, u=100.0, eps=1.0, b=3.0, s_grid=np.arange(0.0, 41.0, 4.0), reps=10)
PRESETS = ("B1", "B2", "upper", "lower")


def _study_counts(t, u, eps, b, s_grid, reps, seed):
    """The (n, y, z) rows simulate_study draws, in its input order."""
    draws = []
    for idx, s in enumerate(s_grid):
        gen = RngHandle(seed, derive_stream_id("simulate", idx)).generator
        draws.append(np.stack([gen.poisson(eps * s + b, reps), gen.poisson(t * b, reps),
                               gen.poisson(u * eps, reps)], axis=1))
    return np.concatenate(draws)


def _posteriors(counts, presets):
    """Each (row, preset) pair's posterior shapes, as tuples."""
    return [tuple(row + np.array([p.a_n, p.a_b, p.a_e]))
            for p in map(prior_preset, presets) for row in counts]


class _StubBatch:
    """Stands in for ``bayes_upper_limits_batch``: limits encode each
    row's posterior shapes as kn * 1e6 + kb * 1e3 + ke, and a call raises
    naming the first row whose shapes are in ``failing``."""

    def __init__(self, failing):
        self.failing = set(failing)

    def __call__(self, ns, ys, zs, t, u, prior, quantiles):
        priors = [prior] * len(ns) if isinstance(prior, PriorConfig) else prior
        shapes = [(n + p.a_n, y + p.a_b, z + p.a_e)
                  for n, y, z, p in zip(ns, ys, zs, priors)]
        for n, y, z, shape in zip(ns, ys, zs, shapes):
            if shape in self.failing:
                raise NumericalError(f"stub failure at ({n}, {y}, {z})")
        code = np.array([kn * 1e6 + kb * 1e3 + ke for kn, kb, ke in shapes])
        return np.tile(code, (len(quantiles), 1))


class TestStudyPlan:
    """simulate_study dedupes its rows once and solves each distinct Bayes
    posterior once, with the limits and errors of one method at a time."""

    @pytest.mark.parametrize("threads", [1, 2])
    @pytest.mark.parametrize("study", [SMALL_STUDY, PAPER_STUDY], ids=["small", "paper"])
    def test_each_method_as_alone(self, study, threads):
        quantiles = (0.9, 0.99)
        res = simulate_study(**study, seed=5, quantiles=quantiles, threads=threads)
        counts = _study_counts(**study, seed=5)
        if study is SMALL_STUDY:  # repeats, z = 0 and 1 rows, shared posteriors
            assert len(set(map(tuple, counts))) < len(counts)
            assert {0, 1} <= set(counts[:, 2])
            assert len(set(_posteriors(counts, PRESETS))) < len(
                _posteriors(np.unique(counts, axis=0), PRESETS))
        t, u = study["t"], study["u"]
        for m in res.methods:
            method = make_ds_method() if m == "ds" else make_bayes_method(m)
            alone, failures = _row_limits(method, counts, t, u, quantiles, threads)
            assert failures == {}
            for qi, q in enumerate(quantiles):
                assert res.limits[(m, q)].reshape(-1).tobytes() == alone[qi].tobytes()

    def test_one_solve_per_distinct_posterior(self, monkeypatch):
        solved = []

        def batch(ns, ys, zs, t, u, prior, quantiles):
            solved.extend((n + p.a_n, y + p.a_b, z + p.a_e)
                          for n, y, z, p in zip(ns, ys, zs, prior))
            return bayes_upper_limits_batch(ns, ys, zs, t, u, prior, quantiles)

        monkeypatch.setattr(evalharness, "bayes_upper_limits_batch", batch)
        simulate_study(**SMALL_STUDY, seed=5, methods=PRESETS)
        counts = _study_counts(**SMALL_STUDY, seed=5)
        assert sorted(solved) == sorted(set(_posteriors(counts, PRESETS)))

    @pytest.mark.parametrize("methods", [PRESETS, ("lower", "B2", "upper", "B1")])
    def test_failing_posterior_is_named(self, monkeypatch, methods):
        # The twin of TestSimulateStudy.test_failing_row_is_named for the
        # presets: a failing posterior shared by B1 and B2, and the largest
        # posterior of `upper`.  The error is the one the presets' own paths
        # raise, one method at a time in ``methods`` order.
        kw = dict(SMALL_STUDY, seed=9, methods=methods, quantiles=(0.9,))
        counts = _study_counts(**SMALL_STUDY, seed=9)
        rows = set(map(tuple, counts.tolist()))
        lo = min(r for r in rows if (r[0] + 1, r[1] + 1, r[2] + 1) in rows)
        shared = (lo[0] + 2, lo[1] + 2, lo[2] + 2)  # B2 at lo, B1 at lo + 1
        upper_max = max((r[0] + 2, r[1] + 1, r[2] + 1) for r in rows)
        monkeypatch.setattr(evalharness, "bayes_upper_limits_batch",
                            _StubBatch({shared, upper_max}))
        want = None
        for m in methods:
            try:
                evalharness._study_limits(make_bayes_method(m), counts, 3.3, 10.0, (0.9,), 1)
            except NumericalError as exc:
                want = str(exc)
                break
        assert want is not None
        # workers inherit the stub by fork
        monkeypatch.setattr(evalharness, "ProcessPoolExecutor", partial(
            ProcessPoolExecutor, mp_context=multiprocessing.get_context("fork")))
        messages = set()
        for threads in (1, 2):
            with pytest.raises(NumericalError) as err:
                simulate_study(**kw, threads=threads)
            messages.add(str(err.value))
        assert messages == {want}


class TestLengthQuantiles:
    def test_lower_prior_intervals_shorter_than_ds(self):
        # one batch, two methods: the conservative-prior method should
        # produce shorter upper limits in the median (the nearest-rank,
        # lower one)
        res = simulate_study(
            33.0, 100.0, 1.0, 3.0, [25.0], reps=150, methods=("ds", "lower"),
            seed=11,
        )
        ds_med = np.quantile(res.limits[("ds", 0.9)][0], 0.5, method="inverted_cdf")
        lo_med = np.quantile(res.limits[("lower", 0.9)][0], 0.5, method="inverted_cdf")
        assert lo_med <= ds_med


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
        assert lims[0, 0] == pytest.approx(underflow_limit, rel=1e-8)

    def test_bayes_method_underflowing_row_in_block(self, underflow_limit):
        method = make_bayes_method("B1")
        counts = np.array([(3, 2, 5), UNDERFLOW_ROW, (10, 4, 0), (3, 2, 5)])
        lims = method(counts, 1.0, 1.0, (0.9,))
        assert lims[0, 1] == pytest.approx(underflow_limit, rel=1e-8)
        others = method(counts[[0, 2]], 1.0, 1.0, (0.9,))
        assert np.array_equal(lims[0, [0, 2, 3]], others[0, [0, 1, 0]])
