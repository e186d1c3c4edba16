"""Acceptance suite: one criterion per test, one pass/fail line each.

Criteria 3 and 4 encode published coverage tables that this
implementation demonstrably cannot reproduce while following the
written method definitions (see the notes in those tests); the
affected sub-checks are asserted as stated and left red rather than
loosened.  All oracle-equivalence and invariant criteria pass.

Run order matters only for wall-clock reasons; every test is
independent and deterministically seeded.
"""

import math

import numpy as np
import pytest

from dsplim.bayes import (
    bayes_posterior_cdf,
    conjugate_posteriors,
    posterior_quantile,
    prior_preset,
)
from dsplim.ds_limits import (
    ChannelObservation,
    Dataset,
    GridConfig,
    UnboundedLimit,
    channel_cdf_lower,
    channel_cdf_upper,
    channel_curves,
    dataset_density,
    dataset_limits,
    shared_grid,
)
from dsplim.evalharness import (
    CredibilityConfig,
    coverage_enumerate,
    credibility,
    credibility_limit,
    make_ds_method,
    simulate_study,
)
from oracles import ARandomIntervalLaw, sample_intervals, singleton_plausibility
from dsplim.sampling import RngHandle
from oracles import mc_channel_cdfs, mc_posterior_ratio_cdf

pytestmark = pytest.mark.acceptance

ORACLE_CHANNELS = [
    ChannelObservation(5, 10, 100, 33.0, 100.0),
    ChannelObservation(0, 3, 10, 3.3, 10.0),
    ChannelObservation(12, 0, 25, 3.3, 10.0),
    ChannelObservation(49, 20, 30, 3.3, 10.0),
]


def _line(num: int, name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    print(f"\nCRITERION {num} [{name}]: {status} {detail}")


# ---------------------------------------------------------------------------
# criterion 1: DS channel CDFs vs the interval-sampling oracle


def test_criterion1_ds_cdf_oracle():
    """Closed-form F_lower/F_upper (beta-integral path) against the
    conditional Monte Carlo oracle, 1e6 conditional samples, 4 binomial
    standard errors, >=20 x per channel."""
    n_cond = 1_000_000
    worst = 0.0
    for k, ch in enumerate(ORACLE_CHANNELS):
        probe = shared_grid([ch], GridConfig(points=16, tail_eps=9e-4))
        xs = np.linspace(0.0, float(probe[-1]), 21)
        f_lo, f_up, m = mc_channel_cdfs(
            ch.n, ch.y, ch.z, ch.t, ch.u, xs, n_cond, RngHandle(101 + k).generator
        )
        lo = np.asarray(channel_cdf_lower(ch, xs, method="quadrature"))
        up = np.asarray(channel_cdf_upper(ch, xs, method="quadrature"))
        for est, exact in ((f_lo, lo), (f_up, up)):
            se = np.sqrt(np.maximum(exact * (1 - exact), 0.0) / m)
            pulls = np.abs(est - exact) / (se + 1e-9)
            worst = max(worst, float(pulls.max()))
        assert np.all(np.abs(f_lo - lo) <= 4 * np.sqrt(lo * (1 - lo) / m) + 4e-9)
        assert np.all(np.abs(f_up - up) <= 4 * np.sqrt(up * (1 - up) / m) + 4e-9)
    _line(1, "DS CDF oracle equivalence", True, f"worst pull {worst:.2f} (limit 4)")


# ---------------------------------------------------------------------------
# criterion 2: Bayes posterior CDF vs the gamma-ratio oracle


BAYES_ORACLE_CONFIGS = [
    (ChannelObservation(5, 10, 100, 33.0, 100.0), "B1"),
    (ChannelObservation(49, 20, 30, 3.3, 10.0), "B2"),
    (ChannelObservation(0, 3, 10, 3.3, 10.0), "upper"),
    (ChannelObservation(12, 0, 25, 3.3, 10.0), "lower"),
]


def test_criterion2_bayes_cdf_oracle():
    """Closed-form posterior CDF (beta-integral path) against direct
    gamma-ratio sampling, 1e6 draws, 4 standard errors, >=10 x per
    configuration.  The beta-integral route uses the general-scale form
    of the closed-form CDF; this test is what certifies that form
    against the defining random object."""
    worst = 0.0
    for k, (ch, prior) in enumerate(BAYES_ORACLE_CONFIGS):
        post = conjugate_posteriors(ch, prior_preset(prior))
        xs = np.array(
            [posterior_quantile(post, q) for q in np.linspace(0.05, 0.995, 10)]
        )
        est, m = mc_posterior_ratio_cdf(
            (post.ln[0], post.lb[0], post.le[0]),
            (post.ln[1], post.lb[1], post.le[1]),
            xs,
            1_000_000,
            RngHandle(201 + k).generator,
        )
        exact = np.asarray(bayes_posterior_cdf(post, xs, method="quadrature"))
        se = np.sqrt(np.maximum(exact * (1 - exact), 0.0) / m)
        pulls = np.abs(est - exact) / (se + 1e-9)
        worst = max(worst, float(pulls.max()))
        assert np.all(np.abs(est - exact) <= 4 * se + 4e-9)
    _line(2, "Bayes CDF oracle equivalence", True, f"worst pull {worst:.2f} (limit 4)")


# ---------------------------------------------------------------------------
# criterion 3: simulation study vs the published coverage table


@pytest.fixture(scope="module")
def reference_study():
    return simulate_study(
        33.0, 100.0, 1.0, 3.0, np.arange(20.0, 41.0), reps=2000,
        methods=("ds", "B1", "B2", "upper", "lower"), seed=20090201,
    )


def test_criterion3_reference_orderings(reference_study):
    """B1 and lower must have strictly lower 90% mean coverage than B2
    and upper respectively (the published ordering)."""
    rows = {(m, q): mean for (m, q, mean, _) in reference_study.summary(20, 40)}
    ok = rows[("B1", 0.9)] < rows[("B2", 0.9)] and rows[("lower", 0.9)] < rows[("upper", 0.9)]
    _line(
        3, "study orderings", ok,
        f"B1 {rows[('B1', 0.9)]:.4f} < B2 {rows[('B2', 0.9)]:.4f}; "
        f"lower {rows[('lower', 0.9)]:.4f} < upper {rows[('upper', 0.9)]:.4f}",
    )
    assert rows[("B1", 0.9)] < rows[("B2", 0.9)]
    assert rows[("lower", 0.9)] < rows[("upper", 0.9)]


# published means: DS .9032/.9901, B2 .8953/.9898, upper .9038/.9910,
# all with the band half-widths used for DS (+-0.013 at 90%, +-0.0055 at 99%)
REFERENCE_BANDS = {
    ("ds", 0.90): (0.890, 0.916),
    ("ds", 0.99): (0.984, 0.995),
    ("B2", 0.90): (0.8823, 0.9083),
    ("B2", 0.99): (0.9843, 0.9953),
    ("upper", 0.90): (0.8908, 0.9168),
    ("upper", 0.99): (0.9855, 0.9965),
}


def test_criterion3_reference_bands(reference_study):
    """Mean coverages inside the published-table bands.

    KNOWN RED: the 90% bands fail.  The methods implemented exactly as
    written have true 90% coverages about 0.02 higher than the
    published table (measured here to +-0.0015); the implementation is
    pinned by the criterion-1/2 oracles, by direct posterior sampling,
    and by a brute-force Monte Carlo of the whole belief-interval
    pipeline, so the published absolute levels are not reproducible
    from the written method definitions.  The bands are asserted as
    stated rather than widened.
    """
    rows = {(m, q): mean for (m, q, mean, _) in reference_study.summary(20, 40)}
    failures = []
    for (m, q), (lo, hi) in REFERENCE_BANDS.items():
        mean = rows[(m, q)]
        if not lo <= mean <= hi:
            failures.append(f"{m}@{q:.2f}: mean {mean:.4f} outside [{lo}, {hi}]")
    _line(
        3, "study coverage bands", not failures,
        "; ".join(failures) if failures else "all six bands met",
    )
    assert not failures, (
        "published-table bands not met by the faithfully implemented "
        "methods (expected; see this test's docstring): " + "; ".join(failures)
    )


# ---------------------------------------------------------------------------
# criterion 4: exact enumeration coverage on the small-rate configuration


@pytest.fixture(scope="module")
def enumeration_coverage():
    return coverage_enumerate(
        make_ds_method(), 3.3, 10.0, (0.1, 0.3), np.arange(5.0, 26.0), 0.90,
        tail_eps=1e-10,
    )


def test_criterion4_enumeration_floor(enumeration_coverage):
    """C(s) >= 0.90 for every s in [5, 25] (step 1)."""
    c_min = float(enumeration_coverage.estimate.min())
    ok = c_min >= 0.90
    _line(4, "enumeration coverage floor", ok, f"min C(s) = {c_min:.4f}")
    assert ok


def test_criterion4_enumeration_mean_band(enumeration_coverage):
    """Mean C(s) over s in [5, 25] inside [0.92, 0.98].

    KNOWN RED: the exact mean is ~0.995.  Channels with z <= 3 (97.9%
    of the data at these rates) always cover, because no-efficiency
    (z = 0) datasets give an unbounded limit by this artifact's stated
    convention and z in {1, 2, 3} gives heavy-tailed plausibility
    densities whose quantiles far exceed 25.  The published ~0.95
    requires a zero-count special-casing that returns finite (sometimes
    non-covering) limits, which contradicts the unbounded-limit
    convention this package specifies.  Asserted as stated.
    """
    mean = float(enumeration_coverage.estimate.mean())
    ok = 0.92 <= mean <= 0.98
    _line(4, "enumeration coverage mean band", ok, f"mean C(s) = {mean:.4f}")
    assert ok, (
        f"mean C(s) = {mean:.4f} outside [0.92, 0.98] (expected red: the "
        "unbounded-limit convention for z = 0 pins the mean near 0.99)"
    )


# ---------------------------------------------------------------------------
# criterion 5: credibility self-consistency


def test_criterion5_credibility_self_consistency():
    """Limits generated as posterior quantiles of the credibility model
    must measure back at credibility q, within 3 Monte Carlo standard
    errors over >= 500 datasets."""
    cfg = CredibilityConfig(b_prior=(0.31, 0.1), e_prior=(0.1, 0.03))
    t, u, eps, b, s = 3.3, 10.0, 0.1, 0.3, 10.0
    n_datasets, n_draws = 500, 8192
    gen = RngHandle(501).generator
    ns = gen.poisson(eps * s + b, n_datasets)
    ys = gen.poisson(t * b, n_datasets)
    zs = gen.poisson(u * eps, n_datasets)
    details = []
    for q in (0.90, 0.99):
        measured = np.empty(n_datasets)
        for i in range(n_datasets):
            ch = ChannelObservation(int(ns[i]), int(ys[i]), int(zs[i]), t, u)
            lim = credibility_limit(
                ch, cfg, q, n_draws, RngHandle(502).split("cred-limit", i, int(q * 100))
            )
            measured[i] = credibility(
                lim, ch, cfg, n_draws, RngHandle(502).split("cred-meas", i, int(q * 100))
            )
        se = measured.std(ddof=1) / math.sqrt(n_datasets)
        gap = abs(measured.mean() - q)
        details.append(f"q={q}: mean {measured.mean():.5f} (3se = {3 * se:.5f})")
        assert gap <= 3 * se, f"credibility self-consistency off at q={q}: {gap} > {3*se}"
    _line(5, "credibility self-consistency", True, "; ".join(details))


# ---------------------------------------------------------------------------
# criterion 6: invariant suites


def test_criterion6_invariants():
    checks = []

    # CDF dominance and monotonicity
    for ch in ORACLE_CHANNELS:
        c = channel_curves(ch)
        checks.append(np.all(c.f_upper <= c.f_lower + 1e-12))
        checks.append(np.all(np.diff(c.f_lower) >= -1e-12))
        checks.append(np.all(np.diff(c.f_upper) >= -1e-12))

    # combination order invariance at 1e-12
    a = ChannelObservation(5, 10, 100, 33.0, 100.0)
    b = ChannelObservation(3, 4, 40, 15.0, 53.0)
    d_ab = dataset_density(Dataset((a, b)))
    d_ba = dataset_density(Dataset((b, a)))
    checks.append(np.allclose(d_ab.pdf, d_ba.pdf, atol=1e-12))

    # density normalization at 1e-6
    checks.append(abs(np.trapezoid(d_ab.pdf, d_ab.xs) - 1.0) <= 1e-6)
    checks.append(d_ab.cdf[-1] >= 1.0 - 1e-6)

    # plausibility vs interval sampling within 4 binomial SE at 1e6
    law = ARandomIntervalLaw(3, 1.0)
    exact = singleton_plausibility(law, 2.0)
    lo, hi = sample_intervals(law, RngHandle(601), 1_000_000)
    est = float(np.mean((lo <= 2.0) & (hi >= 2.0)))
    checks.append(abs(est - exact) <= 4 * math.sqrt(exact * (1 - exact) / 1e6))

    # scaling consistency at 1e-13
    t = 33.0
    for lam in (0.02, 0.1, 0.31):
        v1 = singleton_plausibility(ARandomIntervalLaw(5, 1.0 / t), lam)
        v2 = singleton_plausibility(ARandomIntervalLaw(5, 1.0), t * lam)
        checks.append(abs(v1 - v2) <= 1e-13 * max(v1, 1e-300))

    # determinism across worker counts
    kw = dict(
        t=3.3, u=10.0, eps=0.1, b=0.3, s_grid=[4.0, 8.0], reps=20,
        methods=("ds", "B1"), seed=602, grid=GridConfig(points=64),
    )
    serial = simulate_study(**kw, threads=1)
    pooled = simulate_study(**kw, threads=2)
    checks.append(
        all(
            np.array_equal(serial.limits[k], pooled.limits[k])
            for k in serial.limits
        )
    )

    # zero-count conventions
    checks.append(
        np.all(channel_cdf_lower(ChannelObservation(0, 3, 10, 3.3, 10.0),
                                 np.array([0.0, 1.0, 50.0])) == 1.0)
    )
    checks.append(
        np.all(channel_cdf_upper(ChannelObservation(4, 3, 0, 3.3, 10.0),
                                 np.array([0.0, 1.0, 50.0])) == 0.0)
    )
    try:
        dataset_limits(Dataset((ChannelObservation(4, 3, 0, 3.3, 10.0),)), [0.9])
        checks.append(False)
    except UnboundedLimit:
        checks.append(True)

    ok = all(bool(c) for c in checks)
    _line(6, "invariant suites", ok, f"{len(checks)} checks")
    assert ok
