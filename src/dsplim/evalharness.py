"""Coverage, credibility and simulation-study machinery.

Coverage C(s) is the probability, under the generating model at true
signal s, that a method's reported upper limit exceeds s (strictly).
Two estimators are provided: exact enumeration over a truncated
(n, y, z) box for small rates, and Monte Carlo with importance
reweighting of the n margin so one sample batch serves every s on the
grid.  Credibility is the posterior probability that the signal lies
below a submitted limit under a reference model with a flat prior on
s >= 0 and gamma priors on the nuisance parameters.

Work items are keyed by deterministic stream ids, so every report is
reproducible bit-for-bit regardless of the worker count.
"""

from __future__ import annotations

import math
import os
import warnings
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from functools import partial

import numpy as np
from scipy import special as sp

from ._gamma_ratio import NumericalError
from .bayes import PriorConfig, bayes_upper_limits_batch, prior_preset
from .ds_limits import (
    ChannelObservation,
    GridConfig,
    _grid_limits,
    dataset_limits,  # noqa: F401  (a layer boundary the benchmark's tracer binds here)
    ds_upper_limits_batch,
    exact_rows,
)
from .sampling import DEFAULT_SEED, RngHandle, derive_stream_id
from .specfun import IntegrationError, solve_monotone

__all__ = [
    "CoverageReport",
    "CredibilityConfig",
    "StudyResult",
    "EnumerationTooLarge",
    "NoPosteriorMass",
    "make_ds_method",
    "make_bayes_method",
    "coverage_enumerate",
    "coverage_importance",
    "credibility",
    "credibility_limit",
    "simulate_study",
]


class EnumerationTooLarge(RuntimeError):
    """The truncated (n, y, z) box exceeds the configured cell budget."""


class NoPosteriorMass(RuntimeError):
    """The credibility denominator underflowed; no posterior mass remains."""


@dataclass
class CoverageReport:
    s_grid: np.ndarray
    estimate: np.ndarray
    std_err: np.ndarray
    mode: str
    n_samples: int | None = None
    cutoff: float | None = None
    truncation_bound: float | None = None
    ess: np.ndarray | None = None


@dataclass(frozen=True)
class CredibilityConfig:
    """Gamma priors on b and eps given as (mean, sd) pairs."""

    b_prior: tuple[float, float]
    e_prior: tuple[float, float]

    def __post_init__(self) -> None:
        for name, (mean, sd) in (("b", self.b_prior), ("eps", self.e_prior)):
            if not (0 < mean < math.inf and 0 < sd < math.inf):
                raise ValueError(
                    f"the {name} prior's mean and sd must be positive and finite,"
                    f" got {mean}:{sd}"
                )

    @staticmethod
    def _shape_scale(mean: float, sd: float) -> tuple[float, float]:
        return mean * mean / (sd * sd), sd * sd / mean

    @property
    def b_shape_scale(self) -> tuple[float, float]:
        return self._shape_scale(*self.b_prior)

    @property
    def e_shape_scale(self) -> tuple[float, float]:
        return self._shape_scale(*self.e_prior)


# ---------------------------------------------------------------------------
# limit methods and the one (n, y, z) -> limit path
#
# A limit method is a picklable callable
#     method(counts, t, u, quantiles) -> (len(quantiles), len(counts)) array
# over an (N, 3C) int array of rows (n_1, y_1, z_1, ..., n_C, y_C, z_C)
# of C channels, with t and u each a scalar or one value per channel; an
# unbounded limit is +inf.  Every row's limits depend on that row alone,
# not on the other rows passed with it.  A row without limits makes the
# call raise NumericalError or IntegrationError.

# Most distinct rows, or distinct Bayes posteriors of a study, handed to
# a method in one call; the rows are cut into blocks of this size at any
# worker count, with at least one block per worker.  The rows arrive
# sorted by their first count, so a block's Bayes batch runs a series
# only about as long as its own largest kn.
_BLOCK_ROWS = 1024


def _channel_scales(counts, t, u):
    """``counts`` as an (N, 3C) int array and ``t``, ``u`` as lists of C floats."""
    counts = np.asarray(counts, dtype=int)
    n_channels = counts.shape[1] // 3
    ts, us = (np.broadcast_to(np.asarray(v, dtype=float), (n_channels,)).tolist()
              for v in (t, u))
    return counts, ts, us


def _ds_limits_of_counts(counts, t, u, quantiles, grid: GridConfig) -> np.ndarray:
    counts, ts, us = _channel_scales(counts, t, u)
    out = np.empty((len(quantiles), len(counts)))
    ns, ys, zs = counts[:, :3].T
    exact = exact_rows(ns, ys, zs) & (len(ts) == 1)  # single-channel rows only
    out[:, exact] = ds_upper_limits_batch(
        ns[exact], ys[exact], zs[exact], ts[0], us[0], quantiles
    )
    out[:, ~exact] = _grid_limits(counts[~exact], ts, us, quantiles, grid)
    return out


def _bayes_limits_of_counts(counts, t, u, quantiles, prior: PriorConfig) -> np.ndarray:
    counts, (t,), (u,) = _channel_scales(counts, t, u)
    ns, ys, zs = counts.T
    return bayes_upper_limits_batch(ns, ys, zs, t, u, prior, quantiles)


def _posterior_limits_of_pairs(pairs, t, u, quantiles, priors) -> np.ndarray:
    """Limits of (n, y, z, k) rows, each under its own prior ``priors[k]``."""
    ns, ys, zs, ks = pairs.T
    return bayes_upper_limits_batch(ns, ys, zs, t, u, [priors[k] for k in ks], quantiles)


def make_ds_method(grid: GridConfig = GridConfig()):
    """Belief-interval limit method; +inf where the limit is unbounded.

    Single-channel :func:`exact_rows` (z >= 2, on the series route) take
    the grid-free :func:`ds_upper_limits_batch`, so ``grid`` does not
    affect them; every other row (several channels, z <= 1, or a shape
    above the series bound) takes the grid route on ``grid``, all of a
    call's such rows in one :func:`dsplim.ds_limits._grid_limits`, which
    builds one state of all channels per chunk of them.  A row of the grid
    route gets the limits :func:`dataset_limits` gives it alone; an exact
    row gets those of :func:`ds_upper_limits_batch`, which differ from the
    grid's :func:`dataset_limits` by the grid's error.
    """
    return partial(_ds_limits_of_counts, grid=grid)


def make_bayes_method(prior: PriorConfig | str):
    """Bayesian limit method for single-channel rows and one prior."""
    if isinstance(prior, str):
        prior = prior_preset(prior)
    return partial(_bayes_limits_of_counts, prior=prior)


# The process's one worker pool and its worker count (see _parallel_map).
_pool = None
_pool_workers = 0


def _shutdown_pool():
    """Shut the worker pool down and join its workers, if one runs; the
    next pooled call forks a new one."""
    global _pool, _pool_workers
    pool, _pool, _pool_workers = _pool, None, 0
    if pool is not None:
        pool.shutdown()


def _mapped(fn, items):
    """``[fn(item) for item in items]``: one worker's share as one pool task."""
    return [fn(item) for item in items]


def _parallel_map(fn, items, workers: int):
    """``[fn(item) for item in items]``, on a pool of ``workers``
    processes when ``workers`` > 1 and there is more than one item.

    The pool gets one task per worker: task k of w = ``workers`` holds
    items k, k + w, k + 2w, ..., and the results come back in item order.
    Items whose cost rises along the list (blocks of rows sorted by n) so
    spread evenly over the workers, and each worker pays the pool's
    per-task overhead once a call.

    The process keeps one pool: it is forked at the first pooled call and
    reused by every later call with the same worker count.  A call with
    another count shuts the old pool down before the new one forks, so no
    executor thread is alive at a fork.  A map that raises
    BrokenProcessPool (a worker died) drops the pool and re-raises; the
    next call forks a fresh one.  At interpreter exit, concurrent.futures
    joins the workers.  Workers see module state as it was when the pool
    forked, not as it is at later calls.  Nothing in dsplim calls this
    from more than one thread, so the pool has no lock.
    """
    global _pool, _pool_workers
    if workers <= 1 or len(items) <= 1:
        return [fn(item) for item in items]
    if _pool_workers != workers:
        _shutdown_pool()
        _pool, _pool_workers = ProcessPoolExecutor(max_workers=workers), workers
    shares = [items[k::workers] for k in range(min(workers, len(items)))]
    try:
        share_results = list(_pool.map(partial(_mapped, fn), shares))
    except BrokenProcessPool:
        _shutdown_pool()
        raise
    results = [None] * len(items)
    for k, share in enumerate(share_results):
        results[k::workers] = share
    return results


def _block_limits(block, method, t, u, quantiles):
    """Limits of one block of rows and {block row: message} for its rows
    that fail.

    A block whose method call raises is halved, and each half evaluated
    again, until every failing row stands alone; such a row gets NaN
    limits and its error message.
    """
    try:
        return method(block, t, u, quantiles), {}
    except (NumericalError, IntegrationError) as exc:
        if len(block) == 1:
            return np.full((len(quantiles), 1), np.nan), {0: str(exc)}
    half = len(block) // 2
    head, head_failures = _block_limits(block[:half], method, t, u, quantiles)
    tail, tail_failures = _block_limits(block[half:], method, t, u, quantiles)
    tail_failures = {half + j: message for j, message in tail_failures.items()}
    return np.concatenate([head, tail], axis=1), head_failures | tail_failures


def _packed_key(counts):
    """Each row of an integer ``counts`` as one int64, mixed-radix with
    the first column most significant, so keys sort as the rows do
    lexicographically, and the radices; None when a count is negative or
    the keys could overflow int64."""
    if not (np.issubdtype(counts.dtype, np.signedinteger) and counts.size
            and counts.min() >= 0):
        return None
    radices = [high + 1 for high in counts.max(axis=0).tolist()]
    if math.prod(radices) > np.iinfo(np.int64).max:
        return None
    key = counts[:, 0].astype(np.int64)
    for column, radix in zip(counts.T[1:], radices[1:]):
        key *= radix
        key += column
    return key, radices


def _distinct_rows(counts):
    """The distinct rows of a 2-d array in lexicographic order, and the
    index of each input row among them: np.unique(counts, axis=0,
    return_inverse=True) without a structured-dtype sort.

    Rows of nonnegative integers whose column ranges fit one int64 key
    (:func:`_packed_key`) are deduped by np.unique of their keys, and the
    distinct rows decoded from the distinct keys; any other array takes
    one lexsort over the columns and a neighbour-difference mask.
    """
    packed = _packed_key(counts)
    if packed is not None:
        key, radices = packed
        keys, inverse = np.unique(key, return_inverse=True)
        distinct = np.empty((len(keys), counts.shape[1]), dtype=counts.dtype)
        for j in range(counts.shape[1] - 1, 0, -1):
            keys, distinct[:, j] = np.divmod(keys, radices[j])
        distinct[:, 0] = keys
        return distinct, inverse
    order = np.lexsort(counts.T[::-1])
    ranked = counts[order]
    new = np.ones(len(counts), dtype=bool)
    new[1:] = (ranked[1:] != ranked[:-1]).any(axis=1)
    inverse = np.empty(len(counts), dtype=np.intp)
    inverse[order] = np.cumsum(new) - 1
    return ranked[new], inverse


def _distinct_limits(method, rows, t, u, quantiles, threads: int):
    """Limits of each of the distinct ``rows``, of shape (len(quantiles),
    len(rows)), and {row: error message} for the rows whose limits failed
    (NaN in the array).

    The rows are cut into contiguous blocks of at most _BLOCK_ROWS rows,
    and into at least one block per worker, with no more workers than
    cores.  The blocks are mapped over the process's one worker pool,
    forked at the first pooled call and reused by later ones, as one
    task per worker that holds every w-th block (:func:`_parallel_map`);
    a single block is evaluated in this process.  A block that raises
    is halved inside its worker until its failing rows stand alone
    (:func:`_block_limits`).  Since each row's limits depend on that row
    alone, the result is the same for any worker count.
    """
    if not len(rows):
        return np.empty((len(quantiles), 0)), {}
    # No more workers than cores: a pool forks all of them on the first submit.
    workers = min(threads, os.cpu_count() or 1)
    n_blocks = max(-(-len(rows) // _BLOCK_ROWS), workers)
    blocks = np.array_split(rows, min(n_blocks, len(rows)))
    task = partial(_block_limits, method=method, t=t, u=u, quantiles=tuple(quantiles))
    results = _parallel_map(task, blocks, workers)
    limits = np.concatenate([lims for lims, _ in results], axis=1)
    messages, start = {}, 0
    for block, (_, block_failures) in zip(blocks, results):
        messages.update((start + j, message) for j, message in block_failures.items())
        start += len(block)
    return limits, messages


def _scattered(limits, messages, inverse):
    """The limits and {distinct row: message} of distinct rows, scattered
    to the input rows, whose distinct rows ``inverse`` gives: the input
    rows' limits and {input row: message}, in input order."""
    failed = np.flatnonzero(np.isin(inverse, list(messages)))
    return limits.take(inverse, axis=1), {int(row): messages[inverse[row]] for row in failed}


def _row_limits(method, counts, t, u, quantiles, threads: int = 1):
    """Limits of every row of the (N, 3C) ``counts``, evaluating each
    distinct row once: an array of shape (len(quantiles), len(counts)),
    and {input row: error message} for the rows whose limits failed
    (NaN in the array), in input order.

    The distinct rows (:func:`_distinct_rows`, in lexicographic order, so
    sorted by the first channel's n) go through :func:`_distinct_limits`,
    and their limits are scattered back to the input order.
    """
    distinct, inverse = _distinct_rows(np.asarray(counts, dtype=int))
    limits, messages = _distinct_limits(method, distinct, t, u, quantiles, threads)
    return _scattered(limits, messages, inverse)


def _checked(counts, limits, failures):
    """``limits`` of a study, which needs every row's limits: a failing
    row raises one NumericalError naming the first such row in input
    order, its counts and its error."""
    if failures:
        row, message = next(iter(failures.items()))
        n, y, z = np.asarray(counts)[row].tolist()
        raise NumericalError(f"study row {row}, (n, y, z) = ({n}, {y}, {z}): {message}")
    return limits


def _study_limits(method, counts, t, u, quantiles, threads):
    """:func:`_row_limits` for a study, through :func:`_checked`."""
    return _checked(counts, *_row_limits(method, counts, t, u, quantiles, threads))


# ---------------------------------------------------------------------------
# coverage


def _poisson_pmf(ks: np.ndarray, rate: float) -> np.ndarray:
    if rate == 0.0:
        return np.where(ks == 0, 1.0, 0.0)
    return np.exp(ks * math.log(rate) - rate - sp.gammaln(ks + 1.0))


def _poisson_box_max(rate: float, tail_eps: float) -> int:
    """The least k with P(Pois(rate) <= k) >= 1 - tail_eps, by the rule
    of scipy.stats.poisson.ppf: k = ceil(pdtrik(q, rate)), less one when
    the Poisson CDF at k - 1 already reaches q."""
    if rate == 0.0:
        return 0
    q = 1.0 - tail_eps
    k = math.ceil(sp.pdtrik(q, rate))
    return k - 1 if k > 0 and sp.pdtr(k - 1, rate) >= q else k


def coverage_enumerate(
    method,
    t: float,
    u: float,
    truth_nuisance: tuple[float, float],
    s_grid,
    q: float,
    tail_eps: float = 1e-10,
    cell_budget: int = 2_000_000,
    threads: int = 1,
) -> CoverageReport:
    """Exact coverage by enumerating the truncated (n, y, z) box.

    Each margin is enumerated up to cumulative probability
    1 - tail_eps (the n margin at the largest grid rate), so every
    C(s) misses at most 3 * tail_eps of mass; that deterministic bound
    is reported in the ``truncation_bound`` field.
    """
    if not 0.0 < tail_eps < 1.0:
        raise ValueError(f"tail_eps must lie strictly inside (0, 1), not {tail_eps:g}")
    eps, b = truth_nuisance
    s_grid = np.asarray(s_grid, dtype=float)
    nu, rho = t * b, u * eps
    mu_max = eps * float(s_grid.max()) + b
    n_max = _poisson_box_max(mu_max, tail_eps)
    y_max = _poisson_box_max(nu, tail_eps)
    z_max = _poisson_box_max(rho, tail_eps)
    cells = (n_max + 1) * (y_max + 1) * (z_max + 1)
    if cells > cell_budget:
        raise EnumerationTooLarge(
            f"(n, y, z) box has {cells} cells, beyond the budget {cell_budget}"
        )

    counts = np.indices((n_max + 1, y_max + 1, z_max + 1)).reshape(3, -1).T
    limits = _study_limits(method, counts, t, u, (q,), threads)[0].reshape(
        n_max + 1, y_max + 1, z_max + 1
    )

    py = _poisson_pmf(np.arange(y_max + 1, dtype=float), nu)
    pz = _poisson_pmf(np.arange(z_max + 1, dtype=float), rho)
    w_yz = py[:, None] * pz[None, :]
    ks = np.arange(n_max + 1, dtype=float)
    estimate = np.empty(s_grid.size)
    for i, s in enumerate(s_grid):
        pn = _poisson_pmf(ks, eps * s + b)
        covered = (limits > s).astype(float)
        estimate[i] = float(pn @ (covered * w_yz).sum(axis=(1, 2)))
    return CoverageReport(
        s_grid=s_grid,
        estimate=estimate,
        std_err=np.zeros(s_grid.size),
        mode="enumeration",
        cutoff=tail_eps,
        truncation_bound=3.0 * tail_eps,
    )


def coverage_importance(
    method,
    t: float,
    u: float,
    truth_nuisance: tuple[float, float],
    s_grid,
    q: float,
    n_samples: int,
    s_ref: float,
    rng: RngHandle,
    threads: int = 1,
) -> CoverageReport:
    """Monte Carlo coverage with importance reweighting across the s grid.

    (y, z) are drawn from their s-free laws and n from
    Pois(eps * s_ref + b); each grid point s reuses the sample with
    weights w_s(n) = exp(-(mu_s - mu_ref)) (mu_s / mu_ref)^n, whose
    mean is 1 by construction.  An effective-sample-size column flags
    weight degeneracy far from s_ref.
    """
    eps, b = truth_nuisance
    s_grid = np.asarray(s_grid, dtype=float)
    if not (s_grid.min() <= s_ref <= s_grid.max()):
        raise ValueError("s_ref must lie within the hull of s_grid")
    mu_ref = eps * s_ref + b
    if mu_ref <= 0:
        raise ValueError("reference rate eps * s_ref + b must be positive")
    gen = rng.generator
    ns = gen.poisson(mu_ref, n_samples)
    ys = gen.poisson(t * b, n_samples)
    zs = gen.poisson(u * eps, n_samples)
    counts = np.stack([ns, ys, zs], axis=1)
    limits = _study_limits(method, counts, t, u, (q,), threads)[0]

    estimate = np.empty(s_grid.size)
    std_err = np.empty(s_grid.size)
    ess = np.empty(s_grid.size)
    for i, s in enumerate(s_grid):
        mu_s = eps * s + b
        if mu_s == 0.0:
            w = np.where(ns == 0, math.exp(mu_ref), 0.0)
        else:
            w = np.exp(-(mu_s - mu_ref) + ns * math.log(mu_s / mu_ref))
        wc = w * (limits > s)
        estimate[i] = float(wc.mean())
        std_err[i] = float(wc.std(ddof=1) / math.sqrt(n_samples))
        ess[i] = float(w.sum() ** 2 / (w * w).sum())
    low = ess < 0.05 * n_samples
    if low.any():
        warnings.warn(
            f"importance weights degenerate at {int(low.sum())} grid point(s); "
            f"min effective sample size {ess.min():.1f} of {n_samples}",
            RuntimeWarning,
            stacklevel=2,
        )
    return CoverageReport(
        s_grid=s_grid,
        estimate=estimate,
        std_err=std_err,
        mode="importance",
        n_samples=n_samples,
        ess=ess,
    )


# ---------------------------------------------------------------------------
# credibility


def _posterior_nuisance_draws(ch, cfg: CredibilityConfig, n_samples, rng: RngHandle):
    sh_b, sc_b = cfg.b_shape_scale
    sh_e, sc_e = cfg.e_shape_scale
    gen = rng.generator
    bs = gen.gamma(sh_b + ch.y, sc_b / (1.0 + ch.t * sc_b), n_samples)
    es = gen.gamma(sh_e + ch.z, sc_e / (1.0 + ch.u * sc_e), n_samples)
    return bs, es


def _credibility_curve(n: int, bs, es):
    """R -> posterior P(S <= R) for one shared (b, eps) draw set.

    P(n+1, b) and the denominator do not depend on R, so they are
    computed once here rather than on every evaluation.
    """
    base = sp.gammainc(n + 1.0, bs)
    den = float(np.mean((1.0 - base) / es))
    if not den > 0.0:
        raise NoPosteriorMass("posterior denominator underflowed")

    def curve(limit: float) -> float:
        if math.isinf(limit):
            return 1.0
        num = (sp.gammainc(n + 1.0, bs + es * limit) - base) / es
        return float(np.mean(num) / den)

    return curve


def credibility(
    limit: float,
    ch: ChannelObservation,
    cfg: CredibilityConfig,
    n_samples: int,
    rng: RngHandle,
) -> float:
    """Posterior P(S <= limit | n, y, z) under the reference model.

    Flat prior on s >= 0 and moment-matched gamma priors on (b, eps),
    each updated by its subsidiary count.  Integrating the Poisson
    likelihood over s in closed form leaves a Monte Carlo average over
    the (b, eps) posterior:

        E[(P(n+1, b + eps*R) - P(n+1, b)) / eps]
        -----------------------------------------
        E[(1 - P(n+1, b)) / eps]

    with P the regularized lower incomplete gamma.
    """
    if limit < 0:
        raise ValueError("limit must be >= 0")
    bs, es = _posterior_nuisance_draws(ch, cfg, n_samples, rng)
    return _credibility_curve(ch.n, bs, es)(limit)


def credibility_limit(
    ch: ChannelObservation,
    cfg: CredibilityConfig,
    q: float,
    n_samples: int,
    rng: RngHandle,
    rel_tol: float = 1e-6,
) -> float:
    """Posterior q-quantile of the credibility model (its own exact
    limit method): the R at which :func:`credibility` reaches q, using
    one shared (b, eps) sample so the root finder's target is monotone."""
    if not 0.0 < q < 1.0:
        raise ValueError("quantile must lie strictly inside (0, 1)")
    curve = _credibility_curve(ch.n, *_posterior_nuisance_draws(ch, cfg, n_samples, rng))
    log_target = math.log(1.0 - q)

    def residual(r):
        # curve(R) >= q  <=>  log(1 - q) - log(1 - curve(R)) >= 0
        with np.errstate(divide="ignore"):
            return log_target - np.log(max(1.0 - curve(float(r)), 0.0))

    # n + 1, the posterior mean of eps * s + b under the flat prior, is
    # a plain start on the scale of the limit.
    return float(solve_monotone(residual, ch.n + 1.0, rel_tol, NoPosteriorMass))


# ---------------------------------------------------------------------------
# simulation study


@dataclass
class StudyResult:
    s_grid: np.ndarray
    methods: tuple[str, ...]
    quantiles: tuple[float, ...]
    coverage: dict
    limits: dict

    def summary(self, s_lo: float = 20.0, s_hi: float = 40.0):
        """Rows (method, level, mean, stdev) over the s subrange."""
        sel = (self.s_grid >= s_lo) & (self.s_grid <= s_hi)
        if not sel.any():
            raise ValueError(f"no s-grid point lies in [{s_lo:g}, {s_hi:g}]")
        rows = []
        for m in self.methods:
            for q in self.quantiles:
                c = self.coverage[(m, q)][sel]
                sd = float(c.std(ddof=1)) if c.size > 1 else 0.0
                rows.append((m, q, float(c.mean()), sd))
        return rows


def _preset_limits(presets, distinct, inverse, t, u, quantiles, threads) -> dict:
    """{preset: (limits, failures)} of the study rows ``distinct[inverse]``
    under each Bayes preset, as :func:`_row_limits` gives them for
    ``make_bayes_method(preset)``, solving each distinct posterior once.

    A row and preset give the posterior shapes (n + a_n, y + a_b, z +
    a_e), so B2 at (n, y, z) is B1 at (n + 1, y + 1, z + 1).  The
    (preset, row) pairs, preset-major in ``presets`` order, are deduped
    by their shapes, and each distinct posterior is solved once through
    :func:`_distinct_limits` for its first pair.  A preset's first
    failing row in input order is then that pair itself, since an
    earlier preset sharing its posterior would fail first, so its error
    names the same counts as on the preset's own path.
    """
    if not presets:
        return {}
    priors = tuple(prior_preset(m) for m in presets)
    # Every preset's shapes are integers: int posteriors, one packed key.
    shapes = np.array([(p.a_n, p.a_b, p.a_e) for p in priors], dtype=int)
    posteriors = (distinct + shapes[:, None, :]).reshape(-1, 3)
    unique, pair_of = _distinct_rows(posteriors)
    first = np.full(len(unique), len(posteriors))
    np.minimum.at(first, pair_of, np.arange(len(posteriors)))
    rows = len(distinct)
    pairs = np.column_stack([distinct[first % rows], first // rows])
    method = partial(_posterior_limits_of_pairs, priors=priors)
    limits, messages = _distinct_limits(
        method, pairs, float(t), float(u), quantiles, threads
    )
    return {
        m: _scattered(limits, messages, pair_of[k * rows + inverse])
        for k, m in enumerate(presets)
    }


def simulate_study(
    t: float,
    u: float,
    eps: float,
    b: float,
    s_grid,
    reps: int,
    methods=("ds", "B1", "B2", "upper", "lower"),
    seed: int = DEFAULT_SEED,
    quantiles=(0.90, 0.99),
    grid: GridConfig = GridConfig(),
    threads: int = 1,
) -> StudyResult:
    """Generate ``reps`` datasets at each s, apply every method ("ds" or
    a prior preset name) to the same datasets, and record per-s coverage
    of the resulting limits.

    Coverage uses the strict event s < limit.  Each s value owns an
    independent random stream keyed by its grid index, so results do
    not depend on scheduling or the worker count.  The study's rows are
    deduped once; DS evaluates every distinct (n, y, z) once, and the
    Bayes presets solve every distinct posterior (n + a_n, y + a_b,
    z + a_e) once, shared among the presets (:func:`_preset_limits`):
    at most two worker maps per study.  A failing row raises one
    NumericalError naming the first failing row in input order of the
    first failing method in ``methods`` order.
    """
    if reps < 1:
        raise ValueError("reps must be >= 1")
    s_grid = np.asarray(s_grid, dtype=float)
    methods = tuple(methods)
    quantiles = tuple(float(q) for q in quantiles)
    draws = []
    for idx, s in enumerate(s_grid):
        gen = RngHandle(seed, derive_stream_id("simulate", idx)).generator
        ns = gen.poisson(eps * s + b, reps)
        ys = gen.poisson(t * b, reps)
        zs = gen.poisson(u * eps, reps)
        draws.append(np.stack([ns, ys, zs], axis=1))
    counts = np.concatenate(draws)

    distinct, inverse = _distinct_rows(counts)
    presets = [m for m in methods if m != "ds"]
    results = _preset_limits(presets, distinct, inverse, t, u, quantiles, threads)
    if "ds" in methods:
        ds = _distinct_limits(make_ds_method(grid), distinct, t, u, quantiles, threads)
        results["ds"] = _scattered(*ds, inverse)
    coverage = {}
    limits = {}
    for m in methods:
        lims = _checked(counts, *results[m])
        for qi, q in enumerate(quantiles):
            lim = lims[qi].reshape(s_grid.size, reps)
            limits[(m, q)] = lim
            coverage[(m, q)] = (lim > s_grid[:, None]).mean(axis=1)
    return StudyResult(
        s_grid=s_grid,
        methods=methods,
        quantiles=quantiles,
        coverage=coverage,
        limits=limits,
    )
