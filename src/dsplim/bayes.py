"""Conjugate-gamma Bayesian comparison method.

Puts independent gamma priors on the three channel rates eps*s + b,
t*b, and u*eps, so each count update is conjugate: the posterior
shapes are count + prior shape and the scales are (1, 1/t, 1/u).
The signal posterior is the law of (L_n - B) / E restricted to the
nonnegative half-line, with L_n, B, E the three posterior gammas, and
its CDF 1 - survival(x) / den, with den the posterior mass on s >= 0,
shares the evaluation engine of the belief-interval channel CDFs: the
series state where all three shapes are integers up to the series
bound, the quadrature state elsewhere, each with den beside the
survival.  Every quantile, of one posterior or of a batch, is a root of
the log-tail residual log((1 - q) * den) - log(survival(x)) on one path
(:func:`_posterior_limits`), so a dataset's limit has the same bits
alone, in any batch and from :func:`bayes_upper_limit`.

Note on the scale convention: a proper unit-scale gamma prior combined
with the Poisson likelihood would put scale 1/2 (and 1/(2t), 1/(2u))
on the posteriors.  The signal is a ratio of the three rates, so a
common scale cancels from its CDF; the shape-only update with scales
(1, 1/t, 1/u) is the convention reproduced here.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from ._gamma_ratio import (
    NumericalError,
    _prepared_series,
    _quadrature_state,
    _series_carries,
    clamp_unit,
    quantile_start,
    series_roots,
)
from .ds_limits import ChannelObservation, _batch_counts

__all__ = [
    "PriorConfig",
    "PRIOR_PRESETS",
    "prior_preset",
    "GammaPosteriors",
    "conjugate_posteriors",
    "bayes_posterior_cdf",
    "posterior_quantile",
    "bayes_upper_limit",
    "bayes_upper_limits_batch",
]


@dataclass(frozen=True)
class PriorConfig:
    """Gamma prior shapes on (eps*s + b), t*b, and u*eps."""

    a_n: float
    a_b: float
    a_e: float
    name: str = ""

    def __post_init__(self) -> None:
        if min(self.a_n, self.a_b, self.a_e) <= 0:
            raise ValueError("prior shapes must be positive")


PRIOR_PRESETS = {
    "B1": PriorConfig(1.0, 1.0, 1.0, "B1"),
    "B2": PriorConfig(2.0, 2.0, 2.0, "B2"),
    "upper": PriorConfig(2.0, 1.0, 1.0, "upper"),
    "lower": PriorConfig(1.0, 2.0, 2.0, "lower"),
}


def prior_preset(name: str) -> PriorConfig:
    try:
        return PRIOR_PRESETS[name]
    except KeyError:
        raise ValueError(
            f"unknown prior preset {name!r}; choose from {sorted(PRIOR_PRESETS)}"
        ) from None


@dataclass(frozen=True)
class GammaPosteriors:
    """Posterior (shape, scale) pairs for the three rates."""

    ln: tuple[float, float]
    lb: tuple[float, float]
    le: tuple[float, float]

    def __post_init__(self) -> None:
        for shape, scale in (self.ln, self.lb, self.le):
            if shape <= 0 or scale <= 0:
                raise ValueError("posterior shapes and scales must be positive")


def conjugate_posteriors(ch: ChannelObservation, prior: PriorConfig) -> GammaPosteriors:
    """Update the three gamma priors with one channel's counts."""
    return GammaPosteriors(
        ln=(ch.n + prior.a_n, 1.0),
        lb=(ch.y + prior.a_b, 1.0 / ch.t),
        le=(ch.z + prior.a_e, 1.0 / ch.u),
    )


def bayes_posterior_cdf(post: GammaPosteriors, x, method: str = "auto"):
    """Posterior CDF of the signal at x >= 0 (scalar or array), on the
    route ``survival(method)`` takes."""
    (kn, wn), (kb, wb), (ke, we) = post.ln, post.lb, post.le
    if method == "auto":
        method = "series" if _series_carries(kn, kb, ke) else "quadrature"
    states = {"series": _prepared_series, "quadrature": _quadrature_state}
    if method not in states:
        raise ValueError(f"unknown method {method!r}")
    with np.errstate(all="ignore"):
        den, surv = states[method](kn, wn, kb, wb, ke, we)
        if not den > 0:
            raise NumericalError("posterior mass on s >= 0 underflows")
        f = clamp_unit(1.0 - surv(np.atleast_1d(np.asarray(x, dtype=float))) / den)
    return f[0] if np.ndim(x) == 0 else f


def _posterior_limits(kn, kb, ke, t, u, quantiles, rel_tol, name_row) -> np.ndarray:
    """Quantiles of the signal posteriors with shapes (kn, kb, ke) per row
    on the scales (1, 1/t, 1/u), as an array of shape (len(quantiles),
    rows).  As F(x) >= q  <=>  survival(x) <= (1 - q) * den, they are the
    roots of log((1 - q) * den) - log(survival(x)), from the
    :func:`dsplim._gamma_ratio.quantile_start` guess, by one
    :func:`dsplim._gamma_ratio.series_roots` call per route of
    ``survival(method="auto")``.  Raises NumericalError when a limit
    exceeds the bracket cap, or naming ``name_row(j)`` for the first row
    j whose posterior mass on s >= 0 underflows.
    """
    limits = np.empty((np.size(quantiles), kn.size))
    carried = _series_carries(kn, kb, ke)
    for route, state in (carried, _prepared_series), (~carried, _quadrature_state):
        rows = np.flatnonzero(route)

        def residual(surv, den, pairs, qs, rows=rows):
            j = rows[pairs]
            if not np.all(den > 0):
                name = name_row(j[np.argmin(den > 0)])
                raise NumericalError(f"posterior mass on s >= 0 underflows for {name}")
            log_target = np.log((1.0 - qs) * den)
            start = quantile_start(kn[j], kb[j], ke[j], t, u, qs)
            return start, lambda x: log_target - np.log(surv(x))

        shapes = (kn[rows], kb[rows], ke[rows])
        limits[:, rows] = series_roots(shapes, t, u, quantiles, rel_tol, residual, state)
    return limits


def posterior_quantile(post: GammaPosteriors, q: float, rel_tol: float = 1e-8) -> float:
    """Root of CDF(x) = q, solved to relative width rel_tol: one row of
    :func:`_posterior_limits` at t = wn / wb and u = wn / we."""
    (kn, wn), (kb, wb), (ke, we) = post.ln, post.lb, post.le
    shapes = np.array([[kn], [kb], [ke]], dtype=float)
    name = f"posterior shapes ({kn:g}, {kb:g}, {ke:g})"
    limits = _posterior_limits(*shapes, wn / wb, wn / we, (q,), rel_tol, lambda j: name)
    return float(limits[0, 0])


def bayes_upper_limit(
    ch: ChannelObservation, prior: PriorConfig, q: float, rel_tol: float = 1e-8
) -> float:
    """One-sided upper limit: the q-quantile of the signal posterior, as
    the one-row :func:`bayes_upper_limits_batch` gives it."""
    limits = bayes_upper_limits_batch(
        [ch.n], [ch.y], [ch.z], ch.t, ch.u, prior, (q,), rel_tol
    )
    return float(limits[0, 0])


def bayes_upper_limits_batch(
    ns,
    ys,
    zs,
    t: float,
    u: float,
    prior: PriorConfig | Sequence[PriorConfig],
    quantiles,
    rel_tol: float = 1e-8,
) -> np.ndarray:
    """Upper limits for many single-channel datasets at once.

    ``prior`` is one PriorConfig for every row or a sequence of one per
    row.  Returns an array of shape (len(quantiles), len(ns)), solved
    per (dataset, quantile) pair by :func:`_posterior_limits` on the
    posterior shapes (n + a_n, y + a_b, z + a_e) of the row's prior.
    Each pair's trajectory depends on that pair alone, so results are
    identical under any re-batching and equal :func:`bayes_upper_limit`.
    No quantiles give a (0, rows) array.  Raises NumericalError naming the
    first row whose posterior mass on s >= 0 underflows, or when a limit
    exceeds the bracket cap; ValueError on a count that is not a
    nonnegative integer (:func:`dsplim.ds_limits._batch_counts`) or a prior
    sequence whose length is not the number of rows.
    """
    ns, ys, zs = _batch_counts(ns, ys, zs)

    def name_row(j):
        return f"row (n, y, z) = ({ns[j]}, {ys[j]}, {zs[j]})"

    priors = [prior] if isinstance(prior, PriorConfig) else list(prior)
    if not isinstance(prior, PriorConfig) and len(priors) != ns.size:
        raise ValueError(
            f"a prior sequence needs one prior per row: {len(priors)} priors "
            f"for {ns.size} rows"
        )
    a_n, a_b, a_e = np.array([(p.a_n, p.a_b, p.a_e) for p in priors]).reshape(-1, 3).T
    shapes = (ns + a_n, ys + a_b, zs + a_e)
    return _posterior_limits(*shapes, t, u, quantiles, rel_tol, name_row)
