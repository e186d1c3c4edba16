"""Conjugate-gamma Bayesian comparison method.

Puts independent gamma priors on the three channel rates eps*s + b,
t*b, and u*eps, so each count update is conjugate: the posterior
shapes are count + prior shape and the scales are (1, 1/t, 1/u).
The signal posterior is the law of (L_n - B) / E restricted to the
nonnegative half-line, with L_n, B, E the three posterior gammas, and
its CDF 1 - survival(x) / den, with den the posterior mass on s >= 0,
shares the evaluation engine of the belief-interval channel CDFs.  A
posterior builds one state (:func:`_posterior_state`), on the series
route the single-end state whose den comes beside the survival.  A
batch is solved by :func:`dsplim._gamma_ratio.series_roots` on one
single-end state per row (the grid-free DS limits take the interval
state there), and sends the datasets with a shape above the series
bound to the scalar route, which takes quadrature there.  Every
quantile, scalar or batched, is one call of
:func:`dsplim.specfun.solve_monotone` on the log-tail residual
log((1 - q) * den) - log(survival(x)).  It starts at
:func:`dsplim._gamma_ratio.quantile_start` of the posterior shapes, a
log-normal guess of the quantile, and widens its bracket outward from
there.

Note on the scale convention: a proper unit-scale gamma prior combined
with the Poisson likelihood would put scale 1/2 (and 1/(2t), 1/(2u))
on the posteriors.  The signal is a ratio of the three rates, so a
common scale cancels from its CDF; the shape-only update with scales
(1, 1/t, 1/u) is the convention reproduced here.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._gamma_ratio import (
    NumericalError,
    _prepared_series,
    _series_carries,
    clamp_unit,
    conditioning_probability,
    quantile_start,
    series_roots,
    survival,
)
from .ds_limits import ChannelObservation
from .specfun import QuadratureConfig, solve_monotone

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


def _posterior_state(post: GammaPosteriors, method="auto", quad=None):
    """(den, x -> survival(x) at 1-d x) of one posterior, den its mass on
    s >= 0, on the route ``survival(method)`` takes.  The series state
    gives both, its x-free arrays built once, and is called under
    ``np.errstate(all="ignore")``; quadrature takes den from a beta CDF."""
    (kn, wn), (kb, wb), (ke, we) = post.ln, post.lb, post.le
    if method == "auto":
        method = "series" if _series_carries(kn, kb, ke).all() else "quadrature"
    if method == "series":
        with np.errstate(all="ignore"):
            den, surv = _prepared_series(kn, wn, kb, wb, ke, we)
    else:
        den = conditioning_probability(kn, wn, kb, wb)

        def surv(x):
            return survival(x, kn, wn, kb, wb, ke, we, method, quad)

    if not den > 0:
        raise NumericalError("posterior mass on s >= 0 underflows")
    return den, surv


def bayes_posterior_cdf(
    post: GammaPosteriors,
    x,
    method: str = "auto",
    quad: QuadratureConfig | None = None,
):
    """Posterior CDF of the signal at x >= 0 (scalar or array)."""
    den, surv = _posterior_state(post, method, quad)
    with np.errstate(all="ignore"):
        f = clamp_unit(1.0 - surv(np.atleast_1d(np.asarray(x, dtype=float))) / den)
    return f[0] if np.ndim(x) == 0 else f


def posterior_quantile(post: GammaPosteriors, q: float, rel_tol: float = 1e-8) -> float:
    """Root of CDF(x) = q, bracketed from the quantile_start guess and
    solved to relative width rel_tol."""
    if not 0.0 < q < 1.0:
        raise ValueError("quantile must lie strictly inside (0, 1)")
    (kn, wn), (kb, wb), (ke, we) = post.ln, post.lb, post.le
    den, surv = _posterior_state(post)
    # F(x) >= q  <=>  survival(x) <= (1 - q) * den
    log_target = np.log((1.0 - q) * den)

    def residual(x):
        with np.errstate(all="ignore"):
            return log_target - np.log(surv(x))

    start = np.reshape(quantile_start(kn, kb, ke, wn / wb, wn / we, q), 1)
    return float(solve_monotone(residual, start, rel_tol, NumericalError)[0])


def bayes_upper_limit(
    ch: ChannelObservation, prior: PriorConfig, q: float, rel_tol: float = 1e-8
) -> float:
    """One-sided upper limit: the q-quantile of the signal posterior."""
    return posterior_quantile(conjugate_posteriors(ch, prior), q, rel_tol)


def bayes_upper_limits_batch(
    ns,
    ys,
    zs,
    t: float,
    u: float,
    prior: PriorConfig,
    quantiles,
    rel_tol: float = 1e-8,
) -> np.ndarray:
    """Upper limits for many single-channel datasets at once.

    Returns an array of shape (len(quantiles), len(ns)).  Requires the
    integer-shape prior presets.  Datasets with a shape above the series
    bound (the rule of ``survival(method="auto")``) take the scalar
    route, which takes quadrature there.  The others are solved per
    (dataset, quantile) pair by :func:`dsplim._gamma_ratio.series_roots`
    with the rule of :func:`posterior_quantile`.  Each row's trajectory
    is independent of the batch composition, so results are identical
    under any re-batching; they agree with the scalar routine within
    rel_tol, as the per-row sum runs in another order and the root
    finder's steps follow its residuals.  Raises
    NumericalError naming the first row whose posterior mass on s >= 0
    underflows, or when a limit exceeds the bracket cap.
    """
    ns, ys, zs = (np.asarray(a, dtype=int) for a in (ns, ys, zs))
    for a in (prior.a_n, prior.a_b, prior.a_e):
        if abs(a - round(a)) > 1e-9:
            raise ValueError("batched limits require integer prior shapes")
    kn = (ns + int(round(prior.a_n))).astype(float)
    kb = (ys + int(round(prior.a_b))).astype(float)
    ke = (zs + int(round(prior.a_e))).astype(float)
    carried = _series_carries(kn, kb, ke)
    series = np.flatnonzero(carried)

    def residual(surv, den, rows, qs):
        j = series[rows]
        if not np.all(den > 0):
            j = j[np.argmin(den > 0)]
            raise NumericalError(
                "posterior mass on s >= 0 underflows for row "
                f"(n, y, z) = ({ns[j]}, {ys[j]}, {zs[j]})"
            )
        # F(x) >= q  <=>  survival(x) <= (1 - q) * den
        log_target = np.log((1.0 - qs) * den)
        start = quantile_start(kn[j], kb[j], ke[j], t, u, qs)
        return start, lambda x: log_target - np.log(surv(x))

    shapes = (kn[series], kb[series], ke[series])
    limits = np.empty((np.size(quantiles), ns.size))
    limits[:, series] = series_roots(shapes, t, u, quantiles, rel_tol, residual)
    for j in np.flatnonzero(~carried):
        ch = ChannelObservation(int(ns[j]), int(ys[j]), int(zs[j]), t, u)
        limits[:, j] = [bayes_upper_limit(ch, prior, q, rel_tol) for q in quantiles]
    return limits
