"""Conjugate-gamma Bayesian comparison method.

Puts independent gamma priors on the three channel rates eps*s + b,
t*b, and u*eps, so each count update is conjugate: the posterior
shapes are count + prior shape and the scales are (1, 1/t, 1/u).
The signal posterior is the law of (L_n - B) / E restricted to the
nonnegative half-line, with L_n, B, E the three posterior gammas, and
its CDF shares the evaluation engine used by the belief-interval
channel CDFs.

Note on the scale convention: a proper unit-scale gamma prior combined
with the Poisson likelihood would put scale 1/2 (and 1/(2t), 1/(2u))
on the posteriors.  The shape-only update with scales (1, 1/t, 1/u)
is the convention reproduced here as the comparison target; pass
``textbook=True`` to :func:`conjugate_posteriors` for the sensitivity
variant.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import special as sp

from ._gamma_ratio import (
    NumericalError,
    clamp_unit,
    conditioning_probability,
    survival,
)
from .ds_limits import ChannelObservation
from .specfun import QuadratureConfig

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


def conjugate_posteriors(
    ch: ChannelObservation, prior: PriorConfig, textbook: bool = False
) -> GammaPosteriors:
    """Update the three gamma priors with one channel's counts."""
    half = 0.5 if textbook else 1.0
    return GammaPosteriors(
        ln=(ch.n + prior.a_n, half),
        lb=(ch.y + prior.a_b, half / ch.t),
        le=(ch.z + prior.a_e, half / ch.u),
    )


def _posterior_conditioning(post: GammaPosteriors) -> float:
    """Posterior probability of s >= 0, the CDF's normalizer."""
    (kn, wn), (kb, wb) = post.ln, post.lb
    den = conditioning_probability(kn, wn, kb, wb)
    if den <= 0:
        raise NumericalError("posterior mass on s >= 0 underflows")
    return den


def _posterior_cdf(post: GammaPosteriors, x, den, method, quad):
    (kn, wn), (kb, wb), (ke, we) = post.ln, post.lb, post.le
    s = survival(x, kn, wn, kb, wb, ke, we, method, quad)
    return clamp_unit(1.0 - s / den)


def bayes_posterior_cdf(
    post: GammaPosteriors,
    x,
    method: str = "auto",
    quad: QuadratureConfig | None = None,
):
    """Posterior CDF of the signal at x >= 0 (scalar or array)."""
    if np.any(np.asarray(x) < 0):
        raise ValueError("x must be >= 0")
    return _posterior_cdf(post, x, _posterior_conditioning(post), method, quad)


def posterior_quantile(
    post: GammaPosteriors,
    q: float,
    method: str = "auto",
    quad: QuadratureConfig | None = None,
    rel_tol: float = 1e-8,
) -> float:
    """Root of CDF(x) = q by bracketing plus bisection."""
    if not 0.0 < q < 1.0:
        raise ValueError("quantile must lie strictly inside (0, 1)")
    den = _posterior_conditioning(post)
    lo, hi = 0.0, 1.0
    while _posterior_cdf(post, hi, den, method, quad) < q:
        lo = hi
        hi *= 2.0
        if hi > 1e15:
            raise NumericalError("posterior quantile bracket exceeded 1e15")
    while hi - lo > rel_tol * max(hi, 1e-300):
        mid = 0.5 * (lo + hi)
        if _posterior_cdf(post, mid, den, method, quad) >= q:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


def bayes_upper_limit(
    ch: ChannelObservation,
    prior: PriorConfig,
    q: float,
    method: str = "auto",
    quad: QuadratureConfig | None = None,
    rel_tol: float = 1e-8,
) -> float:
    """One-sided upper limit: the q-quantile of the signal posterior."""
    post = conjugate_posteriors(ch, prior)
    return posterior_quantile(post, q, method, quad, rel_tol)


def _survival_series_rows(x, kn, kb, ke, wn, wb, we):
    """Series survival evaluated row-wise: one x per (kn, kb, ke) row.

    Shapes vary per row but the scales are shared scalars.  Used by
    the batched quantile search; all-positive recurrences as in the
    scalar series route.
    """
    rows = x.size
    kmax = int(kn.max())
    m = np.arange(kmax, dtype=float)
    pb = wb / (wn + wb)
    if np.any(kb * math.log1p(-pb) < -600.0):
        raise NumericalError("background block underflows in batched series")
    nb_b = np.empty((rows, kmax))
    nb_b[:, 0] = np.exp(kb * math.log1p(-pb))
    for j in range(1, kmax):
        nb_b[:, j] = nb_b[:, j - 1] * (pb * (kb + j - 1.0) / j)
    pe = x * we / (wn + x * we)
    nb_e = np.empty((rows, kmax))
    with np.errstate(divide="ignore"):
        nb_e[:, 0] = np.exp(ke * np.log1p(-pe))
    for j in range(1, kmax):
        nb_e[:, j] = nb_e[:, j - 1] * (pe * (ke + j - 1.0) / j)
    cum_e = np.cumsum(nb_e, axis=1)
    mask = m[None, :] < kn[:, None]
    take = np.clip(kn[:, None] - 1 - m[None, :].astype(int), 0, kmax - 1)
    rev = np.take_along_axis(cum_e, take.astype(int), axis=1)
    return np.sum(nb_b * rev * mask, axis=1)


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
    integer-shape prior presets; each dataset's bisection trajectory is
    independent of the batch composition, so results are identical to
    the scalar routine and to any re-batching.
    """
    ns = np.asarray(ns, dtype=int)
    ys = np.asarray(ys, dtype=int)
    zs = np.asarray(zs, dtype=int)
    quantiles = np.asarray(quantiles, dtype=float)
    for a in (prior.a_n, prior.a_b, prior.a_e):
        if abs(a - round(a)) > 1e-9:
            raise ValueError("batched limits require integer prior shapes")
    wn, wb, we = 1.0, 1.0 / t, 1.0 / u
    nd = ns.size
    kn = np.repeat(ns + int(round(prior.a_n)), quantiles.size)
    kb = np.repeat(ys + int(round(prior.a_b)), quantiles.size).astype(float)
    ke = np.repeat(zs + int(round(prior.a_e)), quantiles.size).astype(float)
    q_rows = np.tile(quantiles, nd)
    den = sp.betainc(kb, kn.astype(float), wn / (wn + wb))
    # F(x) >= q  <=>  survival(x) <= (1 - q) * den
    thresh = (1.0 - q_rows) * den

    lo = np.zeros(kn.size)
    hi = np.ones(kn.size)
    for _ in range(64):
        s_hi = _survival_series_rows(hi, kn, kb, ke, wn, wb, we)
        need = s_hi > thresh
        if not need.any():
            break
        lo = np.where(need, hi, lo)
        hi = np.where(need, hi * 2.0, hi)
    else:
        raise NumericalError("batched quantile bracket did not close")

    active = np.ones(kn.size, dtype=bool)
    while active.any():
        mid = 0.5 * (lo + hi)
        s_mid = _survival_series_rows(mid, kn, kb, ke, wn, wb, we)
        ok = s_mid <= thresh
        hi = np.where(active & ok, mid, hi)
        lo = np.where(active & ~ok, mid, lo)
        active = (hi - lo) > rel_tol * np.maximum(hi, 1e-300)
    limits = 0.5 * (lo + hi)
    return limits.reshape(nd, quantiles.size).T
