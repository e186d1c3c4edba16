"""Conjugate-gamma Bayesian comparison method.

Puts independent gamma priors on the three channel rates eps*s + b,
t*b, and u*eps, so each count update is conjugate: the posterior
shapes are count + prior shape and the scales are (1, 1/t, 1/u).
The signal posterior is the law of (L_n - B) / E restricted to the
nonnegative half-line, with L_n, B, E the three posterior gammas, and
its CDF shares the evaluation engine used by the belief-interval
channel CDFs: :func:`dsplim._gamma_ratio.survival_series`, with shared
shapes for one posterior and per-row shapes for a batch.  A batch
sends the datasets the series cannot carry to the scalar route, which
falls back to quadrature.  Every quantile, scalar or batched, is one
call of :func:`dsplim.specfun.bisect_monotone`.

Note on the scale convention: a proper unit-scale gamma prior combined
with the Poisson likelihood would put scale 1/2 (and 1/(2t), 1/(2u))
on the posteriors.  The shape-only update with scales (1, 1/t, 1/u)
is the convention reproduced here as the comparison target; pass
``textbook=True`` to :func:`conjugate_posteriors` for the sensitivity
variant.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import special as sp

from ._gamma_ratio import (
    _SERIES_MAX_SHAPE,
    NumericalError,
    _series_underflows,
    clamp_unit,
    conditioning_probability,
    survival,
    survival_series,
)
from .ds_limits import ChannelObservation
from .specfun import QuadratureConfig, bisect_monotone

# Most series terms (rows x series length) one batched survival_series
# call builds: 2**22 terms keep each of its arrays near 32 MB.
_SERIES_TERMS = 1 << 22

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


def _posterior_cdf(post: GammaPosteriors, x, den, method="auto", quad=None):
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


def posterior_quantile(post: GammaPosteriors, q: float, rel_tol: float = 1e-8) -> float:
    """Root of CDF(x) = q by bracketing plus bisection."""
    if not 0.0 < q < 1.0:
        raise ValueError("quantile must lie strictly inside (0, 1)")
    den = _posterior_conditioning(post)
    return float(
        bisect_monotone(
            lambda x: _posterior_cdf(post, x, den) >= q,
            (),
            rel_tol,
            NumericalError,
        )
    )


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
    integer-shape prior presets.  Datasets the series cannot carry (the
    rule of ``survival(method="auto")``) take the scalar route, which
    falls back to quadrature.  For the others one (dataset, quantile)
    pair is one row of the per-row series engine, at most _SERIES_TERMS
    terms per call, bisected by the rule of :func:`posterior_quantile`.
    Each row's trajectory is independent of the batch composition, so
    results are identical under any re-batching; they agree with the
    scalar routine to rounding, as the per-row sum runs in another
    order.  Raises NumericalError when a row's posterior mass on s >= 0
    underflows or a limit exceeds the bracket cap.
    """
    ns = np.asarray(ns, dtype=int)
    ys = np.asarray(ys, dtype=int)
    zs = np.asarray(zs, dtype=int)
    quantiles = np.asarray(quantiles, dtype=float)
    for a in (prior.a_n, prior.a_b, prior.a_e):
        if abs(a - round(a)) > 1e-9:
            raise ValueError("batched limits require integer prior shapes")
    wn, wb, we = 1.0, 1.0 / t, 1.0 / u
    nq = quantiles.size
    kn = ns + int(round(prior.a_n))
    kb = (ys + int(round(prior.a_b))).astype(float)
    ke = (zs + int(round(prior.a_e))).astype(float)
    scalar = (np.maximum(np.maximum(kn, kb), ke) > _SERIES_MAX_SHAPE) | (
        _series_underflows(kb, wn, wb)
    )
    limits = np.empty((nq, ns.size))
    for j in np.flatnonzero(scalar):
        ch = ChannelObservation(int(ns[j]), int(ys[j]), int(zs[j]), t, u)
        limits[:, j] = [bayes_upper_limit(ch, prior, q, rel_tol) for q in quantiles]
    rows = np.flatnonzero(~scalar)
    step = max(1, _SERIES_TERMS // (nq * kn[rows].max(initial=0) + 1))
    for start in range(0, rows.size, step):
        part = rows[start : start + step]
        r = np.repeat(part, nq)
        kn_r, kb_r, ke_r = kn[r], kb[r], ke[r]
        den = sp.betainc(kb_r, kn_r.astype(float), wn / (wn + wb))
        if not np.all(den > 0):
            raise NumericalError("posterior mass on s >= 0 underflows")
        # F(x) >= q  <=>  survival(x) <= (1 - q) * den
        thresh = (1.0 - np.tile(quantiles, part.size)) * den
        lims = bisect_monotone(
            lambda x: survival_series(x, kn_r, wn, kb_r, wb, ke_r, we) <= thresh,
            r.shape,
            rel_tol,
            NumericalError,
        )
        limits[:, part] = lims.reshape(part.size, nq).T
    return limits
