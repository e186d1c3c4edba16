"""Conditional CDF machinery for difference-ratios of independent gammas.

Both the per-channel belief-interval CDFs and the Bayesian posterior
CDF reduce to the same object.  For independent A ~ Gamma(kn, wn),
B ~ Gamma(kb, wb), E ~ Gamma(ke, we) (shape-scale; a shape-0 gamma is
the constant 0) define

    survival(x) = P(A > B + x * E),    x >= 0.

The normalized CDF of the ratio (A - B) / E restricted to the
nonnegative half-line is then 1 - survival(x) / den, where den is the
probability of the conditioning event supplied by the caller.

Two interchangeable evaluation routes, cross-checked in the tests:

"series" (exact, integer shapes).  P(A > c) is a Poisson tail for
integer kn, and averaging the tail over the B and E laws yields

    survival(x) = P(NB(kb, pb) + NB(ke, pe(x)) <= kn - 1),
    pb = wb / (wn + wb),    pe(x) = x * we / (wn + x * we),

a finite convolution of negative binomial masses.  Every term is
positive, so no cancellation occurs; cost is O(kn) per point.  The
shapes are shared scalars (channel CDFs, one posterior) or arrays with
one row per point of x (batched posteriors); both run one broadcast
recurrence, in linear space, so one rule marks where its start value
underflows: there "auto" uses quadrature and "series" raises.

"quadrature" (any positive real shapes).  The beta-CDF form

    survival(x) = I_alpha(ke, kn)
        - int_0^alpha I_q(g)(ke + kn, kb) dBeta(g; ke, kn) dg,
    alpha = wn / (wn + x * we),
    q(g)  = wb / (wb + wn * (1 - g / alpha)),

with the inner integral computed by the adaptive Simpson rule after
the substitution g = alpha * v.
"""

from __future__ import annotations

import math
from dataclasses import replace

import numpy as np
from scipy.special import betaincinv

from .specfun import QuadratureConfig, beta_cdf, beta_pdf, integrate

# Above this kn the O(kn) series is slower than quadrature; beyond the
# log-start underflow bound the linear-space recurrences lose the mass
# anyway, so "auto" falls back to quadrature.
_SERIES_MAX_SHAPE = 20_000
_SERIES_LOG_START_MIN = -600.0

# CDF values may stray outside [0, 1] by quadrature noise up to this
# slack and are clamped; larger excursions indicate a numerical failure.
CLAMP_SLACK = 1e-9


class NumericalError(RuntimeError):
    """A numerical result fell outside its mathematically valid range."""


def _validate(kn, wn, kb, wb, ke, we) -> np.ndarray:
    """Check shapes and scales; return the shapes as one (3, ...) array."""
    shapes = np.array([kn, kb, ke], dtype=float)
    if shapes.min() < 0:
        raise ValueError("gamma shapes must be >= 0")
    if min(wn, wb, we) <= 0:
        raise ValueError("gamma scales must be positive")
    return shapes


def _is_integral(shapes: np.ndarray) -> bool:
    return np.abs(shapes - np.rint(shapes)).max() <= 1e-9


def _series_underflows(kb, wn, wb) -> np.ndarray:
    """Per background shape in kb: whether the start value (1 - pb)**kb
    of its block lies below exp(_SERIES_LOG_START_MIN).  When pb rounds
    to 1 the start value is 0 for every kb > 0, which counts as
    underflow."""
    kb, pb = np.asarray(kb, dtype=float), wb / (wn + wb)
    if pb == 1.0:
        return kb > 0
    return kb * math.log1p(-pb) < _SERIES_LOG_START_MIN


def _nb_pmf_block(r, p, count: int) -> np.ndarray:
    """Negative binomial pmf values at 0..count-1, broadcast over r and p.

    The result has shape (count,) + the broadcast shape of r and p.
    r == 0 is the exact point mass at 0, also at p == 1.  Start values
    that underflow are returned as exact zeros, which is the correct
    limit here (the mass below ``count`` is then negligible).  The
    caller silences the warnings of log1p(-1) and 0 * inf.
    """
    start = np.exp(np.where(r == 0, 0.0, r * np.log1p(-p)))
    out = np.empty((count,) + start.shape)
    out[0] = start
    for i in range(1, count):
        out[i] = out[i - 1] * p * ((r + i - 1.0) / i)
    return out


def survival_series(x, kn, wn, kb, wb, ke, we) -> np.ndarray:
    """Exact P(A > B + x*E) for integer shapes: kn, kb, ke are shared
    scalars or 1-d arrays with one entry per point of x."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    shapes = _validate(kn, wn, kb, wb, ke, we)
    if (x < 0).any():
        raise ValueError("x must be >= 0")
    if not _is_integral(shapes):
        raise ValueError("series route requires integer shapes")
    kn, kb, ke = np.rint(shapes)
    count = int(kn.max())
    if count == 0:
        return np.zeros(x.shape)
    if _series_underflows(kb, wn, wb).any():
        raise NumericalError(
            "background block underflows in the series route; "
            "use the quadrature route"
        )
    with np.errstate(divide="ignore", invalid="ignore"):
        pe = np.where(np.isinf(x), 1.0, x * we / (wn + x * we))
        nb_b = _nb_pmf_block(kb, wb / (wn + wb), count)
        cum_e = np.cumsum(_nb_pmf_block(ke, pe, count), axis=0)
    if shapes.ndim == 1:
        return nb_b[::-1] @ cum_e
    # Row i sums nb_b[m, i] * cum_e[kn_i - 1 - m, i] over m < kn_i.
    # (A flat gather is faster here than np.take_along_axis.)
    lag = kn.astype(int) - 1 - np.arange(count)[:, None]
    rows = cum_e.ravel()[np.maximum(lag, 0) * x.size + np.arange(x.size)]
    return np.einsum("mi,mi->i", nb_b, np.where(lag >= 0, rows, 0.0))


_BREAK_LEVELS = np.array(
    [1e-14, 1e-10, 1e-6, 1e-3, 0.05, 0.25, 0.5, 0.75, 0.95, 1 - 1e-3, 1 - 1e-6]
)


def _inner_breakpoints(alpha, kn, wn, kb, wb, ke) -> np.ndarray:
    """Subdivision seeds for the inner integral (in v = gamma/alpha).

    The integrand is a product of two localized features: the
    Beta(ke, kn) density mass (at gamma = alpha * v) and the knee where
    the Beta(ke+kn, kb) CDF of q(v) = wb / (wb + wn (1 - v)) switches
    from 0 to 1.  An adaptive rule started on a single interval can
    step straight over either feature, so both are bracketed here by
    their exact quantiles.
    """
    dens_q = betaincinv(ke, kn, _BREAK_LEVELS) / alpha
    knee_q = betaincinv(ke + kn, kb, _BREAK_LEVELS)
    knee_v = 1.0 - (wb / wn) * (1.0 - knee_q) / knee_q
    pts = np.concatenate([[0.0, 1.0], dens_q, knee_v])
    pts = np.unique(pts[(pts >= 0.0) & (pts <= 1.0)])
    return pts


def survival_quadrature(
    x: float, kn, wn, kb, wb, ke, we, quad: QuadratureConfig | None = None
) -> float:
    """Beta-CDF evaluation of P(A > B + x*E) at a single point."""
    _validate(kn, wn, kb, wb, ke, we)
    if x < 0:
        raise ValueError("x must be >= 0")
    quad = quad or QuadratureConfig()
    if kn == 0 or math.isinf(x):
        return 0.0
    alpha = wn / (wn + x * we)
    head = beta_cdf(alpha, ke, kn)
    if ke == 0:
        # E is the constant 0: survival does not depend on x.
        inner = beta_cdf(wb / (wb + wn), kn, kb)
    elif kb == 0:
        inner = 0.0
    else:

        def integrand(v: float) -> float:
            q = wb / (wb + wn * (1.0 - v))
            return (
                beta_cdf(q, ke + kn, kb) * beta_pdf(alpha * v, ke, kn) * alpha
            )

        pts = _inner_breakpoints(alpha, kn, wn, kb, wb, ke)
        piece_cfg = replace(quad, abs_tol=quad.abs_tol / max(len(pts) - 1, 1))
        inner = sum(
            integrate(integrand, float(a), float(b), piece_cfg)
            for a, b in zip(pts[:-1], pts[1:])
        )
    return min(max(head - inner, 0.0), 1.0)


def survival(
    x,
    kn,
    wn,
    kb,
    wb,
    ke,
    we,
    method: str = "auto",
    quad: QuadratureConfig | None = None,
):
    """P(A > B + x*E); x may be a scalar or an array.

    method "auto" prefers the exact series whenever all shapes are
    integers in range, falling back to quadrature otherwise.
    """
    if method == "auto":
        shapes = np.array([kn, kb, ke], dtype=float)
        series_ok = (
            _is_integral(shapes)
            and shapes.max() <= _SERIES_MAX_SHAPE
            and not _series_underflows(shapes[1], wn, wb)
        )
        method = "series" if series_ok else "quadrature"
    scalar = np.ndim(x) == 0
    if method == "series":
        out = survival_series(x, kn, wn, kb, wb, ke, we)
        return float(out[0]) if scalar else out
    if method == "quadrature":
        xs = np.atleast_1d(np.asarray(x, dtype=float))
        out = np.array(
            [survival_quadrature(float(v), kn, wn, kb, wb, ke, we, quad) for v in xs]
        )
        return float(out[0]) if scalar else out
    raise ValueError(f"unknown method {method!r}")


def conditioning_probability(kn, wn, kb, wb) -> float:
    """P(A >= B) for A ~ Gamma(kn, wn), B ~ Gamma(kb, wb), kn >= 1."""
    _validate(kn, wn, kb, wb, 1.0, 1.0)
    if kn == 0:
        raise ValueError("conditioning requires a nondegenerate numerator")
    return beta_cdf(wn / (wn + wb), kb, kn)


def clamp_unit(values, where: str = "cdf"):
    """Clip CDF values to [0, 1], rejecting excursions beyond CLAMP_SLACK."""
    arr = np.asarray(values, dtype=float)
    if np.any(np.isnan(arr)):
        raise NumericalError(f"{where} evaluation produced NaN")
    low, high = arr.min(initial=0.0), arr.max(initial=1.0)
    if low < -CLAMP_SLACK or high > 1.0 + CLAMP_SLACK:
        raise NumericalError(
            f"{where} value escaped [0, 1] by more than {CLAMP_SLACK}: "
            f"range [{low}, {high}]"
        )
    out = np.clip(arr, 0.0, 1.0)
    return float(out) if np.ndim(values) == 0 else out
