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
convolution is summed over the masses of NB(ke, pe(x)), each weighted
by the background CDF P(NB(kb, pb) <= kn - 1 - j), which does not
depend on x and is built once; a point of x then costs one block of
masses and one contraction.  The shapes are shared scalars (channel
CDFs, one posterior) or arrays with one row per point of x (batched
posteriors).  Each block of masses is exponentiated from its
logarithm, with log p and log(1 - p) taken from the scales, so a start
value (1 - p)**r far below the double range loses no mass.  The same
form gives the integral of the survival over [0, x] for ke >= 2
(:func:`integrated_survival_series`), on which the grid-free
single-channel DS limits rest, with running sums of the background
CDF as weights; its total at x = inf is the last of those sums.  Every
series state returns its own conditioning probability den = P(A >= B)
= P(NB(kb, pb) <= kn - 1), the last entry of its background CDF, so a
CDF 1 - survival(x) / den takes both from one computation; quadrature
takes den from :func:`conditioning_probability`.  The two ends of a
belief interval, (kn, kb, ke) and (kn - 1, kb + 1, ke + 1), share one
block: P(NB(ke + 1, p) = j) = P(NB(ke, p) = j) (ke + j) / ke (1 - p)
(:func:`_interval_series`).  :func:`series_roots` inverts per-row
series CDFs for many rows at once, by superlinear bracketed steps on
log-tail residuals from a start that :func:`quantile_start` estimates
per row; the batched DS and Bayes limits are its two callers.

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
from scipy.special import betaincinv, digamma, ndtri

from .specfun import QuadratureConfig, beta_cdf, beta_pdf, integrate, solve_monotone

# Above this shape the O(kn) series is slower than quadrature, so "auto"
# falls back to quadrature.
_SERIES_MAX_SHAPE = 20_000

# Most series terms (rows x series length) one batched call builds:
# 2**22 terms keep each of its arrays near 32 MB.
_SERIES_TERMS = 1 << 22

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


def _is_integral(shapes: np.ndarray) -> np.ndarray:
    return np.abs(shapes - np.rint(shapes)) <= 1e-9


def _series_carries(kn, kb, ke) -> np.ndarray:
    """Per shape triple: whether survival(method="auto") takes the series
    route, i.e. all three shapes are integers up to _SERIES_MAX_SHAPE."""
    shapes = np.array([kn, kb, ke], dtype=float)
    return (_is_integral(shapes) & (shapes <= _SERIES_MAX_SHAPE)).all(axis=0)


def _log_binomials(r, count: int) -> np.ndarray:
    """log C(r + i - 1, i) at i = 0..count-1, broadcast over r, as a
    cumulative sum of log((r + i - 1) / i).  At r == 0 the values after
    the first are -inf."""
    i = np.arange(1.0, count).reshape((-1,) + (1,) * np.ndim(r))
    steps = np.log((r + i - 1.0) / i)
    return np.concatenate([np.zeros((1,) + np.shape(r)), np.cumsum(steps, axis=0)])


def _nb_pmf_block(log_binom, r, log_p, log_q) -> np.ndarray:
    """Negative binomial pmf values at 0..count-1 with log_binom from
    :func:`_log_binomials` (r, count), log_p = log p and log_q = log(1 - p).

    The result has shape (count,) + the broadcast shape of r and the
    logs.  Each value is exponentiated once from its log-pmf
    i * log_p + log_binom + r * log_q, so no mass below count is lost to
    an underflowing start value (1 - p)**r.  r == 0 is the exact point
    mass at 0, also at p == 1.  The log-pmf is summed in place in the
    one array it returns: a second temporary of the block's size costs
    as much as the exp.
    """
    count = len(log_binom)
    r_log_q = np.where(r == 0, 0.0, r * log_q)
    lead = (count,) + (1,) * (r_log_q.ndim - np.ndim(r))
    log_pmf = np.empty((count,) + r_log_q.shape)
    log_pmf[0] = 0.0
    i = np.arange(1.0, count).reshape((-1,) + (1,) * r_log_q.ndim)
    np.multiply(i, log_p, out=log_pmf[1:])
    log_pmf += log_binom.reshape(lead + np.shape(r))
    log_pmf += r_log_q
    return np.exp(log_pmf, out=log_pmf)


def _row_sums(a, b) -> np.ndarray:
    """sum over m of a[m, i] * b[m, i] for (count, rows) arrays, added in
    the order of m for every row i, so a row's sum does not depend on the
    rows beside it.  einsum adds in that order for two rows or more but
    not for a single one."""
    if a.shape[1] == 1:
        return np.cumsum(a[:, 0] * b[:, 0])[-1:]
    return np.einsum("mi,mi->i", a, b)


def _nonnegative(x) -> np.ndarray:
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if (x < 0).any():
        raise ValueError("x must be >= 0")
    return x


def _background_block(kb, wn, wb, count: int) -> np.ndarray:
    """NB(kb, pb) masses at 0..count-1, pb = wb / (wn + wb), with log pb
    and log(1 - pb) taken from the scales."""
    return _nb_pmf_block(
        _log_binomials(kb, count), kb, -math.log1p(wn / wb), -math.log1p(wb / wn)
    )


def _prepared_series(kn, wn, kb, wb, ke, we, integrated=False, repeats=1):
    """The series route with everything that does not depend on x built
    once: returns den = P(A >= B) = P(B' <= kn - 1), per row for per-row
    shapes, and x -> survival at x, or its integral over [0, x] when
    ``integrated``.  Shapes as for :func:`survival_series`; with per-row
    shapes, x must have ``repeats`` consecutive entries per row, which
    share the row's x-free arrays and den.  The caller runs both this and
    the returned function under ``np.errstate(all="ignore")``, once for
    all: log(0), 0 * inf and 1 / x at x = 0 or subnormal x warn.

    The sums run over the masses of E' ~ NB(ke, pe(x)), each weighted by
    the background CDF of B' ~ NB(kb, pb), which does not depend on x:

        survival(x) = sum_{j < kn} P(E' = j) * P(B' <= kn - 1 - j).

    With K ~ NB(ke - 1, pe(x)) and h(k) = sum_{j < k} P(B' <= kn - 1 - j),
    which is E[min(k, (kn - B')^+)], so that h(kn) = E[(kn - B')^+],

        J(x) = c / (ke - 1) * [sum_{k < kn} P(K = k) * h(k)
                               + (1 - sum_{k < kn} P(K = k)) * h(kn)].

    A pass is then one block of masses and one contraction with the
    weights (two for J).  Per-row weights are exact zeros from the row's
    kn on, so the terms a longer row pads a batch with add +0.0 and a
    row's values do not depend on the rows beside it.  den is the first
    weight, P(B' <= kn - 1), which the survival at x = 0 equals exactly.
    """
    shapes = _validate(kn, wn, kb, wb, ke, we)
    if not _is_integral(shapes).all():
        raise ValueError("series route requires integer shapes")
    kn, kb, ke = np.rint(shapes)
    if integrated and np.min(ke) < 2:
        raise ValueError("integrated survival requires ke >= 2")
    count = int(kn.max())
    if count == 0:
        # A is the constant 0: P(A >= B), the survival and its integral vanish.
        den = np.zeros(kn.size * repeats if kn.ndim else ())
        return den, lambda x: np.zeros(_nonnegative(x).shape)
    cdf_b = np.cumsum(_background_block(kb, wn, wb, count), axis=0)
    if shapes.ndim == 1:
        # A contiguous copy: matmul takes BLAS only for unit strides.
        weight, below, contract = cdf_b[::-1].copy(), np.ones(count), np.matmul
    else:
        # Row i weighs its E' mass j by cdf_b[kn_i - 1 - j, i] for j < kn_i.
        lag = kn.astype(int) - 1 - np.arange(count)[:, None]
        below = (lag >= 0).astype(float)
        weight = np.take_along_axis(cdf_b, np.maximum(lag, 0), axis=0) * below
        contract = _row_sums
    e_shape = ke - 1.0 if integrated else ke
    if integrated:
        run = np.cumsum(weight, axis=0)  # run[k] = h(k + 1) up to the row's kn
        h = np.concatenate([np.zeros_like(run[:1]), run[:-1]]) * below
        weights = [h, below, run[-1], wn / we / e_shape]
    else:
        weights = [weight]
    # Rounding can lift a CDF that sums to 1 just above it.
    den = np.minimum(weight[0], 1.0)
    x_free = weights + [e_shape, _log_binomials(e_shape, count), den]
    if repeats > 1:
        x_free = [np.repeat(a, repeats, axis=-1) for a in x_free]
    *weights, e_shape, log_binom_e, den = x_free

    def values(x) -> np.ndarray:
        # pe(x) = x * we / (wn + x * we) has the odds x * we / wn.
        odds = _nonnegative(x) * we / wn
        nb_e = _nb_pmf_block(
            log_binom_e, e_shape, -np.log1p(1.0 / odds), -np.log1p(odds)
        )
        if not integrated:
            # Rounding can lift a survival that sums to 1 just above it.
            return np.minimum(contract(weights[0], nb_e), 1.0)
        h, below, h_kn, factor = weights
        tail = 1.0 - contract(below, nb_e)
        return (contract(h, nb_e) + tail * h_kn) * factor

    return den, values


def _interval_series(kn, wn, kb, wb, ke, we):
    """The series route for both ends of a belief interval from one
    x-free state: the upper end (kn, kb, ke), kn >= 1, and the lower end
    (kn - 1, kb + 1, ke + 1), integer shapes on shared scales.  Returns
    den = P(A >= B) of the upper end and x -> the (2, points) survivals
    of the lower end (row 0) and the upper end (row 1).  The caller runs
    both under ``np.errstate(all="ignore")``, as for
    :func:`_prepared_series`.

    The ends differ by one unit of shape in each gamma, and for
    E' ~ NB(ke, p), P(NB(ke + 1, p) = j) = P(E' = j) (ke + j) / ke (1 - p).
    So with B'_k ~ NB(k, pb), one block of E' masses at pe(x) gives both

        survival_up(x) = sum_{j < kn} P(E' = j) P(B'_kb <= kn - 1 - j),
        survival_lo(x) = (1 - pe(x)) sum_{j < kn - 1} P(E' = j) (ke + j) / ke
                         * P(B'_(kb + 1) <= kn - 2 - j),

    with 1 - pe(x) = 1 / (1 + x we / wn): a call is one exp block and one
    2-row contraction.  den = P(NB(kb, pb) <= kn - 1) is the last entry
    of the upper end's background CDF.  At ke == 0, E is the constant 0,
    the block is at shape 1 for the lower end alone and the upper
    survival is den at every x.  At kn == 1 the lower survival is 0.
    """
    shapes = _validate(kn, wn, kb, wb, ke, we)
    if not _is_integral(shapes).all() or shapes[0] < 1:
        raise ValueError("interval series requires integer shapes and kn >= 1")
    kn, kb, ke = (int(s) for s in np.rint(shapes))
    cdf_b = np.cumsum(_background_block(np.array([kb, kb + 1.0]), wn, wb, kn), axis=0)
    # Rounding can lift a CDF that sums to 1 just above it.
    den = min(float(cdf_b[-1, 0]), 1.0)
    lower = np.zeros(kn)
    lower[: kn - 1] = cdf_b[: kn - 1, 1][::-1]
    if ke > 0:
        lower *= (ke + np.arange(kn)) / ke
    weights = np.stack([lower, cdf_b[::-1, 0]])
    e_shape = max(ke, 1)
    log_binom_e = _log_binomials(float(e_shape), kn)

    def values(x) -> np.ndarray:
        odds = _nonnegative(x) * we / wn
        nb_e = _nb_pmf_block(
            log_binom_e, e_shape, -np.log1p(1.0 / odds), -np.log1p(odds)
        )
        out = weights @ nb_e
        if ke > 0:
            out[0] /= 1.0 + odds
        np.minimum(out, 1.0, out=out)
        if ke == 0:
            out[1] = den
        return out

    return den, values


def survival_series(x, kn, wn, kb, wb, ke, we) -> np.ndarray:
    """Exact P(A > B + x*E) for integer shapes: kn, kb, ke are shared
    scalars or 1-d arrays with one entry per point of x."""
    with np.errstate(all="ignore"):
        return _prepared_series(kn, wn, kb, wb, ke, we)[1](x)


def integrated_survival_series(x, kn, wn, kb, wb, ke, we) -> np.ndarray:
    """Exact J(x) = int_0^x P(A > B + v*E) dv for integer shapes, ke >= 2;
    shapes as for :func:`survival_series`.

    With c = wn / we, K ~ NB(ke - 1, pe(x)) and B ~ NB(kb, pb),

        J(x) = c / (ke - 1) * E[min(K, (kn - B)^+)],

    which at x = inf is c * E[(kn - B)^+] / (ke - 1), from the x-free
    background sums alone.  (Under w = c / (c + v) the
    survival is w**ke times a polynomial in 1 - w.)  The expectation is
    summed over K's masses below kn, each weighted by the x-free
    h(k) = E[min(k, (kn - B)^+)], a running sum of the background CDF,
    plus K's mass from kn on times h(kn) (see :func:`_prepared_series`).
    """
    with np.errstate(all="ignore"):
        return _prepared_series(kn, wn, kb, wb, ke, we, integrated=True)[1](x)


def _trigamma(x) -> np.ndarray:
    """psi'(x) for x > 0, to about 1e-8 relative: the recurrence
    psi'(x) = psi'(x + 1) + 1 / x**2 up to y = x + 6, then the asymptotic
    series 1/y + 1/(2y^2) + 1/(6y^3) - 1/(30y^5) + 1/(42y^7).  (scipy's
    polygamma(1, x) takes five times as long.)"""
    x = np.asarray(x, dtype=float)
    head = sum(1.0 / (x + i) ** 2 for i in range(6))
    w = 1.0 / (x + 6.0)
    w2 = w * w
    return head + w * (1.0 + w * (0.5 + w * (1 / 6 - w2 * (1 / 30 - w2 / 42))))


def quantile_start(kn, kb, ke, t, u, q) -> np.ndarray:
    """A log-normal guess of the q-quantile of (A - B) / E for
    A ~ Gamma(kn, 1), B ~ Gamma(kb, 1/t) and E ~ Gamma(ke, 1/u), ke > 0:
    the start of a root search.

    By the delta method, with v = kn + kb / t**2 the variance of A - B
    and m = max(kn - kb / t, sqrt(v)) its mean kept at least one
    standard deviation above 0,

        log x0 = log m - psi(ke) + log u + Phi^-1(q) sqrt(v / m**2 + psi'(ke)),

    as E[log E] = psi(ke) - log u and Var[log E] = psi'(ke).
    """
    kn, kb, ke = (np.asarray(a, dtype=float) for a in (kn, kb, ke))
    sd = np.hypot(np.sqrt(kn), np.sqrt(kb) / t)
    m = np.maximum(kn - kb / t, sd)
    spread = np.sqrt((sd / m) ** 2 + _trigamma(ke))
    return np.exp(np.log(m) - digamma(ke) + math.log(u) + ndtri(q) * spread)


def series_roots(shapes, t, u, quantiles, rel_tol, residual, integrated=False):
    """Roots of nondecreasing per-row series residuals, as an array of
    shape (len(quantiles), rows).

    ``shapes`` has shape (k, 3, rows): k integer triples (kn, kb, ke) per
    row on the scales (1, 1/t, 1/u).  The (row, quantile) pairs run in
    chunks of at most _SERIES_TERMS series terms; a chunk builds the
    x-free series arrays once per row, shared by the row's quantiles.
    Per chunk, ``residual(values, den, rows, qs)`` gets the pairs' row
    indices and quantiles, ``values``: x -> the (k, pairs) survivals of
    each pair's triples at its x (integrals over [0, x] when
    ``integrated``), and ``den``: the (k, pairs) conditioning
    probabilities P(A >= B) of those triples, from the same series state.
    It returns each pair's start (from :func:`quantile_start`) and
    x -> residuals, >= 0 from each pair's root on, which
    :func:`dsplim.specfun.solve_monotone` solves to ``rel_tol`` from
    those starts; so a root does not depend on the rows chunked with it.
    """
    quantiles = np.asarray(quantiles, dtype=float)
    if not np.all((quantiles > 0.0) & (quantiles < 1.0)):
        raise ValueError("quantile must lie strictly inside (0, 1)")
    if not (t > 0 and u > 0):
        raise ValueError("scales t and u must be positive")
    shapes = np.asarray(shapes, dtype=float)
    k, _, n_rows = shapes.shape
    nq = quantiles.size
    roots = np.empty((nq, n_rows))
    step = max(1, _SERIES_TERMS // (k * nq * int(shapes[:, 0].max(initial=0)) + 1))
    for first in range(0, n_rows, step):
        block = np.arange(first, min(first + step, n_rows))
        rows = np.repeat(block, nq)
        # One series pass carries the k triples of every pair, triple-major.
        kn, kb, ke = shapes[:, :, block].transpose(1, 0, 2).reshape(3, -1)
        with np.errstate(all="ignore"):
            den, series = _prepared_series(
                kn, 1.0, kb, 1.0 / t, ke, 1.0 / u, integrated, repeats=nq
            )

            def values(x):
                return series(np.tile(x, k) if k > 1 else x).reshape(k, -1)

            start, pairs = residual(
                values, np.reshape(den, (k, -1)), rows, np.tile(quantiles, block.size)
            )
            found = solve_monotone(pairs, start, rel_tol, NumericalError)
        roots[:, block] = found.reshape(-1, nq).T
    return roots


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

    method "auto" takes the exact series whenever all shapes are
    integers up to _SERIES_MAX_SHAPE, and quadrature otherwise.
    """
    if method == "auto":
        method = "series" if _series_carries(kn, kb, ke).all() else "quadrature"
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


def clamp_unit(values):
    """Clip CDF values to [0, 1], rejecting excursions beyond CLAMP_SLACK."""
    arr = np.asarray(values, dtype=float)
    if np.any(np.isnan(arr)):
        raise NumericalError("cdf evaluation produced NaN")
    low, high = arr.min(initial=0.0), arr.max(initial=1.0)
    if low < -CLAMP_SLACK or high > 1.0 + CLAMP_SLACK:
        raise NumericalError(
            f"cdf value escaped [0, 1] by more than {CLAMP_SLACK}: "
            f"range [{low}, {high}]"
        )
    out = np.clip(arr, 0.0, 1.0)
    return float(out) if np.ndim(values) == 0 else out
