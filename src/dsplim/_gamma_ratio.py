"""Conditional CDF machinery for difference-ratios of independent gammas.

Both the per-channel belief-interval CDFs and the Bayesian posterior
CDF reduce to the same object.  For independent A ~ Gamma(kn, wn),
B ~ Gamma(kb, wb), E ~ Gamma(ke, we) (shape-scale; a shape-0 gamma is
the constant 0) define

    survival(x) = P(A > B + x * E),    x >= 0.

The normalized CDF of the ratio (A - B) / E restricted to the
nonnegative half-line is then 1 - survival(x) / den, where den =
P(A >= B) is the probability of the conditioning event.

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
masses and one contraction.  The shapes are shared scalars or arrays
with one row per point of x.  Each block is exponentiated from its
logarithm, so a start value (1 - p)**r far below the double range
loses no mass.  Every series state returns its own conditioning
probability den = P(A >= B) = P(NB(kb, pb) <= kn - 1), the last entry
of its background CDF.  The quadrature state
(:func:`_quadrature_state`) has the same form, den from one
:func:`conditioning_probability` per row, so a root search takes either.

One interval state (:func:`_interval_series`) serves both routes of the
DS limits.  The two ends of a belief interval, (kn, kb, ke) and
(kn - 1, kb + 1, ke + 1), share one block of masses, as
P(NB(r + 1, p) = j) = P(NB(r, p) = j) (r + j) / r (1 - p).  It gives
their survivals at each row's own points for the grid route, on a
block of rows at once, and for ke >= 2 their integrals over [0, x] at
one point per row for the grid-free single-channel limits.
:func:`series_roots` inverts per-row states for many rows at once, by
superlinear bracketed steps on log-tail residuals from a start that
:func:`quantile_start` estimates per row; the grid-free DS limits and
every Bayes limit are its two callers.

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
    x = np.asarray(x, dtype=float)
    if x.ndim == 0:
        x = x.reshape(1)
    if (x < 0).any():
        raise ValueError("x must be >= 0")
    return x


def _background_block(kb, wn, wb, count: int) -> np.ndarray:
    """NB(kb, pb) masses at 0..count-1, pb = wb / (wn + wb), with log pb
    and log(1 - pb) taken from the scales."""
    return _nb_pmf_block(
        _log_binomials(kb, count), kb, -math.log1p(wn / wb), -math.log1p(wb / wn)
    )


def _series_shapes(kn, wn, kb, wb, ke, we) -> np.ndarray:
    """The shapes as one (3, ...) array of integers, for the series route."""
    shapes = _validate(kn, wn, kb, wb, ke, we)
    if not _is_integral(shapes).all():
        raise ValueError("series route requires integer shapes")
    return np.rint(shapes)


def _lagged(cdf, last):
    """The weights of a (count, ...) background CDF: cdf[last - j] at
    j <= last, per row for per-row ``last``, and an exact 0 from there on."""
    lag = last - np.arange(len(cdf)).reshape((-1,) + (1,) * np.ndim(last))
    index = (np.maximum(lag, 0).astype(int), *np.indices(lag.shape[1:], sparse=True))
    return cdf[index] * (lag >= 0)


def _efficiency_block(x, log_binom, shape, wn, we):
    """(odds, NB(shape, pe(x)) masses at 0..count-1) at each x >= 0, where
    pe(x) = x * we / (wn + x * we) has the odds x * we / wn."""
    odds = _nonnegative(x) * we / wn
    return odds, _nb_pmf_block(log_binom, shape, -np.log1p(1.0 / odds), -np.log1p(odds))


def _prepared_series(kn, wn, kb, wb, ke, we, repeats=1):
    """The single-end series route with everything that does not depend
    on x built once: returns den = P(A >= B) = P(B' <= kn - 1), per row
    for per-row shapes, and x -> survival at x.  Shapes as for
    :func:`survival_series`; with per-row shapes, x must have ``repeats``
    consecutive entries per row, which share the row's x-free arrays.
    The caller runs both this and the returned function under
    ``np.errstate(all="ignore")``: log(0), 0 * inf and 1 / x at x = 0 or
    subnormal x warn.

    With E' ~ NB(ke, pe(x)) and the x-free background CDF of
    B' ~ NB(kb, pb) as weights, a pass is one block of masses and one
    contraction:

        survival(x) = sum_{j < kn} P(E' = j) * P(B' <= kn - 1 - j).

    Per-row weights are exact zeros from the row's kn on, so the terms a
    longer row pads a batch with add +0.0 and a row's values do not
    depend on the rows beside it.  den is the first weight, which the
    survival at x = 0 equals exactly.
    """
    kn, kb, ke = _series_shapes(kn, wn, kb, wb, ke, we)
    count = max(int(kn.max()), 1)
    weight = _lagged(np.cumsum(_background_block(kb, wn, wb, count), axis=0), kn - 1)
    # Rounding can lift a CDF that sums to 1 just above it.
    den = np.minimum(weight[0], 1.0)
    x_free = [weight, ke, _log_binomials(ke, count), den]
    if repeats > 1:
        x_free = [np.repeat(a, repeats, axis=-1) for a in x_free]
    weight, ke, log_binom_e, den = x_free
    contract = _row_sums if kn.ndim else np.matmul

    def values(x) -> np.ndarray:
        nb_e = _efficiency_block(x, log_binom_e, ke, wn, we)[1]
        # Rounding can lift a survival that sums to 1 just above it.
        return np.minimum(contract(weight, nb_e), 1.0)

    return den, values


def _interval_series(kn, wn, kb, wb, ke, we, integrated=False, repeats=1):
    """Both ends of a belief interval from one x-free state: the upper end
    (kn, kb, ke) and the lower end (kn - 1, kb + 1, ke + 1) on shared
    scales.  Returns den = P(A >= B) of the upper end and x -> the
    survivals of the lower end (row 0) and the upper end (row 1), or
    with ``integrated`` (ke >= 2) their integrals over [0, x].  Shapes,
    ``repeats`` and errstate as for :func:`_prepared_series`; an end
    with numerator shape 0 is 0.  With per-row shapes, x of shape
    (rows, points) instead gives every row its own points; scalar
    shapes are one row.

    The ends differ by one unit of shape in each gamma, and
    P(NB(e + 1, p) = j) = P(NB(e, p) = j) (e + j) / e (1 - p).  So one
    block of masses of K ~ NB(e, pe(x)) serves both ends: the lower end's
    weights take the factor (e + j) / e and its sums 1 - pe(x) =
    1 / (1 + x we / wn).  The survivals take e = ke and the weights of
    :func:`_prepared_series`; at ke == 0, E is the constant 0, so the
    block at e = 1 is the lower end's and the upper survival is den.  The
    integrals take e = ke - 1: on each end's shapes, with c = wn / we,
    K' ~ NB(ke - 1, pe(x)) and h(k) = E[min(k, (kn - B')^+)], the weight
    g(k) = h(kn) - h(k) = sum_{k <= j < kn} P(B' <= kn - 1 - j) gives

        J(x) = c / (ke - 1) * E[h(min(K', kn))]
             = c / (ke - 1) * [g(0) - sum_{k < kn} P(K' = k) * g(k)],

    so J(inf) = c * g(0) / (ke - 1).  A pass at one point per row
    contracts each end by one :func:`_row_sums`.  Points per row are
    contracted by one stacked matmul of the (2, count) weights with the
    (count, points) block, over the rows whose own series length
    count = max(kn, 1) is the same: every row's block and product are
    those of the row alone, whatever the rows beside it.  Each such
    block holds at most _SERIES_TERMS terms.
    """
    kn, kb, ke = _series_shapes(kn, wn, kb, wb, ke, we).reshape(3, -1)
    if integrated and np.min(ke) < 2:
        raise ValueError("integrated survival requires ke >= 2")
    count = max(int(kn.max()), 1)
    e_shape = ke - 1.0 if integrated else np.maximum(ke, 1.0)
    # Axis 1 holds the ends: the lower (kn - 1, kb + 1), then the upper (kn, kb).
    cdf_b = np.cumsum(_background_block(np.array([kb + 1.0, kb]), wn, wb, count), axis=0)
    weight = _lagged(cdf_b, np.array([kn - 2.0, kn - 1.0]))
    # Rounding can lift a CDF that sums to 1 just above it.
    den = np.minimum(weight[0, 1], 1.0)
    if integrated:
        weight = np.cumsum(weight[::-1], axis=0)[::-1]  # g, summed from the top
        factors = wn / we / np.array([ke, e_shape])
    j = np.arange(count)[:, None]
    weight[:, 0] *= np.where(ke > 0, (e_shape + j) / e_shape, 1.0)
    # Per end, g(0) = h(kn) and c / (ke - 1) at the end's own ke.
    edges = [weight[0], factors] if integrated else []
    x_free = [e_shape, _log_binomials(e_shape, count), ke > 0, den]
    x_free += [weight[:, 0], weight[:, 1], *edges]
    log_binom_e, lifted = x_free[1:3]
    if repeats > 1:
        x_free = [np.repeat(a, repeats, axis=-1) for a in x_free]
    # Made by the first grid pass: the rows' arrays for one block, or per
    # series length its rows and their arrays.
    whole, groups = [], []

    def finish(sums, odds, lift, den, totals=None, factors=None):
        # sums has rows: the lower end, the upper end.
        np.divide(sums[0], 1.0 + odds, out=sums[0], where=lift)
        if integrated:
            return (totals - sums) * factors
        # Rounding can lift a survival that sums to 1 just above it.
        np.minimum(sums, 1.0, out=sums)
        np.copyto(sums[1], den, where=~lift)
        return sums

    def pairs(x):
        e, log_binom, lift, d, lower, upper, *rest = x_free
        odds, nb_e = _efficiency_block(x, log_binom, e, wn, we)
        return finish(np.array([_row_sums(lower, nb_e), _row_sums(upper, nb_e)]),
                      odds, lift, d, *rest)

    def rows_first(at, length):
        # The x-free arrays of rows ``at``, rows first: each row's
        # (2, length) weights are contiguous, so matmul takes BLAS.
        arrays = [weight[:length, :, at].transpose(2, 1, 0),
                  log_binom_e[:length, at].T, e_shape[at, None], lifted[at, None],
                  den[at, None], *(a[:, at, None].transpose(1, 0, 2) for a in edges)]
        return [np.ascontiguousarray(a) for a in arrays]

    def block(x, weights, log_binom, e, lift, d, *edge):
        odds, nb_e = _efficiency_block(x, log_binom.T, e, wn, we)
        sums = np.matmul(weights, nb_e.transpose(1, 0, 2)).transpose(1, 0, 2)
        return finish(sums, odds, lift, d, *(a.transpose(1, 0, 2) for a in edge))

    own = np.maximum(kn, 1).astype(int)  # each row's own series length

    def grid(x):
        if own.min() == count and x.size * count <= _SERIES_TERMS:
            # One series length and one block: the rows as they are, with
            # no gather.  This keeps a one-row call at par.
            if not whole:
                whole.extend(rows_first(slice(None), count))
            return block(x, *whole)
        if not groups:
            for length in np.unique(own).tolist():
                at = np.flatnonzero(own == length)
                groups.append((at, rows_first(at, length)))
        out = np.empty((2,) + x.shape)
        for at, rowwise in groups:
            step = max(1, _SERIES_TERMS // (rowwise[0].shape[-1] * x.shape[1]))
            for first in range(0, at.size, step):
                part = slice(first, first + step)
                out[:, at[part]] = block(x[at[part]], *(a[part] for a in rowwise))
        return out

    def values(x) -> np.ndarray:
        if np.ndim(x) == 2:
            return grid(np.asarray(x, dtype=float))
        return pairs(x)

    return x_free[3], values


def survival_series(x, kn, wn, kb, wb, ke, we) -> np.ndarray:
    """Exact P(A > B + x*E) for integer shapes: kn, kb, ke are shared
    scalars or 1-d arrays with one entry per point of x."""
    with np.errstate(all="ignore"):
        return _prepared_series(kn, wn, kb, wb, ke, we)[1](x)


def integrated_survival_series(x, kn, wn, kb, wb, ke, we) -> np.ndarray:
    """Exact J(x) = int_0^x P(A > B + v*E) dv for integer shapes, ke >= 2,
    shapes as for :func:`survival_series`: the upper row of the
    integrated :func:`_interval_series`, one row per point of x.
    J(inf) = c * E[(kn - B)^+] / (ke - 1) with c = wn / we and
    B ~ NB(kb, pb)."""
    x = np.ravel(np.asarray(x, dtype=float))
    kn, kb, ke = np.broadcast_arrays(kn, kb, ke, x)[:3]
    with np.errstate(all="ignore"):
        return _interval_series(kn, wn, kb, wb, ke, we, integrated=True)[1](x)[1]


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


def series_roots(shapes, t, u, quantiles, rel_tol, residual, state=_prepared_series):
    """Roots of nondecreasing per-row residuals, as an array of shape
    (len(quantiles), rows).

    ``shapes`` has shape (3, rows): a triple (kn, kb, ke) per row on the
    scales (1, 1/t, 1/u).  The (row, quantile) pairs run in chunks of at
    most _SERIES_TERMS series terms per array; a chunk builds one
    ``state`` for its rows, whose x-free arrays a row's quantiles share:
    the survival of :func:`_prepared_series` by default, the integrals of
    ``partial(_interval_series, integrated=True)``, or the survival of
    :func:`_quadrature_state`.  Per chunk, ``residual(values, den, rows,
    qs)`` gets the pairs' row indices and quantiles and that state: its
    ``values``, x -> each pair's value at its x ((2, pairs) rows of the
    lower and upper end for the interval state), and ``den``, each pair's
    P(A >= B).  It returns each pair's start (from
    :func:`quantile_start`) and x -> residuals, >= 0 from each pair's root
    on, which :func:`dsplim.specfun.solve_monotone` solves to ``rel_tol``
    from those starts; so a root does not depend on the rows chunked with
    it.
    """
    quantiles = np.asarray(quantiles, dtype=float)
    if not np.all((quantiles > 0.0) & (quantiles < 1.0)):
        raise ValueError("quantile must lie strictly inside (0, 1)")
    if not (t > 0 and u > 0):
        raise ValueError("scales t and u must be positive")
    kn, kb, ke = np.asarray(shapes, dtype=float)
    nq = quantiles.size
    roots = np.empty((nq, kn.size))
    # An array holds count terms per pair, and the interval state's x-free
    # arrays 2 * count per row, one count per end.
    step = max(1, _SERIES_TERMS // (max(nq, 2) * int(kn.max(initial=0)) + 1))
    for first in range(0, kn.size, step):
        block = np.arange(first, min(first + step, kn.size))
        with np.errstate(all="ignore"):
            den, values = state(
                kn[block], 1.0, kb[block], 1.0 / t, ke[block], 1.0 / u, repeats=nq
            )
            start, pairs = residual(
                values, den, np.repeat(block, nq), np.tile(quantiles, block.size)
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
    x: float, kn, wn, kb, wb, ke, we, quad: QuadratureConfig
) -> float:
    """Beta-CDF evaluation of P(A > B + x*E) at one point x >= 0, for
    shapes and scales that :func:`survival` has checked."""
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
    """P(A > B + x*E); x may be a scalar or an array, the shapes shared
    scalars or one per point of x.

    method "auto" takes the exact series whenever all shapes are
    integers up to _SERIES_MAX_SHAPE, and quadrature otherwise, one
    :func:`survival_quadrature` per point.
    """
    if method == "auto":
        method = "series" if _series_carries(kn, kb, ke).all() else "quadrature"
    if method == "series":
        out = survival_series(x, kn, wn, kb, wb, ke, we)
    elif method == "quadrature":
        _validate(kn, wn, kb, wb, ke, we)
        quad = quad or QuadratureConfig()
        points = np.transpose(np.broadcast_arrays(_nonnegative(x), kn, kb, ke)).tolist()
        out = np.array(
            [survival_quadrature(v, a, wn, b, wb, e, we, quad) for v, a, b, e in points]
        )
    else:
        raise ValueError(f"unknown method {method!r}")
    return float(out[0]) if np.ndim(x) == 0 else out


def conditioning_probability(kn, wn, kb, wb) -> float:
    """P(A >= B) for A ~ Gamma(kn, wn), B ~ Gamma(kb, wb), kn >= 1."""
    _validate(kn, wn, kb, wb, 1.0, 1.0)
    if kn == 0:
        raise ValueError("conditioning requires a nondegenerate numerator")
    return beta_cdf(wn / (wn + wb), kb, kn)


def _quadrature_state(kn, wn, kb, wb, ke, we, repeats=1, quad=None):
    """The quadrature route, for any positive shapes, in the state form of
    :func:`_prepared_series` (shapes and ``repeats`` likewise): den, one
    :func:`conditioning_probability` per row, and x -> the survival at x."""
    shapes = _validate(kn, wn, kb, wb, ke, we).reshape(3, -1)
    den = [conditioning_probability(a, wn, b, wb) for a, b in shapes[:2].T.tolist()]
    kn, kb, ke = np.repeat(shapes, repeats, axis=1)

    def values(x) -> np.ndarray:
        return survival(x, kn, wn, kb, wb, ke, we, "quadrature", quad)

    return np.repeat(den, repeats), values


def clamp_unit(values):
    """Clip CDF values to [0, 1], rejecting excursions beyond CLAMP_SLACK."""
    arr = np.asarray(values, dtype=float)
    low, high = arr.min(initial=0.0), arr.max(initial=1.0)  # nan if any value is
    if math.isnan(low) or math.isnan(high):
        raise NumericalError("cdf evaluation produced NaN")
    if low < -CLAMP_SLACK or high > 1.0 + CLAMP_SLACK:
        raise NumericalError(
            f"cdf value escaped [0, 1] by more than {CLAMP_SLACK}: "
            f"range [{low}, {high}]"
        )
    out = arr.clip(0.0, 1.0)
    return float(out) if out.ndim == 0 else out
