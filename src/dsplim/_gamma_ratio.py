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

The two ends of a belief interval, (kn, kb, ke) and
(kn - 1, kb + 1, ke + 1), share one block of masses, as
P(NB(r + 1, p) = j) = P(NB(r, p) = j) (r + j) / r (1 - p), and one
build of their x-free background weights (:func:`_interval_weights`).
Each route of the DS limits has its own interval state on them:
:func:`_interval_series` gives both survivals at each row's own points
for the grid route, on a block of rows at once, and
:func:`_interval_integrals` gives, for ke >= 2, both integrals over
[0, x] at one point per row for the grid-free single-channel limits.
:func:`series_roots` inverts per-row states for many rows at once, by
superlinear bracketed steps on log-tail residuals from a start that
:func:`quantile_start` estimates per row; the grid-free DS limits and
every Bayes limit are its two callers.

"quadrature" (any positive real shapes).  The beta-CDF form

    survival(x) = I_alpha(ke, kn)
        - int_0^alpha I_q(g)(ke + kn, kb) dBeta(g; ke, kn) dg,
    alpha = wn / (wn + x * we),
    q(g)  = wb / (wb + wn * (1 - g / alpha)),

with the inner integral computed after the substitution g = alpha * v
by one call of scipy's QUADPACK (adaptive Gauss-Kronrod with
extrapolation, Piessens et al. 1983), seeded with the breakpoints of
:func:`_inner_breakpoints`; a failure it reports raises
:class:`~dsplim.specfun.IntegrationError`.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import betaincinv, digamma, ndtri

from .specfun import IntegrationError, beta_cdf, beta_pdf, solve_monotone

# Above this shape the O(kn) series is slower than quadrature, so "auto"
# falls back to quadrature.
_SERIES_MAX_SHAPE = 20_000

# Most series terms (rows x series length) one batched call builds:
# 2**22 terms keep each of its arrays near 32 MB.
_SERIES_TERMS = 1 << 22

# A grid block's log-pmf below this is an exact 0 mass instead of its exp:
# numpy's exp leaves its fast path between -707 and -708, and e**-707 is
# about 1e-307.
_LOG_PMF_FLOOR = -707.0

# QUADPACK's tolerances on the inner integral of the quadrature route,
# |error| <= max(_QUAD_ABS_TOL, _QUAD_REL_TOL * |integral|), and its
# subinterval budget per piece between two of its breakpoints.
_QUAD_REL_TOL = 1e-9
_QUAD_ABS_TOL = 1e-12
_QUAD_PIECE_LIMIT = 16

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
    if min(wn, *(w.min() if _per_row(w) else w for w in (wb, we))) <= 0:
        raise ValueError("gamma scales must be positive")
    return shapes


def _per_row(w) -> bool:
    """Whether a scale is one value per row rather than a shared scalar."""
    return isinstance(w, np.ndarray) and w.ndim > 0


def _is_integral(shapes: np.ndarray) -> np.ndarray:
    return np.abs(shapes - np.rint(shapes)) <= 1e-9


def _series_carries(kn, kb, ke) -> np.ndarray:
    """Per shape triple: whether survival(method="auto") takes the series
    route, i.e. all three shapes are integers up to _SERIES_MAX_SHAPE."""
    shapes = np.array([kn, kb, ke])
    if shapes.dtype.kind in "iu":  # integers already
        return (shapes <= _SERIES_MAX_SHAPE).all(axis=0)
    shapes = shapes.astype(float)
    return (_is_integral(shapes) & (shapes <= _SERIES_MAX_SHAPE)).all(axis=0)


def _log_binomials(r, count: int) -> np.ndarray:
    """log C(r + i - 1, i) at i = 0..count-1, broadcast over r, as a
    cumulative sum of log((r + i - 1) / i).  At r == 0 the values after
    the first are -inf."""
    i = np.arange(1.0, count).reshape((-1,) + (1,) * np.ndim(r))
    steps = np.log((r + i - 1.0) / i)
    return np.concatenate([np.zeros((1,) + np.shape(r)), np.cumsum(steps, axis=0)])


def _nb_log_pmf(log_binom, r, log_p, log_q) -> np.ndarray:
    """Negative binomial log-pmf values i * log_p + log_binom + r * log_q
    at i = 0..count-1 with log_binom from :func:`_log_binomials` (r,
    count), log_p = log p and log_q = log(1 - p).

    The result has shape (count,) + the broadcast shape of r and the
    logs.  r == 0 is the exact point mass at 0, also at p == 1.  The
    log-pmf is summed in place in the one array it returns: a second
    temporary of the block's size costs as much as the exp.
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
    return log_pmf


def _nb_pmf_block(log_binom, r, log_p, log_q, floored=False) -> np.ndarray:
    """Negative binomial pmf values at 0..count-1, each exponentiated once,
    in place, from its :func:`_nb_log_pmf` (same arguments and shape), so
    no mass below count is lost to an underflowing start value
    (1 - p)**r.

    With ``floored``, a log-pmf below _LOG_PMF_FLOOR gives an exact 0
    without the exp, which leaves its fast path there: for the smallest
    normal results, the subnormal ones and those that underflow to 0.
    Each zeroed mass is below
    e**-707, about 1e-307, so the floor moves a sum of count masses with
    weights at most w by less than count * w * 1e-307 in absolute terms.
    """
    log_pmf = _nb_log_pmf(log_binom, r, log_p, log_q)
    if not floored:
        return np.exp(log_pmf, out=log_pmf)
    low = log_pmf < _LOG_PMF_FLOOR
    # The floor itself is on exp's fast path; a masked exp costs more.
    np.copyto(log_pmf, _LOG_PMF_FLOOR, where=low)
    np.exp(log_pmf, out=log_pmf)
    np.copyto(log_pmf, 0.0, where=low)
    return log_pmf


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


def _log_odds(wn, w):
    """(log p, log(1 - p)) of p = w / (wn + w) from math.log1p of the
    scales' ratios: floats for a scalar w, else arrays shaped like w,
    each entry as its scale gives it alone."""
    if not _per_row(w):
        return -math.log1p(wn / w), -math.log1p(w / wn)
    scales, at = np.unique(w, return_inverse=True)
    log_p, log_q = np.array([_log_odds(wn, v) for v in scales.tolist()]).T
    return log_p[at], log_q[at]


def _background_block(kb, wn, wb, count: int) -> np.ndarray:
    """NB(kb, pb) masses at 0..count-1, pb = wb / (wn + wb), with log pb
    and log(1 - pb) taken from the scales (:func:`_log_odds`)."""
    return _nb_pmf_block(_log_binomials(kb, count), kb, *_log_odds(wn, wb))


def _series_shapes(kn, wn, kb, wb, ke, we) -> np.ndarray:
    """The shapes as one (3, ...) array of integers, for the series route."""
    shapes = _validate(kn, wn, kb, wb, ke, we)
    if np.result_type(kn, kb, ke).kind in "iu":  # integers already
        return shapes
    if not _is_integral(shapes).all():
        raise ValueError("series route requires integer shapes")
    return np.rint(shapes)


def _lagged(cdf, last):
    """The weights of a (count, ...) background CDF: cdf[last - j] at
    j <= last, per row for per-row ``last``, and an exact 0 from there on."""
    lag = last - np.arange(len(cdf)).reshape((-1,) + (1,) * np.ndim(last))
    index = (np.maximum(lag, 0).astype(int), *np.indices(lag.shape[1:], sparse=True))
    return cdf[index] * (lag >= 0)


def _efficiency_block(x, log_binom, shape, wn, we, floored=False):
    """(odds, NB(shape, pe(x)) masses at 0..count-1) at each x >= 0, where
    pe(x) = x * we / (wn + x * we) has the odds x * we / wn; ``floored``
    as for :func:`_nb_pmf_block`."""
    odds = _nonnegative(x) * we / wn
    log_p, log_q = -np.log1p(1.0 / odds), -np.log1p(odds)
    return odds, _nb_pmf_block(log_binom, shape, log_p, log_q, floored)


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


def _interval_weights(kn, wn, kb, wb):
    """The x-free background weights of both ends of a belief interval,
    the lower end (kn - 1, kb + 1) and the upper end (kn, kb), for 1-d
    shapes: returns count = max(kn, 1), the weights of
    :func:`_prepared_series` as one (count, 2, rows) array, the lower end
    first, and den = P(A >= B) of the upper end."""
    count = max(int(kn.max()), 1)
    cdf_b = np.cumsum(_background_block(np.array([kb + 1.0, kb]), wn, wb, count), axis=0)
    weight = _lagged(cdf_b, np.array([kn - 2.0, kn - 1.0]))
    # Rounding can lift a CDF that sums to 1 just above it.
    return count, weight, np.minimum(weight[0, 1], 1.0)


def _interval_series(kn, wn, kb, wb, ke, we):
    """Both ends of a belief interval from one x-free state, for the grid
    route: the upper end (kn, kb, ke) and the lower end (kn - 1, kb + 1,
    ke + 1) on shared scales.  Returns den = P(A >= B) of the upper end
    and x -> the survivals of the lower end (row 0) and the upper end
    (row 1) at x of shape (rows, points), every row at its own points.
    Shapes are shared scalars (one row) or one per row; wb and we are
    shared scalars or, with per-row shapes, one per row, and a row's
    values are those it has alone on its own scales.  Errstate as for
    :func:`_prepared_series`; an end with numerator shape 0 is 0.

    The ends differ by one unit of shape in each gamma, and
    P(NB(e + 1, p) = j) = P(NB(e, p) = j) (e + j) / e (1 - p).  So one
    block of masses of K ~ NB(e, pe(x)) at e = ke serves both ends: the
    lower end's weights take the factor (e + j) / e and its sums
    1 - pe(x) = 1 / (1 + x we / wn).  At ke == 0, E is the constant 0, so
    the block at e = 1 is the lower end's and the upper survival is den.

    The state is built for the rows grouped by their own series length
    count = max(kn, 1), each group's x-free arrays rows first, and a pass
    contracts each group by one stacked matmul of the (2, count) weights
    with the (count, points) block: every row's block and product are
    those of the row alone, whatever the rows beside it.  Each block holds
    at most _SERIES_TERMS terms.  A block is built with the floor of
    :func:`_nb_pmf_block` when one of its rows may reach it: as
    log C(e + i - 1, i) >= 0, a row's log-pmf is at least (count - 1) log p
    at its smallest positive x plus e log q at its largest x, and the floor
    is taken when either term is below half of it, so whenever their sum
    is.  The limits on the knots that this gives are x-free, so a pass
    tests only a row's first two and last knots: where the knots ascend
    and the rows' first knots are all 0 or all positive, as on the grid
    route.  On other knots the gate can miss, which costs time but moves
    no value.  A floored mass is below e**-707, about 1e-307, and each
    end's weights are at most count, so the floor moves a survival by less
    than count**2 * 1e-307 (4e-299 at the series shape bound).  The grid
    route divides by den >= 1e-250, so a CDF moves by less than 4e-49: no
    limit of the grid route has moved by it.
    """
    kn, kb, ke = _series_shapes(kn, wn, kb, wb, ke, we).reshape(3, -1)
    per_row = _per_row(we)  # one efficiency scale per row
    if per_row:
        wb, we = np.ravel(wb), np.ravel(we)
    count, weight, den = _interval_weights(kn, wn, kb, wb)
    e_shape, lift = np.maximum(ke, 1.0), ke > 0
    weight[:, 0] *= np.where(lift, (e_shape + np.arange(count)[:, None]) / e_shape, 1.0)
    log_binom = _log_binomials(e_shape, count)
    own = np.maximum(kn, 1).astype(int)  # each row's own series length
    # Half the floor in either term, (count - 1) log p or e log q, is
    # reached below the first or above the second knot limit.
    half = -0.5 * _LOG_PMF_FLOOR
    below = wn / we / np.expm1(half / (own - 1.0))
    above = wn / we * np.expm1(half / e_shape)
    # Per series length: its rows and their x-free arrays, rows first, so
    # each row's (2, length) weights are contiguous and matmul takes BLAS.
    groups = []
    for length in np.unique(own).tolist():
        at = np.flatnonzero(own == length)
        arrays = [weight[:length, :, at].transpose(2, 1, 0), log_binom[:length, at].T,
                  e_shape[at, None], lift[at, None], den[at, None]]
        groups.append((at, [np.ascontiguousarray(a) for a in arrays]))

    def block(x, we, floored, weights, log_binom, e, lift, den):
        # Both ends' survivals of some rows of a group at their knots x.
        # A function of its own, so a block's masses are freed before the
        # next block's are made.
        odds, nb_e = _efficiency_block(x, log_binom.T, e, wn, we, floored)
        sums = np.matmul(weights, nb_e.transpose(1, 0, 2)).transpose(1, 0, 2)
        np.divide(sums[0], 1.0 + odds, out=sums[0], where=lift)
        # Rounding can lift a survival that sums to 1 just above it.
        np.minimum(sums, 1.0, out=sums)
        np.copyto(sums[1], den, where=~lift)
        return sums

    def values(x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        low = x[:, 1 if x[0, 0] == 0 and x.shape[1] > 1 else 0]
        reach = (low < below) | (x[:, -1] > above)
        out = np.empty((2,) + x.shape)
        for at, arrays in groups:
            step = max(1, _SERIES_TERMS // (arrays[0].shape[-1] * x.shape[1]))
            for first in range(0, len(arrays[0]), step):
                part = slice(first, first + step)
                rows = at[part]
                out[:, rows] = block(x[rows], we[rows, None] if per_row else we,
                                     reach[rows].any(), *(a[part] for a in arrays))
        return out

    return den, values


def _interval_integrals(kn, wn, kb, wb, ke, we, repeats=1):
    """The integrals over [0, x] of both ends' survivals of
    :func:`_interval_series`, for ke >= 2, at one point per (row,
    repeat), for the grid-free limits.  Shapes, ``repeats`` and errstate
    as for :func:`_prepared_series`; the scales are shared scalars.
    Returns den = P(A >= B) of the upper end and x -> the integrals of
    the lower end (row 0) and the upper end (row 1).

    A pass is one block of masses of K' ~ NB(ke - 1, pe(x)), which serves
    both ends as in :func:`_interval_series`.  On each end's shapes, with
    c = wn / we and h(k) = E[min(k, (kn - B')^+)], the weight
    g(k) = h(kn) - h(k) = sum_{k <= j < kn} P(B' <= kn - 1 - j) gives

        J(x) = c / (ke - 1) * E[h(min(K', kn))]
             = c / (ke - 1) * [g(0) - sum_{k < kn} P(K' = k) * g(k)],

    so J(inf) = c * g(0) / (ke - 1).  Each end is contracted by one
    :func:`_row_sums`.
    """
    kn, kb, ke = _series_shapes(kn, wn, kb, wb, ke, we).reshape(3, -1)
    if np.min(ke) < 2:
        raise ValueError("integrated survival requires ke >= 2")
    count, weight, den = _interval_weights(kn, wn, kb, wb)
    e_shape = ke - 1.0
    weight = np.cumsum(weight[::-1], axis=0)[::-1]  # g, summed from the top
    weight[:, 0] *= (e_shape + np.arange(count)[:, None]) / e_shape
    # Per end, g(0) = h(kn) and c / (ke - 1) at the end's own ke.
    x_free = [e_shape, _log_binomials(e_shape, count), weight[:, 0], weight[:, 1],
              weight[0], wn / we / np.array([ke, e_shape]), den]
    if repeats > 1:
        x_free = [np.repeat(a, repeats, axis=-1) for a in x_free]
    e_shape, log_binom, lower, upper, totals, factors, den = x_free

    def values(x) -> np.ndarray:
        odds, nb_e = _efficiency_block(x, log_binom, e_shape, wn, we)
        sums = np.array([_row_sums(lower, nb_e), _row_sums(upper, nb_e)])
        sums[0] /= 1.0 + odds
        return (totals - sums) * factors

    return den, values


def survival_series(x, kn, wn, kb, wb, ke, we) -> np.ndarray:
    """Exact P(A > B + x*E) for integer shapes: kn, kb, ke are shared
    scalars or 1-d arrays with one entry per point of x."""
    with np.errstate(all="ignore"):
        return _prepared_series(kn, wn, kb, wb, ke, we)[1](x)


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
    :func:`_interval_integrals`, or the survival of
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


def survival_quadrature(x: float, kn, wn, kb, wb, ke, we) -> float:
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

        # Imported here: scipy.integrate nearly doubles the import time of
        # dsplim.cli, which every command and benchmark setup pays, while
        # only rows off the series route reach this line.
        from scipy import integrate

        pts = _inner_breakpoints(alpha, kn, wn, kb, wb, ke)
        inner, _, info, *failure = integrate.quad(
            integrand, 0.0, 1.0, points=pts[1:-1],
            epsabs=_QUAD_ABS_TOL, epsrel=_QUAD_REL_TOL,
            limit=_QUAD_PIECE_LIMIT * (pts.size - 1), full_output=1,
        )
        if failure:
            raise IntegrationError(
                f"QUADPACK failed on the inner integral at x = {x!r}, shapes "
                f"({kn!r}, {kb!r}, {ke!r}) after {info['neval']} evaluations: "
                + " ".join(failure[0].split())
            )
    return min(max(head - inner, 0.0), 1.0)


def survival(x, kn, wn, kb, wb, ke, we, method: str = "auto"):
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
        points = np.transpose(np.broadcast_arrays(_nonnegative(x), kn, kb, ke)).tolist()
        out = np.array(
            [survival_quadrature(v, a, wn, b, wb, e, we) for v, a, b, e in points]
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


def _quadrature_state(kn, wn, kb, wb, ke, we, repeats=1):
    """The quadrature route, for any positive shapes, in the state form of
    :func:`_prepared_series` (shapes and ``repeats`` likewise): den, one
    :func:`conditioning_probability` per row, and x -> the survival at x."""
    shapes = _validate(kn, wn, kb, wb, ke, we).reshape(3, -1)
    den = [conditioning_probability(a, wn, b, wb) for a, b in shapes[:2].T.tolist()]
    kn, kb, ke = np.repeat(shapes, repeats, axis=1)

    def values(x) -> np.ndarray:
        return survival(x, kn, wn, kb, wb, ke, we, "quadrature")

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
