"""Special functions, the quadrature route's error and root bracketing.

The quadrature route of the channel and posterior CDFs is built from
the regularized incomplete beta function and its density, integrated
by scipy's QUADPACK (in :mod:`dsplim._gamma_ratio`); every quantile
search (posterior, batched posterior, grid-free DS, credibility) is one
call of :func:`solve_monotone`, which widens a bracket outward from a
start each caller estimates from its own row and closes it by weighted
false-position steps.  The beta functions here wrap scipy.special for
the nondegenerate cases and add the degenerate shape conventions this
package relies on:

* beta a = 0      -> point mass at 0 (CDF identically 1 on [0, 1])
* beta b = 0      -> point mass at 1 (CDF 0 on [0, 1), jump to 1 at 1)

These conventions let the zero-count cases of the channel formulas
evaluate without branching in callers.
"""

from __future__ import annotations

import numpy as np
from scipy import special as sp


class IntegrationError(RuntimeError):
    """The quadrature route's integral reported that it missed its tolerance."""


def beta_pdf(x, a, b):
    """Density of the Beta(a, b) distribution on [0, 1].

    For the degenerate conventions (a == 0 or b == 0) the mass sits on
    an endpoint; the density is reported as inf at the atom and 0
    elsewhere.
    """
    _check_beta_args(x, a, b)
    x = np.asarray(x, dtype=float)
    scalar = x.ndim == 0
    x = np.atleast_1d(x)
    if a == 0:
        out = np.where(x == 0.0, np.inf, 0.0)
    elif b == 0:
        out = np.where(x == 1.0, np.inf, 0.0)
    else:
        out = np.zeros_like(x)
        interior = (x > 0.0) & (x < 1.0)
        xi = x[interior]
        out[interior] = np.exp(
            (a - 1.0) * np.log(xi) + (b - 1.0) * np.log1p(-xi) - sp.betaln(a, b)
        )
        # endpoint values: finite for shape >= 1, infinite below
        out[x == 0.0] = b if a == 1.0 else (np.inf if a < 1.0 else 0.0)
        out[x == 1.0] = a if b == 1.0 else (np.inf if b < 1.0 else 0.0)
    return float(out[0]) if scalar else out


def beta_cdf(x, a, b):
    """Regularized incomplete beta I_x(a, b), the Beta(a, b) CDF.

    Degenerate conventions: a == 0 gives a point mass at 0 (CDF is 1
    everywhere on [0, 1]); b == 0 gives a point mass at 1 (CDF is 0 on
    [0, 1) and 1 at x = 1).
    """
    _check_beta_args(x, a, b)
    x = np.asarray(x, dtype=float)
    if a == 0:
        out = np.ones_like(x)
    elif b == 0:
        out = np.where(x >= 1.0, 1.0, 0.0)
    else:
        out = sp.betainc(a, b, x)
    out = np.clip(out, 0.0, 1.0)
    return float(out) if out.ndim == 0 else out


def _check_beta_args(x, a, b) -> None:
    if a < 0 or b < 0 or (a == 0 and b == 0):
        raise ValueError("beta parameters must be >= 0 and not both 0")
    x = np.asarray(x, dtype=float)
    if np.any(x < 0) or np.any(x > 1):
        raise ValueError("beta argument must lie in [0, 1]")


# The solver's valid range: a start is clipped into [BRACKET_FLOOR,
# BRACKET_CAP], an upper end may not pass BRACKET_CAP, and a lower end
# that falls below BRACKET_FLOOR becomes 0.
BRACKET_FLOOR = 1e-15
BRACKET_CAP = 1e15
# The bracket's widening factor squares on every pass up to this bound:
# wider steps leave brackets in which the false-position steps crawl.
_MAX_GROWTH = 16.0


def solve_monotone(residual, start, rel_tol: float, error: type[Exception]):
    """Roots of nondecreasing residuals on x >= 0, vectorized.

    ``residual(x)`` maps an array x of the shape of ``start`` (``()`` for
    one root) to residuals, negative below each element's root and >= 0
    from it on; NaN counts as negative.  ``start`` holds each element's
    first guess, clipped into [BRACKET_FLOOR, BRACKET_CAP] (a NaN guess
    counts as 1).  From there the bracket widens outward, up where the
    residual is negative and down where it is >= 0, by a factor of 1.25
    that squares on every pass up to 16, so a start 1e6 times off takes
    eight widening passes.  A lower end below BRACKET_FLOOR becomes 0,
    where nothing is known; ``error`` is raised when the residual is
    still negative at BRACKET_CAP.  Inside the bracket each element
    takes false-position steps, kept at least rel_tol / 4 * hi inside
    the bracket, and the bracket midpoint where the secant point is not
    a number (no residual known at 0, or +inf at hi).  Where the same
    end moves twice in a row, the kept end's residual is scaled by the
    Anderson-Bjorck weight 1 - f / f_replaced (Anderson and Bjorck
    1973), floored at the 1/2 of the Illinois method (Dowell and Jarratt
    1971): the bare weight nears 0, and its steps crawl, where the
    residual is flat below the root.  Once an element has taken as many
    steps as bisection of its bracket needs, it bisects.  It stops once
    hi - lo <= rel_tol * max(hi, 1e-300) and returns its bracket
    midpoint, so each element's steps and root depend on that element
    and its start alone.
    """
    x = np.nan_to_num(np.asarray(start, dtype=float), nan=1.0)
    x = np.clip(x, BRACKET_FLOOR, BRACKET_CAP)
    lo, hi, f_lo, f_hi = (np.full(x.shape, np.nan) for _ in range(4))
    growth = 1.25
    while (widening := np.isnan(lo) | np.isnan(hi)).any():
        f = np.asarray(residual(x), dtype=float)
        up = widening & (f >= 0)
        down = widening & ~(f >= 0)
        if (down & (x >= BRACKET_CAP)).any():
            raise error(f"root bracket exceeded {BRACKET_CAP:g}")
        np.copyto(hi, x, where=up)
        np.copyto(f_hi, f, where=up)
        np.copyto(lo, x, where=down)
        np.copyto(f_lo, f, where=down)
        below = np.isnan(lo) & (hi / growth < BRACKET_FLOOR)
        np.copyto(lo, 0.0, where=below)
        x = np.where(np.isnan(lo), hi / growth, np.minimum(lo * growth, BRACKET_CAP))
        growth = min(growth * growth, _MAX_GROWTH)
    budget = np.log2(np.maximum((hi - lo) / (rel_tol * hi), 1.0))
    side = np.zeros(x.shape)  # +1 (-1) where the last step moved hi (lo)
    steps = 0
    while (active := hi - lo > rel_tol * np.maximum(hi, 1e-300)).any():
        margin = (0.25 * rel_tol) * hi
        with np.errstate(invalid="ignore"):  # inf / inf where f_hi = inf
            x = hi - f_hi * ((hi - lo) / (f_hi - f_lo))
        x = np.clip(x, lo + margin, hi - margin)
        x = np.where(np.isnan(x) | (steps >= budget), 0.5 * (lo + hi), x)
        f = np.asarray(residual(x), dtype=float)
        up = f >= 0
        down = active & ~up
        up &= active
        # Anderson-Bjorck: where the same end moves twice in a row, scale
        # the kept end's residual by 1 - f / (the replaced end's residual),
        # floored at Illinois's 1/2 (NaN, from inf / inf or 0 / 0, too).
        with np.errstate(divide="ignore", invalid="ignore"):
            keep_lo = np.fmax(1.0 - f / f_hi, 0.5)
            keep_hi = np.fmax(1.0 - f / f_lo, 0.5)
        np.multiply(f_lo, keep_lo, out=f_lo, where=up & (side > 0))
        np.multiply(f_hi, keep_hi, out=f_hi, where=down & (side < 0))
        np.copyto(hi, x, where=up)
        np.copyto(f_hi, f, where=up)
        np.copyto(lo, x, where=down)
        np.copyto(f_lo, f, where=down)
        np.copyto(side, 1.0, where=up)
        np.copyto(side, -1.0, where=down)
        steps += 1
    return 0.5 * (lo + hi)
