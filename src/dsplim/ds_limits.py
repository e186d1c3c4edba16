"""Belief-interval upper limits for the three-Poisson channel model.

A channel observes a main count n ~ Pois(eps*s + b) together with
subsidiary counts y ~ Pois(t*b) and z ~ Pois(u*eps) that pin down the
background b and efficiency eps.  Each of the three counts brackets
its rate by an a-random interval (see :mod:`dsplim.poisson_dsm`); the
implied interval for the signal s, truncated to s >= 0, has endpoints

    S_lower = (N_lower - Y_upper / t) / (Z_upper / u),
    S_upper = (N_upper - Y_lower / t) / (Z_lower / u),

where (N, Y, Z) intervals have unit-scale gamma lower ends with shapes
(n, y, z) and independent unit-exponential gaps.  Conditioning on the
interval intersecting s >= 0 (the event N_upper >= Y_lower / t) and
clamping the lower end at 0 gives the pair of endpoint CDFs computed
by :func:`channel_cdf_lower` / :func:`channel_cdf_upper`.

The per-channel evidence about a candidate signal value x is the gap
r(x) = F_lower(x) - F_upper(x): the probability that the channel's
interval covers x.  Channels multiply, so the combined (plausibility-
transform) density is f(x) proportional to the product of the r_i(x),
normalized on a shared grid; upper limits are quantiles of its CDF.

The two ends differ by one unit of shape in each gamma: the upper end
has shapes (n + 1, y, z), the lower end (n, y + 1, z + 1).  One
interval state (:func:`dsplim._gamma_ratio._interval_series`) builds
both from one block of efficiency masses, by
P(NB(z + 1, p) = j) = P(NB(z, p) = j) (z + j) / z (1 - p), and serves
both routes to a limit.  On the grid route a channel builds one state
of both endpoint survivals and their conditioning probability
den = P(NB(y, 1/(1+t)) <= n) (:func:`_channel_state`, the only
endpoint-CDF code): the grid's ladder probe, both endpoint curves and
the per-end CDFs read it.  Off the series route that state takes den
from one beta CDF and evaluates each requested end by quadrature.  For
one channel with z >= 2 the CDF also has a grid-free closed form in
the integrals of both endpoint survivals, which
:func:`ds_upper_limits_batch` inverts for many datasets at once from
the integrated interval state, one per dataset;
:func:`dsplim.evalharness.make_ds_method` takes every such row there.

A channel with z == 0 carries no information about the efficiency, so
every signal value stays fully plausible (F_upper is identically 0 for
finite x).  Such a channel is flagged ``improper``; a dataset whose
channels are all improper has no finite limit and raises
:class:`UnboundedLimit`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial

import numpy as np

from ._gamma_ratio import (
    NumericalError,
    _interval_series,
    _series_carries,
    clamp_unit,
    conditioning_probability,
    quantile_start,
    series_roots,
    survival,
)
from .specfun import QuadratureConfig

__all__ = [
    "ChannelObservation",
    "Dataset",
    "GridConfig",
    "ChannelCurves",
    "PlausibilityDensity",
    "UnboundedLimit",
    "NumericalError",
    "channel_cdf_lower",
    "channel_cdf_upper",
    "channel_curves",
    "shared_grid",
    "combine_channels",
    "dataset_density",
    "upper_limit",
    "dataset_limits",
    "exact_rows",
    "ds_upper_limits_batch",
]

_MIN_CONDITIONING = 1e-250
# The largest grid upper end x_max that shared_grid may choose.
HARD_CAP = 1e12


class UnboundedLimit(RuntimeError):
    """No finite upper limit exists (no channel constrains the efficiency)."""


@dataclass(frozen=True)
class ChannelObservation:
    """One channel's counts (n, y, z) and known scales (t, u)."""

    n: int
    y: int
    z: int
    t: float
    u: float

    def __post_init__(self) -> None:
        for name in ("n", "y", "z"):
            v = getattr(self, name)
            if v < 0 or v != int(v):
                raise ValueError(f"count {name} must be a nonnegative integer")
        if not (0 < self.t < math.inf and 0 < self.u < math.inf):
            raise ValueError("scales t and u must be positive and finite")


@dataclass(frozen=True)
class Dataset:
    """An ordered collection of channels sharing one signal rate."""

    channels: tuple[ChannelObservation, ...]
    label: str = ""

    def __post_init__(self) -> None:
        object.__setattr__(self, "channels", tuple(self.channels))
        if len(self.channels) < 1:
            raise ValueError("a dataset needs at least one channel")


@dataclass(frozen=True)
class GridConfig:
    """Shared evaluation-grid policy.

    The grid upper end x_max is the smallest power of two on the ladder
    1, 2, 4, ..., 2**k <= HARD_CAP at which every proper channel has
    F_upper(x_max) >= 1 - tail_eps.  HARD_CAP is the module constant
    1e12, the same for every grid.  The knots are half linearly and half
    logarithmically spaced on (0, x_max], plus x = 0.
    """

    points: int = 512
    tail_eps: float = 1e-8

    def __post_init__(self) -> None:
        if self.points < 16:
            raise ValueError("points must be >= 16")
        if not (0 < self.tail_eps < 1e-3):
            raise ValueError("tail_eps must lie in (0, 1e-3)")


@dataclass(frozen=True)
class ChannelCurves:
    """Endpoint CDFs and their gap r(x) on a grid, for one channel."""

    xs: np.ndarray
    f_lower: np.ndarray
    f_upper: np.ndarray
    r: np.ndarray
    improper: bool

    def __post_init__(self) -> None:
        n = len(self.xs)
        if not (len(self.f_lower) == len(self.f_upper) == len(self.r) == n):
            raise ValueError("curve arrays must share the grid length")


@dataclass(frozen=True)
class PlausibilityDensity:
    """Normalized combined density, its CDF, and the normalizing mass."""

    xs: np.ndarray
    pdf: np.ndarray
    cdf: np.ndarray
    normalization: float


def _channel_state(ch: ChannelObservation, method="auto", quad=None):
    """(x, which) -> the endpoint CDFs of one channel at x >= 0: one row
    per requested end (0 lower, 1 upper; both by default), one value per
    row at scalar x.  "auto" takes the series when both ends' shapes are
    on the series route of ``survival(method="auto")``.  There both ends
    and the conditioning probability den come from one state of
    :func:`dsplim._gamma_ratio._interval_series`, so a call is one exp
    block; on the quadrature route den is one beta CDF and each
    requested end one quadrature survival.
    """
    if method == "auto":
        carried = _series_carries([ch.n + 1, ch.n], [ch.y, ch.y + 1], [ch.z, ch.z + 1])
        method = "series" if carried.all() else "quadrature"
    wb, we = 1.0 / ch.t, 1.0 / ch.u
    # The shapes and scales of the lower and the upper end.
    ends = [(ch.n, 1.0, ch.y + 1, wb, ch.z + 1, we),
            (ch.n + 1, 1.0, ch.y, wb, ch.z, we)]
    if method == "series":
        with np.errstate(all="ignore"):
            den, series = _interval_series(*ends[1])

        def survivals(x, which):
            return series(x)[list(which)]

    else:
        den = conditioning_probability(*ends[1][:4])

        def survivals(x, which):
            return np.array([survival(x, *ends[i], method, quad) for i in which])

    if den < _MIN_CONDITIONING:
        raise NumericalError(f"conditioning probability underflows for channel {ch}")

    def cdfs(x, which=(0, 1)) -> np.ndarray:
        xs = np.atleast_1d(np.asarray(x, dtype=float))
        with np.errstate(all="ignore"):
            f = clamp_unit(1.0 - survivals(xs, which) / den)
        return f[:, 0] if np.ndim(x) == 0 else f

    return cdfs


def channel_cdf_lower(
    ch: ChannelObservation,
    x,
    method: str = "auto",
    quad: QuadratureConfig | None = None,
):
    """CDF of the truncated interval's lower end at x (scalar or array).

    With n == 0 the lower end is pinned at 0 and the CDF is 1
    everywhere; that case falls out of the degenerate-shape
    conventions rather than a branch here.  The lower row of
    :func:`_channel_state`.
    """
    return _channel_state(ch, method, quad)(x, (0,))[0]


def channel_cdf_upper(
    ch: ChannelObservation,
    x,
    method: str = "auto",
    quad: QuadratureConfig | None = None,
):
    """CDF of the interval's upper end at x (scalar or array).

    Identically 0 for finite x when z == 0: with no efficiency
    information the upper end is infinite and the channel is improper.
    The upper row of :func:`_channel_state`.
    """
    return _channel_state(ch, method, quad)(x, (1,))[0]


def _proper(channels) -> list:
    """The channels with z > 0; UnboundedLimit when there are none."""
    proper = [ch for ch in channels if ch.z > 0]
    if not proper:
        raise UnboundedLimit(
            "all channels have z == 0: the upper limit is infinite"
        )
    return proper


def _grid_knots(channels, states, grid: GridConfig) -> np.ndarray:
    """The knots of :func:`shared_grid`, probing the upper-end CDF of each
    proper channel through its state from :func:`_channel_state`."""
    proper = [(ch, state) for ch, state in zip(channels, states) if ch.z > 0]
    top = max(math.frexp(HARD_CAP)[1] - 1, 0)
    ladder = np.ldexp(1.0, np.arange(top + 1))
    passed = np.array(
        [state(ladder, (1,))[0] >= 1.0 - grid.tail_eps for _, state in proper]
    )
    ok = passed.all(axis=0)
    if not ok.any():
        short = [ch for (ch, _), p in zip(proper, passed) if not p[-1]]
        raise NumericalError(
            f"grid search exceeded hard_cap={HARD_CAP} before the "
            f"upper-end CDFs reached 1 - tail_eps; still short at "
            f"x={ladder[-1]:g}: {', '.join(map(str, short))}"
        )
    x_max = float(ladder[np.argmax(ok)])
    k_lin = grid.points // 2
    k_log = grid.points - k_lin
    lin = np.linspace(x_max / k_lin, x_max, k_lin)
    log = np.geomspace(x_max * 1e-9, x_max, k_log)
    return np.unique(np.concatenate([[0.0], lin, log]))


def shared_grid(channels, grid: GridConfig = GridConfig()) -> np.ndarray:
    """Evaluation knots shared by every channel of a dataset.

    x_max is the first rung of the power-of-two ladder 1, 2, 4, ...,
    2**k <= HARD_CAP (1e12, see :class:`GridConfig`) at which every
    proper channel's F_upper reaches 1 - tail_eps.  Each proper channel
    is evaluated once on the whole ladder: a series pass costs about
    the same at the ladder's width as at a single point.

    Raises UnboundedLimit when no channel is proper (every z == 0), as
    no finite grid can capture the evidence, and NumericalError naming
    the channels still short of 1 - tail_eps when no rung passes.
    """
    proper = _proper(channels)
    return _grid_knots(proper, [_channel_state(ch) for ch in proper], grid)


def _curves(ch: ChannelObservation, state, xs: np.ndarray) -> ChannelCurves:
    f_lower, f_upper = state(xs)
    r = np.maximum(f_lower - f_upper, 0.0)
    return ChannelCurves(
        xs=xs, f_lower=f_lower, f_upper=f_upper, r=r, improper=(ch.z == 0)
    )


def _dataset_curves(channels, grid: GridConfig):
    """The shared grid and every channel's curves on it, from one
    :func:`_channel_state` per channel that the grid's ladder probe and
    both endpoint curves reuse."""
    _proper(channels)
    states = [_channel_state(ch) for ch in channels]
    xs = _grid_knots(channels, states, grid)
    return xs, [_curves(ch, state, xs) for ch, state in zip(channels, states)]


def channel_curves(
    ch: ChannelObservation,
    grid: GridConfig = GridConfig(),
    xs: np.ndarray | None = None,
) -> ChannelCurves:
    """Evaluate both endpoint CDFs and r = F_lower - F_upper on a grid.

    If xs is omitted, the channel gets its own grid from the policy;
    dataset pipelines pass the shared grid instead so that channel
    products are exact at the knots.
    """
    if xs is None:
        return _dataset_curves([ch], grid)[1][0]
    return _curves(ch, _channel_state(ch), xs)


def combine_channels(curves) -> PlausibilityDensity:
    """Multiply channel commonality curves and normalize to a density.

    All curves must share one knot grid (the dataset pipeline
    guarantees this); the product is then exact at the knots and
    independent of channel order.
    """
    curves = list(curves)
    if not curves:
        raise ValueError("combine_channels needs at least one channel")
    xs = curves[0].xs
    for c in curves[1:]:
        if not np.array_equal(c.xs, xs):
            raise ValueError("channel curves must share one grid")
    if all(c.improper for c in curves):
        raise UnboundedLimit(
            "all channels have z == 0: the combined density does not exist"
        )
    prod = np.ones_like(xs)
    for c in curves:
        prod = prod * c.r
    norm = float(np.trapezoid(prod, xs))
    if not norm > 0:
        raise NumericalError("combined commonality product has zero mass")
    pdf = prod / norm
    steps = 0.5 * (pdf[1:] + pdf[:-1]) * np.diff(xs)
    cdf = np.concatenate([[0.0], np.cumsum(steps)])
    cdf = np.minimum(cdf, 1.0)
    return PlausibilityDensity(xs=xs, pdf=pdf, cdf=cdf, normalization=norm)


def dataset_density(
    dataset: Dataset, grid: GridConfig = GridConfig()
) -> PlausibilityDensity:
    """One state per channel -> shared grid -> channel curves -> combined
    normalized density."""
    return combine_channels(_dataset_curves(dataset.channels, grid)[1])


def upper_limit(density: PlausibilityDensity, q: float) -> float:
    """Smallest s with CDF(s) = q, linearly interpolated between knots.

    When the CDF is flat at level q the smallest attaining knot is
    returned (the conservative, shorter limit).
    """
    if not 0.0 < q < 1.0:
        raise ValueError("quantile must lie strictly inside (0, 1)")
    cdf, xs = density.cdf, density.xs
    i = int(np.searchsorted(cdf, q, side="left"))
    if i == 0:
        return float(xs[0])
    if i >= len(xs):
        return float(xs[-1])
    c0, c1 = cdf[i - 1], cdf[i]
    if c1 == c0:
        return float(xs[i])
    return float(xs[i - 1] + (q - c0) / (c1 - c0) * (xs[i] - xs[i - 1]))


def dataset_limits(
    dataset: Dataset, quantiles, grid: GridConfig = GridConfig()
) -> list[float]:
    """Upper limits of one dataset at each requested quantile."""
    density = dataset_density(dataset, grid)
    return [upper_limit(density, q) for q in quantiles]


# Relative bracket width at which ds_upper_limits_batch stops a limit.
_EXACT_REL_TOL = 1e-10


def exact_rows(ns, ys, zs) -> np.ndarray:
    """Single-channel rows :func:`ds_upper_limits_batch` can take: z >= 2
    and both endpoint shape triples on the series route of
    ``survival(method="auto")``.  ``make_ds_method`` sends it all of them."""
    ns, ys, zs = (np.asarray(a) for a in (ns, ys, zs))
    return (zs >= 2) & _series_carries(ns + 1, ys + 1, zs + 1)


def ds_upper_limits_batch(ns, ys, zs, t: float, u: float, quantiles) -> np.ndarray:
    """Grid-free upper limits of many single-channel datasets.

    Returns an array of shape (len(quantiles), len(ns)).  For one channel
    the plausibility CDF has a closed form: with J_up and J_lo the
    integrated survival functions of the upper-end shapes (n+1, y, z)
    and the lower-end shapes (n, y+1, z+1),

        G(X) = (J_up(X) - J_lo(X)) / (J_up(inf) - J_lo(inf)),

    and the conditioning probability cancels.  Both come from one
    integrated interval state per row
    (:func:`dsplim._gamma_ratio._interval_series` on (n+1, y, z)), J(inf)
    from its x-free background sums alone.  Every row must be one of
    :func:`exact_rows`.  G(X) = q is solved per (dataset, quantile) pair
    by :func:`dsplim._gamma_ratio.series_roots` on the log of the mass
    above X, to a relative width of _EXACT_REL_TOL, so each limit is
    independent of the rows batched with it.  Each pair starts at the
    quantile guess of the shapes (n + 1, y, z - 1): G's tail decays one
    power of X slower than the upper-end survival, and at (0, 0, z) the
    limit is u * ((1 - q)**(-1 / (z - 1)) - 1).  Raises NumericalError
    naming the first row whose mass J_up(inf) - J_lo(inf) underflows.
    """
    ns, ys, zs = (np.asarray(a, dtype=int) for a in (ns, ys, zs))
    if not exact_rows(ns, ys, zs).all():
        raise ValueError("rows must be exact_rows: z >= 2 and series shapes")

    def residual(integrals, _den, rows, qs):
        def mass(x):  # J_up(x) - J_lo(x)
            lower, upper = integrals(x)
            return upper - lower

        norm = mass(np.full(rows.size, np.inf))  # the unnormalized mass of every pair
        if not np.all(norm > 0):
            j = rows[np.argmin(norm > 0)]
            raise NumericalError(
                "plausibility mass on s >= 0 underflows for row "
                f"(n, y, z) = ({ns[j]}, {ys[j]}, {zs[j]})"
            )
        # G(x) >= q  <=>  the mass above x is at most (1 - q) * norm
        log_target = np.log((1.0 - qs) * norm)
        start = quantile_start(ns[rows] + 1, ys[rows], zs[rows] - 1, t, u, qs)
        return start, lambda x: log_target - np.log(np.maximum(norm - mass(x), 0.0))

    state = partial(_interval_series, integrated=True)
    shapes = (ns + 1, ys, zs)
    return series_roots(shapes, t, u, quantiles, _EXACT_REL_TOL, residual, state)
