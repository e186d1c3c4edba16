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

A channel with z == 0 carries no information about the efficiency, so
every signal value stays fully plausible (F_upper is identically 0 for
finite x).  Such a channel is flagged ``improper``; a dataset whose
channels are all improper has no finite limit and raises
:class:`UnboundedLimit`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._gamma_ratio import (
    NumericalError,
    clamp_unit,
    conditioning_probability,
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
]

_MIN_CONDITIONING = 1e-250


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
        if not (self.t > 0 and self.u > 0):
            raise ValueError("scales t and u must be positive")


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
    1, 2, 4, ..., 2**k <= hard_cap at which every proper channel has
    F_upper(x_max) >= 1 - tail_eps.  The rung 1 is always on the
    ladder, even when hard_cap < 1.  The knots are half linearly and
    half logarithmically spaced on (0, x_max], plus x = 0.
    """

    points: int = 512
    tail_eps: float = 1e-8
    hard_cap: float = 1e12

    def __post_init__(self) -> None:
        if self.points < 16:
            raise ValueError("points must be >= 16")
        if not (0 < self.tail_eps < 1e-3):
            raise ValueError("tail_eps must lie in (0, 1e-3)")
        if not (0 < self.hard_cap < math.inf):
            raise ValueError("hard_cap must be positive and finite")


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


def _conditioning(ch: ChannelObservation) -> float:
    """P(N_upper >= Y_lower / t), the event both endpoint CDFs condition on."""
    den = conditioning_probability(ch.n + 1, 1.0, ch.y, 1.0 / ch.t)
    if den < _MIN_CONDITIONING:
        raise NumericalError(
            f"conditioning probability underflows for channel {ch}"
        )
    return den


def _channel_cdf(ch: ChannelObservation, x, num_shapes, method, quad, den):
    if np.any(np.asarray(x) < 0):
        raise ValueError("x must be >= 0")
    if den is None:
        den = _conditioning(ch)
    kn, kb, ke = num_shapes
    s = survival(x, kn, 1.0, kb, 1.0 / ch.t, ke, 1.0 / ch.u, method, quad)
    return clamp_unit(1.0 - s / den)


def channel_cdf_lower(
    ch: ChannelObservation,
    x,
    method: str = "auto",
    quad: QuadratureConfig | None = None,
    *,
    den: float | None = None,
):
    """CDF of the truncated interval's lower end at x (scalar or array).

    With n == 0 the lower end is pinned at 0 and the CDF is 1
    everywhere; that case falls out of the degenerate-shape
    conventions rather than a branch here.  ``den`` is the channel's
    conditioning probability when the caller already holds it.
    """
    return _channel_cdf(ch, x, (ch.n, ch.y + 1, ch.z + 1), method, quad, den)


def channel_cdf_upper(
    ch: ChannelObservation,
    x,
    method: str = "auto",
    quad: QuadratureConfig | None = None,
    *,
    den: float | None = None,
):
    """CDF of the interval's upper end at x (scalar or array).

    Identically 0 for finite x when z == 0: with no efficiency
    information the upper end is infinite and the channel is improper.
    ``den`` is as for :func:`channel_cdf_lower`.
    """
    return _channel_cdf(ch, x, (ch.n + 1, ch.y, ch.z), method, quad, den)


def shared_grid(channels, grid: GridConfig = GridConfig()) -> np.ndarray:
    """Evaluation knots shared by every channel of a dataset.

    x_max is the first rung of the power-of-two ladder 1, 2, 4, ...,
    2**k <= grid.hard_cap (see :class:`GridConfig`) at which every
    proper channel's F_upper reaches 1 - tail_eps.  Each proper channel
    is evaluated once on the whole ladder: a series pass costs about
    the same at the ladder's width as at a single point.

    Raises UnboundedLimit when no channel is proper (every z == 0), as
    no finite grid can capture the evidence, and NumericalError naming
    the channels still short of 1 - tail_eps when no rung passes.
    """
    proper = [ch for ch in channels if ch.z > 0]
    if not proper:
        raise UnboundedLimit(
            "all channels have z == 0: the upper limit is infinite"
        )
    top = max(math.frexp(grid.hard_cap)[1] - 1, 0)
    ladder = np.ldexp(1.0, np.arange(top + 1))
    passed = np.array(
        [
            channel_cdf_upper(ch, ladder) >= 1.0 - grid.tail_eps
            for ch in proper
        ]
    )
    ok = passed.all(axis=0)
    if not ok.any():
        short = [ch for ch, p in zip(proper, passed) if not p[-1]]
        raise NumericalError(
            f"grid search exceeded hard_cap={grid.hard_cap} before the "
            f"upper-end CDFs reached 1 - tail_eps; still short at "
            f"x={ladder[-1]:g}: {', '.join(map(str, short))}"
        )
    x_max = float(ladder[np.argmax(ok)])
    k_lin = grid.points // 2
    k_log = grid.points - k_lin
    lin = np.linspace(x_max / k_lin, x_max, k_lin)
    log = np.geomspace(x_max * 1e-9, x_max, k_log)
    return np.unique(np.concatenate([[0.0], lin, log]))


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
        xs = shared_grid([ch], grid)
    den = _conditioning(ch)
    f_lower = np.asarray(channel_cdf_lower(ch, xs, den=den))
    f_upper = np.asarray(channel_cdf_upper(ch, xs, den=den))
    r = np.maximum(f_lower - f_upper, 0.0)
    return ChannelCurves(
        xs=xs, f_lower=f_lower, f_upper=f_upper, r=r, improper=(ch.z == 0)
    )


def combine_channels(
    curves, grid: GridConfig = GridConfig()
) -> PlausibilityDensity:
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
    """Shared grid -> channel curves -> combined normalized density."""
    xs = shared_grid(dataset.channels, grid)
    curves = [channel_curves(ch, grid, xs) for ch in dataset.channels]
    return combine_channels(curves, grid)


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
