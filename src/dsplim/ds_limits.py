"""Belief-interval upper limits for the three-Poisson channel model.

A channel observes a main count n ~ Pois(eps*s + b) together with
subsidiary counts y ~ Pois(t*b) and z ~ Pois(u*eps) that pin down the
background b and efficiency eps.  Each of the three counts brackets
its rate by an a-random interval; the implied interval for the signal
s, truncated to s >= 0, has endpoints

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
has shapes (n + 1, y, z), the lower end (n, y + 1, z + 1).  An
interval state builds both from one block of efficiency masses, by
P(NB(z + 1, p) = j) = P(NB(z, p) = j) (z + j) / z (1 - p).  The grid
route (:func:`_grid_limits`) runs on a block of datasets at once: each
chunk of them builds one state over all its channels
(:func:`dsplim._gamma_ratio._interval_series`), of both endpoint
survivals and their conditioning probability den = P(NB(y, 1/(1+t))
<= n) (:func:`_channel_state`, the only endpoint-CDF code), and the
ladder probe and both endpoint curves of every row and channel read
it.  Every grid holds exactly ``points`` knots, so a chunk's knots are
one (rows, points) array, and the trapezoid, CDF and quantile run on
all its rows at once, each row as on its own.  A dataset of
:func:`dataset_limits`, :func:`dataset_density` or :func:`shared_grid`,
and the channel of the per-end CDFs, is a block of one row.  Off the series route a
row's state takes den from one beta CDF and evaluates each requested
end by quadrature.  For
one channel with z >= 2 the CDF also has a grid-free closed form in
the integrals of both endpoint survivals, which
:func:`ds_upper_limits_batch` inverts for many datasets at once from
their interval integrals (:func:`dsplim._gamma_ratio._interval_integrals`);
:func:`dsplim.evalharness.make_ds_method` takes every such row there.

A channel with z == 0 carries no information about the efficiency, so
every signal value stays fully plausible (F_upper is identically 0 for
finite x).  Such a channel is flagged ``improper``; a dataset whose
channels are all improper has no finite limit and raises
:class:`UnboundedLimit`.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from functools import cache

import numpy as np

from ._gamma_ratio import (
    _SERIES_TERMS,
    NumericalError,
    _interval_integrals,
    _interval_series,
    _series_carries,
    clamp_unit,
    conditioning_probability,
    quantile_start,
    series_roots,
    survival,
)

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
    1e12, the same for every grid.  A grid holds exactly ``points``
    knots: x = 0, points // 2 linearly spaced on (0, x_max] and the rest
    logarithmically spaced on [1e-9 x_max, x_max).  Where a linear and a
    log knot coincide both stay, as a zero-width trapezoid panel that
    adds no mass.
    """

    points: int = 512
    tail_eps: float = 1e-8

    def __post_init__(self) -> None:
        if not isinstance(self.points, numbers.Integral) or self.points < 16:
            raise ValueError("points must be an integer >= 16")
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


def _channel_state(counts, ts, us, method="auto"):
    """The C channels of rows of counts (rows, C, 3), channel c on the
    scales (ts[c], us[c]): (xs, which=(0, 1)) -> the endpoint CDFs at
    xs >= 0 of shape (rows, points), whose row of knots a row's channels
    share, as an array (len(which), C, rows, points) with one entry per
    requested end: which is (0,) for the lower end, (1,) for the upper
    end or (0, 1).

    "auto" takes the series for the channel rows where both ends' shapes
    are on the series route of ``survival(method="auto")``.  Those share
    one state of :func:`dsplim._gamma_ratio._interval_series` over all C
    channels, each on its own scales, which gives both ends and the
    conditioning probability den, so a call is one exp block per series
    length; one channel keeps its scales shared.  On the quadrature
    route den is one beta CDF per channel row and each requested end one
    quadrature survival per channel row.  Raises NumericalError naming
    the channel of the first channel row whose den underflows or whose
    CDF leaves [0, 1].
    """
    rows, n_channels = counts.shape[:2]
    # One entry per channel row, channel by channel: row j is of channel j // rows.
    n, y, z = counts.transpose(2, 1, 0).reshape(3, -1)
    wb, we = 1.0 / ts[0], 1.0 / us[0]
    if n_channels > 1:
        wb, we = 1.0 / np.repeat(ts, rows), 1.0 / np.repeat(us, rows)

    def channel(j):
        c = j // rows
        return ChannelObservation(n[j].item(), y[j].item(), z[j].item(), ts[c], us[c])

    def ends(j):  # the shapes and scales of channel row j's lower and upper end
        nj, yj, zj = n[j].item(), y[j].item(), z[j].item()
        wb, we = 1.0 / ts[j // rows], 1.0 / us[j // rows]
        return [(nj, 1.0, yj + 1, wb, zj + 1, we), (nj + 1, 1.0, yj, wb, zj, we)]

    if method == "auto":
        series = _series_carries(n + 1, y + 1, z + 1)  # both ends' shapes
    else:
        series = np.full(n.shape, method == "series")
    off = np.flatnonzero(~series)
    with np.errstate(all="ignore"):
        if off.size < n.size:  # a row is on the series route
            kn, kb, ke = n + 1, y, z
            if off.size:
                # A row off it holds the shapes (1, 0, 0) in the state, and
                # takes its den and CDFs from the quadrature route instead.
                kn, kb, ke = np.where(series, [kn, kb, ke], [[1], [0], [0]])
            den, survivals = _interval_series(kn, 1.0, kb, wb, ke, we)
            den = den.copy()
        else:
            den = np.empty(n.shape)
        for j in off:
            den[j] = conditioning_probability(*ends(j)[1][:4])
    if (den < _MIN_CONDITIONING).any():
        j = np.argmax(den < _MIN_CONDITIONING)
        raise NumericalError(
            f"conditioning probability underflows for channel {channel(j)}"
        )

    def cdfs(xs, which=(0, 1)) -> np.ndarray:
        x = xs if n_channels == 1 else np.tile(xs, (n_channels, 1))
        with np.errstate(all="ignore"):
            if off.size < n.size:
                surv = survivals(x)[which[0] : which[-1] + 1]
            else:
                surv = np.empty((len(which),) + x.shape)
            for j in off:
                surv[:, j] = [survival(x[j], *ends(j)[i], "quadrature") for i in which]
            f = 1.0 - surv / den[:, None]
        try:
            f = clamp_unit(f)
        except NumericalError:
            for j in range(n.size):
                try:
                    clamp_unit(f[:, j])
                except NumericalError as exc:
                    raise NumericalError(f"{exc} for channel {channel(j)}") from None
        return f.reshape(len(which), n_channels, rows, -1)

    return cdfs


def _one_row(channels):
    """Channels as one row of the grid route: (1, C, 3) counts, t and u."""
    counts = np.array([[(ch.n, ch.y, ch.z) for ch in channels]])
    return counts, [ch.t for ch in channels], [ch.u for ch in channels]


def _one_channel(ch: ChannelObservation, x, which, method="auto"):
    """The endpoint CDFs of one channel at x (scalar or 1-d), one row per end."""
    counts, ts, us = _one_row([ch])
    f = _channel_state(counts, ts, us, method)(np.reshape(x, (1, -1)), which)[:, 0, 0]
    return f[:, 0] if np.ndim(x) == 0 else f


def channel_cdf_lower(ch: ChannelObservation, x, method: str = "auto"):
    """CDF of the truncated interval's lower end at x (scalar or array).

    With n == 0 the lower end is pinned at 0 and the CDF is 1
    everywhere; that case falls out of the degenerate-shape
    conventions rather than a branch here.  The lower row of
    :func:`_channel_state`.
    """
    return _one_channel(ch, x, (0,), method)[0]


def channel_cdf_upper(ch: ChannelObservation, x, method: str = "auto"):
    """CDF of the interval's upper end at x (scalar or array).

    Identically 0 for finite x when z == 0: with no efficiency
    information the upper end is infinite and the channel is improper.
    The upper row of :func:`_channel_state`.
    """
    return _one_channel(ch, x, (1,), method)[0]


def _proper(channels) -> list:
    """The channels with z > 0; UnboundedLimit when there are none."""
    proper = [ch for ch in channels if ch.z > 0]
    if not proper:
        raise UnboundedLimit(
            "all channels have z == 0: the upper limit is infinite"
        )
    return proper


@cache
def _rung_knots(x_max: float, points: int) -> np.ndarray:
    """Exactly ``points`` nondecreasing knots from 0 to x_max: x = 0, then
    points // 2 linearly spaced on (0, x_max] and the rest logarithmically
    spaced on [1e-9 x_max, x_max), sorted together.  Where a linear and a
    log knot coincide both stay, as a zero-width trapezoid panel.
    Read-only, as it is shared."""
    k_lin = points // 2
    lin = np.linspace(x_max / k_lin, x_max, k_lin)
    log = np.geomspace(x_max * 1e-9, x_max, points - k_lin)
    knots = np.sort(np.concatenate([[0.0], lin, log[:-1]]))
    knots.flags.writeable = False
    return knots


def _grid_knots(counts, ts, us, state, grid: GridConfig) -> np.ndarray:
    """The knots of every row of the (rows, C, 3) counts, as one array
    (rows, grid.points), probing the upper-end CDFs of its channels
    through their :func:`_channel_state` at every row, and reading them
    where z > 0.

    A row's x_max is the first rung of the ladder 1, 2, 4, ...,
    2**k <= HARD_CAP at which all of its proper channels pass.  Raises
    NumericalError naming the channels of the first row that no rung
    passes.
    """
    ladder = np.ldexp(1.0, np.arange(max(math.frexp(HARD_CAP)[1] - 1, 0) + 1))
    probe = np.repeat(ladder[None], len(counts), axis=0)
    proper = counts[:, :, 2].T > 0  # (C, rows)
    passed = state(probe, (1,))[0] >= 1.0 - grid.tail_eps
    ok = (passed | ~proper[:, :, None]).all(axis=0)
    short = (proper & ~passed[:, :, -1]).T  # still short at the top rung
    found = ok.any(axis=1)
    if not found.all():
        j = np.argmin(found)
        names = [ChannelObservation(*counts[j, c].tolist(), ts[c], us[c])
                 for c in np.flatnonzero(short[j])]
        raise NumericalError(
            f"grid search exceeded hard_cap={HARD_CAP} before the "
            f"upper-end CDFs reached 1 - tail_eps; still short at "
            f"x={ladder[-1]:g}: {', '.join(map(str, names))}"
        )
    x_max = ladder[np.argmax(ok, axis=1)].tolist()
    return np.array([_rung_knots(x, grid.points) for x in x_max])


def shared_grid(channels, grid: GridConfig = GridConfig()) -> np.ndarray:
    """Evaluation knots shared by every channel of a dataset: exactly
    grid.points of them, coincident knots kept (see :class:`GridConfig`).

    x_max is the first rung of the power-of-two ladder 1, 2, 4, ...,
    2**k <= HARD_CAP (1e12, see :class:`GridConfig`) at which every
    proper channel's F_upper reaches 1 - tail_eps.  Each proper channel
    is evaluated once on the whole ladder: a series pass costs about
    the same at the ladder's width as at a single point.

    Raises UnboundedLimit when no channel is proper (every z == 0), as
    no finite grid can capture the evidence, and NumericalError naming
    the channels still short of 1 - tail_eps when no rung passes.
    """
    counts, ts, us = _one_row(_proper(channels))
    return _grid_knots(counts, ts, us, _channel_state(counts, ts, us), grid)[0]


def _gap(f) -> np.ndarray:
    """r = F_lower - F_upper, floored at 0, from stacked endpoint CDFs."""
    return np.maximum(f[0] - f[1], 0.0)


def _combine(xs, gaps):
    """Per row of (rows, points) knots xs: the product of the channel
    gaps (an iterable, taken one at a time), normalized by the trapezoid
    rule, and its CDF.  Returns (pdf, cdf, normalization); a row without
    mass has normalization 0."""
    gaps = iter(gaps)
    prod = next(gaps)
    for r in gaps:
        prod = prod * r
    dx = xs[:, 1:] - xs[:, :-1]
    # np.trapezoid's sum, row by row
    norm = (dx * (prod[:, 1:] + prod[:, :-1]) / 2.0).sum(axis=-1)
    with np.errstate(all="ignore"):
        pdf = prod / norm[:, None]
    cdf = np.zeros_like(xs)
    np.cumsum(0.5 * (pdf[:, 1:] + pdf[:, :-1]) * dx, axis=-1, out=cdf[:, 1:])
    return pdf, np.minimum(cdf, 1.0, out=cdf), norm


def _quantiles(xs, cdf, quantiles) -> np.ndarray:
    """Per row of (rows, points) knots and nondecreasing CDF: the smallest
    s with CDF(s) = q at each quantile, linearly interpolated between
    knots, as an array (len(quantiles), rows).  Where the CDF is flat at
    level q the smallest attaining knot is taken."""
    qs = np.array(quantiles, dtype=float, ndmin=2).T
    if not ((qs > 0.0) & (qs < 1.0)).all():
        raise ValueError("quantile must lie strictly inside (0, 1)")
    # The index searchsorted(cdf, q, side="left") takes in each row.
    i = (cdf < qs[:, :, None]).sum(axis=-1)
    points = xs.shape[1]
    # Flat indices of knot i (the last knot when i == points) and knot i - 1.
    hi = np.minimum(i, points - 1) + np.arange(0, xs.size, points)
    x0, x1, c0, c1 = xs.take(hi - 1), xs.take(hi), cdf.take(hi - 1), cdf.take(hi)
    with np.errstate(all="ignore"):
        inner = np.where(c1 == c0, x1, x0 + (qs - c0) / (c1 - c0) * (x1 - x0))
    return np.where(i == 0, xs[:, 0], np.where(i == points, xs[:, -1], inner))


def _grid_limits(counts, ts, us, quantiles, grid: GridConfig) -> np.ndarray:
    """Grid-route upper limits of many datasets of C channels: ``counts``
    holds one row (n_1, y_1, z_1, ..., n_C, y_C, z_C) per dataset, and
    ``ts``, ``us`` the C channels' scales.  Returns an array (len(quantiles),
    rows), +inf for a row whose channels all have z == 0.

    The rows run in chunks: a chunk's state holds x-free arrays of
    2 * max(n + 1) * rows * C terms, which a chunk keeps within
    _SERIES_TERMS.  Each chunk builds one state over all C channels,
    which the ladder probe and both endpoint curves on the chunk's one
    (rows, points) array of knots reuse, and the channels' curves are
    folded into the product one channel at a time;
    the trapezoid, CDF and quantile run on all rows at once, each row as
    on its own, so a row's limits do not depend on the rows beside it.
    Raises NumericalError naming the first row that has none.
    """
    counts = counts.reshape(len(counts), len(ts), 3)
    if counts.min(initial=0) < 0:
        raise ValueError("counts must be nonnegative integers")
    out = np.full((len(quantiles), len(counts)), math.inf)
    bounded = np.flatnonzero(counts[:, :, 2].any(axis=1))
    terms = 2 * (int(counts[:, :, 0].max(initial=0)) + 1) * len(ts)
    step = max(1, _SERIES_TERMS // terms)
    for first in range(0, len(bounded), step):
        rows = bounded[first : first + step]
        chunk = counts[rows]
        state = _channel_state(chunk, ts, us)
        xs = _grid_knots(chunk, ts, us, state, grid)
        _, cdf, norm = _combine(xs, map(_gap, state(xs).swapaxes(0, 1)))
        if not (norm > 0).all():
            row = chunk[np.argmin(norm > 0)].tolist()
            names = ", ".join(str(ChannelObservation(*ch, t, u))
                              for ch, t, u in zip(row, ts, us))
            raise NumericalError(
                f"combined commonality product has zero mass for {names}"
            )
        out[:, rows] = _quantiles(xs, cdf, quantiles)
    return out


def _dataset_curves(channels, grid: GridConfig):
    """The shared grid and every channel's curves on it, from one state
    of all channels that the ladder probe and both curves reuse: one row
    of the grid route."""
    _proper(channels)
    counts, ts, us = _one_row(channels)
    state = _channel_state(counts, ts, us)
    xs = _grid_knots(counts, ts, us, state, grid)
    curves = state(xs)[:, :, 0].swapaxes(0, 1)
    return xs[0], [_curves(xs[0], f, ch.z == 0) for ch, f in zip(channels, curves)]


def _curves(xs, f, improper: bool) -> ChannelCurves:
    return ChannelCurves(
        xs=xs, f_lower=f[0], f_upper=f[1], r=_gap(f), improper=improper
    )


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
    return _curves(xs, _one_channel(ch, xs, (0, 1)), ch.z == 0)


def combine_channels(curves) -> PlausibilityDensity:
    """Multiply channel commonality curves and normalize to a density.

    All curves must share one knot grid (the dataset pipeline
    guarantees this); the product is then exact at the knots and
    independent of channel order.  One row of the grid route's
    combination.
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
    pdf, cdf, norm = _combine(xs[None], [c.r[None] for c in curves])
    if not norm[0] > 0:
        raise NumericalError("combined commonality product has zero mass")
    return PlausibilityDensity(
        xs=xs, pdf=pdf[0], cdf=cdf[0], normalization=float(norm[0])
    )


def dataset_density(
    dataset: Dataset, grid: GridConfig = GridConfig()
) -> PlausibilityDensity:
    """One state of all channels -> shared grid -> channel curves ->
    combined normalized density."""
    return combine_channels(_dataset_curves(dataset.channels, grid)[1])


def upper_limit(density: PlausibilityDensity, q: float) -> float:
    """Smallest s with CDF(s) = q, linearly interpolated between knots.

    When the CDF is flat at level q the smallest attaining knot is
    returned (the conservative, shorter limit).
    """
    return float(_quantiles(density.xs[None], density.cdf[None], [q])[0, 0])


def dataset_limits(
    dataset: Dataset, quantiles, grid: GridConfig = GridConfig()
) -> list[float]:
    """Upper limits of one dataset at each requested quantile: the one-row
    :func:`_grid_limits`."""
    _proper(dataset.channels)
    quantiles = list(quantiles)
    return _grid_limits(*_one_row(dataset.channels), quantiles, grid)[:, 0].tolist()


# Relative bracket width at which ds_upper_limits_batch stops a limit.
_EXACT_REL_TOL = 1e-10


def _batch_counts(ns, ys, zs) -> list[np.ndarray]:
    """The counts (n, y, z) of a batch of single-channel rows as integer
    arrays.  Raises ValueError, as :class:`ChannelObservation` does, on a
    count that is not a nonnegative integer."""
    counts = []
    for name, values in zip("nyz", (ns, ys, zs)):
        values = np.asarray(values)
        whole = values.dtype.kind in "biu" or np.all(np.isfinite(values)
                                                      & (np.rint(values) == values))
        if not whole or np.any(values < 0):
            raise ValueError(f"count {name} must be a nonnegative integer")
        counts.append(values.astype(int))
    return counts


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

    and the conditioning probability cancels.  Both come from the
    interval integrals of the rows
    (:func:`dsplim._gamma_ratio._interval_integrals` on (n+1, y, z)), J(inf)
    from their x-free background sums alone.  Every row must be one of
    :func:`exact_rows`.  G(X) = q is solved per (dataset, quantile) pair
    by :func:`dsplim._gamma_ratio.series_roots` on the log of the mass
    above X, to a relative width of _EXACT_REL_TOL, so each limit is
    independent of the rows batched with it.  Each pair starts at the
    quantile guess of the shapes (n + 1, y, z - 1): G's tail decays one
    power of X slower than the upper-end survival, and at (0, 0, z) the
    limit is u * ((1 - q)**(-1 / (z - 1)) - 1).  Raises NumericalError
    naming the first row whose mass J_up(inf) - J_lo(inf) underflows,
    and ValueError on a count that is not a nonnegative integer
    (:func:`_batch_counts`).  No quantiles give a (0, rows) array.
    """
    ns, ys, zs = _batch_counts(ns, ys, zs)
    if not exact_rows(ns, ys, zs).all():
        raise ValueError("rows must be exact_rows: z >= 2 and series shapes")

    def residual(integrals, _den, rows, qs, at_infinity):
        def mass(x):  # J_up(x) - J_lo(x)
            lower, upper = integrals(x)
            return upper - lower

        norm = at_infinity[1] - at_infinity[0]  # the unnormalized mass of every pair
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

    return series_roots((ns + 1, ys, zs), t, u, quantiles, _EXACT_REL_TOL, residual,
                        _interval_integrals)
