"""Seeded inputs for the benchmark workloads.

Everything here is a pure function of the seed: the same seed gives the
same dataset files and the same command lines.  Nothing imports dsplim,
so the program under test receives only the generated inputs.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import stats

# The series route of the gamma-ratio engine serves a channel only while
# every shape stays at or below this bound and the background block does
# not underflow (shape * log(t / (t + 1)) >= -600).  Past that cliff one
# dataset costs over a minute, so the `limits` generator refuses to cross it.
SERIES_MAX_SHAPE = 20_000
SERIES_LOG_START_MIN = -600.0

# A channel with z = 1 has an upper-end tail P(S_upper > x) ~ u (n + 1) / x,
# so the shared grid must reach x_max ~ 1e8 u (n + 1) to capture 1 - 1e-8.
# It fails in two ways, each raising NumericalError:
# * x_max past GridConfig.hard_cap (1e12), when u (n + 1) exceeds ~5e3;
# * in a multi-channel dataset, the grid's lowest nonzero knot, 1e-9 x_max,
#   lies above every point where the other channels have evidence, so the
#   combined product has zero mass.
# The generator therefore puts z = 1 only in single-channel rows with
# u (n + 1) <= Z1_MAX_TAIL_SCALE; other heavy-tailed channels get z = 2, 3.
Z1_MAX_TAIL_SCALE = 4_000.0

# Scales (t, u) of each channel, per file.  They are fixed rather than
# drawn so that the cost mix of a run does not hang on one seed's draw of
# the 1-channel file's single (t, u); together they span t in [1, 50] and
# u in [5, 200].
FILE_SCALES = {
    1: ((5.0, 50.0),),
    2: ((2.0, 20.0), (20.0, 120.0)),
    4: ((1.2, 15.0), (6.0, 60.0), (25.0, 150.0), (50.0, 200.0)),
}
CHANNEL_COUNTS = tuple(FILE_SCALES)
HEAVY_TAIL_SHARE = 0.15  # channels with z in {1, 2, 3}
UNBOUNDED_SHARE = 0.05  # rows with z = 0 in every channel

# The paper's yardstick study and its small-rate companion.
PAPER = dict(t=33.0, u=100.0, eps=1.0, b=3.0)
SMALL = dict(t=3.3, u=10.0, eps=0.1, b=0.3)
METHODS = ("ds", "B1", "B2", "upper", "lower")
ENUM_FINE_GRID = "5:25:0.25"  # every enumerate op's s-grid is a subset
ENUM_TAIL = 1e-10


def _box_side(rate: float) -> int:
    return int(stats.poisson.ppf(1.0 - ENUM_TAIL, rate)) + 1


# Cells of the truncated (n, y, z) box that every enumerate op evaluates:
# the n margin at the largest rate eps * 25 + b, and the y and z margins.
ENUM_CELLS = (
    _box_side(SMALL["eps"] * 25.0 + SMALL["b"])
    * _box_side(SMALL["t"] * SMALL["b"])
    * _box_side(SMALL["u"] * SMALL["eps"])
)


def _rng(seed: int, *stream: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([seed, *stream]))


def _stratified(rng: np.random.Generator, size: int) -> np.ndarray:
    """Latin-hypercube uniforms: one draw in each of `size` equal strata,
    shuffled.  Keeps the input mix, and so the cost mix, nearly the same
    from seed to seed."""
    return (rng.permutation(size) + rng.random(size)) / size


def assert_series_route(n: int, y: int, z: int, t: float) -> None:
    """Raise unless both channel CDFs of (n, y, z, t) take the series route.

    The lower CDF has the largest background shape, y + 1, at
    background weight log(t / (t + 1)).
    """
    if max(n, y, z) + 1 > SERIES_MAX_SHAPE:
        raise ValueError(f"channel {(n, y, z)} exceeds the series shape bound")
    if (y + 1) * math.log(t / (t + 1.0)) < SERIES_LOG_START_MIN:
        raise ValueError(f"channel {(n, y, z, t)} underflows the series route")


def limits_files(seed: int, rows: int) -> dict[int, str]:
    """dsplim/1 file text for each channel count in CHANNEL_COUNTS.

    Each file has the scales FILE_SCALES gives it and holds up to `rows`
    distinct datasets drawn from the channel model: one signal rate per
    row up to 300, and per channel a background up to 4 and an efficiency
    in [0.05, 1], so main counts reach a few hundred.  HEAVY_TAIL_SHARE of
    the channels get z in {1, 2, 3} and UNBOUNDED_SHARE of the rows get
    z = 0 in every channel.
    """
    files = {}
    for c in CHANNEL_COUNTS:
        rng = _rng(seed, 1, c)
        t, u = (np.array(v) for v in zip(*FILE_SCALES[c]))
        counts = np.empty((rows, c, 3), dtype=np.int64)
        s = 300.0 * _stratified(rng, rows)  # channels share one signal rate
        for k in range(c):
            b = 0.2 + 3.8 * _stratified(rng, rows)
            eps = 0.05 + 0.95 * _stratified(rng, rows)
            z = np.maximum(rng.poisson(u[k] * eps), 4)
            # Heavy-tailed channels see a low efficiency, so their main
            # count stays consistent with the row's signal rate.
            heavy = rng.permutation(rows)[: round(HEAVY_TAIL_SHARE * rows)]
            z[heavy] = 1 + np.arange(heavy.size) % 3
            eps[heavy] = z[heavy] / u[k]
            counts[:, k, 0] = rng.poisson(eps * s + b)
            counts[:, k, 1] = rng.poisson(t[k] * b)
            wide = u[k] * (counts[:, k, 0] + 1) > Z1_MAX_TAIL_SCALE
            z[(z == 1) & (wide | (c > 1))] = 2
            counts[:, k, 2] = z
        unbounded = rng.permutation(rows)[: round(UNBOUNDED_SHARE * rows)]
        counts[unbounded, :, 2] = 0
        seen = set()
        lines = ["# dsplim/1", f"channels {c}"]
        lines += [f"scales {float(t[k])!r} {float(u[k])!r}" for k in range(c)]
        for row in counts:
            key = tuple(row.ravel().tolist())
            if key in seen:
                continue
            seen.add(key)
            for k, (n, y, z) in enumerate(row.tolist()):
                assert_series_route(n, y, z, float(t[k]))
            lines.append(" ".join(map(str, key)))
        files[c] = "\n".join(lines) + "\n"
    return files


def simulate_argv(kind: str, seed: int, op: int, output: str):
    """`dsplim simulate` command line for one operation, and the number of
    (dataset, method) evaluations it makes.

    simulate-paper: the paper configuration on the s-grid 20:40:5 with 80
    replicates each.  simulate-small: the small-rate configuration
    on the full 5:25:1 grid with 10 replicates each; its operations are
    short because identical ones vary by 20% in time on a 2-core host, so
    a run needs many of them for a steady median.  The simulation seed
    comes from (seed, op), so no two operations draw the same datasets.
    """
    rng = _rng(seed, 2, op)
    if kind == "simulate-paper":
        cfg, reps = PAPER, 80
        grid, window, n_s = "20:40:5", "20:40", 5
    else:
        cfg, reps = SMALL, 10
        grid, window, n_s = "5:25:1", "5:25", 21
    argv = [
        "simulate",
        "--t", str(cfg["t"]), "--u", str(cfg["u"]),
        "--eps", str(cfg["eps"]), "--b", str(cfg["b"]),
        "--s-grid", grid, "--summary-range", window,
        "--reps", str(reps), "--methods", ",".join(METHODS),
        "--seed", str(int(rng.integers(1, 2**31))),
        "--threads", "1", "--output", output,
    ]
    return argv, n_s * reps * len(METHODS)


def enumerate_argv(seed: int, op: int, output: str, threads: int) -> list[str]:
    """`dsplim coverage --mode enumerate` at the criterion-4 configuration.

    The s-grid always ends at 25, so the (n, y, z) box is always the
    same 20 x 13 x 13 cells; the seed picks the step (0.25, 0.5 or 1) and
    the start in [5, 6], so the rows are a subset of ENUM_FINE_GRID.
    """
    rng = _rng(seed, 3, op)
    step = (0.25, 0.5, 1.0)[int(rng.integers(0, 3))]
    lo = 5.0 + step * int(rng.integers(0, int(1.0 / step) + 1))
    return enumerate_cli(f"{lo}:25:{step}", output, threads)


def enumerate_cli(s_grid: str, output: str, threads: int, tail: float = ENUM_TAIL):
    return [
        "coverage", "--mode", "enumerate",
        "--t", str(SMALL["t"]), "--u", str(SMALL["u"]),
        "--eps", str(SMALL["eps"]), "--b", str(SMALL["b"]),
        "--s-grid", s_grid, "--quantiles", "0.9", "--enum-tail-eps", repr(tail),
        "--threads", str(threads), "--output", output,
    ]
