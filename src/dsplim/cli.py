"""Command-line front end and the dsplim/1 dataset file format.

Format (self-describing header, ``#`` comments allowed):

    channels <N>
    scales <t_1> <u_1>
    ...            (one scales line per channel)
    n_1 y_1 z_1 ... n_N y_N z_N     (one dataset per line)

All CSV output uses '.' decimals, 17 significant digits, LF line
endings, and a fixed header row.  Exit codes: 0 success, 2 parse or
validation error, or arrays too large to allocate (``--reps`` or
``--samples`` beyond memory), 3 numerical failure (for ``limits``: some
row has status ``failed``; for ``credibility``: some row has an empty
``credibility`` field; for ``curves``: some dataset has no rows), 4
unbounded-only results.
"""

from __future__ import annotations

import argparse
import csv
import math
import os
import sys
from functools import cache

import numpy as np

from ._gamma_ratio import NumericalError
from .bayes import PRIOR_PRESETS
from .ds_limits import (
    ChannelObservation,
    Dataset,
    GridConfig,
    UnboundedLimit,
    _dataset_curves,
    combine_channels,
)
from .evalharness import (
    CredibilityConfig,
    EnumerationTooLarge,
    NoPosteriorMass,
    coverage_enumerate,
    coverage_importance,
    credibility,
    make_bayes_method,
    make_ds_method,
    simulate_study,
    _row_limits,
)
from .sampling import DEFAULT_SEED, RngHandle, derive_stream_id
from .specfun import IntegrationError

METHODS = ("ds", "bayes:B1", "bayes:B2", "bayes:upper", "bayes:lower")
# Most points an --s-grid may hold; the paper's study uses 161.
S_GRID_MAX_POINTS = 100_000


class DatasetFormatError(ValueError):
    """Input file violates the dsplim/1 format; carries the line number."""

    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


# ---------------------------------------------------------------------------
# dataset file format


def parse_dataset_file(stream) -> list[Dataset]:
    """Parse a dsplim/1 stream into datasets (with validated channels)."""
    lines = []
    for lineno, raw in enumerate(stream, start=1):
        text = raw.split("#", 1)[0].strip()
        if text:
            lines.append((lineno, text))
    if not lines:
        raise DatasetFormatError("empty input", 1)

    lineno, head = lines[0]
    parts = head.split()
    if len(parts) != 2 or parts[0] != "channels":
        raise DatasetFormatError("expected header 'channels <N>'", lineno)
    try:
        n_channels = int(parts[1])
    except ValueError:
        raise DatasetFormatError("channel count must be an integer", lineno)
    if n_channels < 1:
        raise DatasetFormatError("channel count must be >= 1", lineno)

    scales = []
    for k in range(n_channels):
        if 1 + k >= len(lines):
            raise DatasetFormatError(
                f"expected {n_channels} 'scales' lines", lineno
            )
        lno, text = lines[1 + k]
        parts = text.split()
        if len(parts) != 3 or parts[0] != "scales":
            raise DatasetFormatError("expected 'scales <t> <u>'", lno)
        try:
            t, u = float(parts[1]), float(parts[2])
        except ValueError:
            raise DatasetFormatError("scales must be numbers", lno)
        if not (0 < t < math.inf and 0 < u < math.inf):
            raise DatasetFormatError("scales must be positive and finite", lno)
        scales.append((t, u))

    datasets = []
    for idx, (lno, text) in enumerate(lines[1 + n_channels :]):
        fields = text.split()
        if len(fields) != 3 * n_channels:
            raise DatasetFormatError(
                f"dataset row {idx} has {len(fields)} fields, "
                f"expected {3 * n_channels}",
                lno,
            )
        try:
            counts = [int(f) for f in fields]
        except ValueError:
            raise DatasetFormatError(f"dataset row {idx}: counts must be integers", lno)
        # above 2**53 a float, and so a gamma shape, no longer holds every count
        if max(counts) > 2**53:
            raise DatasetFormatError(
                f"dataset row {idx}: counts must be at most 2**53", lno
            )
        try:
            channels = tuple(
                ChannelObservation(
                    counts[3 * c], counts[3 * c + 1], counts[3 * c + 2], *scales[c]
                )
                for c in range(n_channels)
            )
        except ValueError as exc:
            raise DatasetFormatError(f"dataset row {idx}: {exc}", lno)
        datasets.append(Dataset(channels, label=str(idx)))
    if not datasets:
        raise DatasetFormatError("no dataset rows found", lines[-1][0])
    return datasets


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        if math.isinf(value):
            return "inf"
        return f"{value:.17g}"
    return str(value)


def _write_csv(path, header, rows) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(v) for v in row])


# ---------------------------------------------------------------------------
# commands
#
# Each command takes the parsed argparse.Namespace after _to_config has
# resolved its grid and threads.


def _failure(label, message) -> None:
    print(f"dsplim: numerical failure: dataset row {label}: {message}", file=sys.stderr)


def _dataset_rows(datasets):
    """(N, 3C) count rows of datasets that share one scale header, and the
    per-channel scales (t_1, ..., t_C), (u_1, ..., u_C)."""
    counts = np.array(
        [[k for ch in ds.channels for k in (ch.n, ch.y, ch.z)] for ds in datasets]
    )
    ts, us = zip(*((ch.t, ch.u) for ch in datasets[0].channels))
    return counts, ts, us


def cmd_limits(args) -> int:
    with open(args.input) as fh:
        datasets = parse_dataset_file(fh)
    if args.method != "ds" and len(datasets[0].channels) != 1:
        raise ValueError("the Bayesian comparison method is single-channel")
    method = _select_method(args.method, args.grid)
    limits, failures = _row_limits(
        method, *_dataset_rows(datasets), args.quantiles, args.threads
    )
    blank = [None] * len(args.quantiles)
    rows = []
    for i, (ds, lims) in enumerate(zip(datasets, limits.T)):
        if i in failures:
            _failure(ds.label, failures[i])
            rows.append((ds.label, *blank, "failed"))
        elif np.isinf(lims).all():
            rows.append((ds.label, *blank, "unbounded"))
        else:
            rows.append((ds.label, *map(float, lims), "ok"))
    header = ["dataset_id"] + [f"limit_{q!r}" for q in args.quantiles] + ["status"]
    _write_csv(args.output, header, rows)
    statuses = {row[-1] for row in rows}
    if "failed" in statuses:
        return 3
    if statuses == {"unbounded"}:
        return 4
    return 0


def _curve_rows(ds, grid: GridConfig):
    xs, curves = _dataset_curves(ds.channels, grid)
    rows = [
        (ds.label, ci, xs[k], c.f_lower[k], c.f_upper[k], c.r[k], None, None)
        for ci, c in enumerate(curves)
        for k in range(xs.size)
    ]
    density = combine_channels(curves)
    rows += [
        (ds.label, "combined", xs[k], None, None, None, density.pdf[k], density.cdf[k])
        for k in range(xs.size)
    ]
    return rows


def cmd_curves(args) -> int:
    with open(args.input) as fh:
        datasets = parse_dataset_file(fh)
    header = [
        "dataset_id",
        "channel",
        "x",
        "f_lower",
        "f_upper",
        "r",
        "pdf",
        "cdf",
    ]
    rows = []
    unbounded = failed = 0
    for ds in datasets:
        try:
            rows += _curve_rows(ds, args.grid)
        except UnboundedLimit:
            unbounded += 1
        except (NumericalError, IntegrationError) as exc:
            failed += 1
            _failure(ds.label, exc)
    _write_csv(args.output, header, rows)
    if failed:
        return 3
    return 4 if unbounded == len(datasets) else 0


def _select_method(spec: str, grid: GridConfig):
    """The limit method of a --method value: ``ds`` or ``bayes:<prior>``."""
    if spec == "ds":
        return make_ds_method(grid)
    return make_bayes_method(spec.removeprefix("bayes:"))


def cmd_coverage(args) -> int:
    method = _select_method(args.method, args.grid)
    q = args.quantiles[0]
    truth = (args.eps, args.b)
    if args.mode == "enumerate":
        report = coverage_enumerate(
            method, args.t, args.u, truth, args.s_grid, q,
            tail_eps=args.enum_tail_eps, threads=args.threads,
        )
    else:
        s_ref = args.s_ref
        if s_ref is None:
            s_ref = 0.5 * (args.s_grid[0] + args.s_grid[-1])
        rng = RngHandle(args.seed, derive_stream_id("coverage", 0))
        report = coverage_importance(
            method, args.t, args.u, truth, args.s_grid, q,
            n_samples=args.samples, s_ref=s_ref, rng=rng, threads=args.threads,
        )
    rows = [
        (
            report.s_grid[i],
            report.estimate[i],
            report.std_err[i],
            None if report.ess is None else report.ess[i],
        )
        for i in range(report.s_grid.size)
    ]
    _write_csv(args.output, ["s", "estimate", "std_err", "ess"], rows)
    return 0


def cmd_credibility(args) -> int:
    with open(args.input) as fh:
        datasets = parse_dataset_file(fh)
    if len(datasets[0].channels) != 1:
        raise ValueError("credibility is defined for single-channel datasets")
    method = _select_method(args.method, args.grid)
    ccfg = CredibilityConfig(b_prior=args.b_prior, e_prior=args.e_prior)
    (limits,), failures = _row_limits(
        method, *_dataset_rows(datasets), args.quantiles[:1], args.threads
    )
    rows, failed = [], 0
    for i, (ds, lim) in enumerate(zip(datasets, limits)):
        limit = cred = None
        error = failures.get(i)
        if error is None:
            limit = float(lim)
            rng = RngHandle(args.seed, derive_stream_id("credibility", i))
            try:
                cred = credibility(limit, ds.channels[0], ccfg, args.samples, rng)
            except NoPosteriorMass as exc:
                error = str(exc)
        if error is not None:
            failed += 1
            _failure(ds.label, error)
        rows.append((ds.label, limit, cred))
    _write_csv(args.output, ["dataset_id", "limit", "credibility"], rows)
    return 3 if failed else 0


def cmd_simulate(args) -> int:
    known = sorted(["ds", *PRIOR_PRESETS])
    if not args.methods:
        raise ValueError("--methods names no method")
    for i, m in enumerate(args.methods):
        if m not in known:
            raise ValueError(f"unknown method {m!r}; choose from {known}")
        if m in args.methods[:i]:
            raise ValueError(f"--methods names {m!r} twice")
    lo, hi = args.summary_range
    if not ((args.s_grid >= lo) & (args.s_grid <= hi)).any():
        raise ValueError(f"--summary-range {lo:g}:{hi:g} holds no point of --s-grid")
    result = simulate_study(
        args.t, args.u, args.eps, args.b, args.s_grid, args.reps,
        methods=args.methods, seed=args.seed, quantiles=args.quantiles,
        grid=args.grid, threads=args.threads,
    )
    rows = result.summary(lo, hi)
    _write_csv(args.output, ["method", "level", "mean", "stdev"], rows)
    if args.per_s_output:
        per_rows = [
            (m, q, s, c)
            for m in result.methods
            for q in result.quantiles
            for s, c in zip(result.s_grid, result.coverage[(m, q)])
        ]
        _write_csv(
            args.per_s_output, ["method", "level", "s", "coverage"], per_rows
        )
    return 0


# ---------------------------------------------------------------------------
# argument parsing


def _parse_quantiles(text: str) -> tuple[float, ...]:
    qs = tuple(float(v) for v in text.split(","))
    if not qs or any(not 0 < q < 1 for q in qs) or list(qs) != sorted(set(qs)):
        raise argparse.ArgumentTypeError(
            "quantiles must be strictly increasing values in (0, 1)"
        )
    return qs


def _parse_s_grid(text: str) -> np.ndarray:
    try:
        lo, hi, step = (float(v) for v in text.split(":"))
    except ValueError:
        raise argparse.ArgumentTypeError("s-grid must be lo:hi:step")
    if not (0 <= lo <= hi < math.inf and step > 0):
        raise argparse.ArgumentTypeError(
            "s-grid must satisfy 0 <= lo <= hi < inf, step > 0"
        )
    points = (hi - lo) / step + 1
    if not points <= S_GRID_MAX_POINTS:
        raise argparse.ArgumentTypeError(
            f"s-grid holds {points:.3g} points, more than {S_GRID_MAX_POINTS}"
        )
    count = int(round(points))
    grid = lo + step * np.arange(count)
    return grid[grid <= hi + 1e-12 * max(1.0, abs(hi))]


def _parse_methods(text: str) -> tuple[str, ...]:
    return tuple(m for m in text.split(",") if m)


def _parse_pair(text: str) -> tuple[float, float]:
    try:
        a, b = (float(v) for v in text.split(":"))
    except ValueError:
        raise argparse.ArgumentTypeError("expected two ':'-separated numbers")
    return a, b


def _int_at_least(low: int):
    # argparse names the type by its __name__ when int() fails: "invalid
    # integer value".
    def integer(text: str) -> int:
        if int(text) < low:
            raise argparse.ArgumentTypeError(f"must be an integer >= {low}")
        return int(text)

    return integer


def _finite(positive: bool):
    """A finite float, > 0 if ``positive`` and >= 0 otherwise."""
    def value(text: str) -> float:
        v = float(text)
        if not (math.isfinite(v) and (v > 0 if positive else v >= 0)):
            raise argparse.ArgumentTypeError(
                f"must be {'positive' if positive else 'nonnegative'} and finite"
            )
        return v

    return value


def _threads_value(flag: int | None) -> int:
    """Worker processes: --threads, else DSPLIM_THREADS, else 1; 0 means
    every core."""
    if flag is None:
        env = os.environ.get("DSPLIM_THREADS") or "1"
        try:
            flag = _int_at_least(0)(env)
        except (ValueError, argparse.ArgumentTypeError):
            raise ValueError(f"DSPLIM_THREADS must be an integer >= 0, not {env!r}")
    return flag or os.cpu_count() or 1


# Options that several subcommands take, by flag.
_SHARED = {
    "--input": dict(required=True, help="dsplim/1 dataset file"),
    "--output": dict(required=True, help="CSV output path"),
    "--seed": dict(type=_int_at_least(0), default=DEFAULT_SEED),
    "--method": dict(default="ds", choices=METHODS),
    "--quantiles": dict(type=_parse_quantiles, default=(0.90, 0.99)),
    "--grid-points": dict(type=int, default=512),
    "--tail-eps": dict(type=float, default=1e-8),
    "--threads": dict(type=_int_at_least(0), default=None,
                      help="worker processes; 0 = all cores "
                      "(env DSPLIM_THREADS as fallback)"),
}
_GRID = ("--grid-points", "--tail-eps")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dsplim",
        description="Upper limits for Poisson counting data with "
        "background and efficiency nuisance parameters",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, summary, *flags):
        p = sub.add_parser(name, help=summary)
        for flag in flags:
            p.add_argument(flag, **_SHARED[flag])
        return p

    command("limits", "per-dataset upper limits", "--input", "--output",
            "--method", "--quantiles", *_GRID, "--threads")

    command("curves", "per-channel CDF/commonality curves",
            "--input", "--output", *_GRID)

    p = command("coverage", "coverage of a method's limits", "--output",
                "--seed", "--method", "--quantiles", *_GRID, "--threads")
    p.add_argument("--mode", choices=("enumerate", "importance"),
                   default="importance")
    p.add_argument("--t", type=_finite(True), required=True)
    p.add_argument("--u", type=_finite(True), required=True)
    p.add_argument("--eps", type=_finite(False), required=True)
    p.add_argument("--b", type=_finite(False), required=True)
    p.add_argument("--s-grid", type=_parse_s_grid, default="0:25:0.25")
    p.add_argument("--samples", type=_int_at_least(2), default=10000,
                   help="importance-sampling draws (>= 2 for a standard error)")
    p.add_argument("--s-ref", type=float, default=None)
    p.add_argument("--enum-tail-eps", type=float, default=1e-10)

    p = command("credibility", "credibility of a method's limits", "--input",
                "--output", "--seed", "--method", "--quantiles", *_GRID,
                "--threads")
    p.add_argument("--b-prior", type=_parse_pair, default=(3.0, 0.3),
                   help="gamma prior on b as mean:sd")
    p.add_argument("--e-prior", type=_parse_pair, default=(1.0, 0.1),
                   help="gamma prior on eps as mean:sd")
    p.add_argument("--samples", type=_int_at_least(1), default=10000)

    p = command("simulate", "coverage simulation study", "--output", "--seed",
                "--quantiles", *_GRID, "--threads")
    p.add_argument("--t", type=_finite(True), default=33.0)
    p.add_argument("--u", type=_finite(True), default=100.0)
    p.add_argument("--eps", type=_finite(False), default=1.0)
    p.add_argument("--b", type=_finite(False), default=3.0)
    p.add_argument("--s-grid", type=_parse_s_grid, default="0:40:0.25")
    p.add_argument("--reps", type=int, default=10000)
    p.add_argument("--methods", type=_parse_methods, default="ds,B1,B2,upper,lower")
    p.add_argument("--summary-range", type=_parse_pair, default=(20.0, 40.0),
                   help="s subrange for the summary table as lo:hi")
    p.add_argument("--per-s-output", default=None)
    return parser


_COMMANDS = {
    "limits": cmd_limits,
    "curves": cmd_curves,
    "coverage": cmd_coverage,
    "credibility": cmd_credibility,
    "simulate": cmd_simulate,
}


def _to_config(args: argparse.Namespace) -> argparse.Namespace:
    """Resolve the derived options in place: ``grid``, and ``threads``
    for the commands that take it."""
    args.grid = GridConfig(points=args.grid_points, tail_eps=args.tail_eps)
    if "threads" in args:
        args.threads = _threads_value(args.threads)
    return args


@cache
def _parser() -> argparse.ArgumentParser:
    """The parser of :func:`main`, built once per process.

    Building one leaves some 500 objects in reference cycles (argparse
    makes a help formatter per argument), so a process that calls main
    repeatedly would pay for a full garbage collection every hundred
    calls or so.  Defaults are strings that parse_args converts on every
    call, so no call shares a mutable default with another.
    """
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](_to_config(args))
    except (DatasetFormatError, ValueError, OSError, EnumerationTooLarge,
            MemoryError) as exc:
        print(f"dsplim: error: {exc}", file=sys.stderr)
        return 2
    except (IntegrationError, NumericalError, NoPosteriorMass) as exc:
        print(f"dsplim: numerical failure: {exc}", file=sys.stderr)
        return 3
    except UnboundedLimit as exc:
        print(f"dsplim: unbounded: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
