"""Command-line front end and the dsplim/1 dataset file format.

Format (self-describing header, ``#`` comments allowed):

    channels <N>
    scales <t_1> <u_1>
    ...            (one scales line per channel)
    n_1 y_1 z_1 ... n_N y_N z_N     (one dataset per line)

All CSV output uses '.' decimals, 17 significant digits, LF line
endings, and a fixed header row.  Exit codes: 0 success, 2 parse or
validation error, 3 numerical failure (for ``limits``: some row has
status ``failed``), 4 unbounded-only results.
"""

from __future__ import annotations

import argparse
import csv
import math
import os
import sys
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from ._gamma_ratio import NumericalError
from .bayes import bayes_upper_limit, prior_preset
from .ds_limits import (
    ChannelObservation,
    Dataset,
    GridConfig,
    UnboundedLimit,
    channel_curves,
    combine_channels,
    dataset_limits,
    shared_grid,
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
    _parallel_map,
    _row_limits,
)
from .sampling import DEFAULT_SEED, RngHandle, derive_stream_id
from .specfun import IntegrationError

FORMAT_VERSION = "dsplim/1"
METHODS = ("ds", "bayes:B1", "bayes:B2", "bayes:upper", "bayes:lower")


class DatasetFormatError(ValueError):
    """Input file violates the dsplim/1 format; carries the line number."""

    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


@dataclass
class RunConfig:
    """Parsed command-line options for one run."""

    command: str
    input: str | None = None
    output: str | None = None
    seed: int = DEFAULT_SEED
    method: str = "ds"
    quantiles: tuple[float, ...] = (0.90, 0.99)
    grid: GridConfig = field(default_factory=GridConfig)
    threads: int = 1
    extra: dict = field(default_factory=dict)


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
        if t <= 0 or u <= 0:
            raise DatasetFormatError("scales must be positive", lno)
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


def write_dataset_file(datasets, stream) -> None:
    """Emit datasets in dsplim/1 form (all must share the scale header)."""
    datasets = list(datasets)
    if not datasets:
        raise ValueError("nothing to write")
    scales = [(ch.t, ch.u) for ch in datasets[0].channels]
    for ds in datasets:
        if [(ch.t, ch.u) for ch in ds.channels] != scales:
            raise ValueError("all datasets in one file must share scales")
    stream.write(f"# {FORMAT_VERSION}\n")
    stream.write(f"channels {len(scales)}\n")
    for t, u in scales:
        stream.write(f"scales {_fmt(t)} {_fmt(u)}\n")
    for ds in datasets:
        row = " ".join(f"{ch.n} {ch.y} {ch.z}" for ch in ds.channels)
        stream.write(row + "\n")


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


def _limit_row(dataset: Dataset, quantiles, grid: GridConfig, prior):
    """One dataset's CSV row and, for a failed row, its error message.

    ``prior`` is the Bayes prior of a single-channel dataset, or None
    for the belief-interval limits of a dataset with any number of
    channels.
    """
    blank = [None] * len(quantiles)
    try:
        if prior is None:
            lims = dataset_limits(dataset, quantiles, grid)
        else:
            (ch,) = dataset.channels
            lims = [bayes_upper_limit(ch, prior, q) for q in quantiles]
    except UnboundedLimit:
        return (dataset.label, *blank, "unbounded"), None
    except (NumericalError, IntegrationError) as exc:
        return (dataset.label, *blank, "failed"), f"dataset row {dataset.label}: {exc}"
    return (dataset.label, *lims, "ok"), None


def cmd_limits(cfg: RunConfig) -> int:
    with open(cfg.input) as fh:
        datasets = parse_dataset_file(fh)
    prior = None
    if cfg.method != "ds":
        if len(datasets[0].channels) != 1:
            raise ValueError("the Bayesian comparison method is single-channel")
        prior = prior_preset(cfg.method.split(":", 1)[1])
    worker = partial(_limit_row, quantiles=cfg.quantiles, grid=cfg.grid, prior=prior)
    results = _parallel_map(worker, datasets, cfg.threads)
    for _, message in results:
        if message is not None:
            print(f"dsplim: numerical failure: {message}", file=sys.stderr)
    rows = [row for row, _ in results]
    header = ["dataset_id"] + [f"limit_{q:g}" for q in cfg.quantiles] + ["status"]
    _write_csv(cfg.output, header, rows)
    statuses = {row[-1] for row in rows}
    if "failed" in statuses:
        return 3
    if statuses == {"unbounded"}:
        return 4
    return 0


def cmd_curves(cfg: RunConfig) -> int:
    with open(cfg.input) as fh:
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
    unbounded = 0
    for ds in datasets:
        try:
            xs = shared_grid(ds.channels, cfg.grid)
        except UnboundedLimit:
            unbounded += 1
            continue
        curves = [
            channel_curves(ch, cfg.grid, xs=xs) for ch in ds.channels
        ]
        for ci, c in enumerate(curves):
            for k in range(xs.size):
                rows.append(
                    (ds.label, ci, xs[k], c.f_lower[k], c.f_upper[k], c.r[k], None, None)
                )
        density = combine_channels(curves, cfg.grid)
        for k in range(xs.size):
            rows.append(
                (ds.label, "combined", xs[k], None, None, None,
                 density.pdf[k], density.cdf[k])
            )
    _write_csv(cfg.output, header, rows)
    return 4 if unbounded == len(datasets) else 0


def _select_method(spec: str, grid: GridConfig):
    if spec == "ds":
        return make_ds_method(grid)
    if spec.startswith("bayes:"):
        return make_bayes_method(spec.split(":", 1)[1])
    raise ValueError(f"unknown method {spec!r}; choose from {METHODS}")


def cmd_coverage(cfg: RunConfig) -> int:
    x = cfg.extra
    method = _select_method(cfg.method, cfg.grid)
    q = cfg.quantiles[0]
    truth = (x["eps"], x["b"])
    if x["mode"] == "enumerate":
        report = coverage_enumerate(
            method, x["t"], x["u"], truth, x["s_grid"], q,
            tail_eps=x["enum_tail_eps"], threads=cfg.threads,
        )
    else:
        s_ref = x["s_ref"]
        if s_ref is None:
            s_ref = 0.5 * (x["s_grid"][0] + x["s_grid"][-1])
        rng = RngHandle(cfg.seed, derive_stream_id("coverage", 0))
        report = coverage_importance(
            method, x["t"], x["u"], truth, x["s_grid"], q,
            n_samples=x["samples"], s_ref=s_ref, rng=rng, threads=cfg.threads,
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
    _write_csv(cfg.output, ["s", "estimate", "std_err", "ess"], rows)
    return 0


def cmd_credibility(cfg: RunConfig) -> int:
    x = cfg.extra
    with open(cfg.input) as fh:
        datasets = parse_dataset_file(fh)
    if len(datasets[0].channels) != 1:
        raise ValueError("credibility is defined for single-channel datasets")
    method = _select_method(cfg.method, cfg.grid)
    ccfg = CredibilityConfig(b_prior=x["b_prior"], e_prior=x["e_prior"])
    channels = [ds.channels[0] for ds in datasets]
    counts = np.array([(ch.n, ch.y, ch.z) for ch in channels])
    limits = _row_limits(
        method, counts, channels[0].t, channels[0].u, cfg.quantiles[:1], cfg.threads
    )[0]
    rows = []
    for i, (ds, ch, limit) in enumerate(zip(datasets, channels, limits)):
        rng = RngHandle(cfg.seed, derive_stream_id("credibility", i))
        cred = credibility(float(limit), ch, ccfg, x["samples"], rng)
        rows.append((ds.label, float(limit), cred))
    _write_csv(cfg.output, ["dataset_id", "limit", "credibility"], rows)
    return 0


def cmd_simulate(cfg: RunConfig) -> int:
    x = cfg.extra
    result = simulate_study(
        x["t"], x["u"], x["eps"], x["b"], x["s_grid"], x["reps"],
        methods=x["methods"], seed=cfg.seed, quantiles=cfg.quantiles,
        grid=cfg.grid, threads=cfg.threads,
    )
    rows = [
        (m, q, mean, sd)
        for (m, q, mean, sd) in result.summary(x["summary_lo"], x["summary_hi"])
    ]
    _write_csv(cfg.output, ["method", "level", "mean", "stdev"], rows)
    if x["per_s_output"]:
        per_rows = [
            (m, q, s, c)
            for m in result.methods
            for q in result.quantiles
            for s, c in zip(result.s_grid, result.coverage[(m, q)])
        ]
        _write_csv(
            x["per_s_output"], ["method", "level", "s", "coverage"], per_rows
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
    if step <= 0 or hi < lo:
        raise argparse.ArgumentTypeError("s-grid must satisfy lo <= hi, step > 0")
    count = int(round((hi - lo) / step)) + 1
    grid = lo + step * np.arange(count)
    return grid[grid <= hi + 1e-12 * max(1.0, abs(hi))]


def _parse_pair(text: str) -> tuple[float, float]:
    try:
        a, b = (float(v) for v in text.split(":"))
    except ValueError:
        raise argparse.ArgumentTypeError("expected two ':'-separated numbers")
    return a, b


def _int_at_least(low: int):
    def count(text: str) -> int:
        if int(text) < low:
            raise argparse.ArgumentTypeError(f"must be an integer >= {low}")
        return int(text)

    return count


def _threads_value(arg_value: int | None) -> int:
    value = arg_value
    if value is None:
        env = os.environ.get("DSPLIM_THREADS")
        value = int(env) if env else 1
    if value == 0:
        value = os.cpu_count() or 1
    return max(1, value)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dsplim",
        description="Upper limits for Poisson counting data with "
        "background and efficiency nuisance parameters",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, needs_input=True):
        if needs_input:
            p.add_argument("--input", required=True, help="dsplim/1 dataset file")
        p.add_argument("--output", required=True, help="CSV output path")
        p.add_argument("--seed", type=int, default=DEFAULT_SEED)
        p.add_argument("--method", default="ds", choices=METHODS + ("bayes",))
        p.add_argument("--prior", default=None,
                       choices=("B1", "B2", "upper", "lower"),
                       help="prior preset; shorthand for --method bayes:<prior>")
        p.add_argument("--quantiles", type=_parse_quantiles, default=(0.90, 0.99))
        p.add_argument("--grid-points", type=int, default=512)
        p.add_argument("--tail-eps", type=float, default=1e-8)
        p.add_argument("--threads", type=int, default=None,
                       help="worker processes; 0 = all cores "
                       "(env DSPLIM_THREADS as fallback)")
        p.add_argument("--format", default=FORMAT_VERSION,
                       choices=[FORMAT_VERSION])

    p = sub.add_parser("limits", help="per-dataset upper limits")
    common(p)

    p = sub.add_parser("curves", help="per-channel CDF/commonality curves")
    common(p)

    p = sub.add_parser("coverage", help="coverage of a method's limits")
    common(p, needs_input=False)
    p.add_argument("--mode", choices=("enumerate", "importance"),
                   default="importance")
    p.add_argument("--t", type=float, required=True)
    p.add_argument("--u", type=float, required=True)
    p.add_argument("--eps", type=float, required=True)
    p.add_argument("--b", type=float, required=True)
    p.add_argument("--s-grid", type=_parse_s_grid, default=_parse_s_grid("0:25:0.25"))
    p.add_argument("--samples", type=_int_at_least(2), default=10000,
                   help="importance-sampling draws (>= 2 for a standard error)")
    p.add_argument("--s-ref", type=float, default=None)
    p.add_argument("--enum-tail-eps", type=float, default=1e-10)

    p = sub.add_parser("credibility", help="credibility of a method's limits")
    common(p)
    p.add_argument("--b-prior", type=_parse_pair, default=(3.0, 0.3),
                   help="gamma prior on b as mean:sd")
    p.add_argument("--e-prior", type=_parse_pair, default=(1.0, 0.1),
                   help="gamma prior on eps as mean:sd")
    p.add_argument("--samples", type=_int_at_least(1), default=10000)

    p = sub.add_parser("simulate", help="coverage simulation study")
    common(p, needs_input=False)
    p.add_argument("--t", type=float, default=33.0)
    p.add_argument("--u", type=float, default=100.0)
    p.add_argument("--eps", type=float, default=1.0)
    p.add_argument("--b", type=float, default=3.0)
    p.add_argument("--s-grid", type=_parse_s_grid, default=_parse_s_grid("0:40:0.25"))
    p.add_argument("--reps", type=int, default=10000)
    p.add_argument("--methods", default="ds,B1,B2,upper,lower")
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


def _to_config(args: argparse.Namespace) -> RunConfig:
    method = args.method
    if getattr(args, "prior", None) is not None:
        if method not in ("ds", "bayes") and method != f"bayes:{args.prior}":
            raise ValueError("--prior conflicts with the --method selection")
        method = f"bayes:{args.prior}"
    elif method == "bayes":
        raise ValueError("--method bayes requires --prior")
    grid = GridConfig(points=args.grid_points, tail_eps=args.tail_eps)
    extra = {}
    if args.command == "coverage":
        extra = dict(
            mode=args.mode, t=args.t, u=args.u, eps=args.eps, b=args.b,
            s_grid=args.s_grid, samples=args.samples, s_ref=args.s_ref,
            enum_tail_eps=args.enum_tail_eps,
        )
    elif args.command == "credibility":
        extra = dict(
            b_prior=args.b_prior, e_prior=args.e_prior, samples=args.samples
        )
    elif args.command == "simulate":
        methods = tuple(m for m in args.methods.split(",") if m)
        for m in methods:
            if m != "ds":
                prior_preset(m)
        extra = dict(
            t=args.t, u=args.u, eps=args.eps, b=args.b, s_grid=args.s_grid,
            reps=args.reps, methods=methods,
            summary_lo=args.summary_range[0], summary_hi=args.summary_range[1],
            per_s_output=args.per_s_output,
        )
    return RunConfig(
        command=args.command,
        input=getattr(args, "input", None),
        output=args.output,
        seed=args.seed,
        method=method,
        quantiles=tuple(args.quantiles),
        grid=grid,
        threads=_threads_value(args.threads),
        extra=extra,
    )


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = _to_config(args)
        return _COMMANDS[args.command](cfg)
    except (DatasetFormatError, ValueError, OSError, EnumerationTooLarge) as exc:
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
