"""dsplim benchmark: limits, simulate-paper, simulate-small, enumerate.

Run from the root of a checkout:

    python3 perfbench/run.py --workload limits --seed 1 --seconds 20 --trace 0

It imports dsplim from ``src/`` of that checkout, drives the public API
in this one process (the enumerate workload adds a two-worker pool
through ``--threads 2``), checks every output, and prints one line per
metric followed by a run record and, last, one JSON object with the keys
correct, attempted, failed and metrics.

--trace 0 measures the end-to-end metrics for --seconds seconds.
--trace 1 replays a fixed slice of the same operations once untraced and
once with the layer tracer installed (one worker), and reports the
per-layer metrics; see tracer.py.

Workloads (why each is here is recorded in BENCHMARK.json):

* limits: three dsplim/1 files of distinct rows, one per channel count
  (1, 2, 4), parsed with cli.parse_dataset_file; dataset_limits at
  (0.90, 0.99) runs in a closed loop, one caller, one worker.
* simulate-paper / simulate-small: `dsplim simulate` through cli.main,
  every method, one worker; operation 0 repeats the stored reference.
* enumerate: `dsplim coverage --mode enumerate` at the criterion-4
  configuration with two workers.

Latency is per dataset_limits call on `limits` and per cli.main call on
the other workloads, whose runs hold a handful of calls; there p99 is the
slowest call.  limits_per_s counts (dataset, method) pairs evaluated at
all requested quantiles, per second of wall time.  Timed figures are
scaled to a reference machine speed measured by SpeedProbe during the run;
the raw figures are printed to stderr.

Correctness: a timed operation fails on NumericalError/IntegrationError,
a nonzero exit code, a status other than the input implies, or an output
outside the stored reference's accuracy.  After the timed section a
fixed sample of the workload's datasets is checked against the stored
high-resolution limits (refs/, made by gen_refs.py); its largest
relative error is limit_rel_err_max.
"""

from __future__ import annotations

import argparse
import csv
import functools
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
REFS = BENCH_DIR / "refs"

WORKLOADS = ("limits", "simulate-paper", "simulate-small", "enumerate")
QUANTILES = (0.90, 0.99)
REF_SEED = 20090201  # seed of the stored reference sample and operations
SETUP_REPEATS = 3
LIMITS_ROWS = 2000  # rows per file: more than a run reaches at the seed
MIN_LATENCY_SAMPLES = 1000  # so that p99 has ten samples beyond it
MIN_OPS = 3
PROBE_INTERVAL_S = 1.0  # wall time between two machine-speed probes
REFERENCE_PROBE_S = 0.04  # probe time that defines speed factor 1
TRACE_ROWS = 150  # rows per file in the traced limits slice
TRACE_OPS = {"simulate-paper": 2, "simulate-small": 4, "enumerate": 1}

# Accuracy the stored references allow.  DS limits use a 512-knot
# trapezoid CDF with no error control: on the stored `limits` sample they
# sit up to 3.3e-2 from the 16384-knot reference, and 4-channel rows with
# two z = 2 channels, whose tails stretch the grid, reach 1e-1.  So
# DS_REL_TOL is a gate for gross errors only; limit_rel_err_max tracks the
# accuracy itself under its own bound.  Bayes limits bisect to 1e-8.
# Coverage moves by at most 2.5e-4 when the DS grid goes from 512 to 4096
# knots.
DS_REL_TOL = 0.15
BAYES_REL_TOL = 1e-6
COVERAGE_ABS_TOL = 1e-3
QUADRATURE_ABS_TOL = 1e-6
QUADRATURE_PROBE = (((5, 10, 20, 3.3, 10.0), (0.5, 2.0, 8.0)),
                    ((20, 40, 8, 33.0, 100.0), (150.0, 250.0, 400.0)))

END_TO_END_UNITS = {
    "limits_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_p99_ms": "ms",
    "ok_ratio": "ratio",
    "limit_rel_err_max": "ratio",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}
PER_LAYER_UNITS = {
    "ds_limits.dataset_limits.calls": "count",
    "ds_limits.dataset_limits.self_s": "s",
    "ds_limits.shared_grid.self_s": "s",
    "ds_limits.shared_grid.probes_per_channel": "count",
    "ds_limits.channel_curves.self_s": "s",
    "ds_limits.channel_curves.knots": "count",
    "ds_limits.channel_cdf.self_s": "s",
    "ds_limits.combine_channels.self_s": "s",
    "ds_limits.upper_limit.self_s": "s",
    "gamma_ratio.survival.calls": "count",
    "gamma_ratio.survival.points": "count",
    "gamma_ratio.survival.self_s": "s",
    "gamma_ratio.series.terms": "count",
    "gamma_ratio.series.ns_per_term": "ns",
    "gamma_ratio.conditioning.calls": "count",
    "gamma_ratio.conditioning.self_s": "s",
    "gamma_ratio.quadrature.ms_per_point": "ms",
    "bayes.batch.calls": "count",
    "bayes.batch.rows": "count",
    "bayes.batch.self_s": "s",
    "evalharness.self_s": "s",
    "evalharness.pool.efficiency": "ratio",
    "evalharness.distinct_ratio": "ratio",
    "evalharness.unbounded_share": "ratio",
    "cli.self_s": "s",
    "cli.parse_s": "s",
    "bench.self_s": "s",
    "trace.wall_s": "s",
    "trace.accounted_share": "ratio",
    "trace.overhead_ratio": "ratio",
}


def _probe_kernel() -> float:
    """Fixed work shaped like the series kernel (a recurrence over rows of
    512 knots) that calls nothing in dsplim, so a change to dsplim cannot
    move it."""
    import numpy as np

    p = np.linspace(0.01, 0.99, 512)
    out = np.empty((400, 512))
    acc = 0.0
    for _ in range(10):
        out[0] = 1.0
        for m in range(1, 400):
            out[m] = out[m - 1] * p * ((m + 0.5) / m)
        acc += float(np.cumsum(out, axis=0)[-1].sum())
    return acc


class SpeedProbe:
    """How fast the machine runs right now, relative to REFERENCE_PROBE_S.

    A shared 2-core virtual machine drifts by 20% and more in speed over
    minutes, whatever runs on it, so run-to-run spreads of raw times
    swamp any bound worth having.  Probing a fixed kernel between timed
    operations and dividing each operation's time by the slowdown the
    probes around it saw puts every run on the same reference speed; the
    raw times are printed as well.
    """

    def __init__(self):
        self.samples = []
        self.last = -math.inf

    def measure(self):
        times = []
        for _ in range(3):
            t0 = time.perf_counter()
            _probe_kernel()
            times.append(time.perf_counter() - t0)
        self.samples.append(statistics.median(times))
        self.last = time.perf_counter()

    def tick(self) -> int:
        """Probe when PROBE_INTERVAL_S has passed since the last probe;
        returns the index of the probe interval now running."""
        if time.perf_counter() - self.last >= PROBE_INTERVAL_S:
            self.measure()
        return len(self.samples) - 1

    def slowdown(self, i: int) -> float:
        """Slowdown (above 1 when slow) between probes i and i + 1."""
        return (self.samples[i] + self.samples[i + 1]) / (2.0 * REFERENCE_PROBE_S)


class Tally:
    """Attempted and failed operations, with the first few failure notes."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.notes = []

    def check(self, ok: bool, note: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.notes) < 20:
                self.notes.append(note)
        return ok


def _rel_err(value: float, ref: float) -> float:
    return abs(value - ref) / abs(ref)


def _percentile(values, q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(1, math.ceil(q * len(ordered))) - 1]


def _read_csv(path) -> list[list[str]]:
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def run_record(dsplim, seconds: float, trace: int) -> dict:
    import numpy
    import scipy

    digest = hashlib.sha256()
    for path in sorted((SRC / "dsplim").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "dsplim": dsplim.__version__,
        "git_rev": git_rev(),
        "source_sha256": digest.hexdigest()[:16],
        "loadavg": list(os.getloadavg()),
        "seconds": seconds,
        "trace": trace,
    }


def git_rev() -> str | None:
    """HEAD of the checkout, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        text = head.read_text().strip()
        if text.startswith("ref: "):
            ref = text[5:]
            loose = ROOT / ".git" / ref
            if loose.is_file():
                return loose.read_text().strip()
            for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
                if line.endswith(" " + ref):
                    return line.split()[0]
            return None
        return text
    except OSError:
        return None


# ---------------------------------------------------------------------------
# fixed-sample accuracy checks


def check_ds_sample(lib, sample: dict, tally: Tally) -> float:
    """Default-grid DS limits of the stored sample against the 16384-knot
    references; returns the largest relative error."""
    ds = lib["ds_limits"]
    worst = 0.0
    for row, ref in zip(sample["datasets"], sample["ds_hires"]):
        dataset = ds.Dataset(tuple(ds.ChannelObservation(*ch) for ch in row))
        qs = sample["quantiles"]
        try:
            got = ds.dataset_limits(dataset, qs)
        except ds.UnboundedLimit:
            tally.check(ref is None, f"sample {row}: unbounded, reference {ref}")
            continue
        if not tally.check(ref is not None, f"sample {row}: {got}, reference unbounded"):
            continue
        err = max(_rel_err(g, r) for g, r in zip(got, ref))
        worst = max(worst, err)
        tally.check(err <= DS_REL_TOL, f"sample {row}: DS rel err {err:.3g}")
    return worst


def check_bayes_sample(lib, sample: dict, tally: Tally) -> float:
    """Batched Bayes limits (rel_tol 1e-8) against rel_tol 1e-12 references."""
    import numpy as np

    bayes = lib["bayes"]
    rows = [ch for (ch,) in sample["datasets"]]
    ns, ys, zs = (np.array([r[i] for r in rows]) for i in range(3))
    t, u = rows[0][3], rows[0][4]
    worst = 0.0
    for prior, ref in sample["bayes_hires"].items():
        got = bayes.bayes_upper_limits_batch(
            ns, ys, zs, t, u, bayes.prior_preset(prior), sample["quantiles"]
        )
        err = float(np.max(np.abs(got - np.array(ref).T) / np.abs(np.array(ref).T)))
        worst = max(worst, err)
        tally.check(err <= BAYES_REL_TOL, f"bayes {prior}: rel err {err:.3g}")
    return worst


def check_limits_files(lib, work: Path, tally: Tally) -> float:
    """`dsplim limits` on the stored sample files: statuses must equal the
    stored CSVs and every finite limit must sit within DS_REL_TOL of the
    16384-knot reference."""
    hires = json.loads((REFS / "limits.json").read_text())["ds_hires"]
    worst = 0.0
    for c, refs in hires.items():
        out = work / f"sample_{c}ch.csv"
        argv = ["limits", "--input", str(REFS / f"limits_{c}ch.txt"),
                "--output", str(out), "--threads", "1"]
        rc = lib["cli"].main(argv)
        if not tally.check(rc == 0, f"limits sample {c}ch: exit code {rc}"):
            continue
        got = _read_csv(out)
        stored = _read_csv(REFS / f"limits_{c}ch.csv")
        tally.check(got[0] == stored[0], f"limits sample {c}ch: header {got[0]}")
        for row, ref_row, ref in zip(got[1:], stored[1:], refs):
            if not tally.check(row[-1] == ref_row[-1],
                               f"limits sample {c}ch row {row[0]}: status {row[-1]}"):
                continue
            if ref is None:
                continue
            err = max(_rel_err(float(g), r) for g, r in zip(row[1:-1], ref))
            worst = max(worst, err)
            tally.check(err <= DS_REL_TOL,
                        f"limits sample {c}ch row {row[0]}: rel err {err:.3g}")
        tally.check(len(got) == len(stored), f"limits sample {c}ch: {len(got)} rows")
    return worst


def check_quadrature(lib, tally: Tally) -> float:
    """Quadrature route of channel_cdf_upper at fixed knots, checked against
    the series route; returns milliseconds per point."""
    import numpy as np

    ds = lib["ds_limits"]
    elapsed, points = 0.0, 0
    for counts, knots in QUADRATURE_PROBE:
        ch = ds.ChannelObservation(*counts)
        xs = np.array(knots)
        start = time.perf_counter()
        quad = ds.channel_cdf_upper(ch, xs, method="quadrature")
        elapsed += time.perf_counter() - start
        points += xs.size
        series = ds.channel_cdf_upper(ch, xs, method="series")
        gap = float(np.max(np.abs(quad - series)))
        tally.check(gap <= QUADRATURE_ABS_TOL, f"quadrature {counts}: gap {gap:.3g}")
    return 1e3 * elapsed / points


# ---------------------------------------------------------------------------
# workloads


class Limits:
    rate_per_op = False  # datasets differ in cost: rate over the whole run

    def __init__(self, lib, seed: int, work: Path):
        import inputs

        self.lib = lib
        self.files = []
        for c, text in inputs.limits_files(seed, LIMITS_ROWS).items():
            path = work / f"limits_{c}ch.txt"
            path.write_text(text)
            self.files.append(path)
        self.per_file = [self.parse(p) for p in self.files]
        self.ops = [ds for group in zip(*self.per_file) for ds in group]
        ds = lib["ds_limits"]
        for c in inputs.CHANNEL_COUNTS:  # warm-up outside the timed inputs
            warm = ds.Dataset(tuple(ds.ChannelObservation(4, 6, 30, 2.0, 20.0)
                                    for _ in range(c)))
            ds.dataset_limits(warm, QUANTILES)

    def parse(self, path: Path):
        with open(path) as fh:
            return self.lib["cli"].parse_dataset_file(fh)

    def run_op(self, dataset, tally: Tally):
        ds = self.lib["ds_limits"]
        unbounded = all(ch.z == 0 for ch in dataset.channels)
        try:
            lims = ds.dataset_limits(dataset, QUANTILES)
        except ds.UnboundedLimit:
            return tally.check(unbounded, f"row {dataset.label}: unexpected unbounded")
        except self.lib["errors"] as exc:
            return tally.check(False, f"row {dataset.label}: {exc!r}")
        ok = (not unbounded and all(math.isfinite(v) and v >= 0 for v in lims)
              and lims[0] <= lims[1])
        return tally.check(ok, f"row {dataset.label}: limits {lims}")

    def timed(self, seconds: float, tally: Tally, probe: SpeedProbe):
        """Per dataset: latency, evaluations (1) and the local slowdown."""
        latencies, intervals = [], []
        deadline = time.perf_counter() + seconds
        for dataset in self.ops:
            intervals.append(probe.tick())
            t0 = time.perf_counter()
            self.run_op(dataset, tally)
            t1 = time.perf_counter()
            latencies.append(t1 - t0)
            if t1 >= deadline and len(latencies) >= MIN_LATENCY_SAMPLES:
                break
        probe.measure()
        if len(latencies) < MIN_LATENCY_SAMPLES:
            print(f"# only {len(latencies)} latency samples", file=sys.stderr)
        return latencies, [1] * len(latencies), [probe.slowdown(i) for i in intervals]

    def trace_ops(self, tally: Tally, threads=1):
        """Parse the three files, then the first TRACE_ROWS rows of each."""
        ops = [functools.partial(self.parse, path) for path in self.files]
        ops += [functools.partial(self.run_op, dataset, tally)
                for dataset in self.ops[: 3 * TRACE_ROWS]]
        return ops

    def check_sample(self, work: Path, tally: Tally) -> float:
        return check_limits_files(self.lib, work, tally)


class CliWorkload:
    """A workload whose operation is one cli.main call."""

    rate_per_op = True  # equal-sized operations: median of their rates

    def __init__(self, lib, seed: int, work: Path, name: str):
        self.lib, self.seed, self.work, self.name = lib, seed, work, name
        self.refs = json.loads((REFS / f"{name}.json").read_text())
        self.warm_up()

    def run_cli(self, argv, tally: Tally) -> bool:
        try:
            rc = self.lib["cli"].main(argv)
        except self.lib["errors"] as exc:
            return tally.check(False, f"{argv}: {exc!r}")
        return tally.check(rc == 0, f"{argv}: exit code {rc}")

    def timed(self, seconds: float, tally: Tally, probe: SpeedProbe):
        """Per operation: latency, evaluations and the local slowdown."""
        latencies, evaluations, intervals = [], [], []
        deadline = time.perf_counter() + seconds
        while len(latencies) < MIN_OPS or time.perf_counter() < deadline:
            intervals.append(probe.tick())
            op = len(latencies)
            argv, out, count = self.op(op, threads=self.threads)
            t0 = time.perf_counter()
            ok = self.run_cli(argv, tally)
            latencies.append(time.perf_counter() - t0)
            evaluations.append(count)
            if ok:
                self.check_output(op, out, tally)
        probe.measure()
        return latencies, evaluations, [probe.slowdown(i) for i in intervals]

    def trace_ops(self, tally: Tally, threads=1):
        return [functools.partial(self.traced_op, op, tally, threads)
                for op in range(1, 1 + TRACE_OPS[self.name])]

    def traced_op(self, op: int, tally: Tally, threads: int):
        argv, out, _ = self.op(op, threads=threads)
        if self.run_cli(argv, tally):
            self.check_output(op, out, tally)


class Simulate(CliWorkload):
    threads = 1

    def warm_up(self):
        import inputs

        argv, _ = inputs.simulate_argv(self.name, REF_SEED, 0, str(self.work / "warm.csv"))
        argv[argv.index("--reps") + 1] = "2"
        self.lib["cli"].main(argv)

    def op(self, op: int, threads: int):
        import inputs

        out = self.work / f"op{op}.csv"
        seed = REF_SEED if op == 0 else self.seed
        argv, evaluations = inputs.simulate_argv(self.name, seed, op, str(out))
        return argv, out, evaluations

    def check_output(self, op: int, out: Path, tally: Tally):
        """Operation 0 repeats the stored reference run; every other
        operation must give a well-formed summary."""
        rows = _read_csv(out)
        tally.check(rows[0] == ["method", "level", "mean", "stdev"], f"op {op}: header")
        values = [(r[0], r[1], float(r[2]), float(r[3])) for r in rows[1:]]
        tally.check(len(values) == 10 and all(0 <= m <= 1 and 0 <= s <= 1
                                              for _, _, m, s in values),
                    f"op {op}: summary {values}")
        if op != 0:
            return
        # Allow two datasets whose limit crosses their s to flip: that moves
        # the mean by 2 / datasets and the stdev by at most
        # 2 / (reps * sqrt(s-values - 1)).
        ref = self.refs["reference_op"]
        mean_tol = 2.0 / ref["datasets"]
        sd_tol = 2.0 / (ref["reps"] * math.sqrt(ref["datasets"] / ref["reps"] - 1))
        stored = _read_csv(REFS / f"{self.name}.csv")[1:]
        for got, want in zip(values, stored):
            ok = (got[:2] == tuple(want[:2])
                  and abs(got[2] - float(want[2])) <= mean_tol
                  and abs(got[3] - float(want[3])) <= sd_tol)
            tally.check(ok, f"reference op: {got} vs stored {want}")

    def check_sample(self, work: Path, tally: Tally) -> float:
        return max(check_ds_sample(self.lib, self.refs, tally),
                   check_bayes_sample(self.lib, self.refs, tally))


class Enumerate(CliWorkload):
    threads = 2

    def warm_up(self):
        """Start a two-worker pool on a tiny box; load the stored coverage."""
        import inputs

        argv = inputs.enumerate_cli("5:5:1", str(self.work / "warm.csv"), 2, tail=1e-3)
        self.lib["cli"].main(argv)
        self.stored = {row[0]: row for row in _read_csv(REFS / "enumerate.csv")[1:]}

    def op(self, op: int, threads: int):
        import inputs

        out = self.work / f"op{op}_{threads}w.csv"
        argv = inputs.enumerate_argv(self.seed, op, str(out), threads)
        return argv, out, inputs.ENUM_CELLS

    def check_output(self, op: int, out: Path, tally: Tally):
        """Every row's s is on the stored fine grid; its estimate must match
        the stored single-worker reference within COVERAGE_ABS_TOL."""
        rows = _read_csv(out)
        tally.check(rows[0] == ["s", "estimate", "std_err", "ess"], f"op {op}: header")
        for row in rows[1:]:
            want = self.stored.get(row[0])
            ok = (want is not None and row[2:] == want[2:]
                  and abs(float(row[1]) - float(want[1])) <= COVERAGE_ABS_TOL)
            tally.check(ok, f"op {op}: row {row} vs stored {want}")

    def check_sample(self, work: Path, tally: Tally) -> float:
        return check_ds_sample(self.lib, self.refs, tally)


def make_workload(name: str, lib, seed: int, work: Path):
    if name == "limits":
        return Limits(lib, seed, work)
    if name == "enumerate":
        return Enumerate(lib, seed, work, name)
    return Simulate(lib, seed, work, name)


# ---------------------------------------------------------------------------
# runs


def setup(name: str, lib, seed: int, work: Path):
    """Input generation, parsing, reference loading and warm-up, repeated
    SETUP_REPEATS times; returns the last workload and the median time."""
    times = []
    for k in range(SETUP_REPEATS):
        sub = work / f"setup{k}"
        sub.mkdir()
        start = time.perf_counter()
        workload = make_workload(name, lib, seed, sub)
        times.append(time.perf_counter() - start)
    return workload, statistics.median(times)


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def timing_metrics(latencies, evaluations, rate_per_op: bool) -> dict:
    if rate_per_op:
        rate = statistics.median(e / t for e, t in zip(evaluations, latencies))
    else:
        rate = sum(evaluations) / sum(latencies)
    return {
        "limits_per_s": rate,
        "latency_p50_ms": 1e3 * statistics.median(latencies),
        "latency_p99_ms": 1e3 * _percentile(latencies, 0.99),
    }


def end_to_end(workload, seconds, work, tally, setup_s) -> dict:
    """End-to-end metrics; times are scaled to the reference machine speed
    (see SpeedProbe) and the raw figures go to stderr."""
    probe = SpeedProbe()
    latencies, evaluations, slowdowns = workload.timed(seconds, tally, probe)
    scaled = [t / s for t, s in zip(latencies, slowdowns)]
    raw = timing_metrics(latencies, evaluations, workload.rate_per_op)
    if len(latencies) <= 50:
        print(f"# operation latencies, s: raw {[round(t, 3) for t in latencies]}, "
              f"scaled {[round(t, 3) for t in scaled]}", file=sys.stderr)
    print(f"# {len(latencies)} timed operations, {len(probe.samples)} speed "
          f"probes, median slowdown {statistics.median(slowdowns)!r}; raw "
          f"{raw}, raw setup_s {setup_s!r}", file=sys.stderr)
    rel_err = workload.check_sample(work, tally)
    return {
        **timing_metrics(scaled, evaluations, workload.rate_per_op),
        "ok_ratio": 1.0 - tally.failed / tally.attempted,
        "limit_rel_err_max": rel_err,
        "peak_rss_mb": peak_rss_mb(),
        "setup_s": setup_s / probe.slowdown(0),
    }


def per_layer(workload, lib, work, tally) -> dict:
    from tracer import DSPLIM_BINDINGS, Tracer

    # Each operation runs untraced, then traced, so that drifts in machine
    # load fall on both sides of trace.overhead_ratio alike.
    tracer = Tracer()
    untraced = traced = 0.0
    for op in workload.trace_ops(tally):
        start = time.perf_counter()
        op()
        untraced += time.perf_counter() - start
        tracer.install(DSPLIM_BINDINGS)
        try:
            start = time.perf_counter()
            tracer.call("bench", op)
            traced += time.perf_counter() - start
        finally:
            tracer.uninstall()

    efficiency = 0.0
    if isinstance(workload, Enumerate):
        # Same operation at two workers, untraced: pool efficiency and the
        # bitwise determinism check against the single-worker output.
        start = time.perf_counter()
        for op in workload.trace_ops(tally, threads=2):
            op()
        efficiency = untraced / (2.0 * (time.perf_counter() - start))
        one = workload.op(1, threads=1)[1].read_bytes()
        two = workload.op(1, threads=2)[1].read_bytes()
        tally.check(one == two, "enumerate: 2-worker CSV differs from 1-worker CSV")

    quad_ms = check_quadrature(lib, tally)
    workload.check_sample(work, tally)

    s, n, k = tracer.self_time, tracer.calls, tracer.counts
    ds_calls = n["ds_limits.dataset_limits"]
    metrics = {
        "ds_limits.dataset_limits.calls": ds_calls,
        "ds_limits.dataset_limits.self_s": s["ds_limits.dataset_limits"],
        "ds_limits.shared_grid.self_s": s["ds_limits.shared_grid"],
        "ds_limits.shared_grid.probes_per_channel":
            k["shared_grid.probes"] / max(k["shared_grid.channels"], 1),
        "ds_limits.channel_curves.self_s": s["ds_limits.channel_curves"],
        "ds_limits.channel_curves.knots": k["channel_curves.knots"],
        "ds_limits.channel_cdf.self_s": s["ds_limits.channel_cdf"],
        "ds_limits.combine_channels.self_s": s["ds_limits.combine_channels"],
        "ds_limits.upper_limit.self_s": s["ds_limits.upper_limit"],
        "gamma_ratio.survival.calls": n["gamma_ratio.survival"],
        "gamma_ratio.survival.points": k["survival.points"],
        "gamma_ratio.survival.self_s": s["gamma_ratio.survival"],
        "gamma_ratio.series.terms": k["series.terms"],
        "gamma_ratio.series.ns_per_term":
            1e9 * s["gamma_ratio.survival"] / max(k["series.terms"], 1),
        "gamma_ratio.conditioning.calls": n["gamma_ratio.conditioning"],
        "gamma_ratio.conditioning.self_s": s["gamma_ratio.conditioning"],
        "gamma_ratio.quadrature.ms_per_point": quad_ms,
        "bayes.batch.calls": n["bayes.batch"],
        "bayes.batch.rows": k["bayes.batch.rows"],
        "bayes.batch.self_s": s["bayes.batch"],
        "evalharness.self_s": s["evalharness"],
        "evalharness.pool.efficiency": efficiency,
        "evalharness.distinct_ratio": len(tracer.keys) / max(ds_calls, 1),
        "evalharness.unbounded_share":
            k["ds_limits.dataset_limits.raised.UnboundedLimit"] / max(ds_calls, 1),
        "cli.self_s": s["cli"],
        "cli.parse_s": s["cli.parse"],
        "bench.self_s": s["bench"],
        "trace.wall_s": traced,
        "trace.accounted_share": sum(s.values()) / traced,
        "trace.overhead_ratio": traced / untraced,
    }
    absent = set(tracer.absent)
    if "gamma_ratio.survival" in absent:
        absent.add("gamma_ratio.series")
    missing = {m for m in metrics
               if any(m.startswith((a + ".", a + "_")) for a in absent)}
    if missing:
        print(f"# absent layer metrics: {sorted(missing)}", file=sys.stderr)
    return {m: v for m, v in metrics.items() if m not in missing}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "dsplim" / "__init__.py").is_file():
        print(f"error: no dsplim package under {SRC}", file=sys.stderr)
        return 2
    if not (REFS / "manifest.json").is_file():
        print(f"error: no stored references under {REFS}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    start = time.perf_counter()
    import dsplim
    from dsplim import bayes, cli, ds_limits
    import_s = time.perf_counter() - start
    if Path(dsplim.__file__).resolve().parent != SRC / "dsplim":
        print(f"error: imported dsplim from {dsplim.__file__}", file=sys.stderr)
        return 2
    lib = {
        "cli": cli,
        "bayes": bayes,
        "ds_limits": ds_limits,
        "errors": (dsplim.NumericalError, dsplim.IntegrationError),
    }

    work = Path(tempfile.mkdtemp(prefix=".work-", dir=BENCH_DIR))
    try:
        tally = Tally()
        workload, setup_s = setup(args.workload, lib, args.seed, work)
        if args.trace:
            metrics = per_layer(workload, lib, work, tally)
            units = PER_LAYER_UNITS
        else:
            metrics = end_to_end(workload, args.seconds, work, tally, import_s + setup_s)
            units = END_TO_END_UNITS
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for note in tally.notes:
        print(f"# FAILED: {note}", file=sys.stderr)
    for name, value in metrics.items():
        print(f"{name} {value!r} {units[name]}")
    print(json.dumps({"run_record": run_record(dsplim, args.seconds, args.trace)}))
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {m: {"value": float(v), "unit": units[m]} for m, v in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
