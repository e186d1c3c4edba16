"""Outside-in layer tracing for the benchmark.

The tracer replaces public functions at the module bindings their
callers look up (for example ``dsplim.ds_limits.survival``, which
``_channel_cdf`` calls) with wrappers that record a span per call.
Spans nest through an in-memory stack; a layer's self time is its span
durations minus the time its child spans cover.  Hooks add counts at
the same boundaries.  A binding that no longer exists is reported in
``absent`` instead of raising, so a renamed function shows up as a
missing layer metric rather than a crashed run.
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import Counter, defaultdict


class Tracer:
    def __init__(self):
        self.calls = Counter()
        self.self_time = defaultdict(float)
        self.counts = Counter()
        self.keys = set()
        self.absent = set()
        self._stack = []  # [name, start, child_time]
        self._saved = []

    @property
    def parent(self):
        return self._stack[-1][0] if self._stack else None

    def _enter(self, name):
        self._stack.append([name, time.perf_counter(), 0.0])

    def _exit(self):
        name, start, child = self._stack.pop()
        dur = time.perf_counter() - start
        self.calls[name] += 1
        self.self_time[name] += dur - child
        if self._stack:
            self._stack[-1][2] += dur

    def call(self, name, fn, *args, hook=None, **kwargs):
        """Run fn(*args, **kwargs) inside a span called `name`."""
        if hook is not None:
            hook(self, args, kwargs)
        self._enter(name)
        try:
            return fn(*args, **kwargs)
        except Exception as exc:
            self.counts[f"{name}.raised.{type(exc).__name__}"] += 1
            raise
        finally:
            self._exit()

    def install(self, bindings):
        """Wrap each (module name, attribute, span name, hook) binding."""
        for module_name, attr, name, hook in bindings:
            try:
                module = importlib.import_module(module_name)
            except ImportError:
                module = None
            fn = getattr(module, attr, None)
            if fn is None:
                self.absent.add(name)
                continue
            self._saved.append((module, attr, fn))
            setattr(module, attr, self._wrap(name, fn, hook))

    def uninstall(self):
        while self._saved:
            module, attr, fn = self._saved.pop()
            setattr(module, attr, fn)

    def _wrap(self, name, fn, hook):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return self.call(name, fn, *args, hook=hook, **kwargs)

        return wrapper


# ---------------------------------------------------------------------------
# count hooks: (tracer, args, kwargs) -> None, called before the span opens


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def count_survival(tr, args, kwargs):
    import numpy as np

    points = int(np.size(_arg(args, kwargs, 0, "x")))
    tr.counts["survival.points"] += points
    tr.counts["series.terms"] += points * int(round(_arg(args, kwargs, 1, "kn")))


def count_grid_channels(tr, args, kwargs):
    channels = _arg(args, kwargs, 0, "channels")
    tr.counts["shared_grid.channels"] += sum(1 for ch in channels if ch.z > 0)


def count_cdf_upper(tr, args, kwargs):
    if tr.parent == "ds_limits.shared_grid":
        tr.counts["shared_grid.probes"] += 1


def count_knots(tr, args, kwargs):
    xs = args[2] if len(args) > 2 else kwargs.get("xs")
    tr.counts["channel_curves.knots"] += 0 if xs is None else len(xs)


def count_dataset(tr, args, kwargs):
    dataset = _arg(args, kwargs, 0, "dataset")
    tr.keys.add(tuple((ch.n, ch.y, ch.z, ch.t, ch.u) for ch in dataset.channels))


def count_batch_rows(tr, args, kwargs):
    rows = len(_arg(args, kwargs, 0, "ns")) * len(_arg(args, kwargs, 6, "quantiles"))
    tr.counts["bayes.batch.rows"] += rows


# The wrapped layer boundaries, at the module bindings their callers use.
DSPLIM_BINDINGS = [
    ("dsplim.cli", "main", "cli", None),
    ("dsplim.cli", "parse_dataset_file", "cli.parse", None),
    ("dsplim.cli", "simulate_study", "evalharness", None),
    ("dsplim.cli", "coverage_enumerate", "evalharness", None),
    ("dsplim.evalharness", "dataset_limits", "ds_limits.dataset_limits", count_dataset),
    ("dsplim.evalharness", "bayes_upper_limits_batch", "bayes.batch", count_batch_rows),
    ("dsplim.ds_limits", "dataset_limits", "ds_limits.dataset_limits", count_dataset),
    ("dsplim.ds_limits", "shared_grid", "ds_limits.shared_grid", count_grid_channels),
    ("dsplim.ds_limits", "channel_curves", "ds_limits.channel_curves", count_knots),
    ("dsplim.ds_limits", "channel_cdf_lower", "ds_limits.channel_cdf", None),
    ("dsplim.ds_limits", "channel_cdf_upper", "ds_limits.channel_cdf", count_cdf_upper),
    ("dsplim.ds_limits", "combine_channels", "ds_limits.combine_channels", None),
    ("dsplim.ds_limits", "upper_limit", "ds_limits.upper_limit", None),
    ("dsplim.ds_limits", "survival", "gamma_ratio.survival", count_survival),
    ("dsplim.ds_limits", "conditioning_probability", "gamma_ratio.conditioning", None),
]
