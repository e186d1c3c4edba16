"""Every layer boundary the benchmark's tracer wraps still resolves.

``perfbench/tracer.py`` wraps dsplim functions at the module bindings
their callers look up.  A binding that stops resolving turns a layer
metric into an absent one, so it is checked here as well as in the
traced benchmark run.  The tracer module is only read, never installed.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _bindings():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return [(module, attr) for module, attr, *_ in tracer.DSPLIM_BINDINGS]


@pytest.mark.parametrize("module, attr", _bindings())
def test_binding_resolves(module, attr):
    assert callable(getattr(importlib.import_module(module), attr, None))
