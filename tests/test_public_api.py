"""The names ``import dsplim`` exports, the modules the package holds,
and the scipy modules its command line imports.

The sets are pinned, so a removed name stays removed and a new export
is a deliberate edit here.
"""

import os
import subprocess
import sys
import types
from pathlib import Path

import dsplim

EXPORTS = {
    # dsplim.bayes
    "GammaPosteriors", "PRIOR_PRESETS", "PriorConfig", "bayes_posterior_cdf",
    "bayes_upper_limit", "conjugate_posteriors", "prior_preset",
    # dsplim.ds_limits
    "ChannelCurves", "ChannelObservation", "Dataset", "GridConfig",
    "PlausibilityDensity", "UnboundedLimit", "channel_cdf_lower",
    "channel_cdf_upper", "channel_curves", "combine_channels", "dataset_density",
    "dataset_limits", "shared_grid", "upper_limit",
    # dsplim.evalharness
    "CoverageReport", "CredibilityConfig", "EnumerationTooLarge", "NoPosteriorMass",
    "StudyResult", "coverage_enumerate", "coverage_importance", "credibility",
    "credibility_limit", "make_bayes_method", "make_ds_method", "simulate_study",
    # dsplim.sampling
    "DEFAULT_SEED", "RngHandle", "derive_stream_id",
    # dsplim.specfun
    "IntegrationError", "beta_cdf", "beta_pdf",
    # dsplim._gamma_ratio
    "NumericalError",
}

MODULES = {
    "__init__", "_gamma_ratio", "bayes", "cli", "ds_limits", "evalharness",
    "sampling", "specfun",
}


def test_exported_names():
    # Submodules become attributes of the package once imported, so
    # they are left to the module test below.
    public = {
        name for name, value in vars(dsplim).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert public == EXPORTS


def test_package_modules():
    package = Path(dsplim.__file__).parent
    assert {path.stem for path in package.glob("*.py")} == MODULES


def test_cli_import_leaves_out_slow_scipy_modules():
    # scipy.integrate and scipy.stats each cost a large share of the
    # command line's start-up, which every command pays; the quadrature
    # route imports scipy.integrate when it first runs.
    code = (
        "import sys, dsplim.cli; "
        "print(sorted(m for m in ('scipy.integrate', 'scipy.stats') if m in sys.modules))"
    )
    src = str(Path(dsplim.__file__).parents[1])
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": src}, timeout=60,
    )
    assert out.stdout.strip() == "[]"
