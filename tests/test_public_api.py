"""The names ``import dsplim`` exports and the modules the package holds.

Both sets are pinned, so a removed name stays removed and a new export
is a deliberate edit here.
"""

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
    "credibility_limit", "length_quantiles", "make_bayes_method", "make_ds_method",
    "simulate_study",
    # dsplim.sampling
    "DEFAULT_SEED", "RngHandle", "derive_stream_id",
    # dsplim.specfun
    "IntegrationError", "QuadratureConfig", "beta_cdf", "beta_pdf", "integrate",
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
