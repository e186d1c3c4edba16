"""Upper limits for Poisson counting data with additive-background and
multiplicative-efficiency nuisance parameters, via belief-interval
(Dempster-Shafer) analysis, plus the Bayesian comparison method and an
evaluation harness (coverage, credibility, interval length)."""

from ._gamma_ratio import NumericalError
from .bayes import (
    PRIOR_PRESETS,
    GammaPosteriors,
    PriorConfig,
    bayes_posterior_cdf,
    bayes_upper_limit,
    conjugate_posteriors,
    prior_preset,
)
from .ds_limits import (
    ChannelCurves,
    ChannelObservation,
    Dataset,
    GridConfig,
    PlausibilityDensity,
    UnboundedLimit,
    channel_cdf_lower,
    channel_cdf_upper,
    channel_curves,
    combine_channels,
    dataset_density,
    dataset_limits,
    shared_grid,
    upper_limit,
)
from .evalharness import (
    CoverageReport,
    CredibilityConfig,
    EnumerationTooLarge,
    NoPosteriorMass,
    StudyResult,
    coverage_enumerate,
    coverage_importance,
    credibility,
    credibility_limit,
    make_bayes_method,
    make_ds_method,
    simulate_study,
)
from .sampling import DEFAULT_SEED, RngHandle, derive_stream_id
from .specfun import IntegrationError, beta_cdf, beta_pdf

__version__ = "0.1.0"
