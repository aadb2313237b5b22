"""Posterior inference for latent Gaussian models with skew-Gaussian-copula
corrections.

The pipeline: assemble a Gaussian Markov random field prior over a structured
additive predictor, approximate the latent full conditional per hyperparameter
configuration by a moment-corrected Gaussian, refine each marginal to a
skew-normal, and combine everything into either corrected joint samples or
deterministic posteriors of linear combinations.  A built-in random-walk
Metropolis sampler serves as the validation oracle.
"""

__version__ = "0.1.0"

from .errors import (  # noqa: F401
    BoundaryEvaluation,
    DimensionMismatch,
    DomainError,
    IndexOutOfRange,
    InsufficientSamples,
    InvalidSpec,
    ModeSearchFailure,
    NoConvergence,
    NotPositiveDefinite,
    RankDeficientConstraint,
    SgcError,
    SkewnessOutOfRange,
    SupportMismatch,
)
from .gmrf import (  # noqa: F401
    CholeskyFactor,
    LinearConstraint,
    PrecisionMatrix,
    apply_constraints,
    covariance_from_precision,
    factorize,
    sample_gmrf,
)
from .model import (  # noqa: F401
    ModelSpec,
    assemble_precision,
    make_family,
)
from .skewnormal import (  # noqa: F401
    QuantileTable,
    SkewNormalParams,
    fast_map,
    sn_cdf,
    sn_params_from_moments,
    sn_pdf,
    sn_pdf_rows,
    sn_quantile,
    standardized_map_direct,
)
from .sgc import (  # noqa: F401
    CorrectionKind,
    FullConditionalSGC,
    correction_delta,
    jacobian_terms,
    log_density_sgc,
    sample_full_conditional,
)
from .engine import (  # noqa: F401
    FitResult,
    GaussianApprox,
    GridPoint,
    MarginalRefinement,
    explore_grid,
    fit_model,
    gaussian_approximation,
    log_hyper_posterior,
    refine_marginal,
)
from .sampler import (  # noqa: F401
    JointSamples,
    PosteriorSummary,
    marginal_density_estimate,
    sample_joint,
    summarize,
)
from .lincomb import (  # noqa: F401
    JointMomentSummary,
    MarginalCurve,
    kld_1d,
    linear_combination_summary,
    marginals_1d,
    subset_moments,
    transform_moments,
)
from .mcmc import (  # noqa: F401
    ChainConfig,
    ReferenceRun,
    effective_sample_size,
    run_reference,
    split_rhat,
)
from .artifacts import (  # noqa: F401
    RunManifest,
    load_config,
    load_fit,
    save_fit,
    spec_from_config,
)
