"""Differentially private Bayesian inference on binary Bayesian networks.

Four mechanisms over the same conjugate Beta-Bernoulli model: Laplace
noise on posterior update counts, consistent noisy marginals through
the Walsh basis, trimmed posterior sampling, and exponential-mechanism
MAP estimation; plus Bayesian linear regression with a truncated
Gaussian posterior, verification oracles, and an experiment harness.
"""

from types import ModuleType as _ModuleType

from .errors import (
    ConditionViolatedError,
    ConfigError,
    CyclicGraphError,
    DimensionMismatchError,
    DpBayesError,
    InvalidArgumentError,
    NonPositivePosteriorParamError,
    OmegaTooLargeError,
)
from .expmech import (
    GridSpec,
    MapSensitivity,
    exp_mechanism_indices,
    map_utility_certificate,
    sampling_probabilities,
)
from .fourier import (
    CoefficientSet,
    DownwardClosure,
    downward_closure,
    exact_coefficients,
    fourier_coefficient,
    fourier_posterior_params,
    marginal_error_bound,
    noise_scale,
    reconstruct_marginal,
    release_coefficients,
    shared_submarginal,
    stealth_increment,
)
from .graph import (
    BayesNetGraph,
    BetaParams,
    ContingencyTable,
    Dataset,
    EntryTable,
    UpdateVector,
    ancestral_sample,
    build_table,
    compute_updates,
    joint_log_likelihood,
    naive_bayes_graph,
    posterior_params,
    project_marginal,
    uniform_priors,
    validate_graph,
)
from .harness import (
    ExperimentConfig,
    ExperimentResult,
    MetricsRow,
    nb_predictive_batch,
    rows_to_csv,
    run_experiment,
    run_linreg_experiment,
    run_nb_experiment,
    split_dataset,
    synth_linreg,
    synth_nb,
)
from .io import load_dataset, load_grid, load_network, load_regression_csv
from .laplace import (
    LaplaceNoiseSpec,
    PerturbedUpdates,
    perturb_updates,
    posterior_kl_bound,
    update_deviation_bound,
)
from .metrics import KlReport, PrivacyCheckReport, accuracy, kl_beta, kl_joint
from .randomness import derive_seed, laplace_from_uniform, substream
from .regression import (
    GaussianPosterior,
    PosteriorStack,
    RegressionData,
    default_radius,
    fit_posterior,
    predictive_mse,
    sample_truncated,
    scale_regression_data,
)
from .sampler import (
    sampler_predictive_batch,
    trim_bound,
    trimmed_beta_draws,
    trimmed_posterior_sample,
)

__version__ = "0.1.0"

__all__ = [
    name
    for name, value in globals().items()
    if not name.startswith("_") and not isinstance(value, _ModuleType)
]
