"""Experiment orchestration for the naive-Bayes and regression sweeps.

Runs each mechanism over a parameter grid with repeated train/test
splits and emits tidy metric rows (one per mechanism, grid point,
repeat, metric) ready for any plotting tool. Everything is a pure
function of (config, seed): repeats derive their own substreams, so
re-running a config reproduces the CSV byte for byte, and rows are
emitted in (mechanism, grid point, repeat) order no matter how the
work was scheduled.
"""
from __future__ import annotations

import logging
from dataclasses import dataclass, field

import numpy as np

from . import fourier, laplace, regression, sampler
from .errors import ConfigError, OmegaTooLargeError
from .graph import (
    BayesNetGraph,
    Dataset,
    PosteriorMap,
    ThetaMap,
    UpdateVector,
    ancestral_sample,
    compute_updates,
    posterior_params,
    uniform_priors,
)
from .io import load_dataset, load_regression_csv
from .metrics import accuracy
from .randomness import derive_seed, substream

log = logging.getLogger("dpbayes.harness")

NB_MECHANISMS = ("none", "laplace", "fourier", "sampler")
LINREG_MECHANISMS = ("none", "sampler")

DEFAULT_EPSILON_GRID = (0.5, 1.0, 2.0, 5.0, 10.0, 20.0)
DEFAULT_B_GRID = (0.1, 1.0, 10.0)

CSV_HEADER = "mechanism,param,repeat,metric,value"


@dataclass(frozen=True)
class ExperimentConfig:
    """One experiment run: what to sweep, how often, from which seed.

    mechanisms=None runs every mechanism of the task.
    """

    task: str = "nb"
    mechanisms: tuple[str, ...] | None = None
    epsilon_grid: tuple[float, ...] = DEFAULT_EPSILON_GRID
    b_grid: tuple[float, ...] = DEFAULT_B_GRID
    repeats: int = 100
    train_fraction: float = 0.05
    seed: int = 0
    d: int = 16
    n: int = 1000
    sampler_samples: int = 1000
    regression_samples: int = 100
    fourier_t: float = fourier.DEFAULT_STEALTH_T
    threshold: float = 0.5
    sigma2: float = 1.0
    radius: float | None = None  # None: 10/sqrt(b) per grid point
    noise_sigma: float = 0.1
    dataset: str | None = None
    theta: ThetaMap | None = field(default=None, hash=False)

    def __post_init__(self) -> None:
        allowed = {"nb": NB_MECHANISMS, "linreg": LINREG_MECHANISMS}.get(self.task)
        if allowed is None:
            raise ConfigError(f"unknown sweep task {self.task!r}; use 'nb' or 'linreg'")
        if self.mechanisms is None:
            object.__setattr__(self, "mechanisms", allowed)
        if not self.mechanisms:
            raise ConfigError("need at least one mechanism")
        for mech in self.mechanisms:
            if mech not in allowed:
                raise ConfigError(f"unknown mechanism {mech!r} for task {self.task!r}")
        if not self.epsilon_grid or any(not e > 0 for e in self.epsilon_grid):
            raise ConfigError("epsilon grid must be non-empty and strictly positive")
        if not self.b_grid or any(not b > 0 for b in self.b_grid):
            raise ConfigError("b grid must be non-empty and strictly positive")
        if self.repeats < 1:
            raise ConfigError("repeats must be at least 1")
        if not 0.0 < self.train_fraction < 1.0:
            raise ConfigError("train fraction must lie strictly between 0 and 1")
        if self.d < 1 or self.n < 2:
            raise ConfigError("need at least one feature and two records")
        if self.sampler_samples < 1 or self.regression_samples < 1:
            raise ConfigError("sample counts must be at least 1")
        if not 0.0 < self.sigma2 < np.inf:
            raise ConfigError(f"sigma2 must be positive and finite, got {self.sigma2}")
        if self.radius is not None and not 0.0 < self.radius < np.inf:
            raise ConfigError(f"radius must be positive and finite when given, got {self.radius}")
        if not 0.0 <= self.threshold <= 1.0:
            raise ConfigError(f"threshold must lie in [0, 1], got {self.threshold}")
        if not 0.0 <= self.noise_sigma < np.inf:
            raise ConfigError(f"noise sigma must be non-negative and finite, got {self.noise_sigma}")


@dataclass(frozen=True)
class MetricsRow:
    mechanism: str
    param: float
    repeat: int
    metric: str
    value: float


@dataclass
class ExperimentResult:
    rows: list[MetricsRow]
    stealth_clamps: int = 0  # Fourier releases read with negative cells floored


# ---------------------------------------------------------------------------
# synthetic data
# ---------------------------------------------------------------------------


def naive_bayes_graph(d: int) -> BayesNetGraph:
    """Class node 0; features 1..d each with the class as sole parent."""
    if d < 1:
        raise ConfigError("need at least one feature")
    return BayesNetGraph(node_count=d + 1, parents=((),) + ((0,),) * d)


def synth_nb(
    d: int, n: int, seed: int, theta: ThetaMap | None = None
) -> tuple[Dataset, ThetaMap]:
    """Ancestral samples from a naive-Bayes generator.

    Unspecified parameters are drawn uniformly on (0, 1), one keyed
    substream per entry; records come from their own stream, so the
    same seed always yields the same bytes.
    """
    graph = naive_bayes_graph(d)
    if theta is None:
        theta = {
            key: float(substream(seed, "synth-theta", *key).random())
            for key in graph.entry_keys()
        }
    data = ancestral_sample(graph, theta, n, substream(seed, "synth-records"))
    return data, theta


def split_dataset(data: Dataset, train_fraction: float, seed: int) -> tuple[Dataset, Dataset]:
    """Disjoint, covering train/test split from a seeded permutation."""
    if not 0.0 < train_fraction < 1.0:
        raise ConfigError("train fraction must lie strictly between 0 and 1")
    n_train = min(data.n - 1, max(1, round(data.n * train_fraction)))
    perm = substream(seed, "train-test-split").permutation(data.n)
    return data.subset(perm[:n_train]), data.subset(perm[n_train:])


def synth_linreg(
    d: int, n: int, seed: int, noise_sigma: float = 0.1
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Gaussian design, true weights of norm 1.5, additive noise."""
    rng = substream(seed, "linreg-synth")
    X = rng.normal(size=(n, d))
    w = rng.normal(size=d)
    w *= 1.5 / np.linalg.norm(w)
    y = X @ w + noise_sigma * rng.normal(size=n)
    return X, y, w


# ---------------------------------------------------------------------------
# posterior-mean naive-Bayes predictive (kernel shared with the sampler)
# ---------------------------------------------------------------------------


def nb_predictive_batch(posterior: PosteriorMap, X: np.ndarray) -> np.ndarray:
    """Pr(Y=1 | x) for every row of X, from the posterior-mean factors.

    Each Beta entry contributes its predictive factor alpha/(alpha+beta)
    or beta/(alpha+beta), so the posterior means are a single draw
    column of the naive-Bayes kernel the Monte Carlo predictive uses.
    """
    keys = sampler.naive_bayes_keys(posterior)
    means = np.array([posterior[k].mean for k in keys])[:, None]
    return sampler.naive_bayes_class1(means, X)


# ---------------------------------------------------------------------------
# experiment drivers
# ---------------------------------------------------------------------------


def _require_task(config: ExperimentConfig, task: str) -> None:
    if config.task != task:
        raise ConfigError(f"the {task!r} sweep cannot run a config for task {config.task!r}")


def _rows(
    config: ExperimentConfig,
    grid: tuple[float, ...],
    metric: str,
    values: dict[tuple[str, int, int], float],
) -> list[MetricsRow]:
    """One row per (mechanism, grid point, repeat), in that order, from values keyed by index."""
    return [
        MetricsRow(mech, param, r, metric, values[(mech, gi, r)])
        for mech in config.mechanisms
        for gi, param in enumerate(grid)
        for r in range(config.repeats)
    ]


def run_nb_experiment(config: ExperimentConfig) -> ExperimentResult:
    """Accuracy sweep of the naive-Bayes mechanisms over the epsilon grid."""
    _require_task(config, "nb")
    if config.dataset is not None:
        data = load_dataset(config.dataset)
        if data.dimension < 2:
            raise ConfigError("dataset needs a class column plus at least one feature")
        d = data.dimension - 1
    else:
        data, _ = synth_nb(config.d, config.n, config.seed, config.theta)
        d = config.d
    graph = naive_bayes_graph(d)
    priors = uniform_priors(graph)

    acc: dict[tuple[str, int, int], float] = {}
    stealth_clamps = 0
    for r in range(config.repeats):
        train, test = split_dataset(
            data, config.train_fraction, derive_seed(config.seed, "split", r)
        )
        X_test = test.records[:, 1:]
        labels = test.records[:, 0].astype(np.int64)
        updates = compute_updates(graph, train)
        exact_post = posterior_params(priors, updates)

        if "none" in config.mechanisms:
            probs = nb_predictive_batch(exact_post, X_test)
            value = accuracy(probs, labels, config.threshold)
            for ei in range(len(config.epsilon_grid)):
                acc[("none", ei, r)] = value

        for ei, eps in enumerate(config.epsilon_grid):
            if "laplace" in config.mechanisms:
                spec = laplace.LaplaceNoiseSpec.for_graph(graph, eps, train.n)
                pert = laplace.perturb_updates(
                    updates, spec, derive_seed(config.seed, "laplace", ei, r)
                )
                post = posterior_params(priors, UpdateVector(pert.entries))
                probs = nb_predictive_batch(post, X_test)
                acc[("laplace", ei, r)] = accuracy(probs, labels, config.threshold)

            if "fourier" in config.mechanisms:
                _, post, floored = fourier.release_posterior(
                    train,
                    graph,
                    priors,
                    eps,
                    config.fourier_t,
                    derive_seed(config.seed, "fourier", ei, r),
                )
                stealth_clamps += floored
                probs = nb_predictive_batch(post, X_test)
                acc[("fourier", ei, r)] = accuracy(probs, labels, config.threshold)

            if "sampler" in config.mechanisms:
                try:
                    probs = sampler.sampler_predictive_batch(
                        graph,
                        exact_post,
                        X_test,
                        eps,
                        config.sampler_samples,
                        derive_seed(config.seed, "sampler", ei, r),
                    )
                except OmegaTooLargeError:
                    # Trim interval is degenerate at this epsilon: the
                    # only released parameter is the midpoint, which
                    # carries no data and so costs no privacy.
                    probs = np.full(X_test.shape[0], 0.5)
                acc[("sampler", ei, r)] = accuracy(probs, labels, config.threshold)

    if stealth_clamps:
        releases = config.repeats * len(config.epsilon_grid)
        log.info("fourier stealth: %d of %d releases floored", stealth_clamps, releases)
    return ExperimentResult(_rows(config, config.epsilon_grid, "accuracy", acc), stealth_clamps)


def run_linreg_experiment(config: ExperimentConfig) -> ExperimentResult:
    """MSE sweep over prior precisions for exact and sampled predictors."""
    _require_task(config, "linreg")
    if config.dataset is not None:
        X_raw, y_raw = load_regression_csv(config.dataset)
    else:
        X_raw, y_raw, _ = synth_linreg(
            config.d, config.n, config.seed, config.noise_sigma
        )
    data = regression.scale_regression_data(X_raw, y_raw, config.sigma2)

    mse: dict[tuple[str, int, int], float] = {}
    for r in range(config.repeats):
        split_seed = derive_seed(config.seed, "linreg-split", r)
        perm = substream(split_seed, "train-test-split").permutation(data.n)
        n_train = min(data.n - 1, max(data.d + 1, round(data.n * config.train_fraction)))
        tr, te = perm[:n_train], perm[n_train:]
        train = regression.RegressionData(
            X=data.X[tr], y=data.y[tr], sigma2=config.sigma2
        )
        X_test, y_test = data.X[te], data.y[te]
        for bi, b in enumerate(config.b_grid):
            radius = config.radius if config.radius is not None else regression.default_radius(b)
            post = regression.fit_posterior(train, b, radius)
            if "none" in config.mechanisms:
                resid = regression.posterior_mean_predictions(post, X_test) - y_test
                mse[("none", bi, r)] = float(np.mean(resid**2))
            if "sampler" in config.mechanisms:
                mse[("sampler", bi, r)] = regression.predictive_mse(
                    post,
                    X_test,
                    y_test,
                    config.regression_samples,
                    derive_seed(config.seed, "linreg-draws", bi, r),
                )
    return ExperimentResult(_rows(config, config.b_grid, "mse", mse))


# ---------------------------------------------------------------------------
# metrics output
# ---------------------------------------------------------------------------


def rows_to_csv(rows: list[MetricsRow]) -> str:
    """Tidy CSV text; float formatting via repr so re-runs are byte-stable."""
    lines = [CSV_HEADER]
    for row in rows:
        lines.append(
            f"{row.mechanism},{row.param!r},{row.repeat},{row.metric},{row.value!r}"
        )
    return "\n".join(lines) + "\n"


def run_experiment(config: ExperimentConfig) -> ExperimentResult:
    if config.task == "nb":
        return run_nb_experiment(config)
    return run_linreg_experiment(config)
