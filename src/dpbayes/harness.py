"""Experiment orchestration for the naive-Bayes and regression sweeps.

Runs each mechanism over a parameter grid with repeated train/test
splits and emits tidy metric rows (one per mechanism, grid point,
repeat, metric) ready for any plotting tool. Everything is a pure
function of (config, seed): repeats derive their own substreams, so
re-running a config reproduces the CSV byte for byte, and rows are
emitted in (mechanism, grid point, repeat) order no matter how the
work was scheduled. That holds for the one schedule that runs on two
threads: the naive-Bayes sampler draws each release on a helper thread
while the release before it is scored, and every release still reads
its own keyed substream.
"""
from __future__ import annotations

import contextlib
import logging
from dataclasses import dataclass, field, fields
from typing import Iterator, Sequence

import numpy as np

from . import fourier, laplace, regression, sampler
from .errors import ConfigError, DimensionMismatchError, InvalidArgumentError, OmegaTooLargeError
from .errors import check_epsilon, check_fraction, check_integer, check_nonnegative
from .errors import check_positive, check_probability
from .graph import (
    Dataset,
    ThetaMap,
    ancestral_sample,
    check_beta_rows,
    count_updates,
    naive_bayes_graph,
    uniform_priors,
)
from .io import load_dataset, load_regression_csv
from .metrics import accuracy
from .randomness import derive_seeds, seed_array, substream, substreams

log = logging.getLogger("dpbayes.harness")

NB_MECHANISMS = ("none", "laplace", "fourier", "sampler")
LINREG_MECHANISMS = ("none", "sampler")

DEFAULT_EPSILON_GRID = (0.5, 1.0, 2.0, 5.0, 10.0, 20.0)
DEFAULT_B_GRID = (0.1, 1.0, 10.0)
# per sweep task: its mechanisms, and its default feature and record counts
_TASKS = {"nb": (NB_MECHANISMS, 16, 1000), "linreg": (LINREG_MECHANISMS, 5, 2000)}
# per sweep task: the settings that only it reads
_TASK_SETTINGS = {
    "nb": ("epsilon_grid", "sampler_samples", "fourier_t", "threshold", "theta"),
    "linreg": ("b_grid", "regression_samples", "sigma2", "radius", "noise_sigma"),
}

CSV_HEADER = "mechanism,param,repeat,metric,value"


@dataclass(frozen=True)
class ExperimentConfig:
    """One experiment run: what to sweep, how often, from which seed.

    mechanisms=None runs every mechanism of the task. Without a dataset,
    d=None and n=None take the task's sweep size, 16 features and 1000
    records for nb, 5 and 2000 for linreg, and noise_sigma=None reads as
    0.1. A dataset replaces the generated data, so d, n, noise_sigma and
    theta must then stay None, and a setting that only the other task
    reads (_TASK_SETTINGS) must keep its default; either one set is a
    ConfigError. An nb sampler sweep refuses an epsilon whose trim bound
    underflows, but not a degenerate trim interval, which the sweep
    scores as 0.5.
    """

    task: str = "nb"
    mechanisms: tuple[str, ...] | None = None
    epsilon_grid: tuple[float, ...] = DEFAULT_EPSILON_GRID
    b_grid: tuple[float, ...] = DEFAULT_B_GRID
    repeats: int = 100
    train_fraction: float = 0.05
    seed: int = 0
    d: int | None = None
    n: int | None = None
    sampler_samples: int = 1000
    regression_samples: int = 100
    fourier_t: float = fourier.DEFAULT_STEALTH_T
    threshold: float = 0.5
    sigma2: float = 1.0
    radius: float | None = None  # None: 10/sqrt(b) per grid point
    noise_sigma: float | None = None  # None: 0.1
    dataset: str | None = None
    theta: ThetaMap | None = field(default=None, hash=False)

    def __post_init__(self) -> None:
        if self.task not in _TASKS:
            raise ConfigError(f"unknown sweep task {self.task!r}; use 'nb' or 'linreg'")
        allowed, d, n = _TASKS[self.task]
        if self.dataset is not None:
            generator = ("d", "n", "noise_sigma", "theta")
            unread = [name for name in generator if getattr(self, name) is not None]
            if unread:
                scope = f"task {self.task!r} with a dataset"
                raise ConfigError(f"unknown setting {', '.join(map(repr, unread))} for {scope}")
            d = n = None  # the sweep takes its size from the dataset
        defaults = {f.name: f.default for f in fields(self)}
        unread = [
            name
            for task, names in _TASK_SETTINGS.items() if task != self.task
            for name in names if getattr(self, name) != defaults[name]
        ]
        if unread:
            scope = f"task {self.task!r}"
            raise ConfigError(f"unknown setting {', '.join(map(repr, unread))} for {scope}")
        for name, default in (("mechanisms", allowed), ("d", d), ("n", n)):
            if getattr(self, name) is None:
                object.__setattr__(self, name, default)
        if not self.mechanisms:
            raise ConfigError("need at least one mechanism")
        for at, mech in enumerate(self.mechanisms):
            if mech not in allowed:
                raise ConfigError(f"unknown mechanism {mech!r} for task {self.task!r}")
            if mech in self.mechanisms[:at]:
                raise ConfigError(f"mechanism {mech!r} is listed more than once")
        if not self.epsilon_grid or not self.b_grid:
            raise ConfigError("epsilon and b grids must be non-empty")
        # the library's own rules, reported as the configuration errors they are here
        try:
            check_probability("threshold", self.threshold)
            for epsilon in self.epsilon_grid:
                check_epsilon(epsilon)
                if self.task == "nb" and "sampler" in self.mechanisms:
                    with contextlib.suppress(OmegaTooLargeError):  # the sweep scores it as 0.5
                        sampler.trim_bound(epsilon)
            for b in self.b_grid:
                check_positive("prior precision", b)
            check_fraction("train fraction", self.train_fraction)
            for name in ("repeats", "sampler_samples", "regression_samples"):
                check_integer(name, getattr(self, name), 1)
            check_integer("seed", self.seed)
            check_positive("t", self.fourier_t)
            check_positive("sigma2", self.sigma2)
            if self.radius is not None:
                check_positive("radius", self.radius)
            if self.dataset is None:
                check_integer("d", self.d, 1)
                check_integer("n", self.n, 2)
            if self.noise_sigma is not None:
                check_nonnegative("noise sigma", self.noise_sigma)
        except InvalidArgumentError as exc:
            raise ConfigError(str(exc)) from exc


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


def synth_nb(
    d: int, n: int, seed: int, theta: ThetaMap | None = None
) -> tuple[Dataset, ThetaMap]:
    """Ancestral samples from a naive-Bayes generator.

    Unspecified parameters are drawn uniformly on (0, 1), one keyed
    substream per entry, all 2d+1 of them from one substreams batch;
    records come from their own stream, so the same seed always yields
    the same bytes.
    """
    graph = naive_bayes_graph(d)
    if theta is None:
        keys = graph.entry_keys()
        nodes, configs = np.array(keys).T
        streams = substreams(seed, "synth-theta", nodes, configs)
        theta = {key: float(rng.random()) for key, rng in zip(keys, streams)}
    data = ancestral_sample(graph, theta, n, substream(seed, "synth-records"))
    return data, theta


def _splits(
    n: int, fraction: float, least: int, seeds: Sequence[int] | np.ndarray
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Train and test indices from each seed's permutation; at least `least` train, one test.

    Fewer than two records leave no room for both halves, which is an
    InvalidArgumentError.
    """
    if n < 2:
        raise InvalidArgumentError(f"a train/test split needs at least 2 records, got {n}")
    n_train = min(n - 1, max(least, round(n * fraction)))
    for rng in substreams(seed_array(seeds), "train-test-split"):
        perm = rng.permutation(n)
        yield perm[:n_train], perm[n_train:]


def split_dataset(data: Dataset, train_fraction: float, seed: int) -> tuple[Dataset, Dataset]:
    """Disjoint, covering train/test split from a seeded permutation."""
    check_fraction("train fraction", train_fraction)
    train, test = next(_splits(data.n, train_fraction, 1, (seed,)))
    return Dataset(data.records[train]), Dataset(data.records[test])


def synth_linreg(
    d: int, n: int, seed: int, noise_sigma: float = 0.1
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Gaussian design, true weights of norm 1.5, additive noise."""
    check_integer("d", d, 1)
    check_integer("n", n, 0)
    check_nonnegative("noise_sigma", noise_sigma)
    rng = substream(seed, "linreg-synth")
    X = rng.normal(size=(n, d))
    w = rng.normal(size=d)
    w *= 1.5 / np.linalg.norm(w)
    y = X @ w + noise_sigma * rng.normal(size=n)
    return X, y, w


# ---------------------------------------------------------------------------
# posterior-mean naive-Bayes predictive (kernel shared with the sampler)
# ---------------------------------------------------------------------------


def nb_predictive_batch(posteriors: np.ndarray, X: np.ndarray) -> np.ndarray:
    """Pr(Y=1 | x) from posterior-mean factors: one row per posterior, one column per row of X.

    posteriors are the (alpha, beta) rows of naive-Bayes posteriors,
    stacked as one (G, m, 2) array in the entry order of
    sampler.naive_bayes_params, and scored against the (n, d) rows of X
    into (G, n) probabilities. An (R, G, m, 2) stack of R such sets is
    scored against an (R, n, d) stack of X, set r against its own rows,
    into (R, G, n); one set is the R = 1 case of that stack. Each Beta
    entry contributes its predictive factor alpha/(alpha+beta) or
    beta/(alpha+beta), so a posterior's means are a single draw column
    of the naive-Bayes kernel the Monte Carlo predictive uses. Each
    posterior is one kernel group: the rows are checked, the means taken
    and the kernel's columns built once per call, and each set reads its
    X once for all its posteriors, in a product of the shape it has when
    scored alone. The caller bounds memory by the size of the stack it
    passes; the kernel's own buffers do not grow with R.
    """
    shape = getattr(posteriors, "shape", None)  # None for anything but an array
    if (
        shape is None or len(shape) not in (3, 4) or not shape[-3]
        or shape[-2] % 2 != 1 or shape[-1] != 2
    ):
        raise DimensionMismatchError(
            "need a (G, m, 2) stack of naive-Bayes posteriors, or an (R, G, m, 2) stack of"
            f" such stacks, got shape {shape}"
        )
    params = check_beta_rows(posteriors)
    means = params[..., 0] / (params[..., 0] + params[..., 1])
    return sampler.naive_bayes_class1(np.swapaxes(means, -1, -2)[..., None], X)


# ---------------------------------------------------------------------------
# experiment drivers
# ---------------------------------------------------------------------------


def _require_task(config: ExperimentConfig, task: str) -> None:
    if config.task != task:
        raise ConfigError(f"the {task!r} sweep cannot run a config for task {config.task!r}")


def _rows(
    config: ExperimentConfig, grid: tuple[float, ...], metric: str, values: dict[str, np.ndarray]
) -> list[MetricsRow]:
    """One row per (mechanism, grid point, repeat), in that order, from (grid, repeats) arrays."""
    return [
        MetricsRow(mech, param, r, metric, value)
        for mech in config.mechanisms
        for param, line in zip(grid, np.broadcast_to(values[mech], (len(grid), config.repeats)))
        for r, value in enumerate(line.tolist())
    ]


def _seed_grid(config: ExperimentConfig, tag: str, grid: tuple[float, ...]) -> np.ndarray:
    """derive_seed(config.seed, tag, grid index, repeat) of every pair: a (repeats, grid) array."""
    return derive_seeds(
        config.seed, tag, np.arange(len(grid)), np.arange(config.repeats)[:, None]
    )


def run_nb_experiment(config: ExperimentConfig) -> ExperimentResult:
    """Accuracy sweep of the naive-Bayes mechanisms over the epsilon grid.

    The sweep derives each kind of seed for all its repeats and epsilons
    in one derive_seeds call, and takes every repeat's split from one
    batch of keyed streams. Every repeat's rows are indexed straight from
    the checked dataset, and one count_updates call counts each training
    split once, into the (R, m, 2) stack of counts that every mechanism
    reads. The exact posteriors are the priors plus the counts; laplace
    releases the whole (repeat, epsilon) grid as one (R, E, m, 2) stack
    of noisy counts, and fourier as one (R, E, |J|) stack of coefficients
    read off the counts, and back, with one Walsh pass per family size.
    Every release still draws from its own keyed substream, and a fourier
    release is floored only when its own posterior has a non-positive
    parameter. A repeat's none, laplace and fourier posteriors form its
    (G, m, 2) row of one (R, G, m, 2) stack, scored against the
    (R, n_test, d) stack of test rows by one nb_predictive_batch call
    and one accuracy call per chunk of repeats.
    A chunk holds as many repeats as fit their (G, n_test) probabilities
    in one kernel block (sampler._BLOCK_BYTES), so memory does not grow
    with R: at the bench config, 20 repeats of 13 posteriors on 950 test
    rows, the sweep is one chunk. The sampler resolves each epsilon's
    trim bound once: a degenerate epsilon's rows score the 0.5 midpoint,
    and the live ones, largest first, go to one stacked
    sampler_predictive_batch call and one accuracy call per chunk of
    repeats whose (R, E, n_test) probabilities fit the same block. That
    call's two workers each draw a whole (repeat, epsilon) release from
    its own substream and score it alone from its repeat's row of the
    exact posteriors. The largest-first order only fixes which interval
    an error names: when several releases of one repeat fail to draw,
    it is the largest failing epsilon's. (Handing out the costliest
    releases first gained only about 1.5%.)
    """
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
    grid = config.epsilon_grid

    split_seeds = derive_seeds(config.seed, "split", np.arange(config.repeats))
    trains, tests = zip(*_splits(data.n, config.train_fraction, 1, split_seeds))
    # every repeat's rows, read from the checked records: (R, n_split, d + 1)
    train_records, test_records = data.records[np.array(trains)], data.records[np.array(tests)]
    X_test, labels = test_records[:, :, 1:], test_records[:, :, 0]
    counts = count_updates(graph, train_records)
    exact = priors.array + counts

    stacks = {}  # the posterior-mean releases of each mechanism, one row of them per repeat
    if "none" in config.mechanisms:
        stacks["none"] = exact[:, None]
    if "laplace" in config.mechanisms:
        n_train = train_records.shape[1]  # every split trains on the same number of records
        specs = [laplace.LaplaceNoiseSpec.for_graph(graph, eps, n_train) for eps in grid]
        noisy, _ = laplace.perturb_update_stack(counts, specs, _seed_grid(config, "laplace", grid))
        stacks["laplace"] = priors.array + noisy
    stealth_clamps = 0
    if "fourier" in config.mechanisms:
        _, stacks["fourier"], floored = fourier.release_posterior_stack(
            counts, graph, priors, grid, config.fourier_t, _seed_grid(config, "fourier", grid)
        )
        stealth_clamps = int(floored.sum())

    # the exact posterior's one row serves every epsilon
    acc = {m: np.empty((1 if m == "none" else len(grid), config.repeats))
           for m in config.mechanisms}
    if "sampler" in config.mechanisms:
        live, midpoint = [], []
        for ei, eps in enumerate(grid):
            try:
                sampler.trim_bound(eps)
                live.append(ei)
            except OmegaTooLargeError:
                # Trim interval is degenerate at this epsilon: the only
                # released parameter is the midpoint, which carries no
                # data and so costs no privacy.
                midpoint.append(ei)
        acc["sampler"][midpoint] = accuracy(np.full(labels.shape, 0.5), labels, config.threshold)
        live.sort(key=lambda ei: -grid[ei])  # a failing repeat names its largest failing epsilon
        if live:
            eps_live = [grid[ei] for ei in live]
            seeds = _seed_grid(config, "sampler", grid)[:, live]
            chunk = max(1, sampler._BLOCK_BYTES // (8 * len(live) * X_test.shape[1]))
            for at in range(0, config.repeats, chunk):
                part = slice(at, at + chunk)
                probs = sampler.sampler_predictive_batch(
                    graph, exact[part], X_test[part], eps_live, config.sampler_samples, seeds[part]
                )
                acc["sampler"][live, part] = accuracy(probs, labels[part], config.threshold).T

    if stacks:
        # repeats in chunks whose (repeats, G, n_test) probability stack fits one kernel block
        groups = sum(stack.shape[1] for stack in stacks.values())
        chunk = max(1, sampler._BLOCK_BYTES // (8 * groups * X_test.shape[1]))
        for at in range(0, config.repeats, chunk):
            part = slice(at, at + chunk)
            probs = nb_predictive_batch(
                np.concatenate([stack[part] for stack in stacks.values()], axis=1), X_test[part]
            )
            scores = accuracy(probs, labels[part], config.threshold)
            first = 0  # each mechanism's rows follow the previous one's in the scored stack
            for mech, stack in stacks.items():
                acc[mech][:, part] = scores[:, first : first + stack.shape[1]].T
                first += stack.shape[1]

    if stealth_clamps:
        releases = config.repeats * len(grid)
        log.info("fourier stealth: %d of %d releases floored", stealth_clamps, releases)
    return ExperimentResult(_rows(config, grid, "accuracy", acc), stealth_clamps)


def run_linreg_experiment(config: ExperimentConfig) -> ExperimentResult:
    """MSE sweep over prior precisions for exact and sampled predictors.

    The sweep derives its split seeds and its (repeat, b) grid of draw
    seeds in one derive_seeds call each, and takes every repeat's split
    from one batch of keyed streams. It runs in three passes. First one
    fit_posterior_stack call fits every repeat's training rows of the
    scaled data under the whole b grid, into one checked (repeat, b)
    stack of posteriors: the prior stack is built once, X'X once per
    repeat, and no training set is checked again. Then the sampler draws
    for every (b, repeat) pair, in (repeat, b) order, in one
    sample_truncated call over that stack and the flat draw seed grid;
    each pair's row is keyed as predictive_mse keys it. Last, a repeat's
    none means and sampler draw means form one weight stack, scored by
    one mse_stack_rows call per repeat on its test rows of the scaled
    data, which are not checked again. A fit failure is therefore
    reported before any draw failure.
    """
    _require_task(config, "linreg")
    if config.dataset is not None:
        X_raw, y_raw = load_regression_csv(config.dataset)
    else:
        # noise_sigma=None keeps synth_linreg's own default
        given = {} if config.noise_sigma is None else {"noise_sigma": config.noise_sigma}
        X_raw, y_raw, _ = synth_linreg(config.d, config.n, config.seed, **given)
    data = regression.scale_regression_data(X_raw, y_raw, config.sigma2)
    radii = [
        config.radius if config.radius is not None else regression.default_radius(b)
        for b in config.b_grid
    ]

    split_seeds = derive_seeds(config.seed, "linreg-split", np.arange(config.repeats))
    splits = list(_splits(data.n, config.train_fraction, data.d + 1, split_seeds))
    posts = regression.fit_posterior_stack(data, [tr for tr, _ in splits], config.b_grid, radii)
    shape = (config.repeats, len(config.b_grid), data.d)
    weights = {}  # each mechanism's weight vectors, a (repeat, b, d) stack
    if "none" in config.mechanisms:
        weights["none"] = posts.means.reshape(shape)
    if "sampler" in config.mechanisms:
        draws = regression.sample_truncated(
            posts,
            _seed_grid(config, "linreg-draws", config.b_grid).ravel(),
            config.regression_samples,
        )
        weights["sampler"] = draws.mean(axis=1).reshape(shape)

    mse = {mech: np.empty((len(config.b_grid), config.repeats)) for mech in config.mechanisms}
    for r, (_, te) in enumerate(splits):
        scores = regression.mse_stack_rows(
            np.concatenate([stack[r] for stack in weights.values()]), data, te
        )
        for mech, line in zip(weights, scores.reshape(len(weights), -1)):
            mse[mech][:, r] = line
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
