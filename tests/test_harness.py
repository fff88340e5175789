"""Experiment orchestration: synthesis, splits, predictives, sweeps, CSV."""

import math
from dataclasses import replace
from operator import attrgetter

import numpy as np
import pytest

from dpbayes import (
    BetaParams,
    ConfigError,
    DimensionMismatchError,
    ExperimentConfig,
    InvalidArgumentError,
    MetricsRow,
    accuracy,
    naive_bayes_graph,
    nb_predictive_batch,
    rows_to_csv,
    run_experiment,
    run_linreg_experiment,
    run_nb_experiment,
    split_dataset,
    synth_linreg,
    synth_nb,
)
from dpbayes import fourier, harness, laplace, regression, sampler
from dpbayes.graph import BetaTable, UpdateVector, compute_updates, posterior_params
from dpbayes.graph import uniform_priors
from dpbayes.randomness import derive_seed, substream
from dpbayes.harness import LINREG_MECHANISMS, NB_MECHANISMS
from dpbayes.sampler import naive_bayes_params
from dpbayes.verify import nb_predictive_quadrature

from conftest import perfbench_run


TINY_NB = ExperimentConfig(
    task="nb",
    mechanisms=("none", "laplace", "fourier", "sampler"),
    epsilon_grid=(1.0, 5.0),
    repeats=2,
    train_fraction=0.3,
    seed=7,
    d=2,
    n=60,
    sampler_samples=50,
)

TINY_LINREG = ExperimentConfig(
    task="linreg",
    mechanisms=("none", "sampler"),
    b_grid=(0.5, 5.0),
    repeats=2,
    train_fraction=0.2,
    seed=7,
    d=3,
    n=120,
    regression_samples=30,
)


# ---------------------------------------------------------------------------
# config validation
# ---------------------------------------------------------------------------


def test_config_rejects_invalid_fields():
    with pytest.raises(ConfigError):
        ExperimentConfig(task="mystery")
    with pytest.raises(ConfigError):
        ExperimentConfig(mechanisms=())
    with pytest.raises(ConfigError):
        ExperimentConfig(mechanisms=("nonsense",))
    with pytest.raises(ConfigError):
        ExperimentConfig(epsilon_grid=(1.0, -2.0))
    with pytest.raises(ConfigError):
        ExperimentConfig(repeats=0)
    with pytest.raises(ConfigError):
        ExperimentConfig(train_fraction=1.0)
    with pytest.raises(ConfigError):
        ExperimentConfig(n=1)
    with pytest.raises(ConfigError):
        ExperimentConfig(sigma2=0.0)
    with pytest.raises(ConfigError):
        ExperimentConfig(task="linreg", radius=-1.0)


@pytest.mark.parametrize(
    "task, mechanisms",
    [("nb", ("none", "none")), ("nb", ("laplace", "fourier", "laplace")),
     ("linreg", ("sampler", "sampler"))],
)
def test_config_refuses_a_repeated_mechanism(task, mechanisms):
    # a repeated mechanism wrote every one of its rows twice
    with pytest.raises(ConfigError, match=f"mechanism '{mechanisms[-1]}' is listed more than once"):
        ExperimentConfig(task=task, mechanisms=mechanisms)


@pytest.mark.parametrize(
    "grids, message",
    [
        (dict(b_grid=(1.0, math.inf)), "prior precision must be positive and finite"),
        (dict(b_grid=(math.nan,)), "prior precision must be positive and finite"),
        (dict(epsilon_grid=(1.0, math.nan)), "epsilon must be positive"),
        (dict(epsilon_grid=()), "grids must be non-empty"),
        (dict(b_grid=()), "grids must be non-empty"),
    ],
)
def test_config_grids_follow_the_library_rules(grids, message):
    # an infinite b passed the sweep config and failed only after b=1 had run
    task = "nb" if "epsilon_grid" in grids else "linreg"  # the task that reads the grid
    with pytest.raises(ConfigError, match=message):
        ExperimentConfig(task=task, **grids)


# per sweep task: a value other than the default for each setting that only the other task reads
OTHER_TASK_SETTINGS = {
    "nb": dict(b_grid=(7.0,), regression_samples=5, sigma2=0.5, radius=2.0, noise_sigma=0.3),
    "linreg": dict(
        epsilon_grid=(3.0,), sampler_samples=5, fourier_t=1.0, threshold=0.4, theta={}
    ),
}


@pytest.mark.parametrize(
    "task, name", [(task, name) for task, given in OTHER_TASK_SETTINGS.items() for name in given]
)
def test_config_refuses_a_setting_of_the_other_task(task, name):
    # the other task's setting went unread, and the sweep ran as if it had not been given
    value = OTHER_TASK_SETTINGS[task][name]
    with pytest.raises(ConfigError, match=f"^unknown setting '{name}' for task '{task}'$"):
        ExperimentConfig(task=task, **{name: value})


def test_config_names_every_setting_of_the_other_task():
    with pytest.raises(
        ConfigError, match="^unknown setting 'b_grid', 'radius', 'noise_sigma' for task 'nb'$"
    ):
        ExperimentConfig(task="nb", noise_sigma=0.3, b_grid=(7.0,), radius=2.0)
    # the other task's defaults, given explicitly, are still read as unset
    ExperimentConfig(task="nb", b_grid=(0.1, 1.0, 10.0), sigma2=1.0, radius=None)


def test_config_defaults_mirror_flagship_protocol():
    config = ExperimentConfig()
    assert config.d == 16 and config.n == 1000
    assert config.epsilon_grid == (0.5, 1.0, 2.0, 5.0, 10.0, 20.0)
    assert config.repeats == 100
    assert round(config.n * config.train_fraction) == 50
    assert config.fourier_t == pytest.approx(math.log(10.0))
    assert config.threshold == 0.5
    assert config.sampler_samples == 1000


def test_with_overrides():
    changed = replace(TINY_NB, repeats=5)
    assert changed.repeats == 5
    assert changed.seed == TINY_NB.seed
    with pytest.raises(ConfigError):
        replace(TINY_NB, repeats=0)


# ---------------------------------------------------------------------------
# synthetic data
# ---------------------------------------------------------------------------


def test_naive_bayes_graph_shape():
    graph = naive_bayes_graph(3)
    assert graph.parents == ((), (0,), (0,), (0,))
    with pytest.raises(InvalidArgumentError):
        naive_bayes_graph(0)


def test_synth_nb_replay_identical():
    a, theta_a = synth_nb(4, 200, seed=3)
    b, theta_b = synth_nb(4, 200, seed=3)
    assert np.array_equal(a.records, b.records)
    assert theta_a == theta_b
    c, _ = synth_nb(4, 200, seed=4)
    assert not np.array_equal(a.records, c.records)


def test_synth_nb_honors_theta_override():
    theta = {key: 0.5 for key in naive_bayes_graph(3).entry_keys()}
    data, used = synth_nb(3, 10000, seed=1, theta=theta)
    assert used == theta
    assert np.abs(data.records.mean(axis=0) - 0.5).max() < 0.02


FULL_THETA = dict.fromkeys(naive_bayes_graph(2).entry_keys(), 0.5)
BAD_THETAS = {
    "missing": ({(0, 0): 0.5}, DimensionMismatchError, r"theta values list entries \(\(0, 0\),\)"),
    "extra": ({**FULL_THETA, (3, 0): 0.5}, DimensionMismatchError, "theta values list entries"),
    "above-one": ({**FULL_THETA, (1, 1): 1.5}, InvalidArgumentError, r"theta \(1, 1\) must lie"),
    "negative": ({**FULL_THETA, (2, 0): -0.1}, InvalidArgumentError, r"theta \(2, 0\) must lie"),
    "nan": ({**FULL_THETA, (0, 0): math.nan}, InvalidArgumentError, r"theta \(0, 0\) must lie"),
}


@pytest.mark.parametrize("name", sorted(BAD_THETAS))
def test_bad_theta_is_refused_by_synth_nb_and_the_sweep(name):
    theta, error, message = BAD_THETAS[name]
    with pytest.raises(error, match=message):
        synth_nb(2, 10, 0, theta)
    config = ExperimentConfig(
        task="nb", mechanisms=("none",), repeats=1, d=2, n=10, train_fraction=0.5, theta=theta
    )
    with pytest.raises(error, match=message):
        run_nb_experiment(config)


def test_synth_nb_flagship_scale():
    data, _ = synth_nb(16, 1000, seed=0)
    assert data.records.shape == (1000, 17)


def test_split_disjoint_and_covering():
    data, _ = synth_nb(3, 100, seed=5)
    train, test = split_dataset(data, 0.2, seed=9)
    assert train.n == 20 and test.n == 80
    merged = np.concatenate([train.records, test.records], axis=0)
    assert np.array_equal(
        np.sort(merged.view([("", merged.dtype)] * merged.shape[1]), axis=0),
        np.sort(data.records.view([("", data.records.dtype)] * data.records.shape[1]), axis=0),
    )


def test_split_replay():
    data, _ = synth_nb(3, 50, seed=5)
    a_train, _ = split_dataset(data, 0.3, seed=1)
    b_train, _ = split_dataset(data, 0.3, seed=1)
    assert np.array_equal(a_train.records, b_train.records)


ONE_RECORD = "^a train/test split needs at least 2 records, got 1$"


def test_split_needs_two_records():
    # one record leaves an empty training split; every split refuses it
    data, _ = synth_nb(2, 1, seed=5)
    with pytest.raises(InvalidArgumentError, match=ONE_RECORD):
        split_dataset(data, 0.5, seed=1)


@pytest.mark.parametrize("task", ["nb", "linreg"])
def test_sweep_on_a_one_record_dataset_is_refused(tmp_path, task):
    path = tmp_path / "one.csv"
    path.write_text("1,0,1\n")
    config = ExperimentConfig(task=task, dataset=str(path), repeats=1)
    with pytest.raises(InvalidArgumentError, match=ONE_RECORD):
        run_experiment(config)


def test_synth_linreg_shapes_and_replay():
    X, y, w = synth_linreg(4, 300, seed=8)
    assert X.shape == (300, 4) and y.shape == (300,)
    assert np.linalg.norm(w) == pytest.approx(1.5)
    X2, y2, w2 = synth_linreg(4, 300, seed=8)
    assert np.array_equal(X, X2) and np.array_equal(y, y2)


# ---------------------------------------------------------------------------
# closed-form predictive
# ---------------------------------------------------------------------------


def uniform_nb_posterior(d):
    post = {(0, 0): BetaParams(1.0, 1.0)}
    for i in range(1, d + 1):
        post[(i, 0)] = BetaParams(1.0, 1.0)
        post[(i, 1)] = BetaParams(1.0, 1.0)
    return post


def nb_stack(*posteriors):
    # the (G, m, 2) stack of naive-Bayes posterior maps, each over d = m // 2 features
    return np.stack([naive_bayes_params(post, len(post) // 2).array for post in posteriors])


def test_predictive_uniform_posterior_is_half():
    post = uniform_nb_posterior(3)
    for x in ((0, 0, 0), (1, 0, 1), (1, 1, 1)):
        assert nb_predictive_batch(nb_stack(post), [x])[0, 0] == pytest.approx(0.5)


def test_predictive_class_term_factor():
    # symmetric feature entries cancel; Beta(2,1) class term gives 2/3
    post = uniform_nb_posterior(1)
    post[(0, 0)] = BetaParams(2.0, 1.0)
    assert nb_predictive_batch(nb_stack(post), [(1,)])[0, 0] == pytest.approx(2.0 / 3.0)


def test_predictive_matches_quadrature():
    post = {
        (0, 0): BetaParams(3.0, 2.0),
        (1, 0): BetaParams(2.0, 5.0),
        (1, 1): BetaParams(5.0, 2.0),
        (2, 0): BetaParams(4.0, 4.0),
        (2, 1): BetaParams(1.0, 3.0),
    }
    for x in ((0, 0), (0, 1), (1, 0), (1, 1)):
        got = nb_predictive_batch(nb_stack(post), [x])[0, 0]
        want = nb_predictive_quadrature(post, x)
        assert got == pytest.approx(want, abs=1e-9)


def test_predictive_missing_entry():
    post = uniform_nb_posterior(2)
    del post[(2, 1)]
    with pytest.raises(DimensionMismatchError, match="naive-Bayes posterior rows list entries"):
        nb_predictive_batch(nb_stack(post), [(0, 1)])


def test_predictive_batch_matches_single_rows():
    post = {
        (0, 0): BetaParams(3.0, 2.0),
        (1, 0): BetaParams(2.0, 5.0),
        (1, 1): BetaParams(5.0, 2.0),
    }
    X = np.array([[0], [1]])
    batch = nb_predictive_batch(nb_stack(post), X)[0]
    assert batch[0] == pytest.approx(nb_predictive_batch(nb_stack(post), X[:1])[0, 0])
    assert batch[1] == pytest.approx(nb_predictive_batch(nb_stack(post), X[1:])[0, 0])


def test_predictive_batch_scores_each_posterior_in_its_own_row():
    post = uniform_nb_posterior(1)
    skewed = {**post, (0, 0): BetaParams(2.0, 1.0)}
    batch = nb_predictive_batch(nb_stack(post, skewed, post), [(0,), (1,)])
    assert batch.shape == (3, 2)
    np.testing.assert_array_equal(batch[0], batch[2])
    assert batch[1] == pytest.approx([2.0 / 3.0, 2.0 / 3.0])


@pytest.mark.parametrize(
    "posteriors",
    [[], np.ones((0, 3, 2)), np.ones((1, 4, 2)), np.ones((3, 2))],
    ids=["none", "empty-stack", "even-entry-count", "no-stack-axis"],
)
def test_predictive_batch_needs_a_stack_of_naive_bayes_posteriors(posteriors):
    with pytest.raises(DimensionMismatchError):
        nb_predictive_batch(posteriors, [(0,)])


def test_predictive_batch_reads_a_stack_as_its_rows():
    stack = np.array([[[1.0, 1.0]] * 3, [[2.0, 1.0]] + [[1.0, 1.0]] * 2])
    X = [(0,), (1,)]
    np.testing.assert_array_equal(
        nb_predictive_batch(stack, X),
        np.concatenate([nb_predictive_batch(stack[g : g + 1], X) for g in range(2)]),
    )
    with pytest.raises(InvalidArgumentError, match="beta must be positive"):
        nb_predictive_batch(np.array([[[1.0, 1.0], [1.0, 0.0], [1.0, 1.0]]]), X)


def test_predictive_batch_of_one_set_is_the_stack_of_one():
    gen = np.random.default_rng(5)
    stack = gen.uniform(0.5, 40.0, (3, 9, 2))
    X = gen.integers(0, 2, (25, 4))
    one = nb_predictive_batch(stack, X)
    assert one.shape == (3, 25)
    np.testing.assert_array_equal(nb_predictive_batch(stack[None], X[None]), one[None])


@pytest.mark.parametrize("d", [1, 2, 5, 16, 30])
def test_predictive_batch_scores_each_set_as_alone(d):
    # each set of a stack keeps the product shape it has when scored alone,
    # so it keeps that call's bits
    gen = np.random.default_rng(d)
    stack = gen.uniform(0.5, 40.0, (4, 13, 2 * d + 1, 2))
    X = gen.integers(0, 2, (4, 120, d + 1)).astype(np.int8)[:, :, 1:]
    got = nb_predictive_batch(stack, X)
    assert got.shape == (4, 13, 120)
    for r in range(4):
        np.testing.assert_array_equal(got[r], nb_predictive_batch(stack[r], X[r]))


# ---------------------------------------------------------------------------
# experiment sweeps
# ---------------------------------------------------------------------------


def test_nb_experiment_row_completeness():
    result = run_nb_experiment(TINY_NB)
    expected = len(TINY_NB.mechanisms) * len(TINY_NB.epsilon_grid) * TINY_NB.repeats
    assert len(result.rows) == expected
    seen = {(r.mechanism, r.param, r.repeat) for r in result.rows}
    assert len(seen) == expected
    assert all(r.metric == "accuracy" and 0.0 <= r.value <= 1.0 for r in result.rows)


def test_nb_experiment_baseline_constant_in_epsilon():
    result = run_nb_experiment(TINY_NB)
    none_rows = [r for r in result.rows if r.mechanism == "none"]
    by_repeat = {}
    for row in none_rows:
        by_repeat.setdefault(row.repeat, set()).add(row.value)
    assert all(len(values) == 1 for values in by_repeat.values())


def test_nb_experiment_rows_match_releases_scored_one_at_a_time():
    # the sweep scores a repeat's posterior-mean releases in one call;
    # each row still equals its release made and scored on its own
    config = replace(TINY_NB, mechanisms=("none", "laplace", "fourier"), d=3, n=120)
    rows = {(r.mechanism, r.param, r.repeat): r.value for r in run_nb_experiment(config).rows}
    data, _ = synth_nb(config.d, config.n, config.seed)
    graph = naive_bayes_graph(config.d)
    priors = uniform_priors(graph)
    want = {}
    for r in range(config.repeats):
        train, test = split_dataset(data, config.train_fraction, derive_seed(config.seed, "split", r))
        updates = compute_updates(graph, train)

        def score(post):
            probs = nb_predictive_batch(nb_stack(post), test.records[:, 1:])[0]
            return accuracy(probs, test.records[:, 0], config.threshold)

        for ei, eps in enumerate(config.epsilon_grid):
            spec = laplace.LaplaceNoiseSpec.for_graph(graph, eps, train.n)
            pert = laplace.perturb_updates(updates, spec, derive_seed(config.seed, "laplace", ei, r))
            _, fourier_rows, _ = fourier.release_posterior_stack(
                (train,), graph, priors, (eps,), config.fourier_t,
                ((derive_seed(config.seed, "fourier", ei, r),),),
            )
            fourier_post = BetaTable(graph.entry_keys(), fourier_rows[0, 0])
            want[("none", eps, r)] = score(posterior_params(priors, updates))
            want[("laplace", eps, r)] = score(posterior_params(priors, UpdateVector(pert.entries)))
            want[("fourier", eps, r)] = score(fourier_post)
    assert rows == want


def test_nb_experiment_rows_match_repeats_scored_one_at_a_time(monkeypatch):
    # the sweep scores every repeat's posterior means in one stacked call;
    # each repeat's rows equal its own stack scored alone against its own split
    config = replace(TINY_NB, mechanisms=("none", "laplace", "fourier"), repeats=4)
    stacks = []

    def spy(posteriors, X):
        stacks.append(posteriors)
        return nb_predictive_batch(posteriors, X)

    monkeypatch.setattr(harness, "nb_predictive_batch", spy)
    rows = {(r.mechanism, r.param, r.repeat): r.value for r in run_nb_experiment(config).rows}
    grid = config.epsilon_grid
    assert [stack.shape[:2] for stack in stacks] == [(config.repeats, 1 + 2 * len(grid))]
    data, _ = synth_nb(config.d, config.n, config.seed)
    want = {}
    for r in range(config.repeats):
        _, test = split_dataset(data, config.train_fraction, derive_seed(config.seed, "split", r))
        probs = nb_predictive_batch(stacks[0][r], test.records[:, 1:])
        scores = accuracy(probs, test.records[:, 0], config.threshold).tolist()
        for ei, eps in enumerate(grid):
            want[("none", eps, r)] = scores[0]
            want[("laplace", eps, r)] = scores[1 + ei]
            want[("fourier", eps, r)] = scores[1 + len(grid) + ei]
    assert rows == want


def test_nb_experiment_scores_repeats_in_chunks_of_one_block(monkeypatch):
    # a block of 11 rows of test-set likelihoods keeps each repeat's 2G = 10
    # columns in one product, but holds the probabilities of only 2 repeats,
    # so 5 repeats are scored in chunks of 2, 2 and 1; the rows stay the same
    config = replace(TINY_NB, mechanisms=("none", "laplace", "fourier"), repeats=5)
    whole = run_nb_experiment(config).rows
    n_test = config.n - round(config.n * config.train_fraction)
    monkeypatch.setattr(sampler, "_BLOCK_BYTES", 8 * n_test * 11)
    calls = []

    def spy(posteriors, X):
        calls.append(len(posteriors))
        return nb_predictive_batch(posteriors, X)

    monkeypatch.setattr(harness, "nb_predictive_batch", spy)
    assert run_nb_experiment(config).rows == whole
    assert calls == [2, 2, 1]


def test_nb_experiment_replay_byte_identical():
    a = rows_to_csv(run_nb_experiment(TINY_NB).rows)
    b = rows_to_csv(run_nb_experiment(TINY_NB).rows)
    assert a == b


def test_nb_experiment_sampler_degenerate_epsilon():
    # epsilon below 2 ln 2: the sampler falls back to the midpoint
    config = replace(
        TINY_NB, mechanisms=("sampler",), epsilon_grid=(1.0,), repeats=1
    )
    result = run_nb_experiment(config)
    assert len(result.rows) == 1
    data, _ = synth_nb(config.d, config.n, config.seed)
    from dpbayes import derive_seed

    _, test = split_dataset(data, config.train_fraction, derive_seed(config.seed, "split", 0))
    labels = test.records[:, 0]
    # midpoint probabilities tie at the threshold, so every prediction is 1
    assert result.rows[0].value == pytest.approx(float(labels.mean()))


def test_nb_experiment_infinite_epsilon():
    # laplace and fourier read eps = inf as zero noise; the sampler has no trim left
    exact = replace(TINY_NB, mechanisms=("none", "laplace", "fourier"), epsilon_grid=(math.inf,))
    values = {}
    for row in run_nb_experiment(exact).rows:
        values.setdefault(row.repeat, {})[row.mechanism] = row.value
    assert all(v["laplace"] == v["fourier"] == v["none"] for v in values.values())
    # the config refuses such an epsilon before the sweep computes anything
    for eps in (1500.0, math.inf):
        with pytest.raises(ConfigError, match="underflow"):
            replace(TINY_NB, mechanisms=("sampler",), epsilon_grid=(20.0, eps))


def test_nb_experiment_counts_floored_fourier_releases(caplog):
    # t = 0.01 leaves the stealth boost too small for some of the 8 releases
    config = replace(TINY_NB, mechanisms=("fourier",), fourier_t=0.01, repeats=4)
    with caplog.at_level("INFO", logger="dpbayes.harness"):
        clamps = run_nb_experiment(config).stealth_clamps
    assert 0 < clamps < 8
    assert f"fourier stealth: {clamps} of 8 releases floored" in caplog.messages
    assert run_nb_experiment(replace(config, fourier_t=math.log(10.0))).stealth_clamps == 0


def test_nb_experiment_floors_only_the_failing_releases_of_each_stack():
    # a repeat releases its whole grid as one stack; each release is floored
    # exactly when it would be floored on its own, and scores as it would alone
    config = replace(
        TINY_NB, mechanisms=("fourier",), fourier_t=0.01, repeats=3,
        epsilon_grid=(0.5, math.inf, 2.0, 8.0),
    )
    result = run_nb_experiment(config)
    data, _ = synth_nb(config.d, config.n, config.seed)
    graph = naive_bayes_graph(config.d)
    priors = uniform_priors(graph)
    floored, want = 0, {}
    for r in range(config.repeats):
        split_seed = derive_seed(config.seed, "split", r)
        train, test = split_dataset(data, config.train_fraction, split_seed)
        for ei, eps in enumerate(config.epsilon_grid):
            seed = derive_seed(config.seed, "fourier", ei, r)
            _, post, single_floored = fourier.release_posterior_stack(
                (train,), graph, priors, (eps,), config.fourier_t, ((seed,),)
            )
            floored += single_floored[0, 0]
            probs = nb_predictive_batch(post[0], test.records[:, 1:])[0]
            want[("fourier", eps, r)] = accuracy(probs, test.records[:, 0], config.threshold)
    assert result.stealth_clamps == floored
    assert 0 < floored < 3 * config.repeats  # some of the finite-epsilon releases, not all
    assert {(row.mechanism, row.param, row.repeat): row.value for row in result.rows} == want


@pytest.mark.parametrize(
    "name, value", [("d", 2), ("n", 60), ("noise_sigma", 0.1), ("theta", FULL_THETA)]
)
@pytest.mark.parametrize("task", ["nb", "linreg"])
def test_config_with_a_dataset_refuses_the_generator_settings(task, name, value):
    # the dataset replaces the generated data, so these settings would go unread
    message = f"unknown setting '{name}' for task '{task}' with a dataset"
    with pytest.raises(ConfigError, match=message):
        ExperimentConfig(task=task, dataset="records.csv", **{name: value})
    config = ExperimentConfig(task=task, dataset="records.csv")
    assert (config.d, config.n, config.noise_sigma, config.theta) == (None, None, None, None)


def test_nb_experiment_external_dataset(tmp_path):
    data, _ = synth_nb(2, 50, seed=11)
    path = tmp_path / "records.csv"
    path.write_text("\n".join(",".join(str(v) for v in row) for row in data.records) + "\n")
    config = replace(TINY_NB, dataset=str(path), d=None, n=None, repeats=1, epsilon_grid=(2.0,))
    result = run_nb_experiment(config)
    assert len(result.rows) == len(TINY_NB.mechanisms)


def test_linreg_experiment_rows_and_replay():
    result = run_linreg_experiment(TINY_LINREG)
    expected = 2 * len(TINY_LINREG.b_grid) * TINY_LINREG.repeats
    assert len(result.rows) == expected
    assert all(r.metric == "mse" and r.value >= 0.0 for r in result.rows)
    again = run_linreg_experiment(TINY_LINREG)
    assert rows_to_csv(result.rows) == rows_to_csv(again.rows)


def test_linreg_experiment_rows_match_pairs_scored_one_at_a_time():
    # the sweep draws from one batch of keyed streams and scores a repeat in one
    # call; each row still equals its pair fitted, drawn and scored on its own
    config = TINY_LINREG
    rows = {(r.mechanism, r.param, r.repeat): r.value for r in run_linreg_experiment(config).rows}
    X, y, _ = synth_linreg(config.d, config.n, config.seed)
    data = regression.scale_regression_data(X, y, config.sigma2)
    n_train = round(config.n * config.train_fraction)
    want = {}
    for r in range(config.repeats):
        split_seed = derive_seed(config.seed, "linreg-split", r)
        perm = substream(split_seed, "train-test-split").permutation(config.n)
        tr, te = perm[:n_train], perm[n_train:]
        train = regression.RegressionData(X=data.X[tr], y=data.y[tr], sigma2=config.sigma2)
        X_test, y_test = data.X[te], data.y[te]
        for bi, b in enumerate(config.b_grid):
            post = regression.fit_posterior(train, b, regression.default_radius(b))
            want[("none", b, r)] = float(np.mean((X_test @ post.mu_n - y_test) ** 2))
            want[("sampler", b, r)] = regression.predictive_mse(
                post, X_test, y_test, config.regression_samples,
                derive_seed(config.seed, "linreg-draws", bi, r),
            )
    assert rows == want


@pytest.mark.parametrize("base", [TINY_NB, TINY_LINREG], ids=["nb", "linreg"])
def test_sweep_rows_do_not_depend_on_the_mechanism_order(base):
    # a repeat's mechanisms share one scoring call; each keeps its own rows
    full = run_experiment(base).rows
    flipped = run_experiment(replace(base, mechanisms=base.mechanisms[::-1])).rows
    key = attrgetter("mechanism", "param", "repeat")
    assert sorted(flipped, key=key) == sorted(full, key=key)
    alone = run_experiment(replace(base, mechanisms=("sampler",))).rows
    assert alone == [row for row in full if row.mechanism == "sampler"]


def test_linreg_experiment_needs_supported_mechanism():
    for mechanisms in (("fourier",), ("none", "laplace")):
        with pytest.raises(ConfigError, match="for task 'linreg'"):
            replace(TINY_LINREG, mechanisms=mechanisms)
    # the default is every mechanism the task runs
    config = replace(TINY_LINREG, mechanisms=None)
    assert config.mechanisms == LINREG_MECHANISMS
    assert {row.mechanism for row in run_linreg_experiment(config).rows} == set(LINREG_MECHANISMS)
    assert ExperimentConfig().mechanisms == NB_MECHANISMS


def test_linreg_min_train_size_follows_dataset_width(tmp_path, monkeypatch):
    # a 3-feature CSV, where a generated sweep would have 16: train on d + 1 = 4 rows, not 17
    X, y, _ = synth_linreg(3, 40, seed=2)
    path = tmp_path / "reg.csv"
    np.savetxt(path, np.column_stack([X, y]), delimiter=",")
    seen = []
    fit_stack = regression.fit_posterior_stack

    def fit(data, train_rows, *args):
        seen.extend(data.y[rows].size for rows in train_rows)
        return fit_stack(data, train_rows, *args)

    monkeypatch.setattr(regression, "fit_posterior_stack", fit)
    config = replace(
        TINY_LINREG, dataset=str(path), d=None, n=None, train_fraction=0.05, repeats=1
    )
    run_linreg_experiment(config)
    assert seen == [4]  # one training set per repeat


def test_benchmark_sweeps_are_valid_configs():
    for name, sweep in perfbench_run().SWEEPS.items():
        config = ExperimentConfig(**sweep)
        assert config.mechanisms == sweep["mechanisms"], name
        if config.task == "linreg":
            # the benchmark's check_sweep keeps only these for a linreg sweep
            kept = tuple(m for m in config.mechanisms if m in LINREG_MECHANISMS)
            assert kept == config.mechanisms, name


def test_sweep_drivers_check_the_task():
    with pytest.raises(ConfigError, match="'linreg' sweep .* task 'nb'"):
        run_linreg_experiment(TINY_NB)
    with pytest.raises(ConfigError, match="'nb' sweep .* task 'linreg'"):
        run_nb_experiment(TINY_LINREG)


def test_run_experiment_dispatch():
    assert run_experiment(TINY_LINREG).rows
    with pytest.raises(ConfigError):
        run_experiment(replace(TINY_NB, task="verify"))


# ---------------------------------------------------------------------------
# CSV emission
# ---------------------------------------------------------------------------


def test_rows_to_csv_layout():
    rows = [MetricsRow("none", 1.0, 0, "accuracy", 0.8125)]
    text = rows_to_csv(rows)
    lines = text.strip().split("\n")
    assert lines[0] == "mechanism,param,repeat,metric,value"
    assert lines[1] == "none,1.0,0,accuracy,0.8125"
    assert text.endswith("\n")


def test_rows_to_csv_round_trips_floats():
    value = 1.0 / 3.0
    rows = [MetricsRow("sampler", 0.1, 3, "mse", value)]
    field = rows_to_csv(rows).strip().split("\n")[1].split(",")[-1]
    assert float(field) == value
