"""The error contract of the public API.

Every public callable that takes a scalar numeric argument is called
once with valid arguments, then with each such argument replaced by
nan, inf, -1 and 0. Each call must either return with no NaN in its
numeric output or raise a DpBayesError; nothing else may escape,
warnings included.
"""

import dataclasses
import math
import warnings
from collections.abc import Mapping

import numpy as np
import pytest

import dpbayes as dp
from dpbayes.errors import check_epsilon, check_map_epsilon, check_positive

NB2 = dp.BayesNetGraph(node_count=3, parents=((), (0,), (0,)))
DATA = dp.Dataset(np.array([[1, 0, 1], [0, 1, 1], [1, 1, 0], [0, 0, 0]]))
PRIORS = dp.uniform_priors(NB2)
UPDATES = dp.compute_updates(NB2, DATA)
POSTERIOR = dp.posterior_params(PRIORS, UPDATES)
CLOSURE = dp.downward_closure(NB2)
GRID = dp.GridSpec.uniform([(0.0,), (1.0,), (2.0,)])
SENS = dp.MapSensitivity(kind="lipschitz", delta_value=0.5)
MAP = dict(grid=GRID, utility=[0.0, 1.0, 2.0])
REG = dp.RegressionData(
    X=np.array([[0.5, 0.1], [0.2, -0.6], [-0.3, 0.4]]), y=np.array([0.3, -0.5, 0.1]), sigma2=1.0
)
GAUSS = dp.fit_posterior(REG, 1.0, 10.0)
STACK = dp.PosteriorStack(means=[GAUSS.mu_n], covs=[GAUSS.sigma_n], radii=[10.0])
# the numeric settings of a sweep config: those both tasks read, then those of one task each
CONFIG = dict(repeats=2, train_fraction=0.5, seed=3, d=2, n=10)
NB_CONFIG = dict(CONFIG, sampler_samples=5, fourier_t=1.0, threshold=0.5)
LINREG_CONFIG = dict(CONFIG, regression_samples=5, sigma2=1.0, radius=1.0, noise_sigma=0.1)

# name -> (keyword arguments of one valid call, the scalar numeric arguments among them)
CONTRACT = {
    "MapSensitivity": (dict(kind="lipschitz", delta_value=0.5), ("delta_value",)),
    "exp_mechanism_indices": (
        dict(**MAP, epsilon=1.0, delta=SENS, seed=3, size=4),
        ("epsilon", "seed", "size"),
    ),
    "map_utility_certificate": (
        dict(**MAP, epsilon=1.0, t=0.5, sensitivity=SENS),
        ("epsilon", "t"),
    ),
    "sampling_probabilities": (dict(**MAP, epsilon=1.0, delta=SENS), ("epsilon",)),
    "DownwardClosure": (dict(k=2, members=(0, 1, 2, 3)), ("k",)),
    "fourier_coefficient": (dict(data=DATA, gamma=3), ("gamma",)),
    "marginal_error_bound": (
        dict(graph=NB2, node=1, epsilon=1.0, delta=0.1, t=1.0),
        ("node", "epsilon", "delta", "t"),
    ),
    "noise_scale": (dict(closure=CLOSURE, epsilon=1.0), ("epsilon",)),
    "reconstruct_marginal": (
        dict(coeffs=dp.exact_coefficients(DATA, CLOSURE), node=1, graph=NB2),
        ("node",),
    ),
    "release_coefficients": (
        dict(data=DATA, closure=CLOSURE, epsilon=1.0, t=1.0, seed=3),
        ("epsilon", "t", "seed"),
    ),
    "stealth_increment": (dict(closure=CLOSURE, epsilon=1.0, t=1.0), ("epsilon", "t")),
    "BayesNetGraph": (dict(node_count=1, parents=((),)), ("node_count",)),
    "BetaParams": (dict(alpha=2.0, beta=3.0), ("alpha", "beta")),
    "ancestral_sample": (
        dict(graph=NB2, theta=dict.fromkeys(NB2.entry_keys(), 0.3), n=5,
             rng=np.random.default_rng(0)),
        ("n",),
    ),
    "uniform_priors": (dict(graph=NB2, alpha=1.0, beta=1.0), ("alpha", "beta")),
    "ExperimentConfig": (NB_CONFIG, tuple(NB_CONFIG)),
    "naive_bayes_graph": (dict(d=2), ("d",)),
    "split_dataset": (dict(data=DATA, train_fraction=0.5, seed=3), ("train_fraction", "seed")),
    "synth_linreg": (dict(d=2, n=5, seed=3, noise_sigma=0.1), ("d", "n", "seed", "noise_sigma")),
    "synth_nb": (dict(d=2, n=5, seed=3), ("d", "n", "seed")),
    "LaplaceNoiseSpec": (dict(epsilon=1.0, node_count=3, n=4), ("epsilon", "node_count", "n")),
    "perturb_updates": (
        dict(updates=UPDATES, spec=dp.LaplaceNoiseSpec(1.0, 3, 4), seed=3),
        ("seed",),
    ),
    "posterior_kl_bound": (
        dict(priors=dp.uniform_priors(NB2, 2.0, 2.0), updates=UPDATES, graph=NB2,
             epsilon=1.0, delta=0.1, n=4),
        ("epsilon", "delta", "n"),
    ),
    "update_deviation_bound": (dict(graph=NB2, epsilon=1.0, delta=0.1), ("epsilon", "delta")),
    "accuracy": (dict(predictions=[0.9, 0.2], labels=[1, 0], threshold=0.5), ("threshold",)),
    "derive_seed": (dict(seed=3), ("seed",)),
    "laplace_from_uniform": (dict(u=np.array([0.2, 0.7]), scale=1.0), ("scale",)),
    "substream": (dict(seed=3), ("seed",)),
    "GaussianPosterior": (
        dict(mu_n=GAUSS.mu_n, sigma_n=GAUSS.sigma_n, radius=10.0),
        ("radius",),
    ),
    "RegressionData": (
        dict(X=REG.X, y=REG.y, sigma2=1.0),
        ("sigma2",),
    ),
    "default_radius": (dict(b=1.0), ("b",)),
    "fit_posterior": (dict(data=REG, precision=1.0, radius=10.0), ("precision", "radius")),
    "predictive_mse": (
        dict(post=GAUSS, X_test=REG.X, y_test=REG.y, samples=3, seed=3),
        ("samples", "seed"),
    ),
    "sample_truncated": (dict(stack=STACK, seeds=[3], size=2), ("size",)),
    "scale_regression_data": (dict(X=REG.X * 4.0, y=REG.y, sigma2=1.0), ("sigma2",)),
    "sampler_predictive_batch": (
        dict(graph=NB2, posterior=POSTERIOR, X=np.array([[1, 0], [0, 1]]), epsilon=3.0,
             samples=4, seed=3),
        ("epsilon", "samples", "seed"),
    ),
    "trim_bound": (dict(epsilon=3.0), ("epsilon",)),
    "trimmed_beta_draws": (
        dict(params=dp.BetaParams(2.0, 3.0), omega=0.2, rng=np.random.default_rng(0), size=4),
        ("omega", "size"),
    ),
    "trimmed_posterior_sample": (
        dict(posterior=POSTERIOR, epsilon=3.0, seed=3),
        ("epsilon", "seed"),
    ),
}

# name -> (keyword arguments of one valid call of its stack form, the array arguments whose
# entries are scalar numeric arguments, and a value of the wrong shape for each array argument)
STACK_CONTRACT = {
    "sampler_predictive_batch": (
        dict(graph=NB2, posterior=np.stack([POSTERIOR.array] * 2),
             X=np.array([[[1, 0], [0, 1]]] * 2), epsilon=[3.0, 5.0], samples=4,
             seed=np.array([[3, 4], [5, 6]])),
        ("epsilon", "seed"),
        dict(posterior=POSTERIOR.array, X=np.array([[1, 0], [0, 1]]), seed=np.array([[3, 4]])),
    ),
}

# name -> (keyword arguments of one valid call, the array arguments whose entries must be finite)
FINITE_ARRAYS = {
    "accuracy": (dict(predictions=[0.9, 0.2, 0.6], labels=[1, 0, 0]), ("predictions",)),
    "PosteriorStack": (
        dict(means=STACK.means, covs=STACK.covs, radii=STACK.radii), ("means", "covs", "radii")
    ),
}

# Exception classes: they take a message, not a numeric argument.
ERROR_CLASSES = {
    "ConditionViolatedError", "ConfigError", "CyclicGraphError", "DimensionMismatchError",
    "DpBayesError", "InvalidArgumentError", "NonPositivePosteriorParamError", "OmegaTooLargeError",
}

# No scalar numeric argument: graphs, datasets, maps, arrays, tuples, flags, paths and
# configs only. GridSpec takes its masses as a vector; test_expmech checks a NaN mass.
NO_NUMERIC_ARGUMENT = {
    "GridSpec", "CoefficientSet", "EntryTable", "downward_closure", "exact_coefficients",
    "fourier_posterior_params", "shared_submarginal", "Dataset", "UpdateVector", "build_table",
    "compute_updates", "joint_log_likelihood", "posterior_params", "project_marginal",
    "validate_graph", "nb_predictive_batch", "rows_to_csv", "run_experiment",
    "run_linreg_experiment", "run_nb_experiment", "load_dataset", "load_grid", "load_network",
    "load_regression_csv", "kl_beta", "kl_joint", "PosteriorStack",
}

# Result records: plain holders of values that another call computed or checks.
RESULT_RECORDS = {
    "ContingencyTable", "ExperimentResult", "MetricsRow", "PerturbedUpdates", "KlReport",
    "PrivacyCheckReport",
}

BAD_VALUES = (math.nan, math.inf, -1, 0)


def _call(name, kwargs):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        return getattr(dp, name)(**kwargs)


def _has_nan(value) -> bool:
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return any(_has_nan(getattr(value, f.name)) for f in dataclasses.fields(value))
    if isinstance(value, Mapping):
        return any(_has_nan(k) or _has_nan(v) for k, v in value.items())
    if isinstance(value, (tuple, list)):
        return any(_has_nan(v) for v in value)
    if isinstance(value, np.ndarray):
        return value.dtype.kind == "f" and bool(np.isnan(value).any())
    return isinstance(value, (float, np.floating)) and math.isnan(value)


def test_every_public_name_is_classified():
    groups = [set(CONTRACT), ERROR_CLASSES, NO_NUMERIC_ARGUMENT, RESULT_RECORDS]
    assert sum(map(len, groups)) == len(set().union(*groups))
    assert set().union(*groups) == set(dp.__all__)


def test_nan_detector_sees_nested_values():
    assert _has_nan(dp.LaplaceNoiseSpec) is False
    assert _has_nan({(0, 0): (1.0, math.nan)})
    assert _has_nan(dp.KlReport(per_entry={}, total=math.nan))
    assert _has_nan([np.array([0.0, math.nan])])
    assert _has_nan(dp.EntryTable(((0, 0),), np.array([[1.0, math.nan]])))
    assert not _has_nan((np.arange(3), 1.0, "nan"))


@pytest.mark.parametrize("name", sorted(CONTRACT))
def test_valid_call_returns_without_nan(name):
    kwargs, slots = CONTRACT[name]
    assert all(isinstance(kwargs[slot], (int, float)) for slot in slots)
    assert not _has_nan(_call(name, kwargs))


@pytest.mark.parametrize("bad", BAD_VALUES, ids=["nan", "inf", "minus1", "zero"])
@pytest.mark.parametrize(
    "name, slot", [(name, slot) for name, (_, slots) in CONTRACT.items() for slot in slots]
)
def test_bad_numeric_argument_fails_as_library_error(name, slot, bad):
    try:
        result = _call(name, {**CONTRACT[name][0], slot: bad})
    except dp.DpBayesError:
        return
    assert not _has_nan(result), f"{name}({slot}={bad}) returned NaN"


@pytest.mark.parametrize("bad", BAD_VALUES, ids=["nan", "inf", "minus1", "zero"])
@pytest.mark.parametrize(
    "name, slot", [(name, slot) for name, (_, slots, _) in STACK_CONTRACT.items() for slot in slots]
)
def test_bad_numeric_entry_of_a_stack_fails_as_library_error(name, slot, bad):
    kwargs = STACK_CONTRACT[name][0]
    assert not _has_nan(_call(name, kwargs))
    spoiled = np.array(kwargs[slot], dtype=object)  # each other entry keeps its type
    spoiled.flat[-1] = bad
    try:
        result = _call(name, {**kwargs, slot: spoiled})
    except dp.DpBayesError:
        return
    assert not _has_nan(result), f"{name}({slot}[-1]={bad}) returned NaN"


@pytest.mark.parametrize(
    "name, slot", [(name, slot) for name, (*_, shapes) in STACK_CONTRACT.items() for slot in shapes]
)
def test_a_stack_argument_of_the_wrong_shape_is_a_dimension_mismatch(name, slot):
    kwargs, _, shapes = STACK_CONTRACT[name]
    with pytest.raises(dp.DimensionMismatchError):
        _call(name, {**kwargs, slot: shapes[slot]})


@pytest.mark.parametrize("bad", BAD_VALUES, ids=["nan", "inf", "minus1", "zero"])
@pytest.mark.parametrize("slot", sorted(set(LINREG_CONFIG) - set(CONFIG)))
def test_bad_linreg_setting_fails_as_library_error(slot, bad):
    # ExperimentConfig's CONTRACT row is an nb config, which refuses these settings unread
    kwargs = dict(LINREG_CONFIG, task="linreg")
    assert not _has_nan(_call("ExperimentConfig", kwargs))
    try:
        result = _call("ExperimentConfig", {**kwargs, slot: bad})
    except dp.DpBayesError:
        return
    assert not _has_nan(result), f"ExperimentConfig({slot}={bad}) returned NaN"


@pytest.mark.parametrize("bad", (math.nan, math.inf, -math.inf), ids=["nan", "inf", "minus-inf"])
@pytest.mark.parametrize(
    "name, slot", [(name, slot) for name, (_, slots) in FINITE_ARRAYS.items() for slot in slots]
)
def test_non_finite_array_entry_is_an_invalid_argument(name, slot, bad):
    kwargs = FINITE_ARRAYS[name][0]
    spoiled = np.array(kwargs[slot], dtype=float)
    spoiled[0] = bad
    with pytest.raises(dp.InvalidArgumentError):
        _call(name, {**kwargs, slot: spoiled})


def test_bad_arguments_are_one_family():
    checks = (
        (check_epsilon, (0.0,)), (check_map_epsilon, (math.inf,)), (check_positive, ("t", -1.0))
    )
    for check, args in checks:
        with pytest.raises(dp.InvalidArgumentError) as err:
            check(*args)
        assert type(err.value) is dp.InvalidArgumentError
    assert issubclass(dp.InvalidArgumentError, dp.DpBayesError)
    assert issubclass(dp.InvalidArgumentError, ValueError)


# a numeric setting that is no real number, where a bare TypeError once escaped
NOT_REAL = {
    "default_radius": lambda: dp.default_radius("1"),
    "fit_posterior": lambda: dp.fit_posterior(REG, "a", 1.0),
    "trim_bound": lambda: dp.trim_bound("3"),
    "trim_bound-bool": lambda: dp.trim_bound(True),
    "linreg-sigma2": lambda: dp.ExperimentConfig(task="linreg", sigma2="1"),
    "epsilon-grid": lambda: dp.ExperimentConfig(epsilon_grid=("1",)),
    "synth_linreg": lambda: dp.synth_linreg(2, 5, 3, noise_sigma="0.1"),
    "split_dataset": lambda: dp.split_dataset(DATA, "0.5", 3),
    "accuracy": lambda: dp.accuracy([0.9, 0.2], [1, 0], threshold="0.5"),
    "sampling_probabilities": lambda: dp.sampling_probabilities(**MAP, epsilon="1", delta=SENS),
}


@pytest.mark.parametrize("call", NOT_REAL.values(), ids=NOT_REAL)
def test_a_value_that_is_no_real_number_is_a_library_error(call):
    with pytest.raises(dp.DpBayesError, match="must be a real number, got "):
        call()


def test_numpy_scalar_settings_pass():
    assert dp.default_radius(np.float64(4.0)) == 5.0
    assert dp.trim_bound(np.int64(3)) == dp.trim_bound(3)
    dp.ExperimentConfig(task="linreg", sigma2=np.float32(0.5), b_grid=(np.float64(2.0),))


@pytest.mark.parametrize("count", [2.0, math.nan, np.float64(3.0), "3", True])
def test_a_float_count_is_an_invalid_argument(count):
    with pytest.raises(dp.InvalidArgumentError, match="size must be an integer"):
        dp.trimmed_beta_draws(dp.BetaParams(2.0, 3.0), 0.2, np.random.default_rng(0), count)


def test_numpy_integer_counts_and_seeds_pass():
    rng = dp.substream(np.int64(3))
    draws = dp.trimmed_beta_draws(dp.BetaParams(2.0, 3.0), 0.2, rng, np.int32(4))
    assert draws.shape == (4,)
    assert dp.derive_seed(np.uint32(7), "tag") == dp.derive_seed(7, "tag")


# every entry-keyed input -> (the name its refusal gives it, a call that reads it)
KEYED_INPUTS = {
    "posterior_params": ("priors", lambda priors: dp.posterior_params(priors, UPDATES)),
    "posterior_kl_bound": (
        "priors", lambda priors: dp.posterior_kl_bound(priors, UPDATES, NB2, 1.0, 0.1, DATA.n)
    ),
    "synth_nb": ("theta values", lambda theta: dp.synth_nb(2, 10, 0, theta)),
    "joint_log_likelihood": (
        "theta values", lambda theta: dp.joint_log_likelihood(NB2, theta, (1, 0, 1))
    ),
    "sampler_predictive_batch": (
        "naive-Bayes posterior rows",
        lambda post: dp.sampler_predictive_batch(NB2, post, np.array([[0, 1]]), 5.0, 3, 1),
    ),
    "CoefficientSet": ("coefficients", lambda values: dp.CoefficientSet(CLOSURE, values)),
}
# a valid mapping for each kind of input, and a key that no such mapping may hold
KEYED_VALUES = {
    "priors": (dict(dp.uniform_priors(NB2, 2.0, 2.0)), (3, 0)),
    "theta values": (dict.fromkeys(NB2.entry_keys(), 0.5), (3, 0)),
    "naive-Bayes posterior rows": (dict(POSTERIOR), (3, 0)),
    "coefficients": (dict(dp.exact_coefficients(DATA, CLOSURE).values), 0b111),
}


@pytest.mark.parametrize("change", ["missing", "extra"])
@pytest.mark.parametrize("name", sorted(KEYED_INPUTS))
def test_entry_keyed_input_needs_exactly_its_keys(name, change):
    what, call = KEYED_INPUTS[name]
    full, stray = KEYED_VALUES[what]
    call(full)
    first, *rest = full
    if change == "missing":
        changed = {key: full[key] for key in rest}
    else:
        changed = {**full, stray: full[first]}
    with pytest.raises(dp.DimensionMismatchError, match=f"^{what} list entries"):
        call(changed)
