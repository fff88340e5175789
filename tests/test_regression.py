"""Truncated-Gaussian Bayesian linear regression and its privacy calculator."""

import math

import numpy as np
import pytest

from dpbayes import (
    ConditionViolatedError,
    DimensionMismatchError,
    GaussianPosterior,
    InvalidArgumentError,
    PosteriorStack,
    RegressionData,
    default_radius,
    fit_posterior,
    predictive_mse,
    sample_truncated,
    scale_regression_data,
)
from dpbayes.randomness import substream
from dpbayes.regression import DRAW_TAG, fit_posterior_grid, fit_posterior_stack, mse_stack
from dpbayes.verify import (
    regression_grid_check,
    ridge_mse,
    truncated_normal_moments,
)


def stack_of(*posts):
    """The stack whose rows are the given posteriors, in order."""
    return PosteriorStack(
        means=[post.mu_n for post in posts],
        covs=[post.sigma_n for post in posts],
        radii=[post.radius for post in posts],
    )


def scaled_synth(rng, n=60, d=2, sigma2=0.25):
    X = rng.normal(size=(n, d))
    w = rng.normal(size=d)
    y = X @ w + 0.3 * rng.normal(size=n)
    return scale_regression_data(X, y, sigma2)


# ---------------------------------------------------------------------------
# ingestion scaling
# ---------------------------------------------------------------------------


def test_scaling_bounds_rows_and_targets(rng):
    data = scaled_synth(rng)
    norms = np.linalg.norm(data.X, axis=1)
    assert norms.max() <= 1.0 + 1e-9
    assert np.abs(data.y).max() <= 1.0 + 1e-9
    assert norms.max() == pytest.approx(1.0)  # the max row sits on the bound
    assert np.abs(data.y).max() == pytest.approx(1.0)


def test_scaling_records_factors(rng):
    X = rng.normal(size=(30, 3))
    y = rng.normal(size=30)
    data = scale_regression_data(X, y, 1.0)
    assert np.allclose(data.X * np.linalg.norm(X, axis=1).max(), X)
    assert np.allclose(data.y * np.abs(y).max(), y)


def test_scaling_zero_guard():
    data = scale_regression_data(np.zeros((4, 2)), np.zeros(4), 1.0)
    # all-zero data is divided by 1, not by its zero norms
    assert np.array_equal(data.X, np.zeros((4, 2))) and np.array_equal(data.y, np.zeros(4))


def test_regression_data_rejects_oversized_rows():
    with pytest.raises(InvalidArgumentError):
        RegressionData(X=np.array([[2.0, 0.0]]), y=np.array([0.5]), sigma2=1.0)
    with pytest.raises(InvalidArgumentError):
        RegressionData(X=np.array([[0.5, 0.0]]), y=np.array([1.5]), sigma2=1.0)
    with pytest.raises(InvalidArgumentError):
        RegressionData(X=np.array([[0.5]]), y=np.array([0.5]), sigma2=0.0)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("where", ["X", "y"])
def test_regression_data_rejects_non_finite_cells(bad, where):
    # NaN fails the norm comparisons silently, so it needs its own check
    X, y = np.array([[0.5, 0.1], [0.2, 0.3]]), np.array([0.5, -0.2])
    (X if where == "X" else y).flat[-1] = bad
    with pytest.raises(InvalidArgumentError, match="finite"):
        RegressionData(X=X, y=y, sigma2=1.0)


def test_regression_data_rejects_zero_feature_columns():
    with pytest.raises(InvalidArgumentError, match="^X must have at least one feature column$"):
        RegressionData(X=np.zeros((3, 0)), y=np.zeros(3), sigma2=1.0)


BAD_INPUTS = {
    "one-dimensional X": (np.ones(3), np.ones(3), "^X must be n x d with a length-n target"),
    "string cell": ([[0.1, "a"], [0.2, 0.3]], [0.1, 0.2], "^X must be an array of numbers: "),
    "ragged rows": ([[0.1, 0.2], [0.3]], [0.1, 0.2], "^X must be an array of numbers: "),
    "string target": ([[0.1], [0.2]], [0.1, "b"], "^y must be an array of numbers: "),
}


@pytest.mark.parametrize("X, y, msg", BAD_INPUTS.values(), ids=BAD_INPUTS)
def test_regression_input_that_is_no_numeric_table_is_an_invalid_argument(X, y, msg):
    # each entry point converts and shape-checks before any norm
    with pytest.raises(InvalidArgumentError, match=msg):
        scale_regression_data(X, y, 1.0)
    with pytest.raises(InvalidArgumentError, match=msg):
        RegressionData(X=X, y=y, sigma2=1.0)


def test_posterior_input_that_is_no_numeric_table_is_an_invalid_argument(rng):
    with pytest.raises(InvalidArgumentError, match="^mean must be an array of numbers: "):
        GaussianPosterior(mu_n=["a", 0.0], sigma_n=np.eye(2), radius=1.0)
    with pytest.raises(InvalidArgumentError, match="^covariance must be an array of numbers: "):
        GaussianPosterior(mu_n=np.zeros(2), sigma_n=[[1.0, 0.0], [0.0]], radius=1.0)
    msg = "^precision matrix must be an array of numbers: "
    with pytest.raises(InvalidArgumentError, match=msg):
        fit_posterior(scaled_synth(rng), precision=[[1.0, "b"], [0.0, 1.0]], radius=1.0)


BOOL_INPUTS = {
    "posterior-radius": ("radius", lambda data: GaussianPosterior(np.zeros(2), np.eye(2), True)),
    "numpy-bool-radius": (
        "radius", lambda data: GaussianPosterior(np.zeros(2), np.eye(2), np.True_)
    ),
    "fit-radius": ("radius", lambda data: fit_posterior(data, 1.0, True)),
    "stack-radii": (
        "radius",
        lambda data: PosteriorStack(np.zeros((1, 2)), [np.eye(2)], radii=np.array([True])),
    ),
    "data-X": ("X", lambda data: RegressionData(np.array([[True, False]]), np.array([0.5]), 1.0)),
    "data-y": ("y", lambda data: RegressionData(np.array([[0.5, 0.5]]), np.array([True]), 1.0)),
    "scoring-X": (
        "X_test", lambda data: mse_stack(np.zeros((1, 2)), np.array([[True, False]]), np.zeros(1))
    ),
}


@pytest.mark.parametrize("name, call", BOOL_INPUTS.values(), ids=BOOL_INPUTS)
def test_a_bool_is_no_regression_number(rng, name, call):
    # a bool would read as 0.0 or 1.0; the scalar checks refuse it too
    with pytest.raises(InvalidArgumentError, match=f"^{name} must hold numbers, not bools$"):
        call(scaled_synth(rng))


@pytest.mark.parametrize("where", ["X_test", "y_test", "weights"])
def test_scoring_input_that_is_no_numeric_table_is_an_invalid_argument(where):
    args = {"weights": np.zeros((1, 2)), "X_test": np.zeros((3, 2)), "y_test": np.zeros(3)}
    args[where] = [["x"] * 2] * len(args[where]) if where != "y_test" else ["x"] * 3
    with pytest.raises(InvalidArgumentError, match=f"^{where} must be an array of numbers: "):
        mse_stack(**args)


@pytest.mark.parametrize("bad", [math.nan, math.inf])
@pytest.mark.parametrize("where", ["X_test", "y_test"])
def test_scoring_refuses_a_non_finite_test_cell(bad, where):
    post = GaussianPosterior(mu_n=np.zeros(2), sigma_n=np.eye(2), radius=1.0)
    X_test, y_test = np.full((4, 2), 0.1), np.full(4, 0.2)
    (X_test if where == "X_test" else y_test).flat[-1] = bad
    msg = "^X_test and y_test must hold finite numbers only$"
    with pytest.raises(InvalidArgumentError, match=msg):
        mse_stack(np.zeros((1, 2)), X_test, y_test)
    with pytest.raises(InvalidArgumentError, match=msg):
        predictive_mse(post, X_test, y_test, samples=5, seed=1)


# ---------------------------------------------------------------------------
# conjugate posterior
# ---------------------------------------------------------------------------


def test_posterior_no_data_returns_prior():
    data = RegressionData(X=np.zeros((0, 2)), y=np.zeros(0), sigma2=2.0)
    post = fit_posterior(data, precision=4.0, radius=1.0)
    assert np.allclose(post.mu_n, 0.0)
    assert np.allclose(post.sigma_n, np.eye(2) / 4.0)  # prior covariance 1/b


def test_posterior_one_dimensional_example():
    data = RegressionData(X=np.array([[1.0], [1.0]]), y=np.array([1.0, 1.0]), sigma2=1.0)
    post = fit_posterior(data, precision=1.0, radius=10.0)
    assert post.mu_n[0] == pytest.approx(2.0 / 3.0)
    assert post.sigma_n[0, 0] == pytest.approx(1.0 / 3.0)


def test_posterior_grid_quadrature_1d(rng):
    data = scaled_synth(rng, d=1)
    lam = np.array([[2.0]])
    post = fit_posterior(data, precision=lam, radius=10.0)
    grid = np.linspace(post.mu_n[0] - 1.0, post.mu_n[0] + 1.0, 301)[:, None]
    gap = regression_grid_check(data.X, data.y, data.sigma2, lam, post.mu_n, post.sigma_n, grid)
    assert gap < 1e-6


def test_posterior_grid_quadrature_2d(rng):
    data = scaled_synth(rng, d=2)
    lam = np.diag([1.0, 3.0])
    post = fit_posterior(data, precision=lam, radius=10.0)
    axes = [np.linspace(m - 0.8, m + 0.8, 41) for m in post.mu_n]
    grid = np.array([(a, b) for a in axes[0] for b in axes[1]])
    gap = regression_grid_check(data.X, data.y, data.sigma2, lam, post.mu_n, post.sigma_n, grid)
    assert gap < 1e-6


def test_posterior_matrix_precision_must_be_symmetric(rng):
    data = scaled_synth(rng)
    with pytest.raises(InvalidArgumentError):
        fit_posterior(data, precision=np.array([[1.0, 0.5], [0.0, 1.0]]), radius=1.0)


def test_posterior_singular_system():
    data = RegressionData(X=np.zeros((3, 2)), y=np.zeros(3), sigma2=1.0)
    with pytest.raises(ConditionViolatedError, match="not positive definite"):
        fit_posterior(data, precision=np.zeros((2, 2)), radius=1.0)


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_posterior_matrix_precision_must_be_finite(rng, bad):
    # NaN passes the symmetry comparison, so it needs its own check before LAPACK
    data = scaled_synth(rng)
    msg = "^precision matrix must hold finite numbers only$"
    with pytest.raises(InvalidArgumentError, match=msg):
        fit_posterior(data, precision=np.array([[bad, 0.0], [0.0, 1.0]]), radius=1.0)


def test_posterior_precision_overflow_is_refused():
    data = RegressionData(X=np.zeros((3, 2)), y=np.zeros(3), sigma2=10.0)
    msg = "^posterior precision overflows to a non-finite entry$"
    with pytest.raises(ConditionViolatedError, match=msg):
        fit_posterior(data, precision=np.diag([1e308, 1.0]), radius=1.0)


@pytest.mark.parametrize("d", [1, 2, 5, 8])
def test_grid_fit_matches_single_fits_bit_for_bit(rng, d):
    data = scaled_synth(rng, n=80, d=d)
    M = rng.normal(size=(d, d))
    precisions = [0.1, M @ M.T + 0.5 * np.eye(d), 10.0, np.diag(rng.uniform(0.5, 2.0, d))]
    radii = [1.0, 2.0, 3.0, 4.0]
    posts = fit_posterior_grid(data, precisions, radii)
    assert len(posts) == len(precisions)
    for i, (precision, radius) in enumerate(zip(precisions, radii)):
        one = fit_posterior(data, precision, radius)
        assert np.array_equal(posts.means[i], one.mu_n)
        assert np.array_equal(posts.covs[i], one.sigma_n)
        assert posts.radii[i] == radius == one.radius


@pytest.mark.parametrize("d", [1, 3, 5])
def test_stack_fit_rows_equal_each_training_set_fit_bit_for_bit(rng, d):
    # the sweep fits every repeat's training rows of the checked data in one
    # call; each repeat's rows must equal a grid fit on a copy of those rows
    data = scaled_synth(rng, n=50, d=d)
    train_rows = [rng.permutation(50)[:n] for n in (d + 1, 7, 20, 0)]
    precisions, radii = [0.1, np.diag(rng.uniform(0.5, 2.0, d)), 10.0], [3.0, 2.0, 0.5]
    stack = fit_posterior_stack(data, train_rows, precisions, radii)
    assert stack.means.shape == (12, d) and stack.covs.shape == (12, d, d)
    for r, rows in enumerate(train_rows):
        train = RegressionData(X=data.X[rows].copy(), y=data.y[rows].copy(), sigma2=data.sigma2)
        one = fit_posterior_grid(train, precisions, radii)
        assert np.array_equal(stack.means[3 * r : 3 * r + 3], one.means)
        assert np.array_equal(stack.covs[3 * r : 3 * r + 3], one.covs)
        assert stack.radii[3 * r : 3 * r + 3].tolist() == radii


@pytest.mark.parametrize(
    "lam, minor", [(np.zeros((2, 2)), 1), (np.diag([1.0, -1.0]), 2)]
)
def test_grid_fit_names_the_failing_minor(lam, minor):
    # the same message as a one-entry fit, wherever the entry sits in the grid
    data = RegressionData(X=np.zeros((3, 2)), y=np.zeros(3), sigma2=1.0)
    msg = (
        f"^posterior precision not positive definite: {minor}-th leading minor "
        "of the array is not positive definite$"
    )
    with pytest.raises(ConditionViolatedError, match=msg):
        fit_posterior_grid(data, [1.0, lam, 2.0], [1.0, 1.0, 1.0])
    with pytest.raises(ConditionViolatedError, match=msg):
        fit_posterior(data, lam, 1.0)


@pytest.mark.parametrize("rows", [np.array([0, 60]), np.array([0.0, 1.0]), "all"])
def test_stack_fit_refuses_rows_outside_the_data(rng, rows):
    data = scaled_synth(rng)
    with pytest.raises(InvalidArgumentError, match="^training rows must index the data: "):
        fit_posterior_stack(data, [np.arange(5), rows], [1.0], [1.0])


def test_grid_fit_needs_one_radius_per_precision(rng):
    data = scaled_synth(rng)
    with pytest.raises(DimensionMismatchError, match="^2 prior precisions but 1 radii$"):
        fit_posterior_grid(data, [1.0, 2.0], [1.0])
    assert len(fit_posterior_grid(data, [], [])) == 0


@pytest.mark.parametrize(
    "mu, sigma",
    [
        (np.array([math.nan, 0.0]), np.eye(2)),
        (np.zeros(2), np.array([[1.0, 0.0], [0.0, math.inf]])),
    ],
)
def test_gaussian_posterior_must_be_finite(mu, sigma):
    # a NaN mean would otherwise spend the whole rejection budget
    msg = "^mean and covariance must hold finite numbers only$"
    with pytest.raises(InvalidArgumentError, match=msg):
        GaussianPosterior(mu_n=mu, sigma_n=sigma, radius=1.0)


def test_posterior_stack_checks_every_row():
    means, covs = np.zeros((3, 2)), np.stack([np.eye(2)] * 3)
    with pytest.raises(DimensionMismatchError, match=r"^need one radius per posterior \(3\), got"):
        PosteriorStack(means=means, covs=covs, radii=[1.0, 2.0])
    with pytest.raises(InvalidArgumentError, match="^mean and covariance shapes disagree$"):
        PosteriorStack(means=means, covs=covs[:2], radii=[1.0] * 3)
    with pytest.raises(InvalidArgumentError, match="^radius must be positive and finite, got nan"):
        PosteriorStack(means=means, covs=covs, radii=[1.0, math.nan, -1.0])
    lopsided = covs.copy()
    lopsided[2, 0, 1] = 0.5
    with pytest.raises(InvalidArgumentError, match="^covariance must be symmetric$"):
        PosteriorStack(means=means, covs=lopsided, radii=[1.0] * 3)
    spoiled = means.copy()
    spoiled[1, 1] = math.inf
    with pytest.raises(InvalidArgumentError, match="^mean and covariance must hold finite"):
        PosteriorStack(means=spoiled, covs=covs, radii=[1.0] * 3)


def test_posterior_covariance_symmetric_and_spd(rng):
    data = scaled_synth(rng, d=3)
    post = fit_posterior(data, precision=0.5, radius=5.0)
    assert np.array_equal(post.sigma_n, post.sigma_n.T)
    assert np.linalg.eigvalsh(post.sigma_n).min() > 0.0
    np.linalg.cholesky(post.sigma_n)  # SPD certificate


# ---------------------------------------------------------------------------
# truncated sampling
# ---------------------------------------------------------------------------


def test_truncated_draws_respect_radius():
    post = GaussianPosterior(mu_n=np.zeros(2), sigma_n=np.eye(2), radius=1.0)
    draws = sample_truncated(stack_of(post), [2], size=500)[0]
    assert np.linalg.norm(draws, axis=1).max() <= 1.0


def test_truncated_draws_deterministic():
    post = GaussianPosterior(mu_n=np.zeros(2), sigma_n=np.eye(2), radius=2.0)
    a = sample_truncated(stack_of(post), [5], size=50)[0]
    b = sample_truncated(stack_of(post), [5], size=50)[0]
    assert np.array_equal(a, b)


def test_truncated_moments_match_quadrature():
    post = GaussianPosterior(mu_n=np.zeros(1), sigma_n=np.eye(1), radius=1.0)
    draws = sample_truncated(stack_of(post), [11], size=100000)[0][:, 0]
    mean, var = truncated_normal_moments(0.0, 1.0, -1.0, 1.0)
    assert draws.mean() == pytest.approx(mean, abs=0.01)
    assert draws.var() == pytest.approx(var, abs=0.01)


def test_truncation_vanishes_for_ample_radius():
    post = GaussianPosterior(mu_n=np.zeros(1), sigma_n=np.eye(1), radius=1e9)
    draws = sample_truncated(stack_of(post), [4], size=50000)[0][:, 0]
    assert draws.mean() == pytest.approx(0.0, abs=0.02)
    assert draws.var() == pytest.approx(1.0, abs=0.03)


def reference_draws(post, seed, size):
    """One posterior's rejection draws, proposal round by proposal round from its own stream."""
    rng = substream(seed, DRAW_TAG)
    chol = np.linalg.cholesky(post.sigma_n)
    out = np.empty((size, post.d))
    pending = np.arange(size)
    while pending.size:
        proposal = post.mu_n + rng.standard_normal((pending.size, post.d)) @ chol.T
        ok = np.linalg.norm(proposal, axis=1) <= post.radius
        out[pending[ok]] = proposal[ok]
        pending = pending[~ok]
    return out


def random_posterior(rng, d, radius):
    M = rng.normal(size=(d, d))
    sigma = M @ M.T + 0.1 * np.eye(d)
    return GaussianPosterior(mu_n=rng.normal(size=d), sigma_n=sigma, radius=radius)


@pytest.mark.parametrize("d", range(1, 9))
def test_stack_rows_equal_their_own_call(rng, d):
    # the sweep draws every (b, repeat) pair in one call; each row must equal
    # the pair drawn alone bit for bit, or the sweep CSVs move
    posts = [random_posterior(rng, d, 1e3) for _ in range(7)]
    seeds = rng.integers(0, 2**32, size=7, dtype=np.uint32)
    stack = sample_truncated(stack_of(*posts), seeds, size=30)
    assert stack.shape == (7, 30, d)
    for post, seed, row in zip(posts, seeds.tolist(), stack):
        assert np.array_equal(row, sample_truncated(stack_of(post), [seed], size=30)[0])
        assert np.array_equal(row, reference_draws(post, seed, 30))


def test_stack_rows_with_misses_equal_their_own_rounds(rng):
    # the tight posterior misses in almost every slot of its first round, so
    # its row re-keys its stream; the roomy rows around it keep their first round
    tight = GaussianPosterior(mu_n=np.array([0.3, -0.2]), sigma_n=np.eye(2), radius=0.5)
    posts = [random_posterior(rng, 2, 1e3), tight, random_posterior(rng, 2, 1e3), tight]
    seeds = [11, 12, 2**40 + 3, 14]
    stack = sample_truncated(stack_of(*posts), seeds, size=40)
    for post, seed, row in zip(posts, seeds, stack):
        assert np.array_equal(row, reference_draws(post, seed, 40))
    first_round = posts[1].mu_n + substream(12, DRAW_TAG).standard_normal((40, 2))
    assert (np.linalg.norm(first_round, axis=1) > 0.5).sum() > 20
    assert np.linalg.norm(stack[1::2], axis=2).max() <= 0.5


def test_stack_needs_one_integer_seed_per_posterior_of_one_dimension():
    post2 = GaussianPosterior(mu_n=np.zeros(2), sigma_n=np.eye(2), radius=2.0)
    post3 = GaussianPosterior(mu_n=np.zeros(3), sigma_n=np.eye(3), radius=2.0)
    msg = r"^need one draw seed per posterior \(2\), got shape \(1,\)$"
    with pytest.raises(DimensionMismatchError, match=msg):
        sample_truncated(stack_of(post2, post2), [1], size=2)
    with pytest.raises(DimensionMismatchError, match=r"got shape \(1, 2\)$"):
        sample_truncated(stack_of(post2, post2), np.array([[1, 2]]), size=2)
    empty = PosteriorStack(means=np.zeros((0, 2)), covs=np.zeros((0, 2, 2)), radii=np.zeros(0))
    with pytest.raises(DimensionMismatchError, match="^need at least one posterior, got an empty"):
        sample_truncated(empty, [], size=2)
    # posteriors of two dimensions make no stack
    with pytest.raises(InvalidArgumentError, match="^mean must be an array of numbers: "):
        stack_of(post2, post3)
    for seed in (1.5, "3", True, None, np.float64(2.0)):
        with pytest.raises(InvalidArgumentError, match="^draw seed must be an integer"):
            sample_truncated(stack_of(post2, post2), [1, seed], size=2)
    with pytest.raises(InvalidArgumentError, match="^draw seed must be an integer"):
        sample_truncated(stack_of(post2), np.array([2.0]), size=2)


def test_rejection_budget_exhaustion():
    # mean far outside the ball: the acceptance region has no mass
    post = GaussianPosterior(mu_n=np.array([10.0]), sigma_n=np.eye(1) * 1e-4, radius=0.1)
    msg = "^3 of 3 draws found no point with norm <= 0.1 in 1000 attempts$"
    with pytest.raises(ConditionViolatedError, match=msg):
        sample_truncated(stack_of(post), [1], size=3)
    # in a stack, a row that runs out is reported with the same message
    roomy = GaussianPosterior(mu_n=np.zeros(1), sigma_n=np.eye(1), radius=1e3)
    with pytest.raises(ConditionViolatedError, match=msg):
        sample_truncated(stack_of(roomy, post, roomy), [1, 2, 3], size=3)


def test_stack_refuses_a_covariance_that_is_not_positive_definite():
    roomy = GaussianPosterior(mu_n=np.zeros(2), sigma_n=np.eye(2), radius=1.0)
    flat = GaussianPosterior(mu_n=np.zeros(2), sigma_n=np.diag([1.0, -1.0]), radius=1.0)
    with pytest.raises(ConditionViolatedError, match="^posterior covariance not positive definite"):
        sample_truncated(stack_of(roomy, flat), [1, 2], size=3)


# ---------------------------------------------------------------------------
# sensitivity
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("d", [1, 2])
def test_record_term_oscillation_is_the_closed_form(d):
    # L, the largest change of the log-likelihood under record replacement,
    # is the oscillation of (y - w'x)^2 / (2 sigma2) over ||x|| <= 1,
    # |y| <= 1 and ||w|| <= r; a grid holding x = -w/r reaches the closed form
    r, sigma2 = 3.0, 0.5
    angles = np.linspace(0.0, 2.0 * np.pi, 16, endpoint=False)
    unit = np.array([[-1.0], [1.0]]) if d == 1 else np.stack([np.cos(angles), np.sin(angles)], 1)
    xs = (np.linspace(0.0, 1.0, 11)[:, None, None] * unit).reshape(-1, d)
    ys = np.linspace(-1.0, 1.0, 21)
    terms = (ys - ((r * xs) @ xs.T)[..., None]) ** 2 / (2.0 * sigma2)
    assert terms.max() - terms.min() == pytest.approx((1.0 + r) ** 2 / (2.0 * sigma2), rel=1e-12)


def test_default_radius_rule():
    assert default_radius(4.0) == pytest.approx(5.0)
    assert default_radius(0.01) == pytest.approx(100.0)


# ---------------------------------------------------------------------------
# predictive error
# ---------------------------------------------------------------------------


def test_predictive_mse_deterministic(rng):
    data = scaled_synth(rng)
    post = fit_posterior(data, precision=1.0, radius=10.0)
    X_test = rng.normal(size=(40, 2)) * 0.3
    y_test = rng.normal(size=40) * 0.3
    a = predictive_mse(post, X_test, y_test, samples=200, seed=6)
    b = predictive_mse(post, X_test, y_test, samples=200, seed=6)
    assert a == b


def test_predictive_mse_checks_the_test_set():
    post = GaussianPosterior(mu_n=np.zeros(2), sigma_n=np.eye(2), radius=1.0)
    X, y = np.zeros((4, 2)), np.zeros(4)
    with pytest.raises(
        DimensionMismatchError,
        match=r"^X_test must have 2 columns, one per weight; got shape \(4, 3\)$",
    ):
        predictive_mse(post, np.zeros((4, 3)), y, samples=5, seed=1)
    with pytest.raises(
        DimensionMismatchError,
        match=r"^y_test must hold one target per X_test row \(4\); got shape \(3,\)$",
    ):
        predictive_mse(post, X, np.zeros(3), samples=5, seed=1)
    with pytest.raises(InvalidArgumentError, match="^the test set is empty$"):
        predictive_mse(post, np.zeros((0, 2)), np.zeros(0), samples=5, seed=1)


@pytest.mark.parametrize("d", range(1, 9))
def test_mse_stack_rows_equal_their_own_gemv(rng, d):
    # the sweep scores a repeat's weight rows in one call; each row's MSE
    # must equal its own X_test @ w bit for bit, or the sweep CSVs move
    for n, k in ((1, 1), (7, 3), (60, 6), (333, 4)):
        X_test, y_test = rng.normal(size=(n, d)), rng.normal(size=n)
        W = rng.normal(size=(k, d))
        want = [float(np.mean((X_test @ w - y_test) ** 2)) for w in W]
        assert mse_stack(W, X_test, y_test).tolist() == want


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_mse_stack_refuses_a_non_finite_weight(bad):
    weights = np.array([[0.1, 0.2], [0.3, 0.0]])
    weights[1, 0] = bad
    with pytest.raises(InvalidArgumentError, match="^weights must hold finite numbers only$"):
        mse_stack(weights, np.full((4, 2), 0.1), np.full(4, 0.2))


def test_mse_stack_needs_a_stack_of_rows():
    with pytest.raises(DimensionMismatchError, match=r"^weights must be a \(k, d\) stack"):
        mse_stack(np.zeros(2), np.zeros((4, 2)), np.zeros(4))


def test_predictive_mse_approaches_ridge(rng):
    # ample radius, many draws: the averaged weights converge on the
    # ridge solution, computed here through an independent solve
    X = rng.normal(size=(500, 2))
    w = np.array([0.8, -0.4])
    y = X @ w + 0.1 * rng.normal(size=500)
    data = scale_regression_data(X, y, sigma2=1.0)
    b = 2.0
    post = fit_posterior(data, precision=b, radius=1e6)
    X_test = data.X[:100]
    y_test = data.y[:100]
    private = predictive_mse(post, X_test, y_test, samples=20000, seed=9)
    oracle = ridge_mse(data.X, data.y, b, 1.0, X_test, y_test)
    assert private == pytest.approx(oracle, rel=0.05)


def test_predictive_mse_reaches_noise_floor(rng):
    # perfect linear signal: MSE settles at the (scaled) noise variance
    n, d, noise = 4000, 2, 0.05
    X = rng.normal(size=(n, d))
    w = np.array([1.0, 0.5])
    y = X @ w + noise * rng.normal(size=n)
    data = scale_regression_data(X, y, sigma2=1.0)
    post = fit_posterior(data, precision=0.01, radius=1e6)
    mse = predictive_mse(post, data.X, data.y, samples=5000, seed=13)
    floor = (noise / np.abs(y).max()) ** 2
    assert mse == pytest.approx(floor, rel=0.1)
