"""Bayesian linear regression with a norm-truncated Gaussian posterior.

The conjugate pair: Gaussian likelihood with known noise variance and
a zero-mean Gaussian prior restricted to a Euclidean ball. Posterior
mean and covariance have the usual ridge form; sampling restricts to
the ball by rejection. Fitted posteriors live in one PosteriorStack of
means (k, d), covariances (k, d, d) and radii (k,), checked once when
it is built; a GaussianPosterior is one such row. fit_posterior_stack
fits every training set of a sweep, given as row indices into the
checked data, under the whole grid of prior precisions: the scaled
priors are built once, X'X and X'y once per set, and LAPACK's Cholesky
routines are called directly. fit_posterior is its one-entry case, one
precision on all the data. sample_truncated draws for a whole stack at
once, one keyed stream per draw seed: a sweep hands it every
(b, repeat) pair in one call, and predictive_mse is the one-pair case.
mse_stack scores a stack of weight rows against one test set, and
mse_stack_rows against test rows indexed from the checked data, as a
sweep takes them, without checking those rows again.
Every array input passes through one conversion, so a cell that is no
number, a ragged row or a wrong shape is an InvalidArgumentError rather
than numpy's own error.

One posterior draw costs 2L (Dimitrakakis et al., ALT 2014), with L
the largest change of the log-likelihood between neighbouring datasets.
Under record replacement with ||x|| <= 1, |y| <= 1 and ||w|| <= r, the
per-record term (y - w'x)^2 / (2 sigma2) lies in [0, (1+r)^2 / (2 sigma2)]:
the top at ||w|| = r, x = -w/r, y = 1, the bottom wherever y = w'x.
So L = (1+r)^2 / (2 sigma2), with no n and no d in it, and one draw
costs (1+r)^2 / sigma2.
"""
from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np
from scipy.linalg.lapack import dpotrf, dpotrs

from .errors import ConditionViolatedError, DimensionMismatchError, InvalidArgumentError
from .errors import check_integer, check_positive
from .randomness import seed_array, substream, substreams

DRAW_TAG = "regression-weight-draw"  # the key of a weight-draw stream

# Gaussian proposals per requested draw before sampling gives up
_REJECTION_BUDGET = 1000


def _numbers(name: str, value: object) -> np.ndarray:
    """value as a float64 array; a cell that is no number, or a ragged row, is refused.

    So is a bool, or an array of them, which would read as 0.0 and 1.0:
    the scalar checks of the errors module refuse a bool too.
    """
    try:
        bools = np.asarray(value).dtype == np.bool_
        array = np.asarray(value, dtype=np.float64)
    except (TypeError, ValueError) as exc:
        raise InvalidArgumentError(f"{name} must be an array of numbers: {exc}") from None
    if bools:
        raise InvalidArgumentError(f"{name} must hold numbers, not bools")
    return array


def _design(X: object, y: object) -> tuple[np.ndarray, np.ndarray]:
    """X and y as float64 arrays, once X is n x d (d >= 1), y has n entries and all are finite."""
    X, y = _numbers("X", X), _numbers("y", y)
    if X.ndim != 2 or y.ndim != 1 or X.shape[0] != y.shape[0]:
        raise InvalidArgumentError("X must be n x d with a length-n target vector")
    if X.shape[1] == 0:
        raise InvalidArgumentError("X must have at least one feature column")
    if not (np.isfinite(X).all() and np.isfinite(y).all()):
        raise InvalidArgumentError("X and y must hold finite numbers only")
    return X, y


@dataclass(frozen=True)
class RegressionData:
    """Design matrix, targets, and the assumed noise variance.

    Rows must satisfy ||x_i||_2 <= 1 and |y_i| <= 1; use
    scale_regression_data to ingest raw data. Fits, draws and their
    mean squared errors all stay on this scaled data.
    """

    X: np.ndarray
    y: np.ndarray
    sigma2: float

    def __post_init__(self) -> None:
        X, y = _design(self.X, self.y)
        check_positive("sigma2", self.sigma2)
        tol = 1e-9
        if X.size and float(np.linalg.norm(X, axis=1).max()) > 1.0 + tol:
            raise InvalidArgumentError("feature rows must have 2-norm at most 1; scale first")
        if y.size and float(np.abs(y).max()) > 1.0 + tol:
            raise InvalidArgumentError("targets must lie in [-1, 1]; scale first")
        object.__setattr__(self, "X", X)
        object.__setattr__(self, "y", y)

    @property
    def n(self) -> int:
        return self.X.shape[0]

    @property
    def d(self) -> int:
        return self.X.shape[1]


def scale_regression_data(X: np.ndarray, y: np.ndarray, sigma2: float) -> RegressionData:
    """Ingest raw data, dividing rows by the max row norm and y by max |y| (by 1 if it is 0)."""
    X, y = _design(X, y)
    x_scale = float(np.linalg.norm(X, axis=1).max(initial=0.0)) or 1.0
    y_scale = float(np.abs(y).max(initial=0.0)) or 1.0
    return RegressionData(X=X / x_scale, y=y / y_scale, sigma2=sigma2)


@dataclass(frozen=True)
class PosteriorStack:
    """k posteriors N(means[i], covs[i]), each restricted to the ball ||w||_2 <= radii[i].

    means is (k, d), covs (k, d, d) and radii (k,). Every cell must be
    finite, every covariance symmetric and every radius positive; the
    stack is checked once, here, for all its rows.
    """

    means: np.ndarray
    covs: np.ndarray
    radii: np.ndarray

    def __post_init__(self) -> None:
        mu = _numbers("mean", self.means)
        sig = _numbers("covariance", self.covs)
        radii = _numbers("radius", self.radii)
        if mu.ndim != 2 or sig.shape != mu.shape + mu.shape[1:]:
            raise InvalidArgumentError("mean and covariance shapes disagree")
        if radii.shape != mu.shape[:1]:
            raise DimensionMismatchError(
                f"need one radius per posterior ({mu.shape[0]}), got shape {radii.shape}"
            )
        if not (np.isfinite(mu).all() and np.isfinite(sig).all()):
            raise InvalidArgumentError("mean and covariance must hold finite numbers only")
        if float(np.abs(sig - sig.swapaxes(1, 2)).max(initial=0.0)) > 1e-10:
            raise InvalidArgumentError("covariance must be symmetric")
        bad = ~((radii > 0.0) & (radii < np.inf))
        if bad.any():
            check_positive("radius", float(radii[bad][0]))
        object.__setattr__(self, "means", mu)
        object.__setattr__(self, "covs", sig)
        object.__setattr__(self, "radii", radii)

    def __len__(self) -> int:
        return self.radii.size

    @property
    def d(self) -> int:
        return self.means.shape[1]


@dataclass(frozen=True)
class GaussianPosterior:
    """N(mu_n, sigma_n) restricted to the ball ||w||_2 <= radius, checked as a one-row stack."""

    mu_n: np.ndarray
    sigma_n: np.ndarray
    radius: float

    def __post_init__(self) -> None:
        row = PosteriorStack(means=[self.mu_n], covs=[self.sigma_n], radii=[self.radius])
        object.__setattr__(self, "mu_n", row.means[0])
        object.__setattr__(self, "sigma_n", row.covs[0])
        object.__setattr__(self, "radius", float(row.radii[0]))

    @property
    def d(self) -> int:
        return self.mu_n.size


def _as_precision(precision: float | np.ndarray, d: int) -> np.ndarray:
    if np.isscalar(precision):
        check_positive("scalar prior precision", precision)  # type: ignore[arg-type]
        return float(precision) * np.eye(d)
    lam = _numbers("precision matrix", precision)
    if lam.shape != (d, d):
        raise InvalidArgumentError("precision matrix must be d x d")
    if not np.isfinite(lam).all():
        raise InvalidArgumentError("precision matrix must hold finite numbers only")
    if float(np.abs(lam - lam.T).max()) > 1e-10:
        raise InvalidArgumentError("precision matrix must be symmetric")
    return lam


def fit_posterior_stack(
    data: RegressionData,
    train_rows: Sequence[np.ndarray | slice],
    precisions: Sequence[float | np.ndarray],
    radii: Sequence[float],
) -> PosteriorStack:
    """The posterior of every training set under every (precision, radius) pair, as one stack.

    Training set r is data.X[train_rows[r]] with its targets, read from
    the checked data without checking its rows again; an index that is
    no row of the data is an InvalidArgumentError. Row r * k + i of
    the stack is its posterior under the i-th of the k pairs: for a prior
    precision L, mu_n = (X'X + s2 L)^-1 X'y and sigma_n = s2 (X'X + s2 L)^-1.
    The scaled priors s2 L are formed once, and X'X and X'y once per
    training set. Each posterior precision is factored by LAPACK dpotrf
    and solved by dpotrs, the routines behind scipy's cho_factor and
    cho_solve, so a row equals its own fit_posterior bit for bit; no
    explicit inverse is formed for the mean. Raises ConditionViolatedError
    if a system overflows or is not numerically positive definite.
    """
    if len(precisions) != len(radii):
        raise DimensionMismatchError(
            f"{len(precisions)} prior precisions but {len(radii)} radii"
        )
    d = data.d
    lam = np.array([_as_precision(precision, d) for precision in precisions]).reshape(-1, d, d)
    with np.errstate(over="ignore"):  # an overflow is refused below
        prior = data.sigma2 * lam
    means = np.empty((len(train_rows), len(lam), d))
    covs = np.empty((len(train_rows), len(lam), d, d))
    ident = np.eye(d)
    for rows, mean_line, cov_line in zip(train_rows, means, covs):
        try:
            X, y = data.X[rows], data.y[rows]
        except IndexError as exc:
            raise InvalidArgumentError(f"training rows must index the data: {exc}") from None
        with np.errstate(over="ignore"):
            A = X.T @ X + prior
            A = (A + A.swapaxes(1, 2)) / 2.0
        if not np.isfinite(A).all():
            raise ConditionViolatedError("posterior precision overflows to a non-finite entry")
        xty = X.T @ y
        for a, mean, cov in zip(A, mean_line, cov_line):
            chol, info = dpotrf(a, lower=1, clean=0)
            if info:
                raise ConditionViolatedError(
                    "posterior precision not positive definite: "
                    f"{info}-th leading minor of the array is not positive definite"
                )
            mean[:] = dpotrs(chol, xty, lower=1)[0]
            sigma = data.sigma2 * dpotrs(chol, ident, lower=1)[0]
            cov[:] = (sigma + sigma.T) / 2.0
    return PosteriorStack(
        means=means.reshape(-1, d),
        covs=covs.reshape(-1, d, d),
        radii=np.tile(radii, len(train_rows)),
    )


def fit_posterior(
    data: RegressionData, precision: float | np.ndarray, radius: float
) -> GaussianPosterior:
    """The posterior under one prior precision on all the data: fit_posterior_stack's one entry."""
    stack = fit_posterior_stack(data, [slice(None)], [precision], [radius])
    return GaussianPosterior(mu_n=stack.means[0], sigma_n=stack.covs[0], radius=stack.radii[0])


def sample_truncated(
    stack: PosteriorStack, seeds: Sequence[int] | np.ndarray, size: int = 1
) -> np.ndarray:
    """Rejection draws from each posterior of a stack within its ball: a (k, size, d) array.

    Row i holds size draws of the stack's i-th posterior, read from
    substream(seeds[i], DRAW_TAG); the stack needs one integer seed per
    posterior. The first round is stacked: every row's Gaussian block
    comes from one substreams batch, all covariances are factored by one
    Cholesky call of the (k, d, d) stack and all proposals are formed by
    one matmul and checked by one norm. Each of these equals its
    one-posterior form bit for bit, so a row equals its own call.
    A row with a rejected slot re-keys its stream, skips the block it
    has used and redraws its pending slots alone. Each requested vector
    gets at most _REJECTION_BUDGET Gaussian proposals; exhausting them
    raises ConditionViolatedError, which signals that the radius leaves
    the Gaussian almost no mass and needs reconfiguring rather than
    silent clamping. A covariance that is not positive definite raises it too.
    """
    check_integer("size", size, 1)
    seeds = seed_array(seeds)
    if seeds.shape != (len(stack),):
        raise DimensionMismatchError(
            f"need one draw seed per posterior ({len(stack)}), got shape {seeds.shape}"
        )
    if seeds.dtype.kind not in "iu":
        for seed in seeds.tolist():
            check_integer("draw seed", seed)
    if not len(stack):
        raise DimensionMismatchError("need at least one posterior, got an empty stack")
    try:
        chol = np.linalg.cholesky(stack.covs)
    except np.linalg.LinAlgError as exc:
        raise ConditionViolatedError(f"posterior covariance not positive definite: {exc}") from exc
    mu, radii = stack.means, stack.radii
    out = np.empty((len(stack), size, stack.d))
    for row, rng in zip(out, substreams(seeds, DRAW_TAG)):
        rng.standard_normal(out=row)
    # one buffer for the Gaussian block and the proposals: matmul copies an operand it overwrites
    np.matmul(out, chol.swapaxes(1, 2), out=out)
    out += mu[:, None]
    ok = np.linalg.norm(out, axis=2) <= radii[:, None]
    for i in np.flatnonzero(~ok.all(axis=1)).tolist():
        # substreams reuses one Generator, so a row with misses keys its stream anew
        rng = substream(seeds[i], DRAW_TAG)
        rng.standard_normal(out.shape[1:])
        pending = np.flatnonzero(~ok[i])
        for _ in range(_REJECTION_BUDGET - 1):
            if pending.size == 0:
                break
            proposal = mu[i] + rng.standard_normal((pending.size, stack.d)) @ chol[i].T
            hit = np.linalg.norm(proposal, axis=1) <= radii[i]
            out[i, pending[hit]] = proposal[hit]
            pending = pending[~hit]
        if pending.size:
            raise ConditionViolatedError(
                f"{pending.size} of {size} draws found no point with norm <= {radii[i]} "
                f"in {_REJECTION_BUDGET} attempts"
            )
    return out


def default_radius(b: float) -> float:
    """Truncation radius 10/sqrt(b) paired with prior precision b."""
    check_positive("prior precision", b)
    return 10.0 / math.sqrt(b)


def mse_stack(weights: np.ndarray, X_test: np.ndarray, y_test: np.ndarray) -> np.ndarray:
    """Mean squared test error of each row of a (k, d) stack of weight vectors.

    The test set is checked once for the whole stack, and every weight
    must be finite. Each row's predictions come from one stacked matmul
    against a column operand, which equals X_test @ row bit for bit;
    X_test @ weights.T would not.
    """
    W = _weight_stack(weights)
    X_test, y_test = _numbers("X_test", X_test), _numbers("y_test", y_test)
    if X_test.ndim != 2 or X_test.shape[1] != W.shape[1]:
        raise DimensionMismatchError(
            f"X_test must have {W.shape[1]} columns, one per weight; got shape {X_test.shape}"
        )
    if y_test.shape != (X_test.shape[0],):
        raise DimensionMismatchError(
            f"y_test must hold one target per X_test row ({X_test.shape[0]}); "
            f"got shape {y_test.shape}"
        )
    if X_test.shape[0] == 0:
        raise InvalidArgumentError("the test set is empty")
    if not (np.isfinite(X_test).all() and np.isfinite(y_test).all()):
        raise InvalidArgumentError("X_test and y_test must hold finite numbers only")
    return _mse(W, X_test, y_test)


def mse_stack_rows(weights: np.ndarray, data: RegressionData, test_rows: np.ndarray) -> np.ndarray:
    """mse_stack of the weights on the test set data.X[test_rows], data.y[test_rows].

    The rows are read from the checked data without checking them again;
    an index that is no row of the data, or no row at all, is an
    InvalidArgumentError. The weights are checked as mse_stack checks
    them, and must have data.d columns.
    """
    W = _weight_stack(weights)
    if W.shape[1] != data.d:
        raise DimensionMismatchError(
            f"weights must have {data.d} columns, one per feature; got shape {W.shape}"
        )
    try:
        X_test, y_test = data.X[test_rows], data.y[test_rows]
    except IndexError as exc:
        raise InvalidArgumentError(f"test rows must index the data: {exc}") from None
    if X_test.shape[0] == 0:
        raise InvalidArgumentError("the test set is empty")
    return _mse(W, X_test, y_test)


def _weight_stack(weights: object) -> np.ndarray:
    """weights as a (k, d) float64 stack, once every cell is finite."""
    W = _numbers("weights", weights)
    if W.ndim != 2:
        raise DimensionMismatchError(f"weights must be a (k, d) stack; got shape {W.shape}")
    if not np.isfinite(W).all():
        raise InvalidArgumentError("weights must hold finite numbers only")
    return W


def _mse(W: np.ndarray, X_test: np.ndarray, y_test: np.ndarray) -> np.ndarray:
    """Each weight row's MSE, its predictions from one stacked matmul against a column operand."""
    return np.mean((np.matmul(X_test[None], W[:, :, None])[..., 0] - y_test) ** 2, axis=1)


def predictive_mse(
    post: GaussianPosterior,
    X_test: np.ndarray,
    y_test: np.ndarray,
    samples: int,
    seed: int,
) -> float:
    """MSE of the predictor built from averaged truncated-posterior draws.

    The draws are sample_truncated of post as a one-row stack, the row a
    sweep's stacked draw gives the (b, repeat) pair whose draw seed is
    seed; the score is mse_stack of their mean.
    """
    row = PosteriorStack(means=[post.mu_n], covs=[post.sigma_n], radii=[post.radius])
    draws = sample_truncated(row, [seed], samples)[0]
    return float(mse_stack(draws.mean(axis=0)[None], X_test, y_test)[0])
