"""Bayesian linear regression with a norm-truncated Gaussian posterior.

The conjugate pair: Gaussian likelihood with known noise variance and
a zero-mean Gaussian prior restricted to a Euclidean ball. Posterior
mean and covariance have the usual ridge form; sampling restricts to
the ball by rejection. fit_posterior_grid fits one dataset under a
whole grid of prior precisions from a single X'X and X'y, calling
LAPACK's Cholesky routines directly; fit_posterior is its one-entry case.
sample_truncated draws from the stream it is handed: a sweep hands it
each (b, repeat) pair's stream from one randomness.substreams batch,
and predictive_mse seeds its own. mse_stack scores a stack of weight
rows against one test set.

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
from .randomness import substream

DRAW_TAG = "regression-weight-draw"  # the key of a weight-draw stream

# Gaussian proposals per requested draw before sampling gives up
_REJECTION_BUDGET = 1000


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
        X = np.asarray(self.X, dtype=np.float64)
        y = np.asarray(self.y, dtype=np.float64)
        if X.ndim != 2 or y.ndim != 1 or X.shape[0] != y.shape[0]:
            raise InvalidArgumentError("X must be n x d with a length-n target vector")
        if X.shape[1] == 0:
            raise InvalidArgumentError("X must have at least one feature column")
        check_positive("sigma2", self.sigma2)
        if not (np.isfinite(X).all() and np.isfinite(y).all()):
            raise InvalidArgumentError("X and y must hold finite numbers only")
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
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    x_scale = float(np.linalg.norm(X, axis=1).max(initial=0.0)) or 1.0
    y_scale = float(np.abs(y).max(initial=0.0)) or 1.0
    return RegressionData(X=X / x_scale, y=y / y_scale, sigma2=sigma2)


@dataclass(frozen=True)
class GaussianPosterior:
    """N(mu_n, sigma_n) restricted to the ball ||w||_2 <= radius."""

    mu_n: np.ndarray
    sigma_n: np.ndarray
    radius: float

    def __post_init__(self) -> None:
        mu = np.asarray(self.mu_n, dtype=np.float64)
        sig = np.asarray(self.sigma_n, dtype=np.float64)
        if mu.ndim != 1 or sig.shape != (mu.size, mu.size):
            raise InvalidArgumentError("mean and covariance shapes disagree")
        if not (np.isfinite(mu).all() and np.isfinite(sig).all()):
            raise InvalidArgumentError("mean and covariance must hold finite numbers only")
        if float(np.abs(sig - sig.T).max()) > 1e-10:
            raise InvalidArgumentError("covariance must be symmetric")
        check_positive("radius", self.radius)
        object.__setattr__(self, "mu_n", mu)
        object.__setattr__(self, "sigma_n", sig)

    @property
    def d(self) -> int:
        return self.mu_n.size


def _as_precision(precision: float | np.ndarray, d: int) -> np.ndarray:
    if np.isscalar(precision):
        check_positive("scalar prior precision", precision)  # type: ignore[arg-type]
        return float(precision) * np.eye(d)
    lam = np.asarray(precision, dtype=np.float64)
    if lam.shape != (d, d):
        raise InvalidArgumentError("precision matrix must be d x d")
    if not np.isfinite(lam).all():
        raise InvalidArgumentError("precision matrix must hold finite numbers only")
    if float(np.abs(lam - lam.T).max()) > 1e-10:
        raise InvalidArgumentError("precision matrix must be symmetric")
    return lam


def fit_posterior_grid(
    data: RegressionData,
    precisions: Sequence[float | np.ndarray],
    radii: Sequence[float],
) -> list[GaussianPosterior]:
    """One posterior per (precision, radius) pair, all on the same data.

    For each prior precision L: mu_n = (X'X + s2 L)^-1 X'y and
    sigma_n = s2 (X'X + s2 L)^-1. X'X and X'y are formed once for the
    grid. Each posterior precision is factored by LAPACK dpotrf and
    solved by dpotrs, the routines behind scipy's cho_factor and
    cho_solve, so a grid entry equals its own fit_posterior bit for bit;
    no explicit inverse is formed for the mean. Raises
    ConditionViolatedError if a system overflows or is not numerically
    positive definite.
    """
    if len(precisions) != len(radii):
        raise DimensionMismatchError(
            f"{len(precisions)} prior precisions but {len(radii)} radii"
        )
    if not len(precisions):
        return []
    lam = np.stack([_as_precision(precision, data.d) for precision in precisions])
    with np.errstate(over="ignore"):  # an overflow is refused just below
        A = data.X.T @ data.X + data.sigma2 * lam
        A = (A + A.swapaxes(1, 2)) / 2.0
    if not np.isfinite(A).all():
        raise ConditionViolatedError("posterior precision overflows to a non-finite entry")
    xty = data.X.T @ data.y
    ident = np.eye(data.d)
    posts = []
    for a, radius in zip(A, radii):
        chol, info = dpotrf(a, lower=1, clean=0)
        if info:
            raise ConditionViolatedError(
                "posterior precision not positive definite: "
                f"{info}-th leading minor of the array is not positive definite"
            )
        mu = dpotrs(chol, xty, lower=1)[0]
        sigma = data.sigma2 * dpotrs(chol, ident, lower=1)[0]
        posts.append(GaussianPosterior(mu_n=mu, sigma_n=(sigma + sigma.T) / 2.0, radius=radius))
    return posts


def fit_posterior(
    data: RegressionData, precision: float | np.ndarray, radius: float
) -> GaussianPosterior:
    """The posterior under one prior precision: fit_posterior_grid with one entry."""
    return fit_posterior_grid(data, [precision], [radius])[0]


def sample_truncated(
    post: GaussianPosterior, rng: np.random.Generator, size: int = 1
) -> np.ndarray:
    """Rejection draws from the posterior restricted to its ball, read from rng.

    rng is the draw's keyed stream, substream(seed, DRAW_TAG) or its row
    of a substreams batch; anything but a numpy Generator is an
    InvalidArgumentError. Each requested vector gets at most
    _REJECTION_BUDGET Gaussian proposals; exhausting them raises
    ConditionViolatedError, which signals that the radius leaves the
    Gaussian almost no mass and needs reconfiguring rather than silent
    clamping. A covariance that is not positive definite raises it too.
    """
    if not isinstance(rng, np.random.Generator):
        raise InvalidArgumentError(f"rng must be a numpy Generator, got {type(rng).__name__}")
    check_integer("size", size, 1)
    try:
        chol = np.linalg.cholesky(post.sigma_n)
    except np.linalg.LinAlgError as exc:
        raise ConditionViolatedError(f"posterior covariance not positive definite: {exc}") from exc
    out = np.empty((size, post.d), dtype=np.float64)
    pending = np.arange(size)
    for _ in range(_REJECTION_BUDGET):
        if pending.size == 0:
            return out
        z = rng.standard_normal((pending.size, post.d))
        proposal = post.mu_n + z @ chol.T
        ok = np.linalg.norm(proposal, axis=1) <= post.radius
        out[pending[ok]] = proposal[ok]
        pending = pending[~ok]
    if pending.size:
        raise ConditionViolatedError(
            f"{pending.size} of {size} draws found no point with norm <= {post.radius} "
            f"in {_REJECTION_BUDGET} attempts"
        )
    return out


def default_radius(b: float) -> float:
    """Truncation radius 10/sqrt(b) paired with prior precision b."""
    check_positive("prior precision", b)
    return 10.0 / math.sqrt(b)


def mse_stack(weights: np.ndarray, X_test: np.ndarray, y_test: np.ndarray) -> np.ndarray:
    """Mean squared test error of each row of a (k, d) stack of weight vectors.

    The test set is checked once for the whole stack. Each row's
    predictions come from one stacked matmul against a column operand,
    which equals X_test @ row bit for bit; X_test @ weights.T would not.
    """
    W = np.asarray(weights, dtype=np.float64)
    if W.ndim != 2:
        raise DimensionMismatchError(f"weights must be a (k, d) stack; got shape {W.shape}")
    X_test = np.asarray(X_test, dtype=np.float64)
    y_test = np.asarray(y_test, dtype=np.float64)
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
    return np.mean((np.matmul(X_test[None], W[:, :, None])[..., 0] - y_test) ** 2, axis=1)


def predictive_mse(
    post: GaussianPosterior,
    X_test: np.ndarray,
    y_test: np.ndarray,
    samples: int,
    seed: int,
) -> float:
    """MSE of the predictor built from averaged truncated-posterior draws.

    The draws come from substream(seed, DRAW_TAG), the stream a sweep
    gives the (b, repeat) pair whose draw seed is seed; the score is
    mse_stack of their mean.
    """
    draws = sample_truncated(post, substream(seed, DRAW_TAG), samples)
    return float(mse_stack(draws.mean(axis=0)[None], X_test, y_test)[0])
