"""Privacy from posterior sampling, and the trimmed Beta sampler.

Answering a query with a single posterior draw is itself a mechanism.
Its privacy follows from how fast the log-likelihood can change when
one record changes: a per-node Lipschitz bound composes into a network
guarantee, and a weaker stochastic variant (the prior concentrates on
smoothly-behaved parameters) buys a one-sided additive guarantee whose
constant M is computed here.

For Beta-Bernoulli networks the required smoothness is forced by
trimming: condition every success probability into [omega, 1 - omega],
omega = exp(-epsilon/2), so one record's flip moves any log-likelihood
by at most ln((1 - omega)/omega) <= epsilon per coordinate.

The guarantee assumes exact draws from the trimmed posterior. A release
draws them all in one trimmed_beta_draws call, which takes from its
generator, in this order: one (m, size) uniform block for inversion;
one (k_beta, size) plain Beta proposal block for the rows whose
conditioning mass is at least PROPOSAL_MASS; and one (k_env, size, 2)
uniform block for the log-concave rows below that mass whose tangent
envelope accepts at least PROPOSAL_MASS of its proposals. Accepted
proposals are kept and only the misses, and every other row, are
inverted.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np
import scipy.special

from .errors import (
    ConditionViolatedError,
    DimensionMismatchError,
    InvalidEpsilonError,
    MissingPosteriorEntryError,
    OmegaTooLargeError,
)
from .graph import BayesNetGraph, BetaParams, EntryKey, PosteriorMap, ThetaMap
from .randomness import substream

_DRAW_TAG = "trimmed-posterior-draw"

# Conditioning mass from which a row tries one plain Beta proposal per slot,
# and the acceptance from which a row below it tries one envelope proposal.
PROPOSAL_MASS = 0.5

# Fixed constants of the additive-guarantee expression.
KAPPA = 4.91081
OMEGA_BAR = 1.25643


@dataclass(frozen=True)
class LipschitzSpec:
    """Per-node log-likelihood Lipschitz constants under the discrete metric."""

    per_node_L: tuple[float, ...]

    def __post_init__(self) -> None:
        if not self.per_node_L:
            raise ValueError("need at least one node")
        if any(not L >= 0 for L in self.per_node_L):
            raise ValueError("Lipschitz constants must be non-negative")


@dataclass(frozen=True)
class StochasticLipschitzSpec:
    """Per-node prior tail rates c_i with shared smoothness scale L0."""

    per_node_c: tuple[float, ...]
    L0: float

    def __post_init__(self) -> None:
        if not self.per_node_c:
            raise ValueError("need at least one node")
        if any(c <= 0 for c in self.per_node_c):
            raise ValueError("tail rates must be positive")
        if self.L0 <= 0:
            raise ValueError("L0 must be positive")


@dataclass(frozen=True)
class SamplerPrivacyReport:
    """What the posterior-sampling mechanism promises, in DP terms.

    kind "pure" reports epsilon per unit of record distance; kind
    "stochastic" reports the additive delta sqrt(M/2) per unit distance
    together with the M constant it came from.
    """

    kind: str
    epsilon: float = 0.0
    delta: float = 0.0
    M_constant: float = field(default=float("nan"))

    def __post_init__(self) -> None:
        if self.kind not in ("pure", "stochastic"):
            raise ValueError(f"unknown report kind {self.kind!r}")
        if self.epsilon < 0:
            raise ValueError("epsilon must be non-negative")
        if self.kind == "stochastic" and not 0 <= self.delta <= 1:
            raise ValueError("delta must lie in [0, 1] to be reported")


def compose_lipschitz(spec: LipschitzSpec) -> float:
    """Network constant: the worst per-node constant, max_i L_i."""
    return max(spec.per_node_L)


def compose_stochastic_lipschitz(spec: StochasticLipschitzSpec) -> float:
    """Network tail rate c' = min_i c_i - ln|I|/L0.

    Only applicable while |I| <= exp(L0 * min_i c_i); beyond that the
    union bound over nodes consumes the whole tail and c' would be
    non-positive.
    """
    c_min = min(spec.per_node_c)
    size = len(spec.per_node_c)
    if size > math.exp(spec.L0 * c_min):
        raise ConditionViolatedError(
            f"{size} nodes exceed exp(L0 * min c) = {math.exp(spec.L0 * c_min):.6g}"
        )
    return c_min - math.log(size) / spec.L0


def stochastic_privacy_constant(c: float, L0: float, delta_slack: float, C: float) -> float:
    """The M constant of the additive posterior-sampling guarantee.

    M = (kappa/c + L0 (1/(1-e^-om) + 1) + ln C
         + ln(e^{-L0 dc} (e^{-om(1-d)} - e^{-om})^{-1} + e^{L0(1-d)c})) * C

    with kappa = 4.91081 and om = 1.25643. Valid when record distances
    stay below (1-d)c; the report pairs it as (0, sqrt(M/2))-DP per
    unit distance.
    """
    if c <= 0 or L0 <= 0:
        raise ValueError("c and L0 must be positive")
    if not 0 < delta_slack < 1:
        raise ValueError("delta_slack must lie in (0, 1)")
    if C < 1:
        raise ValueError("C is a product of max-to-marginal ratios, hence >= 1")
    d = delta_slack
    bracket = (
        KAPPA / c
        + L0 * (1.0 / (1.0 - math.exp(-OMEGA_BAR)) + 1.0)
        + math.log(C)
        + math.log(
            math.exp(-L0 * d * c) / (math.exp(-OMEGA_BAR * (1.0 - d)) - math.exp(-OMEGA_BAR))
            + math.exp(L0 * (1.0 - d) * c)
        )
    )
    return bracket * C


def pure_privacy_report(spec: LipschitzSpec) -> SamplerPrivacyReport:
    """Pure guarantee: one posterior draw is (2 max L_i, 0)-DP per unit distance."""
    return SamplerPrivacyReport(kind="pure", epsilon=2.0 * compose_lipschitz(spec))


def stochastic_privacy_report(
    spec: StochasticLipschitzSpec, delta_slack: float, C: float
) -> SamplerPrivacyReport:
    """Additive guarantee built from the composed tail rate."""
    c_prime = compose_stochastic_lipschitz(spec)
    M = stochastic_privacy_constant(c_prime, spec.L0, delta_slack, C)
    return SamplerPrivacyReport(
        kind="stochastic", delta=min(1.0, math.sqrt(M / 2.0)), M_constant=M
    )


def max_to_marginal_ratio(prior: BetaParams) -> float:
    """Max-to-marginal likelihood ratio of one Bernoulli node, in closed form.

    sup over observations x and parameters theta of p(x | theta)
    divided by the prior-marginal likelihood of x. The likelihood
    reaches 1 (theta = 1 for x = 1, theta = 0 for x = 0) and the
    marginals are alpha/(alpha+beta) and beta/(alpha+beta), so the
    supremum is (alpha + beta) / min(alpha, beta).
    """
    return (prior.alpha + prior.beta) / min(prior.alpha, prior.beta)


# ---------------------------------------------------------------------------
# trimmed Beta sampling
# ---------------------------------------------------------------------------


def trim_bound(epsilon: float) -> float:
    """omega = exp(-epsilon/2); the trim interval is [omega, 1 - omega].

    Raises OmegaTooLargeError when omega >= 1/2 (epsilon <= 2 ln 2):
    the interval is empty or a single point, so the caller must raise
    epsilon or pick a smaller omega directly. Raises InvalidEpsilonError
    when omega underflows to 0 (epsilon above ~1490): nothing is trimmed.
    """
    if not epsilon > 0:
        raise InvalidEpsilonError(f"epsilon must be positive, got {epsilon}")
    omega = math.exp(-epsilon / 2.0)
    if omega == 0.0:
        raise InvalidEpsilonError(f"epsilon={epsilon} makes omega underflow to 0; no trim left")
    if omega >= 0.5:
        raise OmegaTooLargeError(
            f"epsilon={epsilon} gives omega={omega:.4f} >= 1/2; trim interval degenerate"
        )
    return omega


def _tangent_envelopes(
    a: np.ndarray, b: np.ndarray, mass: np.ndarray, omega: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Tangent point x0, log-slope g and log acceptance of each row's envelope on I.

    x0 is the mode (a - 1)/(a + b - 2) clipped into I (any point when
    a = b = 1), and g is the slope of log f at x0, or 0 when the mode
    lies inside I. The acceptance is mass / integral of h over I, with
    log f(x0) = (a - 1) log x0 + (b - 1) log(1 - x0) - log B(a, b) and
    the integral of exp(g (x - x0)) equal to w at g = 0 and to
    -expm1(-|g| w) / |g| otherwise, all in log space.
    """
    den = a + b - 2.0
    mode = np.divide(a - 1.0, den, out=np.full_like(a, 0.5), where=den > 0.0)
    x0 = np.clip(mode, omega, 1.0 - omega)
    g = np.where(mode == x0, 0.0, (a - 1.0) / x0 - (b - 1.0) / (1.0 - x0))
    width = 1.0 - 2.0 * omega
    rate = np.where(g == 0.0, 1.0, np.abs(g))
    log_z = np.where(
        g == 0.0, math.log(width), np.log(-np.expm1(-rate * width)) - np.log(rate)
    )
    log_f0 = (a - 1.0) * np.log(x0) + (b - 1.0) * np.log1p(-x0) - scipy.special.betaln(a, b)
    return x0, g, np.log(mass) - log_f0 - log_z


def trimmed_beta_draws(
    params: BetaParams | Sequence[BetaParams],
    omega: float,
    rng: np.random.Generator,
    size: int = 1,
) -> np.ndarray:
    """Exact draws from Beta(alpha, beta) conditioned on I = [omega, 1 - omega].

    Inverse-CDF sampling (Devroye 1986, ch. II): one uniform per slot is
    mapped onto the interval's probability range [near, near + mass]
    and pushed through the regularized incomplete beta inverse. When the
    interval sits in the upper tail (CDF at omega above 1/2) the
    survival function and its inverse are used instead, so a tiny
    conditioning mass never cancels against 1. A mass that underflows
    to zero in double precision raises ConditionViolatedError; no
    boundary atom is ever substituted.

    Each row takes one of three routes. Write Q for the trimmed law and
    m for the row's mass on I.

    - Beta proposal, when m >= PROPOSAL_MASS: one plain Beta(alpha,
      beta) proposal Y per slot (Devroye 1986, ch. IX), kept when it
      lands in I. For any B inside I, P(Y in B) = m Q(B).
    - Tangent envelope, when m < PROPOSAL_MASS, alpha >= 1, beta >= 1
      and the envelope's acceptance A is at least PROPOSAL_MASS
      (Devroye 1986, ch. II.3 and VII). Then log f is concave on
      (0, 1), so it lies below its tangent at any point x0:
      log f(x) <= log f(x0) + g (x - x0) with g the slope of log f at
      x0. Hence h(x) = f(x0) exp(g (x - x0)) >= f(x) on I. Here x0 is
      the mode clipped into I and g = 0 when the mode lies inside I,
      where x0 maximizes f. One proposal X per slot is drawn from h
      normalized on I, as a truncated exponential measured from the
      end of I where h peaks, which is x0's end: X = x0 + T or x0 - T
      with T = -log1p(V expm1(-|g| w)) / |g| (T = V w when g = 0),
      w = 1 - 2 omega. It is kept when V' h(X) <= f(X). With H the
      integral of h over I and A = m / H,

          P(accept, X in B) = integral over B of (h(x) / H) (f(x) / h(x)) dx
                            = m Q(B) / H = A Q(B).

    - Inversion outright for every other row.

    A slot whose proposal misses (Y outside I, or X rejected) is
    inverted with its own uniform U from the first block. U is
    independent of the proposal and its inversion has law Q, so with
    p = m on the Beta route and p = A on the envelope route

        P(draw in B) = p Q(B) + (1 - p) Q(B) = Q(B).

    There is one proposal round and no retry. At p >= 1/2 at most half
    the slots, on average, pay for an inversion.

    A single BetaParams gives `size` draws. A sequence of m BetaParams
    gives an (m, size) array, row r for params[r]. `rng` yields, in
    order: one (m, size) uniform block; if any row takes the Beta
    route, one (k_beta, size) Beta block for those rows; if any row
    takes the envelope route, one (k_env, size, 2) uniform block for
    those rows, holding each slot's position uniform V and acceptance
    uniform V' side by side. Rows keep row order within each block. A
    single BetaParams consumes `rng` exactly as the one-row block does.
    """
    if not 0 < omega < 0.5:
        raise OmegaTooLargeError(f"omega must lie in (0, 1/2), got {omega}")
    single = isinstance(params, BetaParams)
    entries = [params] if single else list(params)
    a = np.array([p.alpha for p in entries], dtype=np.float64)
    b = np.array([p.beta for p in entries], dtype=np.float64)
    u = rng.random((len(entries), size))
    cdf_lo = scipy.special.betainc(a, b, omega)
    upper = cdf_lo > 0.5
    near = np.where(upper, scipy.special.betaincc(a, b, 1.0 - omega), cdf_lo)
    far = np.where(
        upper, scipy.special.betaincc(a, b, omega), scipy.special.betainc(a, b, 1.0 - omega)
    )
    mass = far - near
    empty = np.flatnonzero(~(mass > 0.0))
    if empty.size:
        bad = entries[empty[0]]
        raise ConditionViolatedError(
            f"Beta({bad.alpha:.6g}, {bad.beta:.6g}) puts no representable mass on "
            f"[{omega:.6g}, {1.0 - omega:.6g}]"
        )
    out = np.empty_like(u)
    miss = np.ones(u.shape, dtype=bool)
    propose = mass >= PROPOSAL_MASS
    if propose.any():
        y = rng.beta(a[propose, None], b[propose, None], (np.count_nonzero(propose), size))
        out[propose] = y
        miss[propose] = (y < omega) | (y > 1.0 - omega)
    rows = np.flatnonzero(~propose & (a >= 1.0) & (b >= 1.0))
    x0, g, log_accept = _tangent_envelopes(a[rows], b[rows], mass[rows], omega)
    keep = log_accept >= math.log(PROPOSAL_MASS)
    rows, x0, g = rows[keep], x0[keep, None], g[keep, None]
    if rows.size:
        v = rng.random((rows.size, size, 2))
        ra, rb = a[rows, None] - 1.0, b[rows, None] - 1.0
        width = 1.0 - 2.0 * omega
        rate = np.where(g == 0.0, 1.0, np.abs(g))
        t = np.where(
            g == 0.0, v[..., 0] * width, -np.log1p(v[..., 0] * np.expm1(-rate * width)) / rate
        )
        x = np.where(g > 0.0, 1.0 - omega - t, omega + t)
        log_ratio = (
            ra * (np.log(x) - np.log(x0)) + rb * (np.log1p(-x) - np.log1p(-x0)) - g * (x - x0)
        )
        out[rows] = x
        miss[rows] = v[..., 1] > np.exp(log_ratio)
    for invert, tail in (
        (scipy.special.betaincinv, ~upper),
        (scipy.special.betainccinv, upper),
    ):
        rows, cols = np.nonzero(miss & tail[:, None])
        out[rows, cols] = invert(a[rows], b[rows], near[rows] + u[rows, cols] * mass[rows])
    # The clip only absorbs ulp rounding of the inverse and of the envelope
    # positions at the interval ends.
    np.clip(out, omega, 1.0 - omega, out=out)
    return out[0] if single else out


def trimmed_posterior_draws(
    posterior: PosteriorMap, omega: float, seed: int, samples: int
) -> dict[tuple[int, int], np.ndarray]:
    """`samples` trimmed draws per posterior entry, from one keyed substream.

    One (m, samples) block is drawn for the m entries in sorted key
    order, so the result does not depend on dict iteration order.
    """
    keys = sorted(posterior)
    block = trimmed_beta_draws(
        [posterior[k] for k in keys], omega, substream(seed, _DRAW_TAG), samples
    )
    return dict(zip(keys, block))


def trimmed_posterior_sample(posterior: PosteriorMap, epsilon: float, seed: int) -> ThetaMap:
    """One trimmed draw per posterior entry, omega = exp(-epsilon/2).

    Every entry's draw is one column of a single block drawn by
    trimmed_posterior_draws, so the result does not depend on dict
    iteration order.
    """
    draws = trimmed_posterior_draws(posterior, trim_bound(epsilon), seed, 1)
    return {key: float(row[0]) for key, row in draws.items()}


def naive_bayes_keys(posterior: Mapping[EntryKey, object]) -> list[EntryKey]:
    """Naive-Bayes entry order: class (0, 0), then (f, 0), (f, 1) per feature f = 1..d.

    This is sorted key order, the order trimmed_posterior_draws draws in.
    Any other key set raises MissingPosteriorEntryError.
    """
    keys = sorted(posterior)
    d = keys[-1][0] if keys else 0
    want = [(0, 0)] + [(f, y) for f in range(1, d + 1) for y in (0, 1)]
    if keys != want:
        missing = sorted(set(want) - set(keys))
        extra = sorted(set(keys) - set(want))
        raise MissingPosteriorEntryError(
            f"not a naive-Bayes posterior: missing {missing}, extra {extra}"
        )
    return keys


def naive_bayes_class1(theta: np.ndarray, X: np.ndarray) -> np.ndarray:
    """Pr(Y=1 | x) for every row of X, averaged over the columns of theta.

    theta has one row per entry in naive_bayes_keys order and one column
    per draw s. Per draw, log p_y(x) = c_y[s] + x . (log theta_y -
    log(1 - theta_y))[:, s] with c_y[s] the class term plus the sum of
    log(1 - theta_y). Both classes sit side by side in one 2S x d
    matrix, so one product gives every row's 2S log-likelihoods, one
    column per row of X. That column is shifted by its max before exp,
    so the larger class sum is at least 1 and the ratio p1 / (p0 + p1)
    of the two half-sums stays finite however small the likelihoods
    are. Reductions run along the leading axis: a max along a short
    trailing axis (2S = 2 for a single column of means) costs numpy a
    call per row of X.
    """
    samples = theta.shape[1]
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] != theta.shape[0] // 2:
        raise DimensionMismatchError(
            f"X must be rows of {theta.shape[0] // 2} feature bits, got shape {X.shape}"
        )
    cls = theta[0]
    # per_class[f, y * S + s] for feature f given class value y in draw s
    per_class = np.hstack([theta[1::2], theta[2::2]])
    log_1mth = np.log1p(-per_class)
    const = log_1mth.sum(axis=0) + np.concatenate([np.log1p(-cls), np.log(cls)])
    logp = (np.log(per_class) - log_1mth).T @ X.T  # 2S x rows
    logp += const[:, None]
    logp -= logp.max(axis=0)
    np.exp(logp, out=logp)
    p0 = logp[:samples].sum(axis=0)
    p1 = logp[samples:].sum(axis=0)
    return p1 / (p0 + p1)


def sampler_predictive_batch(
    graph: BayesNetGraph,
    posterior: PosteriorMap,
    X: np.ndarray,
    epsilon: float,
    samples: int,
    seed: int,
) -> np.ndarray:
    """Monte Carlo class-1 probabilities for rows of X under trimming.

    graph must be naive Bayes with class node 0. The (m, samples)
    block of trimmed_posterior_draws, whose sorted key order is
    naive_bayes_keys order, feeds naive_bayes_class1.
    """
    if samples < 1:
        raise ValueError("need at least one Monte Carlo sample")
    omega = trim_bound(epsilon)
    d = graph.node_count - 1
    if graph.parents != ((),) + ((0,),) * d:
        raise ConditionViolatedError(
            "the predictive needs a naive-Bayes graph: node 0 parentless, "
            "node 0 the sole parent of every other node"
        )
    keys = naive_bayes_keys(posterior)
    if len(keys) != 2 * d + 1:
        raise MissingPosteriorEntryError(
            f"posterior covers {len(keys) // 2} features, graph has {d}"
        )
    draws = trimmed_posterior_draws(posterior, omega, seed, samples)
    return naive_bayes_class1(np.array([draws[k] for k in keys]), X)


def lipschitz_constants_from_theta(graph: BayesNetGraph, theta: ThetaMap) -> LipschitzSpec:
    """Per-node constants L_i = max over configs of |ln(theta/(1-theta))|.

    The max log-ratio a single value flip of node i can induce in its
    own conditional factor, maximized over parent configurations.
    """
    per_node = []
    for i in range(graph.node_count):
        worst = 0.0
        for j in range(graph.config_count(i)):
            t = theta[(i, j)]
            if not 0 < t < 1:
                raise ValueError(f"theta[{(i, j)}] must lie in (0, 1)")
            worst = max(worst, abs(math.log(t / (1.0 - t))))
        per_node.append(worst)
    return LipschitzSpec(per_node_L=tuple(per_node))
