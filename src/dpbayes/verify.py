"""Independent oracles for checking the mechanisms against first principles.

Everything here recomputes a quantity the library produces some clever
way by the dumbest defensible route instead: dense transforms instead
of streamed coefficients, brute-force enumeration instead of a proved
sensitivity bound, quadrature instead of closed forms, direct
normalization instead of log-sum-exp. Oracles deliberately do not call
the code paths they check.

Every integral goes through QUADPACK's adaptive Gauss-Kronrod rule
(scipy.integrate.quad) at fixed tolerances; an integral it reports as
not converged raises DpBayesError naming the interval, so no oracle
returns an unconverged estimate.

The privacy-loss oracles compute a release's exact worst loss between
neighbouring inputs by exhaustion on tiny inputs, not by a statistical
test; run_verification_suite, the body of `dpbayes --task verify`,
reports one such loss per mechanism, divided by its epsilon.

Budgets are tight (|I| <= 4, n <= 4, k <= 12, 12 grid points) because
every oracle is exponential in something; InvalidArgumentError refuses
anything larger.
"""
from __future__ import annotations

import itertools
import math
from typing import Callable, Sequence

import numpy as np
import scipy.special

from .errors import CyclicGraphError, DimensionMismatchError, DpBayesError, InvalidArgumentError
from .expmech import GridSpec, MapSensitivity
from .graph import BayesNetGraph, BetaParams, Dataset, PosteriorMap
from .metrics import PrivacyCheckReport

# ---------------------------------------------------------------------------
# quadrature
# ---------------------------------------------------------------------------


# QUADPACK's adaptive Gauss-Kronrod tolerances; 1e-13 absolute or 1e-11
# relative already makes it report roundoff on some Beta-KL integrands
_QUAD_EPSABS = 1e-12
_QUAD_EPSREL = 1e-10


def _quad(f: Callable[[float], float], a: float, b: float) -> float:
    """Integral of f over [a, b] by scipy.integrate.quad; raises unless it converged."""
    # imported here: scipy.integrate adds about 0.3 s to every CLI start-up
    import scipy.integrate

    value, _, _, *failure = scipy.integrate.quad(
        f, a, b, epsabs=_QUAD_EPSABS, epsrel=_QUAD_EPSREL, full_output=1
    )
    if failure:
        reason = " ".join(failure[0].split()).split(". ")[0]
        raise DpBayesError(f"quadrature on [{a}, {b}] did not converge: {reason}")
    return value


def beta_logpdf(x: float, params: BetaParams) -> float:
    a, b = params.alpha, params.beta
    return (
        (a - 1.0) * math.log(x)
        + (b - 1.0) * math.log1p(-x)
        - scipy.special.betaln(a, b)
    )


def kl_beta_quadrature(p: BetaParams, q: BetaParams) -> float:
    """KL(p || q) for Betas by quadrature on [1e-12, 1-1e-12].

    Endpoint singularities for shape parameters below 1 are excluded by
    the parameter ranges the tests use.
    """

    def integrand(x: float) -> float:
        lp = beta_logpdf(x, p)
        return math.exp(lp) * (lp - beta_logpdf(x, q))

    return _quad(integrand, 1e-12, 1.0 - 1e-12)


# ---------------------------------------------------------------------------
# dense-table oracles for the Fourier path
# ---------------------------------------------------------------------------

_DENSE_K_BUDGET = 12


def dense_table(data: Dataset, k: int | None = None) -> np.ndarray:
    """Full contingency table as a length-2^k vector, little-endian cells."""
    k = data.dimension if k is None else k
    if k > _DENSE_K_BUDGET:
        raise InvalidArgumentError(f"dense table limited to k <= {_DENSE_K_BUDGET}")
    out = np.zeros(1 << k, dtype=np.float64)
    if data.n:
        idx = data.records @ (1 << np.arange(k, dtype=np.int64))
        np.add.at(out, idx, 1.0)
    return out


def walsh_coefficients_dense(table: np.ndarray) -> np.ndarray:
    """All 2^k character-basis coefficients from the dense table.

    Iterative butterfly transform; entry gamma holds
    2^{-k/2} sum_eta (-1)^{popcount(gamma & eta)} table[eta].
    """
    v = np.asarray(table, dtype=np.float64).copy()
    size = v.size
    if size & (size - 1):
        raise InvalidArgumentError("table length must be a power of two")
    k = size.bit_length() - 1
    if k > _DENSE_K_BUDGET:
        raise InvalidArgumentError(f"dense transform limited to k <= {_DENSE_K_BUDGET}")
    h = 1
    while h < size:
        for start in range(0, size, h * 2):
            lo = v[start : start + h].copy()
            hi = v[start + h : start + 2 * h].copy()
            v[start : start + h] = lo + hi
            v[start + h : start + 2 * h] = lo - hi
        h *= 2
    return v * 2.0 ** (-k / 2.0)


def dense_marginal(table: np.ndarray, k: int, nodes: Sequence[int]) -> np.ndarray:
    """Direct marginalization onto `nodes`, little-endian in ascending node order."""
    nodes = sorted(nodes)
    arr = np.asarray(table, dtype=np.float64).reshape([2] * k, order="F")
    drop = tuple(ax for ax in range(k) if ax not in nodes)
    marg = arr.sum(axis=drop) if drop else arr
    return marg.reshape(-1, order="F")


# ---------------------------------------------------------------------------
# update counts and exhaustive privacy-loss oracles
# ---------------------------------------------------------------------------


def brute_force_updates(graph: BayesNetGraph, data: Dataset) -> dict[tuple[int, int, str], float]:
    """Per-entry success/failure tallies by plain per-record iteration."""
    out: dict[tuple[int, int, str], float] = {}
    for i in range(graph.node_count):
        for j in range(graph.config_count(i)):
            out[(i, j, "a")] = 0.0
            out[(i, j, "b")] = 0.0
    for row in range(data.n):
        rec = data.records[row]
        for i in range(graph.node_count):
            j = 0
            for pos, parent in enumerate(graph.parents[i]):
                j |= int(rec[parent]) << pos
            out[(i, j, "a" if rec[i] else "b")] += 1.0
    return out


def all_dags(k: int) -> list[BayesNetGraph]:
    """Every DAG on k labeled nodes, as parent-list graphs."""
    if k > 4:
        raise InvalidArgumentError("DAG enumeration limited to k <= 4")
    graphs = []
    others = [tuple(o for o in range(k) if o != i) for i in range(k)]
    subset_choices = [
        [tuple(sorted(s)) for r in range(k) for s in itertools.combinations(others[i], r)]
        for i in range(k)
    ]
    for combo in itertools.product(*subset_choices):
        try:
            graphs.append(BayesNetGraph(node_count=k, parents=tuple(combo)))
        except CyclicGraphError:
            pass
    return graphs


def _records(k: int, n_max: int) -> np.ndarray:
    """Every record on k binary nodes, row r holding the bits of r little-endian."""
    if k > 4 or n_max > 4:
        raise InvalidArgumentError("exhaustive sensitivity limited to |I| <= 4, n <= 4")
    return (np.arange(1 << k)[:, None] >> np.arange(k)) & 1


def _worst_neighbour_l1(terms: np.ndarray, n_max: int) -> float:
    """Max L1 distance between the summed terms of neighbouring datasets.

    terms is (R, dim): row r is what record r adds to a dataset's
    vector. Datasets of n <= n_max records are enumerated in
    itertools.product order, so dataset c sits at row
    sum_p c[p] R^(n-1-p) and replacing its record at position p is an
    index shift.
    """
    n_records = len(terms)
    worst = 0.0
    for n in range(1, n_max + 1):
        combos = np.array(list(itertools.product(range(n_records), repeat=n)))
        vecs = terms[combos].sum(axis=1)
        rows = np.arange(len(combos))
        for pos in range(n):
            stride = n_records ** (n - 1 - pos)
            for replacement in range(n_records):
                neighbor = rows + (replacement - combos[:, pos]) * stride
                worst = max(worst, float(np.abs(vecs - vecs[neighbor]).sum(axis=1).max()))
    return worst


def exhaustive_sensitivity(graph: BayesNetGraph, n_max: int) -> float:
    """Max L1 update distance over every dataset/neighbor pair, by enumeration.

    Each of the 2^|I| possible records is tallied once as a one-record
    dataset; a dataset's tallies are the sum over its records.
    Exponential in everything; refuses |I| > 4 or n_max > 4.
    """
    tallies = [
        list(brute_force_updates(graph, Dataset.from_records([r])).values())
        for r in _records(graph.node_count, n_max)
    ]
    return _worst_neighbour_l1(np.array(tallies), n_max)


def exhaustive_coefficient_sensitivity(graph: BayesNetGraph, n_max: int) -> float:
    """Max L1 change of the Fourier release's coefficients over every neighbor pair.

    The released indices are the masks lying inside some family mask,
    found by testing all 2^|I| masks; a record's terms are the dense
    Walsh coefficients of its one-record table at those indices.
    Refuses |I| > 4 or n_max > 4.
    """
    k = graph.node_count
    families = [graph.family_mask(i) for i in range(k)]
    closure = [m for m in range(1 << k) if any((m & ~f) == 0 for f in families)]
    terms = [
        walsh_coefficients_dense(dense_table(Dataset.from_records([r])))[closure]
        for r in _records(k, n_max)
    ]
    return _worst_neighbour_l1(np.array(terms), n_max)


def laplace_density_ratio_check(
    sensitivity: float,
    epsilon: float,
    grid: np.ndarray,
    shifts: np.ndarray,
    mechanism: str = "laplace",
) -> PrivacyCheckReport:
    """Analytic log-density-ratio bound for a Laplace noise vector.

    For scale b = sensitivity/epsilon the pre-clamp release's log-ratio
    between neighboring inputs shifted by s is sum_k (|z_k| - |z_k -
    s_k|)/b; its sup over the evaluation grid must stay below epsilon
    whenever ||s||_1 <= sensitivity. Deterministic: no sampling here.
    """
    grid = np.atleast_2d(np.asarray(grid, dtype=np.float64))
    shifts = np.atleast_2d(np.asarray(shifts, dtype=np.float64))
    if grid.shape[1] != shifts.shape[1]:
        raise InvalidArgumentError("grid and shift vectors must share the coordinate count")
    l1 = np.abs(shifts).sum(axis=1)
    if float(l1.max()) > sensitivity + 1e-9:
        raise InvalidArgumentError("a shift vector exceeds the stated sensitivity")
    b = sensitivity / epsilon
    worst = 0.0
    for s in shifts:
        ratios = np.abs((np.abs(grid) - np.abs(grid - s)).sum(axis=1)) / b
        worst = max(worst, float(ratios.max()))
    return PrivacyCheckReport.from_observation(mechanism, epsilon, worst)


def max_log_ratio_per_hamming(graph: BayesNetGraph, theta) -> float:
    """Max over assignment pairs of |log p(x) - log p(y)| / hamming(x, y)."""
    from .graph import joint_log_likelihood

    k = graph.node_count
    if k > 4:
        raise InvalidArgumentError("exhaustive pair check limited to |I| <= 4")
    assignments = list(itertools.product((0, 1), repeat=k))
    logps = [joint_log_likelihood(graph, theta, np.array(a, dtype=np.int64)) for a in assignments]
    worst = 0.0
    for ia, a in enumerate(assignments):
        for ib in range(ia + 1, len(assignments)):
            dist = sum(u != v for u, v in zip(a, assignments[ib]))
            worst = max(worst, abs(logps[ia] - logps[ib]) / dist)
    return worst


def exp_mechanism_worst_log_ratio(
    probs: Callable[[np.ndarray], np.ndarray], utility, delta: float
) -> float:
    """Largest |log p(u) - log p(u')| over every u' with |u'_i - u_i| <= delta.

    probs maps a utility vector to the release's probabilities over the
    grid. In an exponential mechanism log p_i rises with u_i and falls
    with every other coordinate, so both extremes of each log-ratio lie
    at corners of the box, and enumerating its 2^size corners is exact.
    Refuses more than 12 grid points.
    """
    u = np.asarray(utility, dtype=np.float64)
    if u.size > 12:
        raise InvalidArgumentError("corner enumeration limited to 12 points")
    corners = np.array(list(itertools.product((-delta, delta), repeat=u.size)))
    with np.errstate(divide="ignore"):
        logs = np.log([probs(u), *(probs(u + s) for s in corners)])
    if not np.isfinite(logs).all():
        raise DpBayesError("a probability is 0, so its log-ratio is unbounded")
    return float(np.abs(logs[1:] - logs[0]).max())


# ---------------------------------------------------------------------------
# truncated-distribution oracles
# ---------------------------------------------------------------------------


def truncated_beta_cdf(params: BetaParams, omega: float, x: np.ndarray | float) -> np.ndarray:
    """CDF of Beta(a, b) conditioned on [omega, 1 - omega]."""
    a, b = params.alpha, params.beta
    lo = scipy.special.betainc(a, b, omega)
    hi = scipy.special.betainc(a, b, 1.0 - omega)
    x = np.clip(np.asarray(x, dtype=np.float64), omega, 1.0 - omega)
    return (scipy.special.betainc(a, b, x) - lo) / (hi - lo)


def truncated_beta_moment(
    params: BetaParams, omega: float, x_power: int, one_minus_power: int
) -> float:
    """E[theta^p (1-theta)^q] under Beta(a, b) conditioned on [omega, 1-omega]."""

    def num(x: float) -> float:
        return math.exp(beta_logpdf(x, params)) * x**x_power * (1.0 - x) ** one_minus_power

    def den(x: float) -> float:
        return math.exp(beta_logpdf(x, params))

    lo, hi = omega, 1.0 - omega
    return _quad(num, lo, hi) / _quad(den, lo, hi)


def truncated_normal_moments(mu: float, sigma2: float, lo: float, hi: float) -> tuple[float, float]:
    """(mean, variance) of N(mu, sigma2) restricted to [lo, hi], by quadrature."""
    sd = math.sqrt(sigma2)

    def pdf(x: float) -> float:
        z = (x - mu) / sd
        return math.exp(-0.5 * z * z) / (sd * math.sqrt(2.0 * math.pi))

    mass = _quad(pdf, lo, hi)
    mean = _quad(lambda x: x * pdf(x), lo, hi) / mass
    second = _quad(lambda x: x * x * pdf(x), lo, hi) / mass
    return mean, second - mean * mean


# ---------------------------------------------------------------------------
# predictive-posterior oracles
# ---------------------------------------------------------------------------


def _beta_obs_moment(params: BetaParams, value: int) -> float:
    """E[theta^v (1-theta)^(1-v)] by quadrature (not the closed form)."""

    def integrand(x: float) -> float:
        lik = x if value else 1.0 - x
        return math.exp(beta_logpdf(x, params)) * lik

    return _quad(integrand, 1e-12, 1.0 - 1e-12)


def _nb_predictive(posterior: PosteriorMap, x: Sequence[int], moment: Callable) -> float:
    """Pr(Y=1 | x) from moment(params, v) = E[theta^v (1-theta)^(1-v)] of each factor."""
    features = sorted({i for (i, _) in posterior} - {0})
    joint = []
    for y in (0, 1):
        term = moment(posterior[(0, 0)], y)
        for pos, i in enumerate(features):
            term *= moment(posterior[(i, y)], int(x[pos]))
        joint.append(term)
    return joint[1] / (joint[0] + joint[1])


def nb_predictive_quadrature(posterior: PosteriorMap, x: Sequence[int]) -> float:
    """Pr(Y=1 | x) by direct numerical integration of each Beta factor; class node 0."""
    return _nb_predictive(posterior, x, _beta_obs_moment)


def trimmed_nb_predictive_quadrature(
    posterior: PosteriorMap, x: Sequence[int], omega: float
) -> float:
    """Trimmed-posterior predictive by per-entry truncated-Beta moments; class node 0."""
    return _nb_predictive(
        posterior, x, lambda params, v: truncated_beta_moment(params, omega, v, 1 - v)
    )


# ---------------------------------------------------------------------------
# exponential-mechanism and regression oracles
# ---------------------------------------------------------------------------


def exp_mechanism_bruteforce_probs(
    grid: GridSpec, utility, epsilon: float, delta: MapSensitivity
) -> np.ndarray:
    """Directly normalized exp-weights, usable while exp() cannot overflow.

    utility is a callable on grid points or one value per grid point.
    """
    values = [utility(p) for p in grid.points] if callable(utility) else list(utility)
    u = np.array(values, dtype=np.float64)
    if u.shape != (len(grid.points),):
        raise DimensionMismatchError(f"{len(u)} utility values for {len(grid.points)} grid points")
    w = np.array(grid.prior_mass) * np.exp(epsilon * u / (2.0 * delta.delta_value))
    return w / w.sum()


def regression_grid_check(
    X: np.ndarray,
    y: np.ndarray,
    sigma2: float,
    lam: np.ndarray,
    mu_n: np.ndarray,
    sigma_n: np.ndarray,
    grid: np.ndarray,
) -> float:
    """Max pointwise gap between two normalized densities on a weight grid.

    One density comes from prior x likelihood evaluated directly, the
    other from the fitted Gaussian posterior; both are normalized over
    the same grid, so agreement certifies the conjugate update.
    """
    grid = np.atleast_2d(np.asarray(grid, dtype=np.float64))
    # log prior + log likelihood, constants dropped
    direct = np.array([-0.5 * ((y - X @ w) @ (y - X @ w) / sigma2 + w @ lam @ w) for w in grid])
    prec = np.linalg.inv(sigma_n)
    fitted = np.array([-0.5 * (w - mu_n) @ prec @ (w - mu_n) for w in grid])
    direct = np.exp(direct - direct.max())
    fitted = np.exp(fitted - fitted.max())
    return float(np.abs(direct / direct.sum() - fitted / fitted.sum()).max())


def ridge_mse(
    X_train: np.ndarray,
    y_train: np.ndarray,
    b: float,
    sigma2: float,
    X_test: np.ndarray,
    y_test: np.ndarray,
) -> float:
    """Closed-form ridge point-prediction MSE, solved independently."""
    d = X_train.shape[1]
    w = np.linalg.solve(X_train.T @ X_train + sigma2 * b * np.eye(d), X_train.T @ y_train)
    resid = X_test @ w - y_test
    return float(np.mean(resid**2))


# ---------------------------------------------------------------------------
# the privacy-loss table behind the `verify` subcommand
# ---------------------------------------------------------------------------


def run_verification_suite(seed: int = 20240817) -> list[dict]:
    """One row per mechanism: its exact worst privacy loss divided by epsilon.

    Each loss is taken at the noise scale or the probabilities that the
    release itself uses, so a wrong scale fails its row; a row passes at
    <= 1 + 1e-9. laplace and fourier range over every DAG of up to 3
    nodes and every dataset of up to 3 records at epsilon 1; map over
    three seeded 8-point grids, each at three (epsilon, delta) pairs.
    Each item reports name, passed, detail.
    """
    from . import expmech, fourier, laplace
    from .randomness import substream

    dags = [g for k in (1, 2, 3) for g in all_dags(k)]
    losses = {
        "laplace": max(
            exhaustive_sensitivity(g, 3) / laplace.LaplaceNoiseSpec.for_graph(g, 1.0, 3).scale
            for g in dags
        ),
        "fourier": max(
            exhaustive_coefficient_sensitivity(g, 3)
            / fourier.noise_scale(fourier.downward_closure(g), 1.0)
            for g in dags
        ),
        "map": 0.0,
    }
    rng = substream(seed, "verification-suite")
    for mass, utility in zip(0.1 + rng.random((3, 8)), 5.0 * rng.normal(size=(3, 8))):
        grid = expmech.GridSpec(np.arange(8.0)[:, None], mass / mass.sum())
        for epsilon, delta in ((0.5, 0.5), (1.0, 2.0), (4.0, 0.25)):
            sens = expmech.MapSensitivity(kind="lipschitz", delta_value=delta)
            loss = exp_mechanism_worst_log_ratio(
                lambda u: expmech.sampling_probabilities(grid, u, epsilon, sens), utility, delta
            )
            losses["map"] = max(losses["map"], loss / epsilon)
    return [
        {"name": name, "passed": loss <= 1.0 + 1e-9, "detail": f"worst loss / epsilon {loss:.6f}"}
        for name, loss in losses.items()
    ]
