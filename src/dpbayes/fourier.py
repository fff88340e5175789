"""Consistent marginal release through the Walsh (Fourier) basis.

The contingency table of k binary variables is a function on {0,1}^k.
In the orthonormal character basis

    f^gamma(eta) = (-1)^{<eta, gamma>} * 2^{-k/2},

every marginal over a node's family (the node plus its parents) is a
linear function of the coefficients indexed by the downward closure of
the families. Releasing those few coefficients once, with Laplace
noise, therefore yields noisy marginals that are mutually consistent
by construction: they are all read off the same released vector.

A deterministic increment on the empty-set coefficient buys, with
probability at least 1 - exp(-t), a fully non-negative implied table,
so the released posteriors look like ordinary clean outputs. That is
the stealth property; when it fails, reconstruction reports and the
caller re-runs or clamps.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    ConfigError,
    DimensionMismatchError,
    InvalidEpsilonError,
    InvalidTError,
    MissingCoefficientError,
    NonPositivePosteriorParamError,
)
from .graph import (
    BayesNetGraph,
    BetaParams,
    ContingencyTable,
    Dataset,
    EntryKey,
    PosteriorMap,
    PriorMap,
)
from .randomness import derive_seed, laplace_from_uniform, substream

_NOISE_TAG = "fourier-coefficient-noise"

DEFAULT_STEALTH_T = math.log(10.0)


def _submasks(mask: int):
    """All submasks of `mask`, including 0 and mask itself."""
    sub = mask
    while True:
        yield sub
        if sub == 0:
            return
        sub = (sub - 1) & mask


@dataclass(frozen=True)
class DownwardClosure:
    """Index set of released coefficients, closed under taking submasks."""

    k: int
    members: tuple[int, ...]  # sorted bitmasks over the k variables

    def __post_init__(self) -> None:
        mset = set(self.members)
        if 0 not in mset:
            raise ValueError("closure must contain the all-zeros index")
        for m in self.members:
            if m >= (1 << self.k):
                raise ValueError(f"index {m:#x} does not fit in {self.k} bits")
            for sub in _submasks(m):
                if sub not in mset:
                    raise ValueError(f"closure not downward closed: missing {sub:#x}")

    @property
    def size(self) -> int:
        return len(self.members)

    def __contains__(self, gamma: int) -> bool:
        return gamma in set(self.members)


def downward_closure(graph: BayesNetGraph) -> DownwardClosure:
    """Union of all submasks of every node family pi(i) + {i}."""
    members: set[int] = set()
    for i in range(graph.node_count):
        fam = graph.family_mask(i)
        members.update(_submasks(fam))
    return DownwardClosure(k=graph.node_count, members=tuple(sorted(members)))


def fourier_coefficient(data: Dataset, gamma: int, k: int | None = None) -> float:
    """<f^gamma, h> for the table h of the records, streamed in O(n).

    Equals 2^{-k/2} * sum_records (-1)^{<x, gamma>}; the dense table is
    never built.
    """
    k = data.dimension if k is None else k
    if data.n and data.dimension != k:
        raise DimensionMismatchError("record width does not match k")
    if gamma >> k:
        raise DimensionMismatchError(f"index {gamma:#x} does not fit in {k} bits")
    if data.n == 0:
        return 0.0
    positions = [p for p in range(k) if (gamma >> p) & 1]
    if positions:
        parity = data.records[:, positions].sum(axis=1) & 1
        signed = data.n - 2 * int(parity.sum())
    else:
        signed = data.n
    return float(signed) * 2.0 ** (-k / 2.0)


@dataclass
class CoefficientSet:
    """Released coefficient vector over a downward closure.

    noise_scale and t record how the values were produced; both are 0
    for an exact (non-private) set.
    """

    closure: DownwardClosure
    values: dict[int, float]
    noise_scale: float
    t: float

    def __post_init__(self) -> None:
        if set(self.values) != set(self.closure.members):
            raise ValueError("coefficient indices must equal the closure exactly")
        if self.noise_scale < 0 or self.t < 0:
            raise ValueError("noise_scale and t must be non-negative")

    @property
    def k(self) -> int:
        return self.closure.k


def exact_coefficients(data: Dataset, closure: DownwardClosure) -> CoefficientSet:
    """Noise-free coefficient set; the zero-noise reference path."""
    values = {g: fourier_coefficient(data, g, closure.k) for g in closure.members}
    return CoefficientSet(closure=closure, values=values, noise_scale=0.0, t=0.0)


def noise_scale(closure: DownwardClosure, epsilon: float) -> float:
    """Per-coefficient Laplace scale 2|J|/(epsilon * 2^{k/2})."""
    if math.isinf(epsilon):
        return 0.0
    return 2.0 * closure.size / (epsilon * 2.0 ** (closure.k / 2.0))


def stealth_increment(closure: DownwardClosure, epsilon: float, t: float) -> float:
    """Deterministic boost of the empty-set coefficient: 4t|J|^2/(eps 2^{k/2})."""
    if math.isinf(epsilon):
        return 0.0
    return 4.0 * t * closure.size**2 / (epsilon * 2.0 ** (closure.k / 2.0))


def release_coefficients(
    data: Dataset,
    closure: DownwardClosure,
    epsilon: float,
    t: float,
    seed: int,
) -> CoefficientSet:
    """Noisy coefficient release with the stealth increment applied.

    Each coefficient gets Laplace(2|J|/(eps 2^{k/2})) noise from its own
    substream keyed by gamma, then the all-zeros coefficient is raised
    by 4t|J|^2/(eps 2^{k/2}). Reproducible under the seed and
    independent of iteration order.
    """
    if not epsilon > 0 or math.isnan(epsilon):
        raise InvalidEpsilonError(f"epsilon must be positive, got {epsilon}")
    if not t > 0:
        raise InvalidTError(f"t must be positive, got {t}")
    scale = noise_scale(closure, epsilon)
    values: dict[int, float] = {}
    for gamma in closure.members:
        exact = fourier_coefficient(data, gamma, closure.k)
        rng = substream(seed, _NOISE_TAG, gamma)
        values[gamma] = exact + laplace_from_uniform(rng.random(), scale)
    values[0] += stealth_increment(closure, epsilon, t)
    return CoefficientSet(closure=closure, values=values, noise_scale=scale, t=t)


# ---------------------------------------------------------------------------
# reconstruction
# ---------------------------------------------------------------------------


def _mask_to_cell(mask: int, nodes: tuple[int, ...]) -> tuple[int, ...]:
    return tuple((mask >> node) & 1 for node in nodes)


def reconstruct_marginal(coeffs: CoefficientSet, node: int, graph: BayesNetGraph) -> ContingencyTable:
    """Marginal table over the family of `node`, read off the coefficients.

    For family mask F with |F| coordinates, the projection of each basis
    vector is constant on cells up to sign, giving

        cell(c) = sum_{gamma <= F} z_gamma * 2^{k/2 - |F|} * (-1)^{popcount(c & gamma)}.

    Cells are indexed by the family's nodes in ascending order. With an
    exact coefficient set this identity reproduces direct
    marginalisation of the table; with noise, possibly-negative cells.
    """
    if graph.node_count != coeffs.k:
        raise DimensionMismatchError("coefficient set and graph disagree on k")
    fam_mask = graph.family_mask(node)
    fam_nodes = graph.family(node)
    fam_size = len(fam_nodes)
    weight = 2.0 ** (coeffs.k / 2.0 - fam_size)
    cells: dict[tuple[int, ...], float] = {}
    gammas = []
    for gamma in _submasks(fam_mask):
        if gamma not in coeffs.values:
            raise MissingCoefficientError(
                f"coefficient {gamma:#x} needed for node {node} was not released"
            )
        gammas.append(gamma)
    for cell_mask in _submasks(fam_mask):
        total = 0.0
        for gamma in gammas:
            sign = -1.0 if bin(cell_mask & gamma).count("1") & 1 else 1.0
            total += coeffs.values[gamma] * sign
        cells[_mask_to_cell(cell_mask, fam_nodes)] = total * weight
    return ContingencyTable(fam_size, cells)


def fourier_posterior_params(
    coeffs: CoefficientSet,
    graph: BayesNetGraph,
    priors: PriorMap,
    clamp_nonpositive: bool = False,
) -> PosteriorMap:
    """Posterior Beta parameters from the reconstructed marginals.

    Entry (i, j) becomes (alpha + cell(x_i=1, parents=j), beta +
    cell(x_i=0, parents=j)). Noisy cells can push a parameter to or
    below zero; by default that raises NonPositivePosteriorParamError
    listing the offending entries (caller re-runs with a fresh seed),
    with clamp_nonpositive=True negative cells are floored at zero
    instead.
    """
    out: PosteriorMap = {}
    bad: list[EntryKey] = []
    for i in range(graph.node_count):
        marginal = reconstruct_marginal(coeffs, i, graph)
        fam_nodes = graph.family(node=i)
        pa = graph.parents[i]
        for j in range(graph.config_count(i)):
            mask = 0
            for p, parent in enumerate(pa):
                mask |= ((j >> p) & 1) << parent
            beta_cell = marginal.value(_mask_to_cell(mask, fam_nodes))
            alpha_cell = marginal.value(_mask_to_cell(mask | (1 << i), fam_nodes))
            if clamp_nonpositive:
                alpha_cell = max(alpha_cell, 0.0)
                beta_cell = max(beta_cell, 0.0)
            prior = priors[(i, j)]
            a = prior.alpha + alpha_cell
            b = prior.beta + beta_cell
            if a <= 0.0 or b <= 0.0:
                bad.append((i, j))
                continue
            out[(i, j)] = BetaParams(a, b)
    if bad:
        raise NonPositivePosteriorParamError(
            f"stealth failure: non-positive posterior parameter at entries {bad}", entries=bad
        )
    return out


def release_with_retries(
    data: Dataset,
    closure: DownwardClosure,
    graph: BayesNetGraph,
    priors: PriorMap,
    epsilon: float,
    t: float,
    seed: int,
    retry_limit: int,
) -> tuple[CoefficientSet, PosteriorMap, int, int]:
    """Release until the implied posterior is positive, else clamp.

    Attempt a draws its noise from derive_seed(seed, "attempt", a); only
    a stealth failure (NonPositivePosteriorParamError) triggers another
    attempt, any other error propagates. After retry_limit retries the
    last release is reconstructed with negative cells floored at zero.
    Returns (coefficients, posterior, retries_used, clamped_flag).
    """
    if retry_limit < 0:
        raise ConfigError(f"retry limit must be non-negative, got {retry_limit}")
    for attempt in range(retry_limit + 1):
        coeffs = release_coefficients(
            data, closure, epsilon, t, derive_seed(seed, "attempt", attempt)
        )
        try:
            return coeffs, fourier_posterior_params(coeffs, graph, priors), attempt, 0
        except NonPositivePosteriorParamError:
            pass
    post = fourier_posterior_params(coeffs, graph, priors, clamp_nonpositive=True)
    return coeffs, post, retry_limit + 1, 1


def marginal_error_bound(
    graph: BayesNetGraph, node: int, epsilon: float, delta: float, t: float
) -> float:
    """High-probability L1 error of one reconstructed marginal.

    With probability at least 1 - delta,
    ||exact marginal - reconstruction||_1 is at most

        (4|J|/eps) * (2^{|parents|} * ln(|J|/delta) + t|J|).

    Natural logarithm throughout.
    """
    if not epsilon > 0:
        raise InvalidEpsilonError(f"epsilon must be positive, got {epsilon}")
    if not 0 < delta < 1:
        raise ValueError("delta must lie in (0, 1)")
    if not t > 0:
        raise InvalidTError(f"t must be positive, got {t}")
    size = downward_closure(graph).size
    indeg = graph.parent_count(node)
    return (4.0 * size / epsilon) * (2.0**indeg * math.log(size / delta) + t * size)


def shared_submarginal(
    marginal: ContingencyTable, table_nodes: tuple[int, ...], keep_nodes: tuple[int, ...]
) -> ContingencyTable:
    """Marginalise a reconstructed family table onto a subset of its nodes.

    table_nodes are the (ascending) original variable indices of the
    table's coordinates; keep_nodes selects which of them survive.
    """
    keep_set = set(keep_nodes)
    selector = [1 if n in keep_set else 0 for n in table_nodes]
    from .graph import project_marginal

    return project_marginal(marginal, selector)
