"""Laplace perturbation of conjugate update counts.

The sensitive quantity is the complete update vector: for a network on
|I| nodes, replacing one record changes at most one (alpha, beta)
increment pair per node, so the L1 sensitivity is 2|I| regardless of
structure. The mechanism adds Laplace(2|I| / epsilon) noise to every
one of the 2m update counts (m = sum_i 2^{|parents(i)|}, zero-filled
entries included) and truncates the noisy counts to [0, n]. Truncation
is post-processing and costs no privacy; outputs stay real-valued.
Counts and noisy counts are (m, 2) tables in the graph module's entry order;
perturb_update_stack makes a grid of releases at once, every count table
under one row of specs, as one (R, E, m, 2) stack whose noise is one
randomness.keyed_laplace_stack draw.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import DimensionMismatchError, InvalidArgumentError
from .errors import check_epsilon, check_fraction, check_integer
from .graph import BayesNetGraph, BetaTable, EntryTable, PriorMap, UpdateVector
from .randomness import keyed_laplace_stack, seed_grid

_NOISE_TAG = "laplace-update-noise"


@dataclass(frozen=True)
class LaplaceNoiseSpec:
    """Noise calibration for one release.

    epsilon: privacy budget of the release (> 0).
    node_count: number of network nodes |I|.
    n: number of records; truncation clamps counts into [0, n].
    """

    epsilon: float
    node_count: int
    n: int

    def __post_init__(self) -> None:
        check_epsilon(self.epsilon)
        check_integer("node_count", self.node_count, 1)
        check_integer("n", self.n, 0)

    @property
    def scale(self) -> float:
        """Laplace scale b = 2|I| / epsilon (0 when epsilon is infinite).

        2|I| is the L1 sensitivity of the complete update vector under
        record replacement: swapping one record moves one unit of alpha
        or beta mass per node, so it changes at most two counts per node.
        """
        return 2.0 * self.node_count / self.epsilon

    @classmethod
    def for_graph(cls, graph: BayesNetGraph, epsilon: float, n: int) -> "LaplaceNoiseSpec":
        return cls(epsilon=epsilon, node_count=graph.node_count, n=n)


@dataclass
class PerturbedUpdates:
    """Released noisy updates.

    entries hold the truncated values in [0, n]; raw holds the same
    draws before truncation (useful for deviation diagnostics; both are
    covered by the same privacy guarantee). Both are (m, 2) tables in
    the order of the updates they perturb.
    """

    entries: EntryTable
    raw: EntryTable


def perturb_update_stack(
    updates: Sequence[UpdateVector],
    specs: Sequence[LaplaceNoiseSpec],
    seeds: Sequence[Sequence[int]] | np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Releases of several update tables under one row of specs, stacked: (truncated, raw).

    updates holds R tables of one graph, specs one row of E specs that
    every table shares, and seeds one seed per (table, spec) pair, as
    randomness.seed_grid checks. Both results are (R, E, m, 2) arrays,
    entry [r, e] the release of updates[r] under specs[e] and seeds[r][e]:
    its own keyed substream supplies an (m, 2) block of uniforms, row i
    for row i of its table, each one count's noise by inverse CDF, and
    it is truncated into [0, specs[e].n]. The whole grid's noise is one
    keyed_laplace_stack draw. Entry [r, e] equals
    perturb_updates(updates[r], specs[e], seeds[r][e]) bit for bit.
    """
    seeds = seed_grid(seeds, len(updates), len(specs))
    order = updates[0].entries.order
    if any(u.entries.order != order for u in updates):
        raise DimensionMismatchError("every update table must share one entry order")
    counts = np.stack([u.entries.array for u in updates])[:, None]
    scales = [spec.scale for spec in specs]
    raw = counts + keyed_laplace_stack(seeds, _NOISE_TAG, counts.shape[2:], scales)
    ns = np.array([float(spec.n) for spec in specs])[:, None, None]
    return np.clip(raw, 0.0, ns), raw


def perturb_updates(updates: UpdateVector, spec: LaplaceNoiseSpec, seed: int) -> PerturbedUpdates:
    """Add per-count Laplace noise and truncate into [0, n]: one entry of perturb_update_stack."""
    entries, raw = perturb_update_stack((updates,), (spec,), ((seed,),))
    order = updates.entries.order
    return PerturbedUpdates(EntryTable(order, entries[0, 0]), EntryTable(order, raw[0, 0]))


def update_deviation_bound(graph: BayesNetGraph, epsilon: float, delta: float) -> float:
    """High-probability sup-norm bound on the pre-truncation noise.

    With probability at least 1 - delta, every one of the 2m noisy
    counts stays within b * ln(2m/delta) of its exact value, with b the
    Laplace scale of the release. Union bound over the 2m independent
    Laplace draws.
    """
    scale = LaplaceNoiseSpec.for_graph(graph, epsilon, 0).scale
    check_fraction("delta", delta)
    return scale * math.log(2.0 * graph.update_size() / delta)


def posterior_kl_bound(
    priors: PriorMap,
    updates: UpdateVector,
    graph: BayesNetGraph,
    epsilon: float,
    delta: float,
    n: int,
) -> float:
    """Evaluate the closed-form utility bound on the joint posterior KL.

    The loss of the noisy posterior relative to the exact one, measured
    as the summed per-entry KL divergence, is bounded with probability
    1 - delta by

        sum_ij E_ij  +  sqrt( -(1/2) * sum_ij c_ij * ln(delta) )

    where c_ij = (2n+1) * [ln(alpha+n+1) + ln(beta+n+1)] caps the
    per-entry variation and the expectation term is

        E_ij = n * ln((alpha + dalpha)(beta + dbeta)),

    refined to  ln((alpha+n+1)(beta+n+1)) * (n/2) * exp(-n / b)
    once n >= b, with b the Laplace scale of the release. Requires every
    prior parameter >= 2 so the logarithms in the derivation stay
    non-negative. delta = 1 makes the square-root term vanish.
    """
    scale = LaplaceNoiseSpec.for_graph(graph, epsilon, n).scale
    if delta != 1:
        check_fraction("delta", delta)
    priors = BetaTable.keyed("priors", priors, updates.entries.order)
    small = np.flatnonzero((priors.array < 2.0).any(axis=1))
    if small.size:
        alpha, beta = priors.array[small[0]].tolist()
        raise InvalidArgumentError(
            f"entry {priors.order[small[0]]} has prior ({alpha}, {beta}); both must be >= 2"
        )
    a, b = priors.array.T
    variation = (2.0 * n + 1.0) * (np.log(a + n + 1.0) + np.log(b + n + 1.0))
    if n >= scale:
        decay = math.exp(-n / scale) if scale else 0.0
        expectation = np.log((a + n + 1.0) * (b + n + 1.0)) * (n / 2.0) * decay
    else:
        da, db = updates.entries.array.T
        product = (a + da) * (b + db)
        if not (product > 0.0).all():
            raise InvalidArgumentError("(alpha + dalpha)(beta + dbeta) must be positive")
        expectation = n * np.log(product)
    return float(expectation.sum() + math.sqrt(-0.5 * variation.sum() * math.log(delta)))
