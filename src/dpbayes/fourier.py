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
the stealth property. When it fails, release_posterior_stack floors the
negative cells of that same release at zero: post-processing, so the
release still costs exactly epsilon. The stack makes a whole grid of
releases at once, every count table under one row of epsilons, each
from its own keyed substream; a single release is its one-entry case.

One layout of the family cells is read both ways: _family_layout pairs
each cell of a tuple of families with the closure member behind it;
_coefficients turns cells into coefficients, _family_cells coefficients
into cells. The stack reads its exact coefficients off the update
counts, which are the cells of graph.node_families in entry_cell_plan's
layout, and its posteriors are those cells read back from the released
coefficients. A stack's noise is one randomness.keyed_laplace_stack
draw, over every (table, epsilon) pair of the grid.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import DimensionMismatchError, NonPositivePosteriorParamError, check_positive
from .errors import InvalidArgumentError, check_epsilon, check_fraction, check_integer
from .graph import (
    PLAN_CACHE_SIZE,
    BayesNetGraph,
    BetaTable,
    CellPlan,
    ContingencyTable,
    Dataset,
    EntryTable,
    PriorMap,
    cell_plan,
    check_beta_rows,
    check_update_stack,
    count_cells,
    node_families,
    project_marginal,
)
from .randomness import derive_seeds, keyed_laplace_stack, seed_grid

_NOISE_TAG = "fourier-coefficient-noise"

DEFAULT_STEALTH_T = math.log(10.0)

Families = tuple[tuple[int, ...], ...]  # variable tuples, each laid out as its 2^f cells


@dataclass(frozen=True)
class DownwardClosure:
    """Index set of released coefficients, closed under taking submasks."""

    k: int
    members: tuple[int, ...]  # sorted bitmasks over the k variables

    def __post_init__(self) -> None:
        check_integer("k", self.k, 0)
        mset = set(self.members)
        if 0 not in mset:
            raise InvalidArgumentError("closure must contain the all-zeros index")
        # with 0 held, closed iff clearing any one set bit of a member gives a member
        for m in self.members:
            check_integer("closure index", m, 0, 1 << self.k)
            for sub in (m & ~(1 << b) for b in range(self.k) if (m >> b) & 1):
                if sub not in mset:
                    raise InvalidArgumentError(f"closure not downward closed: missing {sub:#x}")

    @property
    def size(self) -> int:
        return len(self.members)


@functools.lru_cache(maxsize=PLAN_CACHE_SIZE)
def downward_closure(graph: BayesNetGraph) -> DownwardClosure:
    """Union of all submasks of every node family pi(i) + {i}."""
    members = {m for fam in node_families(graph) for m in _local_masks(fam)}
    return DownwardClosure(k=graph.node_count, members=tuple(sorted(members)))


def fourier_coefficient(data: Dataset, gamma: int) -> float:
    """<f^gamma, h> for the table h of the records, streamed in O(n); the reference coefficient.

    Equals 2^{-k/2} * sum_records (-1)^{<x, gamma>}, k the records'
    width; the dense table is never built.
    """
    k = data.dimension
    check_integer("gamma", gamma, 0, 1 << k)
    positions = [p for p in range(k) if (gamma >> p) & 1]
    parity = data.records[:, positions].sum(axis=1) & 1
    return float(data.n - 2 * int(parity.sum())) * 2.0 ** (-k / 2.0)


# ---------------------------------------------------------------------------
# family-local Walsh transforms
# ---------------------------------------------------------------------------


def _local_masks(nodes: tuple[int, ...]) -> list[int]:
    """Every subset of `nodes` as a global mask, listed by local index.

    Bit b of the local index stands for nodes[b], so local indices are
    the family's cells in the little-endian order of its nodes.
    """
    masks = [0]
    for node in nodes:
        masks += [m | (1 << node) for m in masks]
    return masks


def _walsh(table: np.ndarray) -> np.ndarray:
    """Unnormalised Walsh-Hadamard transform along the last axis of a (..., 2^f) table.

    out[..., g] = sum_c (-1)^{popcount(c & g)} * table[..., c], by f
    butterfly passes in O(f 2^f) per row. The transform is its own
    inverse up to a factor 2^f.
    """
    shape = table.shape
    h = 1
    while h < shape[-1]:
        pairs = table.reshape(*shape[:-1], -1, 2, h)
        lo, hi = pairs[..., :1, :], pairs[..., 1:, :]
        table = np.concatenate((lo + hi, lo - hi), axis=-2).reshape(shape)
        h *= 2
    return table


@functools.lru_cache(maxsize=PLAN_CACHE_SIZE)
def _family_layout(
    closure: DownwardClosure, families: Families
) -> tuple[CellPlan, tuple[tuple[np.ndarray, np.ndarray], ...]]:
    """The cell_plan of the families, and which coefficient each of their cells pairs with.

    One (cells, positions) pair of (rows, 2^f) tables follows per family
    size f, ascending: cells[s, l] is the flat index in the plan of cell
    l of the s-th family of that size, and positions[s, l] is the index
    in closure.members of that cell's submask, the one holding the
    family's b-th variable for every bit b set in l. The Walsh butterfly
    of a family's cell counts is then 2^{k/2} times its coefficients at
    the positions, and the butterfly of those coefficients 2^{f - k/2}
    times its cells. Raises DimensionMismatchError for the first family
    that lacks a submask, naming the largest one it lacks.
    """
    index = {gamma: pos for pos, gamma in enumerate(closure.members)}
    plan = cell_plan(closure.k, families)
    groups: dict[int, tuple[list, list]] = {}
    for fam, offset in zip(families, plan.offsets.tolist()):
        masks = _local_masks(fam)
        missing = [m for m in masks if m not in index]
        if missing:
            raise DimensionMismatchError(
                f"coefficient {max(missing):#x} needed for node {fam[0]} was not released"
            )
        cells, positions = groups.setdefault(len(fam), ([], []))
        cells.append(range(offset, offset + len(masks)))
        positions.append([index[m] for m in masks])
    tables = (
        (np.array(cells, dtype=np.intp), np.array(positions, dtype=np.intp))
        for _, (cells, positions) in sorted(groups.items())
    )
    return plan, tuple(tables)


@functools.lru_cache(maxsize=PLAN_CACHE_SIZE)
def _maximal_families(closure: DownwardClosure) -> Families:
    """The ascending variables of every maximal member, in closure order.

    Every member lies under some maximal one, so the submasks of these
    families cover the closure.
    """
    members = set(closure.members)
    return tuple(
        tuple(b for b in range(closure.k) if (gamma >> b) & 1)
        for gamma in closure.members
        # downward closed: gamma is maximal iff no one-bit extension is a member
        if not any(not (gamma >> b) & 1 and gamma | (1 << b) in members for b in range(closure.k))
    )


def _coefficients(cells: np.ndarray, closure: DownwardClosure, families: Families) -> np.ndarray:
    """Every exact coefficient, in closure.members order, of each row of an (R, cells) stack.

    A row holds integer cell counts of the families, whose submasks cover
    the closure, in their _family_layout; each family's Walsh butterfly
    is 2^{k/2} times its submasks' coefficients. Equal, bit for bit, to
    fourier_coefficient, whichever family a submask is read from.
    """
    _, tables = _family_layout(closure, families)
    exact = np.zeros((len(cells), closure.size))
    for index, positions in tables:
        exact[:, positions] = _walsh(cells[:, index])
    return exact * 2.0 ** (-closure.k / 2.0)


@dataclass
class CoefficientSet:
    """Released coefficient vector over a downward closure, keyed by closure.members.

    Its values are read through EntryTable.keyed, keyed by closure.members exactly.
    """

    closure: DownwardClosure
    values: EntryTable

    def __post_init__(self) -> None:
        self.values = EntryTable.keyed("coefficients", self.values, self.closure.members)
        if not np.isfinite(self.values.array).all():
            raise InvalidArgumentError("coefficient values must be finite")


def exact_coefficients(data: Dataset, closure: DownwardClosure) -> CoefficientSet:
    """Noise-free coefficients, counted over the maximal members' cells: the zero-noise path."""
    families = _maximal_families(closure)
    plan, _ = _family_layout(closure, families)
    cells = count_cells(data.records, plan) if data.n else np.zeros(plan.total)
    exact = _coefficients(cells[None], closure, families)[0]
    return CoefficientSet(closure, EntryTable(closure.members, exact))


def noise_scale(closure: DownwardClosure, epsilon: float) -> float:
    """Per-coefficient Laplace scale 2|J|/(epsilon * 2^{k/2}); 0 when epsilon is infinite."""
    check_epsilon(epsilon)
    return 2.0 * closure.size / (epsilon * 2.0 ** (closure.k / 2.0))


def stealth_increment(closure: DownwardClosure, epsilon: float, t: float) -> float:
    """Deterministic boost of the empty-set coefficient: 4t|J|^2/(eps 2^{k/2})."""
    check_epsilon(epsilon)
    check_positive("t", t)
    return 4.0 * t * closure.size**2 / (epsilon * 2.0 ** (closure.k / 2.0))


def release_coefficient_stack(
    exact: np.ndarray,
    closure: DownwardClosure,
    epsilons: Sequence[float],
    t: float,
    seeds: Sequence[Sequence[int]] | np.ndarray,
) -> np.ndarray:
    """One noisy coefficient release per (row, epsilon) pair, stacked as an (R, E, |J|) array.

    exact is an (R, |J|) stack of exact coefficient vectors in
    closure.members order, and seeds holds one row of E seeds per
    vector. Release [r, e] adds independent Laplace(2|J|/(eps_e 2^{k/2}))
    noise to every coefficient of exact[r]: the release's own keyed
    substream, seeds[r][e], supplies closure.size uniforms, the i-th for
    closure.members[i], each mapped by inverse CDF. Then the all-zeros
    coefficient is raised by 4t|J|^2/(eps_e 2^{k/2}). The whole grid's
    noise is one keyed_laplace_stack draw. Reproducible under the seeds;
    which uniform feeds which coefficient depends on closure.members alone.
    """
    seeds = seed_grid(seeds, len(exact), len(epsilons))
    boosts = [stealth_increment(closure, epsilon, t) for epsilon in epsilons]
    scales = [noise_scale(closure, epsilon) for epsilon in epsilons]
    noise = keyed_laplace_stack(seeds, _NOISE_TAG, closure.size, scales)
    values = exact[:, None] + noise
    values[:, :, 0] += boosts
    return values


def release_coefficients(
    data: Dataset, closure: DownwardClosure, epsilon: float, t: float, seed: int
) -> CoefficientSet:
    """Noisy coefficient release with the stealth increment applied: one entry of the stack."""
    exact = exact_coefficients(data, closure).values.array[None]
    values = release_coefficient_stack(exact, closure, (epsilon,), t, ((seed,),))[0, 0]
    return CoefficientSet(closure, EntryTable(closure.members, values))


# ---------------------------------------------------------------------------
# reconstruction
# ---------------------------------------------------------------------------


def _family_cells(
    z: np.ndarray, closure: DownwardClosure, graph: BayesNetGraph, families: Families
) -> np.ndarray:
    """Cells of the graph's families for each row of an (E, |J|) stack, in their cell_plan layout.

    With f a family's size,

        cell(c) = 2^{k/2 - f} * sum_{gamma <= F} (-1)^{popcount(c & gamma)} z_gamma,

    i.e. the Walsh butterfly of the family's coefficients, rescaled: one
    pass per family size over every row of z at once. A non-finite cell
    is refused with InvalidArgumentError, without a warning.
    """
    if graph.node_count != closure.k:
        raise DimensionMismatchError("coefficient set and graph disagree on k")
    plan, tables = _family_layout(closure, families)
    out = np.empty((len(z), plan.total))
    with np.errstate(over="ignore", invalid="ignore"):
        for cells, positions in tables:
            scale = 2.0 ** (closure.k / 2.0 - (positions.shape[1].bit_length() - 1))
            out[:, cells] = _walsh(z[:, positions]) * scale
    if not np.isfinite(out).all():
        raise InvalidArgumentError("reconstructed cells must be finite")
    return out


def reconstruct_marginal(coeffs: CoefficientSet, node: int, graph: BayesNetGraph) -> ContingencyTable:
    """Marginal table over the family of `node`, read off the coefficients.

    For family mask F with |F| coordinates, the projection of each basis
    vector is constant on cells up to sign, giving

        cell(c) = sum_{gamma <= F} z_gamma * 2^{k/2 - |F|} * (-1)^{popcount(c & gamma)},

    which is the inverse Walsh transform of the family's coefficients.
    Cells are indexed by the family's nodes in ascending order. With an
    exact coefficient set this identity reproduces direct
    marginalisation of the table; with noise, possibly-negative cells.
    """
    fam = node_families(graph)[check_integer("node", node, 0, graph.node_count)]
    cells = _family_cells(coeffs.values.array[None], coeffs.closure, graph, (fam,))[0].tolist()
    return ContingencyTable(
        len(fam),
        {tuple((c >> fam.index(v)) & 1 for v in sorted(fam)): x for c, x in enumerate(cells)},
    )


def _entry_cells(z: np.ndarray, closure: DownwardClosure, graph: BayesNetGraph) -> np.ndarray:
    """(alpha, beta) cells of every entry for each row of an (E, |J|) stack: (E, m, 2).

    Entry (i, j) reads (cell(x_i=1, parents=j), cell(x_i=0, parents=j)).
    The node families' cells, in entry_cell_plan's layout, list these as
    (beta, alpha) pairs in the entry order.
    """
    cells = _family_cells(z, closure, graph, node_families(graph))
    return cells.reshape(len(z), -1, 2)[:, :, ::-1]


def _posterior_rows(prior: np.ndarray, cells: np.ndarray, graph: BayesNetGraph) -> np.ndarray:
    """prior + cells for each (m, 2) table of a stack, once each parameter is positive and finite.

    The NonPositivePosteriorParamError lists the offending entries of the
    first release that has any; a non-finite one is an InvalidArgumentError.
    """
    post = prior + cells
    bad = (post <= 0.0).any(axis=2)
    if bad.any():
        keys = graph.entry_keys()
        entries = [keys[r] for r in np.flatnonzero(bad[bad.any(axis=1)][0])]
        raise NonPositivePosteriorParamError(
            f"stealth failure: non-positive posterior parameter at entries {entries}",
            entries=entries,
        )
    return check_beta_rows(post)


def fourier_posterior_params(
    coeffs: CoefficientSet,
    graph: BayesNetGraph,
    priors: PriorMap,
    clamp_nonpositive: bool = False,
) -> BetaTable:
    """Posterior Beta parameters from the reconstructed marginals.

    Entry (i, j) becomes (alpha + cell(x_i=1, parents=j), beta +
    cell(x_i=0, parents=j)), in the entry order of the prior and
    posterior tables. Noisy cells can push a parameter to or below zero;
    by default that raises NonPositivePosteriorParamError listing the
    offending entries, with clamp_nonpositive=True negative cells are
    floored at zero instead.
    """
    cells = _entry_cells(coeffs.values.array[None], coeffs.closure, graph)
    if clamp_nonpositive:
        cells = np.maximum(cells, 0.0)
    keys = graph.entry_keys()
    prior = BetaTable.keyed("priors", priors, keys).array
    return BetaTable(keys, _posterior_rows(prior, cells, graph)[0])


def release_posterior_stack(
    updates: np.ndarray,
    graph: BayesNetGraph,
    priors: PriorMap,
    epsilons: Sequence[float],
    t: float,
    seeds: Sequence[Sequence[int]] | np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One release over downward_closure(graph) per (table, epsilon) pair, and its posterior.

    updates is an (R, m, 2) stack of the graph's update counts, as
    graph.count_updates returns them, and seeds holds one row of E seeds
    per table. Release [r, e] of updates[r] at epsilons[e] draws its
    noise from derive_seed(seeds[r][e], "attempt", 0): the whole grid
    derives those seeds in one derive_seeds call and makes its releases
    in one release_coefficient_stack call. A release whose posterior has
    a non-positive parameter (a stealth failure) is read again with its
    negative cells floored at zero; every other release keeps its cells
    as they are, and any other error propagates. Flooring is
    post-processing of the one release, so the privacy cost of release
    [r, e] stays epsilons[e]. Returns the (R, E, |J|) coefficients, the
    (R, E, m, 2) posterior rows in the entry order and the (R, E) mask
    of floored releases: entry [r, e] equals fourier_posterior_params of
    release [r, e], with clamp_nonpositive set exactly when floored[r, e] is.
    """
    closure = downward_closure(graph)
    cells = check_update_stack(updates, graph.update_size())[:, :, ::-1].reshape(len(updates), -1)
    seeds = seed_grid(seeds, len(cells), len(epsilons))
    exact = _coefficients(cells, closure, node_families(graph))
    z = release_coefficient_stack(exact, closure, epsilons, t, derive_seeds(seeds, "attempt", 0))
    prior = BetaTable.keyed("priors", priors, graph.entry_keys()).array
    cells = _entry_cells(z.reshape(-1, closure.size), closure, graph)
    floored = (prior + cells <= 0.0).any(axis=(1, 2))
    cells = np.where(floored[:, None, None], np.maximum(cells, 0.0), cells)
    post = _posterior_rows(prior, cells, graph)
    return z, post.reshape(z.shape[:2] + post.shape[1:]), floored.reshape(z.shape[:2])


def marginal_error_bound(
    graph: BayesNetGraph, node: int, epsilon: float, delta: float, t: float
) -> float:
    """High-probability L1 error of one reconstructed marginal.

    With probability at least 1 - delta,
    ||exact marginal - reconstruction||_1 is at most

        (4|J|/eps) * (2^{|parents|} * ln(|J|/delta) + t|J|).

    Natural logarithm throughout.
    """
    check_epsilon(epsilon)
    check_fraction("delta", delta)
    check_positive("t", t)
    size = downward_closure(graph).size
    indeg = graph.parent_count(check_integer("node", node, 0, graph.node_count))
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
    return project_marginal(marginal, selector)
