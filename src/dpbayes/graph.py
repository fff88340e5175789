"""Binary Bayesian networks with Beta priors and exact conjugate updating.

Every node is Boolean. A network is an acyclic parent map; node i carries one
Beta(alpha, beta) prior per assignment of its parents. Observing a
record increments alpha of the active (node, parent-configuration)
entry when the node is 1 and beta when it is 0, so posterior updating
is pure counting. Parent configurations are encoded little-endian in
the declared parent order: configuration index j has bit p equal to
the value of the p-th declared parent.

The entry order is the one order of every entry-indexed quantity:
node-major, configurations ascending, as entry_keys() lists it. It is
sorted key order, so a dict keyed by entries reaches it by one sort. It
is also the order of entry_cell_plan's cell pairs and, for naive Bayes,
class (0, 0) then (f, 0), (f, 1) per feature f. Update counts, noisy
counts, priors and posteriors are (m, 2) arrays of (alpha, beta) rows in
this order, held by an EntryTable: a read-only mapping view from each
key to its row. EntryTable.of is the one boundary between dicts and
tables; it sorts a dict's keys once and passes a table through.
EntryTable.keyed reads every entry-keyed input (priors, theta, a
posterior, coefficients) through of, and refuses any key set but the
one the computation needs with DimensionMismatchError.

The family of node i is node_families' tuple (i, *parents[i]), and its
2^(p+1) cells (p parents) are indexed the same way: bit 0 of a cell
index is x_i and bit p+1 is the p-th declared parent, so cell 2j + x_i
holds the records with parent configuration j. Read two at a time, a family's
cells are therefore the (x_i=0, x_i=1) = (beta, alpha) pairs of its
entries in entry order. count_cells counts the records into the cells
of every family a cell_plan lists with one matrix product and one
bincount; entry_cell_plan lists the families in node order, so the
counts read two at a time are the update pairs of compute_updates.
The Fourier reconstruction writes the node families' cells in the same
layout, so its cells read two at a time are the same pairs.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Hashable, Iterable, Iterator, Mapping

import numpy as np

from .errors import CyclicGraphError, DimensionMismatchError, InvalidArgumentError
from .errors import check_integer, check_positive, check_probability

# (node index, parent-configuration index)
EntryKey = tuple[int, int]

# size of every cache keyed by a graph, a closure, family tuples or a feature count
PLAN_CACHE_SIZE = 32


# ---------------------------------------------------------------------------
# parameter and configuration types
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BetaParams:
    """Parameters of a proper Beta distribution; both strictly positive."""

    alpha: float
    beta: float

    def __post_init__(self) -> None:
        check_positive("alpha", self.alpha)
        check_positive("beta", self.beta)


class EntryTable(Mapping):
    """Read-only mapping view of an array whose row r belongs to key order[r].

    A vector reads as one float per key, an (m, c) array as a tuple of c floats per key.
    """

    def __init__(self, order: tuple[Hashable, ...], array: np.ndarray) -> None:
        array = np.asarray(array).view()  # a view: the caller's own array stays writeable
        if len(order) != len(array):
            raise DimensionMismatchError(f"{len(order)} keys for {len(array)} rows")
        array.flags.writeable = False
        self.order, self.array = order, array

    @classmethod
    def of(cls, entries: Mapping) -> "EntryTable":
        """A table as it is; any other mapping as a table of its values in sorted key order."""
        if isinstance(entries, EntryTable):
            return entries
        order = tuple(sorted(entries))
        return cls(order, np.array([cls._cells(entries[key]) for key in order], dtype=np.float64))

    @classmethod
    def keyed(cls, what: str, values: Mapping, order: tuple[Hashable, ...]) -> "EntryTable":
        """values as a table, through of, once its keys are exactly order; `what` names them."""
        table = cls.of(values)
        if table.order != order:
            raise DimensionMismatchError(f"{what} list entries {table.order}, expected {order}")
        return table

    _cells = staticmethod(lambda value: value)  # one mapping value as one array row

    @functools.cached_property
    def positions(self) -> dict:
        """Row of each key."""
        return dict(zip(self.order, range(len(self.order))))

    def __getitem__(self, key):
        value = self.array[self.positions[key]].tolist()
        return tuple(value) if isinstance(value, list) else value

    def __iter__(self) -> Iterator:
        return iter(self.order)

    def __len__(self) -> int:
        return len(self.order)


class BetaTable(EntryTable):
    """(m, 2) table of positive, finite (alpha, beta) rows; each entry reads as BetaParams."""

    def __init__(self, order: tuple[EntryKey, ...], array: np.ndarray) -> None:
        super().__init__(order, np.reshape(array, (-1, 2)))
        check_beta_rows(self.array)

    _cells = staticmethod(lambda value: (value.alpha, value.beta))

    def __getitem__(self, key: EntryKey) -> BetaParams:
        return BetaParams(*self.array[self.positions[key]].tolist())


def check_beta_rows(array: np.ndarray) -> np.ndarray:
    """The array of (alpha, beta) pairs along its last axis, once each is positive and finite."""
    ok = (array > 0.0) & (array < np.inf)
    if not ok.all():
        bad = np.argwhere(~ok)[0]
        check_positive(("alpha", "beta")[bad[-1]], float(array[tuple(bad)]))
    return array


PriorMap = Mapping[EntryKey, BetaParams]
PosteriorMap = Mapping[EntryKey, BetaParams]
# full parameterisation of a network: success probability per entry
ThetaMap = Mapping[EntryKey, float]


# ---------------------------------------------------------------------------
# graph structure
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BayesNetGraph:
    """Directed structure over binary nodes 0..node_count-1.

    parents[i] is the ordered tuple of parent indices of node i. The
    constructor checks index bounds, self-loops and duplicates, and
    raises CyclicGraphError on a cycle, so every built graph is a DAG.
    """

    node_count: int
    parents: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        check_integer("node_count", self.node_count, 1)
        if len(self.parents) != self.node_count:
            raise InvalidArgumentError(
                f"got {len(self.parents)} parent lists for {self.node_count} nodes"
            )
        for i, pa in enumerate(self.parents):
            if any(not 0 <= p < self.node_count for p in pa):
                raise InvalidArgumentError(f"node {i}: parent index out of range in {pa}")
            if i in pa:
                raise InvalidArgumentError(f"node {i} lists itself as a parent")
            if len(set(pa)) != len(pa):
                raise InvalidArgumentError(f"node {i}: duplicate parents in {pa}")
        validate_graph(self)

    @classmethod
    def from_parent_lists(cls, parents: Iterable[Iterable[int]]) -> "BayesNetGraph":
        tup = tuple(tuple(p) for p in parents)
        return cls(node_count=len(tup), parents=tup)

    def parent_count(self, node: int) -> int:
        return len(self.parents[node])

    def config_count(self, node: int) -> int:
        return 1 << self.parent_count(node)

    def update_size(self) -> int:
        """Total number of (node, configuration) entries."""
        return sum(self.config_count(i) for i in range(self.node_count))

    def entry_keys(self) -> tuple[EntryKey, ...]:
        """Every (node, configuration) entry in the entry order."""
        return _entry_keys(self)

    def family_mask(self, node: int) -> int:
        return sum(1 << v for v in node_families(self)[node])


@functools.lru_cache(maxsize=PLAN_CACHE_SIZE)
def _entry_keys(graph: BayesNetGraph) -> tuple[EntryKey, ...]:
    return tuple((i, j) for i in range(graph.node_count) for j in range(graph.config_count(i)))


@functools.lru_cache(maxsize=PLAN_CACHE_SIZE)
def node_families(graph: BayesNetGraph) -> tuple[tuple[int, ...], ...]:
    """The family (i, *parents[i]) of every node i, in node order."""
    return tuple((i, *graph.parents[i]) for i in range(graph.node_count))


@functools.lru_cache(maxsize=PLAN_CACHE_SIZE)
def naive_bayes_graph(d: int) -> BayesNetGraph:
    """Class node 0; features 1..d each with the class as sole parent."""
    check_integer("d", d, 1)
    return BayesNetGraph(node_count=d + 1, parents=((),) + ((0,),) * d)


def validate_graph(graph: BayesNetGraph) -> list[int]:
    """Topological order; CyclicGraphError on a cycle, which BayesNetGraph's constructor relays."""
    indegree = [len(graph.parents[i]) for i in range(graph.node_count)]
    children: list[list[int]] = [[] for _ in range(graph.node_count)]
    for i, pa in enumerate(graph.parents):
        for p in pa:
            children[p].append(i)
    ready = [i for i in range(graph.node_count) if indegree[i] == 0]
    order: list[int] = []
    while ready:
        node = ready.pop()
        order.append(node)
        for child in children[node]:
            indegree[child] -= 1
            if indegree[child] == 0:
                ready.append(child)
    if len(order) != graph.node_count:
        stuck = [i for i in range(graph.node_count) if indegree[i] > 0]
        raise CyclicGraphError(f"parent structure has a cycle through nodes {stuck}")
    return order


# ---------------------------------------------------------------------------
# data
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Dataset:
    """n records over k binary variables, stored as an (n, k) 0/1 array."""

    records: np.ndarray

    def __post_init__(self) -> None:
        arr = np.asarray(self.records)
        if arr.ndim != 2:
            raise InvalidArgumentError("records must be a 2-d array (n, k)")
        if not ((arr == 0) | (arr == 1)).all():
            raise InvalidArgumentError("records must contain only 0/1 values")
        object.__setattr__(self, "records", arr.astype(np.int8, copy=False))

    @classmethod
    def from_records(cls, rows: Iterable[Iterable[int]]) -> "Dataset":
        """Records from rows of 0/1 cells, checked before any cast: 1.5, NaN or 256 is refused."""
        rows = [tuple(r) for r in rows]
        if not rows:
            return cls(np.zeros((0, 0), dtype=np.int8))
        if len({len(r) for r in rows}) > 1:
            raise InvalidArgumentError("records must be a 2-d array (n, k): rows differ in length")
        return cls(np.array(rows))

    @property
    def n(self) -> int:
        return self.records.shape[0]

    @property
    def dimension(self) -> int:
        return self.records.shape[1]

    def subset(self, indices: np.ndarray) -> "Dataset":
        return Dataset(self.records[indices])


# ---------------------------------------------------------------------------
# update vectors
# ---------------------------------------------------------------------------


@dataclass
class UpdateVector:
    """(delta_alpha, delta_beta) of every entry, zeros included, as an (m, 2) EntryTable.

    A dict of pairs is read through EntryTable.of.
    """

    entries: EntryTable

    def __post_init__(self) -> None:
        self.entries = EntryTable.of(self.entries)


# Largest family whose cell codes float32 holds exactly: its 24-bit significand.
_FLOAT32_FAMILY = 24
# Largest family whose cell codes float64 holds exactly: its 53-bit significand.
_FLOAT64_FAMILY = 53
# Codes count_cells holds at once: its buffers stay in cache and are
# allocated once per call rather than once per (records x families) product.
_BLOCK_CODES = 1 << 15


@dataclass(frozen=True)
class CellPlan:
    """Families laid out for count_cells: weights, cell offsets and the cell total.

    weights is a (k, F) float matrix with weights[v, r] = 2^b where
    variable v is bit b of family r, and zero elsewhere; family r's
    2^f_r cells start at offsets[r] of a flat vector of total cells.
    """

    weights: np.ndarray
    offsets: np.ndarray
    total: int


def cell_plan(k: int, families: Iterable[Iterable[int]]) -> CellPlan:
    """The plan that counts records of width k into the cells of every family, in order.

    Bit b of a family's cell index is the value of its b-th variable.
    Weights are float32 while every family has at most 24 variables and
    float64 up to 53 (see count_cells); a larger family raises
    InvalidArgumentError.
    """
    families = [tuple(fam) for fam in families]
    widest = max(map(len, families), default=0)
    if widest > _FLOAT64_FAMILY:
        raise InvalidArgumentError(
            f"a family of {widest} variables has more cells than can be counted exactly"
        )
    dtype = np.float32 if widest <= _FLOAT32_FAMILY else np.float64
    weights = np.zeros((k, len(families)), dtype=dtype)
    for r, fam in enumerate(families):
        weights[list(fam), r] = 2.0 ** np.arange(len(fam))
    sizes = [1 << len(fam) for fam in families]
    offsets = np.cumsum([0, *sizes[:-1]], dtype=np.intp)
    return CellPlan(weights, offsets, sum(sizes))


def count_cells(records: np.ndarray, plan: CellPlan) -> np.ndarray:
    """Cell counts of the (n, k) 0/1 records over every family of the plan.

    Family r's cell c is the number of records whose b-th variable of
    the family equals bit b of c for every b; the result is the flat
    integer vector of plan.total cells, family r's at plan.offsets[r].
    Each record's cell code in every family is one row of the product
    records @ weights; the codes, shifted by the offsets, are counted
    with one bincount. The records are taken in blocks of rows, through
    buffers allocated once per call.

    Exactness: a record's code in a family of f variables is a sum of
    distinct powers of two 2^b with b < f, so every partial sum, in
    whatever order and grouping BLAS adds the terms, is an integer below
    2^f. Floats with a p-bit significand hold every integer below 2^p
    exactly, so no addition rounds when f <= p: 24 for the float32
    weights cell_plan picks while every family has at most 24 variables,
    53 for the float64 weights it picks up to 53.
    """
    k, families = plan.weights.shape
    if records.ndim != 2 or records.shape[1] != k:
        raise DimensionMismatchError(f"records of shape {records.shape} for {k} variables")
    n = len(records)
    rows = max(1, min(n, _BLOCK_CODES // max(families, 1)))
    values = np.empty((rows, k), dtype=plan.weights.dtype)
    products = np.empty((rows, families), dtype=plan.weights.dtype)
    codes = np.empty((rows, families), dtype=np.intp)
    counts = np.zeros(plan.total, dtype=np.intp)
    for start in range(0, n, rows):
        block = records[start : start + rows]
        size = len(block)
        np.copyto(values[:size], block)
        np.matmul(values[:size], plan.weights, out=products[:size])
        np.copyto(codes[:size], products[:size], casting="unsafe")
        codes[:size] += plan.offsets
        counts += np.bincount(codes[:size].ravel(), minlength=plan.total)
    return counts


@functools.lru_cache(maxsize=PLAN_CACHE_SIZE)
def entry_cell_plan(graph: BayesNetGraph) -> CellPlan:
    """cell_plan of the node families.

    The counted cells, read two at a time, are the (beta, alpha) pairs
    of every entry in the entry order.
    """
    return cell_plan(graph.node_count, node_families(graph))


def compute_updates(graph: BayesNetGraph, data: Dataset) -> UpdateVector:
    """Count-based posterior updates for every entry of the network.

    For each record x and node i with parent configuration j = x_{pi(i)},
    delta_alpha[i, j] grows by x_i and delta_beta[i, j] by 1 - x_i: the
    family cells 2j + 1 and 2j.
    """
    keys = graph.entry_keys()
    if not data.n:
        return UpdateVector(EntryTable(keys, np.zeros((len(keys), 2))))
    pairs = count_cells(data.records, entry_cell_plan(graph)).reshape(-1, 2).astype(np.float64)
    return UpdateVector(EntryTable(keys, pairs[:, ::-1]))


def posterior_params(priors: PriorMap, updates: UpdateVector) -> BetaTable:
    """Elementwise conjugate update of priors, which must list exactly the update entries."""
    order = updates.entries.order
    return BetaTable(order, BetaTable.keyed("priors", priors, order).array + updates.entries.array)


def uniform_priors(graph: BayesNetGraph, alpha: float = 1.0, beta: float = 1.0) -> BetaTable:
    prior = BetaParams(alpha, beta)
    rows = np.full((graph.update_size(), 2), (prior.alpha, prior.beta), dtype=np.float64)
    return BetaTable(graph.entry_keys(), rows)


# ---------------------------------------------------------------------------
# contingency tables
# ---------------------------------------------------------------------------

@dataclass
class ContingencyTable:
    """Sparse table of non-negative cell weights over {0,1}^dimension."""

    dimension: int
    cells: dict[tuple[int, ...], float] = field(default_factory=dict)

    def value(self, cell: tuple[int, ...]) -> float:
        return self.cells.get(tuple(cell), 0.0)


def build_table(data: Dataset) -> ContingencyTable:
    """Sparse contingency table of the records; O(n) cells at most."""
    cells: dict[tuple[int, ...], float] = {}
    for row in data.records:
        cell = tuple(int(b) for b in row)
        cells[cell] = cells.get(cell, 0.0) + 1.0
    return ContingencyTable(data.dimension, cells)


def project_marginal(table: ContingencyTable, keep: Iterable[int]) -> ContingencyTable:
    """Marginalise onto the coordinates flagged in `keep`.

    `keep` is a 0/1 selector of length table.dimension; the result is
    indexed by the kept coordinates in ascending position order. Each
    output cell is the sum of input cells whose restriction matches it.
    """
    keep = tuple(keep)
    if len(keep) != table.dimension:
        raise DimensionMismatchError(
            f"selector length {len(keep)} != table dimension {table.dimension}"
        )
    positions = [p for p, flag in enumerate(keep) if flag]
    out: dict[tuple[int, ...], float] = {}
    for cell, v in table.cells.items():
        sub = tuple(cell[p] for p in positions)
        out[sub] = out.get(sub, 0.0) + v
    return ContingencyTable(len(positions), out)


# ---------------------------------------------------------------------------
# parameterised networks (used by synthesis and the verify oracles)
# ---------------------------------------------------------------------------


def _theta_table(graph: BayesNetGraph, theta: ThetaMap) -> EntryTable:
    """theta as a table in the entry order, once each value is a probability in [0, 1]."""
    table = EntryTable.keyed("theta values", theta, graph.entry_keys())
    for key, value in zip(table.order, table.array.tolist()):
        check_probability(f"theta {key}", value)
    return table


def joint_log_likelihood(graph: BayesNetGraph, theta: ThetaMap, record: Iterable[int]) -> float:
    """log p_theta(record) under the fully observed network; record is one 0/1 value per node."""
    table = _theta_table(graph, theta)
    rec = Dataset(np.array([tuple(record)])).records[0].tolist()
    if len(rec) != graph.node_count:
        raise DimensionMismatchError(f"record of width {len(rec)} for {graph.node_count} nodes")
    total = 0.0
    for i in range(graph.node_count):
        j = 0
        for p, parent in enumerate(graph.parents[i]):
            j |= rec[parent] << p
        prob = table[(i, j)]
        total += np.log(prob) if rec[i] else np.log1p(-prob)
    return float(total)


def ancestral_sample(
    graph: BayesNetGraph, theta: ThetaMap, n: int, rng: np.random.Generator
) -> Dataset:
    """Sample n records in topological order from the parameterised network.

    theta must give a probability in [0, 1] for exactly the graph's
    entries; it is read once, as a table in the entry order.
    """
    order = validate_graph(graph)
    table = _theta_table(graph, theta)
    recs = np.zeros((check_integer("n", n, 0), graph.node_count), dtype=np.int8)
    for i in order:
        pa = list(graph.parents[i])
        cfg = recs[:, pa].astype(np.int64) @ (1 << np.arange(len(pa), dtype=np.int64))
        start = table.positions[(i, 0)]
        probs = table.array[start : start + graph.config_count(i)]
        recs[:, i] = (rng.random(n) < probs[cfg]).astype(np.int8)
    return Dataset(recs)
