"""Graph layer: structures, update counting, tables, marginalization."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dpbayes import (
    BayesNetGraph,
    BetaParams,
    ContingencyTable,
    CyclicGraphError,
    Dataset,
    DimensionMismatchError,
    DpBayesError,
    EntryTable,
    InvalidArgumentError,
    UpdateVector,
    ancestral_sample,
    build_table,
    compute_updates,
    joint_log_likelihood,
    posterior_params,
    project_marginal,
    uniform_priors,
    validate_graph,
)
from dpbayes import naive_bayes_graph
from dpbayes import graph as graph_module
from dpbayes.graph import cell_plan, count_cells, entry_cell_plan, node_families
from dpbayes.sampler import naive_bayes_params
from dpbayes.verify import all_dags, brute_force_updates

from conftest import CHAIN3, random_dag, random_dataset, twenty_node_dag


# ---------------------------------------------------------------------------
# value types
# ---------------------------------------------------------------------------


def test_beta_params_positive():
    p = BetaParams(2.0, 3.0)
    assert (p.alpha, p.beta) == (2.0, 3.0)
    with pytest.raises(ValueError):
        BetaParams(0.0, 1.0)
    with pytest.raises(ValueError):
        BetaParams(1.0, -2.0)
    with pytest.raises(ValueError):
        BetaParams(float("nan"), 1.0)


def test_posterior_params_adds_one_pair():
    post = posterior_params({(0, 0): BetaParams(1.0, 1.0)}, UpdateVector({(0, 0): (3.0, 2.0)}))
    assert post[(0, 0)] == BetaParams(4.0, 3.0)


# ---------------------------------------------------------------------------
# graph structure
# ---------------------------------------------------------------------------


def test_graph_rejects_bad_parent_lists():
    with pytest.raises(ValueError):
        BayesNetGraph(node_count=2, parents=((),))  # wrong length
    with pytest.raises(ValueError):
        BayesNetGraph(node_count=2, parents=((), (2,)))  # out of range
    with pytest.raises(ValueError):
        BayesNetGraph(node_count=2, parents=((), (1,)))  # self-loop
    with pytest.raises(ValueError):
        BayesNetGraph(node_count=3, parents=((), (), (0, 0)))  # duplicate


@pytest.mark.parametrize(
    "build",
    [
        lambda: BetaParams(0.0, 1.0),
        lambda: BetaParams(1.0, float("inf")),
        lambda: BayesNetGraph(node_count=0, parents=()),
        lambda: BayesNetGraph(node_count=2, parents=((),)),
        lambda: BayesNetGraph(node_count=2, parents=((), (2,))),
        lambda: BayesNetGraph(node_count=2, parents=((), (1,))),
        lambda: BayesNetGraph(node_count=3, parents=((), (), (0, 0))),
        lambda: Dataset(np.zeros(3)),
        lambda: Dataset(np.full((2, 2), 2)),
    ],
    ids=[
        "beta-nonpositive",
        "beta-infinite",
        "graph-no-nodes",
        "graph-wrong-length",
        "graph-out-of-range",
        "graph-self-loop",
        "graph-duplicate",
        "dataset-1d",
        "dataset-non-binary",
    ],
)
def test_bad_constructor_arguments_raise_library_errors(build):
    with pytest.raises(DpBayesError) as caught:
        build()
    assert isinstance(caught.value, InvalidArgumentError)
    assert isinstance(caught.value, ValueError)


@pytest.mark.parametrize(
    "rows",
    [[(0, 1.5), (1, 0)], [(0, float("nan"))], [(0, 256)], [(0, 1), (1,)]],
    ids=["fraction", "nan", "wraps-to-0", "ragged"],
)
def test_from_records_refuses_a_bad_cell_before_any_cast(rows):
    # an int8 cast ran first: 1.5 became 1 and 256 wrapped to 0, while NaN,
    # 256 and ragged rows escaped as bare numpy errors
    with pytest.raises(InvalidArgumentError, match="^records must "):
        Dataset.from_records(rows)


def test_from_records_keeps_valid_records_as_int8():
    rows = [(0, 1, 1), (1, 0, 0), (True, False, 1.0)]
    records = Dataset.from_records(rows).records
    assert records.dtype == np.int8
    assert records.tobytes() == np.array(rows, dtype=np.int8).tobytes()
    assert Dataset.from_records([]).records.shape == (0, 0)


def test_validate_graph_topological_order():
    order = validate_graph(CHAIN3)
    assert sorted(order) == [0, 1, 2]
    assert order.index(0) < order.index(1) < order.index(2)


def test_validate_graph_rejects_cycle():
    # the constructor runs the check, so a cyclic graph cannot be built
    with pytest.raises(CyclicGraphError, match=r"cycle through nodes \[0, 1\]"):
        BayesNetGraph(node_count=2, parents=((1,), (0,)))
    with pytest.raises(CyclicGraphError, match=r"cycle through nodes \[0, 1, 2\]"):
        BayesNetGraph.from_parent_lists([(2,), (0,), (1,)])


def test_update_size_naive_bayes():
    nb = BayesNetGraph(node_count=17, parents=((),) + ((0,),) * 16)
    assert nb.update_size() == 1 + 16 * 2  # 33 entries
    assert CHAIN3.update_size() == 1 + 2 + 2


def test_family_and_mask():
    assert CHAIN3.family_mask(1) == 0b011
    assert CHAIN3.family_mask(2) == 0b110


def test_node_families_are_cached_by_value():
    # every CLI release loads an equal but new graph, which must hit the caches
    a = BayesNetGraph.from_parent_lists([[], [0], [1, 0]])
    b = BayesNetGraph.from_parent_lists([[], [0], [1, 0]])
    assert a is not b
    assert node_families(a) == ((0,), (1, 0), (2, 1, 0))
    assert node_families(b) is node_families(a)
    assert entry_cell_plan(b) is entry_cell_plan(a)
    assert [a.family_mask(i) for i in range(3)] == [0b001, 0b011, 0b111]


# ---------------------------------------------------------------------------
# the entry order
# ---------------------------------------------------------------------------


def assert_entry_order(graph):
    # entry_keys() is sorted, and entry_cell_plan's cells, read two at a time,
    # are the (x_i = 0, x_i = 1) cells of those entries in that order: family
    # (i, *parents[i]) starts at offsets[i], with x_i as bit 0 of its cell index
    keys = graph.entry_keys()
    assert keys == tuple(sorted(keys))
    plan = entry_cell_plan(graph)
    cells = [None] * plan.total
    for i, offset in enumerate(plan.offsets.tolist()):
        family = (i, *graph.parents[i])
        assert plan.weights[family, i].tolist() == [2.0**b for b in range(len(family))]
        for c in range(1 << len(family)):
            cells[offset + c] = (i, c >> 1, c & 1)
    assert cells == [(i, j, x) for i, j in keys for x in (0, 1)]


def test_entry_order_of_every_small_dag():
    graphs = [g for k in range(1, 5) for g in all_dags(k)]
    assert len(graphs) == 1 + 3 + 25 + 543
    for graph in graphs:
        assert_entry_order(graph)


@pytest.mark.parametrize("d", range(1, 21))
def test_entry_order_of_naive_bayes(d):
    graph = naive_bayes_graph(d)
    assert_entry_order(graph)
    want = ((0, 0),) + tuple((f, y) for f in range(1, d + 1) for y in (0, 1))
    assert graph.entry_keys() == want
    assert naive_bayes_params(uniform_priors(graph), d).order == want


# ---------------------------------------------------------------------------
# update counting
# ---------------------------------------------------------------------------


def test_updates_empty_dataset_all_zero():
    # an empty dataset has no width to check, whether or not it has the network's
    for data in (Dataset(np.zeros((0, 3), np.int8)), Dataset.from_records([])):
        up = compute_updates(CHAIN3, data)
        assert len(up.entries) == CHAIN3.update_size()
        assert all(v == (0.0, 0.0) for v in up.entries.values())


def test_updates_bookkeeping_chain():
    graph = BayesNetGraph(node_count=2, parents=((), (0,)))
    data = Dataset.from_records([(0, 0), (1, 1), (1, 0)])
    up = compute_updates(graph, data)
    assert up.entries[(0, 0)] == (2.0, 1.0)  # root: two ones, one zero
    assert up.entries[(1, 0)] == (0.0, 1.0)  # parent 0: single record, child 0
    assert up.entries[(1, 1)] == (1.0, 1.0)  # parent 1: one of each


def test_updates_dimension_mismatch():
    with pytest.raises(DimensionMismatchError):
        compute_updates(CHAIN3, Dataset.from_records([(0, 1)]))


def test_updates_match_brute_force(rng):
    for _ in range(20):
        k = int(rng.integers(1, 5))
        graph = random_dag(rng, k)
        data = random_dataset(rng, int(rng.integers(0, 30)), k)
        up = compute_updates(graph, data)
        oracle = brute_force_updates(graph, data)
        for (i, j), (da, db) in up.entries.items():
            assert da == oracle.get((i, j, "a"), 0.0)
            assert db == oracle.get((i, j, "b"), 0.0)


def test_updates_equal_brute_force_with_parents_out_of_order(rng):
    # random_dag sorts parents; here configuration bits follow declared order
    graph = twenty_node_dag(rng)
    data = random_dataset(rng, 2000, 20)
    oracle = brute_force_updates(graph, data)
    expected = {(i, j): (oracle[(i, j, "a")], oracle[(i, j, "b")]) for i, j in graph.entry_keys()}
    up = compute_updates(graph, data)
    assert list(up.entries.items()) == list(expected.items())


def test_updates_per_node_totals(rng):
    # every record lands in exactly one configuration per node
    graph = random_dag(rng, 4)
    data = random_dataset(rng, 37, 4)
    up = compute_updates(graph, data)
    for i in range(graph.node_count):
        total = sum(
            sum(up.entries[(i, j)]) for j in range(graph.config_count(i))
        )
        assert total == data.n


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_updates_record_additive(data_strategy):
    seed = data_strategy.draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    graph = random_dag(rng, 3)
    d1 = random_dataset(rng, int(rng.integers(0, 12)), 3)
    d2 = random_dataset(rng, int(rng.integers(0, 12)), 3)
    both = Dataset(np.concatenate([d1.records, d2.records], axis=0))
    u1, u2, u12 = (compute_updates(graph, d) for d in (d1, d2, both))
    for key in u12.entries:
        a1, b1 = u1.entries[key]
        a2, b2 = u2.entries[key]
        assert u12.entries[key] == (a1 + a2, b1 + b2)


# ---------------------------------------------------------------------------
# cell counting
# ---------------------------------------------------------------------------


def oracle_cells(records, families) -> list[int]:
    """Every family's cells, counted one record and one family at a time."""
    out = []
    for fam in families:
        cells = [0] * (1 << len(fam))
        for row in records.tolist():
            cells[sum(int(row[v]) << b for b, v in enumerate(fam))] += 1
        out += cells
    return out


def random_families(rng, k, count, widest=None):
    sizes = rng.integers(0, (widest or k) + 1, size=count)
    return [tuple(rng.permutation(k)[:size].tolist()) for size in sizes]


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 8), st.integers(0, 40), st.integers(1, 6))
def test_count_cells_equals_per_record_oracle(seed, k, n, count):
    # families of mixed sizes, the empty one included, in one call
    rng = np.random.default_rng(seed)
    families = random_families(rng, k, count)
    records = rng.integers(0, 2, size=(n, k)).astype(np.int8)
    plan = cell_plan(k, families)
    assert plan.weights.dtype == np.float32
    assert plan.total == sum(1 << len(fam) for fam in families)
    assert count_cells(records, plan).tolist() == oracle_cells(records, families)


def test_count_cells_edges(rng):
    families = [(2, 0), (1,), (0, 1, 2, 3)]
    plan = cell_plan(4, families)
    assert count_cells(np.zeros((0, 4), np.int8), plan).tolist() == [0] * plan.total
    one = np.array([[1, 0, 1, 1]], np.int8)
    assert count_cells(one, plan).tolist() == oracle_cells(one, families)
    # strided uint8 views, as a dataset file's columns are read, and reversed rows
    wide = rng.integers(0, 2, size=(25, 9)).astype(np.uint8)
    for records in (wide[:, ::2][:, :4], wide[::-3, 1::2], wide[:, :4].T.copy().T[::-1]):
        assert not records.flags.c_contiguous
        assert count_cells(records, plan).tolist() == oracle_cells(records, families)


def test_count_cells_over_many_blocks(rng):
    # more records than one block holds, so the counts add over blocks
    families = random_families(rng, 12, 40, widest=5)
    plan = cell_plan(12, families)
    n = 2 * (graph_module._BLOCK_CODES // len(families)) + 7
    records = rng.integers(0, 2, size=(n, 12)).astype(np.int8)
    assert count_cells(records, plan).tolist() == oracle_cells(records, families)


def test_count_cells_widens_past_24_variables(rng):
    # a 25-variable family's codes reach 2^25 - 1, past float32's exact integers;
    # building its plan allocates no cells
    wide = cell_plan(25, [tuple(range(25)), (3,)])
    assert wide.weights.dtype == np.float64 and wide.total == (1 << 25) + 2
    assert cell_plan(30, [tuple(range(24))]).weights.dtype == np.float32
    with pytest.raises(InvalidArgumentError):
        cell_plan(54, [tuple(range(54))])
    # float64 weights count exactly what float32 ones do
    families = random_families(rng, 10, 6)
    plan = cell_plan(10, families)
    records = rng.integers(0, 2, size=(300, 10)).astype(np.int8)
    widened = dataclasses.replace(plan, weights=plan.weights.astype(np.float64))
    assert count_cells(records, widened).tolist() == oracle_cells(records, families)


def test_count_cells_twenty_variable_family(rng):
    # the largest codes of a wide family stay exact
    families = [tuple(rng.permutation(20).tolist()), (5,)]
    records = np.concatenate(
        [np.ones((3, 20), np.int8), rng.integers(0, 2, size=(40, 20)).astype(np.int8)]
    )
    counts = count_cells(records, cell_plan(20, families))
    assert counts[(1 << 20) - 1] >= 3
    assert counts.tolist() == oracle_cells(records, families)


def test_count_cells_width_mismatch():
    with pytest.raises(DimensionMismatchError):
        count_cells(np.zeros((3, 2), np.int8), cell_plan(3, [(0, 2)]))
    # compute_updates checks the width before it counts
    with pytest.raises(DimensionMismatchError):
        compute_updates(CHAIN3, Dataset.from_records([(0, 1), (1, 1)]))


def test_entry_cell_plan_lists_families_in_node_order(rng):
    graph = twenty_node_dag(rng)
    plan = entry_cell_plan(graph)
    assert entry_cell_plan(graph) is plan
    families = [(i, *graph.parents[i]) for i in range(graph.node_count)]
    assert plan.total == 2 * graph.update_size()
    records = rng.integers(0, 2, size=(60, 20)).astype(np.int8)
    assert count_cells(records, plan).tolist() == oracle_cells(records, families)


# ---------------------------------------------------------------------------
# posterior parameters
# ---------------------------------------------------------------------------


def test_posterior_params_adds_counts():
    graph = BayesNetGraph(node_count=1, parents=((),))
    up = compute_updates(graph, Dataset.from_records([(1,), (1,), (0,)]))
    post = posterior_params(uniform_priors(graph), up)
    assert post[(0, 0)] == BetaParams(3.0, 2.0)


def test_posterior_params_missing_prior():
    up = UpdateVector({(0, 0): (1.0, 0.0)})
    with pytest.raises(DimensionMismatchError, match="priors list entries"):
        posterior_params({}, up)


@pytest.mark.parametrize(
    "prior_keys", [((0, 0), (1, 0), (1, 1)), ((0, 0),)], ids=["superset", "subset"]
)
def test_posterior_params_needs_priors_for_exactly_the_update_entries(prior_keys):
    up = UpdateVector({(0, 0): (1.0, 0.0), (1, 0): (0.0, 1.0)})
    priors = dict.fromkeys(prior_keys, BetaParams(1.0, 1.0))
    with pytest.raises(DimensionMismatchError) as err:
        posterior_params(priors, up)
    assert f"priors list entries {prior_keys}, expected ((0, 0), (1, 0))" in str(err.value)


def test_posterior_params_rejects_a_non_positive_parameter():
    with pytest.raises(InvalidArgumentError, match="alpha must be positive and finite, got -1.0"):
        posterior_params({(0, 0): BetaParams(1.0, 1.0)}, UpdateVector({(0, 0): (-2.0, 0.0)}))


def test_entry_table_is_a_read_only_view_in_sorted_key_order():
    table = EntryTable.of({(1, 0): (3.0, 4.0), (0, 0): (1.0, 2.0)})
    assert table.order == ((0, 0), (1, 0))
    assert table[(1, 0)] == (3.0, 4.0) and dict(table) == {(0, 0): (1.0, 2.0), (1, 0): (3.0, 4.0)}
    assert EntryTable.of(table) is table
    with pytest.raises(TypeError):
        table[(0, 0)] = (0.0, 0.0)
    with pytest.raises(ValueError):
        table.array[0, 0] = 5.0
    with pytest.raises(DimensionMismatchError):
        EntryTable(((0, 0),), np.zeros((2, 2)))


def test_posterior_order_independence(rng):
    # batch update equals any sequence of single-record updates
    graph = random_dag(rng, 3)
    data = random_dataset(rng, 15, 3)
    batch = posterior_params(uniform_priors(graph), compute_updates(graph, data))
    rolling = uniform_priors(graph)
    order = rng.permutation(data.n)
    for idx in order:
        one = Dataset(data.records[idx : idx + 1])
        rolling = posterior_params(rolling, compute_updates(graph, one))
    assert rolling == batch


# ---------------------------------------------------------------------------
# contingency tables
# ---------------------------------------------------------------------------


def test_build_table_empty():
    table = build_table(Dataset(np.zeros((0, 3), np.int8)))
    assert table.cells == {}


def test_build_table_counts():
    table = build_table(Dataset.from_records([(0, 0), (0, 0), (1, 1)]))
    assert table.cells == {(0, 0): 2.0, (1, 1): 1.0}
    assert table.value((0, 1)) == 0.0


def test_build_table_total_matches_n(rng):
    data = random_dataset(rng, 50, 6)
    assert sum(build_table(data).cells.values()) == 50.0


def test_project_marginal_identity():
    table = build_table(Dataset.from_records([(0, 0), (0, 0), (1, 1)]))
    same = project_marginal(table, (1, 1))
    assert same.cells == table.cells


def test_project_marginal_single_coordinate():
    table = build_table(Dataset.from_records([(0, 0), (0, 0), (1, 1)]))
    marg = project_marginal(table, (1, 0))
    assert marg.cells == {(0,): 2.0, (1,): 1.0}


def test_project_marginal_brute_force(rng):
    # restriction semantics against a dense double loop over all cells
    k = 8
    data = random_dataset(rng, 200, k)
    table = build_table(data)
    keep = tuple(int(b) for b in rng.integers(0, 2, size=k))
    if not any(keep):
        keep = (1,) + keep[1:]
    positions = [p for p in range(k) if keep[p]]
    expected: dict[tuple[int, ...], float] = {}
    for idx in range(1 << k):
        cell = tuple((idx >> p) & 1 for p in range(k))
        sub = tuple(cell[p] for p in positions)
        expected[sub] = expected.get(sub, 0.0) + table.value(cell)
    marg = project_marginal(table, keep)
    for sub, v in expected.items():
        assert marg.value(sub) == v


def test_project_marginal_commutes_with_addition(rng):
    # the marginal of two datasets' concatenation is the cellwise sum of their marginals
    k = 5
    d1, d2 = random_dataset(rng, 40, k), random_dataset(rng, 25, k)
    keep = (1, 0, 1, 0, 1)
    left = project_marginal(build_table(Dataset(np.concatenate([d1.records, d2.records]))), keep)
    m1, m2 = (project_marginal(build_table(d), keep) for d in (d1, d2))
    assert left.cells == {c: m1.value(c) + m2.value(c) for c in m1.cells.keys() | m2.cells.keys()}
    assert sum(left.cells.values()) == 65.0


def test_project_marginal_length_check():
    table = ContingencyTable(2, {(0, 0): 1.0})
    with pytest.raises(DimensionMismatchError):
        project_marginal(table, (1,))


# ---------------------------------------------------------------------------
# parameterised networks
# ---------------------------------------------------------------------------


def test_joint_log_likelihood_half():
    theta = {key: 0.5 for key in CHAIN3.entry_keys()}
    ll = joint_log_likelihood(CHAIN3, theta, (0, 1, 0))
    assert ll == pytest.approx(3 * np.log(0.5))


def test_joint_log_likelihood_chain_value():
    theta = {(0, 0): 0.9, (1, 0): 0.2, (1, 1): 0.7, (2, 0): 0.5, (2, 1): 0.5}
    # record (1, 1, 0): node0=1 (0.9), node1 given parent 1 (0.7), node2 given parent 1 (0.5)
    ll = joint_log_likelihood(CHAIN3, theta, (1, 1, 0))
    assert ll == pytest.approx(np.log(0.9) + np.log(0.7) + np.log(0.5))


TWO = BayesNetGraph.from_parent_lists([[], [0]])
TWO_THETA = {(0, 0): 0.5, (1, 0): 0.3, (1, 1): 0.6}


@pytest.mark.parametrize(
    "theta, record, error, message",
    [
        ({(0, 0): 0.5}, (1, 1), DimensionMismatchError, r"theta values list entries \(\(0, 0\),\)"),
        ({**TWO_THETA, (2, 0): 0.5}, (1, 1), DimensionMismatchError, "theta values list entries"),
        # (1, 0) is not the entry the record reads: every theta is checked
        ({**TWO_THETA, (1, 0): 1.5}, (1, 1), InvalidArgumentError, r"theta \(1, 0\) must lie"),
        ({**TWO_THETA, (0, 0): np.nan}, (1, 1), InvalidArgumentError, r"theta \(0, 0\) must lie"),
        (TWO_THETA, (1, 2), InvalidArgumentError, "only 0/1 values"),
        (TWO_THETA, (1, 0, 1), DimensionMismatchError, "record of width 3 for 2 nodes"),
    ],
    ids=["missing-key", "extra-key", "above-one", "nan", "non-binary-record", "wrong-width"],
)
def test_joint_log_likelihood_refuses_bad_input(theta, record, error, message):
    assert joint_log_likelihood(TWO, TWO_THETA, (1, 1)) == pytest.approx(np.log(0.5 * 0.6))
    with pytest.raises(error, match=message):
        joint_log_likelihood(TWO, theta, record)


def test_ancestral_sample_marginals(rng):
    graph = BayesNetGraph(node_count=2, parents=((), (0,)))
    theta = {(0, 0): 0.3, (1, 0): 0.8, (1, 1): 0.1}
    data = ancestral_sample(graph, theta, 20000, rng)
    x = data.records
    assert abs(x[:, 0].mean() - 0.3) < 0.02
    given0 = x[x[:, 0] == 0, 1].mean()
    given1 = x[x[:, 0] == 1, 1].mean()
    assert abs(given0 - 0.8) < 0.02
    assert abs(given1 - 0.1) < 0.02
