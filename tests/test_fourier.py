"""Walsh-basis coefficient release, reconstruction, consistency, stealth."""

import itertools
import math
import tracemalloc
import warnings

import numpy as np
import pytest

from dpbayes import (
    BayesNetGraph,
    CoefficientSet,
    Dataset,
    DimensionMismatchError,
    DownwardClosure,
    EntryTable,
    InvalidArgumentError,
    NonPositivePosteriorParamError,
    build_table,
    compute_updates,
    downward_closure,
    exact_coefficients,
    fourier_coefficient,
    fourier_posterior_params,
    marginal_error_bound,
    noise_scale,
    posterior_params,
    project_marginal,
    reconstruct_marginal,
    release_coefficients,
    shared_submarginal,
    stealth_increment,
    uniform_priors,
)
from dpbayes import fourier as fourier_mod
from dpbayes.graph import BetaTable
from dpbayes.randomness import derive_seed, laplace_from_uniform, substream
from dpbayes.verify import all_dags, dense_table, walsh_coefficients_dense, dense_marginal

from conftest import CHAIN3, SINGLE, random_dag, random_dataset, twenty_node_dag


def keep_vector(k: int, mask: int) -> tuple[int, ...]:
    return tuple((mask >> p) & 1 for p in range(k))


# ---------------------------------------------------------------------------
# downward closure
# ---------------------------------------------------------------------------


def test_closure_single_node():
    clo = downward_closure(SINGLE)
    assert set(clo.members) == {0, 1}
    assert clo.size == 2


def test_closure_naive_bayes_size():
    for d in (2, 5, 16):
        nb = BayesNetGraph(node_count=d + 1, parents=((),) + ((0,),) * d)
        assert downward_closure(nb).size == 2 * d + 2


def test_closure_chain_members():
    # families {0}, {0,1}, {1,2} -> submasks {0,1,2,3,4,6}
    clo = downward_closure(CHAIN3)
    assert set(clo.members) == {0b000, 0b001, 0b010, 0b011, 0b100, 0b110}
    assert clo.size == 6
    # cached per graph, like graph.entry_cell_plan
    assert downward_closure(BayesNetGraph(node_count=3, parents=((), (0,), (1,)))) is clo


def test_closure_validation():
    with pytest.raises(ValueError):
        DownwardClosure(k=2, members=(1, 2))  # missing the empty mask
    with pytest.raises(ValueError):
        DownwardClosure(k=2, members=(0, 3))  # not downward closed
    with pytest.raises(ValueError):
        DownwardClosure(k=1, members=(0, 2))  # mask outside k bits


def all_submasks(mask: int, k: int) -> list[int]:
    return [sub for sub in range(1 << k) if sub & mask == sub]


@pytest.mark.parametrize("k", range(4))
def test_closure_check_agrees_with_all_submasks(k):
    # every set of masks over k variables that holds 0
    others = range(1, 1 << k)
    for chosen in itertools.chain.from_iterable(
        itertools.combinations(others, r) for r in range(len(others) + 1)
    ):
        members = (0, *chosen)
        closed = all(sub in members for m in members for sub in all_submasks(m, k))
        try:
            DownwardClosure(k=k, members=members)
        except InvalidArgumentError:
            assert not closed, members
        else:
            assert closed, members


@pytest.mark.parametrize("k", range(1, 5))
def test_closure_is_the_union_of_family_submasks(k):
    for graph in all_dags(k):
        union = {s for i in range(k) for s in all_submasks(graph.family_mask(i), k)}
        assert downward_closure(graph).members == tuple(sorted(union)), graph.parents


def test_closure_economy_bound(rng):
    for _ in range(10):
        k = int(rng.integers(2, 6))
        graph = random_dag(rng, k, max_indegree=2)
        clo = downward_closure(graph)
        indeg = max(len(p) for p in graph.parents)
        assert clo.size <= k * (1 << (1 + indeg))


# ---------------------------------------------------------------------------
# coefficients
# ---------------------------------------------------------------------------


def test_coefficient_all_zeros_gamma(rng):
    data = random_dataset(rng, 37, 4)
    assert fourier_coefficient(data, 0) == pytest.approx(37 * 2.0**-2)


def test_coefficient_one_dimensional():
    data = Dataset.from_records([(0,)] * 3 + [(1,)] * 5)
    assert fourier_coefficient(data, 1) == pytest.approx((3 - 5) / math.sqrt(2))


def test_coefficient_streaming_equals_dense(rng):
    for _ in range(10):
        k = int(rng.integers(1, 11))
        data = random_dataset(rng, int(rng.integers(1, 200)), k)
        dense = walsh_coefficients_dense(dense_table(data, k))
        for gamma in rng.integers(0, 1 << k, size=5):
            got = fourier_coefficient(data, int(gamma))
            assert got == pytest.approx(dense[int(gamma)], abs=1e-9)


def test_coefficient_vector_equals_streamed_definition(rng):
    graph = twenty_node_dag(rng)
    data = random_dataset(rng, 5000, 20)
    clo = downward_closure(graph)
    exact = exact_coefficients(data, clo)
    # infinite epsilon: zero noise and zero stealth increment
    released = release_coefficients(data, clo, epsilon=math.inf, t=1.0, seed=3)
    for gamma in clo.members:
        streamed = fourier_coefficient(data, gamma)
        assert exact.values[gamma] == streamed
        assert released.values[gamma] == streamed


def test_coefficient_vector_without_records():
    clo = downward_closure(CHAIN3)
    empty = Dataset(np.zeros((0, 3), dtype=np.int8))
    for data in (empty, Dataset.from_records([])):
        values = exact_coefficients(data, clo).values
        assert values == {g: fourier_coefficient(empty, g) for g in clo.members}
        assert set(values.values()) == {0.0}


def test_coefficient_vector_on_empty_set_closure(rng):
    data = random_dataset(rng, 37, 3)
    clo = DownwardClosure(k=3, members=(0,))
    assert exact_coefficients(data, clo).values == {0: fourier_coefficient(data, 0)}
    assert exact_coefficients(data, clo).values[0] == 37 * 2.0**-1.5


def test_release_noise_layout(rng):
    # one substream per release, one uniform per member in closure order
    data = random_dataset(rng, 50, 3)
    clo = downward_closure(CHAIN3)
    eps, t, seed = 0.7, 1.5, 21
    released = release_coefficients(data, clo, epsilon=eps, t=t, seed=seed)
    u = substream(seed, fourier_mod._NOISE_TAG).random(clo.size)
    noise = laplace_from_uniform(u, noise_scale(clo, eps))
    exact = exact_coefficients(data, clo).values
    for r, gamma in enumerate(clo.members):
        expected = exact[gamma] + noise[r]
        if gamma == 0:
            expected += stealth_increment(clo, eps, t)
        assert released.values[gamma] == expected


def test_derive_seed_is_a_32_bit_seed():
    # the first uint32 word of the SeedSequence state, as every release reads it
    seeds = [derive_seed(seed, "attempt", key) for seed in range(40) for key in range(50)]
    assert all(0 <= s < 2**32 for s in seeds)
    assert max(seeds) >= 2**31


def test_release_peak_allocation_stays_small(rng):
    # a records x closure parity matrix alone would take more than 6.5 MB
    graph = twenty_node_dag(rng)
    data = random_dataset(rng, 5000, 20)
    clo = downward_closure(graph)
    release_coefficients(data, clo, epsilon=1.0, t=1.0, seed=0)  # fills the index cache
    tracemalloc.start()
    try:
        release_coefficients(data, clo, epsilon=1.0, t=1.0, seed=1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20


def test_noise_scale_formula():
    clo = downward_closure(CHAIN3)  # size 6, k = 3
    assert noise_scale(clo, epsilon=1.0) == pytest.approx(12 / 2**1.5)
    assert noise_scale(clo, epsilon=1.0) == pytest.approx(4.2426, abs=1e-4)


def test_stealth_increment_formula():
    clo = downward_closure(CHAIN3)
    t = math.log(10.0)
    expected = 4.0 * t * 36 / (1.0 * 2**1.5)
    assert stealth_increment(clo, epsilon=1.0, t=t) == pytest.approx(expected)


# ---------------------------------------------------------------------------
# release
# ---------------------------------------------------------------------------


def test_release_rejects_bad_parameters(rng):
    data = random_dataset(rng, 10, 3)
    clo = downward_closure(CHAIN3)
    with pytest.raises(InvalidArgumentError, match="epsilon"):
        release_coefficients(data, clo, epsilon=0.0, t=1.0, seed=1)
    with pytest.raises(InvalidArgumentError, match="t must be positive"):
        release_coefficients(data, clo, epsilon=1.0, t=0.0, seed=1)
    with pytest.raises(InvalidArgumentError, match="t must be positive"):
        release_coefficients(data, clo, epsilon=1.0, t=-2.0, seed=1)
    # an infinite increment would leave no finite coefficient to read
    with pytest.raises(InvalidArgumentError, match="finite"):
        release_coefficients(data, clo, epsilon=1.0, t=math.inf, seed=1)


def test_release_near_zero_noise_limit(rng):
    data = random_dataset(rng, 50, 3)
    clo = downward_closure(CHAIN3)
    exact = exact_coefficients(data, clo)
    released = release_coefficients(data, clo, epsilon=1e12, t=1e-12, seed=4)
    for gamma in clo.members:
        assert released.values[gamma] == pytest.approx(exact.values[gamma], abs=1e-6)


def test_release_applies_stealth_increment(rng):
    # with a fixed seed, bumping t moves only the empty-mask coefficient
    data = random_dataset(rng, 50, 3)
    clo = downward_closure(CHAIN3)
    t1, t2 = 0.5, 2.5
    r1 = release_coefficients(data, clo, epsilon=1.0, t=t1, seed=11)
    r2 = release_coefficients(data, clo, epsilon=1.0, t=t2, seed=11)
    gap = stealth_increment(clo, 1.0, t2) - stealth_increment(clo, 1.0, t1)
    assert r2.values[0] - r1.values[0] == pytest.approx(gap, abs=1e-12)
    for gamma in clo.members:
        if gamma:
            assert r1.values[gamma] == r2.values[gamma]


def test_release_determinism(rng):
    data = random_dataset(rng, 30, 3)
    clo = downward_closure(CHAIN3)
    a = release_coefficients(data, clo, epsilon=1.0, t=1.0, seed=8)
    b = release_coefficients(data, clo, epsilon=1.0, t=1.0, seed=8)
    assert a.values == b.values
    c = release_coefficients(data, clo, epsilon=1.0, t=1.0, seed=9)
    assert c.values != a.values


def test_coefficient_set_requires_exact_index_match():
    clo = downward_closure(SINGLE)
    with pytest.raises(DimensionMismatchError, match=r"coefficients list entries \(0,\)"):
        CoefficientSet(closure=clo, values={0: 1.0})


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_coefficient_set_rejects_non_finite_values(bad):
    # a NaN coefficient would otherwise reconstruct all-NaN marginal cells
    clo = downward_closure(SINGLE)
    with pytest.raises(InvalidArgumentError, match="finite"):
        CoefficientSet(closure=clo, values={0: bad, 1: 0.5})


# ---------------------------------------------------------------------------
# reconstruction
# ---------------------------------------------------------------------------


def test_reconstruction_zero_noise_identity(rng):
    for _ in range(10):
        k = int(rng.integers(1, 7))
        graph = random_dag(rng, k, max_indegree=2)
        data = random_dataset(rng, int(rng.integers(1, 300)), k)
        table = build_table(data)
        coeffs = exact_coefficients(data, downward_closure(graph))
        for i in range(k):
            recon = reconstruct_marginal(coeffs, i, graph)
            direct = project_marginal(table, keep_vector(k, graph.family_mask(i)))
            for cell in recon.cells:
                assert recon.value(cell) == pytest.approx(direct.value(cell), abs=1e-9)


def test_reconstruction_two_variable_example():
    graph = BayesNetGraph(node_count=2, parents=((), (0,)))
    data = Dataset.from_records([(0, 0), (0, 0), (1, 1)])
    coeffs = exact_coefficients(data, downward_closure(graph))
    recon = reconstruct_marginal(coeffs, 1, graph)  # family {0, 1}: whole table
    assert recon.value((0, 0)) == pytest.approx(2.0, abs=1e-12)
    assert recon.value((1, 1)) == pytest.approx(1.0, abs=1e-12)
    assert recon.value((0, 1)) == pytest.approx(0.0, abs=1e-12)
    assert recon.value((1, 0)) == pytest.approx(0.0, abs=1e-12)


def test_reconstruction_matches_dense_oracle(rng):
    k = 5
    graph = random_dag(rng, k, max_indegree=2)
    data = random_dataset(rng, 120, k)
    coeffs = exact_coefficients(data, downward_closure(graph))
    dense = dense_table(data, k)
    for i in range(k):
        fam = sorted((i, *graph.parents[i]))
        marg = dense_marginal(dense, k, fam)
        recon = reconstruct_marginal(coeffs, i, graph)
        for idx in range(marg.size):
            cell = tuple((idx >> p) & 1 for p in range(len(fam)))
            assert recon.value(cell) == pytest.approx(float(marg[idx]), abs=1e-9)


def test_reconstruction_missing_coefficient():
    # a closure built for a subgraph lacks gammas of the full family
    narrow = DownwardClosure(k=2, members=(0, 1))
    coeffs = CoefficientSet(closure=narrow, values={0: 1.0, 1: 0.5})
    graph = BayesNetGraph(node_count=2, parents=((), (0,)))
    message = "coefficient 0x3 needed for node 1 was not released"
    with pytest.raises(DimensionMismatchError, match=message):
        reconstruct_marginal(coeffs, 1, graph)
    with pytest.raises(DimensionMismatchError, match=message):
        fourier_posterior_params(coeffs, graph, uniform_priors(graph))
    assert reconstruct_marginal(coeffs, 0, graph).value((0,)) == pytest.approx(1.5)


def test_reconstruction_matches_sign_sum_under_noise(rng):
    # the butterfly equals the defining sign sum on noisy coefficients
    graph = twenty_node_dag(rng)
    data = random_dataset(rng, 200, 20)
    coeffs = release_coefficients(data, downward_closure(graph), epsilon=0.5, t=1.0, seed=2)
    for node in range(graph.node_count):
        fam = sorted((node, *graph.parents[node]))
        weight = 2.0 ** (graph.node_count / 2.0 - len(fam))
        recon = reconstruct_marginal(coeffs, node, graph)
        assert len(recon.cells) == 1 << len(fam)
        for c in range(1 << len(fam)):
            cell = tuple((c >> b) & 1 for b in range(len(fam)))
            cell_mask = sum(bit << v for bit, v in zip(cell, fam))
            expected = sum(
                z * (-1) ** bin(cell_mask & gamma).count("1")
                for gamma, z in coeffs.values.items()
                if gamma & ~graph.family_mask(node) == 0
            )
            assert recon.value(cell) == pytest.approx(expected * weight, abs=1e-9)


def test_noisy_reconstructions_consistent(rng):
    # shared sub-marginals agree across nodes no matter the noise
    d = 4
    nb = BayesNetGraph(node_count=d + 1, parents=((),) + ((0,),) * d)
    data = random_dataset(rng, 60, d + 1)
    clo = downward_closure(nb)
    for seed in range(10):
        coeffs = release_coefficients(data, clo, epsilon=0.5, t=math.log(10), seed=seed)
        margs = {i: reconstruct_marginal(coeffs, i, nb) for i in range(1, d + 1)}
        onto_class = [
            shared_submarginal(margs[i], (0, i), (0,)) for i in range(1, d + 1)
        ]
        base = onto_class[0]
        for other in onto_class[1:]:
            for cell in ((0,), (1,)):
                assert other.value(cell) == pytest.approx(base.value(cell), abs=1e-9)


# ---------------------------------------------------------------------------
# posterior parameters
# ---------------------------------------------------------------------------


def test_fourier_posterior_zero_noise_matches_exact_path(rng):
    data = random_dataset(rng, 40, 3)
    coeffs = exact_coefficients(data, downward_closure(CHAIN3))
    priors = uniform_priors(CHAIN3)
    via_fourier = fourier_posterior_params(coeffs, CHAIN3, priors)
    via_counts = posterior_params(priors, compute_updates(CHAIN3, data))
    assert set(via_fourier) == set(via_counts)
    for key in via_counts:
        assert via_fourier[key].alpha == pytest.approx(via_counts[key].alpha, abs=1e-9)
        assert via_fourier[key].beta == pytest.approx(via_counts[key].beta, abs=1e-9)


def test_fourier_posterior_zero_noise_large_network(rng):
    # parents declared out of order: configuration bits follow declared order
    graph = twenty_node_dag(rng)
    data = random_dataset(rng, 5000, 20)
    priors = uniform_priors(graph, 0.5, 2.0)
    coeffs = exact_coefficients(data, downward_closure(graph))
    via_fourier = fourier_posterior_params(coeffs, graph, priors)
    via_counts = posterior_params(priors, compute_updates(graph, data))
    assert list(via_fourier) == list(via_counts)
    for key in via_counts:
        assert via_fourier[key].alpha == pytest.approx(via_counts[key].alpha, abs=1e-8)
        assert via_fourier[key].beta == pytest.approx(via_counts[key].beta, abs=1e-8)


@pytest.mark.parametrize("k", range(1, 5))
def test_zero_noise_release_of_every_small_dag_matches_the_counts(k):
    # parents declared in shuffled order, so every family's cells and
    # coefficients are paired in a layout other than ascending
    rng = np.random.default_rng(k)
    for dag in all_dags(k):
        parents = [tuple(rng.permutation(pa).tolist()) for pa in dag.parents]
        graph = BayesNetGraph.from_parent_lists(parents)
        data = random_dataset(rng, int(rng.integers(0, 40)), k)
        priors = uniform_priors(graph, 0.5, 2.0)
        z, post, floored = fourier_mod.release_posterior_stack(
            (data,), graph, priors, (math.inf,), 1.0, ((0,),)
        )
        exact = posterior_params(priors, compute_updates(graph, data)).array
        np.testing.assert_allclose(post[0, 0], exact, rtol=1e-12)
        assert not floored[0, 0]
        closure = downward_closure(graph)
        coeffs = CoefficientSet(closure, EntryTable(closure.members, z[0, 0]))
        table = build_table(data)
        for i in range(k):
            recon = reconstruct_marginal(coeffs, i, graph)
            direct = project_marginal(table, keep_vector(k, graph.family_mask(i)))
            assert len(recon.cells) == 1 << (len(parents[i]) + 1)
            for cell, value in recon.cells.items():
                assert value == pytest.approx(direct.value(cell), rel=1e-12, abs=1e-12)


def test_nonpositive_entries_listed_in_entry_order(rng):
    data = random_dataset(rng, 40, 3)
    exact = exact_coefficients(data, downward_closure(CHAIN3))
    shifted = exact.values.array.copy()
    shifted[0] -= 1000.0  # lowers every cell of every family
    coeffs = CoefficientSet(exact.closure, EntryTable(exact.closure.members, shifted))
    with pytest.raises(NonPositivePosteriorParamError) as err:
        fourier_posterior_params(coeffs, CHAIN3, uniform_priors(CHAIN3))
    keys = list(CHAIN3.entry_keys())
    assert err.value.entries == tuple(keys)
    assert str(keys) in str(err.value)


def crafted_single_node_coeffs(cell0: float, cell1: float) -> CoefficientSet:
    # k=1 reconstruction: cell(b) = (z0 + (-1)^b z1) / sqrt(2)
    clo = downward_closure(SINGLE)
    z0 = (cell0 + cell1) / math.sqrt(2.0)
    z1 = (cell0 - cell1) / math.sqrt(2.0)
    return CoefficientSet(closure=clo, values={0: z0, 1: z1})


def test_small_negative_cell_still_valid():
    coeffs = crafted_single_node_coeffs(cell0=2.0, cell1=-0.3)
    post = fourier_posterior_params(coeffs, SINGLE, uniform_priors(SINGLE))
    assert post[(0, 0)].alpha == pytest.approx(0.7)
    assert post[(0, 0)].beta == pytest.approx(3.0)


def test_large_negative_cell_flagged():
    coeffs = crafted_single_node_coeffs(cell0=2.0, cell1=-1.5)
    with pytest.raises(NonPositivePosteriorParamError) as err:
        fourier_posterior_params(coeffs, SINGLE, uniform_priors(SINGLE))
    assert (0, 0) in err.value.entries


def test_clamp_fallback_floors_cells():
    coeffs = crafted_single_node_coeffs(cell0=2.0, cell1=-1.5)
    post = fourier_posterior_params(
        coeffs, SINGLE, uniform_priors(SINGLE), clamp_nonpositive=True
    )
    assert post[(0, 0)].alpha == pytest.approx(1.0)  # floored cell + prior
    assert post[(0, 0)].beta == pytest.approx(3.0)


def test_posterior_past_the_double_range_is_refused_without_a_warning():
    # at eps 1.4e-306 the coefficients are finite but their Walsh sums are not
    graph = BayesNetGraph.from_parent_lists([[], [0], [0, 1]])
    data = Dataset.from_records([(0, 1, 1), (1, 0, 1), (1, 1, 0), (0, 0, 0)])
    priors = uniform_priors(graph)
    t = fourier_mod.DEFAULT_STEALTH_T
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InvalidArgumentError, match="finite"):
            fourier_mod.release_posterior_stack((data,), graph, priors, (1.4e-306,), t, ((1,),))
        coeffs = release_coefficients(data, downward_closure(graph), 1.4e-306, t, 1)
        for clamp in (False, True):
            with pytest.raises(InvalidArgumentError, match="finite"):
                fourier_posterior_params(coeffs, graph, priors, clamp_nonpositive=clamp)


def test_marginal_past_the_double_range_is_refused_without_a_warning():
    graph = BayesNetGraph.from_parent_lists([[], [0], [0, 1]])
    data = Dataset.from_records([(0, 1, 1), (1, 0, 1), (1, 1, 0), (0, 0, 0)])
    coeffs = release_coefficients(data, downward_closure(graph), 1.4e-306, math.log(10), 1)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        # node 0's two cells pass the double range; the other families' cells stay finite
        with pytest.raises(InvalidArgumentError, match="finite"):
            reconstruct_marginal(coeffs, 0, graph)
        for node in (1, 2):
            assert np.isfinite(list(reconstruct_marginal(coeffs, node, graph).cells.values())).all()


def test_one_row_release_is_one_release_floored_on_stealth_failure():
    # at t = 0.01 and eps = 0.5 the stealth boost fails for most seeds
    tree = BayesNetGraph(node_count=3, parents=((), (0,), (0,)))
    data = random_dataset(np.random.default_rng(1), 40, 3)
    closure, priors = downward_closure(tree), uniform_priors(tree)
    floored_seeds = 0
    for seed in range(40):
        z, rows, floored = fourier_mod.release_posterior_stack(
            (data,), tree, priors, (0.5,), 0.01, ((seed,),)
        )
        post = BetaTable(tree.entry_keys(), rows[0, 0])
        want = release_coefficients(data, closure, 0.5, 0.01, derive_seed(seed, "attempt", 0))
        assert z[0, 0].tobytes() == want.values.array.tobytes()
        try:
            assert post == fourier_posterior_params(want, tree, priors)
            assert not floored[0, 0]
        except NonPositivePosteriorParamError:
            assert post == fourier_posterior_params(want, tree, priors, clamp_nonpositive=True)
            assert floored[0, 0]
            floored_seeds += 1
    assert 0 < floored_seeds < 40


def test_release_stack_rows_equal_single_releases_bit_for_bit():
    # node 1 copies node 0, so two of its cells are empty: at t = 0.01 some
    # releases floor, and some keep a small negative cell with a positive posterior
    tree = BayesNetGraph(node_count=3, parents=((), (0,), (0,)))
    records = np.random.default_rng(1).integers(0, 2, size=(40, 3))
    records[:, 1] = records[:, 0]
    data, closure, priors = Dataset(records), downward_closure(tree), uniform_priors(tree)
    epsilons = (0.5, math.inf, 2.0, 4.0, 8.0, 16.0, 4.0, 8.0)
    seeds = range(len(epsilons))
    z, post, floored = fourier_mod.release_posterior_stack(
        (data,), tree, priors, epsilons, 0.01, (seeds,)
    )
    assert z.shape == (1, len(epsilons), closure.size)
    assert post.shape == (1, len(epsilons), tree.update_size(), 2)
    z, post, floored = z[0], post[0], floored[0]
    kept_negative = 0
    for e, (eps, seed) in enumerate(zip(epsilons, seeds)):
        single_z, single_post, single_floored = fourier_mod.release_posterior_stack(
            (data,), tree, priors, (eps,), 0.01, ((seed,),)
        )
        single_z, single_post, single_floored = single_z[0], single_post[0], single_floored[0]
        want = release_coefficients(data, closure, eps, 0.01, derive_seed(seed, "attempt", 0))
        assert z[e].tobytes() == single_z[0].tobytes() == want.values.array.tobytes()
        try:
            want_post = fourier_posterior_params(want, tree, priors)
            assert not floored[e]
            kept_negative += bool((post[e] < priors.array).any())
        except NonPositivePosteriorParamError:
            want_post = fourier_posterior_params(want, tree, priors, clamp_nonpositive=True)
            assert floored[e]
        assert post[e].tobytes() == single_post[0].tobytes() == want_post.array.tobytes()
        assert floored[e] == single_floored[0]
    exact = posterior_params(priors, compute_updates(tree, data)).array
    assert not floored[1] and post[1] == pytest.approx(exact, rel=1e-12)
    assert 0 < floored.sum() < len(epsilons) - 1 and kept_negative


def test_release_stack_over_datasets_equals_single_releases_bit_for_bit(rng):
    # three datasets, three epsilons each: past the batch crossover, some releases floored
    datasets = [random_dataset(rng, n, 3) for n in (40, 7, 25)]
    priors = uniform_priors(CHAIN3)
    epsilons = (0.5, 2.0, math.inf)
    seeds = np.arange(9, dtype=np.uint32).reshape(3, 3) * 7 + 1
    z, post, floored = fourier_mod.release_posterior_stack(
        datasets, CHAIN3, priors, epsilons, 0.01, seeds
    )
    assert z.shape == (3, 3, downward_closure(CHAIN3).size) and floored.shape == (3, 3)
    for r, e in np.ndindex(3, 3):
        single_z, single_post, single_floored = fourier_mod.release_posterior_stack(
            (datasets[r],), CHAIN3, priors, (epsilons[e],), 0.01, ((int(seeds[r, e]),),)
        )
        assert z[r, e].tobytes() == single_z[0, 0].tobytes()
        assert post[r, e].tobytes() == single_post[0, 0].tobytes()
        assert floored[r, e] == single_floored[0, 0]
    assert floored.any() and not floored.all()


def test_release_stack_needs_one_seed_per_epsilon(rng):
    data = random_dataset(rng, 10, 3)
    with pytest.raises(DimensionMismatchError, match="one seed per"):
        fourier_mod.release_coefficient_stack(
            (data,), downward_closure(CHAIN3), (1.0, 2.0), 1.0, ((3,),)
        )


# ---------------------------------------------------------------------------
# utility bound and stealth rate
# ---------------------------------------------------------------------------


def test_error_bound_increases_in_t():
    values = [
        marginal_error_bound(CHAIN3, 1, epsilon=1.0, delta=0.1, t=t)
        for t in (0.5, 1.0, 2.0, 4.0)
    ]
    assert all(b > a for a, b in zip(values, values[1:]))


@pytest.mark.parametrize("t", [math.inf, math.nan])
def test_error_bound_rejects_non_finite_t(t):
    # the bound and the release share one t rule, and its message
    with pytest.raises(InvalidArgumentError, match="t must be positive and finite"):
        marginal_error_bound(CHAIN3, 1, epsilon=1.0, delta=0.1, t=t)


def test_error_bound_naive_bayes_spot_value():
    nb = BayesNetGraph(node_count=3, parents=((), (0,), (0,)))  # d=2, |J|=6
    t = math.log(10.0)
    got = marginal_error_bound(nb, 1, epsilon=1.0, delta=0.1, t=t)
    expected = (4 * 6 / 1.0) * (2 * math.log(6 / 0.1) + t * 6)
    assert got == pytest.approx(expected)


def test_stealth_rate_small_sample(rng):
    # 200-release check at the flagship t; the acceptance suite runs 1000
    d = 2
    nb = BayesNetGraph(node_count=d + 1, parents=((),) + ((0,),) * d)
    data = random_dataset(rng, 50, d + 1)
    clo = downward_closure(nb)
    ok = 0
    for seed in range(200):
        coeffs = release_coefficients(data, clo, epsilon=1.0, t=math.log(10), seed=seed)
        recons = [reconstruct_marginal(coeffs, i, nb) for i in range(d + 1)]
        ok += all(v >= 0.0 for r in recons for v in r.cells.values())
    assert ok >= 170
